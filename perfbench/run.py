"""Benchmark for the ``seqmcm`` command line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload {chains,ensembles,suites} \\
        --seed N --seconds S --trace {0,1}

Every op is one ``seqmcm`` command line run in-process through
``seqmcm.cli.main`` with stdout captured; one client runs the ops one at a
time (a closed loop, no think time).  The seed fixes the generated inputs,
which are written before timing starts.  ``SEQMCM_THREADS`` is removed from
the environment so sweeps use the CLI's default thread pool, as a user gets.

``--trace 0`` repeats the workload's fixed op list for as many whole passes
as are expected to fit in ``--seconds`` (at least one).

Times are reported at a fixed host speed.  Other tenants of a small shared
host slow whole stretches of a run: on a 2-vCPU virtual machine one pass of
the 104 ``chains`` ops took from 2.6 s to 4.7 s within a minute, and runs a
few minutes apart differed by 30 % even in their fastest repeat of each op.
So a fixed reference kernel (``reference_kernel``: small complex eigensolves,
matrix products and dict building; it calls nothing in ``seqmcm``) is timed
just before every op.  The median of the samples taken at the op and its
five neighbours on each side is the host's speed at that op, and the op's
time is scaled by ``REFERENCE_S / median``: the time the op would take on a
host that runs the kernel in ``REFERENCE_S``.  The scaling cancels the
host's slow phases but not a change in the program, whose work the kernel
does not share.  It is close to exact for ``chains`` (op times moved 0.96 to
0.99 times as much as the kernel's, on a log scale) and partial for the
SDP-heavy ``ensembles`` ops (0.84 to 0.88 times), so that workload keeps a
little of the host's noise.  An op's latency is the median of its scaled
times over the passes.  Raw pass times, the per-pass kernel medians and the
raw set-up times are printed on the ``meta`` line.

The end-to-end metrics are:

* ``wall_s``: time to finish the op list once, the sum of the op latencies;
* ``op_p50_ms``, ``op_p90_ms``: median and 90th percentile of the op
  latencies (every workload has at least 100 ops, so at least ten lie
  beyond the 90th percentile);
* ``setup_s``: median over several fresh interpreters of importing
  ``seqmcm.cli``, building the parser and running one warm-up op of each
  command kind of the workload (see ``setup_probe.py``), each scaled to a
  fixed host speed by the start-up of a bare interpreter timed around it
  (``STARTUP_REFERENCE``);
* ``peak_rss_mb``: maximum resident set size of this process.

``--trace 1`` runs one pass with the tracer of ``tracer.py`` installed
between two untraced passes, and reports per-layer totals of the traced pass,
the tracing overhead (traced minus mean untraced pass time),
the failure rate, the guessing gap and per-module import times taken from
``python -X importtime``.  Spans are written to ``.perfbench_out/``.

Every op's output is checked outside the timed region (``workloads.py``);
later passes must reproduce the first pass byte for byte.  The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it describe the run and every failed op.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import gzip
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from typing import Any

import numpy as np
import workloads
from tracer import LAYERS, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.abspath("src")
WORK_ROOT = ".perfbench_work"
OUT_DIR = ".perfbench_out"
SETUP_PROBES = 5
IMPORT_PROBES = 3
REFERENCE_S = 1.2e-3
"""Time of one ``reference_kernel`` call on a quiet host (the fast mode of a
2-vCPU x86-64 virtual machine, CPython 3.11, numpy 2 with OpenBLAS); the
unit that scaled times are expressed in."""
REFERENCE_WINDOW = 11
"""Reference kernel samples (one before each op) whose median scales an op."""
STARTUP_REFERENCE = (
    "import argparse, csv, dataclasses, decimal, email.parser, fractions, "
    "http.client, json, logging, typing, unittest, xml.dom.minidom"
)
"""A fresh interpreter importing part of the standard library: the yardstick
for set-up, which is interpreter start-up and imports.  Host slow phases
stretch start-up less than they stretch ``reference_kernel`` (a 1.45x slower
set-up came with a 1.75x slower kernel on a 2-vCPU virtual machine), so set-up
is scaled by this instead; it tracked the probes to within 6 %."""
STARTUP_REFERENCE_S = 85e-3
"""Time of one ``STARTUP_REFERENCE`` interpreter on a quiet host (the same
machine as ``REFERENCE_S``)."""
STARTUP_SAMPLES = 3
"""``STARTUP_REFERENCE`` runs before and after each set-up probe."""
_REFERENCE_MATRIX = np.array(
    [[2.0, 1.0 - 0.5j, 0.25j, 0.0], [1.0 + 0.5j, 1.0, 0.5, -0.5j], [-0.25j, 0.5, 3.0, 1.0], [0.0, 0.5j, 1.0, 0.5]]
)
BLAS_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_op(cli: Any, argv: list[str]) -> tuple[int, str, str, float]:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a traceback is a failed op, not a failed benchmark
            rc = -1
            err.write(traceback.format_exc())
    return rc, out.getvalue(), err.getvalue(), time.perf_counter() - start


def reference_kernel() -> float:
    """Seconds taken by a fixed piece of interpreter and small-matrix work,
    the yardstick of the host's current speed.  The garbage collector is
    paused so the program's heap does not change the kernel's cost."""
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(60):
            vals, vecs = np.linalg.eigh(_REFERENCE_MATRIX)
            _ = vecs @ np.diag(vals) @ vecs.conj().T
            _ = {str(k): k * k for k in range(30)}
        return time.perf_counter() - start
    finally:
        gc.enable()


def run_pass(cli: Any, ops: list, tracer: Any = None) -> tuple[list, list[float]]:
    """One pass over the ops.  Untraced passes time the reference kernel
    before every op; the traced pass does not, so the tracer counts only the
    program's kernel calls."""
    results, refs = [], []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        else:
            refs.append(reference_kernel())
        results.append(run_op(cli, op.argv))
    return results, refs


def local_speeds(refs: list[float]) -> list[float]:
    """Host speed at each op of a pass: the median reference kernel time over
    the ``REFERENCE_WINDOW`` samples centred on the op."""
    half = REFERENCE_WINDOW // 2
    return [statistics.median(refs[max(0, i - half) : i + half + 1]) for i in range(len(refs))]


def reference_startup() -> float:
    """Seconds for an isolated interpreter to run ``STARTUP_REFERENCE``."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-I", "-c", STARTUP_REFERENCE], check=True, timeout=60)
    return time.perf_counter() - start


def setup_times(warmup_file: str) -> tuple[list[float], list[float], list[float]]:
    """Raw set-up times, the median start-up reference around each, and the
    set-up times scaled to ``STARTUP_REFERENCE_S``."""
    raw, speeds, scaled = [], [], []
    for _ in range(SETUP_PROBES):
        refs = [reference_startup() for _ in range(STARTUP_SAMPLES)]
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), warmup_file],
            env=_child_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=120,
        )
        raw.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        refs += [reference_startup() for _ in range(STARTUP_SAMPLES)]
        speeds.append(statistics.median(refs))
        scaled.append(raw[-1] * STARTUP_REFERENCE_S / speeds[-1])
    return raw, speeds, scaled


def import_times() -> dict[str, float]:
    """Median cumulative import time of each module, from ``-X importtime``."""
    samples: dict[str, list[float]] = {m: [] for m in LAYERS}
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import seqmcm.cli"],
            env=_child_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"import probe failed: {proc.stderr.strip()[-500:]}")
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip().startswith("seqmcm."):
                module = parts[2].strip().split(".", 1)[1]
                if module in samples:
                    samples[module].append(int(parts[1]) / 1e6)
    return {m: statistics.median(v) if v else 0.0 for m, v in samples.items()}


def src_lines() -> int:
    total = 0
    for root, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(root, name), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


def check_pass(workload: Any, results: list, first: list | None) -> list[str | None]:
    """Failure reason per op (None when the op passed).  The first pass is
    checked against the references; later passes against the first pass."""
    reasons: list[str | None] = []
    for i, (op, (rc, out, err, _)) in enumerate(zip(workload.ops, results)):
        if first is not None:
            rc0, digest0, reason0 = first[i]
            same = rc == rc0 and hashlib.sha1(out.encode()).hexdigest() == digest0
            reasons.append(reason0 if same else "output differs from the first pass")
            continue
        try:
            reason = workload.check(op, rc, out)
        except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
            reason = f"unreadable output ({type(exc).__name__}: {exc})"
        if reason is not None and err.strip():
            reason += f"; stderr: {err.strip().splitlines()[-1]}"
        reasons.append(reason)
    return reasons


def fingerprint(results: list, reasons: list) -> list[tuple[int, str, str | None]]:
    return [
        (rc, hashlib.sha1(out.encode()).hexdigest(), reason)
        for (rc, out, _, _), reason in zip(results, reasons)
    ]


def metadata(args: argparse.Namespace, workload: Any, walls: list[float], threads_env: str | None) -> dict:
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "ops_per_pass": len(workload.ops),
        "pass_wall_s": walls,
        "src_lines": src_lines(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "seqmcm_threads_removed": threads_env,
    }


def measure(args: argparse.Namespace, workdir: str) -> int:
    sys.path.insert(0, SRC)
    workload = workloads.BUILDERS[args.workload](args.seed, workdir, tiny=args.tiny)
    warmup_file = os.path.join(workdir, "warmups.json")
    with open(warmup_file, "w", encoding="utf-8") as fh:
        json.dump(workload.warmups, fh)

    setup_raw, setup_speeds, setup = ([], [], []) if args.trace else setup_times(warmup_file)

    from seqmcm import cli

    cli.build_parser()
    for argv in workload.warmups:
        rc, _, err, _ = run_op(cli, argv)
        if rc != 0:
            print(f"error: warm-up op {argv} exited {rc}: {err.strip()[-500:]}", file=sys.stderr)
            return 1

    walls: list[float] = []  # raw time of the ops of each pass
    speeds: list[float] = []  # median reference kernel time of each untraced pass
    scaled: list[list[float]] = []  # op times of each untraced pass at REFERENCE_S
    failures: list[tuple[int, int, str]] = []
    first = None
    gap = 0.0
    tracer = None
    start = time.perf_counter()
    longest = 0.0
    while True:
        traced = bool(args.trace) and len(walls) == 1
        if traced:
            tracer = Tracer()
            tracer.install()
        pass_start = time.perf_counter()
        try:
            results, refs = run_pass(cli, workload.ops, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        longest = max(longest, time.perf_counter() - pass_start)
        walls.append(math.fsum(r[3] for r in results))
        if refs:
            speeds.append(statistics.median(refs))
            scaled.append([r[3] * REFERENCE_S / speed for r, speed in zip(results, local_speeds(refs))])
        reasons = check_pass(workload, results, first)
        failures += [(len(walls), i, r) for i, r in enumerate(reasons) if r is not None]
        if first is None:
            first = fingerprint(results, reasons)
            gap = workloads.guess_gap_max(workload.ops, [r[1] for r in results])
        if args.trace:
            if len(walls) == 3:
                break
        elif time.perf_counter() - start + longest > args.seconds:
            break  # the next pass would likely end after --seconds

    attempted = len(walls) * len(workload.ops)
    meta = metadata(args, workload, walls, args.threads_env)
    meta["pass_reference_s"] = speeds
    meta["setup_raw_s"] = setup_raw
    meta["setup_reference_s"] = setup_speeds
    print(json.dumps({"meta": meta}, sort_keys=True))
    for pass_no, i, reason in failures:
        argv = workload.ops[i].argv
        print(json.dumps({"failed_op": {"pass": pass_no, "op": i, "argv": argv, "reason": reason}}))

    if args.trace:
        metrics: dict[str, float] = tracer.metrics()
        untraced = (walls[0] + walls[2]) / 2.0
        metrics["trace.overhead_s"] = walls[1] - untraced
        metrics["trace.overhead_share"] = (walls[1] - untraced) / untraced
        metrics["fail_rate"] = len(failures) / attempted
        metrics["guess_gap_max"] = gap
        for module, seconds in import_times().items():
            metrics[f"setup.import_s.{module}"] = seconds
        os.makedirs(OUT_DIR, exist_ok=True)
        span_file = os.path.join(OUT_DIR, f"spans-{args.workload}.jsonl.gz")
        with gzip.open(span_file, "wt", encoding="utf-8", compresslevel=1) as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    else:
        per_op = [statistics.median(times) for times in zip(*scaled)]
        latencies = [t * 1e3 for t in per_op]
        metrics = {
            "wall_s": math.fsum(per_op),
            "op_p50_ms": statistics.median(latencies),
            "op_p90_ms": statistics.quantiles(latencies, n=10)[8],
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    doc = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }
    print(json.dumps(doc))
    return 0


UNITS = {
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "calls": "count",
    "refused": "count",
    "infeasible": "count",
    "spans": "count",
    "newton_steps": "1/call",
    "linesearch_evals": "1/call",
    "bfgs_stages": "1/call",
    "eigh_calls": "1/call",
    "resolve_ratio": "ratio",
    "thread_overlap": "ratio",
    "overhead_share": "ratio",
    "fail_rate": "ratio",
    "guess_gap_max": "probability",
}


def unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last in UNITS:
        return UNITS[last]
    if last.endswith("_s") or ".import_s." in name:
        return "s"
    raise KeyError(f"no unit for metric {name}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="a few ops per workload (self-test)")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "seqmcm", "cli.py")):
        print("error: src/seqmcm not found; run from the root of a seqmcm checkout", file=sys.stderr)
        return 2
    args.threads_env = os.environ.pop("SEQMCM_THREADS", None)
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK_ROOT)
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK_ROOT)


if __name__ == "__main__":
    sys.exit(main())
