"""Tests of the benchmark itself.

Run from the root of a checkout with ``python3 -m pytest perfbench/selftest.py``.
The file is not named ``test_*.py`` so the repository's own test run does not
collect it.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402
from seqmcm import cli  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _bench(workload: str, trace: int, cwd: str = ROOT, seed: int = 3) -> subprocess.CompletedProcess:
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed), "--seconds", "1",
                             "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


WORKLOADS = sorted(workloads.BUILDERS)  # includes suites, which BENCHMARK.json leaves out


@pytest.fixture(scope="module")
def traced() -> dict[str, dict]:
    return {name: _result(_bench(name, 1)) for name in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_untraced_run_emits_every_end_to_end_metric(workload):
    doc = _result(_bench(workload, 0))
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["failed"] == 0 and doc["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == want
    assert all(v["value"] > 0 for v in doc["metrics"].values())


def test_tiny_traced_run_emits_every_per_layer_metric(traced):
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for workload, doc in traced.items():
        assert doc["correct"] is True, workload
        assert {k: v["unit"] for k, v in doc["metrics"].items()} == want, workload


def test_zero_call_predictions(traced):
    def value(workload: str, name: str) -> float:
        return traced[workload]["metrics"][name]["value"]

    assert value("chains", "optim.min_inconclusive_rate.calls") == 0
    assert value("chains", "optim.min_error_guessing.calls") == 0
    assert value("ensembles", "seqchan.calls") == 0
    assert value("suites", "optim.min_error_guessing.calls") == 0
    assert value("ensembles", "optim.min_error_guessing.bfgs_stages") > 0
    assert value("suites", "optim.min_inconclusive_rate.newton_steps") > 0


def test_kernel_counts_repeat_exactly(traced):
    again = _result(_bench("suites", 1))
    for name, metric in traced["suites"]["metrics"].items():
        if name.startswith("kernel."):
            assert again["metrics"][name]["value"] == metric["value"], name


def test_exits_nonzero_without_the_program(tmp_path):
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _bench("chains", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def _run(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def _failed_after(workload: workloads.Workload, op: workloads.Op, rc: int, text: str) -> str | None:
    """Run the benchmark's own per-pass check on a single op's output."""
    one = workloads.Workload(workload.name, [op], [], workload.check)
    return run.check_pass(one, [(rc, text, "", 0.0)], None)[0]


def test_corrupted_chain_outputs_count_as_failed(tmp_path):
    wl = workloads.build_chains(5, str(tmp_path), tiny=True)
    json_op = next(op for op in wl.ops if op.kind == "sequence" and op.ref["format"] == "json")
    csv_op = next(op for op in wl.ops if op.kind == "sequence" and op.ref["format"] == "csv")
    rc, text = _run(json_op.argv)
    assert _failed_after(wl, json_op, rc, text) is None
    doc = json.loads(text)
    doc["parties"][0]["confidences"]["1"] += 1e-6
    assert "confidence" in _failed_after(wl, json_op, rc, json.dumps(doc))
    assert _failed_after(wl, json_op, 4, text) == "exit code 4"

    rc, text = _run(csv_op.argv)
    assert _failed_after(wl, csv_op, rc, text) is None
    rows = list(csv.reader(io.StringIO(text)))
    col = rows[0].index("confidence_1")
    rows[1][col] = repr(float(rows[1][col]) + 1e-6)
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    assert "confidence" in _failed_after(wl, csv_op, rc, buf.getvalue())

    sweep = next(op for op in wl.ops if op.kind == "sweep" and op.argv[-1] == "gu")
    rc, text = _run(sweep.argv)
    assert _failed_after(wl, sweep, rc, text) is None
    header, first, *rest = text.splitlines()
    cells = first.split(",")
    cells[header.split(",").index("residual")] = "1e-06"
    assert "residual" in _failed_after(wl, sweep, rc, "\n".join([header, ",".join(cells), *rest]))


def test_corrupted_ensemble_outputs_count_as_failed(tmp_path):
    wl = workloads.build_ensembles(5, str(tmp_path), tiny=True)
    op = next(op for op in wl.ops if op.ref["n"] == 3 and op.ref["dim"] == 2)
    rc, text = _run(op.argv)
    assert _failed_after(wl, op, rc, text) is None
    doc = json.loads(text)
    doc["guessing"]["p_guess"] = workloads.lower_bound(op) - 1e-9
    assert "below the primal lower bound" in _failed_after(wl, op, rc, json.dumps(doc))
    doc = json.loads(text)
    doc["kkt"]["ok"] = False
    assert _failed_after(wl, op, rc, json.dumps(doc)) == "kkt.ok is false"
    doc = json.loads(text)
    doc["guessing"] = None
    assert "guessing is null" in _failed_after(wl, op, rc, json.dumps(doc))


def test_corrupted_suite_report_counts_as_failed(tmp_path):
    wl = workloads.build_suites(5, str(tmp_path), tiny=True)
    op = wl.ops[0]
    rc, text = _run(op.argv)
    assert _failed_after(wl, op, rc, text) is None
    bad = text.replace('"pass": true', '"pass": false')
    assert '"pass": false' in _failed_after(wl, op, rc, bad)
    assert _failed_after(wl, op, rc, "Traceback (most recent call last):\n").startswith("unreadable")


def test_later_pass_must_repeat_the_first():
    wl = workloads.Workload("x", [workloads.Op(["mcm"], "mcm")], [], lambda op, rc, text: None)
    first = run.fingerprint([(0, "out", "", 0.0)], [None])
    assert run.check_pass(wl, [(0, "out", "", 0.0)], first) == [None]
    assert run.check_pass(wl, [(0, "other", "", 0.0)], first) == ["output differs from the first pass"]


def test_host_speed_is_a_centred_window_median():
    refs = [1.0] * 20 + [3.0] * 20
    speeds = run.local_speeds(refs)
    assert len(speeds) == len(refs)
    assert speeds[0] == 1.0 and speeds[14] == 1.0 and speeds[25] == 3.0 and speeds[-1] == 3.0
    assert run.local_speeds([2.0, 9.0, 1.0]) == [2.0, 2.0, 2.0]  # short passes use every sample
    assert run.reference_kernel() > 0


def test_jrf_bound_is_a_tight_lower_bound():
    rng = np.random.default_rng(0)
    for dim, pure in ((2, False), (3, True), (4, False)):
        states = workloads._random_states(rng, dim, 2, pure)
        priors = [0.3, 0.7]
        gap = priors[0] * states[0] - priors[1] * states[1]
        helstrom = 0.5 * (1.0 + float(np.sum(np.abs(np.linalg.eigvalsh(gap)))))
        bound = workloads.jrf_lower_bound(priors, states)
        assert helstrom - 1e-6 <= bound <= helstrom + 1e-12
    # rank-deficient sum: five pure qutrit states
    states = workloads._random_states(rng, 3, 5, True)
    bound = workloads.jrf_lower_bound([0.2] * 5, states)
    assert np.isfinite(bound) and 0.2 <= bound <= 1.0
