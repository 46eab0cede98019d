"""Seeded op lists for the three benchmark workloads, and their output checks.

An op is one ``seqmcm`` command line.  Each workload builder returns a
:class:`Workload`: the op list, one untimed warm-up op per command kind, and
for every op the reference data its output is checked against.  References
are computed here, when the inputs are generated, so checking never calls
into the program while it is being timed or traced.

Workloads (one closed-loop client, one op at a time):

* ``chains``: ``sequence`` over the four analytic families with 2..16
  parties, half JSON and half CSV output, plus the default ``sweep`` of each
  family.  It makes no SDP calls, so it is the control for solver changes.
* ``ensembles``: ``mcm --ensemble`` on seeded random ensembles (d in
  {2,3,4,6,8}, N in 2..6, mixed and pure) plus ``mcm`` on the four families.
  About a quarter of the ops run the guessing SDP (d <= 4, N >= 3) and cost
  0.1-1 s; the rest run the weight SDP alone in ~30 ms, so the median sits
  in the cheap mode and the 90th percentile in the expensive one.
* ``suites``: ``verify --suite S --count k --seed s`` over all seven suites
  with distinct seeds: many tiny qubit problems dominated by the barrier SDP.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

TOL = 1e-9
"""Closed-form and residual tolerance; the one the repository's tests use."""

GUESS_ROUNDING = 1e-12
"""Float rounding allowed when comparing ``p_guess`` with the primal bound.
The SDP's true gap is ~1e-7, five orders of magnitude above this."""

JRF_CHUNK = 100
JRF_MAX_ITERATIONS = 5000
JRF_STALL = 1e-13
"""The primal iteration stops when a chunk of iterations improves the bound by
less than the stall size.  200 iterations is enough for most ensembles, but a
d=2, N=6 draw still sat 1.4e-6 below its converged value there."""

FAMILIES = ("two_mixed", "gu", "lifted_gu", "mirror")
SUITES = (
    "duality",
    "kkt",
    "povm",
    "trace-preservation",
    "monotonicity",
    "distance",
    "proposition",
)
SUITE_COUNTS = {
    "duality": 10,
    "kkt": 6,
    "povm": 10,
    "trace-preservation": 10,
    "monotonicity": 3,
    "distance": 30,
    "proposition": 1,
}
"""Instances per ``verify`` op (10-200 ms each), weighted towards the ``kkt``
and ``monotonicity`` suites, which run the barrier SDP, as a default
``verify`` run is: the SDP takes about 60 % of a pass."""


@dataclass
class Op:
    argv: list[str]
    kind: str
    ref: dict[str, Any] = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    ops: list[Op]
    warmups: list[list[str]]
    check: Callable[[Op, int, str], str | None]


# ---------------------------------------------------------------------------
# chains
# ---------------------------------------------------------------------------


def _chain_parties(count: int) -> list[int]:
    """A fixed spread of chain lengths from 2 to 16, the same for every seed,
    so the seed changes the inputs but not the amount of work."""
    if count == 1:
        return [2]
    return [2 + (14 * i) // (count - 1) for i in range(count)]


def _chain_op(family: str, rng: np.random.Generator, parties: int, fmt: str, index: int) -> Op:
    from seqmcm import families as fam

    argv = ["sequence", "--family", family, "--parties", str(parties), "--format", fmt]
    ref: dict[str, Any] = {"family": family, "format": fmt, "parties": parties}
    if family == "two_mixed":
        p, theta = float(rng.uniform(0.5, 1.0)), float(rng.uniform(0.25, 0.75) * math.pi)
        argv += ["--params", json.dumps({"p": p, "theta": theta})]
        f = fam.two_mixed(p, theta)
        ref["confidences"] = [{1: f.confidence, 2: f.confidence}] * parties
        ref["p_joint"] = f.schedule(parties).p_joint
        return Op(argv, "sequence", ref)

    if family == "gu":
        n = 3 + index % 4  # the outcome count cycles, so the seed does not change the work
        rates = [float(v) for v in rng.uniform(0.1, 0.9, parties)]
        argv += ["--params", json.dumps({"n": n})]
        f = fam.gu(n)
        conf = [f.confidence_at(j, rates) for j in range(1, parties + 1)]
        ref["confidences"] = [{x: c for x in range(1, n + 1)} for c in conf]
    elif family == "lifted_gu":
        n = 3 + index % 3
        theta, lam = float(rng.uniform(0.6, 1.4)), float(rng.uniform(0.6, 1.0))
        floor = math.cos(theta)
        rates = [float(v) for v in rng.uniform(floor + 0.05, 0.95, parties)]
        argv += ["--params", json.dumps({"n": n, "theta": theta, "lam": lam})]
        f = fam.lifted_gu(n, theta, lam)
        conf = [f.confidence_at(j, rates) for j in range(1, parties + 1)]
        ref["confidences"] = [{x: c for x in range(1, n + 1)} for c in conf]
    else:
        theta = float(rng.uniform(5.0 / 9.0, 7.0 / 9.0) * math.pi)
        rates = [float(v) for v in rng.uniform(0.5, 0.95, parties)]
        argv += ["--params", json.dumps({"theta": theta})]
        states = fam.mirror(theta).trajectory(rates)[:parties]
        sols = [fam.mirror_mcm(ms) for ms in states]
        ref["confidences"] = [{1: s.c1, 2: s.c2, 3: s.c2} for s in sols]
        ref["mirror"] = [{"r1": ms.r1, "r2": ms.r2, "theta": ms.theta} for ms in states]
    argv += ["--eta0", ",".join(repr(v) for v in rates)]
    return Op(argv, "sequence", ref)


def build_chains(seed: int, workdir: str, tiny: bool = False) -> Workload:
    del workdir  # chains read no input files
    rng = np.random.default_rng([seed, 1])
    per_family = 2 if tiny else 25
    lengths = _chain_parties(per_family)
    ops = []
    for i, parties in enumerate(lengths):
        for k, family in enumerate(FAMILIES):
            fmt = "json" if (i + k) % 2 == 0 else "csv"
            ops.append(_chain_op(family, rng, parties, fmt, i))
    ops += [Op(["sweep", "--family", f], "sweep") for f in FAMILIES]
    smallest = min((op for op in ops if op.kind == "sequence"), key=lambda op: op.ref["parties"])
    warmups = [smallest.argv, ["sweep", "--family", "lifted_gu"]]
    return Workload("chains", ops, warmups, check_chains)


def _parse_sequence(fmt: str, text: str) -> tuple[list[dict[str, float]], list[dict], float | None]:
    """Per-party confidences, per-party extras and p_joint of a trace."""
    if fmt == "json":
        doc = json.loads(text)
        conf = [{int(x): float(c) for x, c in p["confidences"].items()} for p in doc["parties"]]
        extras = [p["extras"] for p in doc["parties"]]
        return conf, extras, doc["p_joint"]
    rows = list(csv.DictReader(io.StringIO(text)))
    conf, extras = [], []
    for row in rows:
        conf.append(
            {int(k.split("_")[1]): float(v) for k, v in row.items() if k.startswith("confidence_") and v}
        )
        extras.append({k: float(v) for k, v in row.items() if k in ("r1", "r2", "theta") and v})
    p_joint = rows[-1]["p_joint"] if rows else ""
    return conf, extras, float(p_joint) if p_joint else None


def _check_sweep(text: str) -> str | None:
    rows = list(csv.DictReader(io.StringIO(text)))
    if not rows:
        return "sweep printed no rows"
    for i, row in enumerate(rows):
        if row.get("error"):
            return f"sweep row {i} has error {row['error']!r}"
        for key, value in row.items():
            if key.endswith("residual") and value and not float(value) <= TOL:
                return f"sweep row {i} {key} = {value}"
    return None


def check_chains(op: Op, rc: int, text: str) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    if op.kind == "sweep":
        return _check_sweep(text)
    ref = op.ref
    conf, extras, p_joint = _parse_sequence(ref["format"], text)
    if len(conf) != ref["parties"]:
        return f"{len(conf)} parties reported, {ref['parties']} requested"
    for j, (got, want) in enumerate(zip(conf, ref["confidences"]), start=1):
        for x, c in want.items():
            if not abs(got.get(x, math.nan) - c) <= TOL:
                return f"party {j} label {x} confidence {got.get(x)!r}, closed form {c!r}"
    if "p_joint" in ref and not abs((p_joint if p_joint is not None else math.nan) - ref["p_joint"]) <= TOL:
        return f"p_joint {p_joint!r}, closed form {ref['p_joint']!r}"
    for j, (got, want) in enumerate(zip(extras, ref.get("mirror", [])), start=1):
        for key, v in want.items():
            if not abs(float(got.get(key, math.nan)) - v) <= TOL:
                return f"party {j} mirror {key} {got.get(key)!r}, closed form {v!r}"
    return None


# ---------------------------------------------------------------------------
# ensembles
# ---------------------------------------------------------------------------


def _random_states(rng: np.random.Generator, dim: int, n: int, pure: bool) -> list[np.ndarray]:
    states = []
    for _ in range(n):
        if pure:
            v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            v /= np.linalg.norm(v)
            states.append(np.outer(v, v.conj()))
        else:
            g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            w = g @ g.conj().T
            states.append(w / np.real(np.trace(w)))
    return states


def _ensemble_json(priors: list[float], states: list[np.ndarray]) -> dict[str, Any]:
    return {
        "priors": [float(q) for q in priors],
        "states": [
            {
                "dim": int(s.shape[0]),
                "entries": [[float(z.real), float(z.imag)] for z in s.reshape(-1)],
            }
            for s in states
        ],
    }


def jrf_lower_bound(priors: list[float], states: list[np.ndarray]) -> float:
    """Primal lower bound on the guessing probability from the fixed-point
    iteration of Jezek, Rehacek and Fiurasek, PRA 65, 060301 (2002):
    ``P_x <- S^-1/2 R_x P_x R_x S^-1/2`` with ``S = sum_x R_x P_x R_x``.

    The inverse square root is taken on the support of ``S`` only, so the
    iterate stays a valid sub-normalized measurement when ``S`` is rank
    deficient; its success probability is therefore a lower bound."""
    weighted = [q * s for q, s in zip(priors, states)]
    dim = weighted[0].shape[0]
    povm = [np.eye(dim, dtype=complex) / len(weighted)] * len(weighted)

    def success() -> float:
        return float(sum(np.real(np.trace(r @ p)) for r, p in zip(weighted, povm)))

    best = success()
    for _ in range(JRF_MAX_ITERATIONS // JRF_CHUNK):
        for _ in range(JRF_CHUNK):
            sandwiches = [r @ p @ r for r, p in zip(weighted, povm)]
            total = sum(sandwiches)
            vals, vecs = np.linalg.eigh(0.5 * (total + total.conj().T))
            keep = vals > 1e-14 * max(float(vals[-1]), 1e-300)
            inv_sqrt = (vecs[:, keep] / np.sqrt(vals[keep])) @ vecs[:, keep].conj().T
            povm = [inv_sqrt @ m @ inv_sqrt for m in sandwiches]
        value = success()
        if value - best < JRF_STALL:
            return max(value, best)
        best = value
    return best


ENSEMBLE_CLASSES: list[tuple[int, int, bool, int]] = (
    # cheap mode: N = 2 (closed-form guessing) or d > 4 (guessing refused)
    [(d, 2, pure, 5) for d in (2, 3, 4, 6, 8) for pure in (False, True)]
    + [(d, n, pure, 2) for d in (6, 8) for n in (3, 4, 5, 6) for pure in (False, True)]
    # expensive mode: the guessing SDP runs (d <= 4, N >= 3)
    + [(3, 3, False, 1), (3, 5, True, 1), (4, 4, False, 1)]
    # a dense block of one cheap class where the 90th percentile falls, so that
    # percentile does not hinge on a few individual draws
    + [(2, 3, pure, 6) for pure in (False, True)]
)
"""(dim, N, pure, ops per pass): 82 cheap and 15 expensive ensembles.  With the
four family ops (three of them expensive) the expensive share is 18 of 101:
the median op is cheap and the 90th percentile lies in the d = 2, N = 3 block.
A pass stays near 6 s, so a run repeats every op several times."""


def _family_mcm_ops(rng: np.random.Generator) -> list[Op]:
    from seqmcm import families as fam

    specs = [
        ("two_mixed", {"p": float(rng.uniform(0.5, 1.0)), "theta": float(rng.uniform(0.25, 0.75) * math.pi)}),
        ("gu", {"n": int(rng.integers(3, 6))}),
        ("lifted_gu", {"n": 3, "theta": float(rng.uniform(0.6, 1.4)), "lam": float(rng.uniform(0.6, 1.0))}),
        ("mirror", {"theta": float(rng.uniform(5.0 / 9.0, 7.0 / 9.0) * math.pi)}),
    ]
    ops = []
    for name, params in specs:
        e = getattr(fam, name)(**params).ensemble()
        ref = {"dim": e.dim, "n": e.n, "priors": list(e.priors), "states": [np.array(s.mat) for s in e.states]}
        ops.append(Op(["mcm", "--family", name, "--params", json.dumps(params)], "mcm", ref))
    return ops


def build_ensembles(seed: int, workdir: str, tiny: bool = False) -> Workload:
    rng = np.random.default_rng([seed, 2])
    ops = _family_mcm_ops(rng)
    classes = ENSEMBLE_CLASSES
    if tiny:
        classes = [(2, 2, False, 1), (6, 3, True, 1), (2, 3, False, 1)]
    for dim, n, pure, count in classes:
        for _ in range(count):
            raw = rng.random(n) + 0.1
            priors = [float(q) for q in raw / math.fsum(raw)]
            states = _random_states(rng, dim, n, pure)
            path = os.path.join(workdir, f"ensemble-{len(ops):03d}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(_ensemble_json(priors, states), fh)
            ref = {"dim": dim, "n": n, "priors": priors, "states": states}
            ops.append(Op(["mcm", "--ensemble", path], "mcm", ref))
    smallest = next(op for op in ops if op.argv[1] == "--ensemble" and op.ref["n"] == 2)
    return Workload("ensembles", ops, [smallest.argv], check_ensembles)


def lower_bound(op: Op) -> float:
    """The op's primal guessing bound, computed on first use (ops whose
    guessing probability the program does not report never need it)."""
    if "lower_bound" not in op.ref:
        op.ref["lower_bound"] = jrf_lower_bound(op.ref["priors"], op.ref["states"])
    return op.ref["lower_bound"]


def guess_gap(op: Op, text: str) -> float | None:
    """Reported ``p_guess`` minus the benchmark's primal bound, or None when
    the op reports no guessing probability."""
    guess = json.loads(text).get("guessing")
    if guess is None:
        return None
    return float(guess["p_guess"]) - lower_bound(op)


def guess_gap_max(ops: list[Op], outputs: list[str]) -> float:
    """Largest reported ``p_guess`` minus its primal bound over one pass; 0
    when no op reports a guessing probability."""
    gaps = []
    for op, text in zip(ops, outputs):
        if op.kind != "mcm":
            continue
        try:
            gap = guess_gap(op, text)
        except (ValueError, KeyError, TypeError, AttributeError):
            continue  # already counted as a failed op
        if gap is not None:
            gaps.append(gap)
    return max(gaps, default=0.0)


def check_ensembles(op: Op, rc: int, text: str) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    doc = json.loads(text)
    if doc["kkt"]["ok"] is not True:
        return "kkt.ok is false"
    gap = guess_gap(op, text)
    if gap is None:
        if op.ref["dim"] <= 4 and op.ref["n"] <= 6:
            return "guessing is null for an ensemble inside the solver's stated range"
        return None
    if gap < -GUESS_ROUNDING:
        return f"p_guess is {-gap:.3e} below the primal lower bound"
    return None


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def build_suites(seed: int, workdir: str, tiny: bool = False) -> Workload:
    del workdir
    rounds = 1 if tiny else 15
    rng = np.random.default_rng([seed, 3])
    seeds = rng.choice(10**9, size=rounds * len(SUITES), replace=False)
    ops = []
    for i in range(rounds):
        for k, suite in enumerate(SUITES):
            s = int(seeds[i * len(SUITES) + k])
            argv = ["verify", "--suite", suite, "--count", str(SUITE_COUNTS[suite]), "--seed", str(s)]
            ops.append(Op(argv, "verify"))
    warmups = [["verify", "--suite", "proposition", "--count", "1", "--seed", "1"]]
    return Workload("suites", ops, warmups, check_suites)


def check_suites(op: Op, rc: int, text: str) -> str | None:
    if rc not in (0, 1):
        return f"exit code {rc}"
    doc = json.loads(text)
    if doc.get("pass") is not True:
        failing = [c["suite"] for c in doc.get("checks", []) if not c.get("pass")]
        return f'report has "pass": false (suites {failing})'
    if rc != 0:
        return f"exit code {rc}"
    return None


BUILDERS: dict[str, Callable[..., Workload]] = {
    "chains": build_chains,
    "ensembles": build_ensembles,
    "suites": build_suites,
}
