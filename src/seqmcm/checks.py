"""Randomized invariant suites: what ``seqmcm verify`` checks.

:data:`SUITES` is one table, suite name -> :class:`Suite`, with the columns
``module`` (whose claim the suite checks), ``invariant`` (the claim in
words), ``tol`` (the bound on the suite's worst value) and ``run`` (the
suite).  ``verify``, its ``--suite`` help and the tests all read it.

A suite takes an instance count and a seeded ``numpy`` generator and
returns a dict with at least ``worst``: its largest residual, or its number
of violations.  :func:`report` copies every key into the suite's report;
``instances`` defaults to the count and ``pass`` to ``worst <= tol``.  A
failure of the code under test (an infeasible party, a support leak, an SDP
short of its gap bound) propagates as it does under ``sequence``; it is not
a violation.  The suites look up what they test through its module at call
time, so a patched module attribute reaches them.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Iterable, NamedTuple, Sequence

import numpy as np

from . import families, mcm, optim, qcore, seqchan
from .qcore import Ensemble

SVD_REL_TOL = 1e-9
"""Relative singular-value threshold for operator linear independence."""


def random_channel(rng: np.random.Generator, dim: int, n_kraus: int) -> seqchan.KrausChannel:
    """Haar-ish random channel: QR of a Gaussian ``(n_kraus*dim) x dim`` block."""
    g = rng.normal(size=(n_kraus * dim, dim)) + 1j * rng.normal(size=(n_kraus * dim, dim))
    q, _ = np.linalg.qr(g)
    return seqchan.KrausChannel(ops={i + 1: q[i * dim : (i + 1) * dim, :] for i in range(n_kraus)})


def random_feasible_weights(
    rng: np.random.Generator, projectors: dict[int, np.ndarray]
) -> dict[int, float]:
    """A random strictly feasible weight vector (for dominance certificates)."""
    labels = sorted(projectors)
    mats = np.stack([qcore.as_matrix(projectors[x], f"projector {x}") for x in labels])
    u = rng.random(len(labels)) + 1e-3
    total = np.tensordot(u, mats, axes=1)
    top = float(np.linalg.eigvalsh(0.5 * (total + total.conj().T))[-1])
    t = rng.uniform(0.0, 1.0) / max(top, 1e-12)
    return {x: float(t * w) for x, w in zip(labels, u)}


def linear_independence(operators: Iterable[Any]) -> bool:
    """Whether a set of operators is linearly independent.

    Vectorizes each operator into a row and checks the matrix rank via
    singular values with the relative threshold :data:`SVD_REL_TOL`.
    Equal-confidence sequential chains exist exactly when the conclusive
    POVM elements pass this test.
    """
    rows = [qcore.as_matrix(op, "operator").reshape(-1) for op in operators]
    if not rows:
        return True
    stack = np.stack(rows)
    svals = np.linalg.svd(stack, compute_uv=False)
    if float(svals[0]) <= 0.0:
        return False
    rank = int(np.sum(svals > SVD_REL_TOL * float(svals[0])))
    return rank == len(rows)


def _draw_ensemble(rng: np.random.Generator, n_max: int) -> Ensemble:
    """A random qubit ensemble of 2..n_max states."""
    return qcore.random_ensemble(rng, 2, int(rng.integers(2, n_max + 1)))


def _draw_mcm_weights(rng: np.random.Generator) -> tuple[Ensemble, dict[int, float]]:
    """A random 2..4-state qubit ensemble and random feasible weights for
    its optimal projectors."""
    e = _draw_ensemble(rng, 4)
    return e, random_feasible_weights(rng, mcm.optimal_projectors(e))


def _suite_duality(count: int, rng: np.random.Generator) -> dict[str, Any]:
    worst = 0.0
    for _ in range(count):
        e = _draw_ensemble(rng, 5)
        rho = e.average()
        for x, c in mcm.confidences(e).items():
            if e.prior(x) == 0.0:
                continue
            dmax = mcm.max_relative_entropy(e.state(x).mat, rho.mat)
            worst = max(worst, abs(c - e.prior(x) * 2.0**dmax))
    return {"worst": worst}


def _suite_kkt(count: int, rng: np.random.Generator) -> dict[str, Any]:
    worst = 0.0
    for _ in range(count):
        e = _draw_ensemble(rng, 5)
        sol = optim.min_inconclusive_rate(e)
        report = mcm.verify_kkt(e, mcm.mcm_povm(e, sol.weights))
        worst = max(
            worst,
            max(report.stability.values(), default=0.0),
            max(report.slackness.values(), default=0.0),
        )
    return {"worst": worst}


def _suite_povm(count: int, rng: np.random.Generator) -> dict[str, Any]:
    worst = 0.0
    ok = True
    for _ in range(count):
        report = qcore.validate_povm(mcm.mcm_povm(*_draw_mcm_weights(rng)))
        worst = max(worst, report.completeness_residual, -min(report.psd_margins.values()))
        ok = ok and report.ok
    return {"worst": worst, "pass": ok}


def _suite_trace_preservation(count: int, rng: np.random.Generator) -> dict[str, Any]:
    worst = 0.0
    for _ in range(count):
        if rng.random() < 0.5:
            ch = random_channel(rng, 2, int(rng.integers(2, 5)))
        else:
            e, weights = _draw_mcm_weights(rng)
            alpha = float(rng.uniform(0.2, 1.0))
            ch = seqchan.mcm_plan(e, {x: alpha * w for x, w in weights.items()}).channel
        rho = qcore.random_density(rng, 2)
        out = ch.apply(rho)
        worst = max(worst, abs(float(np.real(np.trace(out.mat))) - 1.0))
    return {"worst": worst}


def _suite_monotonicity(count: int, rng: np.random.Generator) -> dict[str, Any]:
    violations = 0
    witness = None
    for _ in range(count):
        e = _draw_ensemble(rng, 4)
        floor = max(optim.min_inconclusive_rate(e).eta0, 0.0)  # party 1 reuses the solve
        eta0 = floor + float(rng.uniform(0.1, 0.8)) * (1.0 - floor)
        try:
            seqchan.run_sequence(e, seqchan.weakened_mcm_strategies([eta0, eta0]))
        except seqchan.MonotonicityError as exc:
            violations += 1
            witness = str(exc)
    return {"worst": violations, "witness": witness}


def _suite_distance(count: int, rng: np.random.Generator) -> dict[str, Any]:
    worst = 0.0
    for _ in range(count):
        e = _draw_ensemble(rng, 4)
        ch = random_channel(rng, 2, int(rng.integers(2, 5)))
        d, lower = seqchan.ensemble_distance(e, ch.apply_ensemble(e))
        worst = max(worst, lower - d)
    return {"worst": worst}


def _suite_proposition(count: int, rng: np.random.Generator) -> dict[str, Any]:
    del count, rng  # fixed check; randomness adds nothing
    trine = families.gu(3)
    eye = np.eye(2, dtype=complex)
    trine_ops = [m for _, m in trine.plan(0.0).povm.all_operators() if np.trace(m).real > 1e-12]
    trine_dependent = not linear_independence(trine_ops + [eye])

    two = families.two_mixed(0.8, math.pi / 3)
    entries = mcm.solve_mcm(two.ensemble())
    two_ops = [np.outer(v, v.conj()) for x in (1, 2) for v in entries[x].basis]
    two_independent = linear_independence(two_ops + [eye])

    # operational side: a two-state chain keeps its confidence exactly,
    # the trine family drops strictly under any weakening
    chain = seqchan.run_sequence(two.ensemble(), two.strategies(2))
    c_two = [rec.confidences[1] for rec in chain.records]
    keep = abs(c_two[0] - c_two[1])

    tri = seqchan.run_sequence(trine.ensemble(), trine.strategies([0.5, 0.5]))
    c_tri = [rec.confidences[1] for rec in tri.records]
    drop = c_tri[0] - c_tri[1]

    return {
        "instances": 2,
        "worst": max(keep, 0.0 if drop >= 1e-6 else 1.0),
        "pass": trine_dependent and two_independent and keep <= 1e-10 and drop >= 1e-6,
        "witness": {
            "trine_dependent": trine_dependent,
            "two_state_independent": two_independent,
            "two_state_confidence_change": keep,
            "trine_confidence_drop": drop,
        },
    }


class Suite(NamedTuple):
    module: str  # the module whose claim the suite checks
    invariant: str  # the claim, in words
    tol: float  # the bound on the suite's worst value
    run: Callable[[int, np.random.Generator], dict[str, Any]]


SUITES: dict[str, Suite] = {
    "duality": Suite(
        "mcm", "confidence equals prior times 2^(max relative entropy)", 1e-9, _suite_duality
    ),
    "kkt": Suite("mcm", "KKT stability and complementary slackness", 1e-9, _suite_kkt),
    "povm": Suite(
        "qcore", "feasibly weighted measurements validate as POVMs", qcore.POVM_TOL, _suite_povm
    ),
    "trace-preservation": Suite(
        "seqchan", "channels preserve trace", 1e-10, _suite_trace_preservation
    ),
    "monotonicity": Suite(
        "seqchan", "confidences never increase along a chain", 0, _suite_monotonicity
    ),
    "distance": Suite(
        "seqchan", "average disturbance dominates the mean-state bound", 1e-12, _suite_distance
    ),
    "proposition": Suite(
        "seqchan",
        "equal-confidence chains exist iff the measurement operators with identity "
        "are linearly independent",
        1e-10,
        _suite_proposition,
    ),
}


def report(name: str, count: int, seed: int) -> dict[str, Any]:
    """Suite ``name`` run on ``count`` instances drawn from ``seed``: its
    table row, its verdict and what the suite found."""
    suite = SUITES[name]
    found = suite.run(count, np.random.default_rng(seed))
    return {
        "suite": name,
        "module": suite.module,
        "invariant": suite.invariant,
        "instances": count,
        "tol": suite.tol,
        "pass": found["worst"] <= suite.tol,
        **found,
    }


def verify(names: Sequence[str], count: int, seed: int) -> dict[str, Any]:
    """The ``verify`` document: each suite of ``names`` in order, each from
    its own generator seeded with ``seed``, and the overall verdict."""
    checks = [report(name, count, seed) for name in names]
    ok = all(c["pass"] for c in checks)
    return {"suites": list(names), "count": count, "seed": seed, "checks": checks, "pass": ok}
