"""Optimization layer: POVM weights, guessing probability, gain schedules.

Three distinct problems live here.  The first two are semidefinite
programs that share one log-det barrier core (:func:`_barrier_lmi`,
after Vandenberghe & Boyd, SIAM Rev. 38, 1996):
minimize ``b . y`` over block LMIs ``F_j(y) >= 0`` along the central path,
with one Cholesky factorisation per block and trial point (feasibility
test, log-det and inverse together), the closed-form Hessian, one linear
solve per Newton step, and ``mu`` shrunk geometrically until the gap bound
``m mu`` is below :data:`GAP_TOL`.  Each solve takes 25-50 Newton steps; a
solve that stops short of the gap bound raises :class:`ConvergenceError`.

1. **Inconclusive-rate minimization.**  Given the optimal projectors
   ``P_x`` of a maximum-confidence measurement, choose weights
   ``a_x >= 0`` with ``1 - sum_x a_x P_x >= 0`` minimizing the
   inconclusive probability ``eta_0 = 1 - sum_x a_x tr[rho P_x]``:
   one ``d x d`` block and ``N`` scalar blocks.  On a degenerate optimal
   face the weights come within about 1e-7 of the face's analytic
   center, no closer (see :func:`min_inconclusive_rate`).

2. **Minimum-error guessing.**  ``P_guess = min tr[Y]`` over Hermitian
   ``Y >= q_x rho_x`` (the dual of Eldar, Megretski & Verghese, IEEE TIT
   49, 2003), over the ``d**2`` real coordinates of ``Y`` with one
   ``d x d`` block per state, then shifted to exact feasibility so the
   reported value is a true upper bound, within the gap of the optimum.

3. **Sequential gain scheduling for two-state chains** (closed forms).

Every solver here is deterministic and carries no seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qcore import Ensemble, FeasibilityError, as_matrix, trace_norm


class InfeasibleGainError(FeasibilityError):
    """Requested information gain exceeds what the confidence/overlap allow."""


class UnsupportedScaleError(ValueError):
    """Problem size beyond what the dense solvers here are built for."""


class ConvergenceError(ArithmeticError):
    """An SDP solve stopped before its duality-gap bound reached GAP_TOL."""


# ---------------------------------------------------------------------------
# POVM weight optimization (inconclusive-rate SDP)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WeightSolution:
    """Optimal weights for ``M_x = a_x P_x``.

    ``eta0`` is the inconclusive rate ``tr[rho M_0]``, within the barrier's
    gap bound :data:`GAP_TOL` above the optimum, and ``psd_margin`` the
    smallest eigenvalue of ``M_0``.  The weights are a barrier iterate,
    strictly inside the feasible set, so ``M_0`` is positive definite up to
    rounding (``psd_margin`` of order the gap).  On a degenerate optimal
    face they are one optimal point among many, fixed only to about 1e-7
    (see :func:`min_inconclusive_rate`)."""

    weights: dict[int, float]
    eta0: float
    psd_margin: float


# ---------------------------------------------------------------------------
# log-det barrier core shared by both SDPs
# ---------------------------------------------------------------------------

GAP_TOL = 1e-11
"""The barrier core stops once its duality-gap bound ``m mu`` is below this."""

MU_SHRINK = 0.05
"""Factor applied to the barrier weight ``mu`` after each centring."""

CENTRING_TOL = 0.1
"""Centring at one ``mu`` ends when the squared Newton decrement of the
``mu``-scaled objective falls below this."""

RIDGE = 1e-12
"""Ridge added to the Newton system, relative to its largest diagonal
entry.  Along a degenerate optimal face the curvature is of order ``mu``
against ``1 / mu`` across it; the ridge keeps the system solvable and
freezes such directions once ``mu`` is too small to resolve them."""

MAX_STEPS = 200
"""Cap on Newton steps per solve (both SDPs take 25-50)."""


def _factor(y: np.ndarray, f0: np.ndarray, f: np.ndarray) -> np.ndarray | None:
    """Cholesky factors of the blocks ``F(y)``, or None when one is not
    positive definite (``y`` lies outside the feasible set)."""
    try:
        return np.linalg.cholesky(f0 + (y @ f.reshape(y.size, -1)).reshape(f.shape[1:]))
    except np.linalg.LinAlgError:
        return None


def _logdet(chol: np.ndarray) -> float:
    return 2.0 * float(np.log(np.real(np.diagonal(chol, axis1=-2, axis2=-1))).sum())


def _barrier_lmi(
    b: np.ndarray, f0: np.ndarray, f: np.ndarray, y: np.ndarray, mu: float
) -> np.ndarray:
    """Minimize ``b . y`` subject to ``F_j(y) = F_j0 + sum_k y_k F_jk >= 0``
    for ``B`` equal-sized blocks ``j``.

    ``f0`` has shape ``(B, m, m)`` and ``f`` shape ``(K, B, m, m)``; either
    may have size 1 along ``B`` and is then shared by every block.  One
    batched Cholesky factors all ``B`` blocks.  ``y`` must be strictly
    feasible.

    Follows the central path of ``b . y / mu - sum_j logdet F_j(y)`` from
    the given ``mu``.  Each Newton step takes the closed-form gradient
    ``b_k / mu - tr[F^-1 F_k]`` and Hessian ``tr[F^-1 F_k F^-1 F_l]`` from
    the Cholesky factors ``L`` (through ``L^-1 F_k L^-H``) and makes one
    ``numpy.linalg.solve``.  The backtracking line search tests each trial
    point with one Cholesky, which decides feasibility and gives the
    log-det for the Armijo test.  Once the squared decrement is below
    :data:`CENTRING_TOL`, that step needs only to stay feasible (its gain
    can be below the rounding of the log-det), ``mu`` shrinks by
    :data:`MU_SHRINK`, and the next search starts at step length
    :data:`MU_SHRINK`, the tangent step of the central path.  Returns once
    ``m mu``, the duality gap on the path (``m`` the total size of the
    blocks), is below :data:`GAP_TOL`.  Raises :class:`ConvergenceError`
    when the line search finds no acceptable point or :data:`MAX_STEPS`
    runs out first, since the gap of such an iterate is unknown.
    """
    size = f0.shape[-1] * max(f0.shape[0], f.shape[1])
    chol = _factor(y, f0, f)
    if chol is None:
        raise ValueError("barrier start is not strictly feasible")
    reach = 1.0
    for _ in range(MAX_STEPS):
        w = np.linalg.inv(chol)
        g = w @ f @ np.swapaxes(w.conj(), -1, -2)  # L^-1 F_k L^-H, (K, B, m, m)
        grad = b / mu - np.real(np.einsum("kbii->k", g))
        flat = g.reshape(b.size, -1)
        hess = np.real(flat @ flat.conj().T)
        hess.flat[:: b.size + 1] += RIDGE * float(hess.diagonal().max())
        step = np.linalg.solve(hess, -grad)
        decrement = float(-grad @ step)
        slope = float(b @ step) / mu
        before = _logdet(chol)
        centred = decrement < CENTRING_TOL
        t = reach
        while True:
            trial = _factor(y + t * step, f0, f)
            if trial is not None and (
                centred or t * slope - (_logdet(trial) - before) <= -0.25 * t * decrement
            ):
                break
            t *= 0.5
            if t < 1e-12:
                raise ConvergenceError(f"line search stalled at gap bound {size * mu:.1e}")
        y, chol, reach = y + t * step, trial, 1.0
        if centred:
            if size * mu < GAP_TOL:
                return y
            mu *= MU_SHRINK
            reach = MU_SHRINK
    raise ConvergenceError(f"{MAX_STEPS} Newton steps left the gap bound at {size * mu:.1e}")


def _stack_projectors(projectors: dict[int, np.ndarray]) -> tuple[list[int], np.ndarray]:
    labels = sorted(projectors)
    mats = np.stack([as_matrix(projectors[x], f"projector {x}") for x in labels])
    return labels, mats


def min_inconclusive_rate(
    e: Ensemble, projectors: dict[int, np.ndarray] | None = None
) -> WeightSolution:
    """Weights minimizing the inconclusive rate of ``{a_x P_x}``.

    ``projectors`` defaults to the orthogonal projectors onto each
    label's optimal subspace, from the ensemble's once-computed
    :func:`seqmcm.mcm.solve_mcm` solution.  The barrier core runs on one
    ``d x d`` block ``1 - sum_x a_x P_x`` and the ``N`` scalars ``a_x``,
    joined into one block-diagonal matrix.

    Where the optimal face is degenerate (symmetric families; qubit
    ensembles of five or more states whose optimal projectors admit a
    complete POVM) the weights are not unique.  They are then the
    central-path point at which :data:`RIDGE` freezes the face direction
    (``mu`` near 1e-6), within about 1e-7 of the face's analytic center:
    symmetric faces keep symmetric weights, but the digits beyond 1e-7
    depend on the ridge, not on the problem.
    """
    if projectors is None:
        from . import mcm as _mcm

        projectors = _mcm.optimal_projectors(_mcm.solve_mcm(e))
        if not projectors:
            raise ValueError("no label has a nonempty optimal subspace")

    labels, mats = _stack_projectors(projectors)
    n, dim = mats.shape[:2]
    rho = e.average().mat
    c = np.real(np.einsum("ij,xji->x", rho, mats))
    # one block diag(1 - sum_x a_x P_x, a_1, ..., a_N)
    f0 = np.zeros((1, dim + n, dim + n), dtype=complex)
    f0[0, :dim, :dim] = np.eye(dim)
    f = np.zeros((n, 1, dim + n, dim + n), dtype=complex)
    f[:, 0, :dim, :dim] = -mats
    f[np.arange(n), 0, dim + np.arange(n), dim + np.arange(n)] = 1.0
    # sum_x a_x P_x <= (sum_x tr P_x) a for PSD P_x, so this start is interior
    start = np.full(n, 0.5 / float(np.real(np.einsum("xii->", mats))))
    a = _barrier_lmi(-c, f0, f, start, max(0.1, float(np.max(np.abs(c)))))

    slack = np.eye(dim) - np.tensordot(a, mats, axes=1)
    margin = float(np.linalg.eigvalsh(0.5 * (slack + slack.conj().T))[0])
    weights = {x: float(w) for x, w in zip(labels, a)}
    return WeightSolution(weights=weights, eta0=1.0 - float(c @ a), psd_margin=margin)


def random_feasible_weights(
    rng: np.random.Generator, projectors: dict[int, np.ndarray]
) -> dict[int, float]:
    """A random strictly feasible weight vector (for dominance certificates)."""
    labels, mats = _stack_projectors(projectors)
    u = rng.random(len(labels)) + 1e-3
    total = np.tensordot(u, mats, axes=1)
    top = float(np.linalg.eigvalsh(0.5 * (total + total.conj().T))[-1])
    t = rng.uniform(0.0, 1.0) / max(top, 1e-12)
    return {x: float(t * w) for x, w in zip(labels, u)}


# ---------------------------------------------------------------------------
# minimum-error guessing probability
# ---------------------------------------------------------------------------


def _hermitian_coordinates(dim: int) -> np.ndarray:
    """An orthonormal real basis of the ``dim x dim`` Hermitian matrices,
    shape ``(dim**2, dim, dim)``: the diagonal units first, then the
    symmetric and antisymmetric off-diagonal pairs."""
    rows, cols = np.triu_indices(dim, 1)
    pairs = np.arange(rows.size)
    basis = np.zeros((dim * dim, dim, dim), dtype=complex)
    basis[np.arange(dim), np.arange(dim), np.arange(dim)] = 1.0
    basis[dim + pairs, rows, cols] = basis[dim + pairs, cols, rows] = math.sqrt(0.5)
    basis[dim + rows.size + pairs, rows, cols] = -1j * math.sqrt(0.5)
    basis[dim + rows.size + pairs, cols, rows] = 1j * math.sqrt(0.5)
    return basis


def min_error_guessing(e: Ensemble) -> float:
    """Optimal guessing probability via the semidefinite dual
    ``min tr[Y]`` subject to ``Y >= q_x rho_x`` for every ``x``.

    One and two states, of any dimension, short-circuit to the exact
    values: 1, and ``(1 + || q_1 rho_1 - q_2 rho_2 ||_1) / 2`` (trace norm
    without the 1/2 factor, so an orthogonal pair gives exactly 1).  The
    SDP is sized for ``dim <= 4`` and ``N <= 6``; anything larger raises
    :class:`UnsupportedScaleError`.  Otherwise the barrier
    core solves the dual over the ``d**2`` real coordinates of ``Y``, with
    one ``d x d`` block ``Y - q_x rho_x`` per state, to a duality gap below
    :data:`GAP_TOL`.  A final shift by the largest remaining violation
    makes ``Y`` exactly feasible, so the value is always an upper bound on
    the guessing probability.
    """
    if e.n == 1:
        return 1.0
    if e.n == 2:
        return 0.5 * (1.0 + trace_norm(e.prior(1) * e.state(1).mat - e.prior(2) * e.state(2).mat))
    if e.dim > 4 or e.n > 6:
        raise UnsupportedScaleError(
            f"min_error_guessing handles dim <= 4 and N <= 6, "
            f"got dim={e.dim}, N={e.n}"
        )
    weighted = np.stack([q * s.mat for q, s in zip(e.priors, e.states)])

    dim = e.dim
    basis = _hermitian_coordinates(dim)
    trace = np.real(np.einsum("kii->k", basis))
    # Y = 2 * 1 is strictly interior (q_x rho_x <= 1); mu = 2 / N would
    # make it central if every q_x rho_x were 0
    start = np.zeros(dim * dim)
    start[:dim] = 2.0
    y = _barrier_lmi(trace, -weighted, basis[:, None], start, 2.0 / e.n)
    ymat = np.tensordot(y, basis, axes=1)
    diffs = weighted - ymat
    violation = max(
        float(np.linalg.eigvalsh(0.5 * (m + m.conj().T))[-1]) for m in diffs
    )
    if violation > 0.0:
        ymat = ymat + violation * np.eye(dim)
    return float(np.real(np.trace(ymat)))


# ---------------------------------------------------------------------------
# two-state gain scheduling (closed forms)
# ---------------------------------------------------------------------------


def two_state_least_disturbing(
    confidence: float, overlap: float, gain: float
) -> tuple[float, float, float]:
    """Least-disturbing symmetric weights for one step of a two-state chain.

    For equal-confidence two-state measurements with projector overlap
    ``s`` and confidence ``C``, a step extracting information gain ``G``
    is possible iff ``0 <= G <= C (1 - s)``; the disturbance-minimizing
    choice is symmetric, ``a_1 = a_2 = G / (C (1 - s^2))``, and maps the
    overlap to ``s' = s / (1 - G/C)``.  Returns ``(a_1, a_2, s')``.
    """
    c, s, g = float(confidence), float(overlap), float(gain)
    if not (0.0 < c <= 1.0):
        raise ValueError(f"confidence must be in (0, 1], got {c!r}")
    if not (0.0 <= s < 1.0):
        raise ValueError(f"overlap must be in [0, 1), got {s!r}")
    limit = c * (1.0 - s)
    if g < -1e-15 or g > limit + 1e-12:
        raise InfeasibleGainError(
            f"gain {g!r} outside the feasible range [0, {limit!r}] "
            f"for confidence {c!r} and overlap {s!r}"
        )
    g = min(max(g, 0.0), limit)
    a = g / (c * (1.0 - s * s))
    s_new = 1.0 if g >= limit else s / (1.0 - g / c)
    return a, a, min(s_new, 1.0)


@dataclass(frozen=True)
class GainSchedule:
    """An R-party gain schedule for an equal-confidence two-state chain.

    ``gains[j]`` is party ``j+1``'s information gain, ``overlaps[j]`` the
    projector overlap that party faces (so ``overlaps`` is nondecreasing
    and has one trailing entry for the post-chain overlap).  ``p_joint``
    is the all-parties-conclusive probability and ``p_inconclusive`` the
    all-inconclusive probability (= the initial overlap at the optimum).
    """

    confidence: float
    parties: int
    gains: tuple[float, ...]
    overlaps: tuple[float, ...]
    p_joint: float
    p_inconclusive: float
    note: str | None = None


def optimal_joint_schedule(confidence: float, overlap: float, parties: int) -> GainSchedule:
    """The gain schedule maximizing the joint conclusive probability.

    Under the constraint ``prod_j (1 - G_j / C) = s`` the product of the
    gains is maximized by splitting evenly, ``G_j = C (1 - s^(1/R))``,
    giving ``P_J = C (1 - s^(1/R))^R`` and the overlap ladder
    ``s_j = s^(1 - (j-1)/R)``.  The all-inconclusive probability of the
    optimal chain is the initial overlap ``s`` itself.  ``s = 0`` is
    degenerate: every party takes the full gain ``C`` and the chain
    carries no inconclusive path (noted on the result).
    """
    c, s = float(confidence), float(overlap)
    r = int(parties)
    if r < 1:
        raise ValueError("need at least one party")
    if not (0.0 < c <= 1.0):
        raise ValueError(f"confidence must be in (0, 1], got {c!r}")
    if not (0.0 <= s < 1.0):
        raise ValueError(f"overlap must be in [0, 1), got {s!r}")
    if s == 0.0:
        return GainSchedule(
            confidence=c,
            parties=r,
            gains=(c,) * r,
            overlaps=(0.0,) * r + (0.0,),
            p_joint=c,
            p_inconclusive=0.0,
            note="zero overlap: orthogonal projectors, full gain at every party",
        )
    root = s ** (1.0 / r)
    gain = c * (1.0 - root)
    overlaps = tuple(s ** (1.0 - j / r) for j in range(r + 1))
    return GainSchedule(
        confidence=c,
        parties=r,
        gains=(gain,) * r,
        overlaps=overlaps,
        p_joint=c * (1.0 - root) ** r,
        p_inconclusive=s,
    )
