"""Optimization layer: POVM weights, guessing probability, gain schedules.

Three distinct problems live here.

1. **Inconclusive-rate minimization.**  Given the optimal projectors
   ``P_x`` of a maximum-confidence measurement, choose weights
   ``a_x >= 0`` with ``1 - sum_x a_x P_x >= 0`` minimizing the
   inconclusive probability ``eta_0 = 1 - sum_x a_x tr[rho P_x]``.
   This is a tiny semidefinite program; :func:`min_inconclusive_rate`
   follows the central path of a log-barrier (deterministic damped
   Newton, no restarts needed at these sizes) and then polishes the
   binding face exactly with least squares.  The central path converges
   to the analytic center of the optimal face, so symmetric ensembles
   get symmetric weights even when the face is degenerate.

2. **Minimum-error guessing.**  ``P_guess = min tr[Y]`` over Hermitian
   ``Y >= q_x rho_x``; solved by annealed smoothing of the maximum
   eigenvalue (softmax over eigenvalues) with BFGS, then shifted back
   to exact feasibility so the reported value is a true upper bound.

3. **Sequential gain scheduling for two-state chains** (closed forms)
   and a generic bounded numeric minimizer used for retarget searches.

Deterministic-by-construction solvers carry no seeds; the stochastic
restarts of :func:`minimize_disturbance_numeric` are seeded 7, 8, ...
and ties resolve to the lowest seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy import optimize as _sciopt

from .qcore import Ensemble, FeasibilityError, as_matrix

OBJ_TOL = 1e-10
"""Objective tolerance the numeric minimizers aim for."""

PARAM_TOL = 1e-8
"""Parameter tolerance the numeric minimizers aim for."""

FIRST_SEED = 7
"""Seed of the first restart; restart k uses FIRST_SEED + k."""


class InfeasibleGainError(FeasibilityError):
    """Requested information gain exceeds what the confidence/overlap allow."""


class UnsupportedScaleError(ValueError):
    """Problem size beyond what the dense solvers here are built for."""


# ---------------------------------------------------------------------------
# POVM weight optimization (inconclusive-rate SDP)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WeightSolution:
    """Optimal weights for ``M_x = a_x P_x``.

    ``eta0`` is the inconclusive rate ``tr[rho M_0]`` at the optimum and
    ``psd_margin`` the smallest eigenvalue of ``M_0`` (valid solutions
    satisfy ``psd_margin >= -1e-9``)."""

    weights: dict[int, float]
    eta0: float
    psd_margin: float


def _stack_projectors(projectors: dict[int, np.ndarray]) -> tuple[list[int], np.ndarray]:
    labels = sorted(projectors)
    mats = np.stack([as_matrix(projectors[x], f"projector {x}") for x in labels])
    return labels, mats


def _barrier_newton(
    c: np.ndarray, mats: np.ndarray, dim: int
) -> np.ndarray:
    """Maximize ``c . a`` over ``a >= 0, 1 - sum a_x P_x >= 0`` via a
    log-barrier central path with damped Newton steps."""
    n = c.size
    eye = np.eye(dim)

    def slack(a: np.ndarray) -> np.ndarray:
        return eye - np.tensordot(a, mats, axes=1)

    def feasible(a: np.ndarray) -> bool:
        if np.any(a <= 0.0):
            return False
        return float(np.linalg.eigvalsh(slack(a))[0]) > 0.0

    total = np.sum(mats, axis=0)
    top = float(np.linalg.eigvalsh(0.5 * (total + total.conj().T))[-1])
    a = np.full(n, 0.5 / max(top, 1e-12))

    mu = max(0.1, float(np.max(np.abs(c))))
    while mu > 1e-13:
        for _ in range(80):
            b = slack(a)
            binv = np.linalg.inv(b)
            # gradient and Hessian of  c.a + mu (logdet B + sum log a)
            bp = binv @ mats  # (n, d, d)
            g = c - mu * np.real(np.einsum("xii->x", bp)) + mu / a
            h = -mu * np.real(np.einsum("xij,yji->xy", bp, bp))
            h -= np.diag(mu / a**2)
            try:
                step = np.linalg.solve(-h, g)
            except np.linalg.LinAlgError:
                break
            decrement = float(g @ step)
            if decrement < 1e-16:
                break
            t = 1.0
            f0 = float(c @ a) + mu * (
                float(np.linalg.slogdet(b)[1]) + float(np.sum(np.log(a)))
            )
            while t > 1e-14:
                cand = a + t * step
                if feasible(cand):
                    bc = slack(cand)
                    fc = float(c @ cand) + mu * (
                        float(np.linalg.slogdet(bc)[1]) + float(np.sum(np.log(cand)))
                    )
                    if fc >= f0 + 0.25 * t * decrement:
                        break
                t *= 0.5
            else:
                break
            a = a + t * step
            if decrement < 1e-13:
                break
        mu *= 0.2
    return a


def _polish_binding_face(
    a: np.ndarray, mats: np.ndarray, dim: int, bind_tol: float = 1e-4, anchor: bool = False
) -> np.ndarray:
    """Drive the binding eigenvalues of the slack matrix exactly to zero.

    Newton-on-the-active-manifold: recompute the binding eigenspace ``V``
    of ``B(a)``, solve the affine system ``V^dag B(a) V = 0``, repeat.
    By default the minimum-norm *solution* is taken, which is the
    deterministic symmetric point whenever the optimal face is degenerate
    (symmetric families); with ``anchor=True`` the minimum-norm
    *correction* is taken instead, staying as close as possible to the
    barrier iterate (fallback when the free solution leaves the feasible
    region)."""
    eye = np.eye(dim)
    for _ in range(8):
        b = eye - np.tensordot(a, mats, axes=1)
        vals, vecs = np.linalg.eigh(0.5 * (b + b.conj().T))
        mask = vals < bind_tol
        k = int(np.sum(mask))
        if k == 0:
            break
        v = vecs[:, mask]
        reduced = np.einsum("ip,xij,jq->xpq", v.conj(), mats, v)  # (n, k, k)
        rows: list[np.ndarray] = []
        rhs: list[float] = []
        for p in range(k):
            for q in range(p, k):
                rows.append(np.real(reduced[:, p, q]))
                rhs.append(1.0 if p == q else 0.0)
                if q > p:
                    rows.append(np.imag(reduced[:, p, q]))
                    rhs.append(0.0)
        amat = np.stack(rows)
        bvec = np.array(rhs)
        if anchor:
            a_new = a + np.linalg.lstsq(amat, bvec - amat @ a, rcond=None)[0]
        else:
            a_new = np.linalg.lstsq(amat, bvec, rcond=None)[0]
        if float(np.linalg.norm(a_new - a)) < 1e-16:
            break
        a = a_new
    return a


def min_inconclusive_rate(
    e: Ensemble, projectors: dict[int, np.ndarray] | None = None
) -> WeightSolution:
    """Weights minimizing the inconclusive rate of ``{a_x P_x}``.

    ``projectors`` defaults to the orthogonal projectors onto each
    label's optimal subspace, from the ensemble's once-computed
    :func:`seqmcm.mcm.solve_mcm` solution.  Returns
    the optimal :class:`WeightSolution`; the polish step is accepted only
    if it keeps the slack PSD and does not lower the objective, so the
    result is always at least as good as the raw barrier iterate.
    """
    if projectors is None:
        from . import mcm as _mcm

        projectors = _mcm.optimal_projectors(_mcm.solve_mcm(e))
        if not projectors:
            raise ValueError("no label has a nonempty optimal subspace")

    labels, mats = _stack_projectors(projectors)
    dim = mats.shape[1]
    rho = e.average().mat
    c = np.real(np.einsum("ij,xji->x", rho, mats))

    a = _barrier_newton(c, mats, dim)

    def margin(w: np.ndarray) -> float:
        b = np.eye(dim) - np.tensordot(w, mats, axes=1)
        return float(np.linalg.eigvalsh(0.5 * (b + b.conj().T))[0])

    def acceptable(w: np.ndarray) -> bool:
        return bool(
            np.all(w > -1e-12)
            and margin(w) >= -1e-11
            and float(c @ w) >= float(c @ a) - 1e-10
        )

    # prefer the free (minimum-norm) polish: on degenerate optimal faces it
    # is the symmetric representative; fall back to the anchored polish, and
    # to the raw barrier iterate, if the face solve leaves feasibility
    for anchored in (False, True):
        polished = _polish_binding_face(a, mats, dim, anchor=anchored)
        if acceptable(polished):
            a = np.clip(polished, 0.0, None)
            break

    weights = {x: float(w) for x, w in zip(labels, a)}
    eta0 = 1.0 - float(c @ a)
    return WeightSolution(weights=weights, eta0=eta0, psd_margin=margin(a))


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


def _hermitian_basis(dim: int) -> list[np.ndarray]:
    basis: list[np.ndarray] = []
    for i in range(dim):
        m = np.zeros((dim, dim), dtype=complex)
        m[i, i] = 1.0
        basis.append(m)
    for i in range(dim):
        for j in range(i + 1, dim):
            m = np.zeros((dim, dim), dtype=complex)
            m[i, j] = m[j, i] = 1.0 / math.sqrt(2.0)
            basis.append(m)
            m = np.zeros((dim, dim), dtype=complex)
            m[i, j] = -1j / math.sqrt(2.0)
            m[j, i] = 1j / math.sqrt(2.0)
            basis.append(m)
    return basis


def min_error_guessing(e: Ensemble) -> float:
    """Optimal guessing probability via the semidefinite dual
    ``min tr[Y]`` subject to ``Y >= q_x rho_x`` for every ``x``.

    Sized for ``dim <= 4`` and ``N <= 6``; anything larger raises
    :class:`UnsupportedScaleError`.  Two-state ensembles short-circuit to
    the exact trace-norm formula.  The annealed smoothed-max-eigenvalue
    solve ends with an exact feasibility shift, so the returned value is
    an upper bound tight to roughly the final smoothing scale.
    """
    if e.dim > 4 or e.n > 6:
        raise UnsupportedScaleError(
            f"min_error_guessing handles dim <= 4 and N <= 6, "
            f"got dim={e.dim}, N={e.n}"
        )
    weighted = [q * s.mat for q, s in zip(e.priors, e.states)]
    if e.n == 1:
        return 1.0
    if e.n == 2:
        gap = weighted[0] - weighted[1]
        return 0.5 * (1.0 + float(np.sum(np.abs(np.linalg.eigvalsh(gap)))))

    dim = e.dim
    basis = _hermitian_basis(dim)
    nb = len(basis)
    trace_vec = np.array([float(np.real(np.trace(b))) for b in basis])
    penalty = 3.0 * dim

    def unpack(y: np.ndarray) -> np.ndarray:
        return np.tensordot(y, np.stack(basis), axes=1)

    def objective(y: np.ndarray, mu: float) -> tuple[float, np.ndarray]:
        ymat = unpack(y)
        val = float(y @ trace_vec)
        grad = trace_vec.copy()
        for w in weighted:
            diff = w - ymat
            vals, vecs = np.linalg.eigh(0.5 * (diff + diff.conj().T))
            t = vals / mu
            m = max(0.0, float(np.max(t)))
            exps = np.exp(t - m)
            denom = math.exp(-m) + float(np.sum(exps))
            val += penalty * mu * (m + math.log(denom))
            smax = vecs @ np.diag(exps / denom) @ vecs.conj().T
            for k, b in enumerate(basis):
                grad[k] -= penalty * float(np.real(np.trace(smax @ b)))
        return val, grad

    start = max(float(np.linalg.eigvalsh(w)[-1]) for w in weighted) + 0.01
    y = np.zeros(nb)
    y[:dim] = start
    for mu in (0.3, 0.1, 0.03, 0.01, 3e-3, 1e-3, 3e-4, 1e-4, 3e-5, 1e-5, 3e-6, 1e-6, 3e-7, 1e-7):
        res = _sciopt.minimize(
            objective,
            y,
            args=(mu,),
            jac=True,
            method="BFGS",
            options={"gtol": 1e-12, "maxiter": 600},
        )
        y = res.x
    ymat = unpack(y)
    violation = max(
        float(np.linalg.eigvalsh(0.5 * ((w - ymat) + (w - ymat).conj().T))[-1])
        for w in weighted
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


# ---------------------------------------------------------------------------
# generic bounded minimization for retarget searches
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NumericMin:
    """Result of a bounded numeric minimization: parameters, value, a
    convergence flag (best iterate is still returned when False), and the
    seed of the winning restart (None for the deterministic 1-d path)."""

    params: np.ndarray
    value: float
    converged: bool
    seed: int | None


def golden_section(
    fun: Callable[[float], float],
    lo: float,
    hi: float,
    xtol: float = PARAM_TOL,
    max_iter: int = 200,
) -> tuple[float, float]:
    """Golden-section minimization of a unimodal scalar function."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = fun(x1), fun(x2)
    for _ in range(max_iter):
        if b - a <= xtol:
            break
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = fun(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = fun(x2)
    x = x1 if f1 <= f2 else x2
    return x, min(f1, f2)


def minimize_disturbance_numeric(
    fun: Callable[[np.ndarray], float],
    bounds: Sequence[tuple[float, float]],
    restarts: int = 8,
    first_seed: int = FIRST_SEED,
) -> NumericMin:
    """Minimize a disturbance objective over a box.

    One parameter: deterministic coarse scan (128 points) plus
    golden-section refinement around the best bracket — no seeds needed.
    Two or three parameters: Nelder-Mead from ``restarts`` seeded random
    starts (seeds ``first_seed, first_seed+1, ...``); ties within 1e-12
    go to the lowest seed.  Non-convergence is flagged, never hidden: the
    best iterate comes back with ``converged=False``.
    """
    bounds = [(float(lo), float(hi)) for lo, hi in bounds]
    if not 1 <= len(bounds) <= 3:
        raise UnsupportedScaleError(
            f"retarget searches support 1..3 parameters, got {len(bounds)}"
        )
    if len(bounds) == 1:
        lo, hi = bounds[0]
        grid = np.linspace(lo, hi, 128)
        vals = [fun(np.array([g])) for g in grid]
        k = int(np.argmin(vals))
        a = grid[max(k - 1, 0)]
        b = grid[min(k + 1, len(grid) - 1)]
        x, v = golden_section(lambda t: fun(np.array([t])), a, b)
        return NumericMin(params=np.array([x]), value=v, converged=True, seed=None)

    lows = np.array([b[0] for b in bounds])
    highs = np.array([b[1] for b in bounds])
    span = highs - lows

    def boxed(x: np.ndarray) -> float:
        clipped = np.clip(x, lows, highs)
        excess = float(np.linalg.norm(x - clipped))
        return fun(clipped) + 1e3 * excess**2

    best: tuple[float, int, np.ndarray, bool] | None = None
    for k in range(restarts):
        seed = first_seed + k
        rng = np.random.default_rng(seed)
        x0 = lows + rng.random(len(bounds)) * span
        res = _sciopt.minimize(
            boxed,
            x0,
            method="Nelder-Mead",
            options={
                "xatol": PARAM_TOL * 1e-1,
                "fatol": OBJ_TOL * 1e-1,
                "maxiter": 4000,
            },
        )
        x = np.clip(res.x, lows, highs)
        v = fun(x)
        cand = (v, seed, x, bool(res.success))
        if best is None or v < best[0] - 1e-12:
            best = cand
    assert best is not None
    return NumericMin(params=best[2], value=best[0], converged=best[3], seed=best[1])
