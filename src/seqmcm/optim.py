"""Optimization layer: POVM weights and guessing probability.

Two problems live here, and both are semidefinite
programs that share one log-det barrier core (:func:`_barrier_lmi`,
after Vandenberghe & Boyd, SIAM Rev. 38, 1996):
minimize ``b . y`` over an LMI ``F(y) >= 0`` along the central path, with
one linear solve per Newton step and ``mu`` shrunk geometrically until the
gap bound ``m mu`` is below :data:`GAP_TOL`.  Each problem supplies its own
barrier evaluation: one Cholesky factorisation per trial point decides
feasibility and gives the log-det, and the trace terms and closed-form
Hessian follow at the accepted point.  The guessing SDP evaluates its
dense blocks through ``L^-1 F_k L^-H``; the weight SDP works from the
labels' subspace bases (:func:`_weight_barrier`).  Each solve takes 25-50
Newton steps; a solve that stops short of the gap bound raises
:class:`ConvergenceError`.

1. **Inconclusive-rate minimization.**  Given the optimal projectors
   ``P_x`` of a maximum-confidence measurement, choose weights
   ``a_x >= 0`` with ``1 - sum_x a_x P_x >= 0`` minimizing the
   inconclusive probability ``eta_0 = 1 - sum_x a_x tr[rho P_x]``.
   A qubit problem of any size is solved exactly through its dual, with
   no Newton step and a certificate on every solve: the dual has four real
   unknowns and its optimum is fixed by at most four active constraints,
   so the candidates of a small working set of labels, grown one violated
   label at a time, are enumerated in a few batches (:func:`_working_set`,
   :func:`_qubit_weights`).  Above qubits, one or two labels with
   a nonempty optimal subspace are solved exactly in closed form (Jordan's
   lemma reduces the constraint to one inequality in the two weights;
   :func:`_pair_weights`), unless the two subspaces share a direction.
   Otherwise the barrier core runs on ``1 - sum_x a_x P_x`` and the ``N``
   scalars ``a_x``; on a degenerate optimal face its weights come within about
   1e-7 of the face's analytic center, no closer (see
   :func:`min_inconclusive_rate`).

2. **Minimum-error guessing.**  ``P_guess = min tr[Y]`` over Hermitian
   ``Y >= q_x rho_x`` (the dual of Eldar, Megretski & Verghese, IEEE TIT
   49, 2003).  For qubits the dual is the smallest weighted enclosing ball
   of the states' Bloch points (Bae & Hwang, PRA 87, 012334, 2013), solved
   exactly for any number of states with no Newton step: its centre is
   fixed by at most four points, so it is found through the same working
   set, and a measurement of the same value certifies every solve
   (:func:`_qubit_guessing`).  For ``d = 3, 4`` and ``N <= 6`` the barrier
   core runs over the ``d**2`` real coordinates of ``Y`` with one
   ``d x d`` block per state.  Either ``Y`` is then shifted to exact
   feasibility, so the reported value is a true upper bound, within the
   gap of the optimum.

Every solver here is deterministic and carries no seed.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import types
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping

import numpy as np

from . import mcm as _mcm
from .qcore import Ensemble, trace_norm


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

    ``eta0`` is the inconclusive rate ``tr[rho M_0]`` and ``psd_margin``
    the smallest eigenvalue of ``M_0``.  Weights solved exactly (every
    qubit problem; one or two labels above qubits) are the optimum itself:
    ``M_0`` is singular or zero, and ``psd_margin`` sits at rounding level,
    of either sign (about 1e-16).
    On a degenerate optimal face, exact qubit weights are the face's exact
    analytic center.  Otherwise (``d >= 3``) they are a barrier iterate,
    strictly inside the feasible set, ``eta0`` lies within the gap bound
    :data:`GAP_TOL` above the optimum, and ``psd_margin`` is positive, of
    order the gap; on a degenerate optimal face they are one optimal point
    among many, fixed only to about 1e-7 (see :func:`min_inconclusive_rate`).
    ``weights`` is read-only."""

    weights: Mapping[int, float]
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


def _barrier_lmi(
    b: np.ndarray,
    factor: Callable[[np.ndarray], tuple[object, float] | None],
    derivatives: Callable[[object], tuple[np.ndarray, np.ndarray]],
    size: int,
    y: np.ndarray,
    mu: float,
) -> np.ndarray:
    """Minimize ``b . y`` subject to an LMI ``F(y) = F_0 + sum_k y_k F_k >= 0``
    of total size ``size``, through its log-det barrier.

    Each SDP supplies its own evaluation of the barrier.  ``factor(y)``
    returns ``(point, logdet F(y))`` where ``F(y)`` is positive definite and
    None where it is not, so one call decides a trial point's feasibility and
    gives its log-det; ``derivatives(point)`` returns the trace terms
    ``tr[F^-1 F_k]`` and the Hessian ``tr[F^-1 F_k F^-1 F_l]`` at an accepted
    point.  ``y`` must be strictly feasible.

    Follows the central path of ``b . y / mu - logdet F(y)`` from the given
    ``mu``.  Each Newton step takes the gradient ``b_k / mu - tr[F^-1 F_k]``,
    adds :data:`RIDGE` to the Hessian and makes one ``numpy.linalg.solve``.
    The backtracking line search factors each trial point once, for the
    Armijo test.  Once the squared decrement is below :data:`CENTRING_TOL`,
    that step needs only to stay feasible (its gain can be below the
    rounding of the log-det), ``mu`` shrinks by :data:`MU_SHRINK`, and the
    next search starts at step length :data:`MU_SHRINK`, the tangent step
    of the central path.  Returns once ``size mu``, the duality gap on the
    path, is below :data:`GAP_TOL`.  Raises :class:`ConvergenceError` when
    the line search finds no acceptable point or :data:`MAX_STEPS` runs out
    first, since the gap of such an iterate is unknown.
    """
    current = factor(y)
    if current is None:
        raise ValueError("barrier start is not strictly feasible")
    point, before = current
    reach = 1.0
    for _ in range(MAX_STEPS):
        trace, hess = derivatives(point)
        grad = b / mu - trace
        hess.flat[:: b.size + 1] += RIDGE * float(hess.diagonal().max())
        step = np.linalg.solve(hess, -grad)
        decrement = float(-grad @ step)
        slope = float(b @ step) / mu
        centred = decrement < CENTRING_TOL
        t = reach
        while True:
            trial = factor(y + t * step)
            if trial is not None and (
                centred or t * slope - (trial[1] - before) <= -0.25 * t * decrement
            ):
                break
            t *= 0.5
            if t < 1e-12:
                raise ConvergenceError(f"line search stalled at gap bound {size * mu:.1e}")
        y, (point, before), reach = y + t * step, trial, 1.0
        if centred:
            if size * mu < GAP_TOL:
                return y
            mu *= MU_SHRINK
            reach = MU_SHRINK
    raise ConvergenceError(f"{MAX_STEPS} Newton steps left the gap bound at {size * mu:.1e}")


def _weight_barrier(mats: np.ndarray, spans: list[np.ndarray]) -> tuple[Callable, Callable]:
    """The barrier core's evaluation of the weight LMI
    ``diag(S(a), a_1, ..., a_N) >= 0``, ``S(a) = 1 - sum_x a_x P_x``.

    ``mats`` holds the projectors ``P_x`` and ``spans`` their orthonormal
    bases ``Q_x``.  A trial point is feasible when every ``a_x > 0`` and
    ``S`` has a Cholesky factor ``L``; its log-det is
    ``2 sum log diag L + sum log a_x``.  With ``V = L^-1 Q``, ``Q`` every
    label's basis side by side, and ``H = V^dag V``, the trace terms are
    ``1 / a_x - ||V_x||^2`` and the Hessian entry of labels ``x, y`` is the
    sum of ``|H|^2`` over their block, plus ``1 / a_x^2`` where ``x = y``:
    ``tr[S^-1 P_x S^-1 P_y] = ||Q_x^dag S^-1 Q_y||^2``."""
    n, dim = mats.shape[:2]
    flat, eye = mats.reshape(n, -1), np.eye(dim)
    q = np.concatenate(spans, axis=1)
    starts = np.cumsum([0] + [s.shape[1] for s in spans[:-1]])

    def factor(a: np.ndarray) -> tuple[object, float] | None:
        if not a.min() > 0.0:  # also false for NaN
            return None
        try:
            chol = np.linalg.cholesky(eye - (a @ flat).reshape(dim, dim))
        except np.linalg.LinAlgError:
            return None
        logdet = 2.0 * float(np.log(chol.diagonal().real).sum()) + float(np.log(a).sum())
        return (chol, a), logdet

    def derivatives(point: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        chol, a = point
        v = np.linalg.inv(chol) @ q
        h = v.conj().T @ v
        norms, hess = h.diagonal().real, np.abs(h) ** 2
        if q.shape[1] > n:  # sum each label's block
            norms = np.add.reduceat(norms, starts)
            hess = np.add.reduceat(np.add.reduceat(hess, starts, axis=0), starts, axis=1)
        hess.flat[:: n + 1] += 1.0 / (a * a)
        return 1.0 / a - norms, hess

    return factor, derivatives


def min_inconclusive_rate(e: Ensemble) -> WeightSolution:
    """Weights minimizing the inconclusive rate of ``{a_x P_x}``.

    ``P_x`` are the orthogonal projectors onto each label's optimal
    subspace, read once per ensemble from its :func:`seqmcm.mcm.solve_mcm`
    solution.  When one label has such a subspace its weight is 1.

    A qubit problem of any number of labels is solved exactly through its
    dual (:func:`_qubit_weights`): no Newton step is taken, and every
    answer is certified (dual-feasible ``z``, feasible weights, and a gap
    of at most :data:`GAP_TOL`) or :class:`ConvergenceError` is raised.
    Where the optimal face is degenerate (identical states; five or more
    states whose optimal projectors admit a complete POVM), the weights
    are the face's exact analytic center, so symmetric faces keep
    symmetric weights to rounding.

    Above qubits, when two labels have a subspace, and their subspaces
    share no direction, the weights are the exact optimum on the boundary
    of the feasible set (:func:`_pair_weights`): no Newton step is taken,
    and the weights agree with the barrier's to about 1e-8 where the
    problem is well conditioned.  When ``c_x = tr[rho P_x]`` is itself near
    rounding (pure states a small angle apart), the weights of either exact
    solver are as uncertain as the ``c_x``, though ``eta0`` is not.
    Otherwise the barrier core runs on the ``d x d`` block
    ``1 - sum_x a_x P_x`` and the ``N`` scalars ``a_x``, its Newton steps
    taken from the labels' subspace bases (:func:`_weight_barrier`), with
    the gap bound ``(d + N) mu``.  On a degenerate face (``d >= 3``) its weights
    are the central-path point at which :data:`RIDGE` freezes the face
    direction (``mu`` near 1e-6), within about 1e-7 of the face's analytic
    center: symmetric faces keep symmetric weights, but the digits beyond
    1e-7 depend on the ridge, not on the problem.  Solved once per
    ensemble.
    """
    return e.cached("optim.weights", lambda: _min_inconclusive_rate(e))


def _pair_weights(bases: list[np.ndarray], c: np.ndarray) -> np.ndarray | None:
    """The exact optimal weights of two labels, or None when their optimal
    subspaces share a direction.

    ``bases`` holds orthonormal bases ``Q_x`` of the subspaces
    (``P_x = Q_x Q_x^dag``) and ``c`` the values ``c_x = tr[rho P_x] > 0``.
    By Jordan's lemma, ``a_1 P_1 + a_2 P_2 <= 1`` holds exactly when ``a``
    lies in the unit square with ``(1 - a_1)(1 - a_2) >= s a_1 a_2``, where
    ``s = t**2`` and ``t = ||Q_1^dag Q_2||`` is the cosine of the smallest
    principal angle.  For ``s < 1`` the objective is strictly concave along
    that boundary, with maximiser ``a_x = (1 - t sqrt(c_y / c_x)) / (1 - s)``
    clipped to [0, 1].  It is evaluated as
    ``1 / (1 + t) +- t (c_1 - c_2) / ((1 - s)(c_x + sqrt(c_1 c_2)))``,
    which cancels nothing as ``s -> 1`` or ``c_1 -> c_2``, with ``1 - s``
    taken as the squared smallest singular value of ``(1 - P_1) Q_2``,
    accurate to rounding where ``s`` itself rounds to 1.

    A shared direction (``s = 1``) leaves ``1 - s`` at rounding level, below
    machine epsilon.  The optimal face may then be a segment (``c_1 = c_2``),
    and the barrier core picks its centre.
    """
    q1, q2 = bases
    t = float(np.linalg.svd(q1.conj().T @ q2, compute_uv=False)[0])
    g = float(np.linalg.svd(q2 - q1 @ (q1.conj().T @ q2), compute_uv=False)[-1]) ** 2
    if g <= np.finfo(float).eps:
        return None
    tilt = t * (c[0] - c[1]) / g
    mean = math.sqrt(c[0] * c[1])
    a = 1.0 / (1.0 + t) + np.array([tilt / (c[0] + mean), -tilt / (c[1] + mean)])
    return np.clip(a, 0.0, 1.0)


# ---------------------------------------------------------------------------
# qubit weights, exact through the dual
# ---------------------------------------------------------------------------

FACE_TOL = 1e-9
"""A qubit dual constraint whose slack at the optimum is below this,
relative to the optimum, may carry weight (:func:`_qubit_weights`)."""

_PAULI = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
"""``1, sigma_x, sigma_y, sigma_z``: ``tr[P sigma_k]`` are ``P``'s coordinates."""

_LEVI_CIVITA = np.zeros((3, 3, 3))
_LEVI_CIVITA[[0, 1, 2], [1, 2, 0], [2, 0, 1]] = 1.0
_LEVI_CIVITA[[0, 1, 2], [2, 0, 1], [1, 2, 0]] = -1.0


@functools.lru_cache(maxsize=None)
def _subsets(n: int, k: int) -> np.ndarray:
    """Every ``k``-subset of ``range(n)``, one per row (read-only: shared)."""
    subsets = np.array(list(itertools.combinations(range(n), k)), dtype=np.intp).reshape(-1, k)
    subsets.setflags(write=False)
    return subsets


def _next_subsets(subsets: Iterator[tuple[int, ...]], k: int) -> np.ndarray:
    """The next ``2**15`` (or fewer, at the end) ``k``-subsets from the
    iterator ``subsets``, one per row."""
    batch = itertools.chain.from_iterable(itertools.islice(subsets, 1 << 15))
    return np.fromiter(batch, dtype=np.intp).reshape(-1, k)


def _working_set(
    solve: Callable[[np.ndarray], tuple[np.ndarray, float]],
    values: Callable[[np.ndarray], np.ndarray],
    start: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The point ``y`` minimising ``max_x f_x(y)`` over every label, and each
    label's ``f_x(y)`` there.

    Both qubit duals are LP-type problems (Matousek, Sharir & Welzl,
    Algorithmica 16, 1996): the optimum is fixed by at most four labels.
    ``solve(ws)`` returns the exact optimum ``(y, value)`` of the labels
    ``ws`` alone, and ``values(y)`` every label's ``f_x(y)``.  Starting from
    the labels ``start``, the loop stops once no label exceeds the working
    set's value at its optimum, which is then the whole problem's, and
    otherwise adds the worst label and solves again.  ``ws`` is kept sorted,
    so its rows stay in label order.  A worst label already in ``ws`` (a
    rounding tie) ends the loop too, so it makes at most ``N`` rounds."""
    ws = np.sort(start)
    while True:
        y, value = solve(ws)
        f = values(y)
        worst = int(np.argmax(f))
        if f[worst] <= value or worst in ws:
            return y, f
        ws = np.sort(np.append(ws, worst))


def _inverses(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(kept, inverses)``: which of the square ``mats`` are safely
    invertible (``|det|`` above ``1e-14`` times Hadamard's bound, the
    product of the row norms), and their inverses."""
    bound = np.prod(np.sqrt(np.einsum("...ij,...ij->...i", mats, mats)), axis=-1)
    kept = np.abs(np.linalg.det(mats)) > 1e-14 * bound
    return kept, np.linalg.inv(mats[kept])


def _inverses_or_nan(mats: np.ndarray) -> np.ndarray:
    """The inverses of a batch of square matrices in one call, with NaN in
    place of those :func:`_inverses` does not keep where one is singular."""
    try:
        return np.linalg.inv(mats)
    except np.linalg.LinAlgError:
        kept, inv = _inverses(mats)
        out = np.full(mats.shape, np.nan)
        out[kept] = inv
        return out


def _cone_candidates(rows: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Every dual point ``z`` on the cone ``z0 = |z|`` at which ``r``
    independent constraints are active besides it; ``rows`` holds each
    label's ``(tr P_x, b_x)``.

    Each kind is one batch over all subsets of one size.  One label on the
    cone has ``u = b_x / |b_x|`` in closed form.  ``r`` labels give ``r``
    equations ``t z0 + M z = rhs``; for ``r = 3``, two labels take the
    normal of their Bloch vectors' plane as a third, homogeneous equation,
    which keeps ``u`` in their span.  Then ``z = pc - z0 pt`` with
    ``pc = M^-1 rhs`` and ``pt = M^-1 t``, and ``|z| = z0`` is a quadratic in
    ``z0``.  Its coefficients grow with the conditioning of ``M``, so each
    root takes one Newton step on the equations and the cone together, whose
    Jacobian rows ``(t, M)`` and ``(1, -u)`` are well scaled; the step is
    eliminated through ``M^-1``.  A nearly singular ``M`` gives a point
    that is merely not optimal."""
    n, r = rows.shape[0], rows.shape[1] - 1
    b = rows[:, 1:]
    norms = np.sqrt(np.einsum("xk,xk->x", b, b))
    live = norms > 0.0
    one = b[live] * (c[live] / (rows[live, 0] + norms[live]) / norms[live])[:, None]
    if r < 2:
        return one
    idx = _subsets(n, r)
    lin, rhs = rows[idx], c[idx]
    if r == 3:
        pairs = _subsets(n, 2)
        plane = np.zeros((len(pairs), 1, 4))
        plane[:, 0, 1:] = np.einsum("ijk,sj,sk->si", _LEVI_CIVITA, b[pairs[:, 0]], b[pairs[:, 1]])
        lin = np.concatenate([lin, np.concatenate([rows[pairs], plane], axis=1)])
        rhs = np.concatenate([rhs, np.concatenate([c[pairs], plane[:, :, 0]], axis=1)])
    inv = _inverses_or_nan(lin[:, :, 1:])  # NaN where labels coincide
    pc, pt = (inv @ rhs[..., None])[..., 0], (inv @ lin[:, :, :1])[..., 0]
    alpha, beta, gamma = (np.einsum("sk,sk->s", u, v) for u, v in ((pc, pc), (pc, pt), (pt, pt)))
    with np.errstate(all="ignore"):
        q = beta + np.copysign(np.sqrt(np.maximum(beta * beta - alpha * (gamma - 1.0), 0.0)), beta)
        z0 = np.stack([q / (gamma - 1.0), alpha / q], axis=1)  # both roots, cancellation-free
        z = pc[:, None] - z0[..., None] * pt[:, None]
        radius = np.sqrt(np.einsum("sak,sak->sa", z, z))
        # one Newton step: t d0 + M dz = res and d0 - u . dz = z0 - |z|,
        # so dz = M^-1 res - pt d0
        res = lin[:, None, :, 0] * z0[..., None] + (lin[:, None, :, 1:] @ z[..., None])[..., 0]
        step = (inv[:, None] @ (res - rhs[:, None])[..., None])[..., 0]
        d0 = (z0 - radius + np.einsum("sak,sak->sa", z, step) / radius) / (
            1.0 + np.einsum("sak,sk->sa", z, pt) / radius
        )
        z = (z - step + d0[..., None] * pt[:, None]).reshape(-1, r)
        keep = (z0.reshape(-1) > 0.0) & np.isfinite(z).all(axis=1)
    return np.concatenate([one, z[keep]])


def _face_centre(cols: np.ndarray, target: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The analytic centre of the optimal face ``{w >= 0 : cols @ w = target}``
    of a qubit problem, where the face has more than one point or its
    columns are nearly dependent.

    Every vertex is enumerated, one square system per subset of ``rank``
    columns.  Where ``cols`` has fewer independent columns than rows
    (singular values below ``1e-7`` of the largest count as zero, so nearly
    parallel projectors share a face), the systems are taken in its column
    space.  The feasible vertices within ``1e-3`` :data:`GAP_TOL` of the
    best objective (``c`` weights the label columns, which come first) span
    the face, and their mean is interior to it.  Damped Newton steps on the
    face's free coordinates (the null space of the columns in use) then
    maximise ``sum log w``; none is taken where the gradient is already at
    rounding level, so a symmetric face keeps its symmetric mean.

    A wide face has ``C(N + 1, rank)`` vertex systems for ``N`` active
    labels, about ``N**3`` where the Bloch vectors lie in a plane
    (``gu(n)``) and ``N**4`` where they span space.  They are solved in
    batches of ``2**15``, keeping only the running best objective and the
    sum, count and support of the vertices near it, so memory stays bounded;
    a vertex kept before the best rose by less than the window stays in the
    mean.  Up to ``2**15`` systems, one batch gives the mean of exactly the
    vertices near the best."""
    left, sing, _ = np.linalg.svd(cols, full_matrices=False)
    rank = int((sing > 1e-7 * sing[0]).sum())
    if rank < len(cols):
        cols, target = left[:, :rank].T @ cols, left[:, :rank].T @ target
    window, best, count = 1e-3 * GAP_TOL, 0.0, 0
    total, used = np.zeros(cols.shape[1]), np.zeros(cols.shape[1], dtype=bool)
    subsets = itertools.combinations(range(cols.shape[1]), rank)
    while len(idx := _next_subsets(subsets, rank)):
        kept, inv = _inverses(np.swapaxes(cols[:, idx], 0, 1))
        sol = inv @ target
        feasible = sol.min(axis=1) >= -GAP_TOL
        points = np.zeros((int(feasible.sum()), cols.shape[1]))
        np.put_along_axis(points, idx[kept][feasible], sol[feasible], axis=1)
        value = points[:, : c.size] @ c
        top = float(value.max(initial=0.0))
        if top - window > best:  # every vertex kept so far is off the face
            count, total[:], used[:] = 0, 0.0, False
        best = max(best, top)
        face = np.maximum(points[value >= best - window], 0.0)
        count += len(face)
        total += face.sum(axis=0)
        used |= face.max(axis=0, initial=0.0) > 0.0
    if not count:
        raise ConvergenceError("qubit dual: no vertex of the optimal face is feasible")
    w = total / count
    _, sing, vt = np.linalg.svd(cols[:, used])
    free = vt[int((sing > 1e-12 * sing[0]).sum()) :].T
    x = w[used]
    for _ in range(MAX_STEPS if free.shape[1] else 0):
        grad = free.T @ (1.0 / x)
        inv = np.linalg.inv(free.T @ (free / x[:, None] ** 2))
        decrement = float(grad @ inv @ grad)
        if decrement < 1e-24:
            break
        x = x + (free @ (inv @ grad)) / (1.0 + math.sqrt(decrement))  # stays inside
    w[used] = x
    return w


def _face_weights(cols: np.ndarray, target: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Weights ``w >= 0`` with ``cols @ w = target`` on the constraints
    active at a qubit optimum.  In the common case (independent columns)
    there is one such point, solved directly: a square system by its
    inverse, a tall one by least squares, which is exact for a consistent
    system.  Otherwise, or where that point is not nonnegative, the
    optimal face is a segment or a polygon, or its columns are nearly
    dependent, and the answer is its analytic centre (:func:`_face_centre`;
    ``c`` weights the label columns)."""
    w = None
    if cols.shape[0] == cols.shape[1]:
        with contextlib.suppress(np.linalg.LinAlgError):
            w = np.linalg.inv(cols) @ target
    elif cols.shape[1] < cols.shape[0]:
        left, sing, vt = np.linalg.svd(cols, full_matrices=False)
        if sing[-1] > np.finfo(float).eps * max(cols.shape) * sing[0]:
            w = vt.T @ ((left.T @ target) / sing)
    if w is None or w.min(initial=0.0) < -GAP_TOL:
        w = _face_centre(cols, target, c)
    return w


def _qubit_weights(mats: np.ndarray, c: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """The exact optimal weights of a qubit problem, from its dual.

    With ``P_x = (tr P_x + b_x . sigma) / 2`` and ``Z = z0 1 + z . sigma``,
    the dual of the weight SDP is ``min 2 z0`` over ``z0 >= |z|`` and
    ``z0 tr P_x + z . b_x >= c_x``.  Only ``z`` in the span of the ``b_x``
    matters (``r <= 3`` dimensions), and for a given ``z`` the least
    feasible ``z0`` is ``f(z) = max(|z|, max_x (c_x - z . b_x) / tr P_x)``.
    Where a complete POVM exists (``eta0 = 0``) the average state itself,
    ``Z = rho``, is optimal: it is feasible with every constraint active.
    Otherwise ``M_0 != 0`` makes the optimal ``Z`` singular, on the cone,
    with ``r`` more active constraints (:func:`_cone_candidates`).  A
    working set of labels, from the two of largest ``c_x / tr P_x``, is
    solved by these candidates alone and grown by the label of largest
    ``f`` until none exceeds its value (:func:`_working_set`).  The
    candidate of least ``f`` on the set is its optimum; ``f`` makes every
    candidate feasible, so no tolerance decides which.

    The weights follow by complementary slackness: ``w >= 0`` on the
    constraints active at the optimum (slack below :data:`FACE_TOL`), where
    the cone's weight is ``m0`` in ``M_0 = m0 (1 - u . sigma) / 2``, with
    ``sum_x a_x (tr P_x, b_x) + m0 (1, -u) = (2, 0)``.  Where that has one
    solution it is the answer; otherwise the optimal face is a segment or
    a polygon (identical states; five or more states that admit a complete
    POVM), and the answer is its exact analytic centre
    (:func:`_face_centre`).

    Raises :class:`ConvergenceError` unless the answer carries its own
    certificate: ``z`` dual feasible, ``a >= 0`` and
    ``1 - sum_x a_x P_x >= 0``, each within :data:`GAP_TOL`, and the gap
    ``2 z0 - c . a`` at most :data:`GAP_TOL`.
    """
    coords = np.einsum("xij,kji->xk", mats, _PAULI).real  # (tr P_x, b_x)
    _, sing, vt = np.linalg.svd(coords[:, 1:])
    span = vt[: int((sing > 1e-12).sum())]  # orthonormal basis of the b_x
    # tr P_x is the projector's rank, an integer: taken exactly
    rows = np.concatenate([np.rint(coords[:, :1]), coords[:, 1:] @ span.T], axis=1)
    tr, b = rows[:, 0], rows[:, 1:]
    z_rho = 0.5 * (np.einsum("ij,kji->k", rho, _PAULI[1:]).real @ span.T)

    def solve(ws: np.ndarray) -> tuple[np.ndarray, float]:
        z_all = np.concatenate([z_rho[None], _cone_candidates(rows[ws], c[ws])])
        z0_all = np.maximum(
            np.sqrt(np.einsum("sk,sk->s", z_all, z_all)),
            ((c[ws] - z_all @ b[ws].T) / tr[ws]).max(axis=1),
        )
        best = int(np.argmin(z0_all))
        return z_all[best], float(z0_all[best])

    start = np.argsort(-c / tr, kind="stable")[:2]
    z, least = _working_set(solve, lambda z: (c - z @ b.T) / tr, start)
    radius = math.sqrt(float(z @ z))
    z0 = max(radius, float(least.max()))

    slack = z0 * tr + b @ z - c
    active = np.flatnonzero(slack <= FACE_TOL * z0)
    cols = rows[active].T
    if z0 - radius <= FACE_TOL * z0:
        cols = np.concatenate([cols, np.concatenate([[1.0], -z / radius])[:, None]], axis=1)
    target = np.zeros(len(rows[0]))
    target[0] = 2.0
    w = _face_weights(cols, target, c[active])

    a = np.zeros(len(c))
    a[active] = w[: active.size]
    total = a @ coords
    margin = 0.5 * (2.0 - float(total[0]) - math.sqrt(float(total[1:] @ total[1:])))
    gap = 2.0 * z0 - float(c @ a)
    if not (min(float(slack.min()), float(a.min()), margin) >= -GAP_TOL and gap <= GAP_TOL):
        raise ConvergenceError(
            f"qubit weights fail their certificate: dual slack {slack.min():.1e}, "
            f"weight {a.min():.1e}, psd margin {margin:.1e}, gap {gap:.1e}"
        )
    return np.maximum(a, 0.0)


def _min_inconclusive_rate(e: Ensemble) -> WeightSolution:
    entries = [entry for entry in _mcm.solve_mcm(e).values() if entry.basis]
    mats = np.stack([entry.projector for entry in entries])
    n, dim = mats.shape[:2]
    rho = e.average().mat
    c = np.real(np.einsum("ij,xji->x", rho, mats))
    a = None
    if n == 1:
        a = np.ones(1)
    elif dim == 2:
        a = _qubit_weights(mats, c, rho)
    elif n == 2:
        a = _pair_weights([entry.span for entry in entries], c)
    if a is None:
        # sum_x a_x P_x <= (sum_x tr P_x) a for PSD P_x, so this start is interior
        start = np.full(n, 0.5 / float(np.real(np.einsum("xii->", mats))))
        factor, derivatives = _weight_barrier(mats, [entry.span for entry in entries])
        mu = max(0.1, float(np.max(np.abs(c))))
        a = _barrier_lmi(-c, factor, derivatives, dim + n, start, mu)

    slack = np.eye(dim) - np.tensordot(a, mats, axes=1)
    margin = float(np.linalg.eigvalsh(0.5 * (slack + slack.conj().T))[0])
    weights = types.MappingProxyType({entry.label: float(w) for entry, w in zip(entries, a)})
    return WeightSolution(weights=weights, eta0=1.0 - float(c @ a), psd_margin=margin)


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


def _barrier_guessing(weighted: np.ndarray) -> np.ndarray:
    """The barrier core's ``Y`` for the weighted states ``q_x rho_x``, within
    the gap bound :data:`GAP_TOL` of the optimum and strictly feasible up
    to rounding."""
    n, dim = weighted.shape[:2]
    basis = _hermitian_coordinates(dim)
    trace = np.real(np.einsum("kii->k", basis))
    # Y = 2 * 1 is strictly interior (q_x rho_x <= 1); mu = 2 / N would
    # make it central if every q_x rho_x were 0
    start = np.zeros(dim * dim)
    start[:dim] = 2.0
    # the dense LMI: one d x d block Y - q_x rho_x per state, Y = sum_k y_k basis_k
    f0, f = -weighted, basis[:, None]

    def factor(y: np.ndarray) -> tuple[np.ndarray, float] | None:
        try:
            chol = np.linalg.cholesky(f0 + (y @ f.reshape(y.size, -1)).reshape(f.shape[1:]))
        except np.linalg.LinAlgError:
            return None
        return chol, 2.0 * float(np.log(np.real(np.diagonal(chol, axis1=-2, axis2=-1))).sum())

    def derivatives(chol: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        w = np.linalg.inv(chol)
        g = w @ f @ np.swapaxes(w.conj(), -1, -2)  # L^-1 F_k L^-H, (K, B, m, m)
        flat = g.reshape(len(f), -1)
        return np.real(np.einsum("kbii->k", g)), np.real(flat @ flat.conj().T)

    y = _barrier_lmi(trace, factor, derivatives, dim * n, start, 2.0 / n)
    return np.tensordot(y, basis, axes=1)


def _ball_candidates(s: np.ndarray, p: np.ndarray, r: int) -> np.ndarray:
    """Every point ``y`` in the affine hull of ``k = 2 .. r + 1`` of the
    points ``p_x`` at which ``s_x + |y - p_x|`` is the same ``R`` for all
    ``k``, with ``r`` the dimension of the hull of all of them, after the
    points ``p_x`` themselves.

    Each size is one batch over its subsets.  Two points fix ``y`` on their
    segment, ``R - s_0 = (s_1 - s_0 + L) / 2`` from ``p_0`` (``L`` their
    distance).  For more, with ``y = p_0 + D^T t``, the rows of ``D`` being
    ``p_j - p_0``, the differences of the squared distances are linear:
    ``G t = u + R v`` with ``G = D D^T``,
    ``u_j = (|p_j - p_0|**2 - s_j**2 + s_0**2) / 2`` and ``v_j = s_j - s_0``.
    Then ``|D^T t| = R - s_0`` is a quadratic in ``R``; both roots are kept,
    so some points are spurious (``R < s_x`` for a label of the subset).
    Where two of the balls nearly touch, one inside the other, the squared
    differences lose the digits the point is fixed by (1e-9 was seen), so
    each root also takes one Newton step on ``s_j + |y - p_j| = R``
    themselves: their Jacobian rows ``(n_j^T D^T, -1)``, ``n_j`` the unit
    vector from ``p_j`` to ``y``, are well scaled, and subtracting the
    first row eliminates the step in ``R``.  Both points are returned.  A
    spurious, inaccurate or diverging point costs nothing: the caller
    evaluates its objective at each, which is an upper bound anywhere."""
    n = len(s)
    points = [p]
    if min(n, r + 1) >= 2:
        pair = _subsets(n, 2)
        d = p[pair[:, 1]] - p[pair[:, 0]]
        with np.errstate(all="ignore"):
            length = np.sqrt(np.einsum("sk,sk->s", d, d))
            reach = (s[pair[:, 1]] - s[pair[:, 0]] + length) / (2.0 * length)
        points.append(p[pair[:, 0]] + reach[:, None] * d)
    for k in range(3, min(n, r + 1) + 1):
        idx = _subsets(n, k)
        d = p[idx[:, 1:]] - p[idx[:, :1]]
        v = s[idx[:, 1:]] - s[idx[:, :1]]
        u = 0.5 * (np.einsum("sjk,sjk->sj", d, d) - v * (s[idx[:, 1:]] + s[idx[:, :1]]))
        inv = _inverses_or_nan(d @ np.swapaxes(d, 1, 2))
        s0 = s[idx[:, 0]]
        a, b = (inv @ u[..., None])[..., 0], (inv @ v[..., None])[..., 0]
        alpha = 1.0 - np.einsum("sj,sj->s", b, v)
        beta = np.einsum("sj,sj->s", b, u) + s0
        gamma = np.einsum("sj,sj->s", a, u) - s0 * s0
        with np.errstate(all="ignore"):
            q = beta + np.copysign(np.sqrt(np.maximum(beta * beta + alpha * gamma, 0.0)), beta)
            radius = np.stack([q / alpha, -gamma / q], axis=1)  # both roots, cancellation-free
            y = p[idx[:, 0], None] + (a[:, None] + radius[..., None] * b[:, None]) @ d
            # one Newton step: jac_j . dt - dR = -res_j for every j of the subset
            offset = y[:, :, None] - p[idx][:, None]
            dist = np.sqrt(np.einsum("sajk,sajk->saj", offset, offset))
            res = s[idx][:, None] + dist - radius[..., None]
            jac = (offset / dist[..., None]) @ np.swapaxes(d, 1, 2)[:, None]
            shift = (res[:, :, 1:] - res[:, :, :1])[..., None]
            dt = (_inverses_or_nan(jac[:, :, 1:] - jac[:, :, :1]) @ shift)[..., 0]
            points += [y.reshape(-1, 3), (y - dt @ d).reshape(-1, 3)]
    points = np.concatenate(points)
    return points[np.isfinite(points).all(axis=1)]


def _qubit_guessing(weighted: np.ndarray) -> np.ndarray:
    """The exact optimal ``Y`` of the guessing dual of qubit states.

    With ``q_x rho_x = s_x 1 + p_x . sigma`` (``s_x = q_x / 2``) and
    ``Y = y0 1 + y . sigma``, ``Y >= q_x rho_x`` reads
    ``y0 - s_x >= |y - p_x|``, so ``P_guess = 2 min_y f(y)`` with
    ``f(y) = max_x (s_x + |y - p_x|)``: the smallest weighted enclosing ball
    of the points ``p_x`` (Bae & Hwang, PRA 87, 012334, 2013).  Its centre is
    a point ``p_x`` itself or is at equal weighted distance from ``2 .. r + 1``
    points, in their affine hull (:func:`_ball_candidates`).  A working set
    of labels, from the two of largest ``s_x``, is solved by these
    candidates alone and grown by the label of largest ``f`` until none
    exceeds its value (:func:`_working_set`).  The candidate of least
    ``f`` on the set is its optimum; ``f`` makes every candidate feasible,
    so no tolerance decides which.

    The certificate is a measurement of the same value.  Where the centre
    lies on the likeliest label's own point, or within :data:`GAP_TOL` of
    its value, ``M_x = 1`` guesses that label always and succeeds with
    ``q_x``.  Otherwise the optimal measurement is ``M_x = w_x (1 - v_x .
    sigma)`` on the labels active at the centre, with
    ``v_x = (y - p_x) / |y - p_x|``,
    ``sum_x w_x = 1`` and ``sum_x w_x v_x = 0`` (:func:`_face_weights`, in
    the coordinates of the points' affine hull).  A label counts as active
    where its slack is at most ``GAP_TOL / 2``: weight on it then costs at
    most :data:`GAP_TOL` in all, while a label that merely nears the ball
    (a state repeated at a lower prior, whose ball touches the first from
    inside) could take weight it does not earn.  The active label nearest
    the centre has the least accurate direction: at a distance of 1e-8, the
    rounding of ``y`` turns it by about 1e-9.  So that label takes the
    remainder ``1 - sum M_x`` of the others, scaled by one factor so that
    the remainder is positive and singular, as the optimal one is: the
    measurement is complete by construction.  Raises
    :class:`ConvergenceError` unless ``w >= -GAP_TOL`` and its success
    probability is within :data:`GAP_TOL` of ``tr[Y]``.
    """
    coords = 0.5 * np.einsum("xij,kji->xk", weighted, _PAULI).real  # (s_x, p_x)
    s, p = coords[:, 0], coords[:, 1:]
    _, sing, vt = np.linalg.svd(p - p[0])
    span = vt[: int((sing > 1e-12).sum())]  # orthonormal basis of the affine hull's directions

    def solve(ws: np.ndarray) -> tuple[np.ndarray, float]:
        points = _ball_candidates(s[ws], p[ws], len(span))
        offsets = points[:, None] - p[ws]
        f_all = (s[ws] + np.sqrt(np.einsum("cxk,cxk->cx", offsets, offsets))).max(axis=1)
        best = int(np.argmin(f_all))
        return points[best], float(f_all[best])

    def distances(y: np.ndarray) -> np.ndarray:
        return np.sqrt(np.einsum("xk,xk->x", y - p, y - p))

    y, f = _working_set(solve, lambda y: s + distances(y), np.argsort(-s, kind="stable")[:2])
    radius = float(f.max())
    ymat = np.einsum("k,kij->ij", np.concatenate([[radius], y]), _PAULI)

    top = int(np.argmax(s))
    if 2.0 * (radius - s[top]) <= GAP_TOL:  # always guessing label top is optimal
        return ymat
    dist = distances(y)
    # a label may carry weight where its slack costs at most GAP_TOL in all
    active = np.flatnonzero((radius - s - dist <= 0.5 * GAP_TOL) & (dist > 0.0))
    v = (y - p[active]) / dist[active, None]
    # each label's success tr[q_x rho_x (1 - v_x . sigma)] per unit weight
    value = 2.0 * (s[active] - np.einsum("xk,xk->x", p[active], v))
    target = np.zeros(len(span) + 1)
    target[0] = 1.0
    w = _face_weights(np.concatenate([np.ones((1, active.size)), span @ v.T]), target, value)
    # the label nearest the centre, whose direction v_x is the least
    # accurate, takes the remainder a 1 + b . sigma, with the others scaled
    # so that it is positive and singular (a = |b|), as the optimal one is
    near = int(np.argmin(dist[active]))
    others = np.arange(active.size) != near
    rest = np.maximum(w[others], 0.0)
    b = rest @ v[others]
    scale = float(rest.sum()) + math.sqrt(float(b @ b))
    t = 1.0 / scale if scale > 0.0 else 0.0
    a, b = 1.0 - t * float(rest.sum()), t * b
    x = active[near]
    success = t * float(rest @ value[others]) + 2.0 * (s[x] * a + float(p[x] @ b))
    gap = 2.0 * radius - success
    if not (float(w.min()) >= -GAP_TOL and gap <= GAP_TOL):
        raise ConvergenceError(
            f"qubit guessing fails its certificate: weight {w.min():.1e}, gap {gap:.1e}"
        )
    return ymat


def min_error_guessing(e: Ensemble) -> float:
    """Optimal guessing probability via the semidefinite dual
    ``min tr[Y]`` subject to ``Y >= q_x rho_x`` for every ``x``.

    One and two states, of any dimension, short-circuit to the exact
    values: 1, and ``(1 + || q_1 rho_1 - q_2 rho_2 ||_1) / 2`` (trace norm
    without the 1/2 factor, so an orthogonal pair gives exactly 1).  Qubit
    states, any number of them, are solved exactly
    (:func:`_qubit_guessing`): no Newton step is taken, and every answer is
    certified by a measurement within :data:`GAP_TOL` of it or
    :class:`ConvergenceError` is raised.  Above qubits the SDP is sized for
    ``dim <= 4`` and ``N <= 6``; anything larger raises
    :class:`UnsupportedScaleError`.  Otherwise (``d = 3, 4``) the barrier
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
    if e.dim > 4 or (e.dim > 2 and e.n > 6):
        raise UnsupportedScaleError(
            f"min_error_guessing handles qubits, and dim 3 or 4 with N <= 6, "
            f"got dim={e.dim}, N={e.n}"
        )
    weighted = np.stack([q * s.mat for q, s in zip(e.priors, e.states)])

    ymat = (_qubit_guessing if e.dim == 2 else _barrier_guessing)(weighted)
    diffs = weighted - ymat
    violation = float(np.linalg.eigvalsh(0.5 * (diffs + np.swapaxes(diffs.conj(), 1, 2))).max())
    if violation > 0.0:
        ymat = ymat + violation * np.eye(e.dim)
    return float(np.real(np.trace(ymat)))
