"""Maximum-confidence measurements for state discrimination.

Given an ensemble ``{q_x, rho_x}`` with average ``rho = sum_x q_x rho_x``,
the confidence of outcome ``x`` under a POVM element ``M_x`` is the
posterior probability that the state really was ``rho_x``:

    C(M_x) = q_x tr[rho_x M_x] / tr[rho M_x].

Maximizing over all valid elements gives the maximum confidence

    C_x = lambda_max( rho^(-1/2) q_x rho_x rho^(-1/2) ),

the largest eigenvalue of the "shaped" operator on the support of
``rho`` — equivalently the smallest ``lam`` with
``lam * 1 - rho^(-1/2) q_x rho_x rho^(-1/2) >= 0``, so the eigenvalue
form *is* the optimum and no iterative solver is involved.  Optimal
elements are supported on the top eigenspace, mapped back through
``rho^(-1/2)``.

Everything downstream rests on two exact identities:

* ``C_x = q_x * 2**Dmax(rho_x || rho)`` where ``Dmax`` is the max-relative
  entropy (in bits), and
* the stationarity condition ``C_x rho = q_x rho_x + r_x sigma_x`` with
  ``r_x = C_x - q_x >= 0`` and ``sigma_x`` a state orthogonal (under the
  shaping map) to every optimal element — taking the trace of the first
  identity is what pins ``r_x``, and ``mu_x = q_x / C_x`` rewrites it as
  the mixture ``rho = mu_x rho_x + (1 - mu_x) sigma_x``.

Each ensemble is solved once.  :func:`solve_mcm` factors ``rho`` with one
eigensolve, which yields both ``rho^(-1/2)`` and the support projector,
then pays one eigensolve of the shaped operator per label (plus one of
``C_x rho - q_x rho_x`` when ``r_x > 0``).  The result is kept on the
ensemble itself (:meth:`Ensemble.cached`), keyed by the rank cutoff, so
:func:`mcm_povm`, :func:`verify_kkt`, the weight optimizer and the chain
runner all reuse it.  It cannot go stale: an ensemble's fields are frozen
and its state arrays read-only, and callers get a fresh dict of frozen
entries, never the stored one.  :func:`max_confidence` solves a single
label against the same cached factorisation, so a leak outside the support
is reported only for the label that leaks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from . import qcore
from .qcore import (
    DensityMatrix,
    Ensemble,
    Povm,
    RANK_TOL,
    as_matrix,
    eig_hermitian,
    fix_phase,
    matrix_to_json,
    require_hermitian,
    support_factors,
    trace_norm,
    vector_to_json,
)

DEGENERACY_TOL = 1e-9
"""Relative gap below the top eigenvalue that still counts as degenerate."""

SUPPORT_TOL = 1e-9
"""Allowed weight of a state outside the reference support before the
confidence is declared infinite."""

R_ZERO_TOL = 1e-12
"""Below this, the complement weight r_x is treated as exactly zero."""


class SupportError(ValueError):
    """Raised when a state has weight outside the reference support, which
    would make the confidence (or max-relative entropy) infinite."""


@dataclass(frozen=True)
class McmEntry:
    """Solution data for one label of a maximum-confidence measurement.

    Attributes
    ----------
    label:
        The ensemble label ``x`` (1-based).
    confidence:
        ``C_x``, in ``[q_x, 1]``.
    degeneracy:
        Dimension ``d_x`` of the top eigenspace of the shaped operator.
    basis:
        The ``d_x`` back-mapped unit vectors ``phi_x^i`` spanning the
        supports of all optimal POVM elements.  Not mutually orthogonal
        in general.  Empty when ``q_x = 0``.
    sigma:
        The complementary state, or ``None`` when ``r = 0`` (full
        degeneracy: the shaped operator is proportional to the support
        projector, e.g. any single-state ensemble).
    r:
        Complement weight ``C_x - q_x``.
    mu:
        Mixture weight ``q_x / C_x`` (0 when ``q_x = 0``).
    """

    label: int
    confidence: float
    degeneracy: int
    basis: tuple[np.ndarray, ...]
    sigma: DensityMatrix | None
    r: float
    mu: float


def _average_factors(e: Ensemble, rank_tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(rho, rho^(-1/2) on the support, support projector)``, from one
    eigensolve of ``rho`` per ensemble and cutoff."""
    rho = e.average().mat
    shaping, support = e.cached(
        ("mcm.factors", rank_tol),
        lambda: tuple(qcore._frozen(m) for m in support_factors(rho, rank_tol)[:2]),
    )
    return rho, shaping, support


def _solve_label(
    e: Ensemble, x: int, factors: tuple[np.ndarray, np.ndarray, np.ndarray]
) -> McmEntry:
    q = e.prior(x)
    if q == 0.0:
        return McmEntry(
            label=x, confidence=0.0, degeneracy=0, basis=(), sigma=None, r=0.0, mu=0.0
        )
    rho, shaping, support = factors
    rho_x = e.state(x).mat
    leak = float(np.real(np.trace(rho_x @ (np.eye(rho_x.shape[0]) - support))))
    if leak > SUPPORT_TOL:
        raise SupportError(
            f"label {x}: state has weight {leak:.3e} outside the support of the "
            "ensemble average; the confidence is infinite (no valid finite maximum exists)"
        )
    # Hermitian by construction: the rounding asymmetry of the product
    # grows with ||rho^-1|| and would trip an absolute Hermiticity check
    op = shaping @ (q * rho_x) @ shaping
    vals, vecs = eig_hermitian(0.5 * (op + op.conj().T), "shaped operator")
    c = float(vals[0])
    deg = int(np.sum(vals > c - DEGENERACY_TOL * c))
    basis = []
    for i in range(deg):
        phi = shaping @ vecs[:, i]
        norm = float(np.linalg.norm(phi))
        if norm <= 0.0:
            continue
        basis.append(qcore._frozen(fix_phase(phi / norm)))
    r = c - q
    sigma: DensityMatrix | None = None
    if r > R_ZERO_TOL:
        # c*rho - q*rho_x is PSD in exact arithmetic (c is the top eigenvalue
        # of the shaped operator); clip the float dust so a small r cannot
        # blow it up past the state validator.
        raw = c * rho - q * rho_x
        rvals, rvecs = eig_hermitian(0.5 * (raw + raw.conj().T), "complement")
        if float(rvals[-1]) < -1e-8 * max(c, 1.0):
            raise ValueError(
                f"complement operator has eigenvalue {float(rvals[-1]):.3e}; "
                "the confidence eigenvalue is inconsistent"
            )
        clipped = np.clip(rvals, 0.0, None)
        mat = (rvecs * clipped) @ rvecs.conj().T
        sigma = DensityMatrix(mat / float(np.real(np.trace(mat))))
    else:
        r = 0.0
    return McmEntry(
        label=x,
        confidence=c,
        degeneracy=deg,
        basis=tuple(basis),
        sigma=sigma,
        r=r,
        mu=q / c,
    )


def max_confidence(e: Ensemble, x: int, rank_tol: float = RANK_TOL) -> McmEntry:
    """Solve the maximum-confidence problem for label ``x``.

    Returns the full :class:`McmEntry`.  A zero-prior label gets
    ``C_x = 0`` with an empty basis.  If the state leaks outside the
    support of the ensemble average (possible only through aggressive
    rank truncation), :class:`SupportError` is raised rather than
    reporting a spuriously finite value; other labels' leaks do not
    matter here.
    """
    if x not in e.labels:
        raise ValueError(f"label {x} not in 1..{e.n}")
    return _solve_label(e, x, _average_factors(e, rank_tol))


def solve_mcm(e: Ensemble, rank_tol: float = RANK_TOL) -> dict[int, McmEntry]:
    """Maximum-confidence solutions for every label of the ensemble.

    Solved once per ensemble and cutoff; later calls return a fresh dict
    of the same (immutable) entries."""

    def solve() -> dict[int, McmEntry]:
        factors = _average_factors(e, rank_tol)
        return {x: _solve_label(e, x, factors) for x in e.labels}

    return dict(e.cached(("mcm.solution", rank_tol), solve))


def optimal_projectors(entries: dict[int, McmEntry]) -> dict[int, np.ndarray]:
    """Orthogonal projectors onto each label's optimal subspace.

    Labels whose optimal basis is empty (zero prior) are omitted."""
    projectors: dict[int, np.ndarray] = {}
    for x, entry in entries.items():
        if not entry.basis:
            continue
        stacked = np.stack(entry.basis, axis=1)
        qmat, _ = np.linalg.qr(stacked)
        projectors[x] = qmat @ qmat.conj().T
    return projectors


def mcm_povm(e: Ensemble, weights: dict[int, float], rank_tol: float = RANK_TOL) -> Povm:
    """Assemble the POVM ``M_x = a_x P_x`` from per-label weights.

    ``P_x`` is the orthogonal projector onto the span of the optimal basis
    vectors for label ``x`` (rank one in the non-degenerate case).  The
    inconclusive element is ``M_0 = 1 - sum_x M_x``; callers are expected
    to validate the result, since arbitrary weights need not be feasible.
    """
    projectors = optimal_projectors(solve_mcm(e, rank_tol))
    elements: dict[int, np.ndarray] = {}
    for x, a in weights.items():
        if x not in projectors:
            raise ValueError(f"label {x} has no optimal subspace (unknown label or zero prior)")
        elements[x] = float(a) * projectors[x]
    total = sum(elements.values(), np.zeros((e.dim, e.dim), dtype=complex))
    return Povm(elements=elements, inconclusive=np.eye(e.dim) - total)


@dataclass(frozen=True)
class KktReport:
    """Per-label optimality residuals for a candidate MCM POVM.

    ``stability[x]`` is ``|| C_x rho - q_x rho_x - r_x sigma_x ||_1`` and
    ``slackness[x]`` is ``| r_x tr[sigma_x M_x] |``; both must vanish at a
    true maximum-confidence solution."""

    stability: dict[int, float]
    slackness: dict[int, float]
    tol: float
    ok: bool


def verify_kkt(
    e: Ensemble,
    povm: Povm,
    entries: dict[int, McmEntry] | None = None,
    tol: float = 1e-9,
) -> KktReport:
    """Check both optimality conditions for each conclusive POVM label."""
    if entries is None:
        entries = solve_mcm(e)
    rho = e.average().mat
    stability: dict[int, float] = {}
    slackness: dict[int, float] = {}
    for x in povm.labels:
        entry = entries[x]
        comp = entry.r * entry.sigma.mat if entry.sigma is not None else 0.0
        residual = entry.confidence * rho - e.prior(x) * e.state(x).mat - comp
        stability[x] = trace_norm(residual)
        if entry.sigma is not None:
            overlap = float(np.real(np.trace(entry.sigma.mat @ povm.elements[x])))
            slackness[x] = abs(entry.r * overlap)
        else:
            slackness[x] = 0.0
    ok = all(v <= tol for v in stability.values()) and all(
        v <= tol for v in slackness.values()
    )
    return KktReport(stability=stability, slackness=slackness, tol=tol, ok=ok)


# ---------------------------------------------------------------------------
# entropy connections
# ---------------------------------------------------------------------------


def max_relative_entropy(rho: Any, sigma: Any, rank_tol: float = RANK_TOL) -> float:
    """Max-relative entropy ``Dmax(rho || sigma)`` in bits.

    ``Dmax = log2 lambda_max( sigma^(-1/2) rho sigma^(-1/2) )`` when the
    support of ``rho`` lies inside the support of ``sigma``; otherwise the
    divergence is infinite and ``math.inf`` is returned.
    """
    r = require_hermitian(as_matrix(rho, "rho"), "rho")
    s, proj, _ = support_factors(as_matrix(sigma, "sigma"), rank_tol)
    leak = float(np.real(np.trace(r @ (np.eye(r.shape[0]) - proj))))
    if leak > SUPPORT_TOL:
        return math.inf
    shaped = s @ r @ s
    top = float(np.linalg.eigvalsh(0.5 * (shaped + shaped.conj().T))[-1])
    if top <= 0.0:
        return -math.inf
    return math.log2(top)


def confidence_entropy_identity(
    e: Ensemble, x: int, rank_tol: float = RANK_TOL
) -> tuple[float, float]:
    """Both sides of ``C_x = q_x 2**Dmax(rho_x || rho)``.

    Returns ``(eigenvalue side, entropy side)``; they agree to solver
    precision because both are the same top eigenvalue computed two ways.
    """
    lhs = max_confidence(e, x, rank_tol).confidence
    dmax = max_relative_entropy(e.state(x).mat, e.average().mat, rank_tol)
    q = e.prior(x)
    rhs = 0.0 if q == 0.0 else q * 2.0**dmax
    return lhs, rhs


def guessing_probability(e: Ensemble) -> tuple[float, float]:
    """Optimal guessing probability and min-entropy ``(P_guess, H_min)``.

    ``H_min = -log2 P_guess`` is the conditional min-entropy of the label
    given the quantum system; ``P_guess`` comes from
    :func:`seqmcm.optim.min_error_guessing`.
    """
    from . import optim

    p = optim.min_error_guessing(e)
    return p, 0.0 - math.log2(p)  # +0.0, not -0.0, at P_guess = 1


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def entry_to_json(entry: McmEntry) -> dict[str, Any]:
    return {
        "label": entry.label,
        "confidence": entry.confidence,
        "degeneracy": entry.degeneracy,
        "basis": [vector_to_json(v) for v in entry.basis],
        "sigma": matrix_to_json(entry.sigma.mat) if entry.sigma is not None else None,
        "r": entry.r,
        "mu": entry.mu,
    }


def solution_to_json(entries: dict[int, McmEntry]) -> dict[str, Any]:
    """JSON object keyed by label; order-stable for deterministic output."""
    return {str(x): entry_to_json(entries[x]) for x in sorted(entries)}
