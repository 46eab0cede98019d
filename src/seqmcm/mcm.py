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

Each ensemble is solved in two stages, each once and kept on the ensemble
itself (:meth:`Ensemble.cached`).  The first, :func:`confidences`, reads
the one eigensolve of ``rho`` that validated the average, which yields
both ``rho^(-1/2)`` and the support projector, checks the support, and
pays one stacked eigensolve of the ``N`` shaped operators and one of the
complements ``C_x rho - q_x rho_x`` of the labels with ``r_x > 0``, whose
spectra are the complement check.  It takes a batch of ensembles that
share their priors (:func:`_first_stage`), and one ensemble is the batch
of one; a batch that fails a check caches nothing, and
:mod:`seqmcm.seqchan` decides which error a chain reports.  The second,
:func:`solve_mcm`, builds the entries on it: the ``sigma_x``, validated as
one stack from the clipped spectrum they are built from instead of
eigensolved again, and the back-mapped bases.  Each stack is symmetrised
on the line before its eigensolve, so these eigensolves skip the
Hermiticity check (see :mod:`seqmcm.qcore`).  The chain runner reads the
first stage only, as one stacked first stage per chain of all the
ensembles no strategy solved; :func:`mcm_povm`, :func:`verify_kkt`, the
weight optimizer and the strategies that measure the optimal bases read
the second.  Neither can go stale: an ensemble's fields are frozen and its
state arrays read-only, and callers get a fresh dict of confidences or of
frozen entries, never the stored one.  An entry's optimal subspace
(:attr:`McmEntry.span`, :attr:`McmEntry.projector`) is computed on first
read and kept read-only: its readers share one QR per label, and a party
that reads only ``basis[0]`` pays none.  :func:`max_confidence` reads its
label's entry from that one solution, so it raises :class:`SupportError`
when any label of the ensemble leaks outside the support.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from . import qcore
from .qcore import (
    DensityMatrix,
    Ensemble,
    Povm,
    as_matrix,
    fix_phase,
    matrix_to_json,
    require_hermitian,
    support_factors,
    vector_to_json,
)

DEGENERACY_TOL = 1e-9
"""Relative gap below the top eigenvalue that still counts as degenerate."""

SUPPORT_TOL = 1e-9
"""Allowed weight of a state outside the reference support before the
confidence is declared infinite."""

R_ZERO_TOL = 1e-12
"""Below this, the complement weight r_x is treated as exactly zero."""

KKT_TOL = 1e-9
"""Largest stability or slackness residual :func:`verify_kkt` accepts."""


class SupportError(ValueError):
    """Raised when a state has weight outside the reference support, which
    would make the confidence (or max-relative entropy) infinite."""


class ComplementCheckError(ArithmeticError):
    """Raised when a complement operator ``C_x rho - q_x rho_x`` has an
    eigenvalue below ``-1e-8 max(C_x, 1)``: the solution fails its own
    check, since that operator is positive at a true maximum.  It happens
    when the rank cut of ``rho`` drops a direction in which ``rho_x`` keeps
    weight below :data:`SUPPORT_TOL`."""


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
    span, projector:
        Not fields: ``Q_x``, an orthonormal basis of ``basis`` (one QR), and
        ``P_x = Q_x Q_x^dag``, read-only and computed on first read.  With
        a zero prior there is no subspace, and either raises ValueError.
    """

    label: int
    confidence: float
    degeneracy: int
    basis: tuple[np.ndarray, ...]
    sigma: DensityMatrix | None
    r: float
    mu: float

    @functools.cached_property
    def span(self) -> np.ndarray:
        if not self.basis:
            raise ValueError(f"label {self.label} has no optimal subspace (zero prior)")
        qmat, _ = np.linalg.qr(np.stack(self.basis, axis=1))
        return qcore._frozen(qmat)

    @functools.cached_property
    def projector(self) -> np.ndarray:
        return qcore._frozen(self.span @ self.span.conj().T)


def _first_stage(ensembles: Sequence[Ensemble]) -> list[tuple]:
    """The first stage of each ensemble's solve, cached on it as
    :func:`seqmcm.qcore._cached_batch` caches: per ensemble ``(confidences,
    live labels, priors, rho^(-1/2), shaped (vals, vecs), complement (vals,
    vecs) or None)``.

    The ensembles not yet cached, which must share their priors and
    dimension (a chain's do), are solved together: their averages' factors
    from the one eigensolve that validated each, the support-leak check,
    one eigensolve of the ``(B, N, d, d)`` stack of shaped operators, and one
    of the complements (``r > R_ZERO_TOL``) of all of them, whose spectra
    are the complement check.  One ensemble's checks run in this order: its
    average, its support check by label, its complement check by label.
    """

    def compute(es: list[Ensemble]) -> list[tuple]:
        spectra = qcore._average_spectra(es)
        rho = np.array([average.mat for average, _, _ in spectra])
        shaping, support, _ = qcore._support_factors(
            np.array([vals for _, vals, _ in spectra]), np.array([vecs for _, _, vecs in spectra])
        )
        live = [x for x in es[0].labels if es[0].prior(x) != 0.0]
        q = np.array([es[0].prior(x) for x in live])
        states = np.array([[e.state(x).mat for x in live] for e in es])
        # tr[rho_x (1 - P)] of every live label of every ensemble
        leaks = np.einsum("bnij,bji->bn", states, np.eye(es[0].dim) - support).real
        if (leaks > SUPPORT_TOL).any():
            b, i = np.argwhere(leaks > SUPPORT_TOL)[0]
            raise SupportError(
                f"label {live[i]}: state has weight {leaks[b, i]:.3e} outside the support of the "
                "ensemble average; the confidence is infinite (no valid finite maximum exists)"
            )
        # Hermitian by construction: the rounding asymmetry of the products
        # grows with ||rho^-1|| and would trip an absolute Hermiticity check, so
        # they are symmetrised, which makes them exactly Hermitian
        ops = shaping[:, None] @ (q[:, None, None] * states) @ shaping[:, None]
        vals, vecs = qcore._eigh_descending(0.5 * (ops + qcore._adjoint(ops)))
        c = vals[..., 0]
        kept = c - q > R_ZERO_TOL
        owner, label = np.nonzero(kept)
        comp_vals = comp_vecs = None
        if len(owner):
            # c*rho - q*rho_x is PSD in exact arithmetic: c tops the shaped spectrum
            raw = c[kept][:, None, None] * rho[owner] - q[label, None, None] * states[kept]
            comp_vals, comp_vecs = qcore._eigh_descending(0.5 * (raw + qcore._adjoint(raw)))
            inconsistent = comp_vals[:, -1] < -1e-8 * np.maximum(c[kept], 1.0)
            if inconsistent.any():
                raise ComplementCheckError(
                    f"complement operator has eigenvalue {comp_vals[inconsistent][0, -1]:.3e}; "
                    "the confidence eigenvalue is inconsistent"
                )
        for arr in (q, shaping, vals, vecs, comp_vals, comp_vecs):
            if arr is not None:
                arr.setflags(write=False)
        stages, lo = [], 0
        for b, (e, n) in enumerate(zip(es, kept.sum(axis=1).tolist())):
            complements = (comp_vals[lo : lo + n], comp_vecs[lo : lo + n]) if n else None
            lo += n
            conf = dict.fromkeys(e.labels, 0.0) | dict(zip(live, c[b].tolist()))
            stages.append((conf, live, q, shaping[b], (vals[b], vecs[b]), complements))
        return stages

    return qcore._cached_batch(ensembles, "mcm.stage", compute)


def confidences(e: Ensemble) -> dict[int, float]:
    """``C_x`` for every label (0 for a zero prior): the first stage of
    :func:`solve_mcm`, with all its checks, cached on the ensemble."""
    return dict(_first_stage([e])[0][0])


def _solve(e: Ensemble) -> dict[int, McmEntry]:
    """Entries for every label, built on the cached first stage: the
    complement states and the back-mapped bases of the optimal subspaces."""
    _, live, q, shaping, (vals, vecs), complements = _first_stage([e])[0]
    entries = {
        x: McmEntry(label=x, confidence=0.0, degeneracy=0, basis=(), sigma=None, r=0.0, mu=0.0)
        for x in e.labels
        if x not in live
    }
    c = vals[:, 0]
    degs = (vals > (c - DEGENERACY_TOL * c)[:, None]).sum(axis=-1)
    r = c - q
    kept = r > R_ZERO_TOL
    sigmas: list[DensityMatrix | None] = [None] * len(live)
    if kept.any():
        # clip the float dust so a small r cannot blow it past the state validator
        rvals, rvecs = complements
        clipped = np.clip(rvals, 0.0, None)
        mats = (rvecs * clipped[:, None, :]) @ qcore._adjoint(rvecs)
        traces = np.real(np.trace(mats, axis1=-2, axis2=-1))
        # their spectra are clipped / tr, nonnegative: no eigvalsh to check it
        stack = DensityMatrix.stack(mats / traces[:, None, None], clipped[:, -1] / traces)
        for i, sigma in zip(np.flatnonzero(kept), stack):
            sigmas[i] = sigma
    # the top eigenvectors of every label, mapped back through rho^(-1/2)
    # as one stack of matrix-vector products (a matrix-matrix product, like
    # a norm over an axis, rounds differently from the one-vector call)
    owner = np.repeat(np.arange(len(live)), degs)
    top = vecs[owner, :, np.concatenate([np.arange(n) for n in degs])]
    phis = (shaping @ top[:, :, None])[:, :, 0]
    # |rho^(-1/2) v| >= 1 for a unit v in the support, so no norm is 0
    norms = np.array([float(np.linalg.norm(phi)) for phi in phis])
    unit = fix_phase(phis / norms[:, None])
    unit.setflags(write=False)
    bounds = np.searchsorted(owner, np.arange(len(live) + 1))
    for i, x in enumerate(live):
        ci = float(c[i])
        entries[x] = McmEntry(
            label=x,
            confidence=ci,
            degeneracy=int(degs[i]),
            basis=tuple(unit[bounds[i] : bounds[i + 1]]),
            sigma=sigmas[i],
            r=float(r[i]) if kept[i] else 0.0,
            mu=e.prior(x) / ci,
        )
    return {x: entries[x] for x in e.labels}


def max_confidence(e: Ensemble, x: int) -> McmEntry:
    """Label ``x``'s entry of the ensemble's :func:`solve_mcm` solution.

    Returns the full :class:`McmEntry`.  A zero-prior label gets
    ``C_x = 0`` with an empty basis.  If any state leaks outside the
    support of the ensemble average (possible only when the rank cutoff
    :data:`seqmcm.qcore.RANK_TOL` truncates the part of the average that
    carries it), :class:`SupportError` is raised rather than reporting a
    spuriously finite value.
    """
    if x not in e.labels:
        raise ValueError(f"label {x} not in 1..{e.n}")
    return solve_mcm(e)[x]


def solve_mcm(e: Ensemble) -> dict[int, McmEntry]:
    """Maximum-confidence solutions for every label of the ensemble.

    Solved once per ensemble; later calls return a fresh dict of the same
    (immutable) entries."""
    return dict(e.cached("mcm.solution", lambda: _solve(e)))


def optimal_projectors(e: Ensemble) -> dict[int, np.ndarray]:
    """Each label's :attr:`McmEntry.projector`; zero-prior labels are omitted."""
    return {x: entry.projector for x, entry in solve_mcm(e).items() if entry.basis}


def mcm_povm(e: Ensemble, weights: dict[int, float]) -> Povm:
    """Assemble the POVM ``M_x = a_x P_x`` from per-label weights.

    ``P_x`` is the orthogonal projector onto the span of the optimal basis
    vectors for label ``x`` (rank one in the non-degenerate case).  The
    inconclusive element is ``M_0 = 1 - sum_x M_x``; callers are expected
    to validate the result, since arbitrary weights need not be feasible.
    """
    projectors = optimal_projectors(e)
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


def verify_kkt(e: Ensemble, povm: Povm) -> KktReport:
    """Check both optimality conditions for each conclusive POVM label,
    each within :data:`KKT_TOL`."""
    entries = solve_mcm(e)
    rho = e.average().mat
    residuals = []
    slackness: dict[int, float] = {}
    for x in povm.labels:
        entry = entries[x]
        comp = entry.r * entry.sigma.mat if entry.sigma is not None else 0.0
        residuals.append(entry.confidence * rho - e.prior(x) * e.state(x).mat - comp)
        if entry.sigma is not None:
            overlap = float(np.real(np.trace(entry.sigma.mat @ povm.elements[x])))
            slackness[x] = abs(entry.r * overlap)
        else:
            slackness[x] = 0.0
    # one stacked SVD gives each label's singular values as one call per label does
    norms = np.linalg.svd(np.stack(residuals), compute_uv=False).sum(-1)
    stability = dict(zip(povm.labels, norms.tolist()))
    ok = all(v <= KKT_TOL for v in stability.values()) and all(
        v <= KKT_TOL for v in slackness.values()
    )
    return KktReport(stability=stability, slackness=slackness, tol=KKT_TOL, ok=ok)


# ---------------------------------------------------------------------------
# entropy connections
# ---------------------------------------------------------------------------


def max_relative_entropy(rho: Any, sigma: Any) -> float:
    """Max-relative entropy ``Dmax(rho || sigma)`` in bits.

    ``Dmax = log2 lambda_max( sigma^(-1/2) rho sigma^(-1/2) )`` when the
    support of ``rho`` lies inside the support of ``sigma``; otherwise the
    divergence is infinite and ``math.inf`` is returned.
    """
    r = require_hermitian(as_matrix(rho, "rho"), "rho")
    s, proj, _ = support_factors(as_matrix(sigma, "sigma"))
    leak = float(np.real(np.trace(r @ (np.eye(r.shape[0]) - proj))))
    if leak > SUPPORT_TOL:
        return math.inf
    shaped = s @ r @ s
    top = float(np.linalg.eigvalsh(0.5 * (shaped + shaped.conj().T))[-1])
    if top <= 0.0:
        return -math.inf
    return math.log2(top)


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
