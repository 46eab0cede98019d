"""Core linear algebra, state/measurement containers, and serialization.

Conventions used throughout the package
---------------------------------------

* Everything is finite-dimensional and small: dimensions are capped at
  ``DIM_CAP = 8``.  The solvers in this package are dense-eigensolver
  based and make no attempt to scale beyond that.
* **Trace norm carries no 1/2 factor.**  ``trace_norm(rho - sigma)``
  returns ``|| rho - sigma ||_1 = sum of singular values``, so two
  orthogonal pure states are at distance 2, not 1.  Quantities derived
  from it (ensemble disturbance, distinguishability lower bounds) follow
  the same convention.
* Eigendecompositions are returned in **descending** eigenvalue order,
  and every eigenvector is phase-fixed so that its first component of
  magnitude above ``PHASE_TOL`` is real and positive.  This makes
  degenerate-subspace bases reproducible across runs and platforms.
* **Per-ensemble work runs on stacks.**  :func:`eig_hermitian` takes one
  matrix or a ``(..., d, d)`` stack and makes one Hermiticity check and
  one ``eigh`` call for all of it; :func:`validate_states` checks a stack
  of density matrices with one ``eigvalsh`` call.  At ``d <= 8`` the cost
  of a call is mostly Python and wrapper overhead, so one call per
  ensemble instead of one per state is the saving.  The one-matrix calls
  are the stack-of-one case of the same code.  The same holds one level up:
  a chain's ensembles are averaged and eigensolved as one stack
  (:func:`_average_spectra`), and one ensemble is the batch of one.  A
  batch that raises caches nothing (:func:`_cached_batch`), and
  :func:`seqmcm.seqchan._checked_stages` decides which error a chain
  reports.  LAPACK solves each slice of a stack as it solves the matrix
  alone, and ``tests/test_stacked.py`` checks that stacked and
  one-at-a-time results agree bit for bit.
* **Each matrix is checked once.**  The public functions that take a
  caller's matrix check it: :func:`eig_hermitian`, :func:`support_factors`
  and :func:`sqrt_psd` raise :class:`NotHermitianError` above
  :data:`HERM_TOL`, and :func:`validate_states` checks every state and
  channel image.  That covers input read from outside and the results of
  arithmetic that can break Hermiticity, such as ``1 - sum_x M_x`` or a
  product ``K rho K^dag``.  The private kernel ``_eigh_descending`` takes
  only matrices that are exactly Hermitian by construction, where the
  check could never fire: ``0.5 (A + A^dag)`` (its ``(i, j)`` and
  ``(j, i)`` entries are the same two numbers added in either order, so
  they are exact conjugates), a validated state (stored in that form), and
  a real-weighted sum of validated states such as the ensemble average
  (scaling by a real and adding in the same order keep conjugate pairs
  exact).  The maximum-confidence solve feeds it only such matrices.
  States whose spectrum is known, the ensemble average (from the
  eigensolve that factors it) and the complement states (from the clipped
  spectrum they are built from), are validated against it in place of an
  ``eigvalsh``; their finiteness, Hermiticity and trace are still checked.
* Matrices serialize to JSON as ``{"dim": d, "entries": [[re, im], ...]}``
  with the ``d*d`` entries flattened in row-major order; the entries list
  is an :class:`_Entries`, to every reader a plain list.  :func:`json_text`
  writes the indented, key-sorted text that ``json.dumps(obj,
  sort_keys=True, indent=2)`` writes, byte for byte, in one pass: text
  pieces with a NUL in place of each float, the floats spelled in one
  ``map`` and put in place by one ``split`` and ``join``, and each such
  matrix or vector object written from a template cached per indent and
  size.

All tolerances live in module-level constants so tests and callers pin
the same numbers the validators use.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
from dataclasses import dataclass
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, Sequence, TypeVar

import numpy as np

_T = TypeVar("_T")

# ---------------------------------------------------------------------------
# tolerances and caps
# ---------------------------------------------------------------------------

DIM_CAP = 8
"""Largest Hilbert-space dimension the package accepts."""

HERM_TOL = 1e-12
"""Maximum allowed |A - A^dag| entry for matrices declared Hermitian."""

PSD_TOL = 1e-10
"""Eigenvalues above -PSD_TOL count as nonnegative."""

TRACE_TOL = 1e-10
"""Allowed deviation of a density matrix trace from 1."""

PRIOR_TOL = 1e-12
"""Allowed deviation of a prior vector sum from 1."""

POVM_TOL = 1e-10
"""PSD margin and completeness residual allowed for a valid POVM."""

RANK_TOL = 1e-10
"""Default relative eigenvalue cutoff for support / pseudoinverse decisions."""

PHASE_TOL = 1e-12
"""Components smaller than this (relative) are skipped when phase-fixing."""

SQRT_ZERO_TOL = 1e-14
"""Eigenvalues at or below this (absolute) are exact zeros in :func:`sqrt_psd`:
the rounding level of a unit-scale operator such as ``1 - sum_x M_x``."""


class FeasibilityError(ValueError):
    """Base class for "the numbers you asked for are not achievable" errors
    (infeasible gains, rates below the family floor, ...), so sequence
    runners can tell them apart from programming errors."""


class NotHermitianError(ValueError):
    """Raised when an operation requiring a Hermitian matrix receives one
    whose asymmetry exceeds :data:`HERM_TOL`."""


class DimensionError(ValueError):
    """Raised for shape mismatches or dimensions above :data:`DIM_CAP`."""


# ---------------------------------------------------------------------------
# coercion helpers
# ---------------------------------------------------------------------------


def _as_stack(a: Any, name: str) -> np.ndarray:
    """Coerce ``a`` to a complex ``(..., d, d)`` stack within the dimension cap."""
    if hasattr(a, "mat"):
        a = a.mat
    arr = np.asarray(a, dtype=complex)
    if arr.ndim < 2 or arr.shape[-1] != arr.shape[-2]:
        raise DimensionError(f"{name} must be square, got shape {arr.shape}")
    if arr.shape[-1] > DIM_CAP:
        raise DimensionError(
            f"{name} has dimension {arr.shape[-1]}, above the cap {DIM_CAP}"
        )
    return arr


def as_matrix(a: Any, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` to a square complex ndarray within the dimension cap.

    Accepts ndarrays, nested sequences, and the container types below
    (anything with a ``.mat`` attribute).
    """
    arr = _as_stack(a, name)
    if arr.ndim != 2:
        raise DimensionError(f"{name} must be square, got shape {arr.shape}")
    return arr


def as_vector(v: Any, name: str = "vector") -> np.ndarray:
    """Coerce ``v`` to a 1-d complex ndarray within the dimension cap."""
    if hasattr(v, "vec"):
        v = v.vec
    arr = np.asarray(v, dtype=complex).reshape(-1)
    if arr.size > DIM_CAP:
        raise DimensionError(f"{name} has dimension {arr.size}, above the cap {DIM_CAP}")
    return arr


def _operator_stack(ops: Sequence[Any]) -> np.ndarray | None:
    """``ops``, each coerced as :func:`as_matrix` coerces it, as one read-only
    ``(n, d, d)`` stack; ``None`` when they form none (no operator, one that
    is not a square matrix within the cap, or mixed dimensions), where the
    caller coerces them one at a time to word the error."""
    try:
        stack = _as_stack([op.mat if hasattr(op, "mat") else op for op in ops], "operator")
    except (TypeError, ValueError, ArithmeticError):  # ragged, not numbers, not square
        return None
    if stack.ndim != 3:
        return None
    stack.setflags(write=False)  # a fresh copy: asarray of a list copies every operator
    return stack


def _adjoint(a: np.ndarray) -> np.ndarray:
    """``A^dag`` of every matrix of a ``(..., d, d)`` stack."""
    return a.conj().swapaxes(-1, -2)


def hermitian_defect(a: np.ndarray) -> float:
    """Largest entrywise magnitude of ``A - A^dag`` over a matrix or a stack."""
    return float(np.abs(a - _adjoint(a)).max()) if a.size else 0.0


def require_hermitian(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Return the symmetrized matrix (or stack), raising if the defect is
    above tolerance."""
    defect = hermitian_defect(a)
    if defect > HERM_TOL:
        raise NotHermitianError(
            f"{name} is not Hermitian: max |A - A^dag| entry = {defect:.3e}"
        )
    return 0.5 * (a + _adjoint(a))


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=complex)
    out.setflags(write=False)
    return out


# ---------------------------------------------------------------------------
# eigen machinery
# ---------------------------------------------------------------------------


def fix_phase(v: np.ndarray) -> np.ndarray:
    """Rotate a global phase so the first non-negligible component is real > 0.

    "Non-negligible" means magnitude above ``PHASE_TOL * max |v_i|``.  The
    zero vector is returned unchanged.  A ``(..., d)`` stack of vectors is
    fixed vector by vector.
    """
    w = np.asarray(v, dtype=complex)
    if not w.size:
        return w
    flat = w.reshape(-1, w.shape[-1])
    mag = np.abs(flat)
    lead = (mag > PHASE_TOL * mag.max(axis=1, keepdims=True)).argmax(axis=1)
    # abs(c) / c on numpy scalars, one vector at a time.  np.abs of a complex
    # array rounds differently in the last bit from the scalar abs (which is
    # np.hypot of the parts; np.hypot(c.real, c.imag) / c gives these bits),
    # but below about 12 vectors the array form is no faster than this loop
    factors = [abs(c) / c if c else 1.0 for c in flat[np.arange(len(flat)), lead]]
    return (flat * np.array(factors, dtype=complex)[:, None]).reshape(w.shape)


def _eigh_descending(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`eig_hermitian` without its check, for a ``(..., d, d)`` stack
    that is exactly Hermitian by construction (see the module docstring)."""
    vals, vecs = np.linalg.eigh(h)
    # eigh's values ascend, so a reversal orders tied values as a one-matrix
    # descending argsort does
    rows = fix_phase(vecs.swapaxes(-1, -2)[..., ::-1, :])  # eigenvectors as rows
    return np.ascontiguousarray(vals[..., ::-1]), np.ascontiguousarray(rows.swapaxes(-1, -2))


def eig_hermitian(a: Any, name: str = "matrix") -> tuple[np.ndarray, np.ndarray]:
    """Eigendecompositions of a Hermitian matrix or a ``(..., d, d)`` stack of
    them, descending and phase-fixed, from one ``eigh`` call.

    Returns ``(vals, vecs)`` with ``vals[..., :]`` sorted descending and
    ``vecs[..., :, i]`` the orthonormal eigenvector for ``vals[..., i]``,
    each phase-fixed by :func:`fix_phase`.  Raises
    :class:`NotHermitianError` (naming the max asymmetry over the stack)
    for non-Hermitian input.
    """
    return _eigh_descending(require_hermitian(_as_stack(a, name), name))


def _support_factors(vals: np.ndarray, vecs: np.ndarray) -> tuple[np.ndarray, np.ndarray, Any]:
    """:func:`support_factors` from the descending eigensolve of a matrix, or
    of each matrix of a stack (then the ranks are an array)."""
    keep = vals > RANK_TOL * np.maximum(vals[..., :1], 0.0)  # nothing kept when the top is <= 0
    inv = np.zeros_like(vals)
    inv[keep] = 1.0 / np.sqrt(vals[keep])
    support = (vecs * keep[..., None, :]) @ _adjoint(vecs)
    return (vecs * inv[..., None, :]) @ _adjoint(vecs), support, keep.sum(axis=-1)


def support_factors(a: Any) -> tuple[np.ndarray, np.ndarray, int]:
    """Inverse square root, support projector and rank of a PSD matrix,
    all from one eigensolve.

    Eigenvalues at or below :data:`RANK_TOL` times the largest are truncated
    (treated as exact zeros); the inverse square root acts as ``A^(-1/2)``
    on the support and as 0 on the kernel.
    """
    inv_sqrt, support, rank = _support_factors(*eig_hermitian(as_matrix(a)))
    return inv_sqrt, support, int(rank)


def sqrt_psd(a: Any) -> np.ndarray:
    """Positive square root of a unit-scale PSD matrix.  Eigenvalues at or
    below the absolute :data:`SQRT_ZERO_TOL` are zeros (not ``sqrt(eps)``):
    a cutoff relative to the largest would keep an all-rounding matrix."""
    vals, vecs = eig_hermitian(a)
    clipped = np.where(vals > SQRT_ZERO_TOL, vals, 0.0)
    return (vecs * np.sqrt(clipped)) @ vecs.conj().T


def trace_norm(a: Any) -> float:
    """Sum of singular values of ``a`` (Schatten 1-norm, no 1/2 factor)."""
    arr = as_matrix(a)
    return float(np.sum(np.linalg.svd(arr, compute_uv=False)))


def purity(rho: Any) -> float:
    """``tr[rho^2]`` of a state."""
    r = as_matrix(rho, "rho")
    return float(np.real(np.trace(r @ r)))


# ---------------------------------------------------------------------------
# qubit Bloch helpers
# ---------------------------------------------------------------------------


def bloch_vector(rho: Any) -> np.ndarray:
    """Bloch vector ``(tr[rho X], tr[rho Y], tr[rho Z])`` of a qubit state."""
    r = as_matrix(rho, "rho")
    if r.shape[0] != 2:
        raise DimensionError("Bloch coordinates are only defined for qubits")
    return np.array(
        [
            2.0 * np.real(r[0, 1]),
            2.0 * np.imag(r[1, 0]),
            np.real(r[0, 0] - r[1, 1]),
        ]
    )


def density_from_bloch(r: Sequence[float]) -> "DensityMatrix":
    """Qubit state ``(1 + r . sigma)/2``; vectors with ``|r| > 1`` are rejected."""
    return DensityMatrix(_bloch_matrix(r))


def _bloch_matrix(r: Sequence[float]) -> np.ndarray:
    """The matrix of :func:`density_from_bloch`, not yet validated."""
    v = np.asarray(r, dtype=float).reshape(-1)
    if v.size != 3:
        raise DimensionError("a Bloch vector has exactly 3 components")
    norm = float(np.linalg.norm(v))
    if norm > 1.0 + 1e-12:
        raise ValueError(f"Bloch vector norm {norm:.12f} exceeds 1: not a state")
    x, y, z = (float(c) for c in v)
    return 0.5 * np.array([[1.0 + z, x - 1j * y], [x + 1j * y, 1.0 - z]], dtype=complex)


# ---------------------------------------------------------------------------
# value types
# ---------------------------------------------------------------------------


def validate_states(mats: Any, lowest: np.ndarray | None = None) -> np.ndarray:
    """The Hermitian parts of a ``(..., d, d)`` stack of density matrices,
    read-only, after one validation pass over the whole stack.

    Every entry must be finite; then each state must be Hermitian within
    :data:`HERM_TOL`, of unit trace within :data:`TRACE_TOL` and positive
    within :data:`PSD_TOL` (one ``eigvalsh`` call for the stack), checked in
    that order.  The error raised is the first failed check of the first
    state that fails one.  ``lowest`` gives each state's smallest eigenvalue
    when the caller built the states from their spectra; the positivity
    check then reads it in place of the ``eigvalsh`` call.
    """
    m = _as_stack(mats, "density matrix")
    if not np.isfinite(m).all():  # NaN passes every comparison below
        raise ValueError("density matrix has a non-finite entry")
    adj = _adjoint(m)
    defect = np.abs(m - adj).max(axis=(-2, -1)).reshape(-1)
    h = 0.5 * (m + adj)
    h.setflags(write=False)
    tr = h.trace(axis1=-2, axis2=-1).real.reshape(-1)
    if lowest is None:
        lowest = np.linalg.eigvalsh(h)[..., 0]
    low = np.reshape(lowest, -1)
    failed = (defect > HERM_TOL) | (np.abs(tr - 1.0) > TRACE_TOL) | (low < -PSD_TOL)
    if failed.any():
        i = int(np.argmax(failed))
        if defect[i] > HERM_TOL:
            raise NotHermitianError(
                f"density matrix is not Hermitian: max |A - A^dag| entry = {defect[i]:.3e}"
            )
        if abs(tr[i] - 1.0) > TRACE_TOL:
            raise ValueError(f"density matrix trace = {float(tr[i])!r}, expected 1")
        raise ValueError(f"density matrix has eigenvalue {low[i]:.3e} < 0")
    return h


@dataclass(frozen=True)
class DensityMatrix:
    """A validated density matrix.

    Construction symmetrizes the input and enforces finite entries,
    Hermiticity within :data:`HERM_TOL`, positivity within :data:`PSD_TOL`,
    and unit trace within :data:`TRACE_TOL` (:func:`validate_states`).
    The stored array is read-only.
    """

    mat: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "mat", validate_states(as_matrix(self.mat, "density matrix")))

    def __setstate__(self, state: dict) -> None:
        vars(self).update(state)
        self.mat.setflags(write=False)  # pickle restores arrays writeable

    @classmethod
    def stack(cls, mats: Any, lowest: np.ndarray | None = None) -> tuple[DensityMatrix, ...]:
        """One state per matrix of a ``(n, d, d)`` stack, validated together
        by one :func:`validate_states` pass (``lowest`` as there)."""
        states = []
        for m in validate_states(mats, lowest=lowest):
            state = object.__new__(cls)
            object.__setattr__(state, "mat", m)
            states.append(state)
        return tuple(states)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def purity(self) -> float:
        return purity(self.mat)

    def bloch(self) -> np.ndarray:
        return bloch_vector(self.mat)


@dataclass(frozen=True)
class PureState:
    """A unit vector; ``density()`` gives the corresponding projector."""

    vec: np.ndarray

    def __post_init__(self) -> None:
        v = as_vector(self.vec, "pure state")
        norm = float(np.linalg.norm(v))
        if abs(norm - 1.0) > PSD_TOL:
            raise ValueError(f"pure state norm = {norm!r}, expected 1")
        object.__setattr__(self, "vec", _frozen(v / norm))

    @property
    def dim(self) -> int:
        return self.vec.size

    def density(self) -> DensityMatrix:
        return DensityMatrix(np.outer(self.vec, self.vec.conj()))


@dataclass(frozen=True)
class Ensemble:
    """States ``rho_x`` with priors ``q_x``, labels running 1..N.

    Priors must be nonnegative and sum to 1 within :data:`PRIOR_TOL`;
    all states must share one dimension.
    """

    priors: tuple[float, ...]
    states: tuple[DensityMatrix, ...]

    def __post_init__(self) -> None:
        priors = tuple(float(q) for q in self.priors)
        states = list(self.states)
        raw = {
            i: as_matrix(s, "density matrix")
            for i, s in enumerate(states)
            if not isinstance(s, DensityMatrix)
        }
        dims = {raw[i].shape[0] if i in raw else s.dim for i, s in enumerate(states)}
        if len(dims) > 1:
            raise DimensionError(f"states have mixed dimensions {sorted(dims)}")
        if raw:  # validated as one stack
            for i, state in zip(raw, DensityMatrix.stack(list(raw.values()))):
                states[i] = state
        if len(priors) != len(states) or not priors:
            raise ValueError("need one prior per state, at least one of each")
        for q in priors:
            if not math.isfinite(q):
                raise ValueError(f"non-finite prior: {q!r}")
        if min(priors) < 0.0:
            raise ValueError(f"negative prior: {min(priors)!r}")
        total = math.fsum(priors)
        if abs(total - 1.0) > PRIOR_TOL:
            raise ValueError(f"priors sum to {total!r}, expected 1")
        object.__setattr__(self, "priors", priors)
        object.__setattr__(self, "states", tuple(states))
        # values derived from this ensemble, keyed by what they are; see cached()
        object.__setattr__(self, "_memo", {})

    def __getstate__(self) -> dict:
        # the memo is derived from the frozen fields, so a copy rebuilds its own
        return {"priors": self.priors, "states": self.states}

    def __setstate__(self, state: dict) -> None:
        vars(self).update(state, _memo={})

    @property
    def n(self) -> int:
        return len(self.priors)

    @property
    def dim(self) -> int:
        return self.states[0].dim

    @property
    def labels(self) -> range:
        return range(1, self.n + 1)

    def state(self, label: int) -> DensityMatrix:
        return self.states[label - 1]

    def prior(self, label: int) -> float:
        return self.priors[label - 1]

    def cached(self, key: str, compute: Callable[[], _T]) -> _T:
        """``compute()`` once per ensemble and ``key``: a batch of one of
        :func:`_cached_batch`.

        The fields are frozen and the state arrays read-only, so a value
        derived from them can never go stale.  Store only values that the
        receiver cannot mutate, or hand out copies.  Threads racing on a
        first call may each compute the value; all of them get an equal one.
        """
        return _cached_batch([self], key, lambda _: [compute()])[0]

    def average(self) -> DensityMatrix:
        """The prior-weighted average state ``sum_x q_x rho_x``: the batch of
        one of :func:`_average_spectra`."""
        return _average_spectra([self])[0][0]


def _cached_batch(
    ensembles: Sequence[Ensemble], key: str, compute: Callable[[list[Ensemble]], list[_T]]
) -> list[_T]:
    """:meth:`Ensemble.cached` over a batch: the value of each ensemble under
    ``key``.  ``compute`` maps a list of ensembles to their values, in order.
    Those with no value yet are computed as one batch; if it raises, nothing
    is stored."""
    missing = [e for e in ensembles if key not in e._memo]
    if missing:
        for e, value in zip(missing, compute(missing)):
            e._memo[key] = value
    return [e._memo[key] for e in ensembles]


def _average_spectra(
    ensembles: Sequence[Ensemble],
) -> list[tuple[DensityMatrix, np.ndarray, np.ndarray]]:
    """Each ensemble's average and its descending eigensolve, read-only,
    which validates it; cached as :func:`_cached_batch` caches.  Those not
    yet cached, which must share a state count and a dimension (a chain's
    do), are averaged, eigensolved and validated as one stack."""

    def compute(es: list[Ensemble]) -> list[tuple]:
        q = np.array([e.priors for e in es])[..., None, None]
        states = np.array([[s.mat for s in e.states] for e in es])
        m = sum(q[:, i] * states[:, i] for i in range(states.shape[1]))
        vals, vecs = _eigh_descending(m)
        vals.setflags(write=False)
        vecs.setflags(write=False)
        return list(zip(DensityMatrix.stack(m, lowest=vals[:, -1]), vals, vecs))

    return _cached_batch(ensembles, "average", compute)


@dataclass(frozen=True)
class Povm:
    """POVM with integer-labelled conclusive elements and an inconclusive one.

    ``elements`` maps label -> operator for the conclusive outcomes
    (labels 1..N by convention); ``inconclusive`` is the label-0 element,
    a zero matrix for a complete conclusive POVM.  This is a plain
    container: use :func:`validate_povm` for the PSD/completeness report,
    since invalid candidates must remain representable.  The operators are
    coerced and copied as one frozen ``(N + 1, d, d)`` stack, inconclusive
    last, and each stored operator is a read-only view of it.
    """

    elements: dict[int, np.ndarray]
    inconclusive: np.ndarray

    def __post_init__(self) -> None:
        stack = _operator_stack([*self.elements.values(), self.inconclusive])
        if stack is None:  # the one-operator coercions word the error
            elems = {int(k): as_matrix(v, f"element {k}") for k, v in self.elements.items()}
        else:
            elems = dict(zip((int(k) for k in self.elements), stack))
        if not elems:
            raise ValueError("a POVM needs at least one conclusive element")
        if 0 in elems:
            raise ValueError("label 0 is reserved for the inconclusive element")
        if stack is None:  # square and within the cap one by one: they cannot stack
            inc = as_matrix(self.inconclusive, "inconclusive element")
            dims = sorted({m.shape[0] for m in [*elems.values(), inc]})
            raise DimensionError(f"POVM elements have mixed dimensions {dims}")
        object.__setattr__(self, "elements", elems)
        object.__setattr__(self, "inconclusive", stack[-1])

    @property
    def dim(self) -> int:
        return next(iter(self.elements.values())).shape[0]

    @property
    def labels(self) -> list[int]:
        return sorted(self.elements)

    def all_operators(self) -> list[tuple[int, np.ndarray]]:
        """(label, operator) pairs, inconclusive (label 0) last."""
        return [(k, self.elements[k]) for k in self.labels] + [(0, self.inconclusive)]

    def total(self) -> np.ndarray:
        return sum(op for _, op in self.all_operators())


@dataclass(frozen=True)
class PovmReport:
    """Validation report for a POVM candidate: per-label PSD margins
    (smallest eigenvalue, so valid elements show values >= -POVM_TOL) and
    the completeness residual ``max |sum_i M_i - 1|``."""

    ok: bool
    psd_margins: dict[int, float]
    completeness_residual: float


def validate_povm(povm: Povm) -> PovmReport:
    """Check PSD-ness of every element and completeness ``sum_i M_i = 1``.

    Passes iff every element's smallest eigenvalue is >= ``-POVM_TOL`` and
    the completeness residual is <= :data:`POVM_TOL`.
    """
    margins: dict[int, float] = {}
    for label, op in povm.all_operators():
        h = 0.5 * (op + op.conj().T)
        margins[label] = float(np.min(np.linalg.eigvalsh(h)))
    residual = float(np.max(np.abs(povm.total() - np.eye(povm.dim))))
    ok = residual <= POVM_TOL and all(m >= -POVM_TOL for m in margins.values())
    return PovmReport(ok=ok, psd_margins=margins, completeness_residual=residual)


# ---------------------------------------------------------------------------
# JSON and CSV serialization
# ---------------------------------------------------------------------------


class _Entries(list):
    """The ``[[re, im], ...]`` float pairs of :func:`_pairs`: a plain list to
    every reader; its type tells :func:`json_text` that each item is a pair
    of floats."""

    __slots__ = ()


def _pairs(arr: np.ndarray) -> _Entries:
    """``[[re, im], ...]`` of the entries of ``arr`` in row-major order."""
    return _Entries(np.ascontiguousarray(arr).view(np.float64).reshape(-1, 2).tolist())


def matrix_to_json(a: Any) -> dict[str, Any]:
    """Encode a matrix as ``{"dim": d, "entries": [[re, im], ...]}`` row-major."""
    arr = as_matrix(a)
    return {"dim": int(arr.shape[0]), "entries": _pairs(arr)}


def _array_from_json(obj: dict[str, Any], kind: str, ndim: int) -> np.ndarray:
    """The vector (``ndim`` 1) or matrix (2) of a ``{"dim": d, "entries": ...}``
    object, with ``d`` in ``1..DIM_CAP`` and ``d**ndim`` entries."""
    try:
        dim = int(obj["dim"])
        entries = obj["entries"]
    except (KeyError, TypeError, OverflowError) as exc:  # int(inf) overflows
        raise ValueError(f"malformed {kind} object: {exc}") from exc
    if isinstance(obj["dim"], bool) or dim != obj["dim"]:  # int() reads 2.5 as 2, true as 1
        raise ValueError(f"{kind} dim must be an integer, got {obj['dim']!r}")
    if dim < 1 or dim > DIM_CAP:
        raise DimensionError(f"{kind} dim {dim} outside 1..{DIM_CAP}")
    if len(entries) != dim**ndim:
        raise ValueError(f"expected {dim**ndim} entries, got {len(entries)}")
    # complex(True, False) is 1: a boolean entry is left out here and the
    # count below rejects it
    flat = [complex(re, im) for re, im in entries if type(re) is not bool and type(im) is not bool]
    if len(flat) != len(entries):
        raise ValueError(f"{kind} entries must be numbers, not booleans")
    return np.array(flat, dtype=complex).reshape((dim,) * ndim)


def matrix_from_json(obj: dict[str, Any]) -> np.ndarray:
    """Inverse of :func:`matrix_to_json`; validates shape consistency."""
    return _array_from_json(obj, "matrix", 2)


def vector_to_json(v: Any) -> dict[str, Any]:
    arr = as_vector(v)
    return {"dim": int(arr.size), "entries": _pairs(arr)}


def ensemble_to_json(e: Ensemble) -> dict[str, Any]:
    return {
        "priors": [float(q) for q in e.priors],
        "states": [matrix_to_json(s.mat) for s in e.states],
    }


def ensemble_from_json(obj: dict[str, Any]) -> Ensemble:
    try:
        priors = obj["priors"]
        states = obj["states"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed ensemble object: {exc}") from exc
    for q in priors:
        if isinstance(q, bool):  # float(True) is 1.0
            raise ValueError(f"boolean prior: {q!r}")
    # raw matrices: the ensemble validates them as one stack
    return Ensemble(
        priors=tuple(float(q) for q in priors),
        states=tuple(matrix_from_json(s) for s in states),
    )


def load_ensemble(path: str) -> Ensemble:
    """Read an ensemble from a JSON file (see :func:`ensemble_to_json`)."""
    with open(path, "r", encoding="utf-8") as fh:
        return ensemble_from_json(json.load(fh))


def povm_to_json(p: Povm) -> dict[str, Any]:
    return {
        "elements": {str(k): matrix_to_json(v) for k, v in sorted(p.elements.items())},
        "inconclusive": matrix_to_json(p.inconclusive),
    }


def _scalar_json(o: Any) -> str:
    """A string, ``None``, bool, int or float as ``json`` writes it."""
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if type(o) is int:  # the common case, without the call into json
        return int.__repr__(o)
    if o is None or isinstance(o, (int, float)):  # bools are ints
        return json.dumps(o)
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _key_json(key: Any) -> str:
    """A dict key as ``json`` writes it: a string, or a scalar's text quoted."""
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    if key is None or isinstance(key, (int, float)):
        return '"' + _scalar_json(key) + '"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


@functools.cache
def _entries_object(pad: str, dim: int, n: int) -> str:
    """The text of a ``{"dim": dim, "entries": [[re, im], ...]}`` object of
    ``n > 0`` pairs whose lines after the first start with ``pad``, with a NUL
    in place of each float."""
    inner, cell = pad + "  ", pad + "      "
    pair = inner + "  [" + cell + "\0," + cell + "\0" + inner + "  ]"
    return ("{" + inner + '"dim": ' + int.__repr__(dim) + "," + inner + '"entries": ['
            + ",".join([pair] * n) + inner + "]" + pad + "}")


def _walk(o: Any, pad: str, out: list[str], floats: list[float]) -> None:
    """Append the text of ``o``, whose lines after the first start with
    ``pad``, to ``out``, with a NUL in place of each float and the float
    appended to ``floats``.  The commonest types come first."""
    if isinstance(o, float):
        out.append("\0")
        floats.append(o)
    elif isinstance(o, dict):
        entries, dim = o.get("entries"), o.get("dim")
        if type(entries) is _Entries and entries and type(dim) is int and len(o) == 2:
            out.append(_entries_object(pad, dim, len(entries)))
            floats.extend(chain.from_iterable(entries))
            return
        inner = pad + "  "
        for i, (k, v) in enumerate(sorted(o.items())):
            out.append(("," if i else "{") + inner + _key_json(k) + ": ")
            _walk(v, inner, out, floats)
        out.append(pad + "}" if o else "{}")
    elif isinstance(o, (list, tuple)):
        inner = pad + "  "
        for i, v in enumerate(o):
            out.append(("," if i else "[") + inner)
            _walk(v, inner, out, floats)
        out.append(pad + "]" if o else "[]")
    else:
        out.append(_scalar_json(o))


def json_text(obj: Any) -> str:
    """Exactly ``json.dumps(obj, sort_keys=True, indent=2) + "\\n"``, in one
    pass instead of the pure-Python encoder that ``indent`` selects.

    The document is walked once (:func:`_walk`) into text pieces with a NUL
    in place of each float; no other NUL can occur, since strings and keys
    are ASCII-escaped.  The floats are spelled by one ``map`` of
    ``float.__repr__`` (of ``json.dumps`` if one is NaN or infinite) and put
    in place by one ``split`` and one ``join``.  An object of
    :func:`matrix_to_json` or :func:`vector_to_json`, whose entries are an
    :class:`_Entries`, is one piece, from a template cached per indent and
    size; any other pair list takes the general path.  Keys are sorted and
    then converted as ``json`` converts them.
    """
    out: list[str] = []
    floats: list[float] = []
    _walk(obj, "\n", out, floats)
    spell = float.__repr__ if math.isfinite(sum(floats)) else json.dumps  # finite sum, finite terms
    pieces = [""] * (2 * len(floats) + 1)
    pieces[::2] = "".join(out).split("\0")
    pieces[1::2] = map(spell, floats)
    return "".join(pieces) + "\n"


def _csv_cell(value: Any) -> str:
    """Deterministic cell text: empty for None, repr for floats, str otherwise."""
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))  # numpy scalars repr differently; unify
    return str(value)


def csv_text(header: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    """A header line, then one line per row; ``None`` cells are empty."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(list(header))
    for row in rows:
        writer.writerow([_csv_cell(v) for v in row])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# random instances (for property suites and the verify command)
# ---------------------------------------------------------------------------


def random_pure_state(rng: np.random.Generator, dim: int) -> PureState:
    """Haar-random pure state from a normalized complex Gaussian vector."""
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return PureState(v / np.linalg.norm(v))


def random_density(rng: np.random.Generator, dim: int, rank: int | None = None) -> DensityMatrix:
    """Random full- or fixed-rank density matrix via a Wishart construction."""
    k = dim if rank is None else max(1, min(rank, dim))
    g = rng.normal(size=(dim, k)) + 1j * rng.normal(size=(dim, k))
    w = g @ g.conj().T
    return DensityMatrix(w / np.real(np.trace(w)))


def random_ensemble(
    rng: np.random.Generator, dim: int, n: int, pure: bool = False
) -> Ensemble:
    """Random ensemble with Dirichlet-ish priors and Wishart (or pure) states.
    The Wishart states are one stack, validated together, drawn from the same
    numbers in the same order as ``n`` calls of :func:`random_density`."""
    raw = rng.random(n) + 0.1
    priors = tuple(float(q) for q in raw / math.fsum(raw))
    if pure:
        states = tuple(random_pure_state(rng, dim).density() for _ in range(n))
    else:
        z = rng.normal(size=(n, 2, dim, dim))
        g = z[:, 0] + 1j * z[:, 1]
        w = g @ _adjoint(g)
        states = DensityMatrix.stack(w / np.real(np.trace(w, axis1=-2, axis2=-1))[:, None, None])
    return Ensemble(priors=priors, states=states)
