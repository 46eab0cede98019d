"""Core linear algebra, state/measurement containers, and serialization.

Conventions used throughout the package
---------------------------------------

* Everything is finite-dimensional and small: dimensions are capped at
  ``DIM_CAP = 8``.  The solvers in this package are dense-eigensolver
  based and make no attempt to scale beyond that.
* **Trace norm carries no 1/2 factor.**  ``trace_norm_distance(rho, sigma)``
  returns ``|| rho - sigma ||_1 = sum of singular values``, so two
  orthogonal pure states are at distance 2, not 1.  Quantities derived
  from it (ensemble disturbance, distinguishability lower bounds) follow
  the same convention.
* Eigendecompositions are returned in **descending** eigenvalue order,
  and every eigenvector is phase-fixed so that its first component of
  magnitude above ``PHASE_TOL`` is real and positive.  This makes
  degenerate-subspace bases reproducible across runs and platforms.
* Matrices serialize to JSON as ``{"dim": d, "entries": [[re, im], ...]}``
  with the ``d*d`` entries flattened in row-major order.

All tolerances live in module-level constants so tests and callers pin
the same numbers the validators use.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
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


def as_matrix(a: Any, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` to a square complex ndarray within the dimension cap.

    Accepts ndarrays, nested sequences, and the container types below
    (anything with a ``.mat`` attribute).
    """
    if hasattr(a, "mat"):
        a = a.mat
    arr = np.asarray(a, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {arr.shape}")
    if arr.shape[0] > DIM_CAP:
        raise DimensionError(
            f"{name} has dimension {arr.shape[0]}, above the cap {DIM_CAP}"
        )
    return arr


def as_vector(v: Any, name: str = "vector") -> np.ndarray:
    """Coerce ``v`` to a 1-d complex ndarray within the dimension cap."""
    if hasattr(v, "vec"):
        v = v.vec
    arr = np.asarray(v, dtype=complex).reshape(-1)
    if arr.size > DIM_CAP:
        raise DimensionError(f"{name} has dimension {arr.size}, above the cap {DIM_CAP}")
    return arr


def hermitian_defect(a: np.ndarray) -> float:
    """Largest entrywise magnitude of ``A - A^dag``."""
    return float(np.max(np.abs(a - a.conj().T))) if a.size else 0.0


def require_hermitian(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Return the symmetrized matrix, raising if the defect is above tolerance."""
    defect = hermitian_defect(a)
    if defect > HERM_TOL:
        raise NotHermitianError(
            f"{name} is not Hermitian: max |A - A^dag| entry = {defect:.3e}"
        )
    return 0.5 * (a + a.conj().T)


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
    zero vector is returned unchanged.
    """
    w = np.asarray(v, dtype=complex)
    top = float(np.max(np.abs(w))) if w.size else 0.0
    if top == 0.0:
        return w
    for comp in w:
        if abs(comp) > PHASE_TOL * top:
            return w * (abs(comp) / comp)
    return w


def eig_hermitian(a: Any, name: str = "matrix") -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, descending and phase-fixed.

    Returns ``(vals, vecs)`` with ``vals`` sorted descending and ``vecs[:, i]``
    the orthonormal eigenvector for ``vals[i]``, each phase-fixed via
    :func:`fix_phase`.  Raises :class:`NotHermitianError` (naming the max
    asymmetry) for non-Hermitian input.
    """
    h = require_hermitian(as_matrix(a, name), name)
    vals, vecs = np.linalg.eigh(h)
    order = np.argsort(vals)[::-1]
    vals = vals[order]
    vecs = vecs[:, order]
    for i in range(vecs.shape[1]):
        vecs[:, i] = fix_phase(vecs[:, i])
    return vals, vecs


def support_factors(a: Any, rank_tol: float = RANK_TOL) -> tuple[np.ndarray, np.ndarray, int]:
    """Inverse square root, support projector and rank of a PSD matrix,
    all from one eigensolve.

    Eigenvalues at or below ``rank_tol`` times the largest are truncated
    (treated as exact zeros); the inverse square root acts as ``A^(-1/2)``
    on the support and as 0 on the kernel.
    """
    vals, vecs = eig_hermitian(a)
    top = float(vals[0]) if vals.size else 0.0
    if top <= 0.0:
        zero = np.zeros_like(as_matrix(a))
        return zero, zero, 0
    keep = vals > rank_tol * top
    inv = np.zeros_like(vals)
    inv[keep] = 1.0 / np.sqrt(vals[keep])
    kept = vecs[:, keep]
    return (vecs * inv) @ vecs.conj().T, kept @ kept.conj().T, int(np.sum(keep))


def sqrt_psd(a: Any) -> np.ndarray:
    """Positive square root of a PSD matrix (tiny negative eigenvalues clipped)."""
    vals, vecs = eig_hermitian(a)
    clipped = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(clipped)) @ vecs.conj().T


def trace_norm(a: Any) -> float:
    """Sum of singular values of ``a`` (Schatten 1-norm, no 1/2 factor)."""
    arr = as_matrix(a)
    return float(np.sum(np.linalg.svd(arr, compute_uv=False)))


def trace_norm_distance(rho: Any, sigma: Any) -> float:
    """``|| rho - sigma ||_1`` with **no** 1/2 factor.

    Orthogonal pure states are at distance 2 under this convention; e.g.
    ``|0><0|`` vs ``|1><1|`` gives 2, and ``(1+0.6Z)/2`` vs ``1/2`` gives 0.6.
    """
    return trace_norm(as_matrix(rho, "rho") - as_matrix(sigma, "sigma"))


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
    v = np.asarray(r, dtype=float).reshape(-1)
    if v.size != 3:
        raise DimensionError("a Bloch vector has exactly 3 components")
    norm = float(np.linalg.norm(v))
    if norm > 1.0 + 1e-12:
        raise ValueError(f"Bloch vector norm {norm:.12f} exceeds 1: not a state")
    x, y, z = (float(c) for c in v)
    mat = 0.5 * np.array([[1.0 + z, x - 1j * y], [x + 1j * y, 1.0 - z]], dtype=complex)
    return DensityMatrix(mat)


# ---------------------------------------------------------------------------
# value types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DensityMatrix:
    """A validated density matrix.

    Construction symmetrizes the input and enforces Hermiticity within
    :data:`HERM_TOL`, positivity within :data:`PSD_TOL`, and unit trace
    within :data:`TRACE_TOL`.  The stored array is read-only.
    """

    mat: np.ndarray

    def __post_init__(self) -> None:
        m = require_hermitian(as_matrix(self.mat, "density matrix"), "density matrix")
        tr = float(np.real(np.trace(m)))
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"density matrix trace = {tr!r}, expected 1")
        low = float(np.min(np.linalg.eigvalsh(m)))
        if low < -PSD_TOL:
            raise ValueError(f"density matrix has eigenvalue {low:.3e} < 0")
        object.__setattr__(self, "mat", _frozen(m))

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
        states = tuple(
            s if isinstance(s, DensityMatrix) else DensityMatrix(s) for s in self.states
        )
        if len(priors) != len(states) or not priors:
            raise ValueError("need one prior per state, at least one of each")
        if min(priors) < 0.0:
            raise ValueError(f"negative prior: {min(priors)!r}")
        total = math.fsum(priors)
        if abs(total - 1.0) > PRIOR_TOL:
            raise ValueError(f"priors sum to {total!r}, expected 1")
        dims = {s.dim for s in states}
        if len(dims) != 1:
            raise DimensionError(f"states have mixed dimensions {sorted(dims)}")
        object.__setattr__(self, "priors", priors)
        object.__setattr__(self, "states", states)
        # values derived from this ensemble, keyed by what they are; see cached()
        object.__setattr__(self, "_memo", {})

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

    def cached(self, key: Any, compute: Callable[[], _T]) -> _T:
        """``compute()``, evaluated once per ensemble and ``key``.

        The fields are frozen and the state arrays read-only, so a value
        derived from them can never go stale.  Store only values that the
        receiver cannot mutate, or hand out copies.  Threads racing on a
        first call may each compute the value; all of them get an equal one.
        """
        memo = self._memo
        if key not in memo:
            memo[key] = compute()
        return memo[key]

    def average(self) -> DensityMatrix:
        """The prior-weighted average state ``sum_x q_x rho_x``."""
        return self.cached(
            "average",
            lambda: DensityMatrix(sum(q * s.mat for q, s in zip(self.priors, self.states))),
        )


@dataclass(frozen=True)
class Povm:
    """POVM with integer-labelled conclusive elements and an inconclusive one.

    ``elements`` maps label -> operator for the conclusive outcomes
    (labels 1..N by convention); ``inconclusive`` is the label-0 element
    and may be absent (``None``) for complete conclusive POVMs.  This is a
    plain container: use :func:`validate_povm` for the PSD/completeness
    report, since invalid candidates must remain representable.
    """

    elements: dict[int, np.ndarray]
    inconclusive: np.ndarray | None = None

    def __post_init__(self) -> None:
        elems = {int(k): _frozen(as_matrix(v, f"element {k}")) for k, v in self.elements.items()}
        if not elems:
            raise ValueError("a POVM needs at least one conclusive element")
        if 0 in elems:
            raise ValueError("label 0 is reserved for the inconclusive element")
        dims = {m.shape[0] for m in elems.values()}
        inc = self.inconclusive
        if inc is not None:
            inc = _frozen(as_matrix(inc, "inconclusive element"))
            dims.add(inc.shape[0])
        if len(dims) != 1:
            raise DimensionError(f"POVM elements have mixed dimensions {sorted(dims)}")
        object.__setattr__(self, "elements", elems)
        object.__setattr__(self, "inconclusive", inc)

    @property
    def dim(self) -> int:
        return next(iter(self.elements.values())).shape[0]

    @property
    def labels(self) -> list[int]:
        return sorted(self.elements)

    def all_operators(self) -> list[tuple[int, np.ndarray]]:
        """(label, operator) pairs, inconclusive (label 0) last if present."""
        out = [(k, self.elements[k]) for k in self.labels]
        if self.inconclusive is not None:
            out.append((0, self.inconclusive))
        return out

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

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        lines = [f"POVM {'valid' if self.ok else 'INVALID'}"]
        for label, margin in sorted(self.psd_margins.items()):
            lines.append(f"  label {label}: min eigenvalue {margin:+.3e}")
        lines.append(f"  completeness residual {self.completeness_residual:.3e}")
        return "\n".join(lines)


def validate_povm(povm: Povm, tol: float = POVM_TOL) -> PovmReport:
    """Check PSD-ness of every element and completeness ``sum_i M_i = 1``.

    Passes iff every element's smallest eigenvalue is >= ``-tol`` and the
    completeness residual is <= ``tol``.
    """
    margins: dict[int, float] = {}
    for label, op in povm.all_operators():
        h = 0.5 * (op + op.conj().T)
        margins[label] = float(np.min(np.linalg.eigvalsh(h)))
    residual = float(np.max(np.abs(povm.total() - np.eye(povm.dim))))
    ok = residual <= tol and all(m >= -tol for m in margins.values())
    return PovmReport(ok=ok, psd_margins=margins, completeness_residual=residual)


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------


def matrix_to_json(a: Any) -> dict[str, Any]:
    """Encode a matrix as ``{"dim": d, "entries": [[re, im], ...]}`` row-major."""
    arr = as_matrix(a)
    entries = [[float(z.real), float(z.imag)] for z in arr.reshape(-1)]
    return {"dim": int(arr.shape[0]), "entries": entries}


def matrix_from_json(obj: dict[str, Any]) -> np.ndarray:
    """Inverse of :func:`matrix_to_json`; validates shape consistency."""
    try:
        dim = int(obj["dim"])
        entries = obj["entries"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed matrix object: {exc}") from exc
    if dim < 1 or dim > DIM_CAP:
        raise DimensionError(f"matrix dim {dim} outside 1..{DIM_CAP}")
    if len(entries) != dim * dim:
        raise ValueError(f"expected {dim * dim} entries, got {len(entries)}")
    flat = np.array([complex(re, im) for re, im in entries], dtype=complex)
    return flat.reshape(dim, dim)


def vector_to_json(v: Any) -> dict[str, Any]:
    arr = as_vector(v)
    return {"dim": int(arr.size), "entries": [[float(z.real), float(z.imag)] for z in arr]}


def vector_from_json(obj: dict[str, Any]) -> np.ndarray:
    dim = int(obj["dim"])
    entries = obj["entries"]
    if len(entries) != dim:
        raise ValueError(f"expected {dim} entries, got {len(entries)}")
    return np.array([complex(re, im) for re, im in entries], dtype=complex)


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
    return Ensemble(
        priors=tuple(float(q) for q in priors),
        states=tuple(DensityMatrix(matrix_from_json(s)) for s in states),
    )


def load_ensemble(path: str) -> Ensemble:
    """Read an ensemble from a JSON file (see :func:`ensemble_to_json`)."""
    with open(path, "r", encoding="utf-8") as fh:
        return ensemble_from_json(json.load(fh))


def povm_to_json(p: Povm) -> dict[str, Any]:
    out: dict[str, Any] = {
        "elements": {str(k): matrix_to_json(v) for k, v in sorted(p.elements.items())}
    }
    if p.inconclusive is not None:
        out["inconclusive"] = matrix_to_json(p.inconclusive)
    return out


def povm_from_json(obj: dict[str, Any]) -> Povm:
    elements = {int(k): matrix_from_json(v) for k, v in obj["elements"].items()}
    inc = matrix_from_json(obj["inconclusive"]) if "inconclusive" in obj else None
    return Povm(elements=elements, inconclusive=inc)


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
    """Random ensemble with Dirichlet-ish priors and Wishart (or pure) states."""
    raw = rng.random(n) + 0.1
    priors = tuple(float(q) for q in raw / math.fsum(raw))
    if pure:
        states = tuple(random_pure_state(rng, dim).density() for _ in range(n))
    else:
        states = tuple(random_density(rng, dim) for _ in range(n))
    return Ensemble(priors=priors, states=states)
