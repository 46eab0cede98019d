"""Sequential weak maximum-confidence measurement: channels and traces.

A party that wants to leave something measurable for the next party does
not apply its full-strength measurement.  Scaling the conclusive elements
``a_x P_x`` down by ``alpha_x in [0, 1]`` keeps every conclusive outcome's
confidence exactly unchanged (the confidence is a ratio, and the scale
cancels) while diverting probability into the inconclusive outcome.
:func:`projector_plan` builds such a party straight from an orthonormal
basis ``Q_x`` of each measured subspace (``P_x = Q_x Q_x^dag``; a unit
vector ``phi_x`` when it has rank one) and the weights
``w_x = alpha_x a_x``: the POVM ``w_x P_x`` with ``M_0 = 1 - sum_x M_x``,
and the channel

    K_x = sqrt(w_x) T_x Q_x^dag,    K_0 = sqrt(M_0),

whose collapse targets ``T_x`` (default ``Q_x``, the Lüders map
``sqrt(w_x) P_x``; ``sqrt(w_x) |t_x><phi_x|`` at rank one) let the party
*re-target*: leave a chosen state instead of the measurement projector,
which is the lever the analytic families pull to minimize disturbance.
For an ensemble outside the families, :func:`weakened_mcm_strategies` is
the chain policy: each party weakens the rate-optimal measurement of the
ensemble it receives to its own inconclusive rate, on optimal subspaces
of any dimension.

The chain bookkeeping lives in :class:`SequentialTrace`: per-party
confidences (nonincreasing along the chain — that is the data-processing
inequality and is enforced here), information gains, inconclusive rates,
disturbances, and the full channels, from which the joint outcome
probabilities are reconstructed by operator composition:

    M^_x = K_x^(1)dag ... K_x^(R-1)dag M_x^(R) K_x^(R-1) ... K_x^(1).
"""

from __future__ import annotations

import functools
import itertools
import types
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from . import mcm as _mcm
from . import optim, qcore
from .qcore import (
    DensityMatrix,
    Ensemble,
    FeasibilityError,
    Povm,
    as_matrix,
    ensemble_to_json,
    matrix_to_json,
    povm_to_json,
    sqrt_psd,
)

COMPLETENESS_TOL = 1e-10
"""Residual allowed in ``sum_i K_i^dag K_i = 1`` at channel construction."""

MONOTONIC_TOL = 1e-9
"""Confidence increase along a chain tolerated as roundoff."""


class ChannelConstructionError(ValueError):
    """Raised when a set of Kraus operators misses completeness."""


class MonotonicityError(ValueError):
    """Raised when a label's confidence grows from one party to the next."""


class StrategyInfeasibleError(ValueError):
    """A party's strategy asked for something unachievable; carries the
    1-based party index."""

    def __init__(self, party: int, reason: str):
        self.party = party
        self.reason = reason
        super().__init__(f"party {party}: {reason}")


# ---------------------------------------------------------------------------
# channels
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KrausChannel:
    """A CPTP map with one Kraus operator per outcome label.

    ``ops`` is a read-only mapping from each label (0 = inconclusive, as
    for POVM outcomes) to its operator; it keeps the given order, which
    :func:`projector_plan` makes the conclusive labels sorted, then 0.  A
    label the party cannot click has no entry.  Completeness
    ``sum K^dag K = 1`` is enforced within :data:`COMPLETENESS_TOL` at
    construction.
    """

    ops: Mapping[int, np.ndarray]

    def __post_init__(self) -> None:
        ops = {int(label): as_matrix(op, f"Kraus op {label}") for label, op in self.ops.items()}
        if not ops:
            raise ChannelConstructionError("a channel needs at least one Kraus operator")
        dims = {op.shape[0] for op in ops.values()}
        if len(dims) != 1:
            raise ChannelConstructionError(f"Kraus operators of mixed dimension {sorted(dims)}")
        stack = qcore._frozen(np.stack(list(ops.values())))
        object.__setattr__(self, "_stack", stack)
        ops = dict(zip(ops, stack))
        total = (qcore._adjoint(stack) @ stack).sum(axis=0)
        residual = float(np.max(np.abs(total - np.eye(dims.pop()))))
        if residual > COMPLETENESS_TOL:
            raise ChannelConstructionError(
                f"Kraus completeness residual {residual:.3e} exceeds {COMPLETENESS_TOL:.0e}"
            )
        object.__setattr__(self, "ops", types.MappingProxyType(ops))

    def _image(self, r: np.ndarray) -> np.ndarray:
        """``sum_i K_i r K_i^dag`` of a matrix or ``(n, d, d)`` stack, one broadcast product."""
        k = self._stack.reshape(self._stack.shape[:1] + (1,) * (r.ndim - 2) + r.shape[-2:])
        return (k @ r @ qcore._adjoint(k)).sum(axis=0)

    def apply(self, rho: Any) -> DensityMatrix:
        return DensityMatrix(self._image(as_matrix(rho, "rho")))

    def apply_ensemble(self, e: Ensemble) -> Ensemble:
        """The channel acting on every state, as one stack; priors are
        untouched."""
        states = np.stack([s.mat for s in e.states])
        return Ensemble(priors=e.priors, states=DensityMatrix.stack(self._image(states)))


# ---------------------------------------------------------------------------
# ensemble functionals
# ---------------------------------------------------------------------------


def information_gain(e: Ensemble, povm: Povm) -> float:
    """Probability of a correct conclusive outcome,
    ``G = sum_x q_x tr[rho_x M_x]``, summed in label order."""
    labels = [x for x in povm.labels if x in e.labels]
    if not labels:
        return 0.0
    states = np.stack([e.state(x).mat for x in labels])
    traces = np.trace(states @ np.stack([povm.elements[x] for x in labels]), axis1=-2, axis2=-1)
    return float(sum(e.prior(x) * t for x, t in zip(labels, traces.real.tolist())))


def inconclusive_rate(e: Ensemble, povm: Povm) -> float:
    """``eta_0 = tr[rho M_0]``."""
    return float(np.real(np.trace(e.average().mat @ povm.inconclusive)))


def ensemble_distance(e1: Ensemble, e2: Ensemble) -> tuple[float, float]:
    """Disturbance ``D = sum_x q_x ||rho_x - rho'_x||_1`` and its lower
    bound ``||rho - rho'||_1`` (averages).  Trace norms carry no 1/2.

    The bound is the triangle inequality applied to the prior-weighted
    differences, so ``D >= ||rho - rho'||_1`` always.
    """
    if e1.n != e2.n:
        raise ValueError(f"ensembles of different sizes: {e1.n} vs {e2.n}")
    if any(abs(p - q) > 1e-12 for p, q in zip(e1.priors, e2.priors)):
        raise ValueError("ensembles carry different priors; disturbance undefined")
    # the N state differences and the difference of averages, one svd call
    diffs = np.stack(
        [s1.mat - s2.mat for s1, s2 in zip(e1.states, e2.states)]
        + [e1.average().mat - e2.average().mat]
    )
    norms = [float(n) for n in np.linalg.svd(diffs, compute_uv=False).sum(axis=-1)]
    return sum(q * n for q, n in zip(e1.priors, norms)), norms[-1]


# ---------------------------------------------------------------------------
# sequence running
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PartyPlan:
    """What one party does: the weakened POVM it reads out and the channel
    it applies, plus any analytic bookkeeping the strategy wants recorded."""

    povm: Povm
    channel: KrausChannel
    extras: dict[str, float] = field(default_factory=dict)


Strategy = Callable[[Ensemble, int], PartyPlan]


def projector_plan(
    weights: Mapping[int, float],
    bases: Mapping[int, Any],
    targets: Mapping[int, Any] | None = None,
    extras: Mapping[str, float] | None = None,
) -> PartyPlan:
    """The party measuring ``M_x = w_x Q_x Q_x^dag``, ``M_0 = 1 - sum_x M_x``.

    Each ``bases[x]`` is a unit vector or a ``d x k`` matrix ``Q_x`` of
    orthonormal columns, and ``targets[x]`` (default ``Q_x``) one of the
    same shape.  Each conclusive click applies ``K_x = sqrt(w_x) T_x Q_x^dag``
    (no operator for ``w_x = 0``), so ``K_x^dag K_x = M_x``; without a
    target it is the Lüders map ``sqrt(w_x) P_x``.  The inconclusive branch
    applies ``K_0 = sqrt(M_0)``, the one eigensolve of the construction.
    ``M_0`` eigenvalues within rounding of zero
    (:data:`seqmcm.qcore.SQRT_ZERO_TOL`) are zeros of ``K_0``, so a
    full-strength party's ``K_0`` is exactly singular (zero for a complete
    measurement).  Weights that leave ``M_0`` indefinite fail the channel's
    completeness check.
    """
    if not weights or set(weights) != set(bases):
        raise ValueError(f"weights for labels {sorted(weights)} but bases for {sorted(bases)}")
    labels = sorted(weights)
    for x in labels:
        if float(weights[x]) < 0.0:
            raise ValueError(f"weight {x} is negative: {float(weights[x])!r}")
    # every label's columns as rows of one (K, d) array; each label's sum of
    # outer products is one reduceat segment, for a vector its product exactly
    vs = [_columns(bases[x]) for x in labels]
    ts = [_columns((targets or {}).get(x, bases[x])) for x in labels]
    if [len(c) for c in ts] != [len(c) for c in vs]:
        raise ValueError("each target needs as many columns as its basis")
    starts = list(itertools.accumulate((len(c) for c in vs[:-1]), initial=0))
    v, t = np.concatenate(vs), np.concatenate(ts)
    bras = v.conj()[:, None, :]
    w = np.array([float(weights[x]) for x in labels])[:, None, None]
    elements = w * np.add.reduceat(v[:, :, None] * bras, starts)
    kraus = np.sqrt(w) * np.add.reduceat(t[:, :, None] * bras, starts)
    m0 = np.eye(v.shape[1]) - sum(elements)
    ops = {x: k for x, k, wx in zip(labels, kraus, w.flat) if wx > 0.0}
    # K_0 is listed even when zero: every party's channel names its inconclusive branch
    ops[0] = sqrt_psd(m0)
    return PartyPlan(
        povm=Povm(elements=dict(zip(labels, elements)), inconclusive=m0),
        channel=KrausChannel(ops=ops),
        extras=dict(extras or {}),
    )


def _columns(basis: Any) -> np.ndarray:
    """A unit vector as one row, a ``d x k`` basis as its ``k`` columns."""
    arr = np.asarray(basis, dtype=complex)
    return arr.reshape(len(arr), -1).T


def mcm_plan(
    e: Ensemble, weights: Mapping[int, float], extras: Mapping[str, float] | None = None
) -> PartyPlan:
    """The party measuring each label's whole optimal subspace at the given
    weight, ``M_x = w_x P_x``, with the Lüders map ``K_x = sqrt(w_x) P_x``
    (:func:`projector_plan`).  A one-vector subspace is passed as
    :func:`seqmcm.mcm.solve_mcm`'s ``basis[0]``; a larger one as the
    orthonormal ``Q_x`` of its QR, since those basis vectors need not be
    orthogonal."""
    entries, subspaces = _mcm.solve_mcm(e), _mcm._optimal_subspaces(e)
    bases = {
        x: entries[x].basis[0] if len(entries[x].basis) == 1 else subspaces[x][0] for x in weights
    }
    return projector_plan(weights, bases, extras=extras)


def _weakened_mcm_party(eta0: float, e: Ensemble, _: int) -> PartyPlan:
    sol = optim.min_inconclusive_rate(e)
    floor = max(sol.eta0, 0.0)
    if eta0 < floor - 1e-9:
        raise FeasibilityError(f"inconclusive rate {eta0!r} below this ensemble's floor {floor!r}")
    denom = 1.0 - floor
    alpha = 1.0 if denom <= 1e-15 else min((1.0 - eta0) / denom, 1.0)
    weights = {x: alpha * w for x, w in sol.weights.items()}
    return mcm_plan(e, weights, {"eta0_target": eta0, "alpha": alpha})


def weakened_mcm_strategies(rates: Sequence[float]) -> list[Strategy]:
    """One party per inconclusive rate: it scales the weights of
    :func:`seqmcm.optim.min_inconclusive_rate` on the ensemble it receives
    by one ``alpha`` down to its rate and plays them as :func:`mcm_plan`
    (extras ``eta0_target``, ``alpha``): each label's whole optimal subspace,
    whatever its dimension, under the Lüders map.  A rate below that
    ensemble's floor is a :class:`FeasibilityError`, which
    :func:`run_sequence` reports as :class:`StrategyInfeasibleError`."""
    return [functools.partial(_weakened_mcm_party, float(eta0)) for eta0 in rates]


@dataclass(frozen=True)
class PartyRecord:
    """Everything recorded about party ``j``: the ensemble it received,
    its confidences, gain, inconclusive rate, the disturbance it caused,
    and the full measurement/channel pair."""

    index: int
    ensemble: Ensemble
    confidences: dict[int, float]
    gain: float
    eta0: float
    disturbance: float
    disturbance_lower: float
    povm: Povm
    channel: KrausChannel
    extras: dict[str, float]


@dataclass(frozen=True)
class SequentialTrace:
    """A full chain record.  Construction enforces the data-processing
    property: no label's confidence may grow from one party to the next
    (beyond :data:`MONOTONIC_TOL`)."""

    records: tuple[PartyRecord, ...]
    final_ensemble: Ensemble
    p_joint: float
    p_inconclusive: float

    def __post_init__(self) -> None:
        for prev, cur in zip(self.records, self.records[1:]):
            for x, c in cur.confidences.items():
                before = prev.confidences.get(x)
                if before is not None and c > before + MONOTONIC_TOL:
                    raise MonotonicityError(
                        f"confidence of label {x} grew from {before!r} to {c!r} "
                        f"between parties {prev.index} and {cur.index}"
                    )

    @property
    def parties(self) -> int:
        return len(self.records)

    def confidences(self, x: int) -> list[float]:
        return [rec.confidences[x] for rec in self.records]


def _pull_back(m: np.ndarray, label: int, records: Sequence[PartyRecord]) -> np.ndarray:
    """``K^dag ... K^dag m K ... K`` over the label's Kraus operators of
    ``records`` (last first); zero when some party has none for it."""
    for rec in reversed(records):
        k = rec.channel.ops.get(label)
        if k is None:
            return np.zeros_like(m)
        m = k.conj().T @ m @ k
    return m


def joint_outcomes(e0: Ensemble, records: Sequence[PartyRecord]) -> tuple[float, float]:
    """All-conclusive and all-inconclusive probabilities of a chain.

    Composes each label's Kraus operator from parties ``1..R-1`` around
    party ``R``'s POVM element and evaluates on the initial ensemble:
    ``P_J = sum_x q_x tr[rho_x M^_x]``, and the label-0 analogue for
    ``P_I``.  A label that an earlier party cannot click (no Kraus
    operator, as for a zero weight) adds nothing.  Defined for every
    nonempty chain; an empty one raises :class:`ValueError`.
    """
    if not records:
        raise ValueError("empty chain")
    last = records[-1]
    p_joint = 0.0
    for x in last.povm.labels:
        acc = _pull_back(last.povm.elements[x], x, records[:-1])
        if x in e0.labels:
            p_joint += e0.prior(x) * float(np.real(np.trace(e0.state(x).mat @ acc)))
    acc0 = _pull_back(last.povm.inconclusive, 0, records[:-1])
    p_inc = float(
        sum(q * np.real(np.trace(s.mat @ acc0)) for q, s in zip(e0.priors, e0.states))
    )
    return p_joint, p_inc


def run_sequence(e0: Ensemble, strategies: Sequence[Strategy]) -> SequentialTrace:
    """Run a chain of parties over an ensemble.

    Each strategy is called with the ensemble that party receives and the
    1-based party index, and must return a :class:`PartyPlan`.  Any
    feasibility or channel-construction failure aborts the run with a
    :class:`StrategyInfeasibleError` naming the party.  A party's
    confidences are the first stage of its ensemble's solve
    (:func:`seqmcm.mcm.confidences`), with every check of the solve, so a
    chain whose strategies read no optimal basis builds no
    :class:`~seqmcm.mcm.McmEntry`.  The trace carries
    the joint outcome probabilities of :func:`joint_outcomes`, so an empty
    strategy list raises :class:`ValueError`.
    """
    records: list[PartyRecord] = []
    current = e0
    for j, strategy in enumerate(strategies, start=1):
        try:
            plan = strategy(current, j)
        except (FeasibilityError, ChannelConstructionError) as exc:
            raise StrategyInfeasibleError(party=j, reason=str(exc)) from exc
        confidences = _mcm.confidences(current)
        nxt = plan.channel.apply_ensemble(current)
        d, lower = ensemble_distance(current, nxt)
        records.append(
            PartyRecord(
                index=j,
                ensemble=current,
                confidences=confidences,
                gain=information_gain(current, plan.povm),
                eta0=inconclusive_rate(current, plan.povm),
                disturbance=d,
                disturbance_lower=lower,
                povm=plan.povm,
                channel=plan.channel,
                extras=dict(plan.extras),
            )
        )
        current = nxt
    p_joint, p_inc = joint_outcomes(e0, records)
    return SequentialTrace(
        records=tuple(records),
        final_ensemble=current,
        p_joint=p_joint,
        p_inconclusive=p_inc,
    )


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

TRACE_SCHEMA = "seqmcm-trace/1"


def trace_to_json(trace: SequentialTrace) -> dict[str, Any]:
    """Schema-tagged JSON with full per-party channels and measurements."""
    parties = []
    for rec in trace.records:
        parties.append(
            {
                "party": rec.index,
                "ensemble": ensemble_to_json(rec.ensemble),
                "confidences": {str(x): c for x, c in sorted(rec.confidences.items())},
                "gain": rec.gain,
                "eta0": rec.eta0,
                "disturbance": rec.disturbance,
                "disturbance_lower": rec.disturbance_lower,
                "povm": povm_to_json(rec.povm),
                "channel": [
                    {"label": label, "op": matrix_to_json(op)}
                    for label, op in rec.channel.ops.items()
                ],
                "extras": {k: rec.extras[k] for k in sorted(rec.extras)},
            }
        )
    return {
        "schema": TRACE_SCHEMA,
        "parties": parties,
        "final_ensemble": ensemble_to_json(trace.final_ensemble),
        "p_joint": trace.p_joint,
        "p_inconclusive": trace.p_inconclusive,
    }


def trace_to_csv(trace: SequentialTrace) -> str:
    """Flat per-party table: index, confidences, state purities, gain,
    eta0, disturbance, then any extras columns (sorted by name)."""
    labels = sorted({x for rec in trace.records for x in rec.confidences})
    extra_keys = sorted({k for rec in trace.records for k in rec.extras})
    header = (
        ["party"]
        + [f"confidence_{x}" for x in labels]
        + [f"purity_{x}" for x in labels]
        + ["gain", "eta0", "disturbance", "disturbance_lower"]
        + extra_keys
        + ["p_joint", "p_inconclusive"]
    )
    rows = []
    for rec in trace.records:
        row: list[Any] = [rec.index]
        row += [rec.confidences.get(x) for x in labels]
        row += [
            rec.ensemble.state(x).purity() if x in rec.ensemble.labels else None for x in labels
        ]
        row += [rec.gain, rec.eta0, rec.disturbance, rec.disturbance_lower]
        row += [rec.extras.get(k) for k in extra_keys]
        rows.append(row + [None, None])
    # the chain-level outcome probabilities belong to no single party;
    # by convention they ride on the final row
    if rows:
        rows[-1][-2:] = [trace.p_joint, trace.p_inconclusive]
    return qcore.csv_text(header, rows)
