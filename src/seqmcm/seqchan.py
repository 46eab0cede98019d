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

:func:`run_sequence` fills it in two phases.  The evolution calls each
strategy and applies its channel, keeping only what the next party needs.
The analysis then measures all ``R`` parties as stacks: one eigensolve of
the ``R + 1`` averages, one stacked first stage of the MCM solve, one
``svd`` of the disturbances and one trace each for the gains and the
inconclusive rates.  :func:`information_gain`, :func:`inconclusive_rate`
and :func:`ensemble_distance` are the batch-of-one case of the same code.
A failure is reported as measuring one party at a time would report it,
and only :func:`_checked_stages` knows that order: when a stack fails a
check, it runs the checks again one party at a time and raises the first
error they raise.  When party ``j``'s strategy or channel fails, the
parties before it are checked first, and an error of theirs is raised in
its place.
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
    label the party cannot click has no entry.  The operators are coerced
    and copied as one frozen stack, each entry of ``ops`` a read-only view of
    it.  Completeness ``sum K^dag K = 1`` is enforced within
    :data:`COMPLETENESS_TOL` at construction.
    """

    ops: Mapping[int, np.ndarray]

    def __post_init__(self) -> None:
        stack = qcore._operator_stack(list(self.ops.values()))
        if stack is None:  # the one-operator coercions word the error
            ops = {int(label): as_matrix(op, f"Kraus op {label}") for label, op in self.ops.items()}
            if not ops:
                raise ChannelConstructionError("a channel needs at least one Kraus operator")
            dims = sorted({op.shape[0] for op in ops.values()})  # square and capped: mixed
            raise ChannelConstructionError(f"Kraus operators of mixed dimension {dims}")
        ops = dict(zip((int(label) for label in self.ops), stack))
        if len(ops) < len(stack):  # a label given twice (1 and "1") keeps its last operator
            stack = qcore._frozen(np.stack(list(ops.values())))
        object.__setattr__(self, "_stack", stack)
        total = (qcore._adjoint(stack) @ stack).sum(axis=0)
        residual = float(np.max(np.abs(total - np.eye(stack.shape[-1]))))
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
    return _gains([e], [povm])[0]


def _gains(ensembles: Sequence[Ensemble], povms: Sequence[Povm]) -> list[float]:
    """:func:`information_gain` of each ensemble and POVM, from one stacked
    trace over every label the two share."""
    labels = [[x for x in p.labels if x in e.labels] for e, p in zip(ensembles, povms)]
    pairs = [(e, p, x) for e, p, xs in zip(ensembles, povms, labels) for x in xs]
    if not pairs:
        return [0.0] * len(labels)
    states = np.stack([e.state(x).mat for e, _, x in pairs])
    elements = np.stack([p.elements[x] for _, p, x in pairs])
    traces = iter(np.trace(states @ elements, axis1=-2, axis2=-1).real.tolist())
    return [
        float(sum(e.prior(x) * t for x, t in zip(xs, traces))) for e, xs in zip(ensembles, labels)
    ]


def inconclusive_rate(e: Ensemble, povm: Povm) -> float:
    """``eta_0 = tr[rho M_0]``."""
    return _inconclusive_rates([e], [povm])[0]


def _inconclusive_rates(ensembles: Sequence[Ensemble], povms: Sequence[Povm]) -> list[float]:
    """:func:`inconclusive_rate` of each ensemble and POVM, one stacked trace."""
    averages = np.stack([e.average().mat for e in ensembles])
    m0 = np.stack([p.inconclusive for p in povms])
    return np.real(np.trace(averages @ m0, axis1=-2, axis2=-1)).tolist()


def ensemble_distance(e1: Ensemble, e2: Ensemble) -> tuple[float, float]:
    """Disturbance ``D = sum_x q_x ||rho_x - rho'_x||_1`` and its lower
    bound ``||rho - rho'||_1`` (averages).  Trace norms carry no 1/2.

    The bound is the triangle inequality applied to the prior-weighted
    differences, so ``D >= ||rho - rho'||_1`` always.
    """
    return _distances([e1, e2])[0]


def _distances(chain: Sequence[Ensemble]) -> list[tuple[float, float]]:
    """:func:`ensemble_distance` of each ensemble of a chain to the next,
    from one ``svd`` call on the ``(R, N + 1, d, d)`` stack of the state
    differences and the difference of averages."""
    for e1, e2 in zip(chain, chain[1:]):
        if e1.n != e2.n:
            raise ValueError(f"ensembles of different sizes: {e1.n} vs {e2.n}")
        if any(abs(p - q) > 1e-12 for p, q in zip(e1.priors, e2.priors)):
            raise ValueError("ensembles carry different priors; disturbance undefined")
    states = np.array([[s.mat for s in e.states] for e in chain])
    averages = np.stack([e.average().mat for e in chain])
    diffs = np.concatenate([states[:-1] - states[1:], (averages[:-1] - averages[1:])[:, None]], axis=1)
    norms = np.linalg.svd(diffs, compute_uv=False).sum(axis=-1).tolist()
    return [(sum(q * n for q, n in zip(e.priors, ns)), ns[-1]) for e, ns in zip(chain, norms)]


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
    (:func:`projector_plan`).  A one-vector subspace is passed as its
    :class:`seqmcm.mcm.McmEntry`'s ``basis[0]``, a larger one as its
    orthonormal ``span``, since those basis vectors need not be orthogonal."""
    entries = _mcm.solve_mcm(e)
    bases = {x: entries[x].basis[0] if len(entries[x].basis) == 1 else entries[x].span
             for x in weights}
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


def joint_outcomes(e0: Ensemble, records: Sequence[PartyRecord]) -> tuple[float, float]:
    """All-conclusive and all-inconclusive probabilities of a chain.

    Composes each label's Kraus operator from parties ``1..R-1`` around
    party ``R``'s POVM element and evaluates on the initial ensemble:
    ``P_J = sum_x q_x tr[rho_x M^_x]``, and the label-0 analogue for
    ``P_I``.  All of party ``R``'s labels are pulled back as one stack,
    ``K^dag acc K`` per earlier party, with a zero slice where that party has
    no Kraus operator for the label (as for a zero weight), so the label adds
    nothing.  Defined for every nonempty chain; an empty one raises
    :class:`ValueError`.
    """
    if not records:
        raise ValueError("empty chain")
    last = records[-1]
    labels = [*last.povm.labels, 0]
    acc = np.stack([*(last.povm.elements[x] for x in last.povm.labels), last.povm.inconclusive])
    zero = np.zeros_like(acc[0])
    for rec in reversed(records[:-1]):
        k = np.stack([rec.channel.ops.get(x, zero) for x in labels])
        acc = qcore._adjoint(k) @ acc @ k
    # tr[rho_x M^_x] for each label the ensemble shares, then tr[rho_x M^_0] for every state
    shared = [i for i, x in enumerate(labels[:-1]) if x in e0.labels]
    states = np.stack([e0.state(labels[i]).mat for i in shared] + [s.mat for s in e0.states])
    pulled = np.concatenate([acc[shared], np.broadcast_to(acc[-1], (e0.n, *zero.shape))])
    traces = np.real(np.trace(states @ pulled, axis1=-2, axis2=-1)).tolist()
    p_joint = 0.0
    for i, t in zip(shared, traces):
        p_joint += e0.prior(labels[i]) * t
    p_inc = float(sum(q * t for q, t in zip(e0.priors, traces[len(shared) :])))
    return p_joint, p_inc


def run_sequence(e0: Ensemble, strategies: Sequence[Strategy]) -> SequentialTrace:
    """Run a chain of parties over an ensemble, in two phases.

    *Evolution.*  Each strategy is called with the ensemble that party
    receives and the 1-based party index, and must return a
    :class:`PartyPlan`; its channel maps that ensemble, validated, to the
    next party's.  A feasibility or channel-construction failure of a
    strategy becomes a :class:`StrategyInfeasibleError` naming the party.

    *Analysis.*  Then one pass measures every party: the ``R + 1`` averages
    as one eigensolve, the first stage of each party's solve
    (:func:`seqmcm.mcm._first_stage`: support check, shaped and complement
    eigensolves, complement check) on the ``(R, N, d, d)`` stack, the
    disturbances as one ``svd`` and the gains and inconclusive rates as one
    trace each.  An ensemble a strategy already solved is not solved again,
    and a chain whose strategies read no optimal basis builds no
    :class:`~seqmcm.mcm.McmEntry`.

    The errors are those of one party at a time (:func:`_checked_stages`):
    when party ``j`` fails in the evolution, parties ``1..j-1`` are
    analysed first, and their support, complement or validation error, if
    any, is raised in its place.  The trace carries the joint outcome
    probabilities of :func:`joint_outcomes`, so an empty strategy list
    raises :class:`ValueError`.
    """
    if not strategies:
        raise ValueError("empty chain")
    chain, plans = [e0], []
    try:
        for j, strategy in enumerate(strategies, start=1):
            try:
                plan = strategy(chain[-1], j)
            except (FeasibilityError, ChannelConstructionError) as exc:
                raise StrategyInfeasibleError(party=j, reason=str(exc)) from exc
            plans.append(plan)
            chain.append(plan.channel.apply_ensemble(chain[-1]))
    except Exception:  # an earlier party's check error is raised in its place
        _checked_stages(chain, len(plans))
        raise
    stages = _checked_stages(chain, len(plans))
    povms = [plan.povm for plan in plans]
    records = [
        PartyRecord(
            index=j,
            ensemble=e,
            confidences=dict(stage[0]),
            gain=gain,
            eta0=eta0,
            disturbance=d,
            disturbance_lower=lower,
            povm=plan.povm,
            channel=plan.channel,
            extras=dict(plan.extras),
        )
        for j, e, stage, plan, gain, eta0, (d, lower) in zip(
            itertools.count(1),
            chain,
            stages,
            plans,
            _gains(chain[:-1], povms),
            _inconclusive_rates(chain[:-1], povms),
            _distances(chain),
        )
    ]
    p_joint, p_inc = joint_outcomes(e0, records)
    return SequentialTrace(
        records=tuple(records),
        final_ensemble=chain[-1],
        p_joint=p_joint,
        p_inconclusive=p_inc,
    )


def _checked_stages(chain: Sequence[Ensemble], parties: int) -> list[tuple]:
    """The first stages of the first ``parties`` ensembles of ``chain`` after
    every check, raising the error that one party at a time raises first:
    each party's average, support and complement checks, then the next
    ensemble's average (its disturbance reads it).  The checks run as two
    stacks, the averages of ``chain`` and the first stages; if either
    fails, the parties' checks run again one at a time in that order, and
    the stack's error (the one-ensemble error of the ensemble after the
    last party) is raised only if none of theirs is.  Nothing is checked
    without a party."""
    if not parties:
        return []
    try:
        qcore._average_spectra(chain)
        return _mcm._first_stage(chain[:parties])
    except (ValueError, ArithmeticError):
        for e in chain[:parties]:
            _mcm._first_stage([e])
        raise


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
    eta0, disturbance, then any extras columns (sorted by name).  The
    purities of all the chain's states come from one stacked product."""
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
    d = trace.final_ensemble.dim
    states = np.reshape([s.mat for rec in trace.records for s in rec.ensemble.states], (-1, d, d))
    purities = iter(np.real(np.trace(states @ states, axis1=-2, axis2=-1)).tolist())
    rows = []
    for rec in trace.records:
        row: list[Any] = [rec.index]
        row += [rec.confidences.get(x) for x in labels]
        own = dict(zip(rec.ensemble.labels, purities))  # zip stops at the labels' end
        row += [own.get(x) for x in labels]
        row += [rec.gain, rec.eta0, rec.disturbance, rec.disturbance_lower]
        row += [rec.extras.get(k) for k in extra_keys]
        rows.append(row + [None, None])
    # the chain-level outcome probabilities belong to no single party;
    # by convention they ride on the final row
    if rows:
        rows[-1][-2:] = [trace.p_joint, trace.p_inconclusive]
    return qcore.csv_text(header, rows)
