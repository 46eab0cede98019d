"""Sequential weak maximum-confidence measurement: channels and traces.

A party that wants to leave something measurable for the next party does
not apply its full-strength measurement.  Scaling the conclusive elements
``a_x |phi_x><phi_x|`` down by ``alpha_x in [0, 1]`` keeps every conclusive
outcome's confidence exactly unchanged (the confidence is a ratio, and the
scale cancels) while diverting probability into the inconclusive outcome.
:func:`rank_one_plan` builds such a party straight from the vectors it
measures and the weights ``w_x = alpha_x a_x``: the POVM
``w_x |phi_x><phi_x|`` with ``M_0 = 1 - sum_x M_x``, and the channel

    K_x = sqrt(w_x) |t_x><phi_x|,    K_0 = sqrt(M_0),

whose collapse targets ``t_x`` (default ``phi_x``) let the party
*re-target*: leave a chosen state instead of the measurement projector,
which is the lever the analytic families pull to minimize disturbance.

The chain bookkeeping lives in :class:`SequentialTrace`: per-party
confidences (nonincreasing along the chain — that is the data-processing
inequality and is enforced here), information gains, inconclusive rates,
disturbances, and the full channels, from which the joint outcome
probabilities are reconstructed by operator composition:

    M^_x = K_x^(1)dag ... K_x^(R-1)dag M_x^(R) K_x^(R-1) ... K_x^(1).
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Sequence

import numpy as np

from . import mcm as _mcm
from . import qcore
from .optim import InfeasibleGainError
from .qcore import (
    DensityMatrix,
    Ensemble,
    FeasibilityError,
    Povm,
    as_matrix,
    as_vector,
    ensemble_to_json,
    matrix_to_json,
    povm_to_json,
    sqrt_psd,
    trace_norm,
)

COMPLETENESS_TOL = 1e-10
"""Residual allowed in ``sum_i K_i^dag K_i = 1`` at channel construction."""

MONOTONIC_TOL = 1e-9
"""Confidence increase along a chain tolerated as roundoff."""

SVD_REL_TOL = 1e-9
"""Relative singular-value threshold for operator linear independence."""


class ChannelConstructionError(ValueError):
    """Raised when a set of Kraus operators misses completeness."""


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
    """A CPTP map given by labelled Kraus operators.

    Labels mirror POVM outcomes (0 = inconclusive); several operators may
    share a label, though every construction in this package emits exactly
    one per label.  Completeness ``sum K^dag K = 1`` is enforced within
    :data:`COMPLETENESS_TOL` at construction.
    """

    ops: tuple[tuple[int, np.ndarray], ...]

    def __post_init__(self) -> None:
        ops = tuple(
            (int(label), qcore._frozen(as_matrix(op, f"Kraus op {label}")))
            for label, op in self.ops
        )
        if not ops:
            raise ChannelConstructionError("a channel needs at least one Kraus operator")
        dims = {op.shape[0] for _, op in ops}
        if len(dims) != 1:
            raise ChannelConstructionError(f"Kraus operators of mixed dimension {sorted(dims)}")
        total = sum(op.conj().T @ op for _, op in ops)
        residual = float(np.max(np.abs(total - np.eye(ops[0][1].shape[0]))))
        if residual > COMPLETENESS_TOL:
            raise ChannelConstructionError(
                f"Kraus completeness residual {residual:.3e} exceeds {COMPLETENESS_TOL:.0e}"
            )
        object.__setattr__(self, "ops", ops)

    @property
    def dim(self) -> int:
        return self.ops[0][1].shape[0]

    @property
    def labels(self) -> list[int]:
        return sorted({label for label, _ in self.ops})

    def op(self, label: int) -> np.ndarray:
        """The single Kraus operator with this label (error if not unique)."""
        found = [op for lab, op in self.ops if lab == label]
        if len(found) != 1:
            raise ValueError(f"label {label} has {len(found)} Kraus operators, need exactly 1")
        return found[0]

    def apply(self, rho: Any) -> DensityMatrix:
        r = as_matrix(rho, "rho")
        out = sum(op @ r @ op.conj().T for _, op in self.ops)
        return DensityMatrix(out)

    def apply_ensemble(self, e: Ensemble) -> Ensemble:
        """The channel acting on every state; priors are untouched."""
        return Ensemble(priors=e.priors, states=tuple(self.apply(s.mat) for s in e.states))


def random_channel(rng: np.random.Generator, dim: int, n_kraus: int) -> KrausChannel:
    """Haar-ish random channel: QR of a Gaussian ``(n_kraus*dim) x dim`` block."""
    g = rng.normal(size=(n_kraus * dim, dim)) + 1j * rng.normal(size=(n_kraus * dim, dim))
    q, _ = np.linalg.qr(g)
    ops = tuple((i + 1, q[i * dim : (i + 1) * dim, :]) for i in range(n_kraus))
    return KrausChannel(ops=ops)


# ---------------------------------------------------------------------------
# two-state equal-confidence step
# ---------------------------------------------------------------------------


def two_state_step(
    phi1: Any, phi2: Any, a1: float, a2: float
) -> tuple[KrausChannel, tuple[np.ndarray, np.ndarray]]:
    """One equal-confidence step of a two-state chain.

    ``phi1, phi2`` are the (qubit) maximum-confidence projector vectors
    the party measures; ``a1, a2`` its POVM weights.  After rephasing to a
    real nonnegative overlap ``s = |<phi1|phi2>|``, the step is built in
    the symmetric frame ``u ~ phi1 + phi2``, ``w ~ phi1 - phi2``:

    * per-weight bound ``a_x <= 1 / (1 - s^2)`` (else the inconclusive
      operator would need negative weight) and the joint PSD condition
      ``(1 - a_1)(1 - a_2) >= a_1 a_2 s^2`` — equivalently ``f >= s^2``
      below — without which ``M_0 = 1 - a_1 P_1 - a_2 P_2`` has a negative
      eigenvalue and no channel exists;
    * output overlap ``s' = s / sqrt(f)``, ``f = prod_x (1 - a_x (1-s^2))``;
    * ``K_x = sqrt(a_x) |out_{x+1}^perp><phi_x|`` and
      ``K_0 = sqrt(b_1) |out_2^perp><phi_1| + sqrt(b_2) |out_1^perp><phi_2|``
      with ``b_x = 1/(1-s^2) - a_x``, which is complete *because*
      ``sqrt(b_1 b_2) s' = s / (1 - s^2)`` holds identically.

    Returns the channel and the output projector pair (the next party's
    maximum-confidence vectors).  The confidence never appears: it is a
    property of the ensemble, automatically preserved by this collapse
    structure.
    """
    v1 = as_vector(phi1, "phi1")
    v2 = as_vector(phi2, "phi2")
    if v1.size != 2:
        raise ValueError("the equal-confidence step is a qubit construction")
    v1 = v1 / float(np.linalg.norm(v1))
    v2 = v2 / float(np.linalg.norm(v2))
    t = complex(np.vdot(v1, v2))
    if abs(t) > 0.0:
        v2 = v2 * (t.conjugate() / abs(t))
    s = abs(t)
    if s >= 1.0 - 1e-14:
        raise FeasibilityError("projector overlap is 1: the states are indistinguishable")
    cap = 1.0 / (1.0 - s * s)
    for name, a in (("a1", a1), ("a2", a2)):
        if a < -1e-15 or a > cap + 1e-12:
            raise InfeasibleGainError(
                f"{name} = {a!r} outside the feasible range [0, {cap!r}] at overlap {s!r}"
            )
    a1 = min(max(float(a1), 0.0), cap)
    a2 = min(max(float(a2), 0.0), cap)

    u = v1 + v2
    u = u / float(np.linalg.norm(u))
    wv = v1 - v2
    nw = float(np.linalg.norm(wv))
    if nw < 1e-15:
        raise FeasibilityError("identical projectors leave nothing to discriminate")
    wv = wv / nw

    f = (1.0 - a1 * (1.0 - s * s)) * (1.0 - a2 * (1.0 - s * s))
    if f < s * s * (1.0 - 1e-12) - 1e-15:
        raise InfeasibleGainError(
            f"weights ({a1!r}, {a2!r}) violate the joint feasibility condition "
            f"(1 - a1)(1 - a2) >= a1 a2 s^2 at overlap {s!r}: "
            "the inconclusive element would not be positive semidefinite"
        )
    s_new = 1.0 if f <= 1e-30 else min(s / math.sqrt(f), 1.0)
    cu, cw = math.sqrt((1.0 + s_new) / 2.0), math.sqrt((1.0 - s_new) / 2.0)
    out1 = cu * u + cw * wv
    out2 = cu * u - cw * wv
    out1_perp = cw * u - cu * wv
    out2_perp = cw * u + cu * wv

    b1 = max(cap - a1, 0.0)
    b2 = max(cap - a2, 0.0)
    k1 = math.sqrt(a1) * np.outer(out2_perp, v1.conj())
    k2 = math.sqrt(a2) * np.outer(out1_perp, v2.conj())
    k0 = math.sqrt(b1) * np.outer(out2_perp, v1.conj()) + math.sqrt(b2) * np.outer(
        out1_perp, v2.conj()
    )
    channel = KrausChannel(ops=((1, k1), (2, k2), (0, k0)))
    return channel, (out1, out2)


# ---------------------------------------------------------------------------
# ensemble functionals
# ---------------------------------------------------------------------------


def information_gain(e: Ensemble, povm: Povm) -> float:
    """Probability of a correct conclusive outcome,
    ``G = sum_x q_x tr[rho_x M_x]``."""
    return float(
        sum(
            e.prior(x) * np.real(np.trace(e.state(x).mat @ povm.elements[x]))
            for x in povm.labels
            if x in e.labels
        )
    )


def inconclusive_rate(e: Ensemble, povm: Povm) -> float:
    """``eta_0 = tr[rho M_0]`` (zero when there is no inconclusive element)."""
    if povm.inconclusive is None:
        return 0.0
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
    d = float(
        sum(
            q * trace_norm(s1.mat - s2.mat)
            for q, s1, s2 in zip(e1.priors, e1.states, e2.states)
        )
    )
    lower = trace_norm(e1.average().mat - e2.average().mat)
    return d, lower


def linear_independence(operators: Iterable[Any], rel_tol: float = SVD_REL_TOL) -> bool:
    """Whether a set of operators is linearly independent.

    Vectorizes each operator into a row and checks the matrix rank via
    singular values with a relative threshold.  Equal-confidence sequential
    chains exist exactly when the conclusive POVM elements pass this test.
    """
    rows = [as_matrix(op, "operator").reshape(-1) for op in operators]
    if not rows:
        return True
    stack = np.stack(rows)
    svals = np.linalg.svd(stack, compute_uv=False)
    if float(svals[0]) <= 0.0:
        return False
    rank = int(np.sum(svals > rel_tol * float(svals[0])))
    return rank == len(rows)


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


def rank_one_plan(
    weights: Mapping[int, float],
    vectors: Mapping[int, Any],
    targets: Mapping[int, Any] | None = None,
    extras: Mapping[str, float] | None = None,
) -> PartyPlan:
    """The party measuring ``M_x = w_x |v_x><v_x|``, ``M_0 = 1 - sum_x M_x``.

    ``vectors`` are unit vectors and ``targets`` optional unit collapse
    states (default ``v_x``).  Each conclusive click applies
    ``K_x = sqrt(w_x) |t_x><v_x|`` (no operator for ``w_x = 0``), so
    ``K_x^dag K_x = M_x`` exactly; the inconclusive branch applies
    ``K_0 = sqrt(M_0)``, the one eigensolve of the construction.  Weights
    that leave ``M_0`` indefinite fail the channel's completeness check.
    """
    if not weights or set(weights) != set(vectors):
        raise ValueError(f"weights for labels {sorted(weights)} but vectors for {sorted(vectors)}")
    elements: dict[int, np.ndarray] = {}
    ops: list[tuple[int, np.ndarray]] = []
    for x in sorted(weights):
        w = float(weights[x])
        if w < 0.0:
            raise ValueError(f"weight {x} is negative: {w!r}")
        v = as_vector(vectors[x], f"vector {x}")
        elements[x] = w * np.outer(v, v.conj())
        if w > 0.0:
            t = as_vector((targets or {}).get(x, v), f"target {x}")
            ops.append((x, math.sqrt(w) * np.outer(t, v.conj())))
    m0 = np.eye(v.size) - sum(elements.values())
    # a zero K_0 is kept on purpose: composing it gives the correct
    # all-inconclusive probability (zero) instead of an error
    ops.append((0, sqrt_psd(m0)))
    return PartyPlan(
        povm=Povm(elements=elements, inconclusive=m0),
        channel=KrausChannel(ops=tuple(ops)),
        extras=dict(extras or {}),
    )


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
    p_joint: float | None
    p_inconclusive: float | None

    def __post_init__(self) -> None:
        for prev, cur in zip(self.records, self.records[1:]):
            for x, c in cur.confidences.items():
                before = prev.confidences.get(x)
                if before is not None and c > before + MONOTONIC_TOL:
                    raise ValueError(
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

    Composes each label's Kraus operators from parties ``1..R-1`` around
    party ``R``'s POVM element and evaluates on the initial ensemble:
    ``P_J = sum_x q_x tr[rho_x M^_x]``, and the label-0 analogue for
    ``P_I``.  Requires one Kraus operator per label per party.
    """
    if not records:
        raise ValueError("empty chain")
    last = records[-1]
    p_joint = 0.0
    for x in last.povm.labels:
        acc = last.povm.elements[x]
        for rec in reversed(records[:-1]):
            k = rec.channel.op(x)
            acc = k.conj().T @ acc @ k
        if x in e0.labels:
            p_joint += e0.prior(x) * float(np.real(np.trace(e0.state(x).mat @ acc)))
    m0 = last.povm.inconclusive
    if m0 is None:
        m0 = np.zeros((last.povm.dim, last.povm.dim), dtype=complex)
    acc0 = m0
    for rec in reversed(records[:-1]):
        k = rec.channel.op(0)
        acc0 = k.conj().T @ acc0 @ k
    p_inc = float(
        sum(q * np.real(np.trace(s.mat @ acc0)) for q, s in zip(e0.priors, e0.states))
    )
    return p_joint, p_inc


def run_sequence(e0: Ensemble, strategies: Sequence[Strategy]) -> SequentialTrace:
    """Run a chain of parties over an ensemble.

    Each strategy is called with the ensemble that party receives and the
    1-based party index, and must return a :class:`PartyPlan`.  Any
    feasibility or channel-construction failure aborts the run with a
    :class:`StrategyInfeasibleError` naming the party.  Joint outcome
    probabilities are attached when every channel carries one operator per
    label (always true for the constructions in this package).
    """
    records: list[PartyRecord] = []
    current = e0
    for j, strategy in enumerate(strategies, start=1):
        try:
            plan = strategy(current, j)
        except (FeasibilityError, ChannelConstructionError) as exc:
            raise StrategyInfeasibleError(party=j, reason=str(exc)) from exc
        entries = _mcm.solve_mcm(current)
        confidences = {x: entry.confidence for x, entry in entries.items()}
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
    try:
        p_joint, p_inc = joint_outcomes(e0, records)
    except ValueError:
        p_joint, p_inc = None, None
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
                    {"label": label, "op": matrix_to_json(op)} for label, op in rec.channel.ops
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
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = (
        ["party"]
        + [f"confidence_{x}" for x in labels]
        + [f"purity_{x}" for x in labels]
        + ["gain", "eta0", "disturbance", "disturbance_lower"]
        + extra_keys
        + ["p_joint", "p_inconclusive"]
    )
    writer.writerow(header)
    last = trace.records[-1].index if trace.records else None
    for rec in trace.records:
        row: list[Any] = [rec.index]
        row += [
            repr(rec.confidences[x]) if x in rec.confidences else "" for x in labels
        ]
        row += [
            repr(rec.ensemble.state(x).purity()) if x in rec.ensemble.labels else ""
            for x in labels
        ]
        row += [
            repr(rec.gain),
            repr(rec.eta0),
            repr(rec.disturbance),
            repr(rec.disturbance_lower),
        ]
        row += [repr(rec.extras[k]) if k in rec.extras else "" for k in extra_keys]
        # the chain-level outcome probabilities belong to no single party;
        # by convention they ride on the final row
        if rec.index == last and trace.p_joint is not None:
            row += [repr(trace.p_joint), repr(trace.p_inconclusive)]
        else:
            row += ["", ""]
        writer.writerow(row)
    return buf.getvalue()
