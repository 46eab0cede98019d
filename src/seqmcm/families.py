"""Analytic state families with closed-form sequential behaviour.

Four families, each packaging (i) an ensemble constructor, (ii) closed
forms for the maximum-confidence data, and (iii) chain strategies whose
per-party behaviour is known analytically — the independent yardsticks
the generic solvers are tested against.

two_mixed(p, theta)
    Two equiprobable mixtures of mirror-symmetric pure states,
    ``rho_x = p |psi_x><psi_x| + (1-p)/2``.  Both confidences equal
    ``C = (1 + p sin t / sqrt(1 - p^2 cos^2 t)) / 2`` and the optimal
    projectors overlap by ``|p cos t|``.  These are the ensembles with
    exact equal-confidence chains of any length.

lifted_gu(n, theta, lam)
    Geometrically uniform (GU) phases ``2 pi x / n`` (mod ``2 pi``, so
    label ``n`` has phase 0 and an exactly real state vector) at polar
    angle ``theta`` and visibility ``lam``: ``rho_x = lam |psi_x><psi_x|
    + (1 - lam) rho``.  A single per-step contraction ``Delta`` of the
    visibility carries everything relevant to chains.

gu(n)
    The pure equatorial member ``lifted_gu(n, pi/2, 1)``, states
    ``(|0> + e^(i 2 pi x / n) |1>) / sqrt(2)``: the average is maximally
    mixed, ``C = 2/n``, the full-strength measurement has weights ``2/n``
    and no inconclusive outcome, and a party at rate ``eta0`` contracts
    the Bloch radius by ``Delta = (1 + eta0) / 2``.

mirror(theta)
    Three equiprobable states on the X-Y equator at azimuths
    ``0, +theta, -theta``.  Not geometrically uniform (except at
    ``theta = 2 pi / 3``, where it is the trine = gu(3) relabelled), so
    the measurement azimuth, weights, and retargets all depend on the
    evolving state triple ``(r_1, r_2, theta)``.

Every family has ``ensemble()``, ``describe()`` (the closed-form values
``seqmcm family`` prints) and one chain protocol: ``strategies(schedule)``
builds a chain's parties, and ``oracle(schedule)`` gives each party's closed
forms of what :func:`seqmcm.seqchan.run_sequence` reports, under the trace
CSV's names (``confidence_<x>``; ``disturbance`` for ``lifted_gu``; ``r1``,
``r2``, ``theta`` for ``mirror``; ``p_joint``, where a closed form exists,
on the last party).  A ``lifted_gu`` (so ``gu``) or ``mirror`` schedule is
one inconclusive rate per party; a ``retarget`` polar angle (``lifted_gu``)
or azimuth (``mirror``) replaces the least-disturbing collapse for
comparison runs.  Each party is a :func:`seqmcm.seqchan.projector_plan` built
from the family's closed-form measurement vectors and weights, so no
eigensolve recovers a vector the family already knows
(``LiftedGuFamily.plan`` and :func:`mirror_plan` build one party).  A
``two_mixed`` schedule is one gain per party, or a party count for the
joint-probability optimum.  Its party is a ``projector_plan`` too: weights
``a`` on both measured vectors (``phi_2`` rephased to the real overlap
``s``) and the overlap ``s'`` it leaves, both from the family's own
least-disturbing step (a gain ``G <= C (1 - s)`` takes
``a = G / (C (1 - s^2))`` and leaves ``s' = s / (1 - G/C)``); in the frame
``u ~ phi_1 + phi_2``, ``w ~ phi_1 - phi_2`` the next party measures
``cu u +- cw w`` (``cu, cw = sqrt((1 +- s')/2)``), and each label collapses
onto the state orthogonal to the next vector of the other label,
``t_1 = cw u + cu w``, ``t_2 = cw u - cu w``.  Then ``K_0 = sqrt(M_0)`` is
diagonal in that frame and the confidence is preserved exactly.

Angles are radians everywhere.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from . import mcm as _mcm
from .qcore import DensityMatrix, Ensemble, FeasibilityError, _bloch_matrix, vector_to_json
from .seqchan import PartyPlan, Strategy, projector_plan


class InfeasibleRateError(FeasibilityError):
    """An inconclusive rate below the family's floor was requested."""


class InfeasibleGainError(FeasibilityError):
    """Requested information gain exceeds what the confidence/overlap allow."""


def _projector(v: np.ndarray) -> np.ndarray:
    return np.outer(v, v.conj())


def _equator(beta: float) -> np.ndarray:
    """Equatorial qubit vector ``(|0> + e^(i beta) |1>) / sqrt(2)``."""
    return np.array([1.0, cmath.exp(1j * beta)], dtype=complex) / math.sqrt(2.0)


# ===========================================================================
# two mixed mirror-symmetric states
# ===========================================================================


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


def _least_disturbing(c: float, s: float, gain: float) -> tuple[float, float]:
    """The least-disturbing step of a ``two_mixed`` party (module docstring):
    the weight ``a`` of both labels and the overlap ``s'`` it leaves.  Only a
    gain ``0 <= G <= C (1 - s)`` is feasible."""
    limit = c * (1.0 - s)
    if gain < -1e-15 or gain > limit + 1e-12:
        raise InfeasibleGainError(
            f"gain {gain!r} outside the feasible range [0, {limit!r}] "
            f"for confidence {c!r} and overlap {s!r}"
        )
    g = min(max(gain, 0.0), limit)
    s_next = 1.0 if g >= limit else s / (1.0 - g / c)
    return g / (c * (1.0 - s * s)), min(s_next, 1.0)


@dataclass(frozen=True)
class TwoMixedFamily:
    """Two equiprobable noisy pure states; see module docstring.

    ``signed_overlap`` is ``t = p cos(theta)``, the real inner product
    ``<v1|v2>`` of the pair returned by :meth:`projector_vectors`; the
    magnitude ``|t|`` is what gain schedules consume.
    """

    p: float
    theta: float

    def __post_init__(self) -> None:
        if not (0.0 < self.p <= 1.0):
            raise ValueError(f"purity weight p must be in (0, 1], got {self.p!r}")
        if not (0.0 < self.theta < math.pi):
            raise ValueError(f"theta must be in (0, pi), got {self.theta!r}")

    # -- states -------------------------------------------------------------

    def pure_vectors(self) -> tuple[np.ndarray, np.ndarray]:
        c, s = math.cos(self.theta / 2.0), math.sin(self.theta / 2.0)
        return (
            np.array([c, s], dtype=complex),
            np.array([c, -s], dtype=complex),
        )

    def ensemble(self) -> Ensemble:
        v1, v2 = self.pure_vectors()
        eye = np.eye(2, dtype=complex)
        states = DensityMatrix.stack(
            [self.p * _projector(v) + (1.0 - self.p) / 2.0 * eye for v in (v1, v2)]
        )
        return Ensemble(priors=(0.5, 0.5), states=states)

    # -- closed forms ---------------------------------------------------------

    @property
    def confidence(self) -> float:
        pc = self.p * math.cos(self.theta)
        root = math.sqrt(1.0 - pc * pc)
        if root == 0.0:  # cos(theta) rounds to +-1 at p = 1: pure states, C = 1
            return 1.0
        val = 0.5 * (1.0 + self.p * math.sin(self.theta) / root)
        return min(val, 1.0)  # the ratio can land a few ulp above 1 at p = 1

    @property
    def signed_overlap(self) -> float:
        return self.p * math.cos(self.theta)

    @property
    def overlap(self) -> float:
        return abs(self.signed_overlap)

    def projector_vectors(self) -> tuple[np.ndarray, np.ndarray]:
        """The optimal measurement vectors ``(v1, v2)``, oriented so that
        ``<v1|v2> = signed_overlap``.

        ``v1`` is the solver's phase-fixed vector for label 1; ``v2`` is
        the solver's phase-fixed vector for label 2 times -1, which is the
        same projector."""
        t = self.signed_overlap
        lo, hi = math.sqrt((1.0 - t) / 2.0), math.sqrt((1.0 + t) / 2.0)
        return (
            np.array([lo, hi], dtype=complex),
            np.array([-lo, hi], dtype=complex),
        )

    @property
    def helstrom(self) -> float:
        """Optimal guessing probability ``(1 + p sin theta) / 2``."""
        return 0.5 * (1.0 + self.p * math.sin(self.theta))

    @staticmethod
    def from_confidence_overlap(confidence: float, signed_overlap: float) -> "TwoMixedFamily":
        """Invert ``(C, t)`` back to ``(p, theta)``.

        The post-measurement states of an equal-confidence step form the
        family member with the same confidence and the enlarged overlap,
        which is what this reconstructs."""
        c, t = float(confidence), float(signed_overlap)
        if not (0.5 <= c <= 1.0):
            raise ValueError(f"confidence of this family lies in [1/2, 1], got {c!r}")
        x = (2.0 * c - 1.0) * math.sqrt(1.0 - t * t)
        p = math.hypot(x, t)
        theta = math.atan2(x, t)
        return TwoMixedFamily(p=p, theta=theta)

    # -- chains ---------------------------------------------------------------

    def schedule(self, parties: int) -> GainSchedule:
        """The gain schedule maximizing the joint conclusive probability.

        Under the constraint ``prod_j (1 - G_j / C) = s`` the product of the
        gains is maximized by splitting evenly, ``G_j = C (1 - s^(1/R))``,
        giving ``P_J = C (1 - s^(1/R))^R`` and the overlap ladder
        ``s_j = s^(1 - (j-1)/R)``.  The all-inconclusive probability of the
        optimal chain is the initial overlap ``s`` itself.  ``s = 0`` is
        degenerate: every party takes the full gain ``C`` and the chain
        carries no inconclusive path (noted on the result).
        """
        c, s = self.confidence, self.overlap
        r = int(parties)
        if r < 1:
            raise ValueError("need at least one party")
        if s >= 1.0:
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

    def describe(self) -> dict[str, Any]:
        return {
            "family": "two_mixed",
            "p": self.p,
            "theta": self.theta,
            "confidence": self.confidence,
            "signed_overlap": self.signed_overlap,
            "overlap": self.overlap,
            "helstrom": self.helstrom,
            "projectors": [vector_to_json(v) for v in self.projector_vectors()],
        }

    def strategies(self, schedule: int | Sequence[float]) -> list[Strategy]:
        """The chain of ``schedule``: one equal-confidence party per index
        ``j`` (the projector plan of the module docstring), each reading the
        ensemble it is handed (so the chain is self-correcting, not
        open-loop).  Given per-party gains, party ``j`` extracts ``G_j``.
        Given a party count ``R``, the chain realises the joint-probability
        optimum: party ``j`` splits the overlap ``s_j`` it measures evenly
        over the parties left, ``G_j = C (1 - s_j^(1/(R-j+1)))``, the
        closed-form :meth:`schedule` in exact arithmetic, and never above the
        feasible ``C (1 - s_j)`` however far rounding moved ``s_j`` off the
        ladder."""
        gains = None if isinstance(schedule, int) else [float(g) for g in schedule]
        parties = schedule if gains is None else len(gains)

        def strat(e: Ensemble, j: int) -> PartyPlan:
            entries = _mcm.solve_mcm(e)
            c = min(entries[1].confidence, 1.0)
            phi1, phi2 = entries[1].basis[0], entries[2].basis[0]
            t = complex(np.vdot(phi1, phi2))
            s = abs(t)
            if s >= 1.0 - 1e-14:
                raise FeasibilityError("projector overlap is 1: the states are indistinguishable")
            if s > 0.0:
                phi2 = phi2 * (t.conjugate() / s)  # rephased: <phi1|phi2> = s
            gain = c * (1.0 - s ** (1.0 / (parties - j + 1))) if gains is None else gains[j - 1]
            a, s_new = _least_disturbing(c, s, gain)
            u = (phi1 + phi2) / float(np.linalg.norm(phi1 + phi2))
            w = (phi1 - phi2) / float(np.linalg.norm(phi1 - phi2))
            cu, cw = math.sqrt((1.0 + s_new) / 2.0), math.sqrt((1.0 - s_new) / 2.0)
            return projector_plan(
                {1: a, 2: a},
                {1: phi1, 2: phi2},
                targets={1: cw * u + cu * w, 2: cw * u - cu * w},
                extras={"gain_target": gain, "overlap": s, "overlap_next": s_new, "a": a},
            )

        return [strat] * parties

    def oracle(self, schedule: int | Sequence[float]) -> list[dict[str, float]]:
        """Closed forms of the chain of ``schedule``.  Every party sees
        confidence ``C``; gains ``G_j`` make the chain jointly conclusive
        with ``P_J = C prod_j (G_j / C)``, and a party count with the
        optimum's ``P_J`` of :meth:`schedule`."""
        c = self.confidence
        if isinstance(schedule, int):
            parties, p_joint = schedule, self.schedule(schedule).p_joint
        else:
            parties, p_joint = len(schedule), c * math.prod(g / c for g in schedule)
        out = [{"confidence_1": c, "confidence_2": c} for _ in range(parties)]
        out[-1]["p_joint"] = p_joint
        return out


def two_mixed(p: float, theta: float) -> TwoMixedFamily:
    """Two equiprobable mixtures of mirror-symmetric pure qubit states."""
    return TwoMixedFamily(p=p, theta=theta)


# ===========================================================================
# lifted geometrically uniform states
# ===========================================================================


@dataclass(frozen=True)
class LiftedGuFamily:
    """GU phases at polar angle ``theta`` with visibility ``lam``.

    ``theta`` is restricted to ``(0, pi/2]``; ``lam = 1, theta = pi/2``
    is :func:`gu`.  The average state is
    ``diag(1 + cos t, 1 - cos t)/2`` independent of ``lam``, which is why
    the whole chain analysis reduces to one visibility contraction.  A
    party measures the :meth:`measurement_vector` states at weight
    :attr:`full_weight` times its weakening, and :meth:`plan` builds it.
    """

    n: int
    theta: float
    lam: float

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"need at least 2 states, got {self.n!r}")
        if not (0.0 < self.theta <= math.pi / 2.0):
            raise ValueError(f"theta must be in (0, pi/2], got {self.theta!r}")
        if not (0.0 <= self.lam <= 1.0):
            raise ValueError(f"visibility must be in [0, 1], got {self.lam!r}")

    def phase(self, x: int) -> float:
        """Phase of label ``x`` in ``[0, 2 pi)``; label ``n`` has phase 0."""
        return 2.0 * math.pi * (x % self.n) / self.n

    def state_vector(self, x: int) -> np.ndarray:
        c, s = math.cos(self.theta / 2.0), math.sin(self.theta / 2.0)
        return np.array([c, s * cmath.exp(1j * self.phase(x))], dtype=complex)

    def average(self) -> DensityMatrix:
        c = math.cos(self.theta)
        return DensityMatrix(np.diag([(1.0 + c) / 2.0, (1.0 - c) / 2.0]).astype(complex))

    def state(self, x: int) -> DensityMatrix:
        return self.ensemble().state(x)

    def ensemble(self) -> Ensemble:
        """``lam |psi_x><psi_x| + (1 - lam) rho_avg`` for each label, one stack."""
        avg = self.average().mat
        mats = [
            self.lam * _projector(self.state_vector(x)) + (1.0 - self.lam) * avg
            for x in range(1, self.n + 1)
        ]
        return Ensemble(priors=(1.0 / self.n,) * self.n, states=DensityMatrix.stack(mats))

    # -- closed forms -----------------------------------------------------------

    @property
    def confidence(self) -> float:
        return (1.0 + self.lam) / self.n

    def measurement_vector(self, x: int) -> np.ndarray:
        """Optimal projector vector: the state vector with its polar angle
        mirrored through the equator."""
        c, s = math.cos(self.theta / 2.0), math.sin(self.theta / 2.0)
        return np.array([s, c * cmath.exp(1j * self.phase(x))], dtype=complex)

    @property
    def full_weight(self) -> float:
        """Weight of the rate-optimal full-strength measurement."""
        return 2.0 / (self.n * (1.0 + math.cos(self.theta)))

    @property
    def eta0_floor(self) -> float:
        """Smallest achievable inconclusive rate, ``cos(theta)``."""
        return math.cos(self.theta)

    def purity(self) -> float:
        """``(1 + lam^2 sin^2 t + cos^2 t)/2`` for every state."""
        return 0.5 * (
            1.0 + self.lam**2 * math.sin(self.theta) ** 2 + math.cos(self.theta) ** 2
        )

    # -- sequential closed forms (n >= 3) ----------------------------------------

    def _require_sequential(self) -> None:
        if self.n < 3:
            raise ValueError("sequential closed forms require n >= 3")
        if math.cos(self.theta) == 1.0:  # 1 - cos(theta) and Delta lose every digit
            raise ValueError(f"sequential closed forms require cos(theta) < 1, got {self.theta!r}")

    def delta(self, eta0: float) -> float:
        """Per-step visibility contraction at inconclusive rate ``eta0``."""
        c, s = math.cos(self.theta), math.sin(self.theta)
        if eta0 < c - 1e-12:
            raise InfeasibleRateError(
                f"inconclusive rate {eta0!r} below the floor cos(theta) = {c!r}"
            )
        if eta0 > 1.0:
            raise InfeasibleRateError(f"inconclusive rate {eta0!r} above 1")
        eta0 = max(float(eta0), c)
        return (0.5 * (1.0 - eta0) + math.sqrt(max(eta0 * eta0 - c * c, 0.0))) / s

    def visibility_at(self, j: int, eta0s: Sequence[float]) -> float:
        self._require_sequential()
        lam = self.lam
        for k in range(j - 1):
            lam *= self.delta(float(eta0s[k]))
        return lam

    def confidence_at(self, j: int, eta0s: Sequence[float]) -> float:
        return (1.0 + self.visibility_at(j, eta0s)) / self.n

    def disturbance_at(self, eta0: float) -> float:
        """Per-state disturbance of the optimal step,
        ``lam sin(theta) (1 - Delta)`` (trace norm without 1/2)."""
        return self.lam * math.sin(self.theta) * (1.0 - self.delta(eta0))

    def party_bound(self, c_threshold: float, eta0: float) -> float:
        """Real-valued upper bound on the number of parties that can each
        reach confidence ``c_threshold`` at fixed rate ``eta0``:
        ``R <= 1 + log((n C - 1)/lam) / log Delta``."""
        self._require_sequential()
        target = self.n * float(c_threshold) - 1.0
        if target <= 0.0:
            return math.inf
        if target > self.lam:
            return 0.0
        d = self.delta(eta0)
        if d >= 1.0:
            return math.inf
        return 1.0 + math.log(target / self.lam) / math.log(d)

    def max_parties(self, c_threshold: float, eta0: float) -> int:
        bound = self.party_bound(c_threshold, eta0)
        if math.isinf(bound):
            raise ValueError("threshold is reachable by arbitrarily many parties")
        return int(math.floor(bound + 1e-12))

    def contracted(self, eta0: float) -> "LiftedGuFamily":
        """The family one optimal step maps this one to."""
        self._require_sequential()
        return LiftedGuFamily(n=self.n, theta=self.theta, lam=self.lam * self.delta(eta0))

    # -- channel construction ------------------------------------------------------

    def plan(self, eta0: float, retarget_polar: float = math.pi / 2.0) -> PartyPlan:
        """The party at rate ``eta0``: the rate-optimal measurement (weights
        :attr:`full_weight`) weakened by ``(1 - eta0) / (1 - cos theta)``,
        collapsing onto states at polar angle ``retarget_polar`` (pi/2 — the
        equator — is the least-disturbing choice; other angles exist for
        comparison).  At the floor ``eta0 = cos theta`` it is the full
        measurement."""
        delta = self.delta(eta0)  # refuses a rate outside [cos theta, 1]
        c = math.cos(self.theta)
        w = (1.0 - max(float(eta0), c)) / (1.0 - c) * self.full_weight
        cr, sr = math.cos(retarget_polar / 2.0), math.sin(retarget_polar / 2.0)
        labels = range(1, self.n + 1)
        return projector_plan(
            {x: w for x in labels},
            {x: self.measurement_vector(x) for x in labels},
            targets={
                x: np.array([cr, sr * cmath.exp(1j * self.phase(x))], dtype=complex)
                for x in labels
            },
            extras={"eta0_target": float(eta0), "visibility": self.lam, "delta": delta},
        )

    def describe(self) -> dict[str, Any]:
        return {
            "family": "lifted_gu",
            "n": self.n,
            "theta": self.theta,
            "lam": self.lam,
            "confidence": self.confidence,
            "full_weight": self.full_weight,
            "eta0_floor": self.eta0_floor,
            "purity": self.purity(),
            "measurement_vectors": [
                vector_to_json(
                    self.measurement_vector(x) / np.linalg.norm(self.measurement_vector(x))
                )
                for x in range(1, self.n + 1)
            ],
        }

    def strategies(self, eta0s: Sequence[float], retarget: float | None = None) -> list[Strategy]:
        """Per-party optimal steps at the given inconclusive rates.

        Each party reads the current visibility off the ensemble it is
        handed (Bloch radius of any state, deflated by ``sin theta``), so
        the chain needs no shared mutable state.  A ``retarget`` polar
        angle overrides the equatorial collapse (``None``) for comparison
        runs."""
        self._require_sequential()
        rates = [float(v) for v in eta0s]
        retarget_polar = math.pi / 2.0 if retarget is None else float(retarget)

        def strat(e: Ensemble, j: int) -> PartyPlan:
            b = e.state(self.n).bloch()  # label n sits at azimuth 0 (phase 0)
            lam_now = float(math.hypot(b[0], b[1])) / math.sin(self.theta)
            fam = LiftedGuFamily(n=self.n, theta=self.theta, lam=min(lam_now, 1.0))
            return fam.plan(rates[j - 1], retarget_polar)

        return [strat] * len(rates)

    def oracle(self, eta0s: Sequence[float]) -> list[dict[str, float]]:
        """Closed forms of the chain :meth:`strategies` builds at ``eta0s``:
        each party's confidence (every label's) and the disturbance
        :meth:`disturbance_at` of its step, at the visibility it receives."""
        self._require_sequential()
        out, party = [], self
        for eta0 in eta0s:
            row = {f"confidence_{x}": party.confidence for x in range(1, self.n + 1)}
            row["disturbance"] = party.disturbance_at(eta0)
            out.append(row)
            party = party.contracted(eta0)
        return out


def lifted_gu(n: int, theta: float, lam: float) -> LiftedGuFamily:
    """GU phases lifted off the equator with reduced visibility."""
    return LiftedGuFamily(n=n, theta=theta, lam=lam)


def gu(n: int) -> LiftedGuFamily:
    """Geometrically uniform equatorial qubit family: the pure equatorial
    member ``lifted_gu(n, pi/2, 1)``."""
    return LiftedGuFamily(n=n, theta=math.pi / 2.0, lam=1.0)


# ===========================================================================
# mirror-symmetric triple
# ===========================================================================


@dataclass(frozen=True)
class MirrorState:
    """The three-parameter description every mirror chain stays inside:
    label 1 on the +X axis with Bloch radius ``r1``, labels 2 and 3 at
    azimuths ``+-theta`` with common radius ``r2``."""

    r1: float
    r2: float
    theta: float

    def __post_init__(self) -> None:
        for name, v in (("r1", self.r1), ("r2", self.r2)):
            if not (0.0 <= v <= 1.0 + 1e-12):
                raise FeasibilityError(f"{name} = {v!r} is not a Bloch radius")
        if not (1e-6 <= self.theta <= math.pi - 1e-6):
            raise FeasibilityError(
                f"theta must be in (0, pi) and away from the endpoints, got {self.theta!r}"
            )

    @property
    def kbar(self) -> float:
        """Three times the average Bloch X component, ``r1 + 2 r2 cos theta``."""
        return self.r1 + 2.0 * self.r2 * math.cos(self.theta)

    def blochs(self) -> list[np.ndarray]:
        return [
            np.array([self.r1, 0.0, 0.0]),
            np.array(
                [self.r2 * math.cos(self.theta), self.r2 * math.sin(self.theta), 0.0]
            ),
            np.array(
                [self.r2 * math.cos(self.theta), -self.r2 * math.sin(self.theta), 0.0]
            ),
        ]

    def ensemble(self) -> Ensemble:
        states = DensityMatrix.stack([_bloch_matrix(b) for b in self.blochs()])
        return Ensemble(priors=(1 / 3, 1 / 3, 1 / 3), states=states)

    def purity(self) -> tuple[float, float]:
        """Purity of state 1 and of states 2/3."""
        return 0.5 * (1.0 + self.r1**2), 0.5 * (1.0 + self.r2**2)


def mirror_state_of(e: Ensemble) -> MirrorState:
    """Read the ``(r1, r2, theta)`` description off a mirror ensemble.

    Validates the symmetry pattern (label 1 on +X, labels 2/3 mirror
    images on the equator) to 1e-8 before trusting it; a chain that left
    the pattern gets a :class:`FeasibilityError`.
    """
    if e.n != 3 or e.dim != 2:
        raise ValueError("mirror ensembles have exactly three qubit states")
    b1, b2, b3 = (e.state(x).bloch() for x in (1, 2, 3))
    if abs(b1[1]) > 1e-8 or abs(b1[2]) > 1e-8 or b1[0] < -1e-12:
        raise FeasibilityError("state 1 is not on the +X axis")
    if abs(b2[2]) > 1e-8 or abs(b3[2]) > 1e-8:
        raise FeasibilityError("states 2/3 are not on the equator")
    if abs(b2[0] - b3[0]) > 1e-8 or abs(b2[1] + b3[1]) > 1e-8:
        raise FeasibilityError("states 2/3 are not mirror images")
    r1 = float(b1[0])
    r2 = float(math.hypot(b2[0], b2[1]))
    theta = float(math.atan2(b2[1], b2[0]))
    return MirrorState(r1=r1, r2=r2, theta=theta)


@dataclass(frozen=True)
class MirrorMcm:
    """Maximum-confidence data of a mirror triple: measurement azimuth
    ``phi`` (labels 2/3 measure at ``+-phi``, label 1 at 0), weights of
    the complete POVM, and the two distinct confidences."""

    phi: float
    c1: float
    c2: float
    a1: float
    a2: float


def pure_mirror_phi(theta: float) -> float:
    """Closed-form optimal azimuth for the *pure* triple (``r1 = r2 = 1``):
    ``cos phi = (-4 + cos t + 2 cos 2t + cos 3t) / (6 - 2 cos t - 4 cos 2t)``."""
    num = -4.0 + math.cos(theta) + 2.0 * math.cos(2.0 * theta) + math.cos(3.0 * theta)
    den = 6.0 - 2.0 * math.cos(theta) - 4.0 * math.cos(2.0 * theta)
    return math.acos(max(-1.0, min(1.0, num / den)))


def mirror_confidence2(ms: MirrorState, phi: float) -> float:
    """Confidence of label 2 measured at azimuth ``phi``:
    ``(1 + r2 cos(phi - theta)) / (3 + kbar cos phi)``."""
    return (1.0 + ms.r2 * math.cos(phi - ms.theta)) / (3.0 + ms.kbar * math.cos(phi))


def mirror_mcm(ms: MirrorState) -> MirrorMcm:
    """Solve the mirror maximum-confidence problem in closed form.

    Label 1's optimal projector sits at azimuth 0 provided
    ``r1 > r2 cos theta`` (a :class:`FeasibilityError` otherwise; chains
    at the closed-form collapse stay in that regime), giving
    ``C1 = (1 + r1)/(3 + kbar)``.
    The common azimuth of labels 2/3 maximizes :func:`mirror_confidence2`.
    The numerator of its derivative is ``A sin phi + B cos phi + C`` with
    ``A = kbar - 3 r2 cos theta``, ``B = 3 r2 sin theta`` and
    ``C = kbar r2 sin theta``: positive at ``phi = 0``, negative at
    ``phi = pi``, so its one root in ``(0, pi)`` is the maximum,
    ``phi = pi + asin(C / hypot(A, B)) - atan2(B, A)`` (mod ``2 pi``).
    Completeness then fixes the weights: ``a2 = a3 = 1/(1 - cos phi)``,
    ``a1 = -2 cos phi a2``.
    """
    if ms.r1 <= ms.r2 * math.cos(ms.theta) + 1e-12:
        raise FeasibilityError(
            "label 1's projector leaves the +X axis when r1 <= r2 cos theta; "
            "this configuration is outside the mirror chain analysis"
        )
    k = ms.kbar
    c1 = (1.0 + ms.r1) / (3.0 + k)
    a = k - 3.0 * ms.r2 * math.cos(ms.theta)
    b = 3.0 * ms.r2 * math.sin(ms.theta)
    c = k * ms.r2 * math.sin(ms.theta)
    phi = (math.pi + math.asin(c / math.hypot(a, b)) - math.atan2(b, a)) % (2.0 * math.pi)
    c2 = mirror_confidence2(ms, phi)

    a2 = 1.0 / (1.0 - math.cos(phi))
    a1 = -2.0 * math.cos(phi) * a2
    if a1 < -1e-10:
        raise FeasibilityError(
            f"optimal azimuth {phi!r} has cos phi > 0; the three-outcome "
            "complete measurement does not exist here"
        )
    return MirrorMcm(phi=phi, c1=c1, c2=c2, a1=max(a1, 0.0), a2=a2)


def mirror_retarget(ms: MirrorState, phi: float) -> float:
    """Least-disturbing collapse azimuth for measurement azimuth ``phi``:
    ``cos r = (3 cos phi + kbar) / (3 + kbar cos phi)`` — independent of
    the weakening strength.  At the trine point (``kbar = 0``) the
    collapse simply reproduces the measurement azimuth."""
    k = ms.kbar
    val = (3.0 * math.cos(phi) + k) / (3.0 + k * math.cos(phi))
    return math.acos(max(-1.0, min(1.0, val)))


def mirror_plan(ms: MirrorState, eta0: float, retarget_azimuth: float | None = None) -> PartyPlan:
    """The mirror party at rate ``eta0``: the complete :func:`mirror_mcm`
    measurement weakened by ``1 - eta0`` (``eta0 = 0`` is full strength).

    Label 1 collapses to azimuth 0 and labels 2/3 to ``+-ra``, where ``ra``
    is ``retarget_azimuth`` or else the closed-form :func:`mirror_retarget`.
    The extras record the rate, ``phi``, ``ra`` and the measured
    ``(r1, r2, theta)``.
    """
    if not (0.0 <= eta0 <= 1.0):
        raise InfeasibleRateError(f"inconclusive rate {eta0!r} outside [0, 1]")
    sol = mirror_mcm(ms)
    ra = mirror_retarget(ms, sol.phi) if retarget_azimuth is None else float(retarget_azimuth)
    w = 1.0 - eta0
    return projector_plan(
        {1: w * sol.a1, 2: w * sol.a2, 3: w * sol.a2},
        {1: _equator(0.0), 2: _equator(sol.phi), 3: _equator(-sol.phi)},
        targets={2: _equator(ra), 3: _equator(-ra)},
        extras={
            "eta0_target": float(eta0),
            "phi": sol.phi,
            "retarget": ra,
            "r1": ms.r1,
            "r2": ms.r2,
            "theta": ms.theta,
        },
    )


def mirror_step(ms: MirrorState, eta0: float) -> MirrorState:
    """Closed-form Bloch recursion for one weakened mirror step.

    With measurement azimuth ``phi``, collapse azimuth ``r``, weights
    ``a_x`` and uniform weakening ``1 - eta0``, the outcome-averaged state
    of label 1 stays on the +X axis and labels 2/3 stay mirror images;
    the new description follows from collecting Bloch components of
    ``sum_y (1-eta0) a_y <m_y|rho_x|m_y> P[t_y] + eta0 rho_x``.
    """
    sol = mirror_mcm(ms)
    phi = sol.phi
    ra = mirror_retarget(ms, phi)
    a1, a2 = sol.a1, sol.a2
    w = 1.0 - eta0

    u1 = a1 * 0.5 * (1.0 + ms.r1)
    u2 = a2 * 0.5 * (1.0 + ms.r1 * math.cos(phi))
    r1_new = eta0 * ms.r1 + w * (u1 + 2.0 * u2 * math.cos(ra))

    v1 = a1 * 0.5 * (1.0 + ms.r2 * math.cos(ms.theta))
    v2 = a2 * 0.5 * (1.0 + ms.r2 * math.cos(phi - ms.theta))
    v3 = a2 * 0.5 * (1.0 + ms.r2 * math.cos(phi + ms.theta))
    x_new = eta0 * ms.r2 * math.cos(ms.theta) + w * (v1 + (v2 + v3) * math.cos(ra))
    y_new = eta0 * ms.r2 * math.sin(ms.theta) + w * (v2 - v3) * math.sin(ra)

    return MirrorState(
        r1=min(r1_new, 1.0),
        r2=min(float(math.hypot(x_new, y_new)), 1.0),
        theta=float(math.atan2(y_new, x_new)),
    )


@dataclass(frozen=True)
class MirrorFamily:
    """Pure mirror triple at azimuths ``0, +theta, -theta``."""

    theta: float

    def __post_init__(self) -> None:
        self.initial()  # MirrorState checks theta

    def initial(self) -> MirrorState:
        return MirrorState(r1=1.0, r2=1.0, theta=self.theta)

    def ensemble(self) -> Ensemble:
        return self.initial().ensemble()

    def trajectory(self, eta0s: Sequence[float]) -> list[MirrorState]:
        """States seen by parties 1..R+1 under the closed-form recursion."""
        out = [self.initial()]
        for eta0 in eta0s:
            out.append(mirror_step(out[-1], float(eta0)))
        return out

    def describe(self) -> dict[str, Any]:
        ms = self.initial()
        sol = mirror_mcm(ms)
        return {
            "family": "mirror",
            "theta": self.theta,
            "phi": sol.phi,
            "phi_closed_form_pure": pure_mirror_phi(self.theta),
            "c1": sol.c1,
            "c2": sol.c2,
            "weights": {"1": sol.a1, "2": sol.a2, "3": sol.a2},
            "retarget": mirror_retarget(ms, sol.phi),
            "trichotomy": "sign(theta_next - theta) = sign(theta - 2*pi/3)",
        }

    def strategies(self, eta0s: Sequence[float], retarget: float | None = None) -> list[Strategy]:
        """One weakened-measurement party per rate; a ``retarget`` azimuth
        overrides the closed-form collapse azimuth for comparison runs."""
        rates = [float(v) for v in eta0s]

        def strat(e: Ensemble, j: int) -> PartyPlan:
            return mirror_plan(mirror_state_of(e), rates[j - 1], retarget)

        return [strat] * len(rates)

    def oracle(self, eta0s: Sequence[float]) -> list[dict[str, float]]:
        """Closed forms of the chain :meth:`strategies` builds at ``eta0s``:
        the :meth:`trajectory` state each party receives and its
        :func:`mirror_mcm` confidences."""
        out = []
        for ms in self.trajectory(list(eta0s)[:-1]):
            sol = mirror_mcm(ms)
            out.append({"confidence_1": sol.c1, "confidence_2": sol.c2, "confidence_3": sol.c2,
                        "r1": ms.r1, "r2": ms.r2, "theta": ms.theta})
        return out


def mirror(theta: float) -> MirrorFamily:
    """Pure mirror-symmetric triple with half-angle ``theta``."""
    return MirrorFamily(theta=theta)
