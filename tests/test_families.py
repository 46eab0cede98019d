"""Closed-form family tests, each cross-checked against the generic
solver: two noisy mirror-symmetric states, geometrically uniform (GU)
equatorial states, GU states lifted off the equator, and the
mirror-symmetric triple.

Run with:  pytest tests/test_families.py -v
"""

import csv
import io
import json
import math

import numpy as np
import pytest

from seqmcm import cli, mcm, optim, qcore, seqchan
from seqmcm.families import (
    InfeasibleRateError,
    MirrorState,
    TwoMixedFamily,
    gu,
    lifted_gu,
    mirror,
    mirror_confidence2,
    mirror_mcm,
    mirror_plan,
    mirror_retarget,
    mirror_state_of,
    mirror_step,
    pure_mirror_phi,
    two_mixed,
)
from seqmcm.qcore import FeasibilityError, validate_povm
from seqmcm.seqchan import StrategyInfeasibleError, run_sequence

TRINE = 2.0 * math.pi / 3.0


# ===========================================================================
# closed forms the package does not need, kept here as references
# ===========================================================================


def decomposition_residual(fam: TwoMixedFamily, x: int) -> float:
    """Residual of ``rho_x = C P[phi_xbar^perp] + (1-C) P[phi_x^perp]``, with
    ``phi_x`` the family's optimal measurement vectors."""
    perp = {
        label: np.array([phi[1].conjugate(), -phi[0].conjugate()])
        for label, phi in zip((1, 2), fam.projector_vectors())
    }
    other = 2 if x == 1 else 1
    c = fam.confidence
    recon = c * np.outer(perp[other], perp[other].conj()) + (1.0 - c) * np.outer(
        perp[x], perp[x].conj()
    )
    return float(np.max(np.abs(recon - fam.ensemble().state(x).mat)))


def pure_mirror_confidences(theta: float) -> tuple[float, float]:
    """``C1 = 1/(2 + cos t)`` and ``C2 = C3 = (3 + 2 cos t)/(4 + 2 cos t)``
    of the pure mirror triple, in the regime where label 1's projector
    stays on the +X axis."""
    c = math.cos(theta)
    return 1.0 / (2.0 + c), (3.0 + 2.0 * c) / (4.0 + 2.0 * c)


def mirror_stationarity(ms: MirrorState, phi: float) -> float:
    """Numerator of d/dphi of :func:`mirror_confidence2` (same zeros), in
    unexpanded form: the independent reference for :func:`mirror_mcm`."""
    k = ms.kbar
    return -ms.r2 * math.sin(phi - ms.theta) * (3.0 + k * math.cos(phi)) + (
        1.0 + ms.r2 * math.cos(phi - ms.theta)
    ) * k * math.sin(phi)


# ===========================================================================
# the chain protocol every family offers
# ===========================================================================

# family -> (its --params, two schedules); a two_mixed party count stands
# for its joint-probability optimum
ORACLE_CASES = {
    "two_mixed": ({"p": 0.8, "theta": 1.0}, [3, [0.1, 0.05]]),
    "gu": ({"n": 4}, [[0.2, 0.5, 0.7], [0.9] * 5]),
    "lifted_gu": ({"n": 3, "theta": 1.0, "lam": 0.85}, [[0.75], [0.8, 0.7, 0.9]]),
    "mirror": ({"theta": 1.9}, [[0.9, 0.9, 0.9], [0.3, 0.5, 0.7, 0.6]]),
}


@pytest.mark.parametrize("name", list(cli.FAMILIES))
def test_oracle_matches_its_chain(name):
    """``oracle(schedule)`` names, per party, quantities of the trace CSV of
    ``run_sequence(strategies(schedule))``, every label's confidence among
    them, and agrees with each within 1e-9 (``p_joint`` on the last party,
    where the CSV puts it)."""
    assert set(ORACLE_CASES) == set(cli.FAMILIES)
    params, schedules = ORACLE_CASES[name]
    fam = cli.FAMILIES[name].build(params)
    for schedule in schedules:
        trace = run_sequence(fam.ensemble(), fam.strategies(schedule))
        table = list(csv.DictReader(io.StringIO(seqchan.trace_to_csv(trace))))
        closed = fam.oracle(schedule)
        assert len(closed) == len(table) == trace.parties
        for row, quantities in zip(table, closed):
            assert {f"confidence_{x}" for x in fam.ensemble().labels} <= set(quantities)
            for quantity, value in quantities.items():
                assert abs(float(row[quantity]) - value) <= 1e-9, (schedule, row["party"], quantity)
        assert ("p_joint" in closed[-1]) == (name == "two_mixed")


# ===========================================================================
# two noisy states
# ===========================================================================


class TestTwoMixedClosedForms:
    def test_confidence_against_solver(self):
        rng = np.random.default_rng(101)
        for _ in range(30):
            p = float(rng.uniform(0.05, 1.0))
            theta = float(rng.uniform(0.05, math.pi - 0.05))
            fam = two_mixed(p, theta)
            entries = mcm.solve_mcm(fam.ensemble())
            for x in (1, 2):
                np.testing.assert_allclose(
                    entries[x].confidence, fam.confidence, atol=1e-10
                )

    def test_pure_limit_certain(self):
        for theta in (0.2, 1.0, math.pi / 2, 2.8):
            fam = two_mixed(1.0, theta)
            assert fam.confidence == 1.0
            entry = mcm.max_confidence(fam.ensemble(), 1)
            np.testing.assert_allclose(entry.confidence, 1.0, atol=1e-12)

    def test_projector_vectors_match_solver(self):
        rng = np.random.default_rng(102)
        for _ in range(20):
            fam = two_mixed(
                float(rng.uniform(0.1, 0.99)), float(rng.uniform(0.2, math.pi - 0.2))
            )
            entries = mcm.solve_mcm(fam.ensemble())
            v1, v2 = fam.projector_vectors()
            for x, v in ((1, v1), (2, v2)):
                got = entries[x].basis[0]
                np.testing.assert_allclose(abs(np.vdot(got, v)), 1.0, atol=1e-9)

    def test_signed_overlap(self):
        fam = two_mixed(0.8, math.pi / 3)
        np.testing.assert_allclose(
            fam.signed_overlap, 0.8 * math.cos(math.pi / 3), atol=1e-15
        )
        v1, v2 = fam.projector_vectors()
        np.testing.assert_allclose(
            float(np.real(np.vdot(v1, v2))), fam.signed_overlap, atol=1e-12
        )
        # obtuse separation: the projectors acquire a negative overlap
        fam2 = two_mixed(0.8, 2.5)
        assert fam2.signed_overlap < 0
        np.testing.assert_allclose(fam2.overlap, -fam2.signed_overlap, atol=0.0)

    def test_state_decomposition(self):
        """rho_x = C P[phi_xbar^perp] + (1 - C) P[phi_x^perp]: each state is
        the confidence-weighted mix of the two anti-projectors."""
        rng = np.random.default_rng(103)
        for _ in range(20):
            fam = two_mixed(
                float(rng.uniform(0.1, 0.99)), float(rng.uniform(0.2, math.pi - 0.2))
            )
            assert decomposition_residual(fam, 1) < 1e-12
            assert decomposition_residual(fam, 2) < 1e-12

    def test_projector_orientation_matches_solver(self):
        """v1 is the solver's phase-fixed vector and v2 is the solver's
        vector times -1, on both sides of theta = pi/2."""
        for theta in (math.pi / 3, 2.5):
            fam = two_mixed(0.8, theta)
            entries = mcm.solve_mcm(fam.ensemble())
            v1, v2 = fam.projector_vectors()
            np.testing.assert_allclose(v1, entries[1].basis[0], atol=1e-9)
            np.testing.assert_allclose(v2, -entries[2].basis[0], atol=1e-9)

    @pytest.mark.parametrize("theta", [math.pi / 3, 2.5])
    def test_cli_family_projectors_carry_signed_overlap(self, theta, capsys):
        """`seqmcm family --family two_mixed` prints projectors whose inner
        product is the signed_overlap it prints next to them."""
        params = json.dumps({"p": 0.8, "theta": theta})
        assert cli.main(["family", "--family", "two_mixed", "--params", params]) == 0
        doc = json.loads(capsys.readouterr().out)
        p1, p2 = (np.array([complex(*z) for z in v["entries"]]) for v in doc["projectors"])
        np.testing.assert_allclose(
            float(np.real(np.vdot(p1, p2))), doc["signed_overlap"], atol=1e-12
        )
        assert (doc["signed_overlap"] < 0) == (theta > math.pi / 2)

    def test_worked_example(self):
        fam = two_mixed(0.8, math.pi / 3)
        np.testing.assert_allclose(fam.confidence, 0.8779644730092273, atol=1e-15)
        np.testing.assert_allclose(fam.helstrom, 0.8464101615137755, atol=1e-15)
        np.testing.assert_allclose(fam.overlap, 0.4, atol=1e-15)

    def test_helstrom_against_solver(self):
        rng = np.random.default_rng(104)
        for _ in range(15):
            fam = two_mixed(
                float(rng.uniform(0.1, 1.0)), float(rng.uniform(0.2, math.pi - 0.2))
            )
            got = optim.min_error_guessing(fam.ensemble())
            np.testing.assert_allclose(got, fam.helstrom, atol=1e-10)

    def test_confidence_dominates_helstrom(self):
        """C >= P_guess, equality exactly on the orthogonal axis
        theta = pi/2."""
        rng = np.random.default_rng(105)
        for _ in range(30):
            fam = two_mixed(
                float(rng.uniform(0.05, 1.0)), float(rng.uniform(0.05, math.pi - 0.05))
            )
            assert fam.confidence >= fam.helstrom - 1e-15
        fam = two_mixed(0.7, math.pi / 2)
        np.testing.assert_allclose(fam.confidence, fam.helstrom, atol=1e-15)

    def test_inversion_round_trip(self):
        rng = np.random.default_rng(106)
        for _ in range(30):
            p = float(rng.uniform(0.05, 1.0))
            theta = float(rng.uniform(0.05, math.pi - 0.05))
            fam = two_mixed(p, theta)
            back = TwoMixedFamily.from_confidence_overlap(
                fam.confidence, fam.signed_overlap
            )
            np.testing.assert_allclose(back.p, p, atol=1e-12)
            np.testing.assert_allclose(back.theta, theta, atol=1e-12)

    def test_inversion_identifies_post_step_ensemble(self):
        """After an equal-confidence step the two output states form the
        family member with the same confidence and the enlarged overlap.
        Unitary invariants (purities, pairwise state overlap) must agree."""
        fam = two_mixed(0.8, math.pi / 3)
        e = fam.ensemble()
        entries = mcm.solve_mcm(e)
        c = entries[1].confidence
        s = fam.overlap
        gain = 0.45 * c * (1 - s)
        channel = fam.strategies([gain])[0](e, 1).channel
        out = channel.apply_ensemble(e)
        t_next = fam.signed_overlap / (1.0 - gain / c)
        rebuilt = TwoMixedFamily.from_confidence_overlap(c, t_next).ensemble()
        for x in (1, 2):
            np.testing.assert_allclose(
                out.state(x).purity(), rebuilt.state(x).purity(), atol=1e-10
            )
        hs = float(np.real(np.trace(out.state(1).mat @ out.state(2).mat)))
        hs_r = float(np.real(np.trace(rebuilt.state(1).mat @ rebuilt.state(2).mat)))
        np.testing.assert_allclose(hs, hs_r, atol=1e-10)

    def test_validation(self):
        with pytest.raises(ValueError):
            two_mixed(0.0, 1.0)
        with pytest.raises(ValueError):
            two_mixed(1.2, 1.0)
        with pytest.raises(ValueError):
            two_mixed(0.5, 0.0)
        with pytest.raises(ValueError):
            TwoMixedFamily.from_confidence_overlap(0.4, 0.2)


class TestTwoMixedChains:
    def test_schedule_delegates(self):
        fam = two_mixed(0.8, math.pi / 3)
        sched = fam.schedule(3)
        want = optim.optimal_joint_schedule(fam.confidence, fam.overlap, 3)
        assert sched == want

    def test_equal_confidence_chain(self):
        """Every party of the optimal chain sees the same confidence, and
        the chain realizes the scheduled joint probabilities."""
        fam = two_mixed(0.8, math.pi / 3)
        sched = fam.schedule(3)
        trace = run_sequence(fam.ensemble(), fam.strategies(3))
        series = trace.confidences(1)
        assert max(series) - min(series) < 1e-10
        np.testing.assert_allclose(series[0], fam.confidence, atol=1e-12)
        np.testing.assert_allclose(trace.p_joint, sched.p_joint, atol=1e-9)
        np.testing.assert_allclose(trace.p_inconclusive, fam.overlap, atol=1e-9)

    def test_overlap_ladder_recorded(self):
        fam = two_mixed(0.7, 1.9)
        sched = fam.schedule(4)
        trace = run_sequence(fam.ensemble(), fam.strategies(4))
        for rec, want in zip(trace.records, sched.overlaps):
            np.testing.assert_allclose(rec.extras["overlap"], want, atol=1e-9)

    def test_near_orthogonal_chain_follows_schedule(self):
        """At overlap 1e-6 the overlap each party measures drifts off the
        closed-form ladder by more than the gain tolerance allows; gains
        read from the measured overlap keep the chain feasible and on
        the scheduled joint probability."""
        fam = two_mixed(1.0, math.pi / 2 - 1e-6)
        trace = run_sequence(fam.ensemble(), fam.strategies(6))
        assert abs(trace.p_joint - fam.schedule(6).p_joint) < 1e-9

    def test_infeasible_gain_names_party(self):
        fam = two_mixed(0.8, math.pi / 3)
        good = fam.schedule(2).gains[0]
        strategies = fam.strategies([good, fam.confidence * 2.0])
        with pytest.raises(StrategyInfeasibleError) as exc:
            run_sequence(fam.ensemble(), strategies)
        assert exc.value.party == 2


# ===========================================================================
# geometrically uniform states
# ===========================================================================


class TestGuFamily:
    def test_is_lifted_gu_at_equator(self):
        for n in range(2, 7):
            assert gu(n) == lifted_gu(n, math.pi / 2, 1.0)

    def test_ensemble_geometry(self):
        fam = gu(4)
        e = fam.ensemble()
        assert e.n == 4 and e.dim == 2
        for x in e.labels:
            b = e.state(x).bloch()
            np.testing.assert_allclose(b[2], 0.0, atol=1e-12)  # equatorial
            np.testing.assert_allclose(np.linalg.norm(b), 1.0, atol=1e-12)  # pure
            np.testing.assert_allclose(
                math.atan2(b[1], b[0]) % (2 * math.pi),
                fam.phase(x) % (2 * math.pi),
                atol=1e-12,
            )

    def test_phases_reduced(self):
        """Phases lie in [0, 2 pi) and label n (phase 0) is exactly real."""
        for n in range(2, 7):
            fam = gu(n)
            for x in range(1, n + 1):
                assert 0.0 <= fam.phase(x) < 2.0 * math.pi
            assert fam.phase(n) == 0.0
            assert np.all(fam.state_vector(n).imag == 0.0)

    def test_confidence_against_solver(self):
        for n in (2, 3, 4, 5, 6):
            fam = gu(n)
            assert fam.confidence == 2.0 / n
            entries = mcm.solve_mcm(fam.ensemble())
            for x in fam.ensemble().labels:
                np.testing.assert_allclose(
                    entries[x].confidence, 2.0 / n, atol=1e-10
                )

    def test_optimal_vectors_are_the_states(self):
        """For GU states the maximum-confidence projectors coincide with
        the states themselves."""
        fam = gu(5)
        entries = mcm.solve_mcm(fam.ensemble())
        for x in range(1, 6):
            np.testing.assert_allclose(
                abs(np.vdot(entries[x].basis[0], fam.state_vector(x) / math.sqrt(2) * math.sqrt(2) / np.linalg.norm(fam.state_vector(x)))),
                1.0,
                atol=1e-9,
            )

    def test_full_povm_complete(self):
        """The full-strength party measures ``(2/n) |psi_x><psi_x|``, a
        complete measurement with an identically-zero inconclusive element."""
        for n in (3, 4, 5):
            povm = gu(n).plan(0.0).povm
            assert validate_povm(povm).ok
            np.testing.assert_allclose(povm.inconclusive, 0.0, atol=1e-12)

    def test_weights_against_rate_solver(self):
        for n in (3, 4, 5):
            fam = gu(n)
            np.testing.assert_allclose(fam.full_weight, 2.0 / n, atol=1e-15)
            np.testing.assert_allclose(fam.eta0_floor, 0.0, atol=1e-15)
            sol = optim.min_inconclusive_rate(fam.ensemble())
            for x in fam.ensemble().labels:
                np.testing.assert_allclose(sol.weights[x], 2.0 / n, atol=1e-9)
            np.testing.assert_allclose(sol.eta0, 0.0, atol=1e-9)

    def test_two_states_static_but_not_sequential(self):
        fam = gu(2)
        assert fam.confidence == 1.0
        with pytest.raises(ValueError, match="n >= 3"):
            fam.visibility_at(1, [0.5])
        with pytest.raises(ValueError, match="n >= 3"):
            fam.strategies([0.5])

    def test_radius_recursion(self):
        """Each party shrinks the Bloch radius (the visibility of a pure
        equatorial family) by ``(1 + eta0) / 2``."""
        fam = gu(3)
        rates = [0.2, 0.6]
        np.testing.assert_allclose(fam.visibility_at(1, rates), 1.0, atol=0.0)
        np.testing.assert_allclose(fam.visibility_at(2, rates), 0.6, atol=1e-15)
        np.testing.assert_allclose(fam.visibility_at(3, rates), 0.6 * 0.8, atol=1e-15)

    def test_chain_against_solver(self):
        """Engine-run chains land exactly on the closed-form per-party
        confidences, for several n and mixed rate lists."""
        rates = [0.1, 0.5, 0.9]
        for n in (3, 4, 5):
            fam = gu(n)
            trace = run_sequence(fam.ensemble(), fam.strategies(rates))
            for j, rec in enumerate(trace.records, start=1):
                want = fam.confidence_at(j, rates)
                for x in range(1, n + 1):
                    np.testing.assert_allclose(rec.confidences[x], want, atol=1e-9)

    def test_chain_against_product(self):
        """Party ``j`` sees Bloch radius ``prod_(k < j) (1 + eta0_k) / 2``,
        so its confidence is ``(1 + radius) / n``."""
        rates = [0.1, 0.5, 0.9, 0.3]
        for n in (3, 4, 5, 6):
            fam = gu(n)
            trace = run_sequence(fam.ensemble(), fam.strategies(rates))
            radius = 1.0
            for rec, eta0 in zip(trace.records, rates):
                for x in range(1, n + 1):
                    np.testing.assert_allclose(rec.confidences[x], (1 + radius) / n, atol=1e-9)
                radius *= (1 + eta0) / 2

    def test_inconclusive_rate_hit_exactly(self):
        """Uniform weakening of the complete POVM gives tr[rho M0] = eta0
        on the nose, party after party."""
        fam = gu(4)
        rates = [0.3, 0.7]
        trace = run_sequence(fam.ensemble(), fam.strategies(rates))
        for rec, want in zip(trace.records, rates):
            np.testing.assert_allclose(rec.eta0, want, atol=1e-12)
            np.testing.assert_allclose(rec.extras["eta0_target"], want, atol=0.0)

    def test_asymptote(self):
        """At eta0 = 0.1 the radius dies geometrically: by party 20 the
        states are within 1e-2 of the maximally mixed state."""
        fam = gu(3)
        rates = [0.1] * 19
        p_plus = 0.5 * (1.0 + fam.visibility_at(20, rates))  # the larger eigenvalue
        assert p_plus - 0.5 < 0.01
        np.testing.assert_allclose(p_plus - 0.5, 0.5 * 0.55**19, atol=1e-18)

    def test_rate_validation(self):
        """A rate above 1 is refused when its party runs, naming the party."""
        fam = gu(3)
        with pytest.raises(StrategyInfeasibleError) as exc:
            run_sequence(fam.ensemble(), fam.strategies([0.5, 1.2]))
        assert exc.value.party == 2
        assert issubclass(InfeasibleRateError, FeasibilityError)


# ===========================================================================
# lifted GU states
# ===========================================================================


class TestLiftedGuStatic:
    def test_phases_reduced(self):
        """Phases lie in [0, 2 pi) and label n's state, measurement and
        retarget vectors are exactly real."""
        for n in range(2, 7):
            fam = lifted_gu(n, 0.9, 0.7)
            for x in range(1, n + 1):
                assert 0.0 <= fam.phase(x) < 2.0 * math.pi
            assert fam.phase(n) == 0.0
            for v in (fam.state_vector(n), fam.measurement_vector(n)):
                assert np.all(v.imag == 0.0)
            # K_n = sqrt(w) |t_n><v_n| is real exactly when the retarget t_n is
            assert np.all(fam.plan(0.8).channel.ops[n].imag == 0.0)

    def test_average_independent_of_visibility(self):
        for lam in (0.2, 0.7, 1.0):
            fam = lifted_gu(3, 0.8, lam)
            np.testing.assert_allclose(
                fam.ensemble().average().mat, fam.average().mat, atol=1e-12
            )

    def test_confidence_against_solver(self):
        rng = np.random.default_rng(111)
        for _ in range(20):
            n = int(rng.integers(3, 6))
            theta = float(rng.uniform(0.2, math.pi / 2))
            lam = float(rng.uniform(0.1, 1.0))
            fam = lifted_gu(n, theta, lam)
            entries = mcm.solve_mcm(fam.ensemble())
            for x in range(1, n + 1):
                np.testing.assert_allclose(
                    entries[x].confidence, (1 + lam) / n, atol=1e-10
                )

    def test_measurement_vectors_against_solver(self):
        """The optimal projector mirrors the state's polar angle through
        the equator (same azimuth, polar angle pi - theta)."""
        fam = lifted_gu(4, 0.7, 0.6)
        entries = mcm.solve_mcm(fam.ensemble())
        for x in range(1, 5):
            v = fam.measurement_vector(x)
            v = v / np.linalg.norm(v)
            np.testing.assert_allclose(
                abs(np.vdot(entries[x].basis[0], v)), 1.0, atol=1e-9
            )

    def test_rate_optimum_against_solver(self):
        """a_x = 2/(n (1 + cos theta)) and eta0 = cos theta from the
        numeric weight optimizer."""
        for n, theta, lam in ((3, 0.9, 0.8), (4, 0.5, 0.5), (5, 1.2, 0.95)):
            fam = lifted_gu(n, theta, lam)
            sol = optim.min_inconclusive_rate(fam.ensemble())
            for a in sol.weights.values():
                np.testing.assert_allclose(a, fam.full_weight, atol=1e-9)
            np.testing.assert_allclose(sol.eta0, fam.eta0_floor, atol=1e-9)

    def test_full_povm_validates(self):
        fam = lifted_gu(4, 0.8, 0.7)
        povm = fam.plan(fam.eta0_floor).povm  # full strength at the floor
        assert validate_povm(povm).ok
        # residual inconclusive weight: tr[rho M0] = cos(theta)
        np.testing.assert_allclose(
            seqchan.inconclusive_rate(fam.ensemble(), povm), math.cos(0.8), atol=1e-12
        )

    def test_purity_formula(self):
        fam = lifted_gu(3, 1.1, 0.65)
        want = fam.purity()
        for x in range(1, 4):
            np.testing.assert_allclose(fam.state(x).purity(), want, atol=1e-12)
        np.testing.assert_allclose(lifted_gu(3, math.pi / 3, 1.0).purity(), 1.0, atol=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            lifted_gu(1, 1.0, 0.5)
        with pytest.raises(ValueError):
            lifted_gu(3, 2.0, 0.5)  # polar angle beyond the equator
        with pytest.raises(ValueError):
            lifted_gu(3, 1.0, 1.5)


class TestLiftedGuSequential:
    def test_contraction_against_engine(self):
        """Delta = per-step visibility ratio, engine-measured."""
        for theta, eta0 in ((0.9, 0.7), (1.2, 0.5), (math.pi / 2, 0.3)):
            fam = lifted_gu(3, theta, 0.9)
            if eta0 < fam.eta0_floor:
                continue
            trace = run_sequence(fam.ensemble(), fam.strategies([eta0]))
            b = trace.final_ensemble.state(3).bloch()
            lam_next = math.hypot(b[0], b[1]) / math.sin(theta)
            np.testing.assert_allclose(
                lam_next / 0.9, fam.delta(eta0), atol=1e-9
            )

    def test_equator_contraction_exact(self):
        """theta = pi/2: Delta = (1 + eta0)/2, the GU radius shrink."""
        fam = lifted_gu(3, math.pi / 2, 1.0)
        for eta0 in (0.0, 0.3, 0.8, 1.0):
            np.testing.assert_allclose(
                fam.delta(eta0), 0.5 * (1 + eta0), atol=1e-15
            )

    def test_no_measurement_no_contraction(self):
        fam = lifted_gu(4, 0.9, 0.8)
        np.testing.assert_allclose(fam.delta(1.0), 1.0, atol=1e-12)
        np.testing.assert_allclose(fam.disturbance_at(1.0), 0.0, atol=1e-12)

    def test_floor_enforced(self):
        fam = lifted_gu(3, 0.9, 0.8)
        with pytest.raises(InfeasibleRateError):
            fam.delta(math.cos(0.9) - 1e-3)
        with pytest.raises(InfeasibleRateError):
            fam.delta(1.1)
        fam.delta(math.cos(0.9))  # exactly at the floor: fine

    def test_chain_against_engine(self):
        rates = [0.8, 0.7, 0.9]
        fam = lifted_gu(3, 0.9, 0.95)  # floor cos(0.9) ~ 0.62: all feasible
        trace = run_sequence(fam.ensemble(), fam.strategies(rates))
        for j, rec in enumerate(trace.records, start=1):
            want = fam.confidence_at(j, rates)
            for x in (1, 2, 3):
                np.testing.assert_allclose(rec.confidences[x], want, atol=1e-9)
            np.testing.assert_allclose(
                rec.extras["visibility"], fam.visibility_at(j, rates), atol=1e-9
            )

    def test_equatorial_collapse_disturbs_least(self):
        """Any non-equatorial retarget polar angle strictly increases the
        one-step disturbance."""
        fam = lifted_gu(3, 1.0, 0.9)
        eta0 = 0.7
        base = run_sequence(fam.ensemble(), fam.strategies([eta0]))
        best = base.records[0].disturbance
        for polar in (0.6, 1.1, 2.0):
            alt = run_sequence(
                fam.ensemble(), fam.strategies([eta0], retarget=polar)
            )
            assert alt.records[0].disturbance > best + 1e-6

    def test_contracted_family(self):
        fam = lifted_gu(3, 0.9, 0.8)
        nxt = fam.contracted(0.75)
        np.testing.assert_allclose(nxt.lam, 0.8 * fam.delta(0.75), atol=1e-15)
        assert nxt.n == 3 and nxt.theta == 0.9

    def test_party_bound_worked_example(self):
        """n = 3, theta = pi/2, eta0 = 0.5, threshold 0.4: the bound is
        1 + log(0.2)/log(0.75) ~ 6.59, so at most 6 parties — and the
        6th indeed clears the threshold while a 7th would not."""
        fam = lifted_gu(3, math.pi / 2, 1.0)
        bound = fam.party_bound(0.4, 0.5)
        np.testing.assert_allclose(
            bound, 1.0 + math.log(0.2) / math.log(0.75), atol=1e-12
        )
        assert fam.max_parties(0.4, 0.5) == 6
        rates = [0.5] * 7
        assert fam.confidence_at(6, rates) >= 0.4
        assert fam.confidence_at(7, rates) < 0.4

    def test_party_bound_edges(self):
        fam = lifted_gu(3, math.pi / 2, 1.0)
        # threshold at or below 1/n: n C - 1 <= 0, any number of parties
        assert math.isinf(fam.party_bound(1.0 / 3.0, 0.5))
        with pytest.raises(ValueError):
            fam.max_parties(1.0 / 3.0, 0.5)
        # threshold above the fresh confidence: not even one party
        assert fam.party_bound(0.7, 0.5) == 0.0
        assert fam.max_parties(0.7, 0.5) == 0

    def test_infeasible_rate_names_party(self):
        fam = lifted_gu(3, 0.9, 0.9)  # floor ~ 0.62
        strategies = fam.strategies([0.8, 0.3])  # party 2 below the floor
        with pytest.raises(StrategyInfeasibleError) as exc:
            run_sequence(fam.ensemble(), strategies)
        assert exc.value.party == 2


# ===========================================================================
# mirror-symmetric triple
# ===========================================================================


class TestMirrorState:
    def test_kbar(self):
        ms = MirrorState(r1=0.8, r2=0.5, theta=1.2)
        np.testing.assert_allclose(
            ms.kbar, 0.8 + 2 * 0.5 * math.cos(1.2), atol=1e-15
        )

    def test_ensemble_round_trip(self):
        rng = np.random.default_rng(121)
        for _ in range(20):
            ms = MirrorState(
                r1=float(rng.uniform(0.3, 1.0)),
                r2=float(rng.uniform(0.1, 1.0)),
                theta=float(rng.uniform(0.3, math.pi - 0.3)),
            )
            back = mirror_state_of(ms.ensemble())
            np.testing.assert_allclose(
                [back.r1, back.r2, back.theta], [ms.r1, ms.r2, ms.theta], atol=1e-12
            )

    def test_purity(self):
        ms = MirrorState(r1=0.9, r2=0.4, theta=2.0)
        p1, p2 = ms.purity()
        np.testing.assert_allclose(p1, 0.5 * (1 + 0.81), atol=1e-15)
        np.testing.assert_allclose(p2, 0.5 * (1 + 0.16), atol=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            MirrorState(r1=1.2, r2=0.5, theta=1.0)
        with pytest.raises(ValueError):
            MirrorState(r1=0.5, r2=0.5, theta=0.0)

    def test_reader_rejects_non_mirror(self):
        # state 1 off the +X axis
        e = qcore.Ensemble(
            priors=(1 / 3, 1 / 3, 1 / 3),
            states=(
                qcore.density_from_bloch([0.5, 0.3, 0.0]),
                qcore.density_from_bloch([0.2, 0.4, 0.0]),
                qcore.density_from_bloch([0.2, -0.4, 0.0]),
            ),
        )
        with pytest.raises(ValueError, match=r"\+X axis"):
            mirror_state_of(e)
        # broken mirror symmetry
        e2 = qcore.Ensemble(
            priors=(1 / 3, 1 / 3, 1 / 3),
            states=(
                qcore.density_from_bloch([0.5, 0.0, 0.0]),
                qcore.density_from_bloch([0.2, 0.4, 0.0]),
                qcore.density_from_bloch([0.2, -0.3, 0.0]),
            ),
        )
        with pytest.raises(ValueError, match="mirror"):
            mirror_state_of(e2)
        with pytest.raises(ValueError):
            mirror_state_of(gu(4).ensemble())


class TestMirrorMcm:
    def test_confidences_against_solver(self):
        rng = np.random.default_rng(122)
        checked = 0
        while checked < 20:
            ms = MirrorState(
                r1=float(rng.uniform(0.2, 1.0)),
                r2=float(rng.uniform(0.1, 1.0)),
                theta=float(rng.uniform(0.5, math.pi - 0.3)),
            )
            if ms.r1 <= ms.r2 * math.cos(ms.theta) + 1e-6:
                continue
            try:
                sol = mirror_mcm(ms)
            except ValueError:
                continue
            entries = mcm.solve_mcm(ms.ensemble())
            np.testing.assert_allclose(entries[1].confidence, sol.c1, atol=1e-9)
            np.testing.assert_allclose(entries[2].confidence, sol.c2, atol=1e-9)
            np.testing.assert_allclose(entries[3].confidence, sol.c2, atol=1e-9)
            checked += 1

    def test_azimuth_against_solver_vectors(self):
        ms = MirrorState(r1=0.9, r2=0.8, theta=1.9)
        sol = mirror_mcm(ms)
        entries = mcm.solve_mcm(ms.ensemble())
        v = entries[2].basis[0]
        azimuth = math.atan2(float(np.imag(v[1] * np.conj(v[0]))) , float(np.real(v[1] * np.conj(v[0]))))
        np.testing.assert_allclose(abs(azimuth), sol.phi, atol=1e-8)

    def test_stationarity_at_optimum(self):
        """The closed-form azimuth zeroes the derivative of C2 and is its
        maximum on a 500-point grid, along chains and on random states."""
        rng = np.random.default_rng(124)
        states = [MirrorState(r1=1.0, r2=1.0, theta=2.2)]
        for theta in np.linspace(5 * math.pi / 9, 7 * math.pi / 9, 5):
            states += mirror(float(theta)).trajectory(rng.uniform(0.1, 0.9, size=8))
        while len(states) < 80:
            ms = MirrorState(
                r1=float(rng.uniform(0.05, 1.0)),
                r2=float(rng.uniform(0.05, 1.0)),
                theta=float(rng.uniform(0.3, math.pi - 0.3)),
            )
            if ms.r1 > ms.r2 * math.cos(ms.theta) + 1e-6:
                states.append(ms)
        grid = np.linspace(1e-6, math.pi - 1e-6, 500)
        for ms in states:
            sol = mirror_mcm(ms)
            assert abs(mirror_stationarity(ms, sol.phi)) < 1e-12
            best = max(mirror_confidence2(ms, float(phi)) for phi in grid)
            assert sol.c2 >= best - 1e-12

    def test_azimuth_beats_grid(self):
        ms = MirrorState(r1=0.85, r2=0.7, theta=2.0)
        sol = mirror_mcm(ms)
        for phi in np.linspace(1e-6, math.pi - 1e-6, 500):
            assert mirror_confidence2(ms, float(phi)) <= sol.c2 + 1e-12

    def test_povm_complete(self):
        ms = MirrorState(r1=1.0, r2=1.0, theta=2.4)
        povm = mirror_plan(ms, 0.0).povm
        assert validate_povm(povm).ok
        np.testing.assert_allclose(povm.inconclusive, 0.0, atol=1e-9)

    def test_kkt_passes(self):
        ms = MirrorState(r1=1.0, r2=1.0, theta=2.0)
        povm = mirror_plan(ms, 0.0).povm
        report = mcm.verify_kkt(ms.ensemble(), povm)
        assert report.ok

    def test_validity_guard(self):
        with pytest.raises(ValueError, match="r1 <= r2 cos theta"):
            mirror_mcm(MirrorState(r1=0.1, r2=0.9, theta=0.3))


class TestMirrorPureForms:
    def test_pure_phi_closed_form(self):
        for theta in np.linspace(1.8, 2.6, 9):
            ms = MirrorState(r1=1.0, r2=1.0, theta=float(theta))
            np.testing.assert_allclose(
                mirror_mcm(ms).phi, pure_mirror_phi(float(theta)), atol=1e-9
            )

    def test_pure_confidences_closed_form(self):
        for theta in (1.9, TRINE, 2.4):
            c1, c2 = pure_mirror_confidences(theta)
            sol = mirror_mcm(mirror(theta).initial())
            np.testing.assert_allclose(sol.c1, c1, atol=1e-12)
            np.testing.assert_allclose(sol.c2, c2, atol=1e-12)

    def test_frozen_example(self):
        fam = mirror(2.0)
        c1, c2 = pure_mirror_confidences(2.0)
        np.testing.assert_allclose(c1, 0.6313716593651671, atol=1e-15)
        np.testing.assert_allclose(c2, 0.6843141703174165, atol=1e-15)
        np.testing.assert_allclose(
            mirror_mcm(fam.initial()).phi, 2.099270410470095, atol=1e-12
        )

    def test_trine_specialization(self):
        """At theta = 2 pi/3 the mirror triple is the trine: azimuth
        2 pi/3, uniform weights 2/3, both confidences 2/3."""
        sol = mirror_mcm(MirrorState(r1=1.0, r2=1.0, theta=TRINE))
        np.testing.assert_allclose(sol.phi, TRINE, atol=1e-12)
        np.testing.assert_allclose(sol.c1, 2 / 3, atol=1e-12)
        np.testing.assert_allclose(sol.c2, 2 / 3, atol=1e-12)
        np.testing.assert_allclose(sol.a1, 2 / 3, atol=1e-10)
        np.testing.assert_allclose(sol.a2, 2 / 3, atol=1e-10)


class TestMirrorRetarget:
    def test_trine_collapses_onto_measurement_azimuth(self):
        ms = MirrorState(r1=1.0, r2=1.0, theta=TRINE)
        sol = mirror_mcm(ms)
        np.testing.assert_allclose(
            mirror_retarget(ms, sol.phi), sol.phi, atol=1e-9
        )

    def test_zero_kbar_fixed_point(self):
        """kbar = 0 makes the collapse azimuth equal the measurement
        azimuth for any phi."""
        theta = 1.9
        r2 = 0.6
        r1 = -2 * r2 * math.cos(theta)  # tunes kbar to zero
        ms = MirrorState(r1=r1, r2=r2, theta=theta)
        assert abs(ms.kbar) < 1e-15
        for phi in (1.0, 2.0, 2.8):
            np.testing.assert_allclose(mirror_retarget(ms, phi), phi, atol=1e-12)

    def test_range_clamped(self):
        ms = MirrorState(r1=1.0, r2=1.0, theta=2.0)
        for phi in np.linspace(0.1, math.pi - 0.1, 20):
            ra = mirror_retarget(ms, float(phi))
            assert 0.0 <= ra <= math.pi


class TestMirrorStep:
    def _engine_step(self, ms, eta0):
        channel = mirror_plan(ms, eta0).channel
        return mirror_state_of(channel.apply_ensemble(ms.ensemble()))

    def test_recursion_against_engine(self):
        rng = np.random.default_rng(123)
        checked = 0
        while checked < 12:
            ms = MirrorState(
                r1=float(rng.uniform(0.4, 1.0)),
                r2=float(rng.uniform(0.3, 1.0)),
                theta=float(rng.uniform(1.2, 2.6)),
            )
            if ms.r1 <= ms.r2 * math.cos(ms.theta) + 1e-6:
                continue
            eta0 = float(rng.uniform(0.2, 0.95))
            try:
                want = mirror_step(ms, eta0)
            except ValueError:
                continue
            got = self._engine_step(ms, eta0)
            np.testing.assert_allclose(
                [got.r1, got.r2, got.theta],
                [want.r1, want.r2, want.theta],
                atol=1e-9,
            )
            checked += 1

    def test_mirror_form_is_closed(self):
        """One weakened step maps a mirror configuration to another mirror
        configuration — the engine output passes the symmetry validator."""
        ms = MirrorState(r1=1.0, r2=1.0, theta=2.1)
        out = self._engine_step(ms, 0.5)  # mirror_state_of validates
        assert 0 < out.r1 < 1 and 0 < out.r2 < 1

    def test_trine_angle_is_fixed(self):
        ms = MirrorState(r1=1.0, r2=1.0, theta=TRINE)
        for eta0 in (0.3, 0.5, 0.9):
            out = mirror_step(ms, eta0)
            assert abs(out.theta - TRINE) < 1e-9

    def test_angle_trichotomy(self):
        """The azimuth drifts away from the trine point: below 2 pi/3 it
        shrinks, above it grows — the trine is an unstable fixed angle."""
        for eta0 in (0.3, 0.5, 0.9):
            for theta in (5 * math.pi / 9, 0.65 * math.pi, TRINE, 0.7 * math.pi, 7 * math.pi / 9):
                out = mirror_step(MirrorState(r1=1.0, r2=1.0, theta=theta), eta0)
                want = theta - TRINE
                got = out.theta - theta
                if abs(want) < 1e-12:
                    assert abs(got) < 1e-9
                else:
                    assert math.copysign(1.0, got) == math.copysign(1.0, want)

    def test_rate_validation(self):
        ms = MirrorState(r1=1.0, r2=1.0, theta=2.0)
        with pytest.raises(InfeasibleRateError):
            mirror_plan(ms, 1.2)


class TestMirrorFamily:
    def test_confidence_and_purity_monotone(self):
        for theta in (5 * math.pi / 9, TRINE, 7 * math.pi / 9):
            for eta0 in (0.5, 0.9):
                states = mirror(theta).trajectory([eta0] * 4)
                c2s = [mirror_mcm(ms).c2 for ms in states]
                assert all(a >= b - 1e-12 for a, b in zip(c2s, c2s[1:]))
                p1s = [ms.purity()[0] for ms in states]
                p2s = [ms.purity()[1] for ms in states]
                assert all(a >= b - 1e-12 for a, b in zip(p1s, p1s[1:]))
                assert all(a >= b - 1e-12 for a, b in zip(p2s, p2s[1:]))

    def test_matches_gu3_at_trine(self):
        """theta = 2 pi/3 is the trine = GU(3) in a rotated labelling:
        mirror labels (1, 2, 3) sit at azimuths (0, +2pi/3, -2pi/3) while
        GU labels sit at (2pi/3, 4pi/3, 2pi) — the map is 1->3, 2->1, 3->2."""
        fam = mirror(TRINE)
        plain = gu(3)
        label_map = {1: 3, 2: 1, 3: 2}
        e_m, e_g = fam.ensemble(), plain.ensemble()
        for m_lab, g_lab in label_map.items():
            np.testing.assert_allclose(
                e_m.state(m_lab).mat, e_g.state(g_lab).mat, atol=1e-12
            )
        sol = mirror_mcm(fam.initial())
        np.testing.assert_allclose(sol.c2, plain.confidence, atol=1e-9)
        np.testing.assert_allclose(sol.a1, 2.0 / 3.0, atol=1e-9)
        # one weakened party: identical confidences through either code path
        eta0 = 0.5
        t_m = run_sequence(e_m, fam.strategies([eta0]))
        t_g = run_sequence(e_g, plain.strategies([eta0]))
        for m_lab, g_lab in label_map.items():
            np.testing.assert_allclose(
                t_m.records[0].confidences[m_lab],
                t_g.records[0].confidences[g_lab],
                atol=1e-9,
            )
            np.testing.assert_allclose(
                t_m.final_ensemble.state(m_lab).mat,
                t_g.final_ensemble.state(g_lab).mat,
                atol=1e-9,
            )

    def test_retarget_override_recorded(self):
        fam = mirror(2.0)
        trace = run_sequence(fam.ensemble(), fam.strategies([0.8], retarget=1.5))
        np.testing.assert_allclose(trace.records[0].extras["retarget"], 1.5, atol=0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            mirror(0.0)
        with pytest.raises(ValueError):
            mirror(math.pi)


# ===========================================================================
# party plans from closed-form vectors
# ===========================================================================


@pytest.mark.parametrize(
    "fam, rates, retarget",
    [
        pytest.param(gu(5), [0.4], None, id="gu5"),
        pytest.param(lifted_gu(4, 1.0, 0.9), [0.7], None, id="lifted-equator"),
        pytest.param(lifted_gu(3, 0.9, 0.8), [0.8], 1.2, id="lifted-retarget"),
        pytest.param(mirror(2.2), [0.5], None, id="mirror"),
        pytest.param(mirror(1.9), [0.3], 1.5, id="mirror-retarget"),
    ],
)
def test_one_eigensolve_per_family_plan(fam, rates, retarget, eigensolves):
    """A family party measures the family's closed-form vectors, so its one
    eigensolve is the square root of the inconclusive element."""
    e = fam.ensemble()
    strategy = fam.strategies(rates, retarget=retarget)[0]
    eigensolves.calls.clear()
    plan = strategy(e, 1)
    assert eigensolves.count("eigh") == 1
    assert eigensolves.of(plan.povm.inconclusive) == 1
    assert eigensolves.count("eigvalsh") == 0
