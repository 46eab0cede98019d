"""Sequential-channel layer tests: weakened measurements and their
rank-one party plans, the equal-confidence two-state step, disturbance
functionals, and the chain runner.

Run with:  pytest tests/test_seqchan.py -v
"""

import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from seqmcm import cli, families, mcm, optim, qcore, seqchan
from seqmcm.qcore import Ensemble, FeasibilityError, Povm
from seqmcm.seqchan import (
    ChannelConstructionError,
    KrausChannel,
    PartyPlan,
    PartyRecord,
    SequentialTrace,
    StrategyInfeasibleError,
    ensemble_distance,
    inconclusive_rate,
    information_gain,
    joint_outcomes,
    linear_independence,
    random_channel,
    rank_one_plan,
    run_sequence,
    trace_to_csv,
    trace_to_json,
    two_state_step,
)


def _projector(v):
    v = np.asarray(v, dtype=complex)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


def trine_vectors():
    return [
        np.array([math.cos(k * math.pi / 3), math.sin(k * math.pi / 3)])
        for k in range(3)
    ]


def trine_ensemble() -> Ensemble:
    return Ensemble(
        priors=(1 / 3, 1 / 3, 1 / 3),
        states=tuple(_projector(v) for v in trine_vectors()),
    )


def trine_povm() -> Povm:
    """Complete maximum-confidence POVM for the trine: (2/3) projectors
    onto the vectors themselves."""
    return mcm.mcm_povm(trine_ensemble(), {1: 2 / 3, 2: 2 / 3, 3: 2 / 3})


def trine_plan(alphas, targets=None) -> PartyPlan:
    """The trine's complete POVM weakened by ``alphas`` (one factor, or
    one per label) at the call site, ``w_x = alpha_x 2/3``."""
    if not isinstance(alphas, dict):
        alphas = {x: alphas for x in (1, 2, 3)}
    vectors = dict(zip((1, 2, 3), trine_vectors()))
    return rank_one_plan({x: a * 2 / 3 for x, a in alphas.items()}, vectors, targets)


def degenerate_qutrit() -> Ensemble:
    """Label 1's optimal subspace is two-dimensional (C_1 = 1 on diag(1, 1, 0))."""
    return Ensemble(
        priors=(0.5, 0.5), states=(np.diag([0.5, 0.5, 0.0]), np.diag([0.0, 0.0, 1.0]))
    )


# ---------------------------------------------------------------------------
# channels
# ---------------------------------------------------------------------------


class TestKrausChannel:
    def test_completeness_enforced(self):
        with pytest.raises(ChannelConstructionError):
            KrausChannel(ops=((1, np.eye(2)), (2, np.eye(2))))

    def test_apply_is_cptp(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            ch = random_channel(rng, 2, int(rng.integers(1, 4)))
            rho = qcore.random_density(rng, 2)
            out = ch.apply(rho.mat)  # DensityMatrix validation checks trace/PSD
            assert out.dim == 2

    def test_apply_ensemble_keeps_priors(self):
        rng = np.random.default_rng(8)
        ch = random_channel(rng, 2, 2)
        e = qcore.random_ensemble(rng, 2, 3)
        out = ch.apply_ensemble(e)
        assert out.priors == e.priors

    def test_op_by_label(self):
        ch = KrausChannel(ops=((0, np.eye(2)),))
        np.testing.assert_allclose(ch.op(0), np.eye(2), atol=0.0)
        with pytest.raises(ValueError):
            ch.op(1)

    def test_random_channel_seeded(self):
        a = random_channel(np.random.default_rng(3), 2, 2)
        b = random_channel(np.random.default_rng(3), 2, 2)
        for (la, ka), (lb, kb) in zip(a.ops, b.ops):
            assert la == lb
            np.testing.assert_allclose(ka, kb, atol=0.0)

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(ChannelConstructionError):
            KrausChannel(ops=((1, np.eye(2)), (2, np.eye(3))))


# ---------------------------------------------------------------------------
# weakening
# ---------------------------------------------------------------------------


class TestWeaken:
    """Weakening is ``w_x = alpha_x a_x`` at the call site; the plan's POVM
    is ``w_x |v_x><v_x|`` with ``M_0 = 1 - sum_x M_x``."""

    def test_alpha_one_is_identity(self):
        povm = trine_povm()
        w = trine_plan(1.0).povm
        for x in povm.labels:
            np.testing.assert_allclose(w.elements[x], povm.elements[x], atol=1e-15)
        np.testing.assert_allclose(w.inconclusive, povm.inconclusive, atol=1e-12)

    def test_alpha_zero_kills_everything(self):
        w = trine_plan(0.0).povm
        for m in w.elements.values():
            np.testing.assert_allclose(m, 0.0, atol=0.0)
        np.testing.assert_allclose(w.inconclusive, np.eye(2), atol=1e-12)

    def test_uniform_float_matches_dict(self):
        """The rank-one plan measures the POVM that the projector-based
        ``mcm_povm`` assembles from the same weights."""
        w1 = trine_plan(0.4).povm
        w2 = mcm.mcm_povm(trine_ensemble(), {1: 0.4 * 2 / 3, 2: 0.4 * 2 / 3, 3: 0.4 * 2 / 3})
        for x in w2.labels:
            np.testing.assert_allclose(w1.elements[x], w2.elements[x], atol=1e-15)

    def test_uniform_inconclusive_form(self):
        """M~_0 = (1 - alpha) 1 + alpha M_0 for uniform weakening."""
        povm = trine_povm()
        alpha = 0.35
        w = trine_plan(alpha).povm
        want = (1 - alpha) * np.eye(2) + alpha * povm.inconclusive
        np.testing.assert_allclose(w.inconclusive, want, atol=1e-12)

    def test_confidences_invariant(self):
        """Weakening scales numerator and denominator identically, so the
        conditional probability of each conclusive outcome is unchanged."""
        rng = np.random.default_rng(11)
        e = qcore.random_ensemble(rng, 2, 3)
        sol = optim.min_inconclusive_rate(e)
        povm = mcm.mcm_povm(e, sol.weights)
        alphas = {1: 0.7, 2: 0.2, 3: 0.9}
        entries = mcm.solve_mcm(e)
        weakened = rank_one_plan(
            {x: alphas[x] * a for x, a in sol.weights.items()},
            {x: entries[x].basis[0] for x in sol.weights},
        ).povm
        rho = e.average().mat
        for x in povm.labels:
            num0 = e.prior(x) * float(np.real(np.trace(povm.elements[x] @ e.state(x).mat)))
            den0 = float(np.real(np.trace(povm.elements[x] @ rho)))
            num1 = e.prior(x) * float(
                np.real(np.trace(weakened.elements[x] @ e.state(x).mat))
            )
            den1 = float(np.real(np.trace(weakened.elements[x] @ rho)))
            np.testing.assert_allclose(num1 / den1, num0 / den0, atol=1e-12)

    def test_partial_map_rejected(self):
        with pytest.raises(ValueError):
            rank_one_plan({1: 0.5}, dict(zip((1, 2, 3), trine_vectors())))

    def test_out_of_range_rejected(self):
        """alpha = 1.5 leaves M_0 = -1/2: the channel cannot be complete."""
        with pytest.raises(ValueError):
            trine_plan(1.5)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            trine_plan({1: -0.1, 2: 0.5, 3: 0.5})


# ---------------------------------------------------------------------------
# rank-one Kraus construction
# ---------------------------------------------------------------------------


class TestKrausFromWeak:
    """The channel of a rank-one plan: ``K_x = sqrt(w_x) |t_x><v_x|`` and
    ``K_0 = sqrt(M_0)``."""

    def test_kraus_squares_to_weakened_elements(self):
        """K_x^dag K_x = alpha_x M_x exactly, label by label."""
        plan = trine_plan({1: 0.5, 2: 0.8, 3: 0.3})
        ch, weakened = plan.channel, plan.povm
        for x in (1, 2, 3):
            k = ch.op(x)
            np.testing.assert_allclose(
                k.conj().T @ k, weakened.elements[x], atol=1e-12
            )
        k0 = ch.op(0)
        np.testing.assert_allclose(k0.conj().T @ k0, weakened.inconclusive, atol=1e-12)

    def test_zero_k0_kept_for_complete_povm(self):
        """A complete conclusive POVM at full strength still gets a label-0
        operator (identically zero) so chain composition stays uniform."""
        e = Ensemble(
            priors=(0.5, 0.5), states=(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        )
        entries = mcm.solve_mcm(e)
        ch = rank_one_plan({1: 1.0, 2: 1.0}, {x: entries[x].basis[0] for x in (1, 2)}).channel
        assert 0 in ch.labels
        np.testing.assert_allclose(ch.op(0), 0.0, atol=1e-7)

    def test_collapse_targets(self):
        """With a retarget map, a conclusive click leaves the system on the
        retarget direction regardless of the input."""
        target = np.array([0.0, 1.0], dtype=complex)
        ch = trine_plan(0.6, targets={1: target}).channel
        rng = np.random.default_rng(13)
        rho = qcore.random_density(rng, 2).mat
        k1 = ch.op(1)
        out = k1 @ rho @ k1.conj().T
        out = out / np.real(np.trace(out))
        np.testing.assert_allclose(out, _projector(target), atol=1e-12)

    def test_default_collapse_is_projector_vector(self):
        ch = trine_plan(1.0).channel
        rng = np.random.default_rng(14)
        rho = qcore.random_density(rng, 2).mat
        v = trine_vectors()[0]
        k1 = ch.op(1)
        out = k1 @ rho @ k1.conj().T
        np.testing.assert_allclose(
            out / np.real(np.trace(out)), _projector(v), atol=1e-12
        )

    def test_non_rank_one_element_rejected(self):
        """A measured label whose optimal subspace is two-dimensional has
        no rank-one element to build a plan from."""
        with pytest.raises(ChannelConstructionError, match="not rank-one"):
            cli._mcm_plan(degenerate_qutrit(), {1: 0.5, 2: 0.5})

    def test_fully_weakened_label_dropped(self):
        ch = trine_plan({1: 0.0, 2: 0.5, 3: 0.5}).channel
        assert 1 not in ch.labels
        assert {0, 2, 3} <= set(ch.labels)


def posterior(e: Ensemble, x: int, m: np.ndarray) -> float:
    """Confidence of a click of element ``m``: ``q_x tr[rho_x m] / tr[rho m]``."""
    num = e.prior(x) * float(np.real(np.trace(e.state(x).mat @ m)))
    return num / float(np.real(np.trace(e.average().mat @ m)))


class TestRankOnePlanProperties:
    """Plans built from ``solve_mcm`` vectors and random feasible weights
    scaled by alpha, over pure ensembles of every dimension up to the cap."""

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(
        dim=st.integers(2, qcore.DIM_CAP),
        n=st.integers(2, 6),
        seed=st.integers(0, 2**32 - 1),
        alpha=st.floats(1e-100, 1.0),  # far above the subnormals, where w = alpha a underflows
    )
    def test_plan_invariants(self, dim, n, seed, alpha):
        rng = np.random.default_rng(seed)
        e = qcore.random_ensemble(rng, dim, n, pure=True)
        entries = mcm.solve_mcm(e)
        assume(all(len(entry.basis) == 1 for entry in entries.values()))
        weights = optim.random_feasible_weights(rng, mcm.optimal_projectors(entries))
        assume(min(weights.values()) > 0.0)
        plan = rank_one_plan(
            {x: alpha * w for x, w in weights.items()},
            {x: entry.basis[0] for x, entry in entries.items()},
        )
        ch, povm = plan.channel, plan.povm
        for x in e.labels:
            k = ch.op(x)
            np.testing.assert_allclose(k.conj().T @ k, povm.elements[x], rtol=0.0, atol=1e-12)
            assert abs(posterior(e, x, povm.elements[x]) - entries[x].confidence) <= 1e-9
        total = sum(k.conj().T @ k for _, k in ch.ops)
        assert np.max(np.abs(total - np.eye(dim))) <= seqchan.COMPLETENESS_TOL
        after = mcm.solve_mcm(ch.apply_ensemble(e))
        for x in e.labels:
            assert after[x].confidence <= entries[x].confidence + seqchan.MONOTONIC_TOL


# ---------------------------------------------------------------------------
# the equal-confidence two-state step
# ---------------------------------------------------------------------------


def mixed_pair(p: float, theta: float) -> Ensemble:
    psi1 = np.array([math.cos(theta / 2), math.sin(theta / 2)])
    psi2 = np.array([math.cos(theta / 2), -math.sin(theta / 2)])
    states = tuple(
        p * _projector(v) + (1 - p) * np.eye(2) / 2 for v in (psi1, psi2)
    )
    return Ensemble(priors=(0.5, 0.5), states=states)


class TestTwoStateStep:
    def _mcm_vectors(self, e):
        entries = mcm.solve_mcm(e)
        return entries[1].basis[0], entries[2].basis[0], entries[1].confidence

    def test_confidence_preserved(self):
        """The defining property: after a partial-gain step the output
        ensemble has exactly the same maximum confidence."""
        e = mixed_pair(0.8, math.pi / 3)
        phi1, phi2, c = self._mcm_vectors(e)
        s = abs(np.vdot(phi1, phi2))
        a1, a2, _ = optim.two_state_least_disturbing(c, s, 0.4 * c * (1 - s))
        channel, _ = two_state_step(phi1, phi2, a1, a2)
        out = channel.apply_ensemble(e)
        _, _, c_after = self._mcm_vectors(out)
        np.testing.assert_allclose(c_after, c, atol=1e-10)

    def test_output_overlap(self):
        e = mixed_pair(0.7, 1.0)
        phi1, phi2, c = self._mcm_vectors(e)
        s = abs(np.vdot(phi1, phi2))
        gain = 0.5 * c * (1 - s)
        a1, a2, s_pred = optim.two_state_least_disturbing(c, s, gain)
        channel, (out1, out2) = two_state_step(phi1, phi2, a1, a2)
        np.testing.assert_allclose(abs(np.vdot(out1, out2)), s_pred, atol=1e-12)
        # and the output projectors are the next ensemble's optimal vectors
        nxt = channel.apply_ensemble(e)
        n1, n2, _ = self._mcm_vectors(nxt)
        assert min(abs(np.vdot(out1, n1)), abs(np.vdot(out1, n2))) < 1e-6 or (
            max(abs(np.vdot(out1, n1)), abs(np.vdot(out1, n2))) > 1 - 1e-9
        )

    def test_completeness_identity(self):
        """Construction only closes because sqrt(b1 b2) s' = s/(1-s^2);
        the channel constructor would reject any violation.  Weights are
        sampled over the full jointly feasible region
        (1 - a1)(1 - a2) >= a1 a2 s^2."""
        rng = np.random.default_rng(17)
        for _ in range(50):
            theta = float(rng.uniform(0.2, math.pi - 0.2))
            phi1 = np.array([math.cos(theta / 2), math.sin(theta / 2)])
            phi2 = np.array([math.cos(theta / 2), -math.sin(theta / 2)])
            s = abs(float(np.vdot(phi1, phi2)))
            a1 = float(rng.uniform(0.0, 1.0))
            hi = (1.0 - a1) / (1.0 - a1 * (1.0 - s * s))
            a2 = float(rng.uniform(0.0, hi))
            channel, _ = two_state_step(phi1, phi2, a1, a2)  # must not raise
            assert set(channel.labels) == {0, 1, 2}

    def test_asymmetric_weights_allowed(self):
        phi1 = np.array([1.0, 0.0])
        phi2 = np.array([1.0, 1.0]) / math.sqrt(2)  # s^2 = 1/2
        # (1 - 0.3)(1 - 0.7) = 0.21 >= 0.3 * 0.7 * 0.5 = 0.105: feasible
        channel, _ = two_state_step(phi1, phi2, 0.3, 0.7)
        assert set(channel.labels) == {0, 1, 2}

    def test_weight_beyond_cap_rejected(self):
        phi1 = np.array([1.0, 0.0])
        phi2 = np.array([1.0, 1.0]) / math.sqrt(2)  # s^2 = 1/2, cap = 2
        with pytest.raises(optim.InfeasibleGainError):
            two_state_step(phi1, phi2, 2.5, 0.1)

    def test_jointly_infeasible_weights_rejected(self):
        """Each weight alone is under the cap, but together they would
        push the inconclusive element negative."""
        phi1 = np.array([1.0, 0.0])
        phi2 = np.array([1.0, 1.0]) / math.sqrt(2)
        # (1 - 0.3)(1 - 0.9) = 0.07 < 0.3 * 0.9 * 0.5 = 0.135: infeasible
        with pytest.raises(optim.InfeasibleGainError):
            two_state_step(phi1, phi2, 0.3, 0.9)

    def test_identical_projectors_rejected(self):
        v = np.array([1.0, 0.0])
        with pytest.raises(FeasibilityError):
            two_state_step(v, v, 0.1, 0.1)

    def test_non_qubit_rejected(self):
        v = np.zeros(3)
        v[0] = 1.0
        with pytest.raises(ValueError):
            two_state_step(v, v, 0.1, 0.1)

    def test_complex_phase_handled(self):
        """A relative phase between the projectors must not break the
        construction (the step rephases to a nonnegative overlap)."""
        phi1 = np.array([1.0, 0.0], dtype=complex)
        phi2 = np.exp(1j * 0.7) * np.array([1.0, 1.0]) / math.sqrt(2)
        channel, (out1, out2) = two_state_step(phi1, phi2, 0.5, 0.5)
        assert set(channel.labels) == {0, 1, 2}
        assert abs(np.vdot(out1, out2)) <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# functionals
# ---------------------------------------------------------------------------


class TestFunctionals:
    def test_information_gain_orthogonal_full(self):
        e = Ensemble(
            priors=(0.5, 0.5), states=(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        )
        povm = mcm.mcm_povm(e, {1: 1.0, 2: 1.0})
        np.testing.assert_allclose(information_gain(e, povm), 1.0, atol=1e-12)
        np.testing.assert_allclose(inconclusive_rate(e, povm), 0.0, atol=1e-12)

    def test_gain_scales_with_weakening(self):
        e = trine_ensemble()
        povm = trine_povm()
        g_full = information_gain(e, povm)
        g_half = information_gain(e, trine_plan(0.5).povm)
        np.testing.assert_allclose(g_half, 0.5 * g_full, atol=1e-12)

    def test_inconclusive_rate_uniform_weakening(self):
        e = trine_ensemble()
        np.testing.assert_allclose(inconclusive_rate(e, trine_povm()), 0.0, atol=1e-12)
        np.testing.assert_allclose(
            inconclusive_rate(e, trine_plan(0.3).povm), 0.7, atol=1e-12
        )

    def test_distance_oracle(self):
        e1 = Ensemble(
            priors=(0.5, 0.5), states=(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        )
        e2 = Ensemble(priors=(0.5, 0.5), states=(np.eye(2) / 2, np.eye(2) / 2))
        d, lower = ensemble_distance(e1, e2)
        # each pure state moves to the center: trace-norm distance 1 each
        np.testing.assert_allclose(d, 1.0, atol=1e-12)
        np.testing.assert_allclose(lower, 0.0, atol=1e-12)  # averages coincide

    def test_lower_bound_holds_randomly(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            e = qcore.random_ensemble(rng, 2, 3)
            ch = random_channel(rng, 2, 2)
            d, lower = ensemble_distance(e, ch.apply_ensemble(e))
            assert d >= lower - 1e-12

    def test_prior_mismatch_rejected(self):
        e1 = Ensemble(priors=(0.5, 0.5), states=(np.eye(2) / 2, np.eye(2) / 2))
        e2 = Ensemble(priors=(0.4, 0.6), states=(np.eye(2) / 2, np.eye(2) / 2))
        with pytest.raises(ValueError):
            ensemble_distance(e1, e2)


class TestLinearIndependence:
    def test_two_state_elements_independent(self):
        e = mixed_pair(0.8, 1.0)
        povm = mcm.mcm_povm(e, optim.min_inconclusive_rate(e).weights)
        assert linear_independence(povm.elements.values())

    def test_trine_plus_identity_dependent(self):
        """The trine elements sum to the identity, so adding 1 gives a
        linearly dependent set."""
        povm = trine_povm()
        ops = list(povm.elements.values()) + [np.eye(2)]
        assert not linear_independence(ops)

    def test_trine_elements_alone_independent(self):
        assert linear_independence(trine_povm().elements.values())

    def test_zero_operator_dependent(self):
        assert not linear_independence([np.zeros((2, 2))])

    def test_empty_is_independent(self):
        assert linear_independence([])


# ---------------------------------------------------------------------------
# chain running
# ---------------------------------------------------------------------------


def uniform_trine_strategy(alpha: float):
    """Weaken the full-strength trine MCM uniformly and collapse each
    conclusive outcome back onto the corresponding trine vector."""

    vectors = trine_vectors()

    def strategy(e: Ensemble, j: int) -> PartyPlan:
        sol = optim.min_inconclusive_rate(e)
        entries = mcm.solve_mcm(e)
        return rank_one_plan(
            {x: alpha * a for x, a in sol.weights.items()},
            {x: entries[x].basis[0] for x in sol.weights},
            targets={x + 1: vectors[x] for x in range(3)},
        )

    return strategy


class TestRunSequence:
    def test_two_party_trine_chain(self):
        trace = run_sequence(trine_ensemble(), [uniform_trine_strategy(0.5)] * 2)
        assert trace.parties == 2
        rec1, rec2 = trace.records
        assert rec1.index == 1 and rec2.index == 2
        np.testing.assert_allclose(rec1.confidences[1], 2 / 3, atol=1e-12)
        # any strict weakening of the trine strictly costs confidence
        assert rec2.confidences[1] < rec1.confidences[1] - 1e-6
        assert rec1.gain > 0 and 0 <= rec1.eta0 <= 1
        assert rec1.disturbance >= rec1.disturbance_lower - 1e-12

    def test_joint_outcomes_attached_and_bounded(self):
        trace = run_sequence(trine_ensemble(), [uniform_trine_strategy(0.4)] * 3)
        assert trace.p_joint is not None and trace.p_inconclusive is not None
        assert 0 <= trace.p_joint <= 1 and 0 <= trace.p_inconclusive <= 1

    def test_joint_outcomes_against_direct_composition(self):
        """P_J from the operator composition must equal the brute-force
        two-party sum over conclusive branches."""
        e = trine_ensemble()
        trace = run_sequence(e, [uniform_trine_strategy(0.6)] * 2)
        rec1, rec2 = trace.records
        direct = 0.0
        for x in (1, 2, 3):
            k = rec1.channel.op(x)
            m = rec2.povm.elements[x]
            direct += e.prior(x) * float(
                np.real(np.trace(m @ k @ e.state(x).mat @ k.conj().T))
            )
        np.testing.assert_allclose(trace.p_joint, direct, atol=1e-12)

    def test_infeasible_strategy_names_party(self):
        def bad(e: Ensemble, j: int) -> PartyPlan:
            raise FeasibilityError("nothing feasible here")

        with pytest.raises(StrategyInfeasibleError) as exc:
            run_sequence(trine_ensemble(), [uniform_trine_strategy(0.5), bad])
        assert exc.value.party == 2

    def test_final_ensemble_is_post_chain(self):
        e = trine_ensemble()
        trace = run_sequence(e, [uniform_trine_strategy(0.5)])
        want = trace.records[0].channel.apply_ensemble(e)
        for x in e.labels:
            np.testing.assert_allclose(
                trace.final_ensemble.state(x).mat, want.state(x).mat, atol=0.0
            )

    def test_confidences_accessor(self):
        trace = run_sequence(trine_ensemble(), [uniform_trine_strategy(0.5)] * 2)
        series = trace.confidences(1)
        assert len(series) == 2
        assert series[0] >= series[1]

    def test_two_mixed_chain_solves_each_party_once(self, eigensolves):
        """The strategy and the runner share one solution per party's
        ensemble, so each party's average is eigensolved exactly once."""
        fam = families.two_mixed(0.8, 1.2)
        e0 = fam.ensemble()
        strategies = fam.chain_strategies(4)
        eigensolves.calls.clear()
        trace = run_sequence(e0, strategies)
        for rec in trace.records:
            rho = sum(q * s.mat for q, s in zip(rec.ensemble.priors, rec.ensemble.states))
            assert eigensolves.of(rho) == 1, rec.index


class TestTraceMonotonicityGuard:
    def _record(self, index: int, conf: float) -> PartyRecord:
        ch = KrausChannel(ops=((0, np.eye(2)),))
        povm = Povm(elements={1: np.eye(2) * 0.5}, inconclusive=np.eye(2) * 0.5)
        e = Ensemble(priors=(1.0,), states=(np.eye(2) / 2,))
        return PartyRecord(
            index=index,
            ensemble=e,
            confidences={1: conf},
            gain=0.0,
            eta0=0.5,
            disturbance=0.0,
            disturbance_lower=0.0,
            povm=povm,
            channel=ch,
            extras={},
        )

    def test_growing_confidence_rejected(self):
        e = Ensemble(priors=(1.0,), states=(np.eye(2) / 2,))
        with pytest.raises(ValueError, match="grew"):
            SequentialTrace(
                records=(self._record(1, 0.5), self._record(2, 0.7)),
                final_ensemble=e,
                p_joint=None,
                p_inconclusive=None,
            )

    def test_flat_confidence_accepted(self):
        e = Ensemble(priors=(1.0,), states=(np.eye(2) / 2,))
        trace = SequentialTrace(
            records=(self._record(1, 0.5), self._record(2, 0.5)),
            final_ensemble=e,
            p_joint=None,
            p_inconclusive=None,
        )
        assert trace.parties == 2


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


class TestTraceSerialization:
    def _trace(self):
        return run_sequence(trine_ensemble(), [uniform_trine_strategy(0.5)] * 2)

    def test_json_schema_and_dumpable(self):
        doc = trace_to_json(self._trace())
        assert doc["schema"] == "seqmcm-trace/1"
        assert len(doc["parties"]) == 2
        json.dumps(doc)

    def test_csv_layout(self):
        text = trace_to_csv(self._trace())
        lines = text.strip().split("\n")
        assert len(lines) == 3  # header + 2 parties
        header = lines[0].split(",")
        assert header[0] == "party"
        assert "confidence_1" in header and "purity_1" in header
        assert header[-2:] == ["p_joint", "p_inconclusive"]

    def test_csv_joint_probabilities_on_final_row_only(self):
        text = trace_to_csv(self._trace())
        lines = text.strip().split("\n")
        first = lines[1].split(",")
        last = lines[2].split(",")
        assert first[-1] == "" and first[-2] == ""
        assert last[-1] != "" and last[-2] != ""
        float(last[-1])  # parses as a float

    def test_csv_floats_round_trip(self):
        """repr() serialization: reading the cell back gives the exact
        float, bit for bit."""
        trace = self._trace()
        text = trace_to_csv(trace)
        lines = text.strip().split("\n")
        header = lines[0].split(",")
        row = lines[1].split(",")
        col = header.index("confidence_1")
        assert float(row[col]) == trace.records[0].confidences[1]
