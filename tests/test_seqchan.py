"""Sequential-channel layer tests: weakened measurements and their
projector party plans (rank one and higher), the equal-confidence
two-state step (the two_mixed family party), disturbance functionals, and
the chain runner.

Run with:  pytest tests/test_seqchan.py -v
"""

import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from seqmcm import families, mcm, optim, qcore, seqchan
from seqmcm.checks import linear_independence, random_channel, random_feasible_weights
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
    projector_plan,
    run_sequence,
    trace_to_csv,
    trace_to_json,
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
    return projector_plan({x: a * 2 / 3 for x, a in alphas.items()}, vectors, targets)


def degenerate_qutrit() -> Ensemble:
    """Label 1's optimal subspace is two-dimensional (C_1 = 1 on diag(1, 1, 0))."""
    return Ensemble(
        priors=(0.5, 0.5), states=(np.diag([0.5, 0.5, 0.0]), np.diag([0.0, 0.0, 1.0]))
    )


def symmetric_qutrit() -> Ensemble:
    """Three equiprobable states, each 1/2 on two of three basis states."""
    return Ensemble(
        priors=(1 / 3, 1 / 3, 1 / 3),
        states=(np.diag([0.5, 0.5, 0.0]), np.diag([0.0, 0.5, 0.5]), np.diag([0.5, 0.0, 0.5])),
    )


# ---------------------------------------------------------------------------
# channels
# ---------------------------------------------------------------------------


class TestKrausChannel:
    def test_completeness_enforced(self):
        with pytest.raises(ChannelConstructionError):
            KrausChannel(ops={1: np.eye(2), 2: np.eye(2)})

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
        ch = KrausChannel(ops={0: np.eye(2)})
        np.testing.assert_allclose(ch.ops[0], np.eye(2), atol=0.0)
        assert 1 not in ch.ops

    def test_ops_are_read_only(self):
        """A validated channel cannot gain or lose an operator afterwards."""
        ch = KrausChannel(ops={0: np.eye(2)})
        with pytest.raises(TypeError):
            ch.ops[1] = np.eye(2)
        with pytest.raises(TypeError):
            del ch.ops[0]

    def test_random_channel_seeded(self):
        a = random_channel(np.random.default_rng(3), 2, 2)
        b = random_channel(np.random.default_rng(3), 2, 2)
        for (la, ka), (lb, kb) in zip(a.ops.items(), b.ops.items()):
            assert la == lb
            np.testing.assert_allclose(ka, kb, atol=0.0)

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(ChannelConstructionError):
            KrausChannel(ops={1: np.eye(2), 2: np.eye(3)})

    @staticmethod
    def _reference_image(ch: KrausChannel, r: np.ndarray) -> np.ndarray:
        """``sum_i K_i r K_i^dag``, one operator at a time in label order."""
        return sum(op @ r @ op.conj().T for op in ch.ops.values())

    @pytest.mark.parametrize("stacked", [False, True], ids=["matrix", "stack"])
    def test_image_equals_the_per_operator_sum_bit_for_bit(self, stacked):
        rng = np.random.default_rng(31)
        for dim in range(2, 9):
            for n_kraus in range(1, 5):
                ch = random_channel(rng, dim, n_kraus)
                states = np.array([qcore.random_density(rng, dim).mat for _ in range(4)])
                r = states if stacked else states[0]
                got = ch._image(r)
                assert got.shape == r.shape
                assert got.tobytes() == self._reference_image(ch, r).tobytes()

    def test_image_of_a_channel_missing_a_label_bit_for_bit(self):
        """A zero weight leaves label 2 without an operator."""
        plan = projector_plan({1: 0.6, 2: 0.0, 3: 0.3}, dict(enumerate(trine_vectors(), 1)))
        assert list(plan.channel.ops) == [1, 3, 0]
        e = trine_ensemble()
        states = np.stack([s.mat for s in e.states])
        for r in (states, states[1]):
            want = self._reference_image(plan.channel, r)
            assert plan.channel._image(r).tobytes() == want.tobytes()
        got = plan.channel.apply_ensemble(e)
        for x in e.labels:
            want = qcore.DensityMatrix(self._reference_image(plan.channel, e.state(x).mat))
            assert got.state(x).mat.tobytes() == want.mat.tobytes()


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
        weakened = projector_plan(
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
            projector_plan({1: 0.5}, dict(zip((1, 2, 3), trine_vectors())))

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
            k = ch.ops[x]
            np.testing.assert_allclose(
                k.conj().T @ k, weakened.elements[x], atol=1e-12
            )
        k0 = ch.ops[0]
        np.testing.assert_allclose(k0.conj().T @ k0, weakened.inconclusive, atol=1e-12)

    def test_zero_k0_kept_for_complete_povm(self):
        """A complete conclusive POVM at full strength still gets a label-0
        operator (identically zero) so chain composition stays uniform."""
        e = Ensemble(
            priors=(0.5, 0.5), states=(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        )
        entries = mcm.solve_mcm(e)
        ch = projector_plan({1: 1.0, 2: 1.0}, {x: entries[x].basis[0] for x in (1, 2)}).channel
        assert 0 in ch.ops
        np.testing.assert_allclose(ch.ops[0], 0.0, atol=1e-7)

    def test_collapse_targets(self):
        """With a retarget map, a conclusive click leaves the system on the
        retarget direction regardless of the input."""
        target = np.array([0.0, 1.0], dtype=complex)
        ch = trine_plan(0.6, targets={1: target}).channel
        rng = np.random.default_rng(13)
        rho = qcore.random_density(rng, 2).mat
        k1 = ch.ops[1]
        out = k1 @ rho @ k1.conj().T
        out = out / np.real(np.trace(out))
        np.testing.assert_allclose(out, _projector(target), atol=1e-12)

    def test_default_collapse_is_projector_vector(self):
        ch = trine_plan(1.0).channel
        rng = np.random.default_rng(14)
        rho = qcore.random_density(rng, 2).mat
        v = trine_vectors()[0]
        k1 = ch.ops[1]
        out = k1 @ rho @ k1.conj().T
        np.testing.assert_allclose(
            out / np.real(np.trace(out)), _projector(v), atol=1e-12
        )

    def test_rank_two_label_gets_the_luders_map(self):
        """A label whose optimal subspace is two-dimensional measures its
        whole projector, ``K_x = sqrt(w_x) P_x``."""
        e = degenerate_qutrit()
        plan = seqchan.mcm_plan(e, {1: 0.5, 2: 0.5})
        p1 = np.diag([1.0, 1.0, 0.0])
        np.testing.assert_allclose(plan.povm.elements[1], 0.5 * p1, atol=1e-15)
        np.testing.assert_allclose(plan.channel.ops[1], math.sqrt(0.5) * p1, atol=1e-15)
        np.testing.assert_allclose(plan.povm.inconclusive, np.diag([0.5, 0.5, 0.5]), atol=1e-15)

    def test_basis_and_target_columns_must_match(self):
        with pytest.raises(ValueError, match="as many columns"):
            projector_plan({1: 0.5}, {1: np.eye(3)[:, :2]}, targets={1: np.eye(3)[:, 0]})

    def test_fully_weakened_label_dropped(self):
        ch = trine_plan({1: 0.0, 2: 0.5, 3: 0.5}).channel
        assert 1 not in ch.ops
        assert {0, 2, 3} <= set(ch.ops)

    def test_full_strength_k0_is_exactly_zero(self):
        """A complete measurement leaves ``M_0`` at rounding level; its
        root is exactly zero, not ``sqrt(eps)``-sized."""
        fam = families.gu(4)
        plan = fam.strategies([0.0])[0](fam.ensemble(), 1)
        assert np.max(np.abs(plan.povm.inconclusive)) < 1e-15
        assert not np.any(plan.channel.ops[0])


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
        weights = random_feasible_weights(rng, mcm.optimal_projectors(e))
        assume(min(weights.values()) > 0.0)
        plan = projector_plan(
            {x: alpha * w for x, w in weights.items()},
            {x: entry.basis[0] for x, entry in entries.items()},
        )
        ch, povm = plan.channel, plan.povm
        for x in e.labels:
            k = ch.ops[x]
            np.testing.assert_allclose(k.conj().T @ k, povm.elements[x], rtol=0.0, atol=1e-12)
            assert abs(posterior(e, x, povm.elements[x]) - entries[x].confidence) <= 1e-9
        total = sum(k.conj().T @ k for k in ch.ops.values())
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


def step_party(e: Ensemble, gain: float) -> PartyPlan:
    """The two_mixed family party extracting ``gain`` from ``e`` (the party
    reads the ensemble it is handed, not the family it came from)."""
    return families.two_mixed(0.5, 1.0).strategies([gain])[0](e, 1)


def qubit_perp(v: np.ndarray) -> np.ndarray:
    return np.array([v[1].conjugate(), -v[0].conjugate()])


class TestTwoStateStep:
    """One equal-confidence step: the two_mixed party, a rank-one plan with
    symmetric weights collapsing each label onto the state orthogonal to
    the next party's vector for the other label."""

    def _mcm_vectors(self, e):
        entries = mcm.solve_mcm(e)
        return entries[1].basis[0], entries[2].basis[0], entries[1].confidence

    def _next_vectors(self, plan: PartyPlan):
        """The next party's vectors, read off the collapse targets:
        ``K_2`` lands on ``out_1^perp`` and ``K_1`` on ``out_2^perp``."""
        outs = []
        for x in (2, 1):
            k = plan.channel.ops[x]
            t = k[:, np.argmax(np.linalg.norm(k, axis=0))]
            outs.append(qubit_perp(t / np.linalg.norm(t)))
        return outs

    def test_confidence_preserved(self):
        """The defining property: after a partial-gain step the output
        ensemble has exactly the same maximum confidence."""
        e = mixed_pair(0.8, math.pi / 3)
        phi1, phi2, c = self._mcm_vectors(e)
        s = abs(np.vdot(phi1, phi2))
        plan = step_party(e, 0.4 * c * (1 - s))
        out = plan.channel.apply_ensemble(e)
        _, _, c_after = self._mcm_vectors(out)
        np.testing.assert_allclose(c_after, c, atol=1e-10)

    def test_output_overlap(self):
        e = mixed_pair(0.7, 1.0)
        phi1, phi2, c = self._mcm_vectors(e)
        s = abs(np.vdot(phi1, phi2))
        gain = 0.5 * c * (1 - s)
        _, _, s_pred = optim.two_state_least_disturbing(c, s, gain)
        plan = step_party(e, gain)
        out1, out2 = self._next_vectors(plan)
        assert plan.extras["overlap_next"] == s_pred
        np.testing.assert_allclose(abs(np.vdot(out1, out2)), s_pred, atol=1e-12)
        # and the output projectors are the next ensemble's optimal vectors
        nxt = plan.channel.apply_ensemble(e)
        n1, n2, _ = self._mcm_vectors(nxt)
        assert min(abs(np.vdot(out1, n1)), abs(np.vdot(out1, n2))) < 1e-6 or (
            max(abs(np.vdot(out1, n1)), abs(np.vdot(out1, n2))) > 1 - 1e-9
        )

    def test_completeness_identity(self):
        """The channel closes over the whole feasible gain range
        ``0 < G <= C (1 - s)``, the full gain included: the channel
        constructor would reject any completeness residual."""
        rng = np.random.default_rng(17)
        for k in range(50):
            e = mixed_pair(float(rng.uniform(0.2, 1.0)), float(rng.uniform(0.2, math.pi - 0.2)))
            phi1, phi2, c = self._mcm_vectors(e)
            limit = c * (1.0 - abs(np.vdot(phi1, phi2)))
            gain = limit if k % 10 == 0 else float(rng.uniform(0.0, 1.0)) * limit
            plan = step_party(e, gain)  # must not raise
            assert set(plan.channel.ops) == {0, 1, 2}

    def test_jointly_infeasible_weights_rejected(self):
        """A gain above ``C (1 - s)`` asks for a weight under the per-weight
        cap ``1/(1 - s^2)`` that, on both labels together, would push the
        inconclusive element negative."""
        e = mixed_pair(0.8, 1.0)
        phi1, phi2, c = self._mcm_vectors(e)
        s = abs(np.vdot(phi1, phi2))
        gain = c * (1.0 - s) + 0.5 * c * s
        assert gain / (c * (1.0 - s * s)) < 1.0 / (1.0 - s * s)
        with pytest.raises(optim.InfeasibleGainError):
            step_party(e, gain)

    def test_identical_projectors_rejected(self):
        """After a full-gain step both states sit on one vector: the next
        party faces identical projectors and has nothing to discriminate."""
        e = mixed_pair(0.8, 1.0)
        phi1, phi2, c = self._mcm_vectors(e)
        full = step_party(e, c * (1.0 - abs(np.vdot(phi1, phi2))))
        with pytest.raises(FeasibilityError, match="overlap is 1"):
            step_party(full.channel.apply_ensemble(e), 0.01)

    def test_complex_phase_handled(self):
        """A relative phase between the projectors must not break the
        construction (the party rephases to a nonnegative overlap): a
        unitarily rotated pair gives the rotated step."""
        e = mixed_pair(0.7, 1.0)
        u, _ = np.linalg.qr(np.array([[1.0, 0.3 + 0.8j], [-0.2 + 0.5j, 1.0]]))
        rotated = Ensemble(priors=e.priors, states=tuple(u @ st.mat @ u.conj().T for st in e.states))
        phi1, phi2, c = self._mcm_vectors(rotated)
        assert abs(np.angle(np.vdot(phi1, phi2))) > 0.1  # a genuinely complex overlap
        gain = 0.5 * c * (1 - abs(np.vdot(phi1, phi2)))
        plan = step_party(rotated, gain)
        assert set(plan.channel.ops) == {0, 1, 2}
        out1, out2 = self._next_vectors(plan)
        assert abs(np.vdot(out1, out2)) <= 1.0 + 1e-12
        base = step_party(e, gain).channel.apply_ensemble(e)
        for x in (1, 2):
            np.testing.assert_allclose(
                plan.channel.apply_ensemble(rotated).state(x).mat,
                u @ base.state(x).mat @ u.conj().T,
                atol=1e-12,
            )


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

    def test_information_gain_equals_the_per_label_sum_bit_for_bit(self):
        rng = np.random.default_rng(33)
        for dim in range(2, 9):
            for n in range(1, 7):
                e = qcore.random_ensemble(rng, dim, n)
                # labels 1..n+1: the last is outside the ensemble and adds nothing
                elements = {
                    x: float(w) * qcore.random_density(rng, dim).mat
                    for x, w in enumerate(rng.uniform(0.0, 0.2, n + 1), 1)
                }
                povm = Povm(elements=elements, inconclusive=np.eye(dim) - sum(elements.values()))
                want = float(
                    sum(
                        e.prior(x) * np.real(np.trace(e.state(x).mat @ povm.elements[x]))
                        for x in povm.labels
                        if x in e.labels
                    )
                )
                assert information_gain(e, povm).hex() == want.hex()

    def test_information_gain_without_a_shared_label_is_zero(self):
        e = trine_ensemble()
        povm = Povm(elements={7: 0.5 * np.eye(2)}, inconclusive=0.5 * np.eye(2))
        assert information_gain(e, povm) == 0.0

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
        return projector_plan(
            {x: alpha * a for x, a in sol.weights.items()},
            {x: entries[x].basis[0] for x in sol.weights},
            targets={x + 1: vectors[x] for x in range(3)},
        )

    return strategy


class TestWeakenedMcmStrategies:
    """The family-free chain policy: each party weakens the rate-optimal
    measurement of the ensemble it receives to its own rate."""

    @pytest.mark.parametrize("dim", [2, 3, 4])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_each_party_meets_its_own_rate(self, dim, seed):
        """Pure states make party 1 rank-one by construction; every later
        party must be rank-one too, or the chain raises and the test fails."""
        e = qcore.random_ensemble(np.random.default_rng(seed), dim, dim + 1, pure=True)
        floor = optim.min_inconclusive_rate(e).eta0
        rates = [floor + (1.0 - floor) * t for t in (0.2, 0.5, 0.8)]
        trace = run_sequence(e, seqchan.weakened_mcm_strategies(rates))
        assert [rec.extras["eta0_target"] for rec in trace.records] == rates
        for rec in trace.records:
            assert abs(rec.eta0 - rec.extras["eta0_target"]) < 1e-9
            assert 0.0 < rec.extras["alpha"] <= 1.0

    @pytest.mark.parametrize("party", [1, 2])
    def test_rate_below_floor_names_the_party(self, party):
        e = qcore.random_ensemble(np.random.default_rng(0), 2, 3, pure=True)
        floor = optim.min_inconclusive_rate(e).eta0
        assert floor > 0.1
        rates = [0.5 * floor] if party == 1 else [floor + 0.5 * (1.0 - floor), 0.0]
        with pytest.raises(StrategyInfeasibleError, match="below this ensemble's floor") as info:
            run_sequence(e, seqchan.weakened_mcm_strategies(rates))
        assert info.value.party == party
        assert str(info.value).startswith(f"party {party}: inconclusive rate")
        assert isinstance(info.value.__cause__, FeasibilityError)

    def test_degenerate_qutrit_chain(self):
        """Label 1's optimal subspace is two-dimensional; the chain measures
        it whole, keeps both confidences at 1 and meets both rates."""
        trace = run_sequence(degenerate_qutrit(), seqchan.weakened_mcm_strategies([0.5, 0.5]))
        for rec in trace.records:
            assert abs(rec.eta0 - 0.5) < 1e-12
            for x in (1, 2):
                assert abs(rec.confidences[x] - 1.0) < 1e-12
                k = rec.channel.ops[x]
                np.testing.assert_allclose(k.conj().T @ k, rec.povm.elements[x], atol=1e-15)
        assert trace.records[1].confidences[1] <= trace.records[0].confidences[1] + 1e-15

    def test_symmetric_qutrit_chain_keeps_every_confidence(self):
        """``rho_x`` is 1/2 on two of three basis states: every optimal
        subspace is two-dimensional with ``C_x = 1/2``, and each party's
        operators are diagonal, so three parties at rates 0.6, 0.7 and 0.8
        keep every confidence at 1/2 and disturb nothing."""
        trace = run_sequence(symmetric_qutrit(), seqchan.weakened_mcm_strategies([0.6, 0.7, 0.8]))
        for rec, rate in zip(trace.records, (0.6, 0.7, 0.8)):
            assert all(abs(c - 0.5) < 1e-12 for c in rec.confidences.values())
            assert rec.disturbance < 1e-15
            assert abs(rec.eta0 - rate) < 1e-9


def rank_two_ensemble(rng: np.random.Generator, dim: int, eps: float) -> Ensemble:
    """``dim`` labels whose shaped operators ``rho^(-1/2) q_x rho_x rho^(-1/2)``
    are ``(1 - eps)/2`` times the projector onto the pair of columns
    ``x, x + 1 (mod dim)`` of a random unitary, plus ``eps/dim``: they sum to
    1, so ``rho`` (a random full-rank state) is the average, and each label's
    optimal subspace is two-dimensional with ``C_x = (1 - eps)/2 + eps/dim``."""
    u, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    root = qcore.sqrt_psd(0.5 * qcore.random_density(rng, dim).mat + 0.5 * np.eye(dim) / dim)
    priors, states = [], []
    for x in range(dim):
        pair = u[:, [x, (x + 1) % dim]]
        m = root @ (0.5 * (1.0 - eps) * pair @ pair.conj().T + eps / dim * np.eye(dim)) @ root
        priors.append(float(np.real(np.trace(m))))
        states.append(0.5 * (m + m.conj().T) / priors[-1])
    return Ensemble(priors=tuple(priors), states=tuple(states))


class TestRankTwoChainProperties:
    """Chains over ensembles whose every optimal subspace is two-dimensional,
    each party playing random feasible weights scaled by alpha on the
    optimal projectors of the ensemble it receives."""

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(
        dim=st.integers(3, qcore.DIM_CAP),
        seed=st.integers(0, 2**32 - 1),
        eps=st.floats(0.0, 0.5),
        alpha=st.floats(0.01, 1.0),
    )
    def test_chain_invariants(self, dim, seed, eps, alpha):
        rng = np.random.default_rng(seed)
        e = rank_two_ensemble(rng, dim, eps)
        entries = mcm.solve_mcm(e)
        assert all(len(entry.basis) == 2 for entry in entries.values())
        for entry in entries.values():
            assert abs(entry.confidence - ((1.0 - eps) / 2 + eps / dim)) < 1e-9

        def party(received: Ensemble, j: int) -> PartyPlan:
            weights = random_feasible_weights(rng, mcm.optimal_projectors(received))
            return seqchan.mcm_plan(received, {x: alpha * w for x, w in weights.items()})

        trace = run_sequence(e, [party, party])
        projectors = mcm.optimal_projectors(e)
        for x, k in trace.records[0].channel.ops.items():
            if x:  # the Lüders map of the whole optimal subspace
                w = trace.records[0].povm.elements[x].trace().real / 2
                np.testing.assert_allclose(k, math.sqrt(w) * projectors[x], atol=1e-12)
        for rec in trace.records:
            ch, povm = rec.channel, rec.povm
            for x, k in ch.ops.items():
                want = povm.elements[x] if x else povm.inconclusive
                np.testing.assert_allclose(k.conj().T @ k, want, rtol=0.0, atol=1e-12)
            total = sum(k.conj().T @ k for k in ch.ops.values())
            assert np.max(np.abs(total - np.eye(dim))) <= seqchan.COMPLETENESS_TOL
        first, second = trace.records
        for x in e.labels:
            assert second.confidences[x] <= first.confidences[x] + seqchan.MONOTONIC_TOL
            assert mcm.solve_mcm(trace.final_ensemble)[x].confidence <= (
                second.confidences[x] + seqchan.MONOTONIC_TOL
            )


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
        assert isinstance(trace.p_joint, float) and isinstance(trace.p_inconclusive, float)
        assert 0 <= trace.p_joint <= 1 and 0 <= trace.p_inconclusive <= 1

    def test_joint_outcomes_against_direct_composition(self):
        """P_J from the operator composition must equal the brute-force
        two-party sum over conclusive branches."""
        e = trine_ensemble()
        trace = run_sequence(e, [uniform_trine_strategy(0.6)] * 2)
        rec1, rec2 = trace.records
        direct = 0.0
        for x in (1, 2, 3):
            k = rec1.channel.ops[x]
            m = rec2.povm.elements[x]
            direct += e.prior(x) * float(
                np.real(np.trace(m @ k @ e.state(x).mat @ k.conj().T))
            )
        np.testing.assert_allclose(trace.p_joint, direct, atol=1e-12)

    def test_joint_outcomes_skip_a_label_an_earlier_party_never_clicks(self):
        """Party 1 at rate 1 measures nothing (no conclusive operators), so
        no label is conclusive at every party and the all-inconclusive
        probability is party 2's rate."""
        fam = families.gu(3)
        trace = run_sequence(fam.ensemble(), fam.strategies([1.0, 0.5]))
        assert list(trace.records[0].channel.ops) == [0]
        assert trace.p_joint == 0.0
        np.testing.assert_allclose(trace.p_inconclusive, 0.5, atol=1e-12)

    def test_empty_chain_raises(self):
        """Every trace carries its joint probabilities, and an empty chain has none."""
        with pytest.raises(ValueError, match="empty chain"):
            run_sequence(trine_ensemble(), [])

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
        strategies = fam.strategies(4)
        eigensolves.calls.clear()
        trace = run_sequence(e0, strategies)
        for rec in trace.records:
            rho = sum(q * s.mat for q, s in zip(rec.ensemble.priors, rec.ensemble.states))
            assert eigensolves.of(rho) == 1, rec.index

    def test_eigensolve_budget_of_one_party(self, eigensolves):
        """A party after the first adds 1 eigh call (``sqrt(M_0)``, in its
        strategy) and 1 eigvalsh call (validating the channel's image
        states).  The analysis makes 3 stacked eigh calls whatever the
        chain's length: the ``R + 1`` averages, which also validate them, the
        ``R x N`` shaped operators and the complements.  The chain reads only
        the confidences, so no complement state is built."""
        fam = families.gu(5)
        rates = [0.5 + 0.02 * j for j in range(16)]
        counts = []
        for parties in (2, 3, 16):
            e0 = fam.ensemble()
            eigensolves.calls.clear()
            run_sequence(e0, fam.strategies(rates[:parties]))
            stacks = eigensolves.stacks("eigh")
            assert stacks[:parties] == [1] * parties  # each party's sqrt(M_0), in order
            assert stacks[parties:-1] == [parties + 1, 5 * parties]
            assert len(stacks) == parties + 3
            counts.append((eigensolves.count("eigh"), eigensolves.count("eigvalsh")))
        (eigh_2, eigvalsh_2), (eigh_3, eigvalsh_3), _ = counts
        assert (eigh_3 - eigh_2, eigvalsh_3 - eigvalsh_2) == (1, 1)

    @pytest.mark.parametrize(
        "fam, schedule",
        [
            pytest.param(families.gu(4), [0.5, 0.6, 0.7], id="gu"),
            pytest.param(families.lifted_gu(4, 1.0, 0.9), [0.6, 0.7, 0.8], id="lifted_gu"),
            pytest.param(families.mirror(2.2), [0.5, 0.7, 0.9], id="mirror"),
        ],
    )
    def test_family_chain_builds_no_entries(self, fam, schedule, monkeypatch):
        """These chains read only each party's confidences (the first stage
        of the solve), so no McmEntry is ever built."""

        def no_entries(e):
            raise AssertionError("entries built")

        monkeypatch.setattr(mcm, "_solve", no_entries)
        trace = run_sequence(fam.ensemble(), fam.strategies(schedule))
        assert trace.parties == 3
        for rec in trace.records:
            assert rec.confidences == mcm.confidences(rec.ensemble)

    @pytest.mark.parametrize("source", ["two_mixed", "ensemble"])
    def test_chains_that_read_entries_still_build_them(self, source, monkeypatch):
        """A two_mixed party reads its optimal bases, and a generic party its
        optimal subspaces: one solve per party, and the recorded confidences
        are the solution's."""
        built = []
        real = mcm._solve

        def counted(e):
            built.append(e)
            return real(e)

        monkeypatch.setattr(mcm, "_solve", counted)
        if source == "two_mixed":
            fam = families.two_mixed(0.8, 1.0)
            e0, strategies = fam.ensemble(), fam.strategies(3)
        else:
            e0 = qcore.random_ensemble(np.random.default_rng(5), 2, 3)
            strategies = seqchan.weakened_mcm_strategies([0.9, 0.9, 0.9])
        trace = run_sequence(e0, strategies)
        assert built == [rec.ensemble for rec in trace.records]
        for rec in trace.records:
            solution = mcm.solve_mcm(rec.ensemble)
            assert rec.confidences == {x: entry.confidence for x, entry in solution.items()}


class TestTraceMonotonicityGuard:
    def _record(self, index: int, conf: float) -> PartyRecord:
        ch = KrausChannel(ops={0: np.eye(2)})
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
        with pytest.raises(seqchan.MonotonicityError, match="grew"):
            SequentialTrace(
                records=(self._record(1, 0.5), self._record(2, 0.7)),
                final_ensemble=e,
                p_joint=0.0,
                p_inconclusive=0.0,
            )

    def test_flat_confidence_accepted(self):
        e = Ensemble(priors=(1.0,), states=(np.eye(2) / 2,))
        trace = SequentialTrace(
            records=(self._record(1, 0.5), self._record(2, 0.5)),
            final_ensemble=e,
            p_joint=0.0,
            p_inconclusive=0.0,
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

    def test_csv_numpy_extras_print_as_floats(self):
        """A numpy scalar in the extras prints as its float, as in the JSON."""
        base = uniform_trine_strategy(0.5)

        def strategy(e: Ensemble, j: int) -> PartyPlan:
            plan = base(e, j)
            return PartyPlan(plan.povm, plan.channel, {"alpha": np.float64(0.5)})

        trace = run_sequence(trine_ensemble(), [strategy])
        header, row = trace_to_csv(trace).splitlines()
        assert row.split(",")[header.split(",").index("alpha")] == "0.5"
        assert trace_to_json(trace)["parties"][0]["extras"] == {"alpha": 0.5}

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
