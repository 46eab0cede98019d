"""Optimization-layer tests: inconclusive-rate minimization over scaled
optimal projectors, the min-error guessing dual, and equal-confidence
gain schedules.

Run with:  pytest tests/test_optim.py -v
"""

import math

import numpy as np
import pytest

from seqmcm import families, mcm, optim, qcore
from seqmcm.optim import (
    GainSchedule,
    InfeasibleGainError,
    UnsupportedScaleError,
    min_error_guessing,
    min_inconclusive_rate,
    optimal_joint_schedule,
    random_feasible_weights,
    two_state_least_disturbing,
)
from seqmcm.qcore import Ensemble, random_ensemble, validate_povm


def _projector(v):
    v = np.asarray(v, dtype=complex)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


def ring_ensemble(n: int) -> Ensemble:
    """n equal-prior pure states (|0> + e^(i 2 pi x / n)|1>)/sqrt(2)."""
    states = []
    for x in range(1, n + 1):
        beta = 2 * math.pi * x / n
        states.append(_projector(np.array([1.0, np.exp(1j * beta)]) / math.sqrt(2)))
    return Ensemble(priors=(1.0 / n,) * n, states=tuple(states))


def trine_ensemble() -> Ensemble:
    states = tuple(
        _projector([math.cos(k * math.pi / 3), math.sin(k * math.pi / 3)])
        for k in range(3)
    )
    return Ensemble(priors=(1 / 3, 1 / 3, 1 / 3), states=states)


def jrf_lower_bound(e: Ensemble) -> float:
    """Success probability of the Jezek-Rehacek-Fiurasek fixed point
    (PRA 65, 060301, 2002), ``P_x <- S^-1/2 R_x P_x R_x S^-1/2`` with
    ``R_x = q_x rho_x`` and ``S = sum_x R_x P_x R_x`` (inverse square root
    on the support of ``S``): a valid measurement, so a lower bound on
    ``P_guess``.  Iterates until 100 more iterations gain < 1e-13."""
    weighted = [q * s.mat for q, s in zip(e.priors, e.states)]
    povm = [np.eye(e.dim) / e.n] * e.n
    best = -1.0
    for _ in range(50):
        for _ in range(100):
            sandwiches = [r @ p @ r for r, p in zip(weighted, povm)]
            vals, vecs = np.linalg.eigh(sum(sandwiches))
            keep = vals > 1e-14 * vals[-1]
            inv_sqrt = (vecs[:, keep] / np.sqrt(vals[keep])) @ vecs[:, keep].conj().T
            povm = [inv_sqrt @ m @ inv_sqrt for m in sandwiches]
        value = sum(float(np.real(np.trace(r @ p))) for r, p in zip(weighted, povm))
        if value - best < 1e-13:
            break
        best = value
    return max(value, best)


# ---------------------------------------------------------------------------
# inconclusive-rate minimization
# ---------------------------------------------------------------------------


class TestMinInconclusiveRate:
    def test_ring_states_complete_povm(self):
        """Symmetric phase states admit a complete MCM POVM: weights 2/n,
        inconclusive rate 0."""
        for n in (3, 4, 5):
            sol = min_inconclusive_rate(ring_ensemble(n))
            for a in sol.weights.values():
                np.testing.assert_allclose(a, 2.0 / n, atol=1e-9)
            np.testing.assert_allclose(sol.eta0, 0.0, atol=1e-9)
            assert sol.psd_margin >= -1e-9

    def test_orthogonal_pair_full_weights(self):
        e = Ensemble(
            priors=(0.5, 0.5), states=(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        )
        sol = min_inconclusive_rate(e)
        np.testing.assert_allclose(sorted(sol.weights.values()), [1.0, 1.0], atol=1e-9)
        np.testing.assert_allclose(sol.eta0, 0.0, atol=1e-9)

    def test_shrunk_ring_floor(self):
        """Mixing each ring state with white noise while keeping the same
        average forces a residual inconclusive rate: for states
        lam |psi_x><psi_x| + (1 - lam) 1/2 tilted to polar angle theta the
        optimum is a_x = 2 / (n (1 + cos theta)) with eta0 = cos theta."""
        n, theta, lam = 4, 0.9, 0.7
        states = []
        for x in range(1, n + 1):
            beta = 2 * math.pi * x / n
            off = lam * math.sin(theta) * np.exp(-1j * beta)
            mat = 0.5 * np.array(
                [[1 + math.cos(theta), off], [np.conj(off), 1 - math.cos(theta)]]
            )
            states.append(mat)
        e = Ensemble(priors=(1.0 / n,) * n, states=tuple(states))
        sol = min_inconclusive_rate(e)
        want = 2.0 / (n * (1 + math.cos(theta)))
        for a in sol.weights.values():
            np.testing.assert_allclose(a, want, atol=1e-9)
        np.testing.assert_allclose(sol.eta0, math.cos(theta), atol=1e-9)

    def test_symmetric_problem_symmetric_weights(self):
        """On the trine the optimum is unique up to the symmetric face;
        the solver must return identical weights, not an asymmetric
        vertex of the degenerate optimal face."""
        sol = min_inconclusive_rate(trine_ensemble())
        vals = list(sol.weights.values())
        np.testing.assert_allclose(vals, [vals[0]] * 3, atol=1e-12)
        np.testing.assert_allclose(vals[0], 2.0 / 3.0, atol=1e-9)

    def test_degenerate_face_near_analytic_centre(self, monkeypatch):
        """The optimal projectors of these five qubit states admit a line
        of complete POVMs (eta0 = 0), so the optimal weights are not
        unique.  The solver returns a point within 1e-7 of the face's
        analytic center, the maximizer of sum_x log a_x subject to
        sum_x a_x P_x = 1; the ridge of the Newton system moves it by less
        than that."""
        e = random_ensemble(np.random.default_rng(52), 2, 5, pure=True)
        projectors = mcm.optimal_projectors(mcm.solve_mcm(e))
        mats = np.stack([projectors[x] for x in sorted(projectors)]).reshape(5, 4)
        sol = min_inconclusive_rate(e)
        a = np.array([sol.weights[x] for x in sorted(sol.weights)])
        assert abs(sol.eta0) < 1e-10

        lin = np.concatenate([mats.real, mats.imag], axis=1).T  # rank 4
        target = np.concatenate([np.eye(2).reshape(4), np.zeros(4)])
        null = np.linalg.svd(lin)[2][4:].T
        centre = a - np.linalg.lstsq(lin, lin @ a - target, rcond=None)[0]
        for _ in range(20):
            hess = null.T @ (null / centre[:, None] ** 2)
            centre = centre + null @ np.linalg.solve(hess, null.T @ (1.0 / centre))
        assert np.abs(null.T @ (1.0 / centre)).max() < 1e-12
        assert np.abs(a - centre).max() < 1e-7

        monkeypatch.setattr(optim, "RIDGE", 1e-14)
        again = min_inconclusive_rate(e)
        assert max(abs(again.weights[x] - sol.weights[x]) for x in sol.weights) < 1e-7

    def test_povm_validates(self):
        rng = np.random.default_rng(61)
        for _ in range(15):
            e = random_ensemble(rng, 2, int(rng.integers(2, 5)))
            sol = min_inconclusive_rate(e)
            povm = mcm.mcm_povm(e, sol.weights)
            assert validate_povm(povm, tol=1e-8).ok

    def test_dominates_random_feasible_points(self):
        """Certificate: no random feasible weight vector achieves a lower
        inconclusive rate (1000+ samples across several ensembles)."""
        rng = np.random.default_rng(62)
        total = 0
        for _ in range(4):
            e = random_ensemble(rng, 2, int(rng.integers(2, 5)))
            entries = mcm.solve_mcm(e)
            projectors = mcm.optimal_projectors(entries)
            sol = min_inconclusive_rate(e, projectors)
            rho = e.average().mat
            for _ in range(300):
                w = random_feasible_weights(rng, projectors)
                eta = 1.0 - sum(
                    w[x] * float(np.real(np.trace(projectors[x] @ rho))) for x in w
                )
                assert eta >= sol.eta0 - 1e-9
                total += 1
        assert total >= 1000

    def test_local_perturbations_do_not_improve(self):
        """+-1e-3 coordinate perturbations that stay feasible never lower
        the objective beyond solver precision."""
        rng = np.random.default_rng(63)
        e = random_ensemble(rng, 2, 3)
        projectors = mcm.optimal_projectors(mcm.solve_mcm(e))
        sol = min_inconclusive_rate(e, projectors)
        labels = sorted(projectors)
        rho = e.average().mat
        base = np.array([sol.weights[x] for x in labels])
        mats = np.stack([projectors[x] for x in labels])

        def eta(w):
            total = np.tensordot(w, mats, axes=1)
            if np.any(w < 0):
                return None
            if float(np.linalg.eigvalsh(np.eye(2) - total)[0]) < -1e-12:
                return None
            return 1.0 - float(np.real(np.trace(total @ rho)))

        tried = 0
        for _ in range(500):
            delta = rng.choice([-1e-3, 0.0, 1e-3], size=len(labels))
            if not np.any(delta):
                continue
            val = eta(base + delta)
            if val is None:
                continue
            assert val >= sol.eta0 - 1e-9
            tried += 1
        assert tried >= 50

    def test_rejects_all_zero_prior(self):
        e = Ensemble(
            priors=(1.0, 0.0), states=(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        )
        # label 2 has an empty basis; only label 1 should carry weight
        sol = min_inconclusive_rate(e)
        assert sorted(sol.weights) == [1]


class TestNewtonBudget:
    """Each ``numpy.linalg.solve`` in the SDPs is one Newton step of the
    barrier core."""

    def test_weight_sdp(self, solver_calls):
        rng = np.random.default_rng(64)
        for dim in (2, 4, 8):
            for n in (2, 3, 4, 6):
                for pure in (False, True):
                    e = random_ensemble(rng, dim, n, pure=pure)
                    mcm.solve_mcm(e)
                    solver_calls.clear()
                    min_inconclusive_rate(e)
                    assert 0 < solver_calls["solve"] <= 80

    def test_guessing_sdp(self, solver_calls):
        rng = np.random.default_rng(65)
        for dim in (2, 3, 4):
            for n in (3, 4, 5, 6):
                for pure in (False, True):
                    e = random_ensemble(rng, dim, n, pure=pure)
                    solver_calls.clear()
                    min_error_guessing(e)
                    assert 0 < solver_calls["solve"] <= 50

    def test_stopping_short_raises(self, monkeypatch):
        """A solve cut off before its gap bound reaches GAP_TOL raises
        instead of returning an unconverged iterate as the answer."""
        e = random_ensemble(np.random.default_rng(66), 3, 4)
        monkeypatch.setattr(optim, "MAX_STEPS", 5)
        with pytest.raises(optim.ConvergenceError):
            min_inconclusive_rate(e)
        with pytest.raises(optim.ConvergenceError):
            min_error_guessing(e)


class TestRandomFeasibleWeights:
    def test_always_feasible(self):
        rng = np.random.default_rng(71)
        e = random_ensemble(rng, 2, 3)
        projectors = mcm.optimal_projectors(mcm.solve_mcm(e))
        labels = sorted(projectors)
        mats = np.stack([projectors[x] for x in labels])
        for _ in range(300):
            w = random_feasible_weights(rng, projectors)
            assert all(v >= 0 for v in w.values())
            total = np.tensordot([w[x] for x in labels], mats, axes=1)
            low = float(np.linalg.eigvalsh(np.eye(2) - total)[0])
            assert low >= -1e-12

    def test_seeded_reproducible(self):
        e = trine_ensemble()
        projectors = mcm.optimal_projectors(mcm.solve_mcm(e))
        w1 = random_feasible_weights(np.random.default_rng(5), projectors)
        w2 = random_feasible_weights(np.random.default_rng(5), projectors)
        assert w1 == w2


# ---------------------------------------------------------------------------
# min-error guessing
# ---------------------------------------------------------------------------


class TestMinErrorGuessing:
    def test_trine(self):
        np.testing.assert_allclose(
            min_error_guessing(trine_ensemble()), 2.0 / 3.0, atol=1e-5
        )

    def test_square(self):
        """Four symmetric equatorial states: P_guess = 1/2."""
        np.testing.assert_allclose(
            min_error_guessing(ring_ensemble(4)), 0.5, atol=1e-5
        )

    def test_two_state_short_circuit_exact(self):
        e = Ensemble(
            priors=(0.3, 0.7), states=(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        )
        np.testing.assert_allclose(min_error_guessing(e), 1.0, atol=1e-12)

    def test_bounds(self):
        rng = np.random.default_rng(81)
        for _ in range(3):
            e = random_ensemble(rng, 2, 3)
            p = min_error_guessing(e)
            assert max(e.priors) - 1e-6 <= p <= 1.0 + 1e-9

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_gu_tight(self, n):
        """n equiprobable equatorial pure states: P_guess = 2/n exactly; the
        dual value is an upper bound within the barrier's gap."""
        p = min_error_guessing(families.gu(n).ensemble())
        assert 2.0 / n - 1e-12 <= p <= 2.0 / n + 1e-9

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_gu_insensitive_to_last_bits(self, n):
        e = families.gu(n).ensemble()
        states = [np.array(s.mat) for s in e.states]
        states[0][0, 1] += 1e-16
        states[0][1, 0] += 1e-16
        nudged = Ensemble(priors=e.priors, states=tuple(states))
        assert nudged.state(1).mat[0, 1] != e.state(1).mat[0, 1]
        assert abs(min_error_guessing(nudged) - min_error_guessing(e)) <= 1e-12

    def test_matches_jrf_primal_bound(self):
        """The dual value sits within 1e-7 above an independent primal
        bound (the JRF measurement), and never below it."""
        rng = np.random.default_rng(83)
        for dim in (2, 3, 4):
            for n in (3, 4, 5, 6):
                for pure in (False, True):
                    e = random_ensemble(rng, dim, n, pure=pure)
                    low = jrf_lower_bound(e)
                    assert low - 1e-12 <= min_error_guessing(e) <= low + 1e-7

    @pytest.mark.parametrize("dim", [6, 8])
    def test_two_states_of_any_dimension(self, dim):
        """Two states take the trace-norm formula ahead of the scale guard."""
        e = random_ensemble(np.random.default_rng(dim), dim, 2)
        gap = e.prior(1) * e.state(1).mat - e.prior(2) * e.state(2).mat
        want = 0.5 * (1.0 + np.sum(np.abs(np.linalg.eigvalsh(gap))))
        assert abs(min_error_guessing(e) - want) < 1e-12

    def test_scale_guard(self):
        rng = np.random.default_rng(82)
        big_n = random_ensemble(rng, 2, 7)
        with pytest.raises(UnsupportedScaleError):
            min_error_guessing(big_n)
        big_d = random_ensemble(rng, 5, 3)
        with pytest.raises(UnsupportedScaleError):
            min_error_guessing(big_d)


# ---------------------------------------------------------------------------
# two-state gain machinery
# ---------------------------------------------------------------------------


class TestTwoStateLeastDisturbing:
    def test_worked_example(self):
        a1, a2, s_new = two_state_least_disturbing(0.75, 0.4, 0.15)
        np.testing.assert_allclose(a1, 0.15 / (0.75 * (1 - 0.16)), atol=1e-15)
        assert a1 == a2
        np.testing.assert_allclose(s_new, 0.5, atol=1e-15)

    def test_zero_gain_identity(self):
        a1, a2, s_new = two_state_least_disturbing(0.9, 0.3, 0.0)
        assert a1 == 0.0 and a2 == 0.0
        np.testing.assert_allclose(s_new, 0.3, atol=0.0)

    def test_full_gain_saturates(self):
        c, s = 0.8, 0.25
        a1, _, s_new = two_state_least_disturbing(c, s, c * (1 - s))
        assert s_new == 1.0
        np.testing.assert_allclose(a1, (1 - s) / (1 - s * s), atol=1e-12)

    def test_infeasible_gain(self):
        with pytest.raises(InfeasibleGainError):
            two_state_least_disturbing(0.5, 0.5, 0.3)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            two_state_least_disturbing(0.0, 0.5, 0.1)
        with pytest.raises(ValueError):
            two_state_least_disturbing(0.5, 1.0, 0.1)

    def test_overlap_update_composes(self):
        """Chaining two equal-gain steps reproduces a single combined
        step: s -> s/(1-G/C) applied twice."""
        c, s = 0.9, 0.36
        g = c * (1 - math.sqrt(s))  # two even steps land exactly at 1
        _, _, s1 = two_state_least_disturbing(c, s, g)
        np.testing.assert_allclose(s1, math.sqrt(s), atol=1e-12)
        _, _, s2 = two_state_least_disturbing(c, s1, g)
        np.testing.assert_allclose(s2, 1.0, atol=1e-12)


class TestOptimalJointSchedule:
    def test_worked_example(self):
        """C = 1, s = 1/2, R = 2: each party gains 1 - sqrt(1/2) and the
        joint conclusive probability is (1 - sqrt(1/2))^2 ~ 0.08579."""
        sched = optimal_joint_schedule(1.0, 0.5, 2)
        np.testing.assert_allclose(sched.p_joint, 0.08578643762690487, atol=1e-15)
        np.testing.assert_allclose(sched.p_inconclusive, 0.5, atol=0.0)
        np.testing.assert_allclose(sched.gains, [1 - math.sqrt(0.5)] * 2, atol=1e-15)
        np.testing.assert_allclose(
            sched.overlaps, [0.5, math.sqrt(0.5), 1.0], atol=1e-15
        )

    def test_constraint_product(self):
        """prod_j (1 - G_j / C) must equal the initial overlap."""
        for c, s, r in ((0.8, 0.3, 3), (0.6, 0.7, 4), (1.0, 0.05, 5)):
            sched = optimal_joint_schedule(c, s, r)
            prod = 1.0
            for g in sched.gains:
                prod *= 1.0 - g / c
            np.testing.assert_allclose(prod, s, atol=1e-12)

    def test_joint_probability_identity(self):
        """P_J = C^(1-R) prod_j G_j for the even split."""
        sched = optimal_joint_schedule(0.75, 0.4, 3)
        prod = 1.0
        for g in sched.gains:
            prod *= g
        np.testing.assert_allclose(
            sched.p_joint, 0.75 ** (1 - 3) * prod, atol=1e-15
        )

    def test_even_split_is_optimal(self):
        """Random uneven splits satisfying the same overlap constraint
        never beat the even split's joint probability."""
        rng = np.random.default_rng(91)
        c, s, r = 0.9, 0.2, 4
        best = optimal_joint_schedule(c, s, r).p_joint
        for _ in range(300):
            w = rng.random(r) + 1e-3
            w = w / w.sum()  # exponents of s: prod (1 - G_j/C) = s
            gains = c * (1.0 - s**w)
            p = c ** (1 - r) * float(np.prod(gains))
            assert p <= best + 1e-12

    def test_more_parties_less_joint_probability(self):
        vals = [optimal_joint_schedule(0.8, 0.3, r).p_joint for r in range(1, 7)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_zero_overlap_degenerate(self):
        sched = optimal_joint_schedule(0.7, 0.0, 3)
        assert sched.note is not None
        np.testing.assert_allclose(sched.p_joint, 0.7, atol=0.0)
        np.testing.assert_allclose(sched.p_inconclusive, 0.0, atol=0.0)
        assert sched.gains == (0.7, 0.7, 0.7)

    def test_single_party(self):
        sched = optimal_joint_schedule(0.9, 0.4, 1)
        np.testing.assert_allclose(sched.p_joint, 0.9 * 0.6, atol=1e-15)
        np.testing.assert_allclose(sched.gains[0], 0.9 * 0.6, atol=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            optimal_joint_schedule(0.0, 0.5, 2)
        with pytest.raises(ValueError):
            optimal_joint_schedule(0.5, 1.0, 2)
        with pytest.raises(ValueError):
            optimal_joint_schedule(0.5, 0.5, 0)
