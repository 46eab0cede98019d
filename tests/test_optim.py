"""Optimization-layer tests: inconclusive-rate minimization over scaled
optimal projectors, the min-error guessing dual, and equal-confidence
gain schedules.

Run with:  pytest tests/test_optim.py -v
"""

import decimal
import math

import numpy as np
import pytest

from seqmcm import families, mcm, optim, qcore
from seqmcm.checks import random_feasible_weights
from seqmcm.optim import (
    InfeasibleGainError,
    UnsupportedScaleError,
    min_error_guessing,
    min_inconclusive_rate,
    optimal_joint_schedule,
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


def _weighted(e: Ensemble) -> np.ndarray:
    return np.stack([q * s.mat for q, s in zip(e.priors, e.states)])


def _products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` over stacks of small matrices, by broadcasting: many times
    faster than ``numpy.matmul`` on thousands of 2 x 2 matrices."""
    return (a[..., :, :, None] * b[..., None, :, :]).sum(axis=-2)


def jrf_lower_bounds(weighted: np.ndarray) -> np.ndarray:
    """Success probabilities of the Jezek-Rehacek-Fiurasek fixed point
    (PRA 65, 060301, 2002) for a stack of ensembles, ``weighted[b, x]``
    holding ``R_x = q_x rho_x`` of ensemble ``b``: ``P_x <- S^-1/2 R_x P_x
    R_x S^-1/2`` with ``S = sum_x R_x P_x R_x`` (inverse square root on the
    support of ``S``).  Each iterate is a valid measurement (completed on
    the kernel of ``S``), so each value is a lower bound on ``P_guess``.
    Each ensemble iterates until 100 more iterations gain < 1e-13."""
    n, dim = weighted.shape[1:3]
    povm = np.broadcast_to(np.eye(dim) / n, weighted.shape).astype(complex)
    best = np.full(weighted.shape[0], -1.0)
    live = np.arange(weighted.shape[0])
    for _ in range(50):
        r, p = weighted[live], povm[live]
        for _ in range(100):
            sandwiches = _products(_products(r, p), r)
            vals, vecs = np.linalg.eigh(sandwiches.sum(axis=1))
            keep = vals > 1e-14 * vals[:, -1:]
            scale = np.where(keep, 1.0 / np.sqrt(np.where(keep, vals, 1.0)), 0.0)
            inv_sqrt = _products(vecs * scale[:, None, :], np.swapaxes(vecs.conj(), -1, -2))
            p = _products(_products(inv_sqrt[:, None], sandwiches), inv_sqrt[:, None])
        povm[live] = p
        value = np.einsum("bxij,bxji->b", r, p).real
        gain = value - best[live]
        best[live] = np.maximum(best[live], value)
        live = live[gain >= 1e-13]
        if not live.size:
            break
    return best


def jrf_lower_bound(e: Ensemble) -> float:
    """:func:`jrf_lower_bounds` of one ensemble."""
    return float(jrf_lower_bounds(_weighted(e)[None])[0])


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
        assert dict(sol.weights) == {1: 1.0, 2: 1.0} and sol.eta0 == 0.0  # exact, not interior

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

    def test_degenerate_face_near_analytic_centre(self):
        """The optimal projectors of these five qubit states admit a line
        of complete POVMs (eta0 = 0), so the optimal weights are not
        unique.  The solver returns the face's analytic center, the
        maximizer of sum_x log a_x subject to sum_x a_x P_x = 1, to 1e-12."""
        e = random_ensemble(np.random.default_rng(52), 2, 5, pure=True)
        projectors = mcm.optimal_projectors(e)
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
        assert np.abs(a - centre).max() < 1e-12

    def test_solved_once_per_ensemble_with_read_only_weights(self, monkeypatch):
        e = random_ensemble(np.random.default_rng(64), 3, 4)
        sol = min_inconclusive_rate(e)
        monkeypatch.setattr(optim, "_barrier_lmi", None)  # a second solve would fail
        assert min_inconclusive_rate(e) is sol
        with pytest.raises(TypeError):
            sol.weights[1] = 0.0

    def test_povm_validates(self):
        rng = np.random.default_rng(61)
        for _ in range(15):
            e = random_ensemble(rng, 2, int(rng.integers(2, 5)))
            sol = min_inconclusive_rate(e)
            povm = mcm.mcm_povm(e, sol.weights)
            assert validate_povm(povm).ok

    def test_dominates_random_feasible_points(self):
        """Certificate: no random feasible weight vector achieves a lower
        inconclusive rate (1000+ samples across several ensembles)."""
        rng = np.random.default_rng(62)
        total = 0
        for _ in range(4):
            e = random_ensemble(rng, 2, int(rng.integers(2, 5)))
            projectors = mcm.optimal_projectors(e)
            sol = min_inconclusive_rate(e)
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
        projectors = mcm.optimal_projectors(e)
        sol = min_inconclusive_rate(e)
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
        # label 2 has an empty basis; only label 1 should carry weight, all of it
        sol = min_inconclusive_rate(e)
        assert dict(sol.weights) == {1: 1.0} and sol.eta0 == 0.0


def _barrier_solution(e: Ensemble, monkeypatch) -> optim.WeightSolution:
    """The weights the barrier core finds for ``e``, on a fresh copy (the
    ensemble caches its own solution) with both exact solvers switched off.
    Its gap bound (1e-13) and ridge (1e-15) are a hundred times tighter than
    the defaults, so that on a degenerate face its weights come within
    1e-7 of the face's analytic center."""
    with monkeypatch.context() as patch:
        patch.setattr(optim, "_qubit_weights", lambda mats, c, rho: None)
        patch.setattr(optim, "_pair_weights", lambda bases, c: None)
        patch.setattr(optim, "GAP_TOL", 1e-13)
        patch.setattr(optim, "RIDGE", 1e-15)
        return min_inconclusive_rate(Ensemble(priors=e.priors, states=e.states))


def _weights(sol) -> np.ndarray:
    return np.array([sol.weights[x] for x in sorted(sol.weights)])


class TestExactPairWeights:
    """One or two labels with a nonempty optimal subspace are solved in
    closed form, with no Newton step; the barrier core is the reference."""

    def test_random_pairs_match_the_barrier(self, monkeypatch, solver_calls):
        rng = np.random.default_rng(81)
        for dim in range(2, 9):
            for pure in (False, True):
                for _ in range(4):
                    e = random_ensemble(rng, dim, 2, pure=pure)
                    solver_calls.clear()
                    exact = min_inconclusive_rate(e)
                    assert solver_calls["solve"] == 0
                    barrier = _barrier_solution(e, monkeypatch)
                    assert barrier.eta0 - 1e-10 <= exact.eta0 <= barrier.eta0
                    assert np.abs(_weights(exact) - _weights(barrier)).max() < 1e-7
                    assert abs(exact.psd_margin) < 1e-14  # on the boundary, to rounding

    def test_optimum_of_the_boundary_scan(self):
        """The weights lie on the curve (1 - a_1)(1 - a_2) = s a_1 a_2 and
        beat every point of a fine scan along it."""
        rng = np.random.default_rng(82)
        for dim in (2, 3, 5):
            e = random_ensemble(rng, dim, 2)
            projectors = mcm.optimal_projectors(e)
            p1, p2 = projectors[1], projectors[2]
            s = float(np.linalg.eigvalsh(p1 @ p2 @ p1)[-1])
            rho = e.average().mat
            c = np.array([np.trace(rho @ p).real for p in (p1, p2)])
            a = _weights(min_inconclusive_rate(e))
            assert abs((1 - a[0]) * (1 - a[1]) - s * a[0] * a[1]) < 1e-12
            a1 = np.linspace(0.0, 1.0, 200_001)
            a2 = (1.0 - a1) / (1.0 - (1.0 - s) * a1)
            scan = c[0] * a1 + c[1] * a2
            assert scan.max() <= c @ a + 1e-13
            assert abs(a1[np.argmax(scan)] - a[0]) < 1e-4

    @pytest.mark.parametrize("eps", [1e-4, 1e-6, 1e-7])
    def test_nearly_parallel_subspaces_against_50_digits(self, eps):
        """With 1 - s = sin(eps)**2 near rounding, the weights still match
        (1 - t sqrt(c_y / c_x)) / (1 - t**2) evaluated in 50-digit decimals
        on the same inputs; taking 1 - s as 1 - t**2 in doubles would lose
        up to half their digits."""
        x, y = math.cos(eps), math.sin(eps)
        c = np.array([0.6, 0.6 * (1.0 - 0.5 * y * y)])  # interior: s < c_2 / c_1 < 1
        a = optim._pair_weights([np.array([[1.0], [0.0]]), np.array([[x], [y]])], c)
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            dx, dy, c1, c2 = (decimal.Decimal(v) for v in (x, y, *c))
            t = dx / (dx * dx + dy * dy).sqrt()
            want = [(1 - t * (cy / cx).sqrt()) / (1 - t * t) for cx, cy in ((c1, c2), (c2, c1))]
        assert 0.0 < a[0] < 1.0 and 0.0 < a[1] < 1.0
        np.testing.assert_allclose(a, [float(w) for w in want], rtol=0.0, atol=1e-10)

    def test_rank_two_qutrit_projector(self, monkeypatch, solver_calls):
        """A shaped operator with a doubly degenerate top eigenvalue gives
        label 1 a rank-2 optimal projector; label 2's is rank one."""
        rng = np.random.default_rng(83)
        for _ in range(5):
            u = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
            shaped = u @ np.diag([0.8, 0.8, 0.3]) @ u.conj().T
            root = qcore.sqrt_psd(qcore.random_density(rng, 3).mat)
            weighted = (root @ shaped @ root, root @ (np.eye(3) - shaped) @ root)
            priors = tuple(float(np.trace(m).real) for m in weighted)
            e = Ensemble(priors=priors, states=tuple(m / q for m, q in zip(weighted, priors)))
            assert [entry.degeneracy for entry in mcm.solve_mcm(e).values()] == [2, 1]
            solver_calls.clear()
            exact = min_inconclusive_rate(e)
            assert solver_calls["solve"] == 0
            barrier = _barrier_solution(e, monkeypatch)
            assert barrier.eta0 - 1e-10 <= exact.eta0 <= barrier.eta0
            assert np.abs(_weights(exact) - _weights(barrier)).max() < 1e-7
            assert validate_povm(mcm.mcm_povm(e, exact.weights)).ok

    @pytest.mark.parametrize("eps", [10.0**-k for k in range(2, 11)])
    def test_near_identical_pairs(self, eps, monkeypatch):
        """Mixed states eps apart keep their optimal vectors well apart;
        pure states eps apart make s = cos(eps)**2 and c_x of order eps**2,
        so their weights are as uncertain as those c_x, and from eps near
        1e-5 on, the rank cut merges the two optimal subspaces into one
        and the barrier solves the shared face."""
        base = np.diag([0.7, 0.3]).astype(complex)
        mixed = Ensemble(priors=(0.4, 0.6), states=(base, base + eps * np.array([[0, 1], [1, 0]])))
        pure = Ensemble(
            priors=(0.5, 0.5),
            states=(_projector([1.0, 0.0]), _projector([math.cos(eps), math.sin(eps)])),
        )
        for e, weights_tol in ((mixed, 1e-7), (pure, 1.0)):  # pure: weights not pinned
            exact = min_inconclusive_rate(e)
            barrier = _barrier_solution(e, monkeypatch)
            assert barrier.eta0 - 1e-10 <= exact.eta0 <= barrier.eta0
            assert np.abs(_weights(exact) - _weights(barrier)).max() < weights_tol
            assert validate_povm(mcm.mcm_povm(e, exact.weights)).ok
            assert exact.psd_margin > -1e-14

    def test_identical_states_take_the_barrier(self, solver_calls):
        """Identical qutrit states share their optimal subspace (s = 1): the
        optimal face is a segment, and the barrier returns its centre."""
        state = np.array([[0.5, 0.1, 0.0], [0.1, 0.3, 0.05], [0.0, 0.05, 0.2]])
        for priors in ((0.5, 0.5), (0.3, 0.7)):
            solver_calls.clear()
            sol = min_inconclusive_rate(Ensemble(priors=priors, states=(state, state)))
            assert solver_calls["solve"] > 0
            np.testing.assert_allclose(_weights(sol), [0.5, 0.5], atol=1e-7)


class TestExactQubitWeights:
    """Every qubit weight problem is solved exactly through its dual, with
    no Newton step and a certificate on every solve; the barrier core,
    forced on a fresh copy, is the reference."""

    @staticmethod
    def _assert_matches_barrier(e, monkeypatch):
        exact = min_inconclusive_rate(e)
        barrier = _barrier_solution(e, monkeypatch)
        assert barrier.eta0 - 1e-10 <= exact.eta0 <= barrier.eta0
        assert np.abs(_weights(exact) - _weights(barrier)).max() < 1e-7
        assert abs(exact.psd_margin) < 1e-14  # on the boundary, to rounding
        assert validate_povm(mcm.mcm_povm(e, exact.weights)).ok

    def test_random_draws_match_the_barrier(self, monkeypatch, solver_calls):
        """1,000 seeded draws, N = 2..6, pure and mixed, within the bounds
        the pair closed form meets."""
        rng = np.random.default_rng(91)
        for n in range(2, 7):
            for pure in (False, True):
                for _ in range(100):
                    e = random_ensemble(rng, 2, n, pure=pure)
                    mcm.solve_mcm(e)
                    solver_calls.clear()
                    min_inconclusive_rate(e)
                    assert solver_calls["solve"] == 0
                    self._assert_matches_barrier(e, monkeypatch)

    def test_families_match_the_barrier(self, monkeypatch):
        """gu(4) and up have a degenerate face at eta0 = 0, lifted_gu(4) and
        up one with the cone active; the exact centre is symmetric, at the
        families' closed-form weight."""
        for fam in [families.gu(n) for n in range(2, 8)] + [
            families.lifted_gu(n, 1.0, 0.9) for n in range(3, 8)
        ]:
            e = fam.ensemble()
            self._assert_matches_barrier(e, monkeypatch)
            w = _weights(min_inconclusive_rate(e))
            np.testing.assert_allclose(w, fam.full_weight, rtol=0.0, atol=1e-14)
        for fam in (families.mirror(2.2), families.two_mixed(0.8, 1.0)):
            self._assert_matches_barrier(fam.ensemble(), monkeypatch)

    @pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12])
    def test_hard_set_is_certified(self, eps, monkeypatch):
        """Near-parallel states, as a mixed pair, a pure pair, a pure pair
        with a third state, and a pure pair at priors of 1e-7: every solve
        passes its certificate (no ConvergenceError), eta0 is never above
        the barrier's, and the POVM validates.  Where near-parallel states
        make the c_x or the split between two nearly equal projectors a
        rounding matter, the weights are not pinned, and the barrier's eta0
        may stay above the optimum by more than its gap bound."""
        base = np.diag([0.7, 0.3]).astype(complex)
        near = [_projector([1.0, 0.0]), _projector([math.cos(eps), math.sin(eps)])]
        cases = [
            Ensemble(priors=(0.4, 0.6), states=(base, base + eps * np.array([[0, 1], [1, 0]]))),
            Ensemble(priors=(0.5, 0.5), states=tuple(near)),
            Ensemble(priors=(0.3, 0.3, 0.4), states=(*near, _projector([1.0, 1j]))),
            Ensemble(
                priors=(1.0 - 2e-7, 1e-7, 1e-7),
                states=(base, *near),
            ),
        ]
        for e in cases:
            exact = min_inconclusive_rate(e)
            assert exact.eta0 <= _barrier_solution(e, monkeypatch).eta0
            assert validate_povm(mcm.mcm_povm(e, exact.weights)).ok
            assert abs(exact.psd_margin) < 1e-14

    def test_rank_two_and_tiny_priors(self, monkeypatch):
        """A rank-two P_x = 1 (a state equal to the average) and priors of
        1e-7 match the barrier."""
        rng = np.random.default_rng(92)
        mixed = Ensemble(
            priors=(0.2, 0.4, 0.4),
            states=(np.eye(2) / 2, _projector([1.0, 0.0]), _projector([0.0, 1.0])),
        )
        assert [len(entry.basis) for entry in mcm.solve_mcm(mixed).values()] == [2, 1, 1]
        self._assert_matches_barrier(mixed, monkeypatch)
        for _ in range(10):
            e = random_ensemble(rng, 2, 4)
            q = np.array(e.priors)
            q[: int(rng.integers(1, 3))] = 1e-7
            self._assert_matches_barrier(
                Ensemble(priors=tuple(q / q.sum()), states=e.states), monkeypatch
            )

    def test_identical_states_take_no_newton_step(self, solver_calls):
        """Identical qubit states, mixed (P_x = 1) or pure, give a segment of
        optimal weights; its exact centre is [0.5, 0.5]."""
        for state in (np.array([[0.6, 0.2], [0.2, 0.4]]), _projector([1.0, 1j])):
            for priors in ((0.5, 0.5), (0.3, 0.7)):
                solver_calls.clear()
                sol = min_inconclusive_rate(Ensemble(priors=priors, states=(state, state)))
                assert solver_calls["solve"] == 0
                assert list(_weights(sol)) == [0.5, 0.5]

    def test_failed_certificate_raises(self, monkeypatch):
        """Cone candidates knocked off the optimum (the optimum of
        lifted_gu lies on the cone, eta0 = cos theta) leave a dual point
        whose weights cannot close the gap: ConvergenceError, never a
        silent fallback."""
        real = optim._cone_candidates
        monkeypatch.setattr(optim, "_cone_candidates", lambda rows, c: 1.01 * real(rows, c))
        with pytest.raises(optim.ConvergenceError):
            min_inconclusive_rate(families.lifted_gu(3, 1.0, 0.9).ensemble())


class TestNewtonBudget:
    """Each ``numpy.linalg.solve`` in the SDPs is one Newton step of the
    barrier core."""

    def test_weight_sdp(self, solver_calls):
        rng = np.random.default_rng(64)
        for dim in (2, 4, 8):
            for n in (2, 3, 4, 5, 6):
                for pure in (False, True):
                    e = random_ensemble(rng, dim, n, pure=pure)
                    mcm.solve_mcm(e)
                    solver_calls.clear()
                    min_inconclusive_rate(e)
                    if dim == 2 or n == 2:  # solved exactly
                        assert solver_calls["solve"] == 0
                    else:
                        assert 0 < solver_calls["solve"] <= 80

    def test_guessing_sdp(self, solver_calls):
        rng = np.random.default_rng(65)
        for dim in (2, 3, 4):
            for n in (3, 4, 5, 6):
                for pure in (False, True):
                    e = random_ensemble(rng, dim, n, pure=pure)
                    solver_calls.clear()
                    min_error_guessing(e)
                    if dim == 2:  # solved exactly
                        assert solver_calls["solve"] == 0
                    else:
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
        projectors = mcm.optimal_projectors(e)
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
        projectors = mcm.optimal_projectors(e)
        w1 = random_feasible_weights(np.random.default_rng(5), projectors)
        w2 = random_feasible_weights(np.random.default_rng(5), projectors)
        assert w1 == w2


# ---------------------------------------------------------------------------
# min-error guessing
# ---------------------------------------------------------------------------


class TestMinErrorGuessing:
    def test_trine(self):
        np.testing.assert_allclose(
            min_error_guessing(trine_ensemble()), 2.0 / 3.0, atol=1e-12
        )

    def test_square(self):
        """Four symmetric equatorial states: P_guess = 1/2."""
        np.testing.assert_allclose(
            min_error_guessing(ring_ensemble(4)), 0.5, atol=1e-12
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
        """n equiprobable equatorial pure states: P_guess = 2/n exactly, and
        the exact qubit solve finds it to rounding."""
        p = min_error_guessing(families.gu(n).ensemble())
        assert 2.0 / n - 1e-12 <= p <= 2.0 / n + 1e-12

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


def _barrier_guessing(e: Ensemble, monkeypatch) -> float:
    """The guessing probability the barrier core finds for ``e``, forced for
    qubits too, at a gap bound of 1e-13, a hundred times tighter than the
    default (as :func:`_barrier_solution` does for the weights)."""
    with monkeypatch.context() as patch:
        patch.setattr(optim, "_qubit_guessing", optim._barrier_guessing)
        patch.setattr(optim, "GAP_TOL", 1e-13)
        return min_error_guessing(e)


def _bloch_state(x: float, y: float, z: float) -> np.ndarray:
    return 0.5 * np.array([[1.0 + z, x - 1j * y], [x + 1j * y, 1.0 - z]])


class TestExactQubitGuessing:
    """Every qubit guessing problem is solved exactly through its dual, the
    smallest weighted enclosing ball of the Bloch points, with no Newton
    step and a measurement certifying every answer; the barrier core,
    forced, is the reference, and the JRF measurement a primal bound."""

    def test_random_draws_match_the_barrier(self, monkeypatch, solver_calls):
        """512 seeded draws, N = 3..6, pure and mixed: never above the
        barrier's value, at most 1e-10 below it, never below the primal
        bound."""
        rng = np.random.default_rng(93)
        for n in range(3, 7):
            for pure in (False, True):
                draws = [random_ensemble(rng, 2, n, pure=pure) for _ in range(64)]
                bounds = jrf_lower_bounds(np.stack([_weighted(e) for e in draws]))
                for e, bound in zip(draws, bounds):
                    solver_calls.clear()
                    exact = min_error_guessing(e)
                    assert solver_calls["solve"] == 0
                    barrier = _barrier_guessing(e, monkeypatch)
                    assert barrier - 1e-10 <= exact <= barrier
                    assert exact >= bound - 1e-12

    def test_tetrahedral_states(self):
        """Four equiprobable pure states at the vertices of a tetrahedron on
        the Bloch sphere: the ball's centre is the origin, P_guess = 1/2."""
        signs = [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)]
        states = tuple(_bloch_state(*(np.array(v) / math.sqrt(3.0))) for v in signs)
        e = Ensemble(priors=(0.25,) * 4, states=states)
        assert abs(min_error_guessing(e) - 0.5) <= 1e-15

    def test_dominant_prior(self):
        """A mixed state whose weighted operator dominates every other one
        (q_1 rho_1 >= q_x rho_x): always guessing it is optimal, P_guess =
        q_1."""
        states = (
            _bloch_state(0.0, 0.0, 0.1),
            _projector([1.0, 0.0]),
            _projector([1.0, 1j]),
            _projector([0.3, 1.0]),
        )
        for q1 in (0.7, 0.9):
            rest = (1.0 - q1) / 3.0
            e = Ensemble(priors=(q1, rest, rest, rest), states=states)
            assert abs(min_error_guessing(e) - q1) <= 1e-15

    @pytest.mark.parametrize("n", [5, 6])
    def test_gu_faces(self, n):
        """gu(5) and gu(6): every state is active at the centre, more than
        the plane's three coordinates fix, so the measurement is the
        analytic centre of a face of optimal ones."""
        assert abs(min_error_guessing(families.gu(n).ensemble()) - 2.0 / n) <= 1e-12

    @pytest.mark.parametrize("theta", [0.1, 1.0])
    @pytest.mark.parametrize("tiny", [1e-6, 1e-8])
    def test_nearly_touching_balls(self, theta, tiny, monkeypatch):
        """|0> at priors 0.53 and 0.47 - tiny (the second ball touches the
        first from inside) and a pure state theta away at prior tiny, whose
        ball reaches out of the first by about tiny theta**2 / 4: the
        centre lies that close to the likelier state's point, where the
        squared differences lose its digits and the second |0> nears the
        ball without earning weight.  Certified, within the barrier's
        bounds."""
        e = Ensemble(
            priors=(0.53, tiny, 0.47 - tiny),
            states=(
                _bloch_state(0.0, 0.0, 1.0),
                _bloch_state(math.sin(theta), 0.0, math.cos(theta)),
                _bloch_state(0.0, 0.0, 1.0),
            ),
        )
        barrier = _barrier_guessing(e, monkeypatch)
        assert barrier - 1e-10 <= min_error_guessing(e) <= barrier

    def test_pairs_match_the_trace_norm(self):
        """Two states through the qubit solver itself (min_error_guessing
        short-circuits them) give the trace-norm formula."""
        rng = np.random.default_rng(94)
        for pure in (False, True):
            for _ in range(20):
                e = random_ensemble(rng, 2, 2, pure=pure)
                weighted = _weighted(e)
                want = 0.5 * (1.0 + np.abs(np.linalg.eigvalsh(weighted[0] - weighted[1])).sum())
                got = np.trace(optim._qubit_guessing(weighted)).real
                assert abs(got - want) <= 1e-12

    def test_perturbed_candidates_raise(self, monkeypatch):
        """Candidate centres knocked off the optimum leave a ball whose
        measurement cannot close the gap: ConvergenceError, never a silent
        fallback."""
        real = optim._ball_candidates
        monkeypatch.setattr(optim, "_ball_candidates", lambda s, p, r: real(s, p, r) + 1e-6)
        rng = np.random.default_rng(95)
        for e in [trine_ensemble(), families.gu(5).ensemble()] + [
            random_ensemble(rng, 2, n) for n in (3, 4, 5, 6)
        ]:
            with pytest.raises(optim.ConvergenceError):
                min_error_guessing(e)


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
