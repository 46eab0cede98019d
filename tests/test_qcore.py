"""Linear-algebra substrate tests: eigendecompositions, norms, Bloch
geometry, validated containers, and JSON round trips.

Run with:  pytest tests/test_qcore.py -v
"""

import json
import math

import numpy as np
import pytest

from seqmcm import qcore
from seqmcm.qcore import (
    DensityMatrix,
    DimensionError,
    Ensemble,
    NotHermitianError,
    Povm,
    PureState,
    bloch_vector,
    density_from_bloch,
    ensemble_from_json,
    ensemble_to_json,
    matrix_from_json,
    matrix_to_json,
    povm_to_json,
    purity,
    random_density,
    random_ensemble,
    random_pure_state,
    trace_norm,
    validate_povm,
    vector_to_json,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def vector_from_json(obj):
    """A :func:`vector_to_json` object read back through the package's array
    reader, which makes the matrix reader's checks on one axis."""
    return qcore._array_from_json(obj, "vector", 1)


def povm_from_json(obj):
    """A :func:`povm_to_json` object read back into a validated POVM."""
    elements = {int(k): matrix_from_json(v) for k, v in obj["elements"].items()}
    return Povm(elements=elements, inconclusive=matrix_from_json(obj["inconclusive"]))


# ---------------------------------------------------------------------------
# eigendecompositions
# ---------------------------------------------------------------------------


class TestEigHermitian:
    def test_known_qubit_spectrum(self):
        # (1 + 0.6 X)/2 has eigenvalues (0.8, 0.2) with |+>, |-> eigenvectors
        rho = 0.5 * (np.eye(2) + 0.6 * X)
        vals, vecs = qcore.eig_hermitian(rho, "rho")
        np.testing.assert_allclose(vals, [0.8, 0.2], atol=1e-14)
        plus = np.array([1, 1]) / math.sqrt(2)
        assert abs(abs(np.vdot(vecs[:, 0], plus)) - 1) < 1e-14

    def test_descending_order(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = random_density(rng, 4).mat
            vals, _ = qcore.eig_hermitian(a, "a")
            assert np.all(np.diff(vals) <= 1e-15)

    def test_phase_convention_deterministic(self):
        """The leading nonnegligible component of each eigenvector is made
        real and positive, so repeated calls agree exactly."""
        rng = np.random.default_rng(11)
        a = random_density(rng, 3).mat
        _, v1 = qcore.eig_hermitian(a, "a")
        _, v2 = qcore.eig_hermitian(a.copy(), "a")
        np.testing.assert_allclose(v1, v2, atol=0.0)
        for k in range(3):
            lead = v1[np.argmax(np.abs(v1[:, k]) > 1e-12), k]
            assert abs(lead.imag) < 1e-14 and lead.real > 0

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            qcore.eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]), "bad")

    @pytest.mark.parametrize("solve", [qcore.support_factors, qcore.sqrt_psd])
    def test_public_factorisations_reject_non_hermitian(self, solve):
        """Only the private kernel skips the check; every public function
        that factors a caller's matrix still makes it."""
        with pytest.raises(NotHermitianError):
            solve(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestPinvSqrt:
    """The inverse square root on the support, from :func:`qcore.support_factors`."""

    def test_diagonal_oracle(self):
        mat, _, rank = qcore.support_factors(np.diag([0.8, 0.2]).astype(complex))
        np.testing.assert_allclose(
            mat, np.diag([0.8**-0.5, 0.2**-0.5]), atol=1e-14
        )
        assert rank == 2

    def test_singular_input_truncates(self):
        mat, _, rank = qcore.support_factors(np.diag([1.0, 0.0]).astype(complex))
        assert rank == 1
        np.testing.assert_allclose(mat, np.diag([1.0, 0.0]), atol=1e-14)

    def test_inverse_on_support(self):
        rng = np.random.default_rng(3)
        rho = random_density(rng, 4, rank=3).mat
        inv_sqrt, proj, rank = qcore.support_factors(rho)
        assert rank == 3
        np.testing.assert_allclose(inv_sqrt @ rho @ inv_sqrt, proj, atol=1e-10)


class TestSqrtPsd:
    def test_rounding_eigenvalues_are_zeros(self):
        """Eigenvalues at or below the absolute cutoff, of either sign, give
        exact zeros; the largest eigenvalue does not rescale the cutoff."""
        tol = qcore.SQRT_ZERO_TOL
        root = qcore.sqrt_psd(np.diag([0.25, tol, -tol]).astype(complex))
        assert np.array_equal(root, np.diag([0.5, 0.0, 0.0]))
        assert not np.any(qcore.sqrt_psd(np.diag([3e-16, 1e-17]).astype(complex)))
        np.testing.assert_allclose(
            qcore.sqrt_psd(np.diag([4e-14, 0.0]).astype(complex)), np.diag([2e-7, 0.0]), rtol=1e-15
        )


# ---------------------------------------------------------------------------
# norms and geometry
# ---------------------------------------------------------------------------


class TestTraceNorm:
    def test_orthogonal_states_distance_two(self):
        """No 1/2 factor: ||proj0 - proj1||_1 = 2."""
        p0 = np.diag([1.0, 0.0]).astype(complex)
        p1 = np.diag([0.0, 1.0]).astype(complex)
        np.testing.assert_allclose(trace_norm(p0 - p1), 2.0, atol=1e-14)

    def test_bloch_pair_oracle(self):
        # (1 + 0.6 Z)/2 vs 1/2: trace distance (no half) equals the Bloch gap
        rho = 0.5 * (np.eye(2) + 0.6 * Z)
        np.testing.assert_allclose(trace_norm(rho - np.eye(2) / 2), 0.6, atol=1e-14)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            a, b, c = (random_density(rng, 3).mat for _ in range(3))
            assert trace_norm(a - c) <= trace_norm(a - b) + trace_norm(b - c) + 1e-12

    def test_unitary_invariance(self):
        rng = np.random.default_rng(23)
        a = random_density(rng, 3).mat
        q, _ = np.linalg.qr(
            rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        )
        np.testing.assert_allclose(
            trace_norm(q @ a @ q.conj().T), trace_norm(a), atol=1e-12
        )


class TestBloch:
    def test_round_trip(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            r = rng.uniform(-1, 1, size=3)
            r *= rng.uniform(0, 1) / max(np.linalg.norm(r), 1e-12)
            rho = density_from_bloch(r)
            np.testing.assert_allclose(rho.bloch(), r, atol=1e-12)

    def test_pure_state_radius_one(self):
        rng = np.random.default_rng(9)
        v = random_pure_state(rng, 2).vec
        b = bloch_vector(np.outer(v, v.conj()))
        np.testing.assert_allclose(np.linalg.norm(b), 1.0, atol=1e-12)

    def test_rejects_outside_ball(self):
        with pytest.raises(ValueError):
            density_from_bloch([1.1, 0, 0])

    def test_purity_from_radius(self):
        rho = density_from_bloch([0.3, 0.4, 0.0])
        np.testing.assert_allclose(purity(rho.mat), 0.5 * (1 + 0.25), atol=1e-14)


# ---------------------------------------------------------------------------
# validated containers
# ---------------------------------------------------------------------------


class TestDensityMatrix:
    def test_accepts_valid(self):
        DensityMatrix(np.eye(2) / 2)

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(2))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([1.5, -0.5]))

    def test_symmetrizes_roundoff(self):
        rho = np.array([[0.5, 0.1 + 1e-14j], [0.1, 0.5]])
        d = DensityMatrix(rho)
        np.testing.assert_allclose(d.mat, d.mat.conj().T, atol=0.0)

    def test_frozen(self):
        d = DensityMatrix(np.eye(2) / 2)
        with pytest.raises(ValueError):
            d.mat[0, 0] = 9.0


class TestEnsemble:
    def test_labels_start_at_one(self):
        e = Ensemble(priors=(0.5, 0.5), states=(np.eye(2) / 2, np.eye(2) / 2))
        assert list(e.labels) == [1, 2]
        assert e.prior(1) == 0.5

    def test_average(self):
        p0 = np.diag([1.0, 0.0])
        p1 = np.diag([0.0, 1.0])
        e = Ensemble(priors=(0.25, 0.75), states=(p0, p1))
        np.testing.assert_allclose(e.average().mat, np.diag([0.25, 0.75]), atol=1e-15)

    def test_rejects_bad_priors(self):
        with pytest.raises(ValueError):
            Ensemble(priors=(0.6, 0.6), states=(np.eye(2) / 2, np.eye(2) / 2))

    def test_rejects_mixed_dims(self):
        with pytest.raises(DimensionError):
            Ensemble(priors=(0.5, 0.5), states=(np.eye(2) / 2, np.eye(3) / 3))

    def test_zero_prior_allowed(self):
        e = Ensemble(priors=(1.0, 0.0), states=(np.diag([1.0, 0]), np.diag([0, 1.0])))
        assert e.prior(2) == 0.0


class TestPovmValidation:
    def test_valid_projective(self):
        povm = Povm(
            elements={1: np.diag([1.0, 0]), 2: np.diag([0, 1.0])}, inconclusive=np.zeros((2, 2))
        )
        report = validate_povm(povm)
        assert report.ok
        assert report.completeness_residual < 1e-14

    def test_overweighted_element_fails(self):
        """1.5 |0><0| forces the complement to eigenvalue -0.5."""
        povm = Povm(
            elements={1: 1.5 * np.diag([1.0, 0.0])},
            inconclusive=np.eye(2) - 1.5 * np.diag([1.0, 0.0]),
        )
        report = validate_povm(povm)
        assert not report.ok
        np.testing.assert_allclose(report.psd_margins[0], -0.5, atol=1e-12)

    def test_incomplete_fails(self):
        povm = Povm(elements={1: 0.5 * np.diag([1.0, 0.0])}, inconclusive=np.zeros((2, 2)))
        assert not validate_povm(povm).ok

    def test_label_zero_reserved(self):
        with pytest.raises(ValueError):
            Povm(elements={0: np.eye(2)}, inconclusive=np.zeros((2, 2)))

    def test_inconclusive_element_is_required(self):
        with pytest.raises(TypeError):
            Povm(elements={1: np.eye(2)})


class TestPureState:
    def test_normalization_enforced(self):
        with pytest.raises(ValueError):
            PureState(np.array([1.0, 1.0]))

    def test_density(self):
        v = PureState(np.array([1.0, 0.0]))
        np.testing.assert_allclose(v.density().mat, np.diag([1.0, 0.0]), atol=0.0)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


class TestJsonRoundTrips:
    def test_matrix(self):
        rng = np.random.default_rng(2)
        a = random_density(rng, 3).mat
        b = matrix_from_json(matrix_to_json(a))
        np.testing.assert_allclose(a, b, atol=0.0)

    def test_vector(self):
        v = np.array([1 / math.sqrt(2), 1j / math.sqrt(2)])
        np.testing.assert_allclose(vector_from_json(vector_to_json(v)), v, atol=0.0)

    def test_ensemble(self):
        rng = np.random.default_rng(4)
        e = random_ensemble(rng, 2, 3)
        e2 = ensemble_from_json(ensemble_to_json(e))
        assert e2.n == 3
        for x in e.labels:
            np.testing.assert_allclose(e.state(x).mat, e2.state(x).mat, atol=0.0)
            assert e.prior(x) == e2.prior(x)

    def test_povm(self):
        povm = Povm(
            elements={1: np.diag([0.5, 0.0]), 2: np.diag([0.0, 0.5])},
            inconclusive=np.eye(2) / 2,
        )
        p2 = povm_from_json(povm_to_json(povm))
        assert p2.labels == [1, 2]
        np.testing.assert_allclose(p2.inconclusive, np.eye(2) / 2, atol=0.0)

    def test_malformed_matrix_rejected(self):
        with pytest.raises(ValueError, match="malformed matrix object"):
            matrix_from_json({"dim": 2})
        with pytest.raises(ValueError, match="expected 4 entries"):
            matrix_from_json({"dim": 2, "entries": [[1.0, 0.0]]})

    def test_malformed_vector_rejected(self):
        """The vector reader makes the matrix reader's checks."""
        with pytest.raises(ValueError, match="malformed vector object"):
            vector_from_json({"entries": [[1.0, 0.0]]})
        with pytest.raises(ValueError, match="malformed vector object"):
            vector_from_json([[1.0, 0.0]])
        with pytest.raises(DimensionError, match="vector dim 9 outside 1..8"):
            vector_from_json({"dim": 9, "entries": [[1.0, 0.0]] * 9})
        with pytest.raises(DimensionError, match="vector dim 0 outside 1..8"):
            vector_from_json({"dim": 0, "entries": []})
        with pytest.raises(ValueError, match="expected 2 entries"):
            vector_from_json({"dim": 2, "entries": [[1.0, 0.0]]})

    def test_json_serializable(self):
        rng = np.random.default_rng(6)
        e = random_ensemble(rng, 2, 2)
        json.dumps(ensemble_to_json(e))  # must not raise


class TestLoadEnsemble(object):
    def test_file_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        e = random_ensemble(rng, 2, 2)
        path = tmp_path / "ens.json"
        path.write_text(json.dumps(ensemble_to_json(e)))
        e2 = qcore.load_ensemble(path)
        np.testing.assert_allclose(e.state(1).mat, e2.state(1).mat, atol=0.0)

    def test_file_states_validated_as_one_stack(self, tmp_path, eigensolves):
        e = random_ensemble(np.random.default_rng(9), 3, 4)
        path = tmp_path / "ens.json"
        path.write_text(json.dumps(ensemble_to_json(e)))
        eigensolves.calls.clear()
        e2 = qcore.load_ensemble(path)
        assert eigensolves.stacks("eigvalsh") == [4] and eigensolves.count() == 0
        assert all(isinstance(s, qcore.DensityMatrix) for s in e2.states)
        for x in e.labels:
            assert np.array_equal(e.state(x).mat, e2.state(x).mat)


# ---------------------------------------------------------------------------
# random generators
# ---------------------------------------------------------------------------


class TestRandomStates:
    def test_random_density_valid_and_seeded(self):
        a = random_density(np.random.default_rng(42), 4).mat
        b = random_density(np.random.default_rng(42), 4).mat
        np.testing.assert_allclose(a, b, atol=0.0)
        vals = np.linalg.eigvalsh(a)
        assert vals.min() > -1e-12
        np.testing.assert_allclose(np.trace(a).real, 1.0, atol=1e-12)

    def test_rank_control(self):
        rho = random_density(np.random.default_rng(1), 4, rank=2).mat
        vals = np.sort(np.linalg.eigvalsh(rho))
        assert vals[1] < 1e-12 and vals[2] > 1e-6

    def test_random_ensemble_draws_the_per_state_stream(self):
        """The stacked draw consumes the numbers that one Wishart draw per
        state consumes, in the same order, and gives the same states bit
        for bit."""

        def per_state(rng, dim, n):
            raw = rng.random(n) + 0.1
            priors = tuple(float(q) for q in raw / math.fsum(raw))
            states = []
            for _ in range(n):
                g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
                w = g @ g.conj().T
                states.append(DensityMatrix(w / np.real(np.trace(w))))
            return priors, states

        for dim in range(2, 9):
            for n in range(2, 7):
                for seed in range(4):
                    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
                    e = random_ensemble(rng, dim, n)
                    priors, states = per_state(ref, dim, n)
                    assert e.priors == priors
                    for got, want in zip(e.states, states, strict=True):
                        assert np.array_equal(got.mat, want.mat)
                    assert rng.random() == ref.random()

    def test_random_ensemble_priors(self):
        e = random_ensemble(np.random.default_rng(10), 2, 4)
        np.testing.assert_allclose(math.fsum(e.priors), 1.0, atol=1e-15)

    def test_dimension_cap(self):
        """Dense-solver guard: matrices above dim 8 are refused at the door."""
        big = np.eye(9) / 9.0
        with pytest.raises(DimensionError):
            qcore.as_matrix(big, "too big")
