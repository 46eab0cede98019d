"""Maximum-confidence measurement solver tests.

For each label x of an ensemble {q_x, rho_x} the solver finds the largest
achievable conditional probability

    C_x = max_M  q_x tr[M rho_x] / tr[M rho],    rho = sum_x q_x rho_x,

which equals the top eigenvalue of rho^(-1/2) q_x rho_x rho^(-1/2).  These
tests pin hand-derivable oracles (orthogonal pairs, symmetric triples),
the decomposition C_x rho = q_x rho_x + r_x sigma_x, the KKT residuals,
and the identity C_x = q_x 2**Dmax(rho_x || rho).

Run with:  pytest tests/test_mcm.py -v
"""

import dataclasses
import json
import math
import pickle

import numpy as np
import pytest

from seqmcm import mcm, optim, qcore
from seqmcm.mcm import (
    McmEntry,
    SupportError,
    complement_states,
    max_confidence,
    max_relative_entropy,
    mcm_povm,
    optimal_projectors,
    solve_mcm,
    verify_kkt,
)
from seqmcm.optim import min_error_guessing
from seqmcm.qcore import Ensemble, random_ensemble, validate_povm


def _projector(v):
    v = np.asarray(v, dtype=complex)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


def trine_ensemble() -> Ensemble:
    """Three symmetric pure qubit states at 120 degrees, equal priors."""
    states = tuple(
        _projector([math.cos(k * 2 * math.pi / 3 / 2), math.sin(k * 2 * math.pi / 3 / 2)])
        for k in range(3)
    )
    return Ensemble(priors=(1 / 3, 1 / 3, 1 / 3), states=states)


def orthogonal_pair() -> Ensemble:
    return Ensemble(
        priors=(0.5, 0.5),
        states=(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])),
    )


# ---------------------------------------------------------------------------
# confidences
# ---------------------------------------------------------------------------


class TestMaxConfidence:
    def test_orthogonal_pair_is_certain(self):
        e = orthogonal_pair()
        for x in (1, 2):
            entry = max_confidence(e, x)
            np.testing.assert_allclose(entry.confidence, 1.0, atol=1e-14)
            assert entry.degeneracy == 1

    def test_trine_confidence_two_thirds(self):
        e = trine_ensemble()
        for x in e.labels:
            np.testing.assert_allclose(
                max_confidence(e, x).confidence, 2.0 / 3.0, atol=1e-12
            )

    def test_single_state_fully_degenerate(self):
        e = Ensemble(priors=(1.0,), states=(np.eye(2) / 2,))
        entry = max_confidence(e, 1)
        np.testing.assert_allclose(entry.confidence, 1.0, atol=1e-14)
        assert entry.degeneracy == 2
        assert complement_states(e) == {} and entry.r == 0.0

    def test_identical_states_confidence_equals_prior(self):
        """When every state is rho, no measurement beats the prior."""
        e = Ensemble(priors=(0.7, 0.3), states=(np.eye(2) / 2, np.eye(2) / 2))
        np.testing.assert_allclose(max_confidence(e, 1).confidence, 0.7, atol=1e-14)
        np.testing.assert_allclose(max_confidence(e, 2).confidence, 0.3, atol=1e-14)

    def test_distinct_pure_pair_is_certain(self):
        """Two distinct pure states allow unambiguous discrimination: the
        element orthogonal to psi_2 never fires on psi_2, so C_1 = 1."""
        for theta in (0.3, 0.7, 1.1, 1.5):
            psi1 = np.array([math.cos(theta / 2), math.sin(theta / 2)])
            psi2 = np.array([math.cos(theta / 2), -math.sin(theta / 2)])
            e = Ensemble(
                priors=(0.5, 0.5), states=(_projector(psi1), _projector(psi2))
            )
            np.testing.assert_allclose(
                max_confidence(e, 1).confidence, 1.0, atol=1e-12
            )

    def test_depolarized_pair_closed_form(self):
        """Equal-prior pair p|psi_x><psi_x| + (1-p) 1/2 with state overlap
        <psi_1|psi_2> = cos(theta):

            C = 1/2 + p sin(theta) / (2 sqrt(1 - p^2 cos^2(theta)))
        """
        for p, theta in ((0.8, math.pi / 3), (0.5, 1.1), (0.3, 2.2), (0.95, 0.4)):
            psi1 = np.array([math.cos(theta / 2), math.sin(theta / 2)])
            psi2 = np.array([math.cos(theta / 2), -math.sin(theta / 2)])
            states = tuple(
                p * _projector(v) + (1 - p) * np.eye(2) / 2 for v in (psi1, psi2)
            )
            e = Ensemble(priors=(0.5, 0.5), states=states)
            want = 0.5 + p * math.sin(theta) / (
                2.0 * math.sqrt(1.0 - p * p * math.cos(theta) ** 2)
            )
            for x in (1, 2):
                np.testing.assert_allclose(
                    max_confidence(e, x).confidence, want, atol=1e-12
                )

    def test_confidence_bounds(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            e = random_ensemble(rng, rng.integers(2, 5), rng.integers(2, 5))
            for x in e.labels:
                entry = max_confidence(e, x)
                assert e.prior(x) - 1e-12 <= entry.confidence <= 1.0 + 1e-12

    def test_zero_prior_label(self):
        e = Ensemble(
            priors=(1.0, 0.0), states=(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        )
        entry = max_confidence(e, 2)
        assert entry.confidence == 0.0
        assert entry.basis == ()
        assert entry.mu == 0.0 and entry.r == 0.0

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError):
            max_confidence(orthogonal_pair(), 3)

    def test_support_leak_raises(self):
        """A prior below the rank cutoff RANK_TOL truncates the average's
        support below its state's; that must surface as an error, not a
        finite lie."""
        e = Ensemble(
            priors=(1.0 - 1e-12, 1e-12),
            states=(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])),
        )
        with pytest.raises(SupportError):
            max_confidence(e, 2)

    def test_support_leak_of_any_label_raises(self):
        """The ensemble is solved whole: label 2 leaks, so asking for label 1
        raises too, as solving every label does."""
        e = Ensemble(
            priors=(1.0 - 1e-12, 1e-12),
            states=(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])),
        )
        with pytest.raises(SupportError, match="label 2"):
            max_confidence(e, 1)
        with pytest.raises(SupportError, match="label 2"):
            solve_mcm(e)


class TestDecomposition:
    def test_orthogonal_pair_complement_is_other_state(self):
        """C_1 rho = q_1 rho_1 + r_1 sigma_1 with C_1 = 1 forces
        sigma_1 = rho_2 and r_1 = 1/2."""
        e = orthogonal_pair()
        entry = max_confidence(e, 1)
        np.testing.assert_allclose(entry.r, 0.5, atol=1e-12)
        np.testing.assert_allclose(complement_states(e)[1].mat, np.diag([0.0, 1.0]), atol=1e-12)

    def test_decomposition_identity_random(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            e = random_ensemble(rng, rng.integers(2, 5), rng.integers(2, 6))
            rho, sigmas = e.average().mat, complement_states(e)
            for x in e.labels:
                entry = max_confidence(e, x)
                lhs = entry.confidence * rho
                rhs = e.prior(x) * e.state(x).mat
                if x in sigmas:
                    rhs = rhs + entry.r * sigmas[x].mat
                np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_mixture_weight(self):
        rng = np.random.default_rng(6)
        e = random_ensemble(rng, 3, 3)
        for x in e.labels:
            entry = max_confidence(e, x)
            np.testing.assert_allclose(
                entry.mu, e.prior(x) / entry.confidence, atol=1e-15
            )
            np.testing.assert_allclose(
                entry.r, entry.confidence - e.prior(x), atol=1e-12
            )


class TestOptimalBasis:
    def test_basis_vectors_achieve_the_confidence(self):
        """Projecting onto any optimal basis vector realizes C_x exactly."""
        rng = np.random.default_rng(12)
        for _ in range(30):
            e = random_ensemble(rng, rng.integers(2, 5), rng.integers(2, 5))
            rho = e.average().mat
            for x in e.labels:
                entry = max_confidence(e, x)
                for phi in entry.basis:
                    m = np.outer(phi, phi.conj())
                    got = (
                        e.prior(x)
                        * float(np.real(np.trace(m @ e.state(x).mat)))
                        / float(np.real(np.trace(m @ rho)))
                    )
                    np.testing.assert_allclose(got, entry.confidence, atol=1e-10)

    def test_no_rank_one_element_beats_it(self):
        rng = np.random.default_rng(13)
        e = random_ensemble(rng, 3, 3)
        rho = e.average().mat
        entries = solve_mcm(e)
        for _ in range(200):
            psi = qcore.random_pure_state(rng, 3).vec
            m = np.outer(psi, psi.conj())
            for x in e.labels:
                got = (
                    e.prior(x)
                    * float(np.real(np.trace(m @ e.state(x).mat)))
                    / float(np.real(np.trace(m @ rho)))
                )
                assert got <= entries[x].confidence + 1e-10

    def test_basis_vectors_unit_norm(self):
        rng = np.random.default_rng(14)
        e = random_ensemble(rng, 4, 3)
        for entry in solve_mcm(e).values():
            for phi in entry.basis:
                np.testing.assert_allclose(np.linalg.norm(phi), 1.0, atol=1e-12)

    def test_projectors_idempotent(self):
        rng = np.random.default_rng(15)
        e = random_ensemble(rng, 3, 4)
        projs = optimal_projectors(e)
        assert sorted(projs) == [1, 2, 3, 4]
        for p in projs.values():
            np.testing.assert_allclose(p @ p, p, atol=1e-12)
            np.testing.assert_allclose(p, p.conj().T, atol=1e-12)

    def test_zero_prior_label_omitted(self):
        e = Ensemble(
            priors=(1.0, 0.0), states=(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        )
        assert list(optimal_projectors(e)) == [1]

    @pytest.mark.parametrize("dim", [2, 3])
    def test_one_qr_per_label_shared_by_every_caller(self, dim, monkeypatch):
        """The weight solver, mcm_povm and optimal_projectors read one
        read-only copy of the projectors (and, for a pair, their bases)."""
        e = random_ensemble(np.random.default_rng(16), dim, 2)
        solve_mcm(e)
        calls = []
        real = np.linalg.qr

        def qr(a, *args, **kwargs):
            calls.append(a)
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", qr)
        weights = optim.min_inconclusive_rate(e).weights
        mcm_povm(e, weights)
        projs = optimal_projectors(e)
        assert len(calls) == 2
        assert projs[1] is optimal_projectors(e)[1] and not projs[1].flags.writeable


class TestOptimalSubspace:
    """Each entry's ``span`` and ``projector``: the optimal subspace, read
    once and kept read-only."""

    def test_live_degeneracy_is_the_basis_size(self):
        """Every top eigenvector of a live label maps back to a unit vector,
        so no basis vector is dropped."""
        rng = np.random.default_rng(26)
        for dim in range(2, 9):
            for n in range(2, 7):
                for pure in (False, True):
                    e = random_ensemble(rng, dim, n, pure=pure)
                    for entry in solve_mcm(e).values():
                        assert entry.degeneracy == len(entry.basis) >= 1

    @pytest.mark.parametrize(
        "e, rank",
        [
            pytest.param(trine_ensemble(), 1, id="trine"),
            pytest.param(
                Ensemble(priors=(0.5, 0.5), states=(np.eye(2) / 2, np.eye(2) / 2)), 2, id="pair"
            ),
            pytest.param(
                Ensemble(priors=(0.5, 0.5),
                         states=(np.diag([0.5, 0.5, 0.0]), np.diag([0.0, 0.0, 1.0]))),
                2,
                id="qutrit",
            ),
        ],
    )
    def test_span_is_an_orthonormal_basis_of_the_optimal_vectors(self, e, rank):
        entry = solve_mcm(e)[1]
        span, basis = entry.span, np.stack(entry.basis, axis=1)
        assert span.shape == (e.dim, rank) == basis.shape
        np.testing.assert_allclose(span.conj().T @ span, np.eye(rank), atol=1e-12)
        np.testing.assert_allclose(span @ span.conj().T @ basis, basis, atol=1e-12)
        np.testing.assert_allclose(entry.projector, span @ span.conj().T, atol=1e-15)

    def test_span_and_projector_are_read_only_and_kept(self):
        e = random_ensemble(np.random.default_rng(27), 3, 3)
        entry = solve_mcm(e)[2]
        for name in ("span", "projector"):
            value = getattr(entry, name)
            assert not value.flags.writeable and getattr(entry, name) is value
            with pytest.raises(AttributeError):  # the entry is frozen
                setattr(entry, name, value)
        assert optimal_projectors(e)[2] is entry.projector is solve_mcm(e)[2].projector

    def test_zero_prior_label_has_no_span(self):
        e = Ensemble(priors=(1.0, 0.0), states=(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
        entry = solve_mcm(e)[2]
        for name in ("span", "projector"):
            with pytest.raises(ValueError, match="^label 2 has no optimal subspace"):
                getattr(entry, name)


class TestDegeneracy:
    def test_identical_mixed_pair_degenerate(self):
        e = Ensemble(priors=(0.5, 0.5), states=(np.eye(2) / 2, np.eye(2) / 2))
        entry = max_confidence(e, 1)
        assert entry.degeneracy == 2
        assert 1 not in complement_states(e)  # r = 0: nothing left to complement
        assert len(entry.basis) == 2

    def test_trine_not_degenerate(self):
        for entry in solve_mcm(trine_ensemble()).values():
            assert entry.degeneracy == 1


# ---------------------------------------------------------------------------
# one solve per ensemble
# ---------------------------------------------------------------------------


def average_of(e: Ensemble) -> np.ndarray:
    return sum(q * s.mat for q, s in zip(e.priors, e.states))


class TestSolveOnce:
    def test_second_solve_does_no_eigensolve(self, eigensolves):
        e = random_ensemble(np.random.default_rng(41), 3, 4)
        first = solve_mcm(e)
        eigensolves.calls.clear()
        second = solve_mcm(e)
        assert eigensolves.calls == []
        assert all(second[x] is first[x] for x in e.labels)

    def test_average_factored_once(self, eigensolves):
        """One eigensolve of rho for all N labels, whose spectrum also
        validates it; otherwise one stacked eigensolve of the N shaped
        operators and one of the complements of the labels with r > 0, and
        no other."""
        e = random_ensemble(np.random.default_rng(42), 3, 5)
        eigensolves.calls.clear()
        solve_mcm(e)
        rho = average_of(e)
        assert eigensolves.of(rho, "eigh") == 1
        assert eigensolves.of(rho, "eigvalsh") == 0
        with_complement = len(complement_states(e))
        assert with_complement > 0
        assert eigensolves.count("eigh") == 3
        assert eigensolves.stacks("eigh") == [1, e.n, with_complement]
        # rho and the sigma states are validated from the spectra they are
        # built from or factored by: no eigvalsh call at all
        assert eigensolves.stacks("eigvalsh") == []

    def test_callers_reuse_the_solution(self, eigensolves):
        e = random_ensemble(np.random.default_rng(43), 2, 3)
        entries = solve_mcm(e)
        eigensolves.calls.clear()
        povm = mcm_povm(e, {x: 0.1 for x in e.labels})
        assert verify_kkt(e, povm).ok
        assert max_confidence(e, 2) is entries[2]
        assert eigensolves.calls == []

    def test_cached_solution_cannot_be_mutated(self):
        e = trine_ensemble()
        got = solve_mcm(e)
        got.pop(1)
        got[2] = None
        again = solve_mcm(e)
        assert sorted(again) == [1, 2, 3]
        assert isinstance(again[2], McmEntry)
        with pytest.raises(ValueError):
            again[1].basis[0][0] = 0.0
        with pytest.raises(ValueError):
            e.average().mat[0, 0] = 0.0

    def test_mcm_povm_rejects_unknown_label(self):
        with pytest.raises(ValueError):
            mcm_povm(orthogonal_pair(), {3: 0.5})


def _copy(e: Ensemble) -> Ensemble:
    """A fresh ensemble with the same priors and states, and nothing cached."""
    return Ensemble(priors=e.priors, states=e.states)


class TestFirstStage:
    """:func:`mcm.confidences` is the first stage of :func:`solve_mcm`: the
    same numbers and the same checks, without the entries."""

    @pytest.mark.parametrize("pure", [False, True], ids=["mixed", "pure"])
    def test_confidences_equal_the_solution_bit_for_bit(self, pure):
        rng = np.random.default_rng(61 + pure)
        for dim in range(2, 9):
            for n in range(2, 7):
                e = random_ensemble(rng, dim, n, pure=pure)
                got = mcm.confidences(e)
                want = {x: entry.confidence for x, entry in solve_mcm(_copy(e)).items()}
                assert list(got) == list(want) == list(e.labels)
                assert [c.hex() for c in got.values()] == [c.hex() for c in want.values()]

    def test_zero_prior_label_gets_zero(self):
        e = Ensemble(priors=(0.5, 0.0, 0.5), states=trine_ensemble().states)
        got = mcm.confidences(e)
        want = {x: entry.confidence for x, entry in solve_mcm(_copy(e)).items()}
        assert got == want
        assert got[2] == 0.0 and got[1] > 0.5

    def test_returns_a_fresh_dict(self):
        e = trine_ensemble()
        mcm.confidences(e)[1] = 5.0
        assert mcm.confidences(e)[1] == pytest.approx(2 / 3, abs=1e-12)

    def test_support_leak_raises_as_the_solve_does(self):
        e = Ensemble(
            priors=(1.0 - 1e-12, 1e-12),
            states=(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])),
        )
        with pytest.raises(SupportError) as first:
            mcm.confidences(e)
        with pytest.raises(SupportError) as full:
            solve_mcm(_copy(e))
        assert str(first.value) == str(full.value)
        assert "label 2" in str(first.value)

    @pytest.mark.parametrize("order", ["confidences-first", "solve-first"])
    def test_each_stack_eigensolved_once(self, order, eigensolves):
        """Whichever is asked first, the average, the shaped stack and the
        complement stack are each eigensolved once, and the other call
        eigensolves nothing."""
        e = random_ensemble(np.random.default_rng(44), 3, 5)
        calls = [lambda: mcm.confidences(e), lambda: solve_mcm(e)]
        if order == "solve-first":
            calls.reverse()
        eigensolves.calls.clear()
        calls[0]()
        first = len(eigensolves.calls)
        calls[1]()
        assert len(eigensolves.calls) == first
        with_complement = len(complement_states(e))
        assert with_complement > 0
        assert eigensolves.stacks("eigh") == [1, e.n, with_complement]
        assert eigensolves.stacks("eigvalsh") == []

    def test_confidences_build_no_entries(self, monkeypatch):
        def no_entries(e):
            raise AssertionError("entries built")

        monkeypatch.setattr(mcm, "_solve", no_entries)
        e = random_ensemble(np.random.default_rng(45), 2, 3)
        assert sorted(mcm.confidences(e)) == [1, 2, 3]
        with pytest.raises(AssertionError, match="entries built"):
            solve_mcm(e)


def _eager_sigmas(e: Ensemble) -> dict[int, np.ndarray]:
    """Every sigma_x as the solve built them before they were lazy: from the
    first stage's complement spectra, clipped, as one stack over the labels
    with ``r > 0``, each divided by its trace and symmetrised as
    :func:`seqmcm.qcore.validate_states` stores it."""
    _, live, q, _, (vals, _), _, complements = mcm._first_stage([e])[0]
    kept = vals[:, 0] - q > mcm.R_ZERO_TOL
    if not kept.any():
        return {}
    rvals, rvecs = complements
    clipped = np.clip(rvals, 0.0, None)
    mats = (rvecs * clipped[:, None, :]) @ rvecs.conj().swapaxes(-1, -2)
    traces = np.real(np.trace(mats, axis1=-2, axis2=-1))
    m = mats / traces[:, None, None]
    h = 0.5 * (m + m.conj().swapaxes(-1, -2))
    return {live[i]: mat for i, mat in zip(np.flatnonzero(kept), h)}


def _sigma_cases() -> list[Ensemble]:
    rng = np.random.default_rng(71)
    cases = [random_ensemble(rng, dim, n, pure=pure)
             for dim in (2, 3, 5, 8) for n in (2, 4, 6) for pure in (False, True)]
    cases += [
        trine_ensemble(),
        orthogonal_pair(),
        Ensemble(priors=(1.0,), states=(np.diag([0.5, 0.5]),)),
        Ensemble(priors=(0.5, 0.0, 0.5), states=trine_ensemble().states),
        Ensemble(priors=(0.5, 0.5), states=(np.diag([0.6, 0.4]),) * 2),
    ]
    return cases


class TestSigmaOnFirstRead:
    """The ``sigma_x`` of :func:`complement_states` are built on its first
    call, all of the ensemble's at once, with the arithmetic of the eager
    build, and cached on the ensemble; a chain builds none."""

    def test_chains_build_no_sigma(self):
        from seqmcm import families, seqchan

        two = families.two_mixed(0.8, 1.0)
        qutrit = random_ensemble(np.random.default_rng(72), 3, 3)
        floor = optim.min_inconclusive_rate(qutrit).eta0
        rates = [floor + (1.0 - floor) * t for t in (0.3, 0.6)]
        for e, strategies in [(two.ensemble(), two.strategies(4)),
                              (qutrit, seqchan.weakened_mcm_strategies(rates))]:
            trace = seqchan.run_sequence(e, strategies)
            memos = [rec.ensemble._memo for rec in trace.records]
            assert len(memos) == len(strategies)
            assert all("mcm.solution" in memo for memo in memos)
            memos.append(trace.final_ensemble._memo)
            assert not any("mcm.sigma" in memo for memo in memos)

    def test_one_read_builds_every_sigma_in_one_validation(self, monkeypatch):
        calls = []
        real = qcore.validate_states

        def counted(mats, lowest=None):
            calls.append(np.shape(mats))
            return real(mats, lowest=lowest)

        monkeypatch.setattr(qcore, "validate_states", counted)
        e = random_ensemble(np.random.default_rng(73), 3, 5)
        solve_mcm(e)
        calls.clear()
        assert "mcm.sigma" not in e._memo
        first = complement_states(e)
        assert calls == [(e.n, e.dim, e.dim)]
        assert list(first) == list(e.labels)
        second = complement_states(e)
        assert len(calls) == 1
        assert second is not first and all(second[x] is first[x] for x in e.labels)

    def test_sigma_equals_the_eager_build_bit_for_bit(self):
        for e in _sigma_cases():
            want = _eager_sigmas(e)
            got = complement_states(e)
            assert list(got) == list(want)
            for x, sigma in got.items():
                assert sigma.mat.tobytes() == want[x].tobytes()
                assert not sigma.mat.flags.writeable

    def test_sigma_is_none_exactly_where_r_is_zero(self):
        """A label is absent from :func:`complement_states`, and its JSON
        ``sigma`` is null, exactly where its entry's ``r`` is 0."""
        nones = 0
        for e in _sigma_cases():
            sigmas, doc = complement_states(e), mcm.solution_to_json(e)
            for x, entry in solve_mcm(e).items():
                assert (x not in sigmas) == (entry.r == 0.0) == (doc[str(x)]["sigma"] is None)
                nones += x not in sigmas
        assert nones > 0


def _bits(value):
    """A field's value with every float and array as its exact bits."""
    if isinstance(value, tuple):
        return [v.tobytes() for v in value]
    return value.hex() if isinstance(value, float) else value


class TestPlainEntries:
    """An entry is its six fields: it copies and pickles as any frozen
    dataclass does, and so does an ensemble with its solution cached."""

    def test_replace_keeps_every_field(self):
        e = random_ensemble(np.random.default_rng(74), 3, 4)
        for entry in solve_mcm(e).values():
            copy = dataclasses.replace(entry)
            assert copy is not entry
            assert [f.name for f in dataclasses.fields(copy)] == [
                "label", "confidence", "degeneracy", "basis", "r", "mu"
            ]
            for f in dataclasses.fields(entry):
                assert _bits(getattr(copy, f.name)) == _bits(getattr(entry, f.name))
            assert copy.projector.tobytes() == entry.projector.tobytes()

    def test_pickle_round_trips_the_solution(self):
        e = random_ensemble(np.random.default_rng(75), 3, 4)
        solution = solve_mcm(e)
        complement_states(e)
        back = pickle.loads(pickle.dumps(solution))
        assert list(back) == list(solution)
        for x, entry in solution.items():
            for f in dataclasses.fields(entry):
                assert _bits(getattr(back[x], f.name)) == _bits(getattr(entry, f.name))
        e_back = pickle.loads(pickle.dumps(e))
        assert json.dumps(mcm.solution_to_json(e_back)) == json.dumps(mcm.solution_to_json(e))
        # pickle restores arrays writeable; a write to one would leave the memo stale
        frozen = {
            "states": [s.mat for s in e_back.states],
            "bases": [v for entry in solve_mcm(e_back).values() for v in entry.basis],
            "sigma": [s.mat for s in complement_states(e_back).values()],
            "memo": list(_arrays(e_back._memo)),
        }
        for name, arrays in frozen.items():
            assert arrays, name
            assert not any(a.flags.writeable for a in arrays), name


def _arrays(value):
    """Every array reachable from ``value`` through tuples, lists, dict
    values and object attributes."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _arrays(item)
    elif isinstance(value, dict):
        yield from _arrays(list(value.values()))
    elif hasattr(value, "__dict__"):
        yield from _arrays(vars(value))


# ---------------------------------------------------------------------------
# KKT verification
# ---------------------------------------------------------------------------


class TestKkt:
    def test_trine_full_weight_passes(self):
        e = trine_ensemble()
        povm = mcm_povm(e, {x: 2.0 / 3.0 for x in e.labels})
        assert validate_povm(povm).ok
        report = verify_kkt(e, povm)
        assert report.ok
        assert max(report.stability.values()) <= 1e-9
        assert max(report.slackness.values()) <= 1e-9

    def test_random_mcm_povms_pass(self):
        rng = np.random.default_rng(21)
        checked = 0
        for _ in range(25):
            e = random_ensemble(rng, 2, rng.integers(2, 5))
            entries = solve_mcm(e)
            weights = {
                x: 0.02 * float(rng.random()) for x in e.labels if entries[x].basis
            }
            povm = mcm_povm(e, weights)
            if not validate_povm(povm).ok:
                continue
            report = verify_kkt(e, povm)
            assert report.ok, (report.stability, report.slackness)
            checked += 1
        assert checked >= 20

    def test_wrong_projector_fails_slackness(self):
        """Pointing label 1's element at label 2's optimal direction leaves
        weight on the complementary state, so r tr[sigma M] > 0."""
        e = trine_ensemble()
        good = mcm_povm(e, {1: 0.1, 2: 0.1, 3: 0.1})
        swapped = dict(good.elements)
        swapped[1], swapped[2] = swapped[2], swapped[1]
        bad = qcore.Povm(elements=swapped, inconclusive=good.inconclusive)
        report = verify_kkt(e, bad)
        assert not report.ok
        assert report.slackness[1] > 1e-3

    def test_stacked_trace_norms_match_one_call_per_label(self):
        """The stability residuals' trace norms, taken in one stacked SVD,
        equal one ``trace_norm`` call per label bit for bit, at every
        dimension."""
        rng = np.random.default_rng(22)
        for dim in range(2, 9):
            for n in (2, 4, 6):
                e = random_ensemble(rng, dim, n, pure=bool(dim % 2))
                povm = mcm_povm(e, dict(optim.min_inconclusive_rate(e).weights))
                entries, sigmas, rho = solve_mcm(e), complement_states(e), e.average().mat
                for x, norm in verify_kkt(e, povm).stability.items():
                    entry = entries[x]
                    comp = entry.r * sigmas[x].mat if x in sigmas else 0.0
                    residual = entry.confidence * rho - e.prior(x) * e.state(x).mat - comp
                    assert norm == qcore.trace_norm(residual)

    def test_report_tolerance_recorded(self):
        e = orthogonal_pair()
        povm = mcm_povm(e, {1: 1.0, 2: 1.0})
        report = verify_kkt(e, povm)
        assert report.tol == mcm.KKT_TOL == 1e-9 and report.ok


# ---------------------------------------------------------------------------
# max-relative entropy
# ---------------------------------------------------------------------------


class TestMaxRelativeEntropy:
    def test_self_divergence_zero(self):
        rng = np.random.default_rng(41)
        rho = qcore.random_density(rng, 3).mat
        np.testing.assert_allclose(max_relative_entropy(rho, rho), 0.0, atol=1e-10)

    def test_pure_vs_maximally_mixed_one_bit(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        np.testing.assert_allclose(
            max_relative_entropy(rho, np.eye(2) / 2), 1.0, atol=1e-12
        )

    def test_support_leak_is_infinite(self):
        rho = np.diag([0.0, 1.0]).astype(complex)
        sigma = np.diag([1.0, 0.0]).astype(complex)
        assert max_relative_entropy(rho, sigma) == math.inf

    def test_zero_operator_is_minus_infinite(self):
        """``lambda_max`` of a zero ``rho`` is 0, whose log is -inf."""
        assert max_relative_entropy(np.zeros((2, 2)), np.eye(2) / 2) == -math.inf

    @pytest.mark.parametrize("bad_argument", [0, 1])
    def test_rejects_non_hermitian_argument(self, bad_argument):
        args = [np.eye(2) / 2, np.eye(2) / 2]
        args[bad_argument] = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(qcore.NotHermitianError):
            max_relative_entropy(*args)

    def test_confidence_identity_random(self):
        """C_x = q_x 2**Dmax(rho_x || rho), checked both ways."""
        rng = np.random.default_rng(42)
        for _ in range(60):
            e = random_ensemble(rng, 2, rng.integers(2, 6))
            for x in e.labels:
                dmax = max_relative_entropy(e.state(x).mat, e.average().mat)
                np.testing.assert_allclose(
                    max_confidence(e, x).confidence, e.prior(x) * 2.0**dmax, atol=1e-9
                )

    def test_monotone_in_scaling(self):
        """Dmax(rho || t sigma + (1-t) rho) decreases as the reference
        gains rho weight."""
        rng = np.random.default_rng(43)
        rho = qcore.random_density(rng, 2).mat
        sigma = qcore.random_density(rng, 2).mat
        prev = math.inf
        for t in (0.9, 0.6, 0.3, 0.1):
            ref = t * sigma + (1 - t) * rho
            d = max_relative_entropy(rho, ref)
            assert d <= prev + 1e-12
            prev = d


# ---------------------------------------------------------------------------
# guessing probability
# ---------------------------------------------------------------------------


class TestGuessingProbability:
    def test_orthogonal_pair(self):
        np.testing.assert_allclose(min_error_guessing(orthogonal_pair()), 1.0, atol=1e-12)

    def test_single_state(self):
        e = Ensemble(priors=(1.0,), states=(np.eye(2) / 2,))
        assert min_error_guessing(e) == 1.0

    def test_identical_states_give_prior(self):
        e = Ensemble(priors=(0.7, 0.3), states=(np.eye(2) / 2, np.eye(2) / 2))
        np.testing.assert_allclose(min_error_guessing(e), 0.7, atol=1e-12)

    def test_two_state_discrimination_formula(self):
        """P = (1 + ||q1 rho1 - q2 rho2||_1)/2 for pure pairs reduces to
        (1 + sqrt(1 - 4 q1 q2 |<psi1|psi2>|^2))/2."""
        rng = np.random.default_rng(51)
        for _ in range(20):
            v1 = qcore.random_pure_state(rng, 2).vec
            v2 = qcore.random_pure_state(rng, 2).vec
            q1 = float(rng.uniform(0.2, 0.8))
            e = Ensemble(priors=(q1, 1 - q1), states=(_projector(v1), _projector(v2)))
            overlap = abs(np.vdot(v1, v2)) ** 2
            want = 0.5 * (1 + math.sqrt(1 - 4 * q1 * (1 - q1) * overlap))
            np.testing.assert_allclose(min_error_guessing(e), want, atol=1e-10)

    def test_trine_guessing_two_thirds(self):
        np.testing.assert_allclose(min_error_guessing(trine_ensemble()), 2.0 / 3.0, atol=1e-5)

    def test_guessing_at_least_best_prior(self):
        rng = np.random.default_rng(52)
        for _ in range(10):
            e = random_ensemble(rng, 2, 3)
            assert min_error_guessing(e) >= max(e.priors) - 1e-6


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


class TestSerialization:
    def test_entry_json_fields(self):
        e = trine_ensemble()
        doc = mcm.entry_to_json(max_confidence(e, 1), complement_states(e)[1])
        assert doc["label"] == 1
        np.testing.assert_allclose(doc["confidence"], 2 / 3, atol=1e-12)
        assert doc["degeneracy"] == 1
        assert len(doc["basis"]) == 1
        json.dumps(doc)  # must be plain-JSON serializable

    def test_solution_json(self):
        doc = mcm.solution_to_json(orthogonal_pair())
        assert sorted(doc) == ["1", "2"]
        np.testing.assert_allclose(doc["1"]["confidence"], 1.0, atol=1e-14)
        json.dumps(doc)

    def test_zero_prior_entry_serializes(self):
        e = Ensemble(
            priors=(1.0, 0.0), states=(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        )
        doc = mcm.entry_to_json(max_confidence(e, 2), complement_states(e).get(2))
        assert doc["confidence"] == 0.0 and doc["basis"] == [] and doc["sigma"] is None
        json.dumps(doc)
