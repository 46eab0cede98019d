"""The stacked code paths against their one-at-a-time references.

``solve_mcm`` solves every label of an ensemble in one pass of stacked
eigensolves, ``KrausChannel.apply_ensemble`` maps every state as one
stack, ``run_sequence`` measures all the parties of a chain in one stacked
pass, and ``qcore.json_text`` writes JSON without the ``json`` encoder.
Each must give exactly what the one-matrix, one-state, one-ensemble or
``json.dumps`` reference gives: the arithmetic is the same, only batched.
So must the CSV purities of a chain, taken from one product over all its
states, and each family's ensemble, built and validated as one stack.

Run with:  pytest tests/test_stacked.py -v
"""

import csv
import importlib.util
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqmcm import checks, cli, families, mcm, qcore, seqchan

PROPERTY = settings(derandomize=True, database=None, max_examples=150, deadline=None)


def _ensemble(dim: int, n: int, seed: int, pure: bool, zero_prior: bool) -> qcore.Ensemble:
    e = qcore.random_ensemble(np.random.default_rng(seed), dim, n, pure=pure)
    if not zero_prior:
        return e
    rest = math.fsum(e.priors[1:])
    return qcore.Ensemble(priors=(0.0, *(q / rest for q in e.priors[1:])), states=e.states)


ensembles = st.builds(
    _ensemble,
    dim=st.integers(2, qcore.DIM_CAP),
    n=st.integers(2, 6),
    seed=st.integers(0, 2**32 - 1),
    pure=st.booleans(),
    zero_prior=st.booleans(),
)


def _eig_reference(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One matrix: symmetrize, ``eigh``, sort descending, then rotate each
    column by ``abs(c) / c`` of its first component above the phase cutoff."""
    h = 0.5 * (h + h.conj().T)
    vals, vecs = np.linalg.eigh(h)
    order = np.argsort(vals)[::-1]
    vals, vecs = vals[order], vecs[:, order]
    for i in range(vecs.shape[1]):
        w = vecs[:, i]
        top = float(np.max(np.abs(w)))
        comp = next(c for c in w if abs(c) > qcore.PHASE_TOL * top)
        vecs[:, i] = w * (abs(comp) / comp)
    return vals, vecs


class TestStackedSolve:
    @PROPERTY
    @given(e=ensembles)
    def test_entries_are_read_only(self, e):
        for entry in mcm.solve_mcm(e).values():
            assert all(not v.flags.writeable for v in entry.basis)
            assert entry.sigma is None or not entry.sigma.mat.flags.writeable

    @PROPERTY
    @given(
        dim=st.integers(1, qcore.DIM_CAP),
        n=st.integers(1, 6),
        rank=st.integers(1, qcore.DIM_CAP),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_eigensolve_equals_the_one_matrix_loop(self, dim, n, rank, seed):
        """Stacked, sorted by argsort and phase-fixed by scalar division, the
        eigensolve gives the bits of the one-matrix, one-column loop; low-rank
        draws have tied (zero) eigenvalues, whose order the sort must keep."""
        rng = np.random.default_rng(seed)
        shape = (n, dim, min(rank, dim))
        g = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        stack = g @ qcore._adjoint(g)
        vals, vecs = qcore.eig_hermitian(stack)
        for i, h in enumerate(stack):
            one_vals, one_vecs = _eig_reference(h)
            assert np.array_equal(vals[i], one_vals) and np.array_equal(vecs[i], one_vecs)
            for part in ("real", "imag"):  # signs of zeros too
                signs = np.signbit(getattr(vecs[i], part))
                assert np.array_equal(signs, np.signbit(getattr(one_vecs, part)))

    def test_eigensolve_of_a_stack_equals_one_matrix_at_a_time(self):
        rng = np.random.default_rng(3)
        g = rng.normal(size=(5, 4, 4)) + 1j * rng.normal(size=(5, 4, 4))
        stack = g + qcore._adjoint(g)
        stack[0] = np.diag([1.0, 1.0, 0.5, 0.5])  # ties in the order of the sort
        vals, vecs = qcore.eig_hermitian(stack)
        for i, h in enumerate(stack):
            one_vals, one_vecs = qcore.eig_hermitian(h)
            assert np.array_equal(vals[i], one_vals) and np.array_equal(vecs[i], one_vecs)

    @pytest.mark.parametrize("seed", range(5))
    def test_support_factors_of_a_stack_equal_the_one_matrix_calls(self, seed):
        """Qutrit averages of ranks 1, 2 and 3, mixed in one stack: the same
        ranks as :func:`qcore.support_factors` on each, and the same support
        projector to 1e-15."""
        ranks = [1, 2, 3, 2, 1, 3]
        es = [_span(seed + 10 * i, (0.4, 0.6), span) for i, span in enumerate(ranks)]
        spectra = qcore._average_spectra(es)
        _, support, stacked_ranks = qcore._support_factors(
            np.array([vals for _, vals, _ in spectra]), np.array([vecs for _, _, vecs in spectra])
        )
        assert stacked_ranks.tolist() == ranks
        for e, proj, rank in zip(es, support, stacked_ranks):
            _, one_proj, one_rank = qcore.support_factors(e.average().mat)
            assert one_rank == rank
            assert np.abs(proj - one_proj).max() <= 1e-15


class TestStackedChannel:
    @PROPERTY
    @given(e=ensembles, kraus=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_apply_ensemble_equals_per_state_apply(self, e, kraus, seed):
        ch = checks.random_channel(np.random.default_rng(seed), e.dim, kraus)
        out = ch.apply_ensemble(e)
        assert out.priors == e.priors
        for s, t in zip(e.states, out.states):
            assert np.array_equal(t.mat, ch.apply(s.mat).mat)

    @PROPERTY
    @given(e=ensembles, kraus=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_distance_equals_the_per_state_sum(self, e, kraus, seed):
        out = checks.random_channel(np.random.default_rng(seed), e.dim, kraus).apply_ensemble(e)
        d = sum(
            q * qcore.trace_norm(s.mat - t.mat) for q, s, t in zip(e.priors, e.states, out.states)
        )
        lower = qcore.trace_norm(e.average().mat - out.average().mat)
        assert seqchan.ensemble_distance(e, out) == (d, lower)

    @PROPERTY
    @given(e=ensembles, alpha=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
    def test_rank_one_plan_equals_the_per_label_outer_products(self, e, alpha, seed):
        rng = np.random.default_rng(seed)
        vectors = {x: qcore.random_pure_state(rng, e.dim).vec for x in e.labels}
        targets = {x: qcore.random_pure_state(rng, e.dim).vec for x in e.labels}
        weights = {x: alpha / e.n for x in e.labels}
        plan = seqchan.projector_plan(weights, vectors, targets)
        total = 0
        for x in e.labels:
            v, w = vectors[x], weights[x]
            element = w * np.outer(v, v.conj())
            total = total + element
            assert np.array_equal(plan.povm.elements[x], element)
            if w > 0.0:
                kraus = math.sqrt(w) * np.outer(targets[x], v.conj())
                assert np.array_equal(plan.channel.ops[x], kraus)
        assert np.array_equal(plan.povm.inconclusive, np.eye(e.dim) - total)

    def test_first_invalid_state_is_reported(self):
        good = np.diag([0.5, 0.5]).astype(complex)
        bad_trace = np.diag([0.5, 0.6]).astype(complex)
        negative = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(ValueError) as info:
            qcore.DensityMatrix.stack([good, negative, bad_trace])
        assert str(info.value) == "density matrix has eigenvalue -5.000e-01 < 0"


def _digest_tool():
    """``tools/cli_digests.py``, the output-diff harness, as a module."""
    path = Path(__file__).resolve().parents[1] / "tools" / "cli_digests.py"
    spec = importlib.util.spec_from_file_location("cli_digests", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def _fresh(e: qcore.Ensemble) -> qcore.Ensemble:
    """A copy of ``e`` with nothing cached, so every value is computed again
    for it alone."""
    return qcore.Ensemble(priors=e.priors, states=e.states)


def _fixed_parties(rng: np.random.Generator, dim: int, parties: int, span: int) -> list:
    """Strategies that solve nothing: each measures one random unit vector
    per label of a three-label POVM, all in the span of the first ``span``
    basis states, which its channel then maps into itself."""
    strategies = []
    for _ in range(parties):
        vecs = rng.normal(size=(3, span)) + 1j * rng.normal(size=(3, span))
        vecs = np.pad(vecs / np.linalg.norm(vecs, axis=1, keepdims=True), ((0, 0), (0, dim - span)))
        plan = seqchan.projector_plan({x: 0.2 for x in (1, 2, 3)}, dict(zip((1, 2, 3), vecs)))
        strategies.append(lambda e, j, plan=plan: plan)
    return strategies


def _span(seed: int, priors: tuple[float, ...], span: int) -> qcore.Ensemble:
    """Qutrit Wishart states on the span of the first ``span`` basis states."""
    rng = np.random.default_rng(seed)
    n = len(priors)
    g = np.zeros((n, 3, 3), dtype=complex)
    g[:, :span, :span] = rng.normal(size=(n, span, span)) + 1j * rng.normal(size=(n, span, span))
    w = g @ qcore._adjoint(g)
    return qcore.Ensemble(priors=priors, states=w / np.trace(w, axis1=1, axis2=2)[:, None, None])


def _chain(name: str, parties: int) -> tuple[qcore.Ensemble, list]:
    rates = [0.6 + 0.02 * j for j in range(parties)]
    rng = np.random.default_rng(parties)
    if name == "two_mixed":
        fam = families.two_mixed(0.8, 1.0)
        return fam.ensemble(), fam.strategies(parties)
    if name in ("gu", "lifted_gu", "mirror"):
        fam = {"gu": families.gu(5), "lifted_gu": families.lifted_gu(4, 1.0, 0.9),
               "mirror": families.mirror(2.2)}[name]
        return fam.ensemble(), fam.strategies(rates)
    if name == "generic-qubit":
        e = qcore.random_ensemble(np.random.default_rng(7), 2, 3)
        return e, seqchan.weakened_mcm_strategies(rates)
    if name == "generic-qutrit":
        e = qcore.random_ensemble(np.random.default_rng(6), 3, 4)
        return e, seqchan.weakened_mcm_strategies(rates)
    if name == "zero-prior":
        e = qcore.random_ensemble(np.random.default_rng(8), 3, 3)
        return qcore.Ensemble(priors=(0.3, 0.0, 0.7), states=e.states), _fixed_parties(rng, 3, parties, 3)
    assert name == "rank-2"
    return _span(9, (0.2, 0.3, 0.5), 2), _fixed_parties(rng, 3, parties, 2)


def _off_average(priors: tuple[float, float] = (0.5, 0.5 + 0.99e-12)) -> qcore.Ensemble:
    """Two qubit states that pass validation, at trace ``1 + 0.995e-10``,
    whose average fails it: its trace is ``1 + 1.005e-10``."""
    t = 1.0 + 0.995e-10
    return qcore.Ensemble(priors=priors,
                          states=[np.diag([0.7 * t, 0.3 * t]), np.diag([0.2 * t, 0.8 * t])])


CHAINS = ["two_mixed", "gu", "lifted_gu", "mirror", "generic-qubit", "generic-qutrit", "zero-prior",
          "rank-2"]


def _hex(values: dict[int, float]) -> dict[int, str]:
    return {x: v.hex() for x, v in values.items()}


def _stage_bits(stage: tuple) -> tuple:
    """A first stage's confidences as hex, its arrays as bytes."""
    conf, live, q, shaping, shaped, complements = stage
    arrays = [q, shaping, *shaped, *(complements or ())]
    return _hex(conf), live, [(a.shape, a.tobytes()) for a in arrays]


class TestStackedChain:
    @pytest.mark.parametrize("parties", [2, 16])
    @pytest.mark.parametrize("name", CHAINS)
    def test_records_equal_the_one_ensemble_calls(self, name, parties):
        """Every number the one stacked pass records for a party is, bit for
        bit, what the one-ensemble call gives on a fresh copy of its ensemble."""
        e0, strategies = _chain(name, parties)
        trace = seqchan.run_sequence(e0, strategies)
        assert trace.parties == parties
        chain = [_fresh(rec.ensemble) for rec in trace.records] + [_fresh(trace.final_ensemble)]
        for rec, e, nxt in zip(trace.records, chain, chain[1:]):
            assert _hex(rec.confidences) == _hex(mcm.confidences(e))
            d, lower = seqchan.ensemble_distance(e, nxt)
            assert (rec.disturbance.hex(), rec.disturbance_lower.hex()) == (d.hex(), lower.hex())
            assert rec.gain.hex() == seqchan.information_gain(e, rec.povm).hex()
            assert rec.eta0.hex() == seqchan.inconclusive_rate(e, rec.povm).hex()

    def test_the_chains_cover_a_zero_prior_and_a_rank_2_average(self):
        e0, strategies = _chain("zero-prior", 16)
        trace = seqchan.run_sequence(e0, strategies)
        assert all(rec.confidences[2] == 0.0 for rec in trace.records)
        e0, strategies = _chain("rank-2", 16)
        for rec in seqchan.run_sequence(e0, strategies).records:
            assert qcore.support_factors(rec.ensemble.average().mat)[2] == 2

    def test_first_stage_stops_at_the_first_failing_ensemble(self):
        """The chain's checks stop at the first failing ensemble: they raise
        that ensemble's one-ensemble error, and cache the stages before it
        and none after.  The stacked first stage alone caches nothing."""
        bad = qcore.ensemble_from_json(_digest_tool().PAIRS["illcond.json"])
        states = qcore.random_ensemble(np.random.default_rng(4), 3, 2).states
        good = qcore.Ensemble(priors=bad.priors, states=states)
        later = qcore.Ensemble(priors=bad.priors, states=states)
        with pytest.raises(mcm.ComplementCheckError) as one:
            mcm.confidences(_fresh(bad))
        stacked = [_fresh(good), _fresh(bad), _fresh(later)]
        with pytest.raises(mcm.ComplementCheckError):
            mcm._first_stage(stacked)
        assert not any("mcm.stage" in e._memo for e in stacked)
        with pytest.raises(mcm.ComplementCheckError) as batch:
            seqchan._checked_stages([good, bad, later], 3)
        assert type(batch.value) is mcm.ComplementCheckError and str(batch.value) == str(one.value)
        one_good = mcm._first_stage([_fresh(good)])[0]
        assert _stage_bits(good._memo["mcm.stage"]) == _stage_bits(one_good)
        assert "mcm.stage" not in later._memo and "mcm.stage" not in bad._memo

    def test_averages_stop_at_the_first_that_fails_validation(self):
        off = _off_average()
        good = qcore.Ensemble(priors=off.priors, states=[np.diag([0.7, 0.3]), np.diag([0.2, 0.8])])
        later = _fresh(good)
        with pytest.raises(ValueError, match="density matrix trace") as one:
            _fresh(off).average()
        with pytest.raises(ValueError) as batch:
            seqchan._checked_stages([good, off, later], 3)
        assert type(batch.value) is ValueError and str(batch.value) == str(one.value)
        assert np.array_equal(good._memo["average"][0].mat, _fresh(good).average().mat)
        assert "average" not in off._memo and "average" not in later._memo

    def test_an_average_after_the_last_party_is_checked_last(self):
        """One party on a valid ensemble hands on ``K_0 = sqrt(t) 1`` times
        it: states that pass validation, whose average does not.  The walk
        checks the party's stage, caching it, then the average after it."""
        off = _off_average()
        good = qcore.Ensemble(priors=off.priors, states=[np.diag([0.7, 0.3]), np.diag([0.2, 0.8])])
        with pytest.raises(ValueError) as chain:
            seqchan._checked_stages([good, off], 1)
        assert str(chain.value) == "density matrix trace = 1.0000000001004898, expected 1"
        assert _stage_bits(good._memo["mcm.stage"]) == _stage_bits(mcm._first_stage([_fresh(good)])[0])
        assert "average" not in off._memo

    def test_a_batch_raises_the_error_of_one_ensemble_at_a_time(self):
        """The stacks fail first on the second ensemble's average, which one
        ensemble at a time checks only after the first ensemble's complement
        check has failed: the first ensemble's error is raised."""
        priors = (0.3, 0.7 + 0.99e-12)
        psi = np.array([math.cos(1e-5), math.sin(1e-5)])
        first = qcore.Ensemble(priors=priors, states=[np.diag([1.0, 0.0]), np.outer(psi, psi)])
        with pytest.raises(mcm.ComplementCheckError) as one:
            mcm.confidences(_fresh(first))
        assert str(one.value).startswith("complement operator has eigenvalue -2.100e-06; ")
        second = _off_average(priors)
        with pytest.raises(mcm.ComplementCheckError) as batch:
            seqchan._checked_stages([first, second], 2)
        assert type(batch.value) is mcm.ComplementCheckError and str(batch.value) == str(one.value)
        assert "mcm.stage" not in first._memo and "mcm.stage" not in second._memo

    @pytest.mark.parametrize("name", ["two_mixed", "gu", "lifted_gu", "mirror", "generic-qutrit"])
    def test_csv_purities_equal_the_one_state_calls(self, name):
        """The purity cells, from one product over the chain's states, are
        bit for bit each state's own ``purity()``."""
        e0, strategies = _chain(name, 16)
        trace = seqchan.run_sequence(e0, strategies)
        rows = list(csv.DictReader(io.StringIO(seqchan.trace_to_csv(trace))))
        assert len(rows) == trace.parties
        for rec, row in zip(trace.records, rows):
            assert [float(row[f"purity_{x}"]).hex() for x in rec.ensemble.labels] == [
                s.purity().hex() for s in rec.ensemble.states
            ]


def _assert_same_states(e: qcore.Ensemble, want: list[qcore.DensityMatrix]) -> None:
    assert len(e.states) == len(want)
    assert all(np.array_equal(s.mat, w.mat) for s, w in zip(e.states, want))


class TestStackedFamilies:
    """Each family's ensemble is one validated stack of the states that one
    state at a time construction gives, bit for bit."""

    @pytest.mark.parametrize("p, theta", [(0.8, 1.0), (1.0, 0.3), (0.35, 2.9)])
    def test_two_mixed(self, p, theta):
        fam = families.two_mixed(p, theta)
        eye = np.eye(2, dtype=complex)
        _assert_same_states(fam.ensemble(), [
            qcore.DensityMatrix(p * np.outer(v, v.conj()) + (1.0 - p) / 2.0 * eye)
            for v in fam.pure_vectors()
        ])

    @pytest.mark.parametrize("n, theta, lam", [(n, math.pi / 2, 1.0) for n in range(2, 9)]
                             + [(5, 1.0, 0.8), (3, 0.4, 0.0), (7, 1.3, 0.55)])
    def test_lifted_gu(self, n, theta, lam):
        fam = families.lifted_gu(n, theta, lam)
        want = [
            qcore.DensityMatrix(
                lam * np.outer(fam.state_vector(x), fam.state_vector(x).conj())
                + (1.0 - lam) * fam.average().mat
            )
            for x in range(1, n + 1)
        ]
        _assert_same_states(fam.ensemble(), want)
        assert all(np.array_equal(fam.state(x).mat, w.mat) for x, w in zip(range(1, n + 1), want))

    @pytest.mark.parametrize("r1, r2, theta", [(1.0, 1.0, 2.2), (0.7, 0.4, 1.1), (0.0, 1.0, 0.5)])
    def test_mirror(self, r1, r2, theta):
        ms = families.MirrorState(r1, r2, theta)
        _assert_same_states(ms.ensemble(), [qcore.density_from_bloch(b) for b in ms.blochs()])


def _solves_nothing(e: qcore.Ensemble, j: int) -> seqchan.PartyPlan:
    return seqchan.projector_plan({1: 0.0}, {1: np.eye(e.dim)[0]})


def _infeasible(e: qcore.Ensemble, j: int) -> seqchan.PartyPlan:
    raise qcore.FeasibilityError("nothing feasible here")


class TestChainErrorOrder:
    """A chain raises the error that measuring one party at a time raises:
    the parties before a failed strategy are checked first."""

    def test_a_complement_failure_precedes_a_later_infeasible_party(self):
        e = qcore.ensemble_from_json(_digest_tool().PAIRS["illcond.json"])
        with pytest.raises(mcm.ComplementCheckError) as one:
            mcm.confidences(_fresh(e))
        with pytest.raises(mcm.ComplementCheckError) as chain:
            seqchan.run_sequence(e, [_solves_nothing, _infeasible])
        assert str(chain.value) == str(one.value)

    def test_a_failed_average_is_checked_once_per_stack_and_once_alone(self, eigensolves):
        """Each party's ``sqrt(M_0)``, the stack of the three averages, which
        fails, then party 1's average alone, which raises: no retry inside
        the stacks."""
        with pytest.raises(ValueError, match="density matrix trace"):
            seqchan.run_sequence(_off_average(), [_solves_nothing, _solves_nothing])
        assert eigensolves.stacks("eigh") == [1, 1, 3, 1]

    def test_a_failed_average_precedes_a_later_infeasible_party(self):
        with pytest.raises(ValueError, match="density matrix trace") as chain:
            seqchan.run_sequence(_off_average(), [_solves_nothing, _infeasible])
        assert type(chain.value) is ValueError

    @pytest.mark.parametrize("source", ["illcond", "off-average"])
    def test_nothing_is_checked_before_the_first_strategy(self, source):
        e = _off_average() if source == "off-average" else qcore.ensemble_from_json(
            _digest_tool().PAIRS["illcond.json"]
        )
        with pytest.raises(seqchan.StrategyInfeasibleError) as chain:
            seqchan.run_sequence(e, [_infeasible, _solves_nothing])
        assert chain.value.party == 1

    def test_an_infeasible_party_after_checked_parties_is_named(self):
        e = qcore.random_ensemble(np.random.default_rng(3), 3, 4)
        with pytest.raises(seqchan.StrategyInfeasibleError) as chain:
            seqchan.run_sequence(e, [_solves_nothing, _solves_nothing, _infeasible])
        assert chain.value.party == 3
        assert isinstance(chain.value.__cause__, qcore.FeasibilityError)


# nested documents: every JSON type, empty containers, non-ASCII strings,
# non-finite floats, and [re, im] pair lists (the writer's fast path)
_leaves = (
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=8)
)
_pairs = st.lists(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=2, max_size=2))
documents = st.recursive(
    _leaves | _pairs,
    lambda children: st.lists(children, max_size=4)
    | st.tuples(children, children)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=20,
)

# the objects of matrix_to_json and vector_to_json (the writer's templates),
# with signed zeros, NaN, infinities and subnormals among their entries, at
# random depths, some with extra keys; strings and keys hold NUL and other
# control characters, which must not be taken for the writer's placeholder
_floats = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -2.5e-310, 2.2250738585072014e-308]
)
_texts = st.text(st.sampled_from("\0\x01\x1f\x7f\n\t\"\\a0\u00e9\u2028"), max_size=6)


@st.composite
def _array_objects(draw):
    d = draw(st.integers(1, qcore.DIM_CAP))
    matrix = draw(st.booleans())
    size = d * d if matrix else d
    parts = draw(st.lists(_floats, min_size=2 * size, max_size=2 * size))
    arr = np.array(parts, dtype=float).view(complex)
    obj = qcore.matrix_to_json(arr.reshape(d, d)) if matrix else qcore.vector_to_json(arr)
    extra = draw(st.dictionaries(_texts, _floats | _texts | st.integers(), max_size=2))
    return {**obj, **extra}


_array_documents = st.recursive(
    _floats | _texts | st.integers(-(2**70), 2**70) | st.none() | st.booleans() | _array_objects(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(_texts, children, max_size=4),
    max_leaves=12,
)


class TestJsonText:
    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(doc=documents)
    def test_equals_indented_sorted_dumps(self, doc):
        assert qcore.json_text(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(doc=_array_documents)
    def test_array_objects_equal_indented_sorted_dumps(self, doc):
        assert qcore.json_text(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"

    def test_entries_are_a_plain_list(self):
        arr = np.array([[1.5, complex(-0.0, 2.0)], [math.nan, 3j]])
        plain = [[1.5, 0.0], [-0.0, 2.0], [math.nan, 0.0], [0.0, 3.0]]
        entries = qcore.matrix_to_json(arr)["entries"]
        assert isinstance(entries, list)
        assert entries[:1] + entries[3:] == plain[:1] + plain[3:]  # NaN equals nothing
        assert json.dumps(entries) == json.dumps(plain)
        assert json.dumps(entries, indent=2) == json.dumps(plain, indent=2)
        assert qcore.vector_to_json(arr[0])["entries"] == plain[:2]

    def test_non_string_keys_convert_as_json_does(self):
        for doc in ({1: "a", 2: "b"}, {1.5: 0, -0.0: 1}, {True: 1, False: 0}, {None: []},
                    {math.inf: 1, -math.inf: 2, math.nan: 3}):
            assert qcore.json_text(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"

    def test_unserializable_raises_type_error(self):
        for doc in ([np.int64(1)], {"a": object()}, {(1, 2): 3}):
            with pytest.raises(TypeError):
                qcore.json_text(doc)

    def test_every_json_output_of_the_corpus(self, monkeypatch, tmp_path):
        """Run the output-diff corpus with every document the CLI writes
        checked against ``json.dumps``."""
        tool = _digest_tool()
        writer, written = qcore.json_text, []

        def checked(obj):  # the harness catches exceptions, so compare afterwards
            text = writer(obj)
            written.append((text, json.dumps(obj, sort_keys=True, indent=2) + "\n"))
            return text

        monkeypatch.setattr(qcore, "json_text", checked)
        monkeypatch.setenv("SEQMCM_THREADS", "1")
        monkeypatch.chdir(tmp_path)
        for name, doc in tool.FILES.items():
            Path(name).write_text(json.dumps(doc))
        for argv in tool.corpus():
            if argv[0] in ("mcm", "sequence", "verify", "family"):
                tool.digest(cli.main, argv)
        assert len(written) >= 30  # every mcm, family and verify line and the JSON sequences
        assert all(text == expected for text, expected in written)
