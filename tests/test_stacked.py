"""The stacked code paths against their one-at-a-time references.

``solve_mcm`` solves every label of an ensemble in one pass of stacked
eigensolves, ``KrausChannel.apply_ensemble`` maps every state as one
stack, and ``qcore.json_text`` writes JSON without the ``json`` encoder.
Each must give exactly what the one-matrix, one-state or ``json.dumps``
reference gives: the arithmetic is the same, only batched.

Run with:  pytest tests/test_stacked.py -v
"""

import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqmcm import checks, cli, mcm, qcore, seqchan

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


class TestJsonText:
    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(doc=documents)
    def test_equals_indented_sorted_dumps(self, doc):
        assert qcore.json_text(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"

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
        path = Path(__file__).resolve().parents[1] / "tools" / "cli_digests.py"
        spec = importlib.util.spec_from_file_location("cli_digests", path)
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
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
