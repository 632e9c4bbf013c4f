import dataclasses
import logging
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import convneg
from convneg import entailment
from convneg.context import (
    GRAPH_MEASURES,
    EntailmentGraph,
    HypernymHierarchy,
    WeightFunction,
    WeightKind,
    build_entailment_graph,
    hypernym_weights,
    load_hierarchy,
    worldly_context_graph,
    worldly_context_hierarchy,
)
from convneg.entailment import k_e, k_hyp_clamped
from convneg.errors import (
    ConvNegError,
    DimensionMismatchError,
    DuplicateWordError,
    IsolatedWordError,
    MissingMatrixError,
    ParseError,
    SelfReferenceError,
    UnknownWordError,
    UnscoredWordError,
    WeightOutOfRangeError,
    ZeroMatrixError,
)
from convneg.lexicon import Lexicon
from convneg.pipeline import NegationConfig, conversational_negate
from convneg.sampling import random_orthogonal, random_psd
from convneg.spectral import Dmat


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def sampled_lexicon(rng, dim, size):
    """Seeded words of mixed rank (1 to dim), a rank-1 word, a shared Dmat and an equal copy."""
    lexicon = {f"w{i:02d}": random_psd(rng, dim, rank=int(rng.integers(1, dim + 1))) for i in range(size)}
    lexicon["pure"] = random_psd(rng, dim, rank=1)
    lexicon["dup"] = lexicon["w01"]
    lexicon["copy"] = Dmat(lexicon["w01"].matrix.copy())
    return lexicon


def per_pair_graph(lexicon, measure, threshold):
    """Reference edges: the scalar measure on every ordered pair, in sorted order."""
    score = {"k_E": k_e, "k_hyp": k_hyp_clamped}[measure]
    words = sorted(lexicon)
    edges = {}
    for u in words:
        for v in words:
            if u != v:
                w = score(lexicon[u], lexicon[v])
                if np.isfinite(w) and w >= threshold:
                    edges[(u, v)] = w
    return edges


def assert_matches_per_pair(graph, lexicon, measure, threshold):
    """The edges are the scalar calls', in order and bit for bit."""
    assert list(graph.edges.items()) == list(per_pair_graph(lexicon, measure, threshold).items())


def near_copy(rng, word, scale):
    """A word of the same rank whose support factor is `word`'s plus a perturbation of relative size `scale`."""
    lam, vecs = np.linalg.eigh(word.matrix)
    support = lam > 1e-12 * lam[-1]
    factor = vecs[:, support] * np.sqrt(lam[support])
    factor = factor + scale * rng.normal(size=factor.shape)
    m = factor @ factor.T
    return Dmat((m + m.T) / 2.0)


def record_shapes(monkeypatch, name):
    """Patch np.linalg.<name> to record the shape of its first argument; returns the list."""
    shapes = []
    real = getattr(np.linalg, name)

    def recording(a, *args, **kwargs):
        shapes.append(a.shape)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, recording)
    return shapes


class TestLoadHierarchy:
    def test_basic_parse(self, tmp_path):
        path = write(tmp_path, "h.tsv", "apple\tfruit,food,entity\n")
        hierarchy = load_hierarchy(path)
        assert hierarchy.hypernyms("apple") == ("fruit", "food", "entity")

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = write(tmp_path, "h.tsv", "# comment\n\napple\tfruit\n")
        assert "apple" in load_hierarchy(path)

    def test_empty_hypernym_list_rejected(self, tmp_path):
        path = write(tmp_path, "h.tsv", "apple\t\n")
        with pytest.raises(ParseError):
            load_hierarchy(path)

    def test_self_reference_rejected(self, tmp_path):
        path = write(tmp_path, "h.tsv", "x\ty,x\n")
        with pytest.raises(SelfReferenceError):
            load_hierarchy(path)

    def test_duplicate_word_rejected(self, tmp_path):
        path = write(tmp_path, "h.tsv", "a\tb\na\tc\n")
        with pytest.raises(DuplicateWordError) as err:
            load_hierarchy(path)
        assert err.value.line_number == 2

    def test_repeated_hypernym_rejected(self, tmp_path):
        # a repeat would count the hypernym's weight twice in the context mixture
        path = write(tmp_path, "h.tsv", "cat\tanimal\ndog\tanimal,animal,entity\n")
        with pytest.raises(DuplicateWordError, match="'animal'") as err:
            load_hierarchy(path)
        assert err.value.line_number == 2

    def test_unknown_word_lookup(self, tmp_path):
        hierarchy = load_hierarchy(write(tmp_path, "h.tsv", "a\tb\n"))
        with pytest.raises(UnknownWordError):
            hierarchy.hypernyms("zzz")

    def test_hyponym_sets_invert_paths(self, tmp_path):
        path = write(tmp_path, "h.tsv", "apple\tfruit,entity\nfig\tfruit,entity\n")
        sets = load_hierarchy(path).hyponym_sets()
        assert sets["fruit"] == {"apple", "fig"}
        assert sets["entity"] == {"apple", "fig"}


HIERARCHY = HypernymHierarchy({"w": ("h1", "h2", "h3")})


class TestHypernymWeights:
    def test_poly(self):
        weights = hypernym_weights(WeightFunction(WeightKind.POLY, 2.0), "w", HIERARCHY)
        np.testing.assert_allclose(weights, [0.8, 0.2, 0.0])

    def test_exp(self):
        weights = hypernym_weights(WeightFunction(WeightKind.EXP, 10.0), "w", HIERARCHY)
        np.testing.assert_allclose(weights, [4 / 7, 2 / 7, 1 / 7])

    def test_hyp_at_zero_is_pure_entailment(self, onb, fruit_raw):
        lexicon = {
            "w": onb["apple"],
            "h1": fruit_raw,
            "h2": onb["orange"],
            "h3": onb["movie"],
        }
        weights = hypernym_weights(WeightFunction(WeightKind.HYP, 0.0), "w", HIERARCHY, lexicon)
        raw = np.array([k_e(onb["apple"], fruit_raw),
                        k_e(onb["apple"], onb["orange"]),
                        k_e(onb["apple"], onb["movie"])])
        np.testing.assert_allclose(weights, raw / raw.sum(), atol=1e-12)

    def test_hyp_requires_lexicon(self):
        with pytest.raises(MissingMatrixError):
            hypernym_weights(WeightFunction(WeightKind.HYP, 1.0), "w", HIERARCHY)

    @pytest.mark.parametrize("kind, x", [(WeightKind.POLY, 330.0), (WeightKind.EXP, 1e40), (WeightKind.HYP, 660.0)])
    def test_overflowing_weights_rejected(self, kind, x):
        # 9**330 is inf, and inf / inf would be a NaN weight; the pair would be skipped as empty
        hierarchy = HypernymHierarchy({"w": tuple(f"h{i}" for i in range(10))})
        lexicon = {"w": Dmat(np.eye(2) / 2.0), **{f"h{i}": Dmat(np.eye(2)) for i in range(10)}}
        with np.errstate(over="ignore"), pytest.raises(WeightOutOfRangeError, match="overflow"):
            hypernym_weights(WeightFunction(kind, x), "w", hierarchy, lexicon)

    def test_large_finite_weights_keep_the_nearest_hypernym_limit(self):
        hierarchy = HypernymHierarchy({"w": tuple(f"h{i}" for i in range(10))})
        weights = hypernym_weights(WeightFunction(WeightKind.POLY, 300.0), "w", hierarchy)
        raw = np.arange(9.0, -1.0, -1.0) ** 300.0
        assert weights.tobytes() == (raw / raw.sum()).tobytes()
        assert weights[0] == pytest.approx(1.0) and np.all(np.isfinite(weights))

    def test_negative_parameter_rejected(self):
        with pytest.raises(ValueError):
            WeightFunction(WeightKind.POLY, -1.0)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 8), x=st.floats(0.0, 6.0))
    def test_poly_exp_non_increasing(self, n, x):
        hierarchy = HypernymHierarchy({"w": tuple(f"h{i}" for i in range(n))})
        for kind in (WeightKind.POLY, WeightKind.EXP):
            weights = hypernym_weights(WeightFunction(kind, x), "w", hierarchy)
            assert np.all(np.diff(weights) <= 1e-12)
            if weights.sum() > 0:
                assert weights.sum() == pytest.approx(1.0)


class TestWorldlyContextHierarchy:
    def test_single_hypernym_passthrough(self, onb):
        hierarchy = HypernymHierarchy({"apple": ("h",)})
        lexicon = {"apple": onb["apple"], "h": onb["orange"]}
        out = worldly_context_hierarchy("apple", hierarchy, lexicon, WeightFunction(WeightKind.EXP, 5.0))
        np.testing.assert_allclose(out.matrix, onb["orange"].matrix, atol=1e-12)

    def test_hand_set_toy_context(self, onb, fruit_raw):
        # the worked mixture (1/2, 1/3, 1/6) rescales so the top eigenvalue is 1
        from convneg.spectral import rescale_max_eig

        out = rescale_max_eig(fruit_raw)
        np.testing.assert_allclose(out.matrix, np.diag([1.0, 2 / 3, 1 / 3, 0.0]), atol=1e-12)

    def test_poly_weights_pure_states(self):
        # weights (0.8, 0.2, 0) over orthogonal pure states, rescaled to top 1
        hierarchy = HypernymHierarchy({"w": ("e0", "e1", "e2")})
        basis = np.eye(3)
        lexicon = {f"e{i}": Dmat(np.outer(basis[i], basis[i])) for i in range(3)}
        out = worldly_context_hierarchy("w", hierarchy, lexicon, WeightFunction(WeightKind.POLY, 2.0))
        np.testing.assert_allclose(out.matrix, np.diag([1.0, 0.25, 0.0]), atol=1e-12)

    def test_all_weights_vanish(self, onb):
        # a single hypernym under poly with positive exponent weighs zero
        hierarchy = HypernymHierarchy({"apple": ("h",)})
        lexicon = {"apple": onb["apple"], "h": onb["orange"]}
        with pytest.raises(ZeroMatrixError):
            worldly_context_hierarchy("apple", hierarchy, lexicon, WeightFunction(WeightKind.POLY, 2.0))

    def test_missing_matrix(self, onb):
        hierarchy = HypernymHierarchy({"apple": ("ghost",)})
        with pytest.raises(UnknownWordError):
            worldly_context_hierarchy("apple", hierarchy, {"apple": onb["apple"]},
                                      WeightFunction(WeightKind.EXP, 5.0))

    def test_equal_pure_hypernyms_reduce_to_the_state(self, onb):
        hierarchy = HypernymHierarchy({"w": ("h", "h2", "h3")})
        lexicon = {"h": onb["orange"], "h2": onb["orange"], "h3": onb["orange"]}
        for kind, x in ((WeightKind.POLY, 3.0), (WeightKind.EXP, 7.0)):
            out = worldly_context_hierarchy("w", hierarchy, lexicon, WeightFunction(kind, x))
            np.testing.assert_allclose(out.matrix, onb["orange"].matrix, atol=1e-12)

    def test_output_normalized(self, onb, fruit_raw):
        hierarchy = HypernymHierarchy({"apple": ("fruit", "orange")})
        lexicon = {"apple": onb["apple"], "fruit": fruit_raw, "orange": onb["orange"]}
        out = worldly_context_hierarchy("apple", hierarchy, lexicon, WeightFunction(WeightKind.EXP, 10.0))
        assert out.max_eigenvalue() == pytest.approx(1.0, abs=1e-9)


class TestEntailmentGraph:
    def test_two_word_graph_weights(self, onb, fruit_raw):
        lexicon = {"apple": onb["apple"], "fruit": fruit_raw}
        graph = build_entailment_graph(lexicon, lexicon, measure="k_E")
        assert graph.weight("apple", "fruit") == pytest.approx(0.5, abs=1e-12)
        assert graph.weight("fruit", "apple") == pytest.approx(
            k_e(fruit_raw, onb["apple"]), abs=1e-12
        )

    def test_high_threshold_empties_graph(self, onb, fruit_raw):
        lexicon = {"apple": onb["apple"], "fruit": fruit_raw}
        assert len(build_entailment_graph(lexicon, lexicon, "k_E", threshold=1.1)) == 0

    def test_single_word_no_self_loops(self, onb):
        assert len(build_entailment_graph({"apple": onb["apple"]}, ["apple"], "k_E")) == 0

    def test_batched_matches_per_pair_reference(self):
        # mixed ranks (rank-1 included), a shared Dmat and an equal copy
        rng = np.random.default_rng(20)
        for dim in (2, 3, 5, 8, 13, 20):
            lexicon = sampled_lexicon(rng, dim, 14)
            for measure in ("k_E", "k_hyp"):
                for threshold in (0.0, 0.35, 0.8, 1.0):
                    assert_matches_per_pair(build_entailment_graph(lexicon, lexicon, measure, threshold),
                                            lexicon, measure, threshold)

    def test_duplicate_words_fully_entail(self):
        lexicon = sampled_lexicon(np.random.default_rng(3), 6, 5)
        edges = build_entailment_graph(lexicon, lexicon, "k_E").edges
        for u, v in (("dup", "w01"), ("copy", "w01"), ("dup", "copy")):
            assert edges[(u, v)] == edges[(v, u)] == 1.0

    @pytest.mark.parametrize("measure", ["k_E", "k_hyp"])
    def test_repeated_spectra_match_direct_solves(self, measure):
        # words with exactly repeated eigenvalues lead LAPACK to exact ties,
        # where the spectrum of M_i - M_j is not bitwise the negated reversal
        # of that of M_j - M_i; each direction must still match its own solve
        rng = np.random.default_rng(8)
        lexicon = {f"w{i:02d}": random_psd(rng, 12, rank=int(rng.integers(1, 13)), repeat_prob=0.3)
                   for i in range(25)}
        assert_matches_per_pair(build_entailment_graph(lexicon, lexicon, measure), lexicon, measure, 0.0)

    @pytest.mark.parametrize("measure", ["k_E", "k_hyp"])
    def test_zero_matrix_rejected(self, onb, measure):
        lexicon = {"apple": onb["apple"], "zero": Dmat(np.zeros((4, 4))), "fig": onb["fig"]}
        with pytest.raises(ZeroMatrixError):
            per_pair_graph(lexicon, measure, 0.0)
        with pytest.raises(ZeroMatrixError):
            build_entailment_graph(lexicon, lexicon, measure)

    @pytest.mark.parametrize("measure", ["k_E", "k_hyp"])
    def test_mixed_dims_rejected(self, onb, measure):
        lexicon = {"apple": onb["apple"], "small": Dmat(np.eye(3)), "fig": onb["fig"]}
        with pytest.raises(DimensionMismatchError):
            per_pair_graph(lexicon, measure, 0.0)
        with pytest.raises(DimensionMismatchError):
            build_entailment_graph(lexicon, lexicon, measure)

    @pytest.mark.parametrize("measure", ["k_E", "k_hyp"])
    def test_zero_and_mixed_dims_raise_like_per_pair(self, measure):
        # the per-pair loop meets the zero word at ("a", "b") before any dims mismatch
        lexicon = {"a": Dmat(np.zeros((4, 4))), "b": Dmat(np.eye(4)), "c": Dmat(np.eye(3))}
        with pytest.raises(ConvNegError) as expected:
            per_pair_graph(lexicon, measure, 0.0)
        with pytest.raises(ConvNegError) as raised:
            build_entailment_graph(lexicon, lexicon, measure)
        assert type(raised.value) is type(expected.value) is ZeroMatrixError

    @pytest.mark.parametrize("measure", ["k_E", "k_hyp"])
    def test_trivial_lexicons(self, measure):
        # no ordered pair exists, so not even a zero matrix is scored
        assert len(build_entailment_graph({}, [], measure)) == 0
        assert len(build_entailment_graph({"zero": Dmat(np.zeros((3, 3)))}, ["zero"], measure)) == 0

    def test_unknown_measure(self, onb):
        with pytest.raises(ValueError):
            build_entailment_graph({"apple": onb["apple"]}, ["apple"], "k_BA")


class TestHardKEPairs:
    """k_E graph edges of pairs that are hard to solve are the scalar values bit for bit."""

    def test_tiny_eigenvalues_stay_in_the_support(self):
        # a support cut at RANK_TOL would drop the 3e-9 and 1e-10 eigenvalues and move edges by ~4e-10
        rng = np.random.default_rng(12)
        q = random_orthogonal(rng, 12)
        tiny = (q * np.r_[1.0, 3e-9, 1e-10, np.zeros(9)]) @ q.T
        lexicon = {"tiny": Dmat((tiny + tiny.T) / 2.0)}
        lexicon.update({f"w{i}": random_psd(rng, 12, rank=i) for i in range(1, 6)})
        assert_matches_per_pair(build_entailment_graph(lexicon, lexicon, "k_E"), lexicon, "k_E", 0.0)

    def test_near_dependent_supports(self):
        # near-parallel factors make an orthogonalization through the Gram matrix lose digits
        rng = np.random.default_rng(13)
        base = random_psd(rng, 10, rank=3)
        lexicon = {"base": base, "pure": random_psd(rng, 10, rank=1)}
        lexicon.update({f"near{k}": near_copy(rng, base, 10.0 ** -k) for k in (3, 5, 7, 9)})
        assert_matches_per_pair(build_entailment_graph(lexicon, lexicon, "k_E"), lexicon, "k_E", 0.0)

    def test_equal_matrices_score_exactly_one(self):
        # equal low-rank words, one of them with -0.0 where the other has 0.0
        rng = np.random.default_rng(15)
        block = np.zeros((10, 10))
        block[:4, :4] = random_psd(rng, 4, rank=2).matrix
        signed = block.copy()
        signed[signed == 0.0] = -0.0
        lexicon = {"a": Dmat(block), "b": Dmat(block.copy()), "c": Dmat(signed),
                   "p": random_psd(rng, 10, rank=2)}
        lexicon["d"] = lexicon["p"]
        lexicon["e"] = Dmat(lexicon["p"].matrix.copy())
        graph = build_entailment_graph(lexicon, lexicon, "k_E", threshold=1.0)
        equal = ("abc", "dep")
        assert set(graph.edges) == {(u, v) for group in equal for u in group for v in group if u != v}
        assert set(graph.edges.values()) == {1.0}

    @pytest.mark.parametrize("measure", ["k_E", "k_hyp"])
    def test_no_stack_holds_every_word(self, monkeypatch, measure):
        # a stack holds at most the n - 1 pairs of one measure call;
        # stacking every pair at once costs memory for no speed
        lexicon = sampled_lexicon(np.random.default_rng(4), 9, 12)
        solves = record_shapes(monkeypatch, "eigvalsh")
        build_entailment_graph(lexicon, lexicon, measure)
        assert solves and all(len(shape) == 2 or shape[0] < len(lexicon) for shape in solves)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("dim", [3, 8, 12])
    def test_mixed_lexicon_matches_per_pair_bitwise(self, seed, dim):
        # mixed ranks, full-rank words, equal copies and many rank-1 leaves,
        # so both the rank-1 route and the d x d solve fill each source's row
        rng = np.random.default_rng(seed)
        lexicon = sampled_lexicon(rng, dim, 8)
        lexicon.update({f"leaf{i}": random_psd(rng, dim, rank=1) for i in range(10)})
        lexicon["full"] = random_psd(rng, dim)
        lexicon["full_copy"] = Dmat(lexicon["full"].matrix.copy())
        assert_matches_per_pair(build_entailment_graph(lexicon, lexicon, "k_E"), lexicon, "k_E", 0.0)

    def test_build_imports_no_masked_arrays(self):
        # np.unique imports numpy.ma, about 1 MB of resident memory
        code = (
            "import sys\n"
            "import numpy as np\n"
            "from convneg.context import build_entailment_graph\n"
            "from convneg.sampling import random_psd\n"
            "rng = np.random.default_rng(0)\n"
            "lexicon = {f'w{i}': random_psd(rng, 8, rank=1 + i % 8) for i in range(12)}\n"
            "build_entailment_graph(lexicon, lexicon)\n"
            "assert 'numpy.ma' not in sys.modules\n"
        )
        src = str(Path(convneg.__file__).resolve().parent.parent)
        subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": src})

    @settings(max_examples=50, deadline=None)
    @given(dim=st.integers(1, 20), size=st.integers(2, 6), seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from([1e-3, 1e-6, 1e-9]))
    def test_matches_per_pair_reference(self, dim, size, seed, scale):
        # mixed ranks cover the rank-1 route and the d x d solve; a near copy gives
        # near-dependent supports, and an equal copy must stay at exactly 1
        rng = np.random.default_rng(seed)
        lexicon = {f"w{i}": random_psd(rng, dim, rank=int(rng.integers(1, dim + 1))) for i in range(size)}
        lexicon["full"] = random_psd(rng, dim)
        lexicon["pure"] = random_psd(rng, dim, rank=1)
        lexicon["near"] = near_copy(rng, lexicon["w0"], scale)
        lexicon["copy"] = Dmat(lexicon["w0"].matrix.copy())
        for threshold in (0.0, 0.35, 0.8, 1.0):
            graph = build_entailment_graph(lexicon, lexicon, "k_E", threshold)
            assert_matches_per_pair(graph, lexicon, "k_E", threshold)


def context_or_error(word, graph, lexicon):
    """The word's graph context matrix, or the type of the error it raises."""
    try:
        return worldly_context_graph(word, graph, lexicon).matrix
    except ConvNegError as exc:
        return type(exc)


class TestGraphAroundWords:
    """A graph built around some words holds the full graph's edges at those words, bit for bit, and no others."""

    @pytest.mark.parametrize("measure", ["k_E", "k_hyp"])
    def test_takes_no_frobenius_norm(self, measure, monkeypatch):
        # the zero checks read each word's kept top eigenvalue (`Dmat.is_zero`)
        lexicon = sampled_lexicon(np.random.default_rng(15), 6, 12)  # 15 words
        norms = []
        real = Dmat.frobenius_norm
        monkeypatch.setattr(Dmat, "frobenius_norm", lambda m: norms.append(m) or real(m))
        assert len(build_entailment_graph(lexicon, lexicon, measure)) > 0
        assert len(lexicon) == 15 and norms == []

    @pytest.mark.parametrize("measure", ["k_E", "k_hyp"])
    @pytest.mark.parametrize("seed", range(3))
    def test_incident_edges_and_contexts_match_full_graph_bitwise(self, measure, seed):
        # mixed ranks, rank-1 leaves (a queue shape that outgrows one row), equal copies and a full-rank word
        rng = np.random.default_rng(seed)
        dim = (3, 8, 12)[seed]
        lexicon = sampled_lexicon(rng, dim, 8)
        lexicon.update({f"leaf{i}": random_psd(rng, dim, rank=1) for i in range(10)})
        lexicon["full"] = random_psd(rng, dim)
        lexicon["full_copy"] = Dmat(lexicon["full"].matrix.copy())
        groups = (["leaf3"], ["w00", "dup"], ["copy", "full", "leaf0", "pure"], ["w07"])
        for threshold in (0.0, 0.35, 1.0):
            full = build_entailment_graph(lexicon, lexicon, measure, threshold)
            for words in groups:
                graph = build_entailment_graph(lexicon, words, measure, threshold)
                expected = [(pair, w) for pair, w in full.edges.items() if set(pair) & set(words)]
                assert list(graph.edges) == [pair for pair, _ in expected]
                assert np.array(list(graph.edges.values())).tobytes() == np.array([w for _, w in expected]).tobytes()
                for word in words:
                    assert graph.neighbors(word) == full.neighbors(word)
                    got, want = context_or_error(word, graph, lexicon), context_or_error(word, full, lexicon)
                    assert got is want if isinstance(want, type) else np.array_equal(got, want)

    @pytest.mark.parametrize("measure", ["k_E", "k_hyp"])
    @pytest.mark.parametrize("k", [1, 4])
    def test_solves_only_incident_pairs(self, monkeypatch, measure, k):
        # k sources meet at most 2k(n - 1) ordered pairs, against n(n - 1) for every word
        lexicon = sampled_lexicon(np.random.default_rng(4), 6, 12)
        n = len(lexicon)
        calls = record_shapes(monkeypatch, "eigvalsh")
        build_entailment_graph(lexicon, sorted(lexicon)[:k], measure)
        assert 0 < sum(shape[0] if len(shape) == 3 else 1 for shape in calls) <= 2 * k * (n - 1)

    @pytest.mark.parametrize("measure", ["k_E", "k_hyp"])
    def test_zero_word_outside_the_sources_still_rejected(self, onb, measure):
        lexicon = {"apple": onb["apple"], "zero": Dmat(np.zeros((4, 4))), "fig": onb["fig"]}
        with pytest.raises(ZeroMatrixError):
            build_entailment_graph(lexicon, ["apple"], measure)

    @pytest.mark.parametrize("measure, error", [("k_E", DimensionMismatchError), ("k_hyp", ZeroMatrixError)])
    def test_zero_word_outside_the_sources_raises_as_the_source_calls_do(self, measure, error):
        # a loop over every sorted pair would meet the zero word first, at ("a", "b");
        # the calls around "b" meet ("b", "a"), which only k_hyp rejects, then ("b", "c")
        lexicon = {"a": Dmat(np.zeros((4, 4))), "b": Dmat(np.eye(4)), "c": Dmat(np.eye(3))}
        with pytest.raises(ConvNegError) as raised:
            build_entailment_graph(lexicon, ["b", "c"], measure)
        assert type(raised.value) is error

    def test_graph_measures_are_named_in_the_one_table(self):
        assert set(GRAPH_MEASURES) < set(entailment.MEASURES)
        assert {name: entailment.MEASURES[name] for name in GRAPH_MEASURES} == {"k_E": k_e, "k_hyp": k_hyp_clamped}

    @pytest.mark.parametrize("measure", ["k_E", "k_hyp"])
    @pytest.mark.parametrize("k", [1, 4])
    def test_two_measure_calls_per_source(self, monkeypatch, measure, k):
        # each source, in sorted order, is scored against the other n - 1 words, then they against it
        lexicon = sampled_lexicon(np.random.default_rng(4), 6, 12)
        words = sorted(lexicon)
        sources = words[::-1][:k]
        calls = []
        score = entailment.MEASURES[measure]
        monkeypatch.setattr(entailment, "MEASURES", {measure: lambda a, b: calls.append((a, b)) or score(a, b)})
        build_entailment_graph(lexicon, [*sources, "ghost"], measure)
        ids = lambda x: id(x) if isinstance(x, Dmat) else [id(m) for m in x]
        expected = []
        for s in sorted(sources):
            others = [lexicon[w] for w in words if w != s]
            expected += [(ids(lexicon[s]), ids(others)), (ids(others), ids(lexicon[s]))]
        assert [(ids(a), ids(b)) for a, b in calls] == expected

    @pytest.mark.parametrize("measure", ["k_E", "k_hyp"])
    def test_no_source_in_the_lexicon_checks_nothing(self, onb, measure):
        # no word meets a measure call, so neither the zero word nor the mixed dims raise
        lexicon = {"apple": onb["apple"], "zero": Dmat(np.zeros((4, 4))), "small": Dmat(np.eye(3))}
        for words in ([], ["ghost"]):
            graph = build_entailment_graph(lexicon, words, measure)
            assert len(graph) == 0 and graph.scored == set(words)

    def test_unscored_word_raises(self, onb):
        lexicon = dict(onb)
        graph = build_entailment_graph(lexicon, ["apple", "ghost"], "k_E")
        assert graph.scored == {"apple", "ghost"}
        assert graph.neighbors("apple") == ("fig", "movie", "orange")
        with pytest.raises(UnscoredWordError, match="'fig'"):
            graph.neighbors("fig")
        with pytest.raises(UnscoredWordError):
            worldly_context_graph("fig", graph, lexicon)
        # a source word without a matrix has no edges, as in the full graph
        with pytest.raises(IsolatedWordError):
            worldly_context_graph("ghost", graph, lexicon)

    def test_logs_one_line_per_build(self, caplog):
        lexicon = sampled_lexicon(np.random.default_rng(4), 6, 12)
        with caplog.at_level(logging.DEBUG, logger="convneg.context"):
            graph = build_entailment_graph(lexicon, ["w00", "w05", "ghost"], "k_E", threshold=0.5)
        assert [r.getMessage() for r in caplog.records] == [
            f"k_E graph over 15 words around 2 source words: 27 of 105 word pairs scored, {len(graph)} edges kept"
        ]

    def test_silent_by_default(self, caplog):
        build_entailment_graph(sampled_lexicon(np.random.default_rng(4), 6, 12), ["w00"], "k_E")
        assert caplog.records == []


class TestEntailmentGraphIndex:
    def test_neighbors_union_sorted(self):
        graph = EntailmentGraph({("b", "a"): 0.5, ("b", "d"): 0.2, ("c", "b"): 0.1, ("a", "b"): 0.3})
        assert graph.neighbors("b") == ("a", "c", "d")
        assert graph.neighbors("a") == ("b",)
        assert graph.neighbors("c") == ("b",)
        assert graph.neighbors("zzz") == ()

    def test_index_cannot_go_stale(self):
        source = {("a", "b"): 0.5}
        graph = EntailmentGraph(source)
        source[("a", "c")] = 0.7
        assert graph.neighbors("a") == ("b",) and len(graph) == 1
        with pytest.raises(TypeError):
            graph.edges[("a", "c")] = 0.7
        with pytest.raises(dataclasses.FrozenInstanceError):
            graph.edges = {}

    def test_equality_by_edges(self):
        assert EntailmentGraph({("a", "b"): 0.5}) == EntailmentGraph({("a", "b"): 0.5})
        assert EntailmentGraph({("a", "b"): 0.5}) != EntailmentGraph({("b", "a"): 0.5})

    @pytest.mark.parametrize("bad", [-0.5, -1e-300, math.nan, math.inf, np.float64(math.nan)])
    def test_bad_weight_rejected(self, bad):
        with pytest.raises(WeightOutOfRangeError):
            EntailmentGraph({("w", "h"): bad, ("w", "g"): 1.0})

    def test_self_loop_rejected(self):
        with pytest.raises(SelfReferenceError):
            EntailmentGraph({("w", "h"): 0.5, ("w", "w"): 0.5})

    def test_zero_and_one_weights_accepted(self):
        graph = EntailmentGraph({("w", "h"): 0.0, ("h", "w"): 1.0})
        assert graph.weight("w", "h") == 0.0 and graph.weight("h", "w") == 1.0


class TestWorldlyContextGraph:
    def test_single_neighbor_weight_cancels(self, onb):
        graph = EntailmentGraph({("w", "h"): 0.5})
        out = worldly_context_graph("w", graph, {"h": onb["orange"]})
        np.testing.assert_allclose(out.matrix, onb["orange"].matrix, atol=1e-12)

    def test_only_incoming_edges_rejected(self, onb):
        # the neighbor is weighted by the outgoing edge, which is absent
        graph = EntailmentGraph({("h", "w"): 0.5})
        with pytest.raises(ZeroMatrixError):
            worldly_context_graph("w", graph, {"h": onb["orange"]})

    def test_isolated_word(self, onb):
        with pytest.raises(IsolatedWordError):
            worldly_context_graph("w", EntailmentGraph({}), {"h": onb["orange"]})

    def test_two_orthogonal_neighbors(self):
        basis = np.eye(3)
        lexicon = {f"e{i}": Dmat(np.outer(basis[i], basis[i])) for i in range(2)}
        graph = EntailmentGraph({("w", "e0"): 0.6, ("w", "e1"): 0.3})
        out = worldly_context_graph("w", graph, lexicon)
        np.testing.assert_allclose(out.matrix, np.diag([1.0, 0.5, 0.0]), atol=1e-12)

    def test_matches_hierarchy_context_on_fixture(self, onb):
        # a graph whose outgoing weights equal the hierarchy weights reproduces
        # the hierarchy context
        hierarchy = HypernymHierarchy({"w": ("apple", "orange", "fig")})
        lexicon = dict(onb)
        weights = hypernym_weights(WeightFunction(WeightKind.EXP, 10.0), "w", hierarchy)
        graph = EntailmentGraph({("w", h): float(p) for h, p in zip(("apple", "orange", "fig"), weights)})
        via_graph = worldly_context_graph("w", graph, lexicon)
        via_hierarchy = worldly_context_hierarchy("w", hierarchy, lexicon, WeightFunction(WeightKind.EXP, 10.0))
        np.testing.assert_allclose(via_graph.matrix, via_hierarchy.matrix, atol=1e-10)



def as_lexicon(mapping):
    return Lexicon(dict(mapping))


@pytest.mark.parametrize("container", [dict, as_lexicon], ids=["dict", "Lexicon"])
class TestMissingWordRaisesUnknownWord:
    """Every lexicon access goes through one lookup: a missing word is UnknownWordError."""

    def test_hierarchy_context_missing_hypernym(self, onb, container):
        hierarchy = HypernymHierarchy({"apple": ("orange", "ghost")})
        lexicon = container({"apple": onb["apple"], "orange": onb["orange"]})
        with pytest.raises(UnknownWordError, match="'ghost'"):
            worldly_context_hierarchy("apple", hierarchy, lexicon, WeightFunction(WeightKind.EXP, 5.0))

    @pytest.mark.parametrize("missing", ["apple", "ghost"])
    def test_hyp_weights(self, onb, container, missing):
        hierarchy = HypernymHierarchy({"apple": ("orange", "ghost")})
        present = {"apple": onb["apple"], "orange": onb["orange"], "ghost": onb["fig"]}
        del present[missing]
        with pytest.raises(UnknownWordError, match=repr(missing)):
            hypernym_weights(WeightFunction(WeightKind.HYP, 1.0), "apple", hierarchy, container(present))

    def test_graph_context_missing_neighbor(self, onb, container):
        graph = EntailmentGraph({("w", "h"): 0.5, ("w", "ghost"): 0.5})
        with pytest.raises(UnknownWordError, match="'ghost'"):
            worldly_context_graph("w", graph, container({"h": onb["orange"]}))

    def test_conversational_negate_missing_word(self, onb, container):
        cfg = NegationConfig("sub", "spider")
        with pytest.raises(UnknownWordError, match="'ghost'"):
            conversational_negate("ghost", cfg, container({"h": onb["orange"]}), lambda word: onb["orange"])
