from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convneg.composition import COMPOSITIONS, CompositionKind
from convneg.context import (
    HypernymHierarchy,
    WeightFunction,
    WeightKind,
    build_entailment_graph,
    load_hierarchy,
    worldly_context_graph,
    worldly_context_hierarchy,
)
from convneg.errors import (
    DimensionMismatchError,
    IsolatedWordError,
    UnknownWordError,
    WeightOutOfRangeError,
    ZeroMatrixError,
)
from convneg.pipeline import (
    Basis,
    NegationConfig,
    NegationKind,
    conversational_negate,
    logical_negation,
    plausibility,
)
from convneg.experiment import load_dataset
from convneg.lexicon import Lexicon, build_lexicon, load_vectors
from convneg.sampling import random_normalized, random_orthogonal, random_psd
from convneg.spectral import Dmat, rescale_max_eig, spectral_decompose

from conftest import from_diagonal, identity


@pytest.fixture
def toy_setup(onb, fruit_raw):
    """The pure state "apple" and its worldly context, the rescaled fruit mixture."""
    return onb["apple"], rescale_max_eig(fruit_raw)


WORKED_OUTPUT = np.diag([0.0, 1.0, 0.5, 0.0])


class TestConversationalNegate:
    @pytest.mark.parametrize("composition", ["spider", "fuzz", "phaser"])
    def test_worked_example_all_compositions(self, toy_setup, composition):
        # the negated pure state and the context commute, so all three
        # structural compositions give the same normalized output
        apple, context = toy_setup
        cfg = NegationConfig(NegationKind.SUB, composition, Basis.W)
        out = conversational_negate(logical_negation(apple, cfg), context, cfg)
        np.testing.assert_allclose(out.matrix, WORKED_OUTPUT, atol=1e-10)
        assert out.max_eigenvalue() == 1.0

    def test_basis_flag_irrelevant_for_commuting_toy(self, toy_setup):
        apple, context = toy_setup
        for basis in (Basis.W, Basis.C):
            cfg = NegationConfig(NegationKind.SUB, CompositionKind.SPIDER, basis)
            out = conversational_negate(logical_negation(apple, cfg), context, cfg)
            np.testing.assert_allclose(out.matrix, WORKED_OUTPUT, atol=1e-10)

    def test_mult_diag_ignore_basis(self, toy_setup):
        apple, context = toy_setup
        for kind in (CompositionKind.MULT, CompositionKind.DIAG):
            cfg_w, cfg_c = (NegationConfig(NegationKind.SUB, kind, basis) for basis in (Basis.W, Basis.C))
            out_w = conversational_negate(logical_negation(apple, cfg_w), context, cfg_w)
            out_c = conversational_negate(logical_negation(apple, cfg_c), context, cfg_c)
            np.testing.assert_array_equal(out_w.matrix, out_c.matrix)

    @pytest.mark.parametrize("basis", list(Basis))
    @pytest.mark.parametrize("kind", list(CompositionKind))
    def test_basis_picks_the_structural_argument(self, rng, kind, basis):
        # the second argument of a composition is its structural operand: the negated word at w,
        # the context at c; on this non-commuting pair only mult and diag give the same bits swapped
        word, context = random_psd(rng, 5, rank=2), rescale_max_eig(random_psd(rng, 5, rank=4))
        cfg = NegationConfig(NegationKind.SUB, kind, basis)
        negated, fn = logical_negation(word, cfg), COMPOSITIONS[kind]
        args = (context, negated) if basis is Basis.W else (negated, context)
        out = conversational_negate(negated, context, cfg)
        assert out.matrix.tobytes() == rescale_max_eig(fn(*args)).matrix.tobytes()
        swapped = fn(*args[::-1]).matrix
        assert np.array_equal(swapped, fn(*args).matrix) == (kind in (CompositionKind.MULT, CompositionKind.DIAG))

    @pytest.mark.parametrize("basis", list(Basis))
    @pytest.mark.parametrize("kind", list(CompositionKind))
    def test_dimension_mismatch(self, kind, basis):
        cfg = NegationConfig(NegationKind.SUB, kind, basis)
        with pytest.raises(DimensionMismatchError):
            conversational_negate(logical_negation(from_diagonal([1.0, 0.0, 0.0]), cfg), identity(2), cfg)

    def test_orthogonal_context_annihilates(self, onb):
        # context disjoint from the negation support zeroes out under mult
        hierarchy = HypernymHierarchy({"orange": ("ctx",)})
        ctx_lexicon = {"ctx": onb["orange"], "orange": onb["orange"]}
        context = worldly_context_hierarchy("orange", hierarchy, ctx_lexicon, WeightFunction(WeightKind.EXP, 5.0))
        cfg = NegationConfig(NegationKind.SUB, CompositionKind.MULT)
        with pytest.raises(ZeroMatrixError, match="row sub,mult,-"):
            conversational_negate(logical_negation(onb["orange"], cfg), context, cfg)

    def test_inv_negation_path(self, toy_setup):
        apple, context = toy_setup
        cfg = NegationConfig(NegationKind.INV, CompositionKind.SPIDER, Basis.W, support_weight=0.5)
        out = conversational_negate(logical_negation(apple, cfg), context, cfg)
        assert out.max_eigenvalue() == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("negation", list(NegationKind))
    def test_output_solves_through_all_six_columns(self, rng, negation, monkeypatch):
        # validation, rescaling and every measure share the output's decomposition;
        # spider and fuzz give it at construction, so the only d x d solves are
        # phaser's and mult's validating eigh; diag's output is diagonal, validated
        # by its sorted diagonal.  spider's and fuzz's groups of size > 1 here are
        # smaller than d.
        dim = 8
        word = random_normalized(rng, dim, rank=3)
        context = random_normalized(rng, dim, rank=5)
        alternatives = [random_normalized(rng, dim, rank=r) for r in (1, 1, 2, 1)]
        for m in (context, *alternatives):
            m.eigenvalues, spectral_decompose(m).support_factor, spectral_decompose(m).whitened_support
        solves = []

        def counting(real):
            def solve(a, *args, **kwargs):
                if np.ndim(a) == 2 and len(a) == dim:
                    solves.append(a)
                return real(a, *args, **kwargs)

            return solve

        for cfg in (NegationConfig(negation, kind, basis) for kind in CompositionKind for basis in Basis):
            negated = logical_negation(word, cfg)
            spectral_decompose(negated).support_factor, spectral_decompose(negated).whitened_support
            for name in ("eigh", "eigvalsh"):
                monkeypatch.setattr(np.linalg, name, counting(getattr(np.linalg, name)))
            solves.clear()
            out = conversational_negate(negated, context, cfg)
            for measure, direction in (("k_hyp", 1), ("k_hyp", 2), ("k_E", 1), ("k_E", 2), ("k_BA", 1), ("trace", 1)):
                plausibility(out, alternatives, measure, direction)
            monkeypatch.undo()
            expected = 1 if cfg.composition in (CompositionKind.PHASER, CompositionKind.MULT) else 0
            assert len(solves) == expected, cfg


class TestNegationConfig:
    def test_rejects_bad_weight(self):
        with pytest.raises(WeightOutOfRangeError):
            NegationConfig(NegationKind.INV, CompositionKind.SPIDER, support_weight=2.0)

    def test_label_collapses_basis_for_mult(self):
        cfg = NegationConfig(NegationKind.SUB, CompositionKind.MULT, Basis.C)
        assert cfg.label() == ("sub", "mult", "-")

    def test_accepts_plain_strings(self):
        cfg = NegationConfig("sub", "phaser", "c")
        assert cfg.negation is NegationKind.SUB
        assert cfg.composition is CompositionKind.PHASER


class TestLogicalNegation:
    def test_sub(self, onb):
        out = logical_negation(onb["apple"], NegationConfig(NegationKind.SUB, CompositionKind.SPIDER))
        np.testing.assert_allclose(out.matrix, np.diag([0.0, 1.0, 1.0, 1.0]))

    def test_inv_weights(self, onb):
        cfg = NegationConfig(NegationKind.INV, CompositionKind.SPIDER, support_weight=0.25)
        out = logical_negation(from_diagonal([0.5, 0.0]), cfg)
        np.testing.assert_allclose(out.matrix, np.diag([0.5, 0.75]))


class TestPlausibility:
    def test_trace_on_worked_output(self, onb):
        negated = Dmat(WORKED_OUTPUT)
        value = plausibility(negated, onb["orange"], "trace")
        assert value == pytest.approx(1.0 / np.sqrt(1.25), abs=1e-12)

    def test_orthogonal_alternative_scores_zero(self, onb):
        negated = Dmat(WORKED_OUTPUT)
        assert plausibility(negated, onb["movie"], "trace") == 0.0

    def test_k_e_direction_two(self, onb):
        # the worked output dominates the orange state, so reverse entailment is full
        negated = Dmat(WORKED_OUTPUT)
        assert plausibility(negated, onb["orange"], "k_E", direction=2) == 1.0

    def test_k_e_direction_one_differs(self, onb):
        negated = Dmat(WORKED_OUTPUT)
        forward = plausibility(negated, onb["orange"], "k_E", direction=1)
        assert forward < 1.0

    def test_unknown_measure(self, onb):
        with pytest.raises(ValueError):
            plausibility(onb["apple"], onb["orange"], "cosine")

    def test_bad_direction(self, onb):
        with pytest.raises(ValueError):
            plausibility(onb["apple"], onb["orange"], "k_E", direction=3)

    def test_graded_alternative_ordering(self, onb):
        # closer alternatives score higher; the orthogonal one scores zero
        negated = Dmat(WORKED_OUTPUT)
        orange = plausibility(negated, onb["orange"], "trace")
        fig = plausibility(negated, onb["fig"], "trace")
        movie = plausibility(negated, onb["movie"], "trace")
        assert orange > fig > movie == 0.0

    def test_alternatives_scored_at_once_match_scalar_loop(self, onb, rng):
        cases = [(Dmat(WORKED_OUTPUT), list(onb.values()))]
        for dim in (2, 7, 20):
            negated = random_normalized(rng, dim, rank=max(1, dim - 2))
            alternatives = [random_psd(rng, dim, rank=r, repeat_prob=0.3) for r in range(1, dim + 1, 3)]
            cases.append((negated, alternatives + [negated, alternatives[0]]))
        for negated, alternatives in cases:
            for measure in ("k_hyp", "k_E", "k_BA", "trace"):
                for direction in (1, 2):
                    got = plausibility(negated, alternatives, measure, direction)
                    want = [plausibility(negated, alt, measure, direction) for alt in alternatives]
                    assert got.tobytes() == np.array(want).tobytes(), (measure, direction)


FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
SCORE_COLUMNS = [("k_hyp", 1), ("k_hyp", 2), ("k_E", 1), ("k_E", 2), ("k_BA", 1), ("trace", 1)]


def _basis_free_scores(lexicon, hierarchy, dataset) -> dict[str, list[float]]:
    """Every fuzz, phaser and negation-only ("none") score of the fixture dataset, under each context source and weighting."""
    graph = build_entailment_graph(lexicon, {r.negated for r in dataset})
    providers = [partial(worldly_context_graph, graph=graph, lexicon=lexicon)] + [
        partial(worldly_context_hierarchy, hierarchy=hierarchy, lexicon=lexicon, fn=WeightFunction(kind, 2.0))
        for kind in WeightKind
    ]
    scores: dict[str, list[float]] = {"fuzz": [], "phaser": [], "none": []}
    for provider in providers:
        for negation in NegationKind:
            for record in dataset:
                alternative = lexicon[record.alternative]
                plain = logical_negation(lexicon[record.negated], NegationConfig(negation, "fuzz"))
                context = provider(record.negated)
                outputs = [
                    (comp, conversational_negate(plain, context, NegationConfig(negation, comp, basis)))
                    for comp in ("fuzz", "phaser")
                    for basis in Basis
                ]
                outputs.append(("none", rescale_max_eig(plain)))
                for comp, out in outputs:
                    scores[comp] += [plausibility(out, alternative, m, d) for m, d in SCORE_COLUMNS]
    return scores


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_rotating_the_lexicon_leaves_basis_free_scores(seed):
    """One orthogonal Q applied to every lexicon matrix leaves every fuzz, phaser and baseline score.

    spider, mult and diag read a basis by design and are left out.  fuzz,
    phaser and the baseline hold 1e-9.  phaser holds it because it zeroes
    its structural operand's kernel roundoff (`spectral._roundoff_cut`)
    before the square root; without that cut its outputs move by up to the
    root of about 4 d eps under any perturbation, a rotation included.
    """
    hierarchy = load_hierarchy(FIXTURES / "toy_hierarchy.tsv")
    dataset = load_dataset(FIXTURES / "toy_dataset.tsv")
    lexicon = build_lexicon(load_vectors(FIXTURES / "toy_vectors.txt"), hierarchy.hyponym_sets())
    q = random_orthogonal(np.random.default_rng(seed), lexicon.dim)
    turned = {}
    for word, m in lexicon.matrices.items():
        r = q @ m.matrix @ q.T
        turned[word] = Dmat((r + r.T) / 2.0)
    want = _basis_free_scores(lexicon, hierarchy, dataset)
    got = _basis_free_scores(Lexicon(turned), hierarchy, dataset)
    for comp in ("fuzz", "phaser", "none"):
        np.testing.assert_allclose(got[comp], want[comp], rtol=0, atol=1e-9, err_msg=comp)
