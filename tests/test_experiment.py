import math
import sys
from collections import Counter, defaultdict
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convneg import experiment, pipeline
from convneg.context import (
    HypernymHierarchy,
    WeightFunction,
    WeightKind,
    build_entailment_graph,
    load_hierarchy,
    worldly_context_graph,
    worldly_context_hierarchy,
)
from convneg.entailment import _rank_one_terms
from convneg.errors import (
    DuplicatePairError,
    InsufficientDataError,
    MissingMatrixError,
    ParseError,
    RatingOutOfRangeError,
    UnscoredWordError,
    ZeroVarianceError,
)
from convneg.experiment import (
    GridSpec,
    MEASURE_COLUMNS,
    PlausibilityDataset,
    PlausibilityRecord,
    csv_header,
    load_dataset,
    parse_grid_config,
    pearson,
    run_grid,
)
from convneg.lexicon import VectorTable, build_lexicon, load_vectors
from convneg.pipeline import NegationConfig, conversational_negate, logical_negation, plausibility
from convneg.sampling import random_normalized
from convneg.spectral import Dmat, rescale_max_eig


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


HEADER = "negated\talternative\tmean_rating\n"


class TestLoadDataset:
    def test_single_record(self, tmp_path):
        data = load_dataset(write(tmp_path, "d.tsv", HEADER + "radio\tdad\t1.2\n"))
        assert len(data) == 1
        record = data.records[0]
        assert (record.negated, record.alternative, record.mean_rating) == ("radio", "dad", 1.2)

    def test_out_of_scale_rating(self, tmp_path):
        with pytest.raises(RatingOutOfRangeError):
            load_dataset(write(tmp_path, "d.tsv", HEADER + "a\tb\t7.0\n"))

    def test_duplicate_pair(self, tmp_path):
        with pytest.raises(DuplicatePairError):
            load_dataset(write(tmp_path, "d.tsv", HEADER + "a\tb\t2.0\na\tb\t3.0\n"))

    def test_bad_header(self, tmp_path):
        with pytest.raises(ParseError):
            load_dataset(write(tmp_path, "d.tsv", "word\talt\trating\na\tb\t2.0\n"))


class TestPearson:
    def test_perfect_positive(self):
        assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)

    def test_perfect_negative(self):
        assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_hand_computed_value(self):
        # centered cross-product 4 over sqrt(5 * 5)
        assert pearson([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-12)

    def test_matches_numpy(self, rng):
        xs = rng.normal(size=20)
        ys = rng.normal(size=20)
        assert pearson(xs, ys) == pytest.approx(np.corrcoef(xs, ys)[0, 1], abs=1e-12)

    def test_too_short(self):
        with pytest.raises(InsufficientDataError):
            pearson([1, 2], [3, 4])

    def test_zero_variance(self):
        with pytest.raises(ZeroVarianceError):
            pearson([1, 1, 1], [1, 2, 3])

    def test_tiny_spread_on_a_large_offset(self):
        # the first mean's rounding error is not small next to a 2e-12 spread
        assert pearson([1, 1, 1, 1 + 2e-12], [0, 0, 0, 1]) == 1.0
        assert pearson([0, 0, 0, 2e-12], [0, 0, 0, 1]) == 1.0

    @settings(max_examples=50, deadline=None)
    @given(
        data=st.lists(
            st.tuples(st.floats(-50, 50), st.floats(-50, 50)), min_size=4, max_size=20
        ),
        scale=st.floats(0.1, 10.0),
        shift=st.floats(-100, 100),
    )
    def test_affine_invariance(self, data, scale, shift):
        xs = [d[0] for d in data]
        ys = [d[1] for d in data]
        try:
            base = pearson(xs, ys)
        except ZeroVarianceError:
            return
        moved_xs = [scale * x + shift for x in xs]
        try:
            moved = pearson(moved_xs, ys)
        except ZeroVarianceError:
            # the shift swamped the spread (say 1e-59 + 1): constant up to rounding
            assert max(moved_xs) - min(moved_xs) <= 1e-12 * max(abs(v) for v in moved_xs)
            return
        assert moved == pytest.approx(base, abs=1e-9)

    def test_constant_up_to_rounding(self):
        # 20 values, each within 14 ulps of 1 (an ulp is eps above 1, eps / 2 below)
        eps = np.finfo(float).eps
        values = [1.0 + k * eps for k in range(15)] + [1.0 - k * eps / 2 for k in range(1, 6)]
        with pytest.raises(ZeroVarianceError):
            pearson(values, range(20))
        with pytest.raises(ZeroVarianceError):
            pearson(range(20), [1e30 * v for v in values])

    def test_matches_the_mean_sum_and_clip_formula_bitwise(self):
        # the same double centering and cut through ndarray.mean, np.sum, np.sqrt and np.clip
        def reference(xs, ys):
            x, y = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
            dx = x - x.mean()
            dx -= dx.mean()
            dy = y - y.mean()
            dy -= dy.mean()
            sx, sy = float(np.sqrt(np.sum(dx * dx))), float(np.sqrt(np.sum(dy * dy)))
            cut = 256 * np.finfo(float).eps * math.sqrt(len(x))
            if sx <= cut * float(np.abs(x).max()) or sy <= cut * float(np.abs(y).max()):
                raise ZeroVarianceError("one input list is constant")
            return float(np.clip(np.sum(dx * dy) / (sx * sy), -1.0, 1.0))

        def outcome(fn, xs, ys):
            try:
                r = fn(xs, ys)
            except ZeroVarianceError:
                return "constant"
            assert type(r) is float
            return np.float64(r).tobytes()

        rng = np.random.default_rng(97)
        for _ in range(3000):
            n, scale = int(rng.integers(3, 40)), 10.0 ** rng.uniform(-8, 8)
            xs = scale * (rng.normal(size=n) + rng.normal())
            if rng.random() < 0.3:  # constant, or nearly so
                xs = np.full(n, rng.normal()) + rng.choice([0.0, 1e-14, 1e-12]) * rng.normal(size=n)
            ys = rng.normal(size=n) if rng.random() < 0.8 else -xs + 1e-9 * rng.normal(size=n)
            for a, b in ((xs.tolist(), ys.tolist()), (ys.tolist(), xs.tolist())):
                assert outcome(pearson, a, b) == outcome(reference, a, b), (a, b)


class TestConstantByRoundoff:
    """k_E, k_BA and trace columns within 16 d eps of constant have no r."""

    RATINGS = [float(k % 5 + 1) for k in range(20)]

    def row(self, column, xs, dim):
        scores = {c: list(range(20)) for c in MEASURE_COLUMNS} | {column: xs}
        return experiment._row_from_scores(("inv", "none", "-"), scores, self.RATINGS, 0, dim)

    def test_few_ulp_column_at_dim_300_is_null(self):
        # 1 - sqrt(299/300), as `inv,none,-` k_E1 scores every pure alternative at dim 300, off by a few ulps of 1
        eps = np.finfo(float).eps
        xs = [1.0 - np.sqrt(299 / 300) + (k % 7 - 3) * eps for k in range(20)]
        assert pearson(xs, self.RATINGS) is not None  # the relative cut alone reads noise as a correlation
        for column in ("k_E1", "k_E2", "k_BA", "trace"):
            cells = self.row(column, xs, 300).cells
            assert cells[column].r is None and cells[column].n == 20
            assert cells["k_hyp1"].r is not None

    def test_spread_of_1e_9_is_scored(self):
        xs = [0.5 + 1e-9 * (k % 5) for k in range(20)]
        for column in ("k_E1", "k_E2", "k_BA", "trace"):
            assert self.row(column, xs, 300).cells[column].r == pytest.approx(1.0)

    def test_k_hyp_keeps_the_relative_cut(self):
        eps = np.finfo(float).eps
        xs = [0.5 + (k % 5) * 256 * eps for k in range(20)]  # varies past pearson's cut, within 16 d eps
        for column in ("k_hyp1", "k_hyp2"):
            assert self.row(column, xs, 300).cells[column].r == pytest.approx(1.0)
        assert self.row("k_E1", xs, 300).cells["k_E1"].r is None


@pytest.fixture
def toy_run(fixture_paths):
    vectors = load_vectors(fixture_paths["vectors"])
    hierarchy = load_hierarchy(fixture_paths["hierarchy"])
    lexicon = build_lexicon(vectors, hierarchy.hyponym_sets())
    dataset = load_dataset(fixture_paths["dataset"])
    provider = partial(worldly_context_hierarchy, hierarchy=hierarchy, lexicon=lexicon, fn=WeightFunction(WeightKind.POLY, 2.0))
    return dataset, lexicon, provider


class TestRunGrid:
    def test_toy_fixture_headline_cells(self, toy_run):
        dataset, lexicon, provider = toy_run
        configs = [
            NegationConfig("sub", comp, basis)
            for comp in ("spider", "phaser")
            for basis in ("w", "c")
        ]
        table = run_grid(dataset, lexicon, provider, configs)
        assert table.row("sub", "spider", "w").cells["trace"].r > 0.9
        assert table.row("sub", "phaser", "w").cells["trace"].r > 0.9
        assert table.row("sub", "none", "-").cells["trace"].r < 0.0

    def test_row_collapse_and_count(self, toy_run):
        dataset, lexicon, provider = toy_run
        spec = GridSpec()
        table = run_grid(dataset, lexicon, provider, spec.configs())
        # 2 negations x (3 structural x 2 bases + mult + diag) + 2 baselines
        assert len(table.rows) == 2 * 8 + 2

    def test_skip_policy_counts(self, toy_run, tmp_path):
        dataset, lexicon, provider = toy_run
        extra = tmp_path / "d.tsv"
        extra.write_text(
            HEADER + "apple\torange\t4.5\napple\tfig\t3.2\napple\tmovie\t1.1\nghost\tfig\t2.0\n",
            encoding="utf-8",
        )
        table = run_grid(load_dataset(extra), lexicon, provider, [NegationConfig("sub", "spider", "w")])
        cell = table.row("sub", "spider", "w").cells["trace"]
        assert cell.n == 3 and cell.skipped == 1
        assert cell.n + cell.skipped == table.dataset_size

    def test_all_pairs_skipped_yields_null(self, toy_run, tmp_path):
        _, lexicon, provider = toy_run
        data = tmp_path / "d.tsv"
        data.write_text(HEADER + "ga\tgb\t2.0\ngc\tgd\t2.5\nge\tgf\t3.0\n", encoding="utf-8")
        table = run_grid(load_dataset(data), lexicon, provider, [NegationConfig("sub", "spider", "w")])
        cell = table.row("sub", "spider", "w").cells["trace"]
        assert cell.r is None and cell.n == 0 and cell.skipped == 3

    def test_context_without_lexicon_aborts(self, toy_run):
        # a misbuilt context provider is a configuration error, not a skipped pair
        dataset, lexicon, provider = toy_run
        hyp_without_lexicon = partial(provider, lexicon=None, fn=WeightFunction(WeightKind.HYP, 1.0))
        with pytest.raises(MissingMatrixError):
            run_grid(dataset, lexicon, hyp_without_lexicon, [NegationConfig("sub", "spider", "w")])

    def test_graph_built_around_other_words_aborts(self, toy_run):
        # a graph that does not hold a negated word's every edge would give it a wrong context
        dataset, lexicon, _ = toy_run
        graph = build_entailment_graph(lexicon, ["fig"], "k_E")
        provider = partial(worldly_context_graph, graph=graph, lexicon=lexicon)
        with pytest.raises(UnscoredWordError):
            run_grid(dataset, lexicon, provider, [NegationConfig("sub", "spider", "w")])

    def test_r_values_in_range(self, toy_run):
        dataset, lexicon, provider = toy_run
        table = run_grid(dataset, lexicon, provider, GridSpec().configs())
        for row in table.rows:
            for cell in row.cells.values():
                assert cell.r is None or -1.0 <= cell.r <= 1.0

    def test_parallel_matches_serial(self, toy_run):
        dataset, lexicon, provider = toy_run
        configs = GridSpec().configs()
        serial = run_grid(dataset, lexicon, provider, configs)
        parallel = run_grid(dataset, lexicon, provider, configs, workers=4)
        for row_s, row_p in zip(serial.sorted_rows(), parallel.sorted_rows()):
            assert row_s.key == row_p.key
            for m in MEASURE_COLUMNS:
                assert row_s.cells[m].r == row_p.cells[m].r

    def test_csv_format(self, toy_run, tmp_path):
        dataset, lexicon, provider = toy_run
        out = tmp_path / "results.csv"
        run_grid(dataset, lexicon, provider, [NegationConfig("sub", "spider", "w")]).to_csv(out)
        lines = out.read_text().splitlines()
        assert lines[0] == csv_header()
        assert lines[0].startswith("negation,composition,basis,k_hyp1_r,k_hyp1_n")
        keys = [tuple(line.split(",")[:3]) for line in lines[1:]]
        assert keys == sorted(keys)
        body = lines[1:]
        assert any(",none,-," in line for line in body)
        for line in body:
            for token in line.split(",")[3:]:
                assert token == "null" or float(token) == float(token)


def test_grid_decomposes_each_matrix_once(rng, monkeypatch):
    # Solver counts repeat exactly, so they guard the caches where timings cannot.
    words = [f"w{i}" for i in range(8)]
    lexicon = {w: random_normalized(rng, 5, rank=int(rng.integers(1, 4))) for w in words}
    negated = ("w0", "w1", "w2")
    hierarchy = HypernymHierarchy(paths={w: tuple(words[3 + i : 6 + i]) for i, w in enumerate(negated)})
    records = tuple(
        PlausibilityRecord(n, a, float(rng.uniform(1.0, 5.0)))
        for n in negated
        for a in words
        if a != n
    )
    base = partial(worldly_context_hierarchy, hierarchy=hierarchy, lexicon=lexicon, fn=WeightFunction(WeightKind.POLY, 2.0))
    builds = Counter()

    def provider(word):
        builds[word] += 1
        return base(word)

    solved = []  # keeps every input alive, so ids stay distinct
    real_eigh = np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        solved.append(a)
        return real_eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    table = run_grid(PlausibilityDataset(records), lexicon, provider, GridSpec().configs())
    assert all(cell.skipped == 0 for row in table.rows for cell in row.cells.values())
    # each Dmat owns its matrix array, so one solve per array is one per Dmat
    assert solved and len({id(a) for a in solved}) == len(solved)
    assert builds == {word: 1 for word in negated}


def test_grid_on_words_from_rows_solves_only_unknown_eigenbases(monkeypatch):
    # Every word is built from its unit rows with r < d, so it is decomposed from
    # its Gram matrix.  Negations, spider and fuzz give their outputs'
    # eigenpairs.  So an eigh at size d - 1 or more is only: the validation of
    # a phaser or mult output or a context (`_decomposed`), a spider group
    # rotation, or a fuzz block of size > 1.  Every negated word is a pure leaf,
    # so its `neg_inv` is 0.5·I: spider, fuzz, phaser and mult solve nothing for
    # it, and only `neg_sub`'s rows solve (its eigenvalue 1 repeats d - 1 times).
    rng = np.random.default_rng(5)
    dim = 12
    leaves = {f"c{i}l{j}": f"c{i}" for i in range(2) for j in range(4)}
    paths = {leaf: (parent, "entity") for leaf, parent in leaves.items()} | {"c0": ("entity",), "c1": ("entity",)}
    hierarchy = HypernymHierarchy(paths=paths)
    vectors = VectorTable({w: rng.normal(size=dim) for w in ["entity", "c0", "c1", *leaves]}, dim)
    lexicon = build_lexicon(vectors, hierarchy.hyponym_sets())
    assert max(len(f) for f in lexicon.rows.values()) == dim - 1  # entity's 11 rows
    negated = ("c0l0", "c1l1", "c0l2")
    records = tuple(PlausibilityRecord(n, a, float(rng.uniform(1.0, 5.0))) for n in negated for a in leaves if a != n)
    provider = partial(worldly_context_hierarchy, hierarchy=hierarchy, lexicon=lexicon, fn=WeightFunction(WeightKind.POLY, 2.0))
    sites, sizes = Counter(), defaultdict(set)
    real_eigh = np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        if len(a) >= dim - 1:
            frame, names = sys._getframe(1), []
            while frame is not None:
                names.append(frame.f_code.co_name)
                frame = frame.f_back
            if names[0] == "spectrum" and names[1:3] == ["_validate", "__post_init__"]:
                # a `_decomposed` validation: name the construction that asked for it
                names = [name for name in names if name in ("phaser", "mult", "worldly_context_hierarchy")] or names
            sites[names[0]] += 1
            sizes[names[0]].add(len(a))
        return real_eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    table = run_grid(PlausibilityDataset(records), lexicon, provider, GridSpec().configs())
    assert all(cell.skipped == 0 for row in table.rows for cell in row.cells.values())
    assert set(sites) <= {"mult", "worldly_context_hierarchy", "phaser", "spider", "fuzz"}, sites
    assert sites["mult"] == len(negated) and sites["worldly_context_hierarchy"] == len(negated)
    assert sites["phaser"] == 2 * len(negated)  # neg_sub at both bases
    # neg_sub's repeated 1 at basis w, never a full-size group
    assert sites["spider"] == sites["fuzz"] == len(negated) and sizes["spider"] | sizes["fuzz"] == {dim - 1}, sizes


def make_shuffled_grid(rank=None):
    """Three negated words whose records are shuffled together, one unknown alternative.

    Every word has the given rank, or a random one from 1 to the dim 6.
    """
    rng = np.random.default_rng(7)
    words = [f"w{i}" for i in range(12)]
    lexicon = {w: random_normalized(rng, 6, rank=rank or int(rng.integers(1, 7))) for w in words}
    negated = ("w0", "w1", "w2")
    hierarchy = HypernymHierarchy(paths={w: tuple(words[4 + i : 8 + i]) for i, w in enumerate(negated)})
    pairs = [(n, a) for n in negated for a in words if a != n] + [("w1", "ghost")]
    records = tuple(
        PlausibilityRecord(*pairs[i], float(rng.uniform(1.0, 5.0))) for i in rng.permutation(len(pairs))
    )
    provider = partial(worldly_context_hierarchy, hierarchy=hierarchy, lexicon=lexicon, fn=WeightFunction(WeightKind.POLY, 2.0))
    return PlausibilityDataset(records), lexicon, provider, negated


@pytest.fixture
def shuffled_grid():
    return make_shuffled_grid()


def record_by_record(dataset, lexicon, negate):
    """The per-pair reference: each record in dataset order, scalar measure calls."""
    scores = {column: [] for column in MEASURE_COLUMNS}
    ratings = []
    for record in dataset:
        try:
            negated = negate(record.negated)
            alternative = lexicon[record.alternative]
        except KeyError:
            continue
        for column in MEASURE_COLUMNS:
            measure, direction = (column[:-1], int(column[-1])) if column[-1] in "12" else (column, 1)
            scores[column].append(plausibility(negated, alternative, measure, direction))
        ratings.append(record.mean_rating)
    return [(scores[column], ratings) for column in MEASURE_COLUMNS]


def test_grid_scores_keep_dataset_order(shuffled_grid, monkeypatch):
    dataset, lexicon, provider, _ = shuffled_grid
    seen = []
    real_pearson = experiment.pearson

    def recording_pearson(xs, ys):
        seen.append((list(xs), list(ys)))
        return real_pearson(xs, ys)

    monkeypatch.setattr(experiment, "pearson", recording_pearson)
    table = run_grid(dataset, lexicon, provider, GridSpec().configs())
    expected = []
    for row in table.sorted_rows():
        if row.composition == "none":
            cfg = NegationConfig(row.negation, "spider")
            negate = lambda word: rescale_max_eig(logical_negation(lexicon[word], cfg))
        else:
            cfg = NegationConfig(row.negation, row.composition, "w" if row.basis == "-" else row.basis)
            negate = lambda word: conversational_negate(logical_negation(lexicon[word], cfg), provider(word), cfg)
        expected += record_by_record(dataset, lexicon, negate)
        assert row.cells["trace"].n == len(dataset) - 1 and row.cells["trace"].skipped == 1
    assert seen == expected


def test_grid_scores_each_word_with_one_batch_per_column(monkeypatch):
    # rank-1 words, as the lexicon's leaves are
    dataset, lexicon, provider, _ = make_shuffled_grid(rank=1)
    measure_solves = Counter()

    def counting(real):
        def solve(a, *args, **kwargs):
            measure_solves[sys._getframe(1).f_globals["__name__"]] += 1
            return real(a, *args, **kwargs)

        return solve

    calls = []
    real_plausibility = experiment.plausibility

    def counting_plausibility(negated, alternative, *args):
        calls.append(len(alternative))
        return real_plausibility(negated, alternative, *args)

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counting(getattr(np.linalg, name)))
    monkeypatch.setattr(experiment, "plausibility", counting_plausibility)
    misses = _rank_one_terms.cache_info().misses
    table = run_grid(dataset, lexicon, provider, GridSpec().configs())
    # every negated word, in order of first appearance, scores its pairs under every row in
    # one call per column, and k_E both ways and k_BA share one evaluation of the rank-1
    # terms per word
    alternatives = Counter(record.negated for record in dataset if record.alternative in lexicon)
    assert len(alternatives) == 3 and len(table.rows) == 18
    assert calls == [n * len(table.rows) for n in alternatives.values() for _ in MEASURE_COLUMNS]
    assert _rank_one_terms.cache_info().misses == misses + len(alternatives)
    # k_E both ways and k_BA against a rank-1 word are read off the negation's cached eigenbasis,
    # k_hyp against one is a 1 x 1 problem, and trace similarity needs no solve; the solves
    # are the outputs' and contexts' validations, in `spectral`
    assert measure_solves["convneg.entailment"] == 0
    assert measure_solves["convneg.spectral"] > 0


def test_grid_cells_do_not_depend_on_record_order(shuffled_grid):
    dataset, lexicon, provider, _ = shuffled_grid
    want = run_grid(dataset, lexicon, provider, GridSpec().configs()).sorted_rows()
    rng = np.random.default_rng(73)
    for _ in range(3):
        permuted = PlausibilityDataset(tuple(dataset.records[i] for i in rng.permutation(len(dataset))))
        got = run_grid(permuted, lexicon, provider, GridSpec().configs()).sorted_rows()
        assert [row.key for row in got] == [row.key for row in want]
        for row, expected in zip(got, want):
            for column in MEASURE_COLUMNS:
                cell, reference = row.cells[column], expected.cells[column]
                assert (cell.n, cell.skipped, cell.r is None) == (reference.n, reference.skipped, reference.r is None)
                if cell.r is not None:
                    assert abs(cell.r - reference.r) <= 1e-12, (row.key, column)


def test_grid_negates_each_word_once_per_kind(shuffled_grid, monkeypatch):
    dataset, lexicon, provider, negated = shuffled_grid
    negations = Counter()

    def counting(name, fn):
        def negate(X, *args):
            negations[(name, id(X)) + args] += 1
            return fn(X, *args)

        return negate

    monkeypatch.setattr(pipeline, "neg_sub", counting("sub", pipeline.neg_sub))
    monkeypatch.setattr(pipeline, "neg_inv", counting("inv", pipeline.neg_inv))
    run_grid(dataset, lexicon, provider, GridSpec().configs())
    once = {("sub", id(lexicon[w])): 1 for w in negated} | {("inv", id(lexicon[w]), 0.5): 1 for w in negated}
    assert negations == once


def test_grid_csv_identical_across_worker_counts(shuffled_grid, tmp_path):
    dataset, lexicon, provider, _ = shuffled_grid
    run_grid(dataset, lexicon, provider, GridSpec().configs()).to_csv(tmp_path / "serial.csv")
    run_grid(dataset, lexicon, provider, GridSpec().configs(), workers=2).to_csv(tmp_path / "pool.csv")
    assert (tmp_path / "serial.csv").read_bytes() == (tmp_path / "pool.csv").read_bytes()


@pytest.mark.parametrize("workers", [1, 2])
def test_grid_skips_per_row_when_scored_word_by_word(workers):
    # Every word but "iso" lives in the last 5 coordinates and "iso" on the first, so k_E is
    # 0 both ways between them and the thresholded graph gives "iso" no neighbors: each
    # context row skips all of its pairs, and each baseline row scores them.  The unknown
    # alternative "ghost" is skipped in every row.
    rng = np.random.default_rng(29)
    pad = ((1, 0), (1, 0))
    lexicon = {f"w{i}": Dmat(np.pad(random_normalized(rng, 5, rank=int(rng.integers(1, 4))).matrix, pad)) for i in range(8)}
    lexicon["iso"] = Dmat(np.diag([1.0, 0, 0, 0, 0, 0]))
    negated = ("w0", "iso", "w1")
    pairs = [(n, a) for n in negated for a in ("w2", "w3", "w4", "w5", "w6")] + [("w1", "ghost"), ("iso", "w0")]
    records = tuple(PlausibilityRecord(*pairs[i], float(rng.uniform(1.0, 5.0))) for i in rng.permutation(len(pairs)))
    graph = build_entailment_graph(lexicon, negated, "k_E", threshold=0.05)
    assert graph.neighbors("iso") == () and all(graph.neighbors(w) for w in ("w0", "w1"))
    provider = partial(worldly_context_graph, graph=graph, lexicon=lexicon)
    table = run_grid(PlausibilityDataset(records), lexicon, provider, GridSpec().configs(), workers=workers)
    assert len(table.rows) == 18
    for row in table.rows:
        # 17 pairs: 6 on "iso", skipped by the context rows, and 1 on "ghost", skipped by all
        want = (16, 1) if row.composition == "none" else (10, 7)
        assert {(cell.n, cell.skipped) for cell in row.cells.values()} == {want}, row.key


class TestGridConfig:
    def test_parse_full(self, tmp_path):
        path = write(
            tmp_path,
            "grid.cfg",
            "negations = sub\ncompositions = spider, mult\nbases = w\n"
            "context = hierarchy\ncontext_fn = exp\nx = 10\nsupport_weight = 0.5\n",
        )
        spec = parse_grid_config(path)
        assert [n.value for n in spec.negations] == ["sub"]
        assert [c.value for c in spec.compositions] == ["spider", "mult"]
        assert spec.context_fn == "exp" and spec.x == 10.0

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ParseError):
            parse_grid_config(write(tmp_path, "grid.cfg", "volume = 11\n"))

    def test_configs_deduplicate_collapsed_labels(self, tmp_path):
        spec = GridSpec()
        labels = [cfg.label() for cfg in spec.configs()]
        assert len(labels) == len(set(labels))
        assert ("sub", "mult", "-") in labels

    def test_bundled_grid_file(self, fixture_paths):
        spec = parse_grid_config(fixture_paths["grid"])
        assert spec.context_fn == "poly" and spec.x == 2.0
        assert len(spec.configs()) == 16
