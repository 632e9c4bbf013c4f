"""Evaluation harness: dataset ingestion, the correlation grid, CSV output.

Each grid row is one (negation, composition, basis) combination; each cell
holds the Pearson correlation between a plausibility measure and the human
ratings, with the number of word pairs that contributed.  Pairs whose words
are missing from the lexicon or whose context is unavailable are skipped and
counted, so partial lexicons still produce tables.  A logical-negation-only
baseline row (no context) is emitted per negation.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cache
from typing import Callable, Iterable, Sequence

import numpy as np

from .composition import CompositionKind
from .context import GRAPH_MEASURES, WeightKind
from .errors import (
    DuplicatePairError,
    InsufficientDataError,
    IsolatedWordError,
    ParseError,
    RatingOutOfRangeError,
    UnknownWordError,
    ZeroMatrixError,
    ZeroVarianceError,
)
from .lexicon import lookup_word
from .pipeline import (
    Basis,
    NegationConfig,
    NegationKind,
    conversational_negate,
    logical_negation,
    plausibility,
)
from .spectral import EPS, Dmat, rescale_max_eig

DATASET_HEADER = ("negated", "alternative", "mean_rating")
MEASURE_COLUMNS = ("k_hyp1", "k_hyp2", "k_E1", "k_E2", "k_BA", "trace")
# columns whose every value errs by a bound absolute in d (see `_row_from_scores`)
_ROUNDOFF_BOUNDED = ("k_E1", "k_E2", "k_BA", "trace")
# the order a word's batch scores its columns in: k_E both ways and k_BA first, so the
# word's first call replaces the one-slot rank-1 cache (`entailment._rank_one_terms`)
# and no earlier word's outputs stay alive in it
_BATCH_ORDER = ("k_E1", "k_E2", "k_BA", "k_hyp1", "k_hyp2", "trace")

BASELINE_COMPOSITION = "none"
BASELINE_BASIS = "-"

# Errors that mean "skip this word pair", not "abort the run".
_SKIP_ERRORS = (UnknownWordError, IsolatedWordError, ZeroMatrixError)


@dataclass(frozen=True)
class PlausibilityRecord:
    negated: str
    alternative: str
    mean_rating: float


@dataclass(frozen=True)
class PlausibilityDataset:
    records: tuple[PlausibilityRecord, ...]

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)


def load_dataset(path) -> PlausibilityDataset:
    """Parse the rating TSV: header `negated<TAB>alternative<TAB>mean_rating`."""
    records: list[PlausibilityRecord] = []
    seen: set[tuple[str, str]] = set()
    expected_header = "\t".join(DATASET_HEADER)
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if tuple(header.split("\t")) != DATASET_HEADER:
            raise ParseError(f"expected header {expected_header!r}", 1)
        for lineno, raw in enumerate(fh, start=2):
            line = raw.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ParseError("expected 3 tab-separated fields", lineno)
            negated, alternative = parts[0].strip(), parts[1].strip()
            if not negated or not alternative:
                raise ParseError("empty word field", lineno)
            try:
                rating = float(parts[2])
            except ValueError:
                raise ParseError(f"bad rating {parts[2]!r}", lineno) from None
            if not 1.0 <= rating <= 5.0:
                raise RatingOutOfRangeError(f"rating {rating} outside [1, 5]", lineno)
            pair = (negated, alternative)
            if pair in seen:
                raise DuplicatePairError(f"duplicate pair {pair!r}", lineno)
            seen.add(pair)
            records.append(PlausibilityRecord(negated, alternative, rating))
    return PlausibilityDataset(records=tuple(records))


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Product-moment correlation; needs length >= 3 and variance on both sides.

    A side varies when its root sum of squared deviations exceeds
    256 eps sqrt(n) times its largest magnitude, so the cut scales with the
    values and a column constant up to rounding raises ZeroVarianceError.
    """
    if len(xs) != len(ys):
        raise InsufficientDataError(f"length mismatch {len(xs)} vs {len(ys)}")
    if len(xs) < 3:
        raise InsufficientDataError(f"need at least 3 points, got {len(xs)}")
    n = len(xs)
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    # Centering twice removes the rounding error of the first mean, which is
    # not small next to a tiny spread (values like 1, 1, 1, 1 + 2e-12);
    # np.add.reduce(v) / n is v.mean() in fewer calls, to the bit.
    dx = x - np.add.reduce(x) / n
    dx -= np.add.reduce(dx) / n
    dy = y - np.add.reduce(y) / n
    dy -= np.add.reduce(dy) / n
    sx = math.sqrt(np.add.reduce(dx * dx))
    sy = math.sqrt(np.add.reduce(dy * dy))
    # A spread within rounding of the values' magnitude is constant: the
    # rounding-noise columns of the benchmark grids reach 65 eps sqrt(n) max|x|.
    cut = 256 * EPS * math.sqrt(n)
    if sx <= cut * float(np.abs(x).max()) or sy <= cut * float(np.abs(y).max()):
        raise ZeroVarianceError("one input list is constant")
    return min(max(float(np.add.reduce(dx * dy)) / (sx * sy), -1.0), 1.0)


@dataclass(frozen=True)
class Cell:
    r: float | None
    n: int
    skipped: int


@dataclass(frozen=True)
class ResultRow:
    negation: str
    composition: str
    basis: str
    cells: dict[str, Cell]

    @property
    def key(self) -> tuple[str, str, str]:
        return (self.negation, self.composition, self.basis)


@dataclass
class ResultTable:
    rows: list[ResultRow] = field(default_factory=list)
    dataset_size: int = 0

    def row(self, negation: str, composition: str, basis: str) -> ResultRow:
        for row in self.rows:
            if row.key == (negation, composition, basis):
                return row
        raise KeyError((negation, composition, basis))

    def sorted_rows(self) -> list[ResultRow]:
        return sorted(self.rows, key=lambda r: r.key)

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(csv_header() + "\n")
            for row in self.sorted_rows():
                fh.write(format_csv_row(row) + "\n")

    def render(self, highlight: float | None = None) -> str:
        lines = [csv_header().replace(",", "  ")]
        for row in self.sorted_rows():
            text = format_csv_row(row).replace(",", "  ")
            if highlight is not None:
                top = max(
                    (c.r for c in row.cells.values() if c.r is not None),
                    default=None,
                )
                if top is not None and top >= highlight:
                    text += "  *"
            lines.append(text)
        return "\n".join(lines)


def csv_header() -> str:
    cols = ["negation", "composition", "basis"]
    for m in MEASURE_COLUMNS:
        cols += [f"{m}_r", f"{m}_n"]
    return ",".join(cols)


def format_csv_row(row: ResultRow) -> str:
    cols = [row.negation, row.composition, row.basis]
    for m in MEASURE_COLUMNS:
        cell = row.cells[m]
        cols.append("null" if cell.r is None else f"{cell.r:.4f}")
        cols.append(str(cell.n))
    return ",".join(cols)


def _measure_and_direction(column: str) -> tuple[str, int]:
    if column.endswith(("1", "2")):
        return column[:-1], int(column[-1])
    return column, 1


_Groups = dict[str, tuple[list[int], list[Dmat], list[int]]]


def _group_pairs(dataset: PlausibilityDataset, lexicon) -> _Groups:
    """Group record indices by negated word, in order of first appearance.

    Each word maps to the indices of its records whose alternative is in the
    lexicon, those alternatives, and the indices of the records whose
    alternative is not.
    """
    groups: _Groups = {}
    for index, record in enumerate(dataset):
        indices, alternatives, missing = groups.setdefault(record.negated, ([], [], []))
        try:
            alternatives.append(lookup_word(lexicon, record.alternative))
        except UnknownWordError:
            missing.append(index)
            continue
        indices.append(index)
    return groups


def _row_from_scores(
    label: tuple[str, str, str],
    scores: dict[str, list[float]],
    ratings: list[float],
    skipped: int,
    dim: int,
) -> ResultRow:
    """One grid row: each column's Pearson r against the ratings, or None.

    r is None where `pearson` finds too few points or no variance, and for a
    k_E, k_BA or trace column whose values spread (max − min) by at most
    16·dim·eps: such a column is constant up to roundoff, and its r would
    be noise.  That is the per-value error bound of the rank-1 route and the
    d×d solve (16·d·eps·S over the norm a value divides by, S the operands'
    top eigenvalue) for operands at top eigenvalue 1, as the grid's are: a
    rescaled negation and normalized lexicon words, whose norms are at
    least 1.  k_hyp's roundoff grows with its pair's conditioning, so its
    columns keep `pearson`'s cut, relative to the values.
    """
    cells: dict[str, Cell] = {}
    for column in MEASURE_COLUMNS:
        xs = scores[column]
        try:
            r = pearson(xs, ratings)
        except (InsufficientDataError, ZeroVarianceError):
            r = None
        if column in _ROUNDOFF_BOUNDED and xs and max(xs) - min(xs) <= 16 * dim * EPS:
            r = None
        cells[column] = Cell(r=r, n=len(xs), skipped=skipped)
    return ResultRow(negation=label[0], composition=label[1], basis=label[2], cells=cells)


def run_grid(
    dataset: PlausibilityDataset,
    lexicon,
    context_provider: Callable[[str], Dmat],
    configs: Iterable[NegationConfig],
    out=None,
    workers: int = 1,
) -> ResultTable:
    """Evaluate every config plus one negation-only baseline row per negation.

    One pass over `configs` maps each row label to its config.  The first
    config of a label wins, so mult and diag rows (basis '-') run once, and
    a negation's baseline row (its rescaled logical negation, no context)
    takes that negation's first config.

    The grid is scored one negated word at a time, so the outputs held at
    once are one word's under each row, whatever the number of words.  The
    word is negated under every row label, and all of its (output,
    alternative) pairs are scored in one `plausibility` call per column.
    Its worldly context does not depend on the row, and its logical negation
    depends only on the negation kind and support weight, so each is built
    once per word (with the decomposition it caches).  A row that cannot
    negate the word skips all of its pairs; a missing alternative is skipped
    in every row.  Each row's scores are then put back in dataset order, so
    its correlations sum in the same order as a record-by-record loop would.
    With `workers` > 1 the words are scored on a thread pool.
    """
    groups = _group_pairs(dataset, lexicon)
    dim = next((alternatives[0].dim for _, alternatives, _ in groups.values() if alternatives), 1)
    rows: dict[tuple[str, str, str], tuple[NegationConfig, bool]] = {}
    for cfg in configs:
        rows.setdefault((cfg.negation.value, BASELINE_COMPOSITION, BASELINE_BASIS), (cfg, True))
        rows.setdefault(cfg.label(), (cfg, False))
    labels = sorted(rows)

    def score_word(item) -> dict[tuple[str, str, str], np.ndarray]:
        """The word's (column, alternative) scores under each label that does not skip it."""
        word, (_, alternatives, _) = item
        context, negations = cache(context_provider), {}

        def negation(cfg: NegationConfig) -> Dmat:
            key = (cfg.negation, cfg.support_weight)
            if key not in negations:
                negations[key] = logical_negation(lookup_word(lexicon, word), cfg)
            return negations[key]

        outputs = {}
        for label in labels:
            cfg, baseline = rows[label]
            try:
                if baseline:
                    outputs[label] = rescale_max_eig(negation(cfg))
                else:
                    outputs[label] = conversational_negate(word, cfg, lexicon, context, lambda _: negation(cfg))
            except _SKIP_ERRORS:
                continue
        negated = [output for output in outputs.values() for _ in alternatives]
        batch = {
            column: plausibility(negated, alternatives * len(outputs), *_measure_and_direction(column))
            for column in _BATCH_ORDER
        }
        scores = np.array([batch[column] for column in MEASURE_COLUMNS])
        return dict(zip(outputs, scores.reshape(len(MEASURE_COLUMNS), len(outputs), len(alternatives)).swapaxes(0, 1)))

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            scored = list(pool.map(score_word, groups.items()))
    else:
        scored = map(score_word, groups.items())
    scores = {label: np.empty((len(MEASURE_COLUMNS), len(dataset))) for label in labels}
    kept: dict[tuple[str, str, str], list[int]] = {label: [] for label in labels}
    skipped = dict.fromkeys(labels, 0)
    for (indices, _, missing), by_label in zip(groups.values(), scored):
        for label in labels:
            skipped[label] += len(missing)
            if label in by_label:
                scores[label][:, indices] = by_label[label]
                kept[label] += indices
            else:
                skipped[label] += len(indices)

    def row(label: tuple[str, str, str]) -> ResultRow:
        order = sorted(kept[label])
        columns = dict(zip(MEASURE_COLUMNS, scores[label][:, order].tolist()))
        ratings = [dataset.records[i].mean_rating for i in order]
        return _row_from_scores(label, columns, ratings, skipped[label], dim)

    table = ResultTable(rows=[row(label) for label in labels], dataset_size=len(dataset))
    if out is not None:
        table.to_csv(out)
    return table


@dataclass
class GridSpec:
    """Axes of a grid run, parsed from a flat `key = value` config file."""

    negations: tuple[NegationKind, ...] = (NegationKind.SUB, NegationKind.INV)
    compositions: tuple[CompositionKind, ...] = tuple(CompositionKind)
    bases: tuple[Basis, ...] = (Basis.W, Basis.C)
    support_weight: float = 0.5
    context: str = "hierarchy"
    context_fn: str = "poly"
    x: float = 1.0
    graph_measure: str = "k_E"
    graph_threshold: float = 0.0

    def configs(self) -> list[NegationConfig]:
        out: list[NegationConfig] = []
        seen: set[tuple[str, str, str]] = set()
        for negation in self.negations:
            for composition in self.compositions:
                for basis in self.bases:
                    cfg = NegationConfig(
                        negation=negation,
                        composition=composition,
                        basis=basis,
                        support_weight=self.support_weight,
                    )
                    if cfg.label() not in seen:
                        seen.add(cfg.label())
                        out.append(cfg)
        return out


def _choice(choices):
    def parse(value: str) -> str:
        if value not in choices:
            raise ValueError(f"{value!r} is not one of {', '.join(choices)}")
        return value

    return parse


def _choices(kind):
    one = _choice([k.value for k in kind])

    def parse(value: str) -> tuple:
        tokens = [tok.strip() for tok in value.split(",") if tok.strip()]
        if not tokens:
            raise ValueError("expected at least one value")
        return tuple(kind(one(tok)) for tok in tokens)

    return parse


def _number(lo: float = -math.inf, hi: float = math.inf):
    def parse(value: str) -> float:
        number = float(value)
        if not math.isfinite(number):
            raise ValueError(f"{value!r} is not a finite number")
        if not lo <= number <= hi:
            raise ValueError(f"{value!r} is outside [{lo:g}, {hi:g}]")
        return number

    return parse


CONTEXT_SOURCES = ("hierarchy", "graph")

# config key -> parser of its value; a parser raises ValueError on a bad value
_GRID_KEYS = {
    "negations": _choices(NegationKind),
    "compositions": _choices(CompositionKind),
    "bases": _choices(Basis),
    "support_weight": _number(0.0, 1.0),
    "context": _choice(CONTEXT_SOURCES),
    "context_fn": _choice([k.value for k in WeightKind]),
    "x": _number(0.0),
    "graph_measure": _choice(GRAPH_MEASURES),
    "graph_threshold": _number(),
}


def parse_grid_config(path) -> GridSpec:
    """Parse `key = value` lines; lists are comma-separated; `#` comments.

    Every key and value is checked here, so a bad config fails before any
    other input loads, with a `ParseError` naming the offending line.
    """
    spec = GridSpec()
    first_line: dict[str, int] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ParseError("expected `key = value`", lineno)
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in _GRID_KEYS:
                raise ParseError(f"unknown config key {key!r}", lineno)
            if key in first_line:
                raise ParseError(f"duplicate key {key!r}, first set on line {first_line[key]}", lineno)
            first_line[key] = lineno
            try:
                setattr(spec, key, _GRID_KEYS[key](value.strip()))
            except ValueError as exc:
                raise ParseError(f"{key}: {exc}", lineno) from None
    return spec
