"""Worldly-context construction.

Two sources: an ordered hypernym hierarchy (weighted mixture of hypernym
matrices, weights decreasing with distance) and a graded-entailment graph
(weighted mixture over graph neighbors).  Both outputs are rescaled so the
largest eigenvalue is exactly 1.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from enum import Enum
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .errors import (
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
from . import entailment
from .lexicon import lookup_word
from .spectral import Dmat, _decomposed, rescale_max_eig

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class HypernymHierarchy:
    """Ordered hypernym paths, nearest hypernym first."""

    paths: Mapping[str, tuple[str, ...]]

    def __contains__(self, word: str) -> bool:
        return word in self.paths

    def hypernyms(self, word: str) -> tuple[str, ...]:
        try:
            return self.paths[word]
        except KeyError:
            raise UnknownWordError(f"{word!r} has no hypernym path") from None

    def hyponym_sets(self) -> dict[str, set[str]]:
        """Invert the paths: for each hypernym, the set of words listing it."""
        out: dict[str, set[str]] = {}
        for word, path in self.paths.items():
            for h in path:
                out.setdefault(h, set()).add(word)
        return out


class WeightKind(str, Enum):
    POLY = "poly"
    EXP = "exp"
    HYP = "hyp"


@dataclass(frozen=True)
class WeightFunction:
    """Hypernym weight family with its finite, non-negative shape parameter."""

    kind: WeightKind
    x: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "kind", WeightKind(self.kind))
        if not (math.isfinite(self.x) and self.x >= 0):
            raise WeightOutOfRangeError(f"weight parameter must be finite and non-negative, got {self.x}")


def load_hierarchy(path) -> HypernymHierarchy:
    """Parse a hierarchy file: `word<TAB>h1,h2,...,hn`, `#` comments ignored."""
    paths: dict[str, tuple[str, ...]] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ParseError("expected `word<TAB>h1,h2,...`", lineno)
            word, tail = parts[0].strip(), parts[1].strip()
            if not word:
                raise ParseError("empty word", lineno)
            hypernyms = tuple(h.strip() for h in tail.split(","))
            if not tail or any(not h for h in hypernyms):
                raise ParseError("empty hypernym list or blank entry", lineno)
            if word in hypernyms:
                raise SelfReferenceError(f"{word!r} appears in its own hypernym list", lineno)
            repeated = next((h for i, h in enumerate(hypernyms) if h in hypernyms[:i]), None)
            if repeated is not None:
                raise DuplicateWordError(f"{repeated!r} repeats in the hypernym list of {word!r}", lineno)
            if word in paths:
                raise DuplicateWordError(f"duplicate record for {word!r}", lineno)
            paths[word] = hypernyms
    return HypernymHierarchy(paths=paths)


def hypernym_weights(fn: WeightFunction, word: str, hierarchy: HypernymHierarchy, lexicon=None) -> np.ndarray:
    """Weights p_1..p_n over a word's hypernym path, rescaled to sum 1.

    poly: (n - i)^x.  exp: (1 + x/10)^(n - i).  hyp: (n - i)^(x/2) scaled by
    the graded entailment from the word to each hypernym (needs the lexicon).
    A path whose weights all vanish is returned as zeros; callers treat that
    as an empty context.  Weights that overflow raise WeightOutOfRangeError.
    """
    path = hierarchy.hypernyms(word)
    n = len(path)
    i = np.arange(1, n + 1, dtype=float)
    if fn.kind is WeightKind.POLY:
        raw = (n - i) ** fn.x
    elif fn.kind is WeightKind.EXP:
        raw = (1.0 + fn.x / 10.0) ** (n - i)
    else:
        if lexicon is None:
            raise MissingMatrixError("hyp weights need a lexicon")
        graded = entailment.k_e(lookup_word(lexicon, word), [lookup_word(lexicon, h) for h in path])
        # a scalar power per weight: numpy's SIMD array power can round an ulp away from it
        raw = np.array([k ** (fn.x / 2.0) for k in n - i]) * graded
    total = float(raw.sum())
    if not math.isfinite(total):
        raise WeightOutOfRangeError(f"{fn.kind.value} weights with x = {fn.x} overflow on the path of {word!r}")
    if total <= 0.0:
        return np.zeros(n)
    return raw / total


def worldly_context_hierarchy(
    word: str,
    hierarchy: HypernymHierarchy,
    lexicon,
    fn: WeightFunction,
) -> Dmat:
    """Weighted mixture of hypernym matrices, rescaled to top eigenvalue 1."""
    path = hierarchy.hypernyms(word)
    weights = hypernym_weights(fn, word, hierarchy, lexicon)
    if not np.any(weights > 0.0):
        raise ZeroMatrixError(f"all hypernym weights vanish for {word!r}")
    dim = lookup_word(lexicon, path[0]).dim
    mix = np.zeros((dim, dim))
    for w, h in zip(weights, path):
        if w > 0.0:
            mix += w * lookup_word(lexicon, h).matrix
    return rescale_max_eig(_decomposed(mix))


@dataclass(frozen=True)
class EntailmentGraph:
    """Directed weighted entailment edges; absent edges weigh 0.

    Immutable: `edges` is a read-only copy of the mapping it is given, and
    every word's neighbors (the sorted union of its in- and out-neighbors)
    are indexed once at construction.  Every weight must be finite and
    non-negative, and no word may have an edge to itself.

    `scored` names the words whose every pair was scored, the only words
    whose neighbors the graph knows in full.  `build_entailment_graph`
    always sets it; None, which means every word, is only for a graph given
    its edges outright by hand.
    """

    edges: Mapping[tuple[str, str], float] = field(default_factory=dict)
    scored: frozenset[str] | None = None
    _neighbors: Mapping[str, tuple[str, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        adjacent: dict[str, set[str]] = {}
        for (u, v), w in self.edges.items():
            if u == v:
                raise SelfReferenceError(f"self-loop on {u!r}")
            if not 0.0 <= w < math.inf:
                raise WeightOutOfRangeError(f"edge {u!r} -> {v!r} has weight {w}, not finite and >= 0")
            adjacent.setdefault(u, set()).add(v)
            adjacent.setdefault(v, set()).add(u)
        object.__setattr__(self, "edges", MappingProxyType(dict(self.edges)))
        object.__setattr__(self, "_neighbors", {w: tuple(sorted(ns)) for w, ns in adjacent.items()})

    def weight(self, u: str, v: str) -> float:
        return self.edges.get((u, v), 0.0)

    def neighbors(self, word: str) -> tuple[str, ...]:
        """The word's neighbors; UnscoredWordError for a word outside `scored`, whose list may be partial."""
        if self.scored is not None and word not in self.scored:
            raise UnscoredWordError(
                f"the entailment graph was not built around {word!r}, so its neighbors may be partial"
            )
        return self._neighbors.get(word, ())

    def __len__(self) -> int:
        return len(self.edges)


# the `entailment.MEASURES` a graph may be scored by
GRAPH_MEASURES = ("k_E", "k_hyp")


def build_entailment_graph(lexicon, words, measure: str = "k_E", threshold: float = 0.0) -> EntailmentGraph:
    """Graded entailment, both ways, between each of `words` and every other lexicon word; weak edges dropped.

    Only the edges incident to `words` are scored, so the graph knows the
    neighbors of those words alone (`EntailmentGraph.scored`).  With k of
    the n lexicon words in `words`, that is k(n - 1) - k(k - 1)/2 unordered
    pairs, against n(n - 1)/2 for every word.  A word of `words` that is not
    in the lexicon has no edges.

    Each source word s is scored by two calls of its measure
    (`entailment.MEASURES`), score(M_s, others) and score(others, M_s), with
    `others` the other n - 1 lexicon words, so every edge is the scalar
    measure's value bit for bit, and a bad lexicon word raises as those
    calls do.  With no source word in the lexicon nothing is scored or
    checked.  Edges are inserted in sorted (u, v) order; non-finite scores
    and scores below `threshold` are dropped.  One DEBUG line on this
    module's logger counts the words, the pairs scored and the edges kept.
    """
    if measure not in GRAPH_MEASURES:
        raise ValueError(f"graph measure must be one of {sorted(GRAPH_MEASURES)}")
    score = entailment.MEASURES[measure]
    scored = frozenset(words)
    lexicon_words = sorted(lexicon)
    n = len(lexicon_words)
    sources = [i for i, w in enumerate(lexicon_words) if w in scored]
    weights = np.full((n, n), np.nan)
    if sources:
        mats = [lookup_word(lexicon, w) for w in lexicon_words]
        for i in sources:
            others, rest = mats[:i] + mats[i + 1 :], np.arange(n) != i
            weights[i, rest] = score(mats[i], others)
            weights[rest, i] = score(others, mats[i])
    keep = np.isfinite(weights) & (weights >= threshold)
    rows, cols = np.nonzero(keep)
    edges = {
        (lexicon_words[i], lexicon_words[j]): w
        for i, j, w in zip(rows.tolist(), cols.tolist(), weights[keep].tolist())
    }
    graph = EntailmentGraph(edges=edges, scored=scored)
    k = len(sources)
    logger.debug("%s graph over %d words around %d source words: %d of %d word pairs scored, %d edges kept",
                 measure, n, k, k * (n - 1) - k * (k - 1) // 2, n * (n - 1) // 2, len(graph))
    return graph


def worldly_context_graph(word: str, graph: EntailmentGraph, lexicon) -> Dmat:
    """Mixture over graph neighbors weighted by the word's outgoing edges.

    A neighbor weighs how much the word entails it; a neighbor joined only by
    an incoming edge weighs 0.
    """
    neighbors = graph.neighbors(word)
    if not neighbors:
        raise IsolatedWordError(f"{word!r} has no neighbors in the entailment graph")
    dim = lookup_word(lexicon, neighbors[0]).dim
    mix = np.zeros((dim, dim))
    total = 0.0
    for h in neighbors:
        w = graph.weight(word, h)
        if w > 0.0:
            mix += w * lookup_word(lexicon, h).matrix
            total += w
    if total <= 0.0:
        raise ZeroMatrixError(f"all outgoing weights vanish for {word!r}")
    return rescale_max_eig(_decomposed(mix))

