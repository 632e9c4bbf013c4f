"""Best-effort full-data reproduction (criterion 9).

Needs real inputs supplied through environment variables:

    CONVNEG_VECTORS    50-dim vector file (`word v1 ... v50` per line)
    CONVNEG_HIERARCHY  hypernym paths (`word<TAB>h1,h2,...`)
    CONVNEG_DATASET    rating TSV (`negated<TAB>alternative<TAB>mean_rating`)

Skipped when the data is absent.  The density-matrix construction recipe is
a declared stand-in (the exact upstream recipe is under-specified), so the
targets are directional rather than value-exact and the test is tolerated
as an expected failure in CI.
"""

import os
import time
from functools import partial

import pytest

from convneg.context import WeightFunction, WeightKind, load_hierarchy, worldly_context_hierarchy
from convneg.experiment import load_dataset, run_grid
from convneg.lexicon import build_lexicon, load_vectors
from convneg.pipeline import NegationConfig

REQUIRED = ("CONVNEG_VECTORS", "CONVNEG_HIERARCHY", "CONVNEG_DATASET")


@pytest.mark.skipif(
    any(not os.environ.get(var) for var in REQUIRED),
    reason="full-data inputs not provided via CONVNEG_* environment variables",
)
@pytest.mark.xfail(strict=False, reason="construction recipe is a stand-in; targets are directional")
def test_full_data_directional_targets():
    start = time.perf_counter()
    vectors = load_vectors(os.environ["CONVNEG_VECTORS"])
    hierarchy = load_hierarchy(os.environ["CONVNEG_HIERARCHY"])
    lexicon = build_lexicon(vectors, hierarchy.hyponym_sets())
    dataset = load_dataset(os.environ["CONVNEG_DATASET"])

    provider = partial(worldly_context_hierarchy, hierarchy=hierarchy, lexicon=lexicon, fn=WeightFunction(WeightKind.POLY, 2.0))
    configs = [
        NegationConfig("sub", comp, basis)
        for comp in ("spider", "fuzz", "phaser", "mult", "diag")
        for basis in ("w", "c")
    ]
    table = run_grid(dataset, lexicon, provider, configs, workers=4)

    best = table.row("sub", "phaser", "w")
    assert best.cells["trace"].r is not None and best.cells["trace"].r >= 0.5
    assert best.cells["k_E2"].r is not None and best.cells["k_E2"].r >= 0.45
    for composition in ("mult", "diag"):
        row = table.row("sub", composition, "-")
        for cell in row.cells.values():
            assert cell.r is None or cell.r < 0.3
    assert time.perf_counter() - start < 1800.0
