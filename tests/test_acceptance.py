"""Acceptance gate: one test per criterion, each printing a PASS line.

Tolerances are pinned here and nowhere else.  Criterion 9 (directional
full-data targets) lives in tests/test_full_data.py because it needs real
inputs supplied through environment variables; it is skipped when absent.

Two suites deserve a note on their sampling domains, mirroring the verify
module:

* The order-preservation criterion exercises spider on structural operands
  diagonal in the computational basis.  That is the instance the cited
  preservation result covers (spider in a fixed basis is the entrywise
  product); the eigenbasis-floating form provably shares fuzz's violations
  and is exhibited by the counterexample search alongside fuzz and phaser.

* The inversion-reversal criterion for the signed eigenvalue ratio draws
  commuting invertible pairs from the families where the identity holds
  (sign-uniform differences and constant eigenvalue products); free spectra
  violate it, which the verify module reports informationally.
"""

import time
from functools import partial

import numpy as np
import pytest

from convneg.cli import main
from convneg.composition import diag_comp, fuzz, mult, phaser, spider
from convneg.context import WeightFunction, WeightKind, load_hierarchy, worldly_context_hierarchy
from convneg.entailment import k_ba, k_hyp, k_hyp_oracle
from convneg.experiment import load_dataset, parse_grid_config, run_grid
from convneg.lexicon import build_lexicon, load_vectors
from convneg.negation import neg_inv, neg_sub, neg_supp
from convneg.sampling import (
    random_commuting_pair,
    random_diagonal_ordered_pair,
    random_invertible_pair,
    random_nested_support_pair,
    random_normalized,
    random_ordered_pair,
    random_psd,
    random_same_support_pair,
)
from convneg.spectral import loewner_leq, support_projector


def report(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number:02d} PASS: {text}")


def test_criterion_01_worked_toy_regression(onb, fruit_raw):
    """Negating the pure state and composing with the toy context via spider
    reproduces the one-third / one-sixth mixture before normalization."""
    start = time.perf_counter()
    negated = neg_sub(onb["apple"])
    out = spider(negated, fruit_raw)
    expected = onb["orange"].matrix / 3.0 + onb["fig"].matrix / 6.0
    assert np.max(np.abs(out.matrix - expected)) <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, f"toy spider regression exact to 1e-9 in {elapsed:.3f}s")


def test_criterion_02_support_flattening():
    """spider/fuzz/phaser of X with its support inverse give the support
    projector; the convex-mixture negation agrees after rescaling."""
    start = time.perf_counter()
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(200):
        dim = int(rng.integers(2, 9))
        rank = int(rng.integers(1, dim + 1))
        x = random_psd(rng, dim, rank=rank, repeat_prob=0.2)
        target = support_projector(x).matrix
        inverse = neg_supp(x)
        for comp in (spider, fuzz, phaser):
            worst = max(worst, float(np.linalg.norm(comp(x, inverse).matrix - target)))
        if rank < dim:
            mixture = neg_inv(x, 0.5)
            for comp in (spider, fuzz, phaser):
                got = comp(x, mixture).matrix
                got = got / np.linalg.eigvalsh(got)[-1]
                worst = max(worst, float(np.linalg.norm(got - target)))
    assert worst <= 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(2, f"200 support-flattening draws, worst residual {worst:.2e} in {elapsed:.1f}s")


def test_criterion_03_grading_reversed_by_support_inverse():
    """Maximal Loewner grading is reversed by the support inverse for
    invertible pairs and same-support singular pairs."""
    start = time.perf_counter()
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(200):
        dim = int(rng.integers(2, 9))
        a, b = random_invertible_pair(rng, dim)
        worst = max(worst, abs(k_hyp(a, b) - k_hyp(neg_supp(b), neg_supp(a))))
        rank = int(rng.integers(1, dim + 1))
        sa, sb = random_same_support_pair(rng, dim, rank)
        worst = max(worst, abs(k_hyp(sa, sb) - k_hyp(neg_supp(sb), neg_supp(sa))))
    assert worst <= 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(3, f"grading reversal on 200+200 pairs, worst |diff| {worst:.2e} in {elapsed:.1f}s")


def test_criterion_04_signed_ratio_reversed_by_inverse():
    """Signed eigenvalue ratio is reversed by inversion for commuting
    invertible pairs drawn from the identity's valid spectra families."""
    rng = np.random.default_rng(4)
    worst = 0.0
    for trial in range(200):
        dim = int(rng.integers(2, 9))
        family = "ordered" if trial % 2 else "constant_product"
        a, b = random_commuting_pair(rng, dim, family=family)
        worst = max(worst, abs(k_ba(neg_supp(b), neg_supp(a)) - k_ba(a, b)))
    assert worst <= 1e-8
    report(4, f"signed-ratio reversal on 200 commuting pairs, worst |diff| {worst:.2e}")


def test_criterion_05_grading_formula_matches_oracle(onb, fruit_raw):
    """The pseudo-inverse grading equals the bisection oracle whenever the
    first support sits inside the second, including the toy value 1/2."""
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(200):
        dim = int(rng.integers(2, 8))
        a, b = random_nested_support_pair(rng, dim)
        worst = max(worst, abs(k_hyp(a, b) - k_hyp_oracle(a, b)))
    assert worst <= 1e-6
    toy = k_hyp(onb["apple"], fruit_raw)
    assert toy == pytest.approx(0.5, abs=1e-9)
    assert abs(toy - k_hyp_oracle(onb["apple"], fruit_raw)) <= 1e-6
    report(5, f"formula/oracle agreement on 200 nested pairs, worst |diff| {worst:.2e}; toy value 1/2")


def test_criterion_06_order_preservation_and_violations():
    """mult, diag, and fixed-basis spider preserve the crisp order on 500
    ordered pairs; the search exhibits counterexamples for fuzz and phaser
    (and for eigenbasis-floating spider, recorded alongside them)."""
    rng = np.random.default_rng(6)
    for _ in range(500):
        dim = int(rng.integers(2, 5))
        a1, b1 = random_ordered_pair(rng, dim)
        a2, b2 = random_ordered_pair(rng, dim)
        assert loewner_leq(mult(a1, a2), mult(b1, b2), tol=1e-8)
        assert loewner_leq(diag_comp(a1, a2), diag_comp(b1, b2), tol=1e-8)
        d2, e2 = random_diagonal_ordered_pair(rng, dim)
        assert loewner_leq(spider(a1, d2), spider(b1, e2), tol=1e-8)

    witnesses: dict[str, tuple] = {}
    for name, comp in (("fuzz", fuzz), ("phaser", phaser), ("spider-floating", spider)):
        for trial in range(10_000):
            if trial % 2:
                b1 = random_normalized(rng, 3)
                a1 = b1
            else:
                a1, b1 = random_ordered_pair(rng, 3)
            a2, b2 = random_ordered_pair(rng, 3)
            if not loewner_leq(comp(a1, a2), comp(b1, b2), tol=1e-9):
                witnesses[name] = (trial + 1, a1, b1, a2, b2)
                break
        assert name in witnesses, f"no counterexample found for {name} in 10000 trials"
    for name, (trials_used, a1, b1, a2, b2) in witnesses.items():
        print(f"  {name} violates order preservation (found at trial {trials_used}):")
        print(f"    A1={np.round(a1.matrix, 4).tolist()} B1={np.round(b1.matrix, 4).tolist()}")
        print(f"    A2={np.round(a2.matrix, 4).tolist()} B2={np.round(b2.matrix, 4).tolist()}")
    report(6, "order preserved (mult, diag, fixed-basis spider); counterexamples recorded for fuzz/phaser")


def test_criterion_07_identity_subtraction_properties():
    """Involution, crisp contrapositive, and signed-ratio symmetry for the
    identity-subtraction negation."""
    rng = np.random.default_rng(7)
    worst_inv = 0.0
    worst_kba = 0.0
    for _ in range(500):
        dim = int(rng.integers(2, 7))
        x = random_normalized(rng, dim)
        worst_inv = max(worst_inv, float(np.linalg.norm(neg_sub(neg_sub(x)).matrix - x.matrix)))
        a, b = random_ordered_pair(rng, dim)
        assert loewner_leq(neg_sub(b), neg_sub(a), tol=1e-8)
        c, d = random_normalized(rng, dim), random_normalized(rng, dim)
        assert loewner_leq(c, d) == loewner_leq(neg_sub(d), neg_sub(c))
        worst_kba = max(worst_kba, abs(k_ba(neg_sub(d), neg_sub(c)) - k_ba(c, d)))
    assert worst_inv <= 1e-10
    assert worst_kba <= 1e-8
    report(7, f"involution worst {worst_inv:.2e}, contrapositive on 500 pairs, ratio symmetry worst {worst_kba:.2e}")


def test_criterion_08_pipeline_sign_check(fixture_paths):
    """Full conversational negation correlates with the toy ratings while the
    logical-negation-only baseline anticorrelates."""
    start = time.perf_counter()
    vectors = load_vectors(fixture_paths["vectors"])
    hierarchy = load_hierarchy(fixture_paths["hierarchy"])
    lexicon = build_lexicon(vectors, hierarchy.hyponym_sets())
    dataset = load_dataset(fixture_paths["dataset"])
    spec = parse_grid_config(fixture_paths["grid"])
    provider = partial(
        worldly_context_hierarchy, hierarchy=hierarchy, lexicon=lexicon, fn=WeightFunction(WeightKind(spec.context_fn), spec.x)
    )
    table = run_grid(dataset, lexicon, provider, spec.configs())
    r_spider = table.row("sub", "spider", "w").cells["trace"].r
    r_phaser = table.row("sub", "phaser", "w").cells["trace"].r
    r_baseline = table.row("sub", "none", "-").cells["trace"].r
    assert r_spider is not None and r_spider > 0.9
    assert r_phaser is not None and r_phaser > 0.9
    assert r_baseline is not None and r_baseline < 0.0
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(
        8,
        f"pipeline r(spider)={r_spider:.3f}, r(phaser)={r_phaser:.3f}, "
        f"baseline r={r_baseline:.3f} in {elapsed:.1f}s",
    )


def test_criterion_10_verify_subcommand():
    """The verify CLI at seed 0 / 200 trials exits 0 well inside a minute."""
    start = time.perf_counter()
    code = main(["verify", "--seed", "0", "--trials", "200"])
    elapsed = time.perf_counter() - start
    assert code == 0
    assert elapsed < 60.0
    report(10, f"verify --seed 0 --trials 200 exited 0 in {elapsed:.1f}s")
