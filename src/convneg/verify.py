"""Randomized verification suites for every module-level invariant.

Each suite draws its seeded random matrices up front as stacks (see
`convneg.sampling`), checks one family of properties per trial through the
public API, and reports trial/failure counts with the worst residual seen.
The suites double as executable statements of the theory: order reversal
under the support inverse, the reversal identity for the signed eigenvalue
ratio on its valid spectra families, and the maximally-mixed-support
composition identity.  The acceptance gate (tests/test_acceptance.py) runs its
randomized criteria through these same suites with pinned seeds.

A note on two fine points the suites make explicit:

* Composing with the eigenbasis of the *other* operand (spider/fuzz/phaser)
  does not preserve the Loewner order in general; the preservation guarantee
  covers the compositions that act in a fixed basis.  The spider
  preservation suite therefore draws structural operands diagonal in the
  computational basis (where spider is exactly the entrywise product), and
  the violation-search suite records that eigenbasis-floating spider shares
  fuzz's counterexamples.

* The reversal identity for the signed eigenvalue ratio under matrix
  inversion holds when the commuting spectra differ with a uniform sign or
  have constant eigenvalue products; free spectra violate it, and the suite
  reports the measured discrepancy for those informationally.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, field
from functools import wraps
from typing import Callable, Mapping, Sequence

import numpy as np

from .composition import COMPOSITIONS
from .context import HypernymHierarchy, WeightFunction, WeightKind, hypernym_weights, worldly_context_hierarchy
from .entailment import _k_hyp_oracle_pairs, k_ba, k_e, k_hyp, trace_similarity
from .experiment import pearson
from .lexicon import VectorTable, build_density_matrix, build_lexicon, load_lexicon, save_lexicon
from .negation import neg_inv, neg_sub, neg_supp
from .sampling import (
    _sym, random_commuting_pair, random_diagonal_ordered_pair, random_invertible_pair, random_nested_support_pair,
    random_normalized, random_ordered_pair, random_orthogonal, random_psd, random_same_support_pair,
)
from .spectral import Dmat, loewner_leq, normalize_max_eig, rescale_max_eig, spectral_decompose, support_projector

DEFAULT_DIMS = tuple(range(2, 11))


@dataclass
class SuiteResult:
    """Accumulates one suite's trials, failures and worst residual."""

    name: str
    trials: int = 0
    failures: int = 0
    worst_residual: float = 0.0
    note: str = ""

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def residual(self, value: float, tol: float) -> None:
        self.trials += 1
        self.worst_residual = max(self.worst_residual, abs(value))
        if abs(value) > tol:
            self.failures += 1

    def check(self, ok: bool) -> None:
        self.trials += 1
        if not ok:
            self.failures += 1
            self.worst_residual = max(self.worst_residual, 1.0)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        text = (
            f"{status}  {self.name}: trials={self.trials} "
            f"failures={self.failures} worst={self.worst_residual:.3e}"
        )
        if self.note:
            text += f"  [{self.note}]"
        return text


@dataclass
class VerifyReport:
    seed: int
    trials: int
    results: list[SuiteResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def render(self) -> str:
        lines = [r.line() for r in self.results]
        total_failures = sum(r.failures for r in self.results)
        verdict = "ALL SUITES PASSED" if self.passed else f"{total_failures} FAILURES"
        lines.append(f"seed={self.seed} trials={self.trials}: {verdict}")
        return "\n".join(lines)


# Every suite, appended by `_suite` as it is defined: the report order, and suite k draws from rng [seed, k].
ALL_SUITES: list[Callable] = []


def _suite(name: str):
    """Make `body(t, rng, dims, comps)` a suite: it fills `SuiteResult(name)` as `t`, drawing `dims`, one per trial."""

    def wrap(body):
        @wraps(body)
        def suite(rng: np.random.Generator, trials: int, dims: Sequence[int], comps) -> SuiteResult:
            t = SuiteResult(name)
            body(t, rng, rng.choice(dims, size=trials).tolist(), comps)
            return t

        ALL_SUITES.append(suite)
        return suite

    return wrap


def _ranks(rng: np.random.Generator, dims: list[int], full: bool = True) -> list[int]:
    """A rank per dim, uniform on 1..dim (on 1..dim - 1 unless `full`)."""
    return rng.integers(1, np.add(dims, int(full))).tolist()


# --------------------------------------------------------------------------
# spectral core
# --------------------------------------------------------------------------

@_suite("spectral reconstruction round-trip")
def suite_spectral_roundtrip(t, rng, dims, comps):
    for m in random_psd(rng, dims, rank=_ranks(rng, dims), repeat_prob=0.3):
        rebuilt = spectral_decompose(m).reconstruct()
        scale = max(1.0, float(np.linalg.norm(m.matrix)))
        t.residual(np.linalg.norm(rebuilt - m.matrix) / scale, 1e-8)


@_suite("eigenvector orthonormality")
def suite_spectral_orthonormal(t, rng, dims, comps):
    for m in random_psd(rng, dims, repeat_prob=0.3):
        v = spectral_decompose(m).eigenvectors
        t.residual(np.linalg.norm(v.T @ v - np.eye(m.dim)), 1e-8)


@_suite("Loewner order: reflexive, antisymmetric, unitary-invariant")
def suite_loewner_order(t, rng, dims, comps):
    for (a, b), q in zip(random_ordered_pair(rng, dims, margin=0.05), random_orthogonal(rng, dims)):
        t.check(loewner_leq(a, a))
        t.check(loewner_leq(a, b))
        # antisymmetry: a strictly below b cannot also dominate it
        if np.linalg.norm(b.matrix - a.matrix) > 1e-6:
            t.check(not loewner_leq(b, a))
        qa = Dmat(q @ a.matrix @ q.T)
        qb = Dmat(q @ b.matrix @ q.T)
        t.check(loewner_leq(qa, qb, tol=1e-8))


@_suite("support projector idempotent")
def suite_support_projector(t, rng, dims, comps):
    for m in random_psd(rng, dims, rank=_ranks(rng, dims)):
        p = support_projector(m).matrix
        t.residual(np.linalg.norm(p @ p - p), 1e-10)


@_suite("normalization caps the top eigenvalue at 1")
def suite_normalization(t, rng, dims, comps):
    for m, scale in zip(random_psd(rng, dims), rng.uniform(0.1, 5.0, size=len(dims)).tolist()):
        top = normalize_max_eig(Dmat(m.matrix * scale)).max_eigenvalue()
        t.check(top <= 1.0 + 1e-9)


# --------------------------------------------------------------------------
# logical negations
# --------------------------------------------------------------------------

@_suite("identity-subtraction negation is an involution")
def suite_neg_sub_involution(t, rng, dims, comps):
    for x in random_normalized(rng, dims):
        t.residual(np.linalg.norm(neg_sub(neg_sub(x)).matrix - x.matrix), 1e-10)


@_suite("double support inverse restores the matrix")
def suite_neg_supp_involution(t, rng, dims, comps):
    for x in random_psd(rng, dims, rank=_ranks(rng, dims)):
        t.residual(np.linalg.norm(neg_supp(neg_supp(x)).matrix - x.matrix), 1e-8)


@_suite("contrapositive under identity-subtraction negation")
def suite_neg_sub_contrapositive(t, rng, dims, comps):
    draws = zip(random_ordered_pair(rng, dims), random_normalized(rng, dims), random_normalized(rng, dims))
    for (a, b), c, d in draws:
        t.check(loewner_leq(neg_sub(b), neg_sub(a), tol=1e-8))
        # the two order checks agree on arbitrary normalized pairs as well
        t.check(loewner_leq(c, d) == loewner_leq(neg_sub(d), neg_sub(c)))


@_suite("signed eigenvalue ratio symmetric under identity-subtraction")
def suite_neg_sub_kba(t, rng, dims, comps):
    for a, b in zip(random_normalized(rng, dims), random_normalized(rng, dims)):
        t.residual(k_ba(neg_sub(b), neg_sub(a)) - k_ba(a, b), 1e-8)


@_suite("negations act through the input eigenspaces")
def suite_negations_preserve_eigenvectors(t, rng, dims, comps):
    ranks = _ranks(rng, dims)
    for x, rank in zip(random_psd(rng, dims, rank=ranks, repeat_prob=0.3), ranks):
        groups = spectral_decompose(x).eigenspaces()
        cut = spectral_decompose(x).support_cut()

        def from_groups(fn):
            return sum(fn(value) * proj for value, proj in groups)

        top = x.max_eigenvalue()
        y_sub = neg_sub(Dmat(x.matrix / max(1.0, top))).matrix
        expect_sub = from_groups(lambda lam: 1.0 - lam / max(1.0, top))
        t.residual(np.linalg.norm(y_sub - expect_sub), 1e-8)

        y_supp = neg_supp(x).matrix
        expect_supp = from_groups(lambda lam: 1.0 / lam if lam > cut else 0.0)
        t.residual(np.linalg.norm(y_supp - expect_supp), 1e-8)

        y_inv = neg_inv(x, 0.5) if rank < x.dim else Dmat(0.5 * y_supp)
        expect_inv = from_groups(lambda lam: 0.5 / lam if lam > cut else 0.5)
        t.residual(np.linalg.norm(y_inv.matrix - expect_inv), 1e-8)


# --------------------------------------------------------------------------
# reversal and flattening identities
# --------------------------------------------------------------------------

@_suite("grading reversed by support inverse (equal rank)")
def suite_khyp_reversal(t, rng, dims, comps):
    """Support inverse reverses the maximal Loewner grading at equal rank."""
    draws = zip(random_invertible_pair(rng, dims), random_same_support_pair(rng, dims, _ranks(rng, dims)))
    for (a, b), (sa, sb) in draws:
        t.residual(k_hyp(a, b) - k_hyp(neg_supp(b), neg_supp(a)), 1e-6)
        t.residual(k_hyp(sa, sb) - k_hyp(neg_supp(sb), neg_supp(sa)), 1e-6)


@_suite("signed ratio reversed by inverse (same eigenbasis)")
def suite_kba_reversal(t, rng, dims, comps):
    """Inversion reverses the signed eigenvalue ratio on its valid families."""
    worst_free = 0.0
    families = np.where(rng.random(len(dims)) < 0.5, "ordered", "constant_product").tolist()
    draws = zip(random_commuting_pair(rng, dims, family=families), random_commuting_pair(rng, dims, family="free"))
    for (a, b), (fa, fb) in draws:
        t.residual(k_ba(neg_supp(b), neg_supp(a)) - k_ba(a, b), 1e-8)
        worst_free = max(worst_free, abs(k_ba(neg_supp(fb), neg_supp(fa)) - k_ba(fa, fb)))
    t.note = f"free-spectra pairs deviate up to {worst_free:.3f}; identity needs sign-uniform or constant-product spectra"


@_suite("support-inverse composition gives the support projector")
def suite_maximally_mixed_support(t, rng, dims, comps):
    """Composing X with its support inverse flattens X onto its support."""
    for x in random_psd(rng, dims, rank=_ranks(rng, dims), repeat_prob=0.2):
        target = support_projector(x).matrix
        inverse = neg_supp(x)
        for name in ("spider", "fuzz", "phaser"):
            got = comps[name](x, inverse).matrix
            t.residual(np.linalg.norm(got - target), 1e-8)


@_suite("mixture-negation composition gives the support projector")
def suite_mixture_support(t, rng, dims, comps):
    """Same flattening with the convex-mixture negation, after rescaling.

    The mixture scales the support part by its support weight, so the raw
    output is weight * projector; dividing by the top eigenvalue recovers the
    projector.  The structural slot is pinned to the negated matrix; the
    operands commute, so the swapped slot agrees (spot-checked below).
    """
    worst_swapped = 0.0
    xs = random_psd(rng, dims, rank=_ranks(rng, dims, full=False))  # a kernel keeps the mixture warning-free
    for x, weight in zip(xs, rng.uniform(0.2, 0.8, size=len(dims)).tolist()):
        target = support_projector(x).matrix
        mixture = neg_inv(x, weight)
        for name in ("spider", "fuzz", "phaser"):
            got = comps[name](x, mixture)
            t.residual(np.linalg.norm(got.matrix / got.max_eigenvalue() - target), 1e-8)
            swapped = comps[name](mixture, x)
            swapped_residual = np.linalg.norm(swapped.matrix / swapped.max_eigenvalue() - target)
            worst_swapped = max(worst_swapped, float(swapped_residual))
    t.note = f"swapped-slot residual {worst_swapped:.3e} (recorded, not asserted)"


# --------------------------------------------------------------------------
# compositions
# --------------------------------------------------------------------------

@_suite("compositions return symmetric PSD outputs")
def suite_compositions_psd(t, rng, dims, comps):
    for a, b in zip(random_psd(rng, dims, rank=_ranks(rng, dims)), random_psd(rng, dims, rank=_ranks(rng, dims))):
        for fn in comps.values():
            out = fn(a, b)
            # solved here: out.eigenvalues are the composition's own claim
            t.residual(max(0.0, -float(np.linalg.eigvalsh(out.matrix)[0])), 1e-9)
            t.residual(np.linalg.norm(out.matrix - out.matrix.T), 1e-9)


@_suite("order preserved by mult, diag, and fixed-basis spider")
def suite_order_preservation(t, rng, dims, comps):
    """mult and diag preserve order on generic pairs; spider on its fixed-basis instance."""
    draws = zip(random_ordered_pair(rng, dims), random_ordered_pair(rng, dims), random_diagonal_ordered_pair(rng, dims))
    for (a1, b1), (a2, b2), (d2, e2) in draws:
        for name in ("mult", "diag"):
            t.check(loewner_leq(comps[name](a1, a2), comps[name](b1, b2), tol=1e-8))
        t.check(loewner_leq(comps["spider"](a1, d2), comps["spider"](b1, e2), tol=1e-8))
    t.note = "floating-basis spider shares fuzz's violations; see the search suite"


def _format_counterexample(a1, b1, a2, b2) -> str:
    def fmt(m):
        return np.array2string(m.matrix, precision=3, separator=",", suppress_small=True).replace("\n", "")

    return f"A1={fmt(a1)} B1={fmt(b1)} A2={fmt(a2)} B2={fmt(b2)}"


@_suite("fuzz and phaser violate order preservation")
def suite_order_violation_search(t, rng, dims, comps):
    """fuzz and phaser must violate order preservation; records a witness each.

    Hunts over dim-3 ordered pairs, mixing generic draws with equal-first-pair
    draws where basis rotation dominates.  Also records (informationally) a
    violation for eigenbasis-floating spider, which coincides with fuzz on
    nondegenerate structural operands.
    """
    budget = max(200, min(10_000, len(dims) * 50))
    found: dict[str, str] = {}
    spider_witness = ""
    for name in ("fuzz", "phaser"):
        witness = None
        for trial in range(budget):
            dim = 3
            if trial % 2:
                b1 = random_normalized(rng, dim)
                a1 = b1
            else:
                a1, b1 = random_ordered_pair(rng, dim)
            a2, b2 = random_ordered_pair(rng, dim)
            lhs = comps[name](a1, a2)
            rhs = comps[name](b1, b2)
            if not loewner_leq(lhs, rhs, tol=1e-9):
                witness = (a1, b1, a2, b2)
                if name == "fuzz" and not spider_witness:
                    if not loewner_leq(comps["spider"](a1, a2), comps["spider"](b1, b2), tol=1e-9):
                        spider_witness = "floating spider violates on the fuzz witness"
                break
        t.check(witness is not None)
        if witness is not None:
            found[name] = _format_counterexample(*witness)
    note_parts = [f"{name}: {text}" for name, text in found.items()]
    if spider_witness:
        note_parts.append(spider_witness)
    t.note = "; ".join(note_parts)


@_suite("spider equals mult for computational-diagonal structure")
def suite_spider_mult_instance(t, rng, dims, comps):
    for a in random_psd(rng, dims):
        values = rng.uniform(0.0, 1.0, size=a.dim)
        if rng.random() < 0.3:
            values[: a.dim // 2 + 1] = values[0]  # repeated diagonal entries
        b = Dmat(np.diag(values))
        t.residual(np.linalg.norm(comps["spider"](a, b).matrix - comps["mult"](a, b).matrix), 1e-9)


@_suite("commuting operands: spider, fuzz, phaser coincide")
def suite_commuting_coincidence(t, rng, dims, comps):
    for q in random_orthogonal(rng, dims):
        dim = len(q)
        a_eigs = rng.uniform(0.0, 1.0, size=dim)
        b_eigs = np.linspace(0.2, 1.0, dim) * rng.uniform(0.9, 1.1)  # distinct spectrum
        a = Dmat(_sym((q * a_eigs) @ q.T))
        b = Dmat(_sym((q * b_eigs) @ q.T))
        expected = _sym((q * (a_eigs * b_eigs)) @ q.T)
        for name in ("spider", "fuzz", "phaser"):
            t.residual(np.linalg.norm(comps[name](a, b).matrix - expected), 1e-9)


# --------------------------------------------------------------------------
# entailment measures
# --------------------------------------------------------------------------

@_suite("pseudo-inverse grading matches the bisection oracle")
def suite_khyp_oracle(t, rng, dims, comps):
    pairs = random_nested_support_pair(rng, dims)
    for (a, b), oracle in zip(pairs, _k_hyp_oracle_pairs(pairs).tolist()):
        t.residual(k_hyp(a, b) - oracle, 1e-6)


@_suite("crisp values when the difference is PSD")
def suite_crisp_measures(t, rng, dims, comps):
    for a, b in random_ordered_pair(rng, dims, margin=0.05):
        t.residual(k_e(a, b) - 1.0, 1e-9)
        t.residual(k_ba(a, b) - 1.0, 1e-9)
        if np.linalg.norm(b.matrix - a.matrix) > 1e-6:
            t.residual(k_ba(b, a) + 1.0, 1e-9)


@_suite("grading scales inversely with the first argument")
def suite_khyp_scaling(t, rng, dims, comps):
    for (a, b), c in zip(random_invertible_pair(rng, dims), rng.uniform(0.2, 5.0, size=len(dims)).tolist()):
        base = k_hyp(a, b)
        t.residual((k_hyp(Dmat(a.matrix * c), b) - base / c) / max(1.0, base), 1e-8)


@_suite("trace similarity: symmetric, scale-free, rotation-invariant")
def suite_trace_similarity(t, rng, dims, comps):
    scales = rng.uniform(0.2, 5.0, size=len(dims)).tolist()
    for (a, b), c, q in zip(random_invertible_pair(rng, dims), scales, random_orthogonal(rng, dims)):
        t.residual(trace_similarity(a, b) - trace_similarity(b, a), 1e-12)
        t.residual(trace_similarity(a, Dmat(a.matrix * c)) - 1.0, 1e-9)
        qa = Dmat(_sym(q @ a.matrix @ q.T))
        qb = Dmat(_sym(q @ b.matrix @ q.T))
        t.residual(trace_similarity(qa, qb) - trace_similarity(a, b), 1e-9)
        value = trace_similarity(a, b)
        t.check(0.0 <= value <= 1.0)


# --------------------------------------------------------------------------
# context, lexicon, pipeline, correlation
# --------------------------------------------------------------------------

@_suite("hypernym weights: non-increasing, sum to one")
def suite_context_weights(t, rng, dims, comps):
    for n, x in zip(rng.integers(2, 9, size=len(dims)).tolist(), rng.uniform(0.0, 6.0, size=len(dims)).tolist()):
        hierarchy = HypernymHierarchy({"w": tuple(f"h{i}" for i in range(n))})
        for kind in (WeightKind.POLY, WeightKind.EXP):
            weights = hypernym_weights(WeightFunction(kind, x), "w", hierarchy)
            t.check(bool(np.all(np.diff(weights) <= 1e-12)))
            if weights.sum() > 0:
                t.residual(weights.sum() - 1.0, 1e-9)


@_suite("worldly context: top eigenvalue one, pure-hypernym reduction")
def suite_context_mixture(t, rng, dims, comps):
    counts = rng.integers(1, 4, size=len(dims)).tolist()
    hypernyms = iter(random_normalized(rng, [d for d, n in zip(dims, counts) for _ in range(n)]))
    for n, q in zip(counts, random_orthogonal(rng, dims)):
        hierarchy = HypernymHierarchy({"w": tuple(f"h{i}" for i in range(n))})
        lexicon = {f"h{i}": next(hypernyms) for i in range(n)}
        out = worldly_context_hierarchy("w", hierarchy, lexicon, WeightFunction(WeightKind.EXP, 5.0))
        t.residual(out.max_eigenvalue() - 1.0, 1e-9)
        # all-equal pure hypernyms collapse to that pure state
        pure = Dmat(np.outer(q[:, 0], q[:, 0]))
        same = {f"h{i}": pure for i in range(n)}
        got = worldly_context_hierarchy("w", hierarchy, same, WeightFunction(WeightKind.EXP, 5.0))
        t.residual(np.linalg.norm(got.matrix - pure.matrix), 1e-9)


@_suite("lexicon: exact top eigenvalue, permutation-invariant, lossless round-trip")
def suite_lexicon_construction(t, rng, dims, comps):
    for _ in range(max(1, len(dims) // 10)):
        dim = int(rng.integers(3, 7))
        words = [f"w{i}" for i in range(int(rng.integers(2, 6)))]
        table = VectorTable(vectors={w: rng.normal(size=dim) for w in words}, dim=dim)
        hyponyms = words[1:]
        built = build_density_matrix(words[0], hyponyms, table)
        t.residual(built.max_eigenvalue() - 1.0, 1e-12)
        shuffled = list(hyponyms)
        rng.shuffle(shuffled)
        again = build_density_matrix(words[0], shuffled, table)
        t.check(bool(np.array_equal(built.matrix, again.matrix)))
        # words[0] is the mixture above, the others pure states
        lexicon = build_lexicon(table, {words[0]: set(hyponyms)})
        handle, path = tempfile.mkstemp(suffix=".lex")
        os.close(handle)
        try:
            save_lexicon(lexicon, path)
            loaded = load_lexicon(path)
            t.residual(max(float(np.max(np.abs(getattr(loaded[w], a) - getattr(lexicon[w], a))))
                           for w in words for a in ("matrix", "eigenvalues")), 0.0)
        finally:
            os.unlink(path)


@_suite("pipeline toy regression and slot-insensitive mult/diag")
def suite_pipeline_toy(t, rng, dims, comps):
    """Deterministic worked example: negate the pure state, apply the toy
    context, and land on the graded mixture of alternatives."""
    apple, orange, fig, movie = (Dmat(np.outer(e, e)) for e in np.eye(4))
    fruit = Dmat(apple.matrix / 2 + orange.matrix / 3 + fig.matrix / 6)
    raw = comps["spider"](neg_sub(apple), fruit)
    t.residual(np.linalg.norm(raw.matrix - (orange.matrix / 3 + fig.matrix / 6)), 1e-9)
    normalized = rescale_max_eig(raw)
    scores = [trace_similarity(normalized, alt) for alt in (orange, fig, movie)]
    t.check(scores[0] > scores[1] > scores[2] == 0.0)
    for a, b in zip(random_normalized(rng, dims), random_normalized(rng, dims)):
        for name in ("mult", "diag"):
            t.check(bool(np.array_equal(comps[name](a, b).matrix, comps[name](b, a).matrix)))


@_suite("correlation invariant under positive affine transforms")
def suite_pearson_affine(t, rng, dims, comps):
    for _ in dims:
        n = int(rng.integers(4, 20))
        xs = rng.normal(size=n)
        ys = rng.normal(size=n)
        scale = float(rng.uniform(0.1, 10.0))
        shift = float(rng.uniform(-100.0, 100.0))
        t.residual(pearson(scale * xs + shift, ys) - pearson(xs, ys), 1e-9)


def verify_theorems(
    seed: int = 0,
    trials: int = 200,
    overrides: Mapping[str, Callable] | None = None,
) -> VerifyReport:
    """Run every suite with seeded randomness and collect a report.

    `overrides` swaps composition implementations by name (used as a negative
    control: a broken phaser must make the composition suites fail).
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    comps = {**COMPOSITIONS, **(overrides or {})}
    report = VerifyReport(seed=seed, trials=trials)
    for index, suite in enumerate(ALL_SUITES):
        rng = np.random.default_rng([seed, index])
        report.results.append(suite(rng, trials, DEFAULT_DIMS, comps))
    return report
