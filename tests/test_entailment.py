import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convneg import entailment
from convneg.entailment import (
    _k_hyp_oracle_pairs,
    _rank_one_terms,
    _solve,
    k_ba,
    k_ba_from_spectra,
    k_e,
    k_e_from_spectra,
    k_hyp,
    k_hyp_clamped,
    k_hyp_oracle,
    spectrum_norms,
    trace_similarity,
)
from convneg.errors import DimensionMismatchError, ZeroMatrixError
from convneg.sampling import (
    random_invertible_pair,
    random_nested_support_pair,
    random_ordered_pair,
    random_orthogonal,
    random_psd,
)
from convneg.spectral import EPS, Dmat, _roundoff_rank, spectral_decompose

from conftest import from_diagonal, identity

APPLE = from_diagonal([1.0, 0.0, 0.0, 0.0])
FRUIT = from_diagonal([0.5, 1 / 3, 1 / 6, 0.0])

# trace(apple * fruit) / (|apple| * |fruit|) with |fruit| = sqrt(7/18)
APPLE_FRUIT_TRACE_SIM = 0.8017837257372732


class TestKHyp:
    def test_apple_entails_fruit_at_half(self):
        assert k_hyp(APPLE, FRUIT) == pytest.approx(0.5, abs=1e-12)

    def test_self_entailment_is_one(self, rng):
        for _ in range(10):
            a = random_psd(rng, 4, rank=3)
            assert k_hyp(a, a) == pytest.approx(1.0, abs=1e-9)

    def test_reverse_direction_raw_value(self):
        # support violated: the raw generalized value is 2, the true max-k is 0
        assert k_hyp(FRUIT, APPLE) == pytest.approx(2.0, abs=1e-12)
        assert k_hyp_oracle(FRUIT, APPLE) == pytest.approx(0.0, abs=1e-6)

    def test_orthogonal_supports_unconstrained(self):
        a = from_diagonal([0.0, 1.0])
        b = from_diagonal([1.0, 0.0])
        assert math.isinf(k_hyp(a, b))
        assert k_hyp_clamped(a, b) == 1.0

    def test_zero_matrix_rejected(self):
        with pytest.raises(ZeroMatrixError):
            k_hyp(Dmat(np.zeros((2, 2))), identity(2))

    def test_scale_covariance(self, rng):
        for _ in range(20):
            a, b = random_invertible_pair(rng, 4)
            c = rng.uniform(0.2, 5.0)
            assert k_hyp(Dmat(a.matrix * c), b) == pytest.approx(k_hyp(a, b) / c, rel=1e-8)


class TestKHypOracle:
    def test_apple_fruit(self):
        assert k_hyp_oracle(APPLE, FRUIT) == pytest.approx(0.5, abs=1e-6)

    def test_identical(self, rng):
        a = random_psd(rng, 3)
        assert k_hyp_oracle(a, a) == pytest.approx(1.0, abs=1e-6)

    def test_pairs_bisected_at_once_match_a_scalar_loop_bitwise(self, rng):
        def bisect(A, B, tol=1e-9):
            eigs_a = np.linalg.eigvalsh(A.matrix)
            lo, hi = 0.0, float(np.linalg.eigvalsh(B.matrix)[-1]) / float(eigs_a[eigs_a > tol].min()) + 1.0
            psd_at = lambda k: float(np.linalg.eigvalsh(B.matrix - k * A.matrix)[0]) >= -tol
            if not psd_at(lo):
                return 0.0
            for _ in range(60):
                mid = (lo + hi) / 2.0
                lo, hi = (mid, hi) if psd_at(mid) else (lo, mid)
            return lo

        pairs = random_nested_support_pair(rng, rng.integers(2, 9, size=40).tolist())
        pairs.append((FRUIT, APPLE))  # k = 0: A leaves B's support
        got = _k_hyp_oracle_pairs(pairs)
        assert got.tobytes() == np.array([bisect(a, b) for a, b in pairs]).tobytes()
        assert got[-1] == pytest.approx(0.0, abs=1e-6)

    def test_pairs_raise_what_the_first_failing_pair_raises(self):
        zero = Dmat(np.zeros((2, 2)))
        with pytest.raises(ZeroMatrixError):
            _k_hyp_oracle_pairs([(APPLE, FRUIT), (zero, identity(2)), (APPLE, identity(2))])
        with pytest.raises(DimensionMismatchError):
            _k_hyp_oracle_pairs([(APPLE, identity(2)), (zero, identity(2))])


class TestKBA:
    def test_apple_fruit_balances_to_zero(self):
        assert k_ba(APPLE, FRUIT) == pytest.approx(0.0, abs=1e-12)

    def test_psd_difference_gives_one(self):
        assert k_ba(from_diagonal([0.5, 0.0]), from_diagonal([1.0, 0.5])) == 1.0

    def test_self_comparison_convention(self, rng):
        a = random_psd(rng, 3)
        assert k_ba(a, a) == 1.0

    def test_equal_and_zero_pairs_give_one(self):
        zero = Dmat(np.zeros((3, 3)))
        tiny = Dmat(1e-300 * np.eye(3))
        assert k_ba(zero, zero) == k_ba(tiny, Dmat(tiny.matrix.copy())) == k_ba(APPLE, Dmat(APPLE.matrix.copy())) == 1.0

    @pytest.mark.parametrize("s", [1.0, 1e-15])
    def test_pairs_equal_up_to_rounding_give_one(self, rng, s):
        # A against V Λ Vᵀ from A's own decomposition: each of B - A's 50
        # eigenvalues is within roundoff of A's top, and their absolute sum
        # passes one eigenvalue's roundoff (4·d·eps·top) in about half the draws
        sums = []
        for _ in range(10):
            a = Dmat(s * random_psd(rng, 50).matrix)
            b = spectral_decompose(a).reconstruct()
            b = Dmat((b + b.T) / 2.0)
            sums.append(np.abs(np.linalg.eigvalsh(b.matrix - a.matrix)).sum() / (4 * 50 * EPS * a.max_eigenvalue()))
            assert k_ba(a, b) == k_ba(b, a) == 1.0
        assert max(sums) > 1.0

    @pytest.mark.parametrize("rank_a", [1, 3])
    def test_invariant_under_joint_scaling(self, rng, rank_a):
        # the equal-matrices cut is relative to the operands' scale: an absolute
        # 1e-12 cut returned 1 for the rank-3/rank-8 pair below s = 1e-14
        a, b = random_psd(rng, 20, rank=rank_a), random_psd(rng, 20, rank=8)
        want = k_ba(a, b)
        assert abs(want) < 0.99
        for s in 10.0 ** np.arange(-20, 5):
            assert k_ba(Dmat(s * a.matrix), Dmat(s * b.matrix)) == pytest.approx(want, rel=1e-12, abs=1e-12), s

    def test_reversed_pair_gives_minus_one(self, rng):
        for _ in range(10):
            a, b = random_ordered_pair(rng, 4, margin=0.05)
            if np.linalg.norm(b.matrix - a.matrix) > 1e-6:
                assert k_ba(b, a) == pytest.approx(-1.0, abs=1e-9)

    def test_range(self, rng):
        for _ in range(30):
            a = random_psd(rng, 4)
            b = random_psd(rng, 4)
            assert -1.0 <= k_ba(a, b) <= 1.0


class TestKE:
    def test_apple_fruit(self):
        # error term has one eigenvalue 1/2 and |apple| = 1
        assert k_e(APPLE, FRUIT) == pytest.approx(0.5, abs=1e-12)

    def test_psd_difference_gives_one(self):
        assert k_e(from_diagonal([0.5, 0.0]), from_diagonal([1.0, 0.5])) == 1.0

    def test_pure_versus_zero(self):
        assert k_e(APPLE, Dmat(np.zeros((4, 4)))) == pytest.approx(0.0, abs=1e-12)

    def test_asymmetry_matches_direct_computation(self):
        # one direction entails at 1/2; the reverse loses the orange and fig mass
        forward = k_e(APPLE, FRUIT)
        backward = k_e(FRUIT, APPLE)
        eigs = np.linalg.eigvalsh(APPLE.matrix - FRUIT.matrix)
        error = np.linalg.norm(eigs[eigs < 0])
        assert forward == pytest.approx(0.5, abs=1e-12)
        assert backward == pytest.approx(1.0 - error / FRUIT.frobenius_norm(), abs=1e-12)
        assert forward != pytest.approx(backward)

    def test_zero_first_argument_rejected(self):
        with pytest.raises(ZeroMatrixError):
            k_e(Dmat(np.zeros((2, 2))), identity(2))

    def test_range_clamped(self, rng):
        for _ in range(30):
            a = random_psd(rng, 4, rank=int(rng.integers(1, 5)))
            b = random_psd(rng, 4, rank=int(rng.integers(1, 5)))
            assert 0.0 <= k_e(a, b) <= 1.0

    def test_crisp_pairs_score_exactly_one(self):
        # B - A is PSD with a kernel, which eigvalsh returns as roundoff of
        # either sign; without the roundoff cut only 132 of these scored 1.0
        rng = np.random.default_rng(0)
        for k in range(400):
            a = random_psd(rng, 10, rank=3)
            b = Dmat(1.5 * a.matrix) if k % 2 == 0 else Dmat(a.matrix + random_psd(rng, 10, rank=3).matrix)
            assert k_e(a, b) == 1.0


class TestTraceSimilarity:
    def test_identical_pure_states(self, onb):
        assert trace_similarity(onb["apple"], onb["apple"]) == pytest.approx(1.0)

    def test_orthogonal_pure_states(self):
        a = from_diagonal([1.0, 0.0])
        b = from_diagonal([0.0, 1.0])
        assert trace_similarity(a, b) == 0.0

    def test_apple_fruit_value(self):
        assert trace_similarity(APPLE, FRUIT) == pytest.approx(APPLE_FRUIT_TRACE_SIM, abs=1e-12)

    def test_symmetric(self, rng):
        a = random_psd(rng, 4)
        b = random_psd(rng, 4)
        assert trace_similarity(a, b) == pytest.approx(trace_similarity(b, a), abs=1e-12)

    def test_scale_invariant_maximum(self, rng):
        a = random_psd(rng, 4)
        assert trace_similarity(a, Dmat(a.matrix * 3.0)) == pytest.approx(1.0, abs=1e-9)

    def test_rotation_invariant(self, rng):
        a = random_psd(rng, 4)
        b = random_psd(rng, 4)
        q = random_orthogonal(rng, 4)

        def rotate(m):
            x = q @ m.matrix @ q.T
            return Dmat((x + x.T) / 2)

        assert trace_similarity(rotate(a), rotate(b)) == pytest.approx(
            trace_similarity(a, b), abs=1e-9
        )


@settings(max_examples=40, deadline=None)
@given(
    diag_a=st.lists(st.floats(0.05, 1.0), min_size=2, max_size=5),
    scale=st.floats(0.1, 4.0),
)
def test_khyp_scaling_property(diag_a, scale):
    dim = len(diag_a)
    a = from_diagonal(diag_a)
    b = identity(dim)
    assert k_hyp(Dmat(a.matrix * scale), b) == pytest.approx(k_hyp(a, b) / scale, rel=1e-9)


def loop_k_e(A, B):
    """k_E as a plain per-pair formula over `np.linalg.norm`."""
    eigs = np.linalg.eigvalsh(B.matrix - A.matrix)
    error = float(np.linalg.norm(np.where(eigs < 0.0, -eigs, 0.0)))
    return float(np.clip(1.0 - error / float(np.linalg.norm(A.eigenvalues)), 0.0, 1.0))


def loop_k_hyp(A, B):
    """k_hyp as a plain per-pair formula with a Python-level sentinel."""
    decomp = spectral_decompose(B)
    cut = 1e-8 * max(decomp.eigenvalues[0], 0.0)
    v = decomp.eigenvectors
    mapped = np.array([1.0 / math.sqrt(lam) if lam > cut else 0.0 for lam in decomp.eigenvalues])
    root = (v * mapped) @ v.T
    root = (root + root.T) / 2.0
    core = root @ A.matrix @ root
    gamma = float(np.linalg.eigvalsh((core + core.T) / 2.0)[-1])
    return math.inf if gamma <= 1e-8 else 1.0 / gamma


def test_array_kernels_match_loop_formulas_bitwise():
    # the kernels hold the d x d per-pair formulas to 1e-12 relative: k_E
    # solves each pair in the orientation its traces pick and counts
    # roundoff-sized negative eigenvalues as zero, and k_hyp is solved in
    # the smaller support
    rng = np.random.default_rng(31)
    for dim in (1, 2, 3, 5, 8, 13, 21, 34, 50):
        for _ in range(12):
            A = random_psd(rng, dim, rank=int(rng.integers(1, dim + 1)), repeat_prob=0.2)
            B = random_psd(rng, dim, rank=int(rng.integers(1, dim + 1)))
            assert k_e(A, B) == pytest.approx(loop_k_e(A, B), rel=1e-12, abs=0)
            assert k_hyp(A, B) == pytest.approx(loop_k_hyp(A, B), rel=1e-12, abs=0)


def psd_from_spectrum(basis, eigenvalues):
    m = (basis[:, : len(eigenvalues)] * eigenvalues) @ basis[:, : len(eigenvalues)].T
    return Dmat((m + m.T) / 2.0)


def k_hyp_roundoff(A, B, value):
    """First-order relative roundoff of k_hyp: d eps k_hyp lambda_max(A) / lambda_min+(B).

    k_hyp = 1/gamma with gamma = lambda_max(pinv(B) A).  Forming pinv(B) A
    in floating point errs by about d eps |A| |pinv(B)| in norm, which is
    that bound relative to gamma; it exceeds 1e-12 only for pairs whose
    supports are nearly orthogonal, where k_hyp is large.
    """
    decomp = spectral_decompose(B)
    smallest_kept = decomp.eigenvalues[decomp.rank() - 1]
    return A.dim * np.finfo(float).eps * value * A.max_eigenvalue() / smallest_kept


@settings(max_examples=120, deadline=None)
@given(
    dim=st.integers(1, 50),
    data=st.data(),
    case=st.sampled_from(["generic", "nested", "orthogonal", "above_cut", "below_cut"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_k_hyp_kernel_matches_d_by_d_formula_and_oracle(dim, data, case, seed):
    """The smaller-support kernel against the d x d loop formula and the bisection oracle.

    The two routes agree to 1e-12 relative, or to the pair's conditioning
    where that is larger (`k_hyp_roundoff`).  Ranks run from 1 to dim on
    both sides, so both supports' routes are taken.  "orthogonal" puts A
    outside B's support (the +inf sentinel); "above_cut" and "below_cut"
    give B an eigenvalue 0.1% either side of its RANK_TOL cut, with A
    weighted on that eigenvector.
    """
    rng = np.random.default_rng(seed)
    rank_b = data.draw(st.integers(1, dim), label="rank_b")
    q = random_orthogonal(rng, dim)
    lam_b = rng.uniform(0.1, 1.0, size=rank_b)
    if case in ("above_cut", "below_cut"):
        lam_b[0] = 1.0
        if rank_b > 1:
            lam_b[-1] = 1e-8 * (1.001 if case == "above_cut" else 0.999)
    B = psd_from_spectrum(q, lam_b)
    if case == "orthogonal":
        if rank_b == dim:
            return
        rank_a = data.draw(st.integers(1, dim - rank_b), label="rank_a")
        A = psd_from_spectrum(q[:, rank_b:], rng.uniform(0.1, 1.0, size=rank_a))
    elif case == "nested":
        rank_a = data.draw(st.integers(1, rank_b), label="rank_a")
        A = psd_from_spectrum(q[:, :rank_b] @ random_orthogonal(rng, rank_b), rng.uniform(0.1, 1.0, size=rank_a))
    else:
        rank_a = data.draw(st.integers(1, dim), label="rank_a")
        A = random_psd(rng, dim, rank=rank_a)
        if case != "generic":
            A = Dmat(A.matrix + np.outer(q[:, rank_b - 1], q[:, rank_b - 1]))
    got = k_hyp(A, B)
    want = loop_k_hyp(A, B)
    if case == "orthogonal":
        assert got == want == math.inf
    else:
        assert got == pytest.approx(want, rel=max(1e-12, k_hyp_roundoff(A, B, want)), abs=0)
    if case == "nested":
        # the oracle's bisection resolves k to about its PSD tolerance, 1e-9
        assert got == pytest.approx(k_hyp_oracle(A, B), rel=1e-6, abs=1e-6)


def test_k_hyp_conditioned_rank_one_pair_against_high_precision():
    """A near-orthogonal rank-1 pair at dim 21 (k_hyp about 1.9e6) that hypothesis once drew.

    Neither route holds 1e-12 here: against a 50-digit evaluation of the
    same stored matrices the kernel is 1.4e-11 off and the d x d formula
    4.5e-12.  Both hold the pair's conditioning bound, as the property test
    above now allows.
    """
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(1)
    B = psd_from_spectrum(random_orthogonal(rng, 21), rng.uniform(0.1, 1.0, size=1))
    A = random_psd(rng, 21, rank=1)
    with mpmath.workdps(50):
        values, vectors = mpmath.eigsy(mpmath.matrix(B.matrix.tolist()))
        keep = [i for i in range(21) if values[i] > mpmath.mpf(1e-8) * max(values)]
        w = mpmath.matrix(21, len(keep))
        for col, i in enumerate(keep):
            for row in range(21):
                w[row, col] = vectors[row, i] / mpmath.sqrt(values[i])
        core = w.T * mpmath.matrix(A.matrix.tolist()) * w
        reference = float(1 / max(mpmath.eigsy(core)[0]))
    bound = k_hyp_roundoff(A, B, reference)
    assert 1e-12 < bound < 1e-7
    for got in (k_hyp(A, B), loop_k_hyp(A, B)):
        assert got == pytest.approx(reference, rel=bound, abs=0)


MEASURES = {
    "k_hyp": k_hyp,
    "k_hyp_clamped": k_hyp_clamped,
    "k_e": k_e,
    "k_ba": k_ba,
    "trace_similarity": trace_similarity,
}


def spy_core_groups(monkeypatch) -> list[int]:
    """The size of each group of cores `_k_hyp_pairs` builds around one shared operand, as it calls `_stacks`."""
    sizes: list[int] = []
    real_stacks = entailment._stacks

    def spy(keys):
        groups = list(real_stacks(keys))
        if keys and not isinstance(keys[0], tuple):  # a stack's pairs keyed by their shared operand's slot
            sizes.extend(len(ks) for _, ks in groups)
        return iter(groups)

    monkeypatch.setattr(entailment, "_stacks", spy)
    return sizes


class TestStackedMeasures:
    """A sequence operand must give exactly what a loop of scalar calls gives."""

    def test_match_scalar_loop_bitwise(self):
        rng = np.random.default_rng(47)
        for dim in range(2, 51):
            a = random_psd(rng, dim, rank=int(rng.integers(1, dim + 1)), repeat_prob=0.3)
            others = [
                random_psd(rng, dim, rank=int(rng.integers(1, dim + 1)), repeat_prob=0.3)
                for _ in range(int(rng.integers(1, 5)))
            ]
            pure = random_psd(rng, dim, rank=1)
            # a rank-1 member, the fixed operand itself, a shared Dmat and an equal copy
            seq = others + [pure, a, others[0], Dmat(others[0].matrix)]
            for name, fn in MEASURES.items():
                for got, want in (
                    (fn(a, seq), [fn(a, b) for b in seq]),
                    (fn(seq, a), [fn(b, a) for b in seq]),
                ):
                    assert isinstance(got, np.ndarray), name
                    assert all(isinstance(w, float) for w in want), name
                    assert got.tobytes() == np.array(want).tobytes(), (name, dim)

    def test_single_member_sequence(self, rng):
        a, b = random_psd(rng, 4), random_psd(rng, 4)
        for name, fn in MEASURES.items():
            assert fn(a, [b]).tobytes() == np.array([fn(a, b)]).tobytes(), name
            assert fn((b,), a).tobytes() == np.array([fn(b, a)]).tobytes(), name

    @pytest.mark.parametrize(
        "members",
        [
            ("ok", "zero", "small"),
            ("ok", "small", "zero"),
            ("zero", "ok"),
            ("small", "ok"),
            ("ok", "ok", "zero"),
            # the fixed operand on both sides and in several pairs, then a mixed-dim member, then a zero one
            ("self", "ok", "self", "small", "zero"),
        ],
    )
    def test_errors_match_first_failing_scalar_call(self, rng, members):
        a = random_psd(rng, 3)
        kinds = {
            "self": lambda: a,
            "ok": lambda: random_psd(rng, 3),
            "zero": lambda: Dmat(np.zeros((3, 3))),
            "small": lambda: random_psd(rng, 2),
        }
        seq = [kinds[m]() for m in members]

        def outcome(call):
            try:
                return call()
            except (ZeroMatrixError, DimensionMismatchError) as exc:
                return type(exc), str(exc)

        def loop_outcome(pairs, fn):
            for x, y in pairs:
                result = outcome(lambda: fn(x, y))
                if isinstance(result, tuple):
                    return result
            return None

        for name, fn in MEASURES.items():
            for stacked, pairs in (
                (lambda: fn(a, seq), [(a, b) for b in seq]),
                (lambda: fn(seq, a), [(b, a) for b in seq]),
            ):
                want = loop_outcome(pairs, fn)
                got = outcome(stacked)
                if want is None:
                    assert isinstance(got, np.ndarray), name
                else:
                    assert got == want, name

    def test_one_solve_for_both_k_e_directions_and_k_ba(self, monkeypatch):
        # against pure states, both k_E directions and k_BA share one evaluation of the
        # rank-1 route's terms, and no d x d solve
        rng = np.random.default_rng(5)
        a = random_psd(rng, 12, rank=4)
        seq = [random_psd(rng, 12, rank=1) for _ in range(6)]
        calls = [lambda x: k_e(x, seq), lambda x: k_e(seq, x), lambda x: k_ba(x, seq), lambda x: k_ba(seq, x)]
        # each call alone, on its own copy of a, so that no call reuses another's terms
        fresh = [call(Dmat(a.matrix)).tobytes() for call in calls]
        real = np.linalg.eigvalsh
        solves = []
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m, *args: solves.append(m.shape) or real(m, *args))
        for first in range(len(calls)):
            x = Dmat(a.matrix)
            solves.clear()
            misses = _rank_one_terms.cache_info().misses
            got = {first: calls[first](x).tobytes()}
            for k in range(len(calls)):
                got.setdefault(k, calls[k](x).tobytes())
            assert _rank_one_terms.cache_info().misses == misses + 1
            assert solves == []
            assert [got[k] for k in range(len(calls))] == fresh
        # another sequence is evaluated afresh, and replaces the cached one
        k_e(x, seq[::-1])
        k_e(x, seq)
        assert _rank_one_terms.cache_info().misses == misses + 3

    def test_pure_state_against_mixed_states_shares_one_evaluation(self):
        # one call scores every pair in its own mixed operand's eigenbasis, in one Newton
        # loop; both argument orders and k_BA reuse it, bit for bit the scalar loop
        rng = np.random.default_rng(61)
        for dim in (2, 3, 7, 12, 30):
            p = random_psd(rng, dim, rank=1)
            seq = [random_psd(rng, dim, rank=int(rng.integers(2, dim + 1))) for _ in range(5)]
            seq.append(seq[0])
            calls = {
                "k_e(p, seq)": (lambda: k_e(p, seq), [k_e(p, s) for s in seq]),
                "k_e(seq, p)": (lambda: k_e(seq, p), [k_e(s, p) for s in seq]),
                "k_ba(p, seq)": (lambda: k_ba(p, seq), [k_ba(p, s) for s in seq]),
                "k_ba(seq, p)": (lambda: k_ba(seq, p), [k_ba(s, p) for s in seq]),
            }
            misses = _rank_one_terms.cache_info().misses
            for name, (call, want) in calls.items():
                assert call().tobytes() == np.array(want).tobytes(), (name, dim)
            assert _rank_one_terms.cache_info().misses == misses + 1, dim

    def test_threads_sharing_the_rank_one_cache_get_their_own_values(self):
        # four threads score each batch, so the one slot keeps changing hands under readers of its key
        rng = np.random.default_rng(67)
        batches = [(random_psd(rng, 9, rank=3), [random_psd(rng, 9, rank=1) for _ in range(4)]) for _ in range(2)]
        calls = (lambda n, seq: k_e(n, seq), lambda n, seq: k_e(seq, n), lambda n, seq: k_ba(n, seq))
        want = [[call(n, seq).tobytes() for call in calls] for n, seq in batches]

        def score(b):
            n, seq = batches[b]
            return all([call(n, seq).tobytes() for call in calls] == want[b] for _ in range(200))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(score, b % len(batches)) for b in range(8)]
                assert all(f.result(timeout=60) for f in futures)
        finally:
            sys.setswitchinterval(interval)

    def test_rank_one_heavy_sequences_match_scalar_loop_bitwise(self):
        # pure members of every kind the rank-1 route meets, mixed with full-rank ones, so
        # one call scores some pairs in the other operand's eigenbasis and solves the rest d x d
        rng = np.random.default_rng(53)
        for dim in range(1, 41):
            fixed = [random_psd(rng, dim, rank=1), random_psd(rng, dim, rank=int(rng.integers(1, dim + 1)))]
            for a in fixed:
                v = rng.normal(size=dim)
                pure = [random_psd(rng, dim, rank=1) for _ in range(4)]
                seq = pure + [
                    Dmat(a.matrix),  # an equal copy
                    Dmat(0.5 * a.matrix),  # a crisply ordered pair
                    Dmat(np.outer(v, v)),  # an unnormalized pure state
                    random_psd(rng, dim, rank=int(rng.integers(1, dim + 1))),
                    a,
                    pure[0],
                ]
                for name, fn in MEASURES.items():
                    for got, want in ((fn(a, seq), [fn(a, b) for b in seq]), (fn(seq, a), [fn(b, a) for b in seq])):
                        assert got.tobytes() == np.array(want).tobytes(), (name, dim)
                        assert np.all(np.isfinite(got)), (name, dim)

    def test_k_hyp_around_shared_operands_in_unequal_groups_matches_scalar_loop_bitwise(self, monkeypatch):
        # three negations with 1, 2 and 5 alternatives of rank 1 and rank > 1, in shuffled
        # order, so that each stack's cores are built around shared operands (a negation's
        # matrix one way, its whitened support the other) in groups of unequal size
        rng = np.random.default_rng(83)
        groups = spy_core_groups(monkeypatch)
        for dim in range(4, 25, 4):
            negations = [random_psd(rng, dim), random_psd(rng, dim, rank=dim - 1), random_psd(rng, dim)]
            ranks = iter([1, 2, 1, 3, 1, 1, 2, 1])
            pairs = [(n, random_psd(rng, dim, rank=next(ranks))) for n, count in zip(negations, (1, 2, 5)) for _ in range(count)]
            A, B = zip(*(pairs[k] for k in rng.permutation(len(pairs))))
            # each alternative's rank is below its negation's, so either way round a stack holds one
            # alternative rank and its cores group around the negations
            shared = {(n, _roundoff_rank(b.eigenvalues, dim)) for n, b in pairs}
            for fn in (k_hyp, k_hyp_clamped):
                for X, Y in ((A, B), (B, A)):
                    groups.clear()
                    got = fn(X, Y)
                    assert sum(groups) == len(pairs) and len(groups) == len(shared) < len(pairs), (dim, groups)
                    assert got.tobytes() == np.array([fn(x, y) for x, y in zip(X, Y)]).tobytes(), dim
                for n in negations:
                    assert fn(n, B).tobytes() == np.array([fn(n, b) for b in B]).tobytes(), dim
                    assert fn(B, n).tobytes() == np.array([fn(b, n) for b in B]).tobytes(), dim

    @pytest.mark.parametrize("k, m", [(3, 4), (6, 2)])
    def test_two_sequences_built_the_grid_s_way_hold_one_slot_per_matrix(self, monkeypatch, k, m):
        # as `run_grid` scores a column: k outputs each repeated m times against m alternatives
        # repeated k times.  Each distinct matrix holds one slot, so one call ranks k + m spectra
        # (not 2 k m), and k_hyp builds one core group per output either way round (not k m)
        rng = np.random.default_rng(101)
        outputs = [random_psd(rng, 8) for _ in range(k)]
        alternatives = [random_psd(rng, 8, rank=1) for _ in range(m)]
        negated, alts = [o for o in outputs for _ in alternatives], alternatives * k
        ranked, groups = [], spy_core_groups(monkeypatch)
        real_rank = entailment._roundoff_rank
        monkeypatch.setattr(entailment, "_roundoff_rank", lambda lam, dim: ranked.append(len(lam)) or real_rank(lam, dim))
        for name, fn in MEASURES.items():
            for X, Y in ((negated, alts), (alts, negated)):
                ranked.clear()
                groups.clear()
                got = fn(X, Y)
                if name in ("k_e", "k_ba"):
                    assert ranked == [k + m], name
                if name in ("k_hyp", "k_hyp_clamped"):
                    assert sorted(groups) == [m] * k, name
                assert got.tobytes() == np.array([fn(x, y) for x, y in zip(X, Y)]).tobytes(), name

    def test_k_hyp_stacks_a_shared_d_by_d_operand_at_most_once(self, monkeypatch):
        # one full-rank matrix against n alternatives of lower rank: k_hyp(N, alternatives)
        # builds every core around N's matrix, and k_hyp(alternatives, N) around N's d x d
        # whitened support; neither is copied once per pair
        rng = np.random.default_rng(89)
        dim = 9
        n = random_psd(rng, dim)
        alternatives = [random_psd(rng, dim, rank=r) for r in (1, 1, 2, 1, 3, 1, 4)]
        members = []
        real_stack = entailment._stack
        monkeypatch.setattr(entailment, "_stack", lambda arrays: members.extend(a.shape for a in arrays) or real_stack(arrays))
        for call in (k_hyp, k_hyp_clamped):
            for X, Y in ((n, alternatives), (alternatives, n)):
                members.clear()
                call(X, Y)
                assert members and members.count((dim, dim)) <= 1, members

    @pytest.mark.parametrize("name", MEASURES)
    @pytest.mark.parametrize("matrix_first", [True, False])
    def test_empty_sequence_gives_empty_array(self, rng, name, matrix_first):
        a, fn = random_psd(rng, 3), MEASURES[name]
        got = fn(a, []) if matrix_first else fn([], a)
        assert isinstance(got, np.ndarray) and got.shape == (0,) and got.dtype == float

    def test_two_sequences_pair_elementwise_bitwise(self, monkeypatch):
        # mixed ranks, pure states and one Dmat repeated on a side, so that one call takes the
        # rank-1 route, falls back from it to d x d (equal pure states) and solves d x d outright
        rng = np.random.default_rng(71)
        solved = []
        real_solve = entailment._solve
        monkeypatch.setattr(entailment, "_solve", lambda pairs: solved.append(len(pairs)) or real_solve(pairs))
        for dim in range(2, 31):
            n = random_psd(rng, dim, rank=int(rng.integers(2, dim + 1)))
            pure = [random_psd(rng, dim, rank=1) for _ in range(3)]
            mixed = [random_psd(rng, dim, rank=int(rng.integers(1, dim + 1))) for _ in range(2)]
            A = [n, n, n, pure[0], mixed[0], n, pure[1]]
            B = [*pure, Dmat(pure[0].matrix), mixed[1], n, pure[1]]
            for name, fn in MEASURES.items():
                for X, Y in ((A, B), (B, A)):
                    solved.clear()
                    misses = _rank_one_terms.cache_info().misses
                    got = fn(X, Y)
                    if name in ("k_e", "k_ba"):
                        assert _rank_one_terms.cache_info().misses == misses + 1 and solved, (name, dim)
                    assert got.tobytes() == np.array([fn(x, y) for x, y in zip(X, Y)]).tobytes(), (name, dim)

    def test_two_sequences_of_unequal_length_raise_value_error(self, rng):
        seq = [random_psd(rng, 3) for _ in range(3)]
        zero, small = Dmat(np.zeros((3, 3))), random_psd(rng, 2)
        for name, fn in MEASURES.items():
            for other in (seq[:2], [zero], [small], [*seq, zero], []):
                for X, Y in ((seq, other), (other, seq)):
                    with pytest.raises(ValueError, match="pair elementwise"):
                        fn(X, Y)

    @pytest.mark.parametrize("name", MEASURES)
    def test_two_empty_sequences_give_empty_array(self, name):
        got = MEASURES[name]([], ())
        assert isinstance(got, np.ndarray) and got.shape == (0,) and got.dtype == float

    @pytest.mark.parametrize("mismatch_first", [True, False])
    def test_two_sequences_raise_the_first_failing_pair_s_error(self, rng, mismatch_first):
        ok, other, zero, small = random_psd(rng, 3), random_psd(rng, 3), Dmat(np.zeros((3, 3))), random_psd(rng, 2)
        failing = [(ok, small), (zero, zero)] if mismatch_first else [(zero, zero), (ok, small)]
        inputs = [
            [(ok, ok), *failing],
            # one Dmat on both sides and in several pairs, as in a grid column, so that it holds one slot
            [(ok, other), (other, ok), (ok, ok), (other, other), *failing],
            # a zero Dmat on the side k_e does not check, before a mixed-dim pair and then on the side it does
            [(ok, zero), (other, ok), (ok, small), (zero, ok)],
        ]
        for k, pairs in enumerate(inputs):
            A, B = [a for a, _ in pairs], [b for _, b in pairs]
            for name, fn in MEASURES.items():
                for a, b in pairs:
                    try:
                        fn(a, b)
                    except (ZeroMatrixError, DimensionMismatchError) as exc:
                        want = (type(exc), str(exc))
                        break
                with pytest.raises(want[0]) as raised:
                    fn(A, B)
                assert str(raised.value) == want[1], (name, k)
                if k < 2 and (mismatch_first or name == "k_ba"):
                    assert want[0] is DimensionMismatchError, (name, k)


@pytest.mark.parametrize(
    "fn, side, message",
    [
        (k_e, "A", "k_e needs a nonzero first argument"),
        (k_hyp, "A", "k_hyp needs two nonzero matrices"),
        (k_hyp, "B", "k_hyp needs two nonzero matrices"),
        (trace_similarity, "A", "trace similarity needs two nonzero matrices"),
        (trace_similarity, "B", "trace similarity needs two nonzero matrices"),
    ],
)
@pytest.mark.parametrize("scale", [0.0, 1e-13])
def test_zero_operand_raises_the_measures_message(fn, side, message, scale):
    # a matrix is zero by `Dmat.is_zero` alone: 1e-13 I is, on either side a measure checks
    zero, other = Dmat(scale * np.eye(3)), identity(3)
    calls = [(zero, other), ([other, zero], other), (zero, [other])]
    for a, b in calls if side == "A" else [(b, a) for a, b in calls]:
        with pytest.raises(ZeroMatrixError, match=f"^{message}$"):
            fn(a, b)


def pure_state(vector: np.ndarray) -> Dmat:
    return Dmat(np.outer(vector, vector))


def d_by_d_values(A: Dmat, B: Dmat) -> dict[str, float]:
    """k_E and k_BA of (A, B) from `_solve`, the d x d spectrum of B - A, through the same formulas."""
    spectra = _solve([(A, B)])
    return {
        "k_e": k_e_from_spectra(spectra, spectrum_norms(A.eigenvalues))[0],
        "k_ba": k_ba_from_spectra(spectra, np.array([max(A.max_eigenvalue(), B.max_eigenvalue())]))[0],
    }


RANK_ONE_CASES = ["generic", "kernel", "psd", "boundary", "rank_one", "repeated", "equal", "scaled"]


@settings(max_examples=200, deadline=None)
@given(dim=st.integers(1, 50), case=st.sampled_from(RANK_ONE_CASES), seed=st.integers(0, 2**32 - 1))
def test_rank_one_route_matches_d_by_d_solve(dim, case, seed):
    """k_E and k_BA between N and a pure state a a^T, from N's eigenbasis, against `_solve`.

    Both routes err by a few d eps S in each eigenvalue of N - a a^T, S =
    max(top eigenvalue of N, |a|^2) being the operands' scale, and their
    roundoff cuts differ by at most 4 d eps S, so each value is held to
    16 d eps S over the norm it divides by: |A|, or the absolute eigenvalue
    sum for k_BA (2.0 d eps S at most over 4 000 draws of these cases).  The cases: a in N's kernel; N - a a^T PSD (a = N^(1/2) x
    with |x| < 1) and singular PSD (|x| = 1, so phi(0) = 1); N of rank 1;
    N with repeated eigenvalues; N equal to a a^T, where k_E and k_BA must
    score exactly 1; N = c a a^T, crisply ordered either way, where k_E
    must score exactly 1 in the entailed direction, as must a a^T below N
    in the PSD case.
    """
    rng = np.random.default_rng(seed)
    q = random_orthogonal(rng, dim)
    rank = int(rng.integers(1, dim + 1))
    if case == "kernel":
        if dim == 1:
            return
        rank = min(rank, dim - 1)
    lam = rng.uniform(0.1, 1.0, size=1 if case == "rank_one" else rank)
    if case == "repeated":
        lam = rng.choice([0.25, 0.75], size=rank)
    N = psd_from_spectrum(q, lam)
    a = rng.normal(size=dim) * rng.uniform(0.2, 2.0)
    if case == "kernel":
        a = q[:, rank:] @ rng.normal(size=dim - rank)
    elif case in ("psd", "boundary"):
        x = rng.normal(size=lam.size)
        x *= (1.0 if case == "boundary" else rng.uniform(0.1, 0.95)) / np.linalg.norm(x)
        a = q[:, : lam.size] @ (np.sqrt(lam) * x)
    elif case == "equal":
        N = pure_state(a)
    c = rng.uniform(0.2, 5.0)
    if case == "scaled":
        N = Dmat(c * np.outer(a, a))
    A = pure_state(a)
    assert _roundoff_rank(A.eigenvalues, A.dim) == 1
    scale = max(N.max_eigenvalue(), A.max_eigenvalue())
    for X, Y in ((A, N), (N, A)):
        want = d_by_d_values(X, Y)
        got = {"k_e": k_e(X, Y), "k_ba": k_ba(X, Y)}
        # floored, so the bound stays finite where an absolute sum within roundoff gives 1 on both routes
        absolute_sum = max(np.abs(_solve([(X, Y)])).sum(), 1e-12)
        divisors = {"k_e": spectrum_norms(X.eigenvalues), "k_ba": absolute_sum}
        for name, value in got.items():
            assert abs(value - want[name]) <= 16 * dim * np.finfo(float).eps * scale / divisors[name], (name, X is A)
    if case == "equal":
        assert k_e(A, N) == k_e(N, A) == k_ba(A, N) == k_ba(N, A) == 1.0
    if case == "psd" or (case == "scaled" and c >= 1.0):
        assert k_e(A, N) == 1.0
    if case == "scaled" and c <= 1.0:
        assert k_e(N, A) == 1.0
