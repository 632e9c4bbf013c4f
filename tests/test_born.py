"""Eigenpairs given at construction, checked against the matrices they decompose.

Both logical negations, spider and fuzz give their output's eigenpairs
(`spectral._born`), as does phaser with a scalar operand, and a lexicon word
of r < d rows is decomposed from its r×r Gram matrix
(`lexicon._gram_eigenpairs`), in place of a d×d solve; phaser's other
outputs, solved by `eigh`, are held to the same checks.  Each
decomposition (Λ, V) is held to C·d·eps·S,
where S is the construction's scale: 1 for a word and for neg_sub, the
output's top eigenvalue for neg_inv, and for a composition the larger of
the output's top eigenvalue and the product of its operands' tops, which
bounds its entries' roundoff.  The checks, each on the largest entry:
- V Λ Vᵀ reconstructs the output's matrix, within C·d·eps·S;
- V is orthonormal, VᵀV within C·d·eps of I;
- Λ, and the eigenvalues validation kept, match `eigvalsh` of the output
  within C·d·eps·S.
Over 3 000 draws of these cases the largest was 3.9·d·eps·S (a word's Λ);
C = 16 leaves a margin of four.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from convneg.composition import fuzz, phaser, spider
from convneg.lexicon import _mixture
from convneg.negation import neg_inv, neg_sub
from convneg.sampling import random_orthogonal, random_psd
from convneg.spectral import EPS, Dmat, SpectralDecomposition, rescale_max_eig, spectral_decompose

from conftest import from_diagonal

C = 16
DIMS = st.integers(1, 12)
SEEDS = st.integers(0, 2**32 - 1)


def assert_decomposes(out: Dmat, scale: float) -> None:
    d = out.dim
    decomp = spectral_decompose(out)
    v, lam = decomp.eigenvectors, decomp.eigenvalues
    bound = C * d * EPS
    solved = np.linalg.eigvalsh(out.matrix)
    assert np.abs(v.T @ v - np.eye(d)).max() <= bound
    assert np.abs((v * lam) @ v.T - out.matrix).max() <= bound * scale
    assert np.abs(lam[::-1] - solved).max() <= bound * scale
    assert np.abs(out.eigenvalues - solved).max() <= bound * scale


def unit_rows(rng, dim: int, case: str) -> np.ndarray:
    """r < dim random unit rows; the last repeats the first ("duplicate") or nearly does ("near")."""
    f = rng.normal(size=(int(rng.integers(1, dim)), dim))
    if len(f) > 1 and case == "duplicate":
        f[-1] = f[0]
    elif len(f) > 1 and case == "near":
        f[-1] = f[0] + 10.0 ** rng.uniform(-8, -3) * rng.normal(size=dim)
    f /= np.linalg.norm(f, axis=1, keepdims=True)
    f.setflags(write=False)
    return f


def operand(rng, dim: int, repeat_prob: float = 0.0) -> Dmat:
    return random_psd(rng, dim, rank=int(rng.integers(1, dim + 1)), repeat_prob=repeat_prob)


def composition_scale(out: Dmat, a: Dmat, b: Dmat) -> float:
    return max(out.max_eigenvalue(), a.max_eigenvalue() * b.max_eigenvalue())


@settings(max_examples=150, deadline=None)
@given(dim=st.integers(2, 12), case=st.sampled_from(["generic", "duplicate", "near"]), seed=SEEDS)
def test_word_from_its_gram_matrix(dim, case, seed):
    word = _mixture(unit_rows(np.random.default_rng(seed), dim, case))
    assert callable(word._spectral)  # deferred: nothing is decomposed until asked
    assert_decomposes(word, 1.0)


@settings(max_examples=150, deadline=None)
@given(dim=DIMS, from_rows=st.booleans(), seed=SEEDS)
def test_negations(dim, from_rows, seed):
    rng = np.random.default_rng(seed)
    x = _mixture(unit_rows(rng, dim, "generic")) if from_rows and dim > 1 else rescale_max_eig(operand(rng, dim))
    assert_decomposes(neg_sub(x), 1.0)
    for weight in (0.0, 0.5, 1.0):
        out = neg_inv(x, weight)
        assert_decomposes(out, out.max_eigenvalue())


@settings(max_examples=150, deadline=None)
@given(dim=DIMS, seed=SEEDS)
def test_structural_compositions(dim, seed):
    # B repeats eigenvalues (spider's rotated groups, fuzz's blocks of size > 1)
    # and is rank deficient in most draws
    rng = np.random.default_rng(seed)
    a, b = operand(rng, dim), operand(rng, dim, repeat_prob=0.5)
    for fn in (spider, fuzz, phaser):
        out = fn(a, b)
        assert_decomposes(out, composition_scale(out, a, b))


@settings(max_examples=100, deadline=None)
@given(dim=DIMS, seed=SEEDS)
def test_compositions_with_a_scalar_operand(dim, seed):
    # a pure word's neg_inv at 0.5 is c·I: spider takes I as its basis, and fuzz and
    # phaser give c times the other operand, born from its decomposition
    rng = np.random.default_rng(seed)
    a, v = operand(rng, dim), rng.normal(size=dim)
    s = neg_inv(rescale_max_eig(Dmat(np.outer(v, v))), 0.5)
    for x, y in ((a, s), (s, a)):
        for fn in (spider, fuzz, phaser):
            out = fn(x, y)
            assert_decomposes(out, composition_scale(out, x, y))


def test_exactly_diagonal_outputs_keep_the_standard_basis():
    a, b = from_diagonal([0.5, 0.25, 0.5, 0.0]), from_diagonal([1.0, 0.5, 0.5, 0.25])
    word = _mixture(np.eye(4)[[3, 3, 1]])  # one-hot rows, on the Gram route: diag(0, 1/2, 0, 1)
    assert callable(word._spectral)
    for out in (word, neg_sub(a), neg_inv(a, 0.5), spider(a, b), fuzz(a, b), phaser(a, b)):
        diagonal = np.diagonal(out.matrix)
        assert np.count_nonzero(out.matrix - np.diag(diagonal)) == 0
        decomp = spectral_decompose(out)
        order = np.argsort(-diagonal, kind="stable")
        assert np.array_equal(decomp.eigenvectors, np.eye(4)[:, order])
        assert np.array_equal(decomp.eigenvalues, np.maximum(diagonal[order], 0.0))


@settings(max_examples=100, deadline=None)
@given(dim=st.integers(2, 12), seed=SEEDS)
def test_spider_is_unchanged_by_rotations_inside_eigenspaces(dim, seed):
    # B's decomposition handed over with another orthonormal basis of each
    # eigenspace: spider's tie-break rotates each group of size > 1 to the
    # eigenvectors of V_kᵀ diag(1, ..., d) V_k, which are unique for a generic
    # draw, but only to about eps·d / gap, gap the least spacing of that
    # block's eigenvalues, so the bound is C·d·eps·S times d / gap
    rng = np.random.default_rng(seed)
    a, b = operand(rng, dim), operand(rng, dim, repeat_prob=0.5)
    base = spectral_decompose(b)
    rotated, spread = np.array(base.eigenvectors), 1.0
    index = np.arange(1.0, dim + 1)
    for value, start, stop in base.eigenvalue_groups():
        if stop - start > 1:
            block = base.eigenvectors[:, start:stop]
            if value > base.support_cut():  # spider weights the kernel's columns by 0
                spread = max(spread, dim / np.diff(np.linalg.eigvalsh((block.T * index) @ block)).min())
            rotated[:, start:stop] = block @ random_orthogonal(rng, stop - start)
    twin = Dmat(b.matrix)
    object.__setattr__(twin, "_spectral", SpectralDecomposition(base.eigenvalues, rotated))
    out = spider(a, b)
    bound = C * dim * EPS * composition_scale(out, a, b) * spread
    assert np.abs(spider(a, twin).matrix - out.matrix).max() <= bound
