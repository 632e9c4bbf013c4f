import tracemalloc

import numpy as np
import pytest

from convneg.composition import (
    COMPOSITIONS,
    CompositionKind,
    diag_comp,
    fuzz,
    mult,
    phaser,
    spider,
)
from convneg.negation import neg_inv, neg_sub, neg_supp
from convneg.sampling import random_orthogonal, random_psd
from convneg.spectral import EPS, Dmat, SpectralDecomposition, rescale_max_eig, spectral_decompose, support_projector

from conftest import from_diagonal, identity

PLUS = Dmat(np.full((2, 2), 0.5))  # rank-1 state on the diagonal direction
B_DIAG = from_diagonal([1.0, 0.25])
REFERENCE_DIMS = [1, 2, 3, 4, 7, 10, 20, 35, 50]


def _fuzz_projector_loop(A: Dmat, B: Dmat) -> np.ndarray:
    """Reference fuzz: one projector per eigenspace of B, sum of value * P A P."""
    out = np.zeros((A.dim, A.dim))
    for value, proj in spectral_decompose(B).eigenspaces():
        if value != 0.0:
            out += value * (proj @ A.matrix @ proj)
    return (out + out.T) / 2.0


def _spider_basis(B: Dmat) -> tuple[np.ndarray, np.ndarray]:
    """Reference tie-break: each repeated group above the support cut gets the top eigenvectors of P D P.

    P is the group's eigenspace projector and D = diag(1, ..., d); P D P
    has the eigenvalues of V_kᵀ D V_k (all at least 1) and zeros, so its top
    eigenvectors span the eigenspace in the basis that diagonalizes D there.
    Every column carries its group's value.
    """
    decomp = spectral_decompose(B)
    index = np.diag(np.arange(1.0, B.dim + 1))
    columns, weights = [], []
    groups = zip(decomp.eigenvalue_groups(), decomp.eigenspaces())
    for (value, start, stop), (_, proj) in groups:
        block = decomp.eigenvectors[:, start:stop]
        if stop - start > 1 and value > decomp.support_cut():
            block = np.linalg.eigh(proj @ index @ proj)[1][:, -(stop - start):]
        columns.append(block)
        weights += [value] * (stop - start)
    return np.hstack(columns), np.array(weights)


def _spider_einsum(A: Dmat, B: Dmat) -> np.ndarray:
    """Reference spider: A's diagonal in the tie-broken eigenbasis of B by a three-operand einsum."""
    v, weights = _spider_basis(B)
    a_diag = np.einsum("ij,jk,ki->i", v.T, A.matrix, v)
    out = (v * (weights * a_diag)) @ v.T
    return (out + out.T) / 2.0


def _assert_relatively_close(out: np.ndarray, ref: np.ndarray, A: Dmat, B: Dmat) -> None:
    # relative to the scale of the product: |A| times B's largest eigenvalue
    scale = A.frobenius_norm() * B.max_eigenvalue()
    assert np.linalg.norm(out - ref) <= 1e-12 * scale


class TestSpider:
    def test_worked_toy_example(self, onb, fruit_raw):
        # negated pure state composed with the fruit context keeps the
        # proportions of the other fruits
        negated = from_diagonal([0.0, 1.0, 1.0, 1.0])
        out = spider(negated, fruit_raw)
        np.testing.assert_allclose(out.matrix, np.diag([0.0, 1 / 3, 1 / 6, 0.0]), atol=1e-12)

    def test_support_inverse_flattens(self):
        x = from_diagonal([0.75, 0.5, 0.0])
        out = spider(x, neg_supp(x))
        np.testing.assert_allclose(out.matrix, np.diag([1.0, 1.0, 0.0]), atol=1e-10)

    def test_hadamard_in_structural_basis(self):
        out = spider(PLUS, B_DIAG)
        np.testing.assert_allclose(out.matrix, np.array([[0.5, 0.0], [0.0, 0.125]]), atol=1e-12)

    def test_equals_mult_for_diagonal_structure(self, rng):
        for k in range(20):
            a = random_psd(rng, 4)
            values = rng.uniform(0.0, 1.0, size=4)
            if k % 2:
                values[:3] = values[0]  # a repeated eigenvalue: the tie-break keeps the standard basis
            b = from_diagonal(values)
            assert np.linalg.norm(spider(a, b).matrix - mult(a, b).matrix) <= 1e-9

    def test_equals_mult_exactly_for_diagonal_repeats(self, rng):
        # a group of equal eigenvalues weighs by their value, not by their mean, which here misses it by an ulp
        b = from_diagonal([0.8132702392002724] * 3 + [0.3])
        for _ in range(10):
            a = random_psd(rng, 4)
            np.testing.assert_array_equal(spider(a, b).matrix, mult(a, b).matrix)

    def test_matches_copy_isometry_oracle(self, rng):
        # independent route: conjugate the explicit tensor product by the
        # copy isometry built from the structural eigenbasis
        from convneg.spectral import spectral_decompose

        for _ in range(10):
            dim = int(rng.integers(2, 5))
            a = random_psd(rng, dim)
            b = random_psd(rng, dim, rank=int(rng.integers(1, dim + 1)))
            v = spectral_decompose(b).eigenvectors
            copy_isometry = np.zeros((dim, dim * dim))
            for i in range(dim):
                copy_isometry += np.outer(v[:, i], np.kron(v[:, i], v[:, i]))
            expected = copy_isometry @ np.kron(a.matrix, b.matrix) @ copy_isometry.T
            assert np.linalg.norm(spider(a, b).matrix - expected) <= 1e-9

    @pytest.mark.parametrize("dim", REFERENCE_DIMS)
    def test_matches_einsum_reference(self, dim, rng):
        for _ in range(6):
            a = random_psd(rng, dim, rank=int(rng.integers(1, dim + 1)))
            b = random_psd(rng, dim, rank=int(rng.integers(1, dim + 1)), repeat_prob=0.5)
            _assert_relatively_close(spider(a, b).matrix, _spider_einsum(a, b), a, b)


def _relative_change(out: Dmat, ref: Dmat) -> float:
    return float(np.linalg.norm(out.matrix - ref.matrix) / np.linalg.norm(ref.matrix))


class TestSpiderIsBasisFree:
    """spider must depend on B's eigenspaces, not on the eigenvectors LAPACK returns for them."""

    def test_rotations_inside_repeated_eigenspaces(self, rng):
        # groups of 3 and 2, a simple eigenvalue and a 3-dim kernel
        eigs = np.array([1.0, 0.7, 0.7, 0.7, 0.4, 0.4, 0.2, 0.0, 0.0, 0.0])
        for _ in range(20):
            q = random_orthogonal(rng, 10)
            turned = q.copy()
            for start, stop in ((1, 4), (4, 6), (7, 10)):
                turned[:, start:stop] = q[:, start:stop] @ random_orthogonal(rng, stop - start)
            b, b_turned = (Dmat(((v * eigs) @ v.T + ((v * eigs) @ v.T).T) / 2.0) for v in (q, turned))
            a = random_psd(rng, 10, rank=int(rng.integers(1, 11)))
            assert _relative_change(spider(a, b_turned), spider(a, b)) <= 1e-12

    def test_roundoff_in_negated_low_rank_word(self, rng):
        # neg_sub of a rank-3 word: eigenvalue 1 repeats 7 times
        for _ in range(20):
            b = neg_sub(rescale_max_eig(random_psd(rng, 10, rank=3)))
            noise = rng.normal(size=(10, 10))
            b_noisy = Dmat(b.matrix + 1e-15 * (noise + noise.T) / 2.0)
            a = random_psd(rng, 10)
            assert _relative_change(spider(a, b_noisy), spider(a, b)) <= 1e-12


class TestFuzz:
    def test_projector_weighted_sum(self):
        out = fuzz(PLUS, B_DIAG)
        np.testing.assert_allclose(out.matrix, np.diag([0.5, 0.125]), atol=1e-12)

    def test_commuting_diagonal(self):
        a = from_diagonal([0.0, 1.0, 1.0, 1.0])
        b = from_diagonal([0.5, 1 / 3, 1 / 6, 0.0])
        out = fuzz(a, b)
        np.testing.assert_allclose(out.matrix, np.diag([0.0, 1 / 3, 1 / 6, 0.0]), atol=1e-12)

    def test_support_inverse_flattens(self):
        x = from_diagonal([0.75, 0.5, 0.0])
        out = fuzz(x, neg_supp(x))
        np.testing.assert_allclose(out.matrix, np.diag([1.0, 1.0, 0.0]), atol=1e-10)

    def test_degenerate_grouping_keeps_block(self, rng):
        # a degenerate structural eigenvalue must keep A's within-block structure
        a = random_psd(rng, 3)
        b = from_diagonal([0.5, 0.5, 0.0])
        out = fuzz(a, b).matrix
        np.testing.assert_allclose(out[:2, :2], 0.5 * a.matrix[:2, :2], atol=1e-10)
        assert abs(out[2, 2]) <= 1e-12


    @pytest.mark.parametrize("dim", REFERENCE_DIMS)
    def test_matches_projector_loop(self, dim, rng):
        # repeated eigenvalues and rank-deficient B (a kernel group) included
        for _ in range(6):
            a = random_psd(rng, dim, rank=int(rng.integers(1, dim + 1)))
            b = random_psd(rng, dim, rank=int(rng.integers(1, dim + 1)), repeat_prob=0.5)
            _assert_relatively_close(fuzz(a, b).matrix, _fuzz_projector_loop(a, b), a, b)

    @pytest.mark.parametrize("dim", REFERENCE_DIMS)
    def test_matches_projector_loop_for_diagonal_structure(self, dim, rng):
        # the exactly diagonal fast path: unsorted entries with repeats and
        # exact zeros, so groups are scattered in the input coordinates and
        # one group has value 0
        for _ in range(4):
            a = random_psd(rng, dim, rank=int(rng.integers(1, dim + 1)))
            b = from_diagonal(rng.choice([0.0, 0.25, 0.5, 1.0], size=dim))
            _assert_relatively_close(fuzz(a, b).matrix, _fuzz_projector_loop(a, b), a, b)

    def test_zero_valued_group_gives_zero_block(self, rng):
        a = random_psd(rng, 6)
        b = from_diagonal([0.0, 0.5, 0.0, 1.0, 0.5, 0.0])
        kernel = np.array([0, 2, 5])
        out = fuzz(a, b).matrix
        assert np.count_nonzero(out[kernel]) == 0
        assert np.count_nonzero(out[:, kernel]) == 0
        _assert_relatively_close(out, _fuzz_projector_loop(a, b), a, b)

    def test_groups_follow_eigenvalue_group_rule(self, rng):
        # a group is cut relative to its first eigenvalue, not to its
        # neighbour: 1 - 0.6e-8 joins 1, and 1 - 1.2e-8 starts a new group
        # although it is within 1e-8 of 1 - 0.6e-8
        a = random_psd(rng, 3)
        b = from_diagonal([1.0, 1.0 - 0.6e-8, 1.0 - 1.2e-8])
        out = fuzz(a, b).matrix
        assert out[0, 1] != 0.0
        assert out[0, 2] == 0.0 and out[1, 2] == 0.0
        _assert_relatively_close(out, _fuzz_projector_loop(a, b), a, b)

    def test_rotation_inside_repeated_eigenspace(self, rng):
        dim = 8
        eigs = np.array([0.9, 0.9, 0.9, 0.6, 0.3, 0.3, 0.0, 0.0])
        q = random_orthogonal(rng, dim)
        a = random_psd(rng, dim)
        b = Dmat((q * eigs) @ q.T)
        base = spectral_decompose(b)
        rotated = np.array(base.eigenvectors)
        for start, stop in [(0, 3), (4, 6), (6, 8)]:
            rotated[:, start:stop] = rotated[:, start:stop] @ random_orthogonal(rng, stop - start)
        twin = Dmat(b.matrix)
        # hand the twin the same spectrum with another orthonormal basis of each eigenspace
        object.__setattr__(twin, "_spectral", SpectralDecomposition(base.eigenvalues, rotated))
        assert not np.allclose(spectral_decompose(twin).eigenvectors, base.eigenvectors)
        _assert_relatively_close(fuzz(a, twin).matrix, fuzz(a, b).matrix, a, b)

    def test_memory_is_a_few_square_arrays(self, rng):
        # 300 distinct eigenvalues: one projector per group would hold
        # hundreds of d x d arrays; the eigenbasis route holds a few
        dim = 300
        a = random_psd(rng, dim)
        b = random_psd(rng, dim)
        assert len(spectral_decompose(b).eigenvalue_groups()) == dim
        tracemalloc.start()
        try:
            fuzz(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * dim * dim * 8


class TestPhaser:
    def test_square_root_conjugation(self):
        out = phaser(PLUS, B_DIAG)
        np.testing.assert_allclose(
            out.matrix, np.array([[0.5, 0.25], [0.25, 0.125]]), atol=1e-12
        )

    def test_commuting_diagonal(self):
        a = from_diagonal([0.0, 1.0, 1.0, 1.0])
        b = from_diagonal([0.5, 1 / 3, 1 / 6, 0.0])
        np.testing.assert_allclose(
            phaser(a, b).matrix, np.diag([0.0, 1 / 3, 1 / 6, 0.0]), atol=1e-12
        )

    def test_support_inverse_flattens(self):
        x = from_diagonal([0.75, 0.5, 0.0])
        np.testing.assert_allclose(
            phaser(x, neg_supp(x)).matrix, np.diag([1.0, 1.0, 0.0]), atol=1e-10
        )


def _pure_negation(rng, dim: int) -> Dmat:
    """`neg_inv` at 0.5 of a pure word: exactly c·I, c within ulps of 0.5 (the grid's operand at basis w)."""
    a = rng.normal(size=dim)
    out = neg_inv(rescale_max_eig(Dmat(np.outer(a, a))), 0.5)
    assert np.count_nonzero(out.matrix - out.matrix[0, 0] * np.eye(dim)) == 0
    return out


def _near_scalar(rng, dim: int) -> Dmat:
    """c·I rotated, its eigenvalues a few ulps apart: a scalar only to roundoff."""
    v = random_orthogonal(rng, dim)
    m = (v * (0.5 + np.arange(dim) * EPS)) @ v.T
    out = Dmat((m + m.T) / 2.0)
    assert np.count_nonzero(out.matrix - np.diag(np.diagonal(out.matrix)))
    return out


def _phaser_reference(A: Dmat, B: Dmat) -> np.ndarray:
    """The d×d phaser: A conjugated by B's square root, from B's own eigh."""
    w, v = np.linalg.eigh(B.matrix)
    root = (v * np.sqrt(np.maximum(w, 0.0))) @ v.T
    return root @ A.matrix @ root


class TestScalarOperand:
    """A scalar operand c·I: spider, fuzz, phaser and mult solve nothing for it.

    Each output is checked against its d×d formula within `_assert_relatively_close`'s
    1e-12 of the product's scale, and decomposed with no solve once its other
    operand is.
    """

    @pytest.mark.parametrize("dim", [1, 2, 7, 20])
    def test_spider_equals_mult(self, dim, rng, eigen_solves):
        a, scalar = random_psd(rng, dim, rank=max(1, dim // 2)), _pure_negation(rng, dim)
        eigen_solves.clear()
        out, ref = spider(a, scalar), mult(a, scalar)
        # bit for bit but for the sign of zero: mult's entries a_ij * 0 are -0.0 where a_ij < 0
        assert (out.matrix + 0.0).tobytes() == (ref.matrix + 0.0).tobytes()
        assert out.eigenvalues.tobytes() == ref.eigenvalues.tobytes()
        assert np.array_equal(spectral_decompose(out).eigenvectors, spectral_decompose(ref).eigenvectors)
        assert eigen_solves == []

    @pytest.mark.parametrize("scalar", [_pure_negation, _near_scalar])
    @pytest.mark.parametrize("dim", [2, 7, 20])
    def test_fuzz_and_phaser_with_scalar_structure(self, dim, scalar, rng, eigen_solves):
        a, s = random_psd(rng, dim, rank=max(1, dim // 2)), scalar(rng, dim)
        spectral_decompose(a), spectral_decompose(s)
        refs = {fuzz: _fuzz_projector_loop(a, s), phaser: _phaser_reference(a, s)}
        eigen_solves.clear()
        for fn, ref in refs.items():
            out = fn(a, s)
            _assert_relatively_close(out.matrix, ref, a, s)
            _assert_relatively_close(spectral_decompose(out).reconstruct(), ref, a, s)
        assert eigen_solves == []

    @pytest.mark.parametrize("scalar", [_pure_negation, _near_scalar])
    @pytest.mark.parametrize("dim", [2, 7, 20])
    def test_phaser_with_scalar_operand(self, dim, scalar, rng, eigen_solves):
        # B rank deficient: its roundoff kernel is cut, as phaser cuts it before the root
        s, b = scalar(rng, dim), random_psd(rng, dim, rank=max(1, dim // 2))
        spectral_decompose(b)
        ref = _phaser_reference(s, b)
        eigen_solves.clear()
        out = phaser(s, b)
        _assert_relatively_close(out.matrix, ref, s, b)
        _assert_relatively_close(spectral_decompose(out).reconstruct(), ref, s, b)
        assert np.all(spectral_decompose(out).eigenvalues[spectral_decompose(b).roundoff_rank:] == 0.0)
        assert eigen_solves == []


class TestMultDiag:
    def test_mult_entrywise(self):
        np.testing.assert_allclose(
            mult(PLUS, B_DIAG).matrix, np.array([[0.5, 0.0], [0.0, 0.125]])
        )

    def test_mult_with_identity_keeps_diagonal(self):
        np.testing.assert_allclose(
            mult(PLUS, identity(2)).matrix, np.diag([0.5, 0.5])
        )

    def test_mult_with_all_ones_is_identity_element(self):
        ones = Dmat(np.ones((2, 2)))
        np.testing.assert_array_equal(mult(PLUS, ones).matrix, PLUS.matrix)

    def test_diag_product(self):
        np.testing.assert_allclose(
            diag_comp(PLUS, B_DIAG).matrix, np.diag([0.5, 0.125])
        )

    def test_diag_solves_nothing(self, rng, eigen_solves):
        a, b = random_psd(rng, 5), random_psd(rng, 5, rank=2)
        eigen_solves.clear()
        out = diag_comp(a, b)
        product = np.diagonal(a.matrix) * np.diagonal(b.matrix)
        np.testing.assert_array_equal(out.eigenvalues, np.sort(product))
        np.testing.assert_array_equal(spectral_decompose(out).eigenvectors, np.eye(5)[:, np.argsort(-product, kind="stable")])
        assert eigen_solves == []

    def test_diag_with_identity(self):
        np.testing.assert_allclose(
            diag_comp(identity(2), B_DIAG).matrix, np.diag([1.0, 0.25])
        )

    def test_diag_with_unit_diagonal(self):
        unit_diag = Dmat(np.array([[1.0, 0.5], [0.5, 1.0]]))
        np.testing.assert_allclose(
            diag_comp(PLUS, unit_diag).matrix, np.diag([0.5, 0.5])
        )


class TestTable:
    def test_one_entry_per_kind(self):
        assert list(COMPOSITIONS) == list(CompositionKind)
        assert list(COMPOSITIONS.values()) == [spider, fuzz, phaser, mult, diag_comp]
        with pytest.raises(TypeError):
            COMPOSITIONS[CompositionKind.MULT] = spider


class TestSharedProperties:
    @pytest.mark.parametrize("comp", [spider, fuzz, phaser, mult, diag_comp])
    def test_symmetric_psd_outputs(self, comp, rng):
        for _ in range(15):
            a = random_psd(rng, 4, rank=int(rng.integers(1, 5)))
            b = random_psd(rng, 4, rank=int(rng.integers(1, 5)))
            out = comp(a, b).matrix
            assert np.linalg.norm(out - out.T) <= 1e-9
            assert np.linalg.eigvalsh(out)[0] >= -1e-9

    def test_support_inverse_flattening_random(self, rng):
        for _ in range(20):
            x = random_psd(rng, 4, rank=int(rng.integers(1, 5)), repeat_prob=0.3)
            target = support_projector(x).matrix
            inv = neg_supp(x)
            for comp in (spider, fuzz, phaser):
                assert np.linalg.norm(comp(x, inv).matrix - target) <= 1e-8

    def test_commuting_operands_coincide(self, rng):
        for _ in range(15):
            q = random_orthogonal(rng, 4)
            a_eigs = rng.uniform(0.0, 1.0, size=4)
            b_eigs = np.array([1.0, 0.7, 0.4, 0.1]) * rng.uniform(0.8, 1.2)
            a = Dmat((q * a_eigs) @ q.T)
            b = Dmat((q * b_eigs) @ q.T)
            expected = (q * (a_eigs * b_eigs)) @ q.T
            for comp in (spider, fuzz, phaser):
                assert np.linalg.norm(comp(a, b).matrix - expected) <= 1e-9
