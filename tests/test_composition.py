import numpy as np
import pytest

from convneg.composition import (
    BasisSlot,
    CompositionKind,
    compose,
    diag_comp,
    fuzz,
    mult,
    phaser,
    spider,
)
from convneg.errors import DimensionMismatchError
from convneg.negation import neg_supp
from convneg.sampling import random_orthogonal, random_psd
from convneg.spectral import Dmat, support_projector

PLUS = Dmat(np.full((2, 2), 0.5))  # rank-1 state on the diagonal direction
B_DIAG = Dmat.from_diagonal([1.0, 0.25])


class TestSpider:
    def test_worked_toy_example(self, onb, fruit_raw):
        # negated pure state composed with the fruit context keeps the
        # proportions of the other fruits
        negated = Dmat.from_diagonal([0.0, 1.0, 1.0, 1.0])
        out = spider(negated, fruit_raw)
        np.testing.assert_allclose(out.matrix, np.diag([0.0, 1 / 3, 1 / 6, 0.0]), atol=1e-12)

    def test_support_inverse_flattens(self):
        x = Dmat.from_diagonal([0.75, 0.5, 0.0])
        out = spider(x, neg_supp(x))
        np.testing.assert_allclose(out.matrix, np.diag([1.0, 1.0, 0.0]), atol=1e-10)

    def test_hadamard_in_structural_basis(self):
        out = spider(PLUS, B_DIAG)
        np.testing.assert_allclose(out.matrix, np.array([[0.5, 0.0], [0.0, 0.125]]), atol=1e-12)

    def test_equals_mult_for_diagonal_structure(self, rng):
        for _ in range(20):
            a = random_psd(rng, 4)
            b = Dmat.from_diagonal(rng.uniform(0.0, 1.0, size=4))
            assert np.linalg.norm(spider(a, b).matrix - mult(a, b).matrix) <= 1e-9

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


class TestFuzz:
    def test_projector_weighted_sum(self):
        out = fuzz(PLUS, B_DIAG)
        np.testing.assert_allclose(out.matrix, np.diag([0.5, 0.125]), atol=1e-12)

    def test_commuting_diagonal(self):
        a = Dmat.from_diagonal([0.0, 1.0, 1.0, 1.0])
        b = Dmat.from_diagonal([0.5, 1 / 3, 1 / 6, 0.0])
        out = fuzz(a, b)
        np.testing.assert_allclose(out.matrix, np.diag([0.0, 1 / 3, 1 / 6, 0.0]), atol=1e-12)

    def test_support_inverse_flattens(self):
        x = Dmat.from_diagonal([0.75, 0.5, 0.0])
        out = fuzz(x, neg_supp(x))
        np.testing.assert_allclose(out.matrix, np.diag([1.0, 1.0, 0.0]), atol=1e-10)

    def test_degenerate_grouping_keeps_block(self, rng):
        # a degenerate structural eigenvalue must keep A's within-block structure
        a = random_psd(rng, 3)
        b = Dmat.from_diagonal([0.5, 0.5, 0.0])
        out = fuzz(a, b).matrix
        np.testing.assert_allclose(out[:2, :2], 0.5 * a.matrix[:2, :2], atol=1e-10)
        assert abs(out[2, 2]) <= 1e-12


class TestPhaser:
    def test_square_root_conjugation(self):
        out = phaser(PLUS, B_DIAG)
        np.testing.assert_allclose(
            out.matrix, np.array([[0.5, 0.25], [0.25, 0.125]]), atol=1e-12
        )

    def test_commuting_diagonal(self):
        a = Dmat.from_diagonal([0.0, 1.0, 1.0, 1.0])
        b = Dmat.from_diagonal([0.5, 1 / 3, 1 / 6, 0.0])
        np.testing.assert_allclose(
            phaser(a, b).matrix, np.diag([0.0, 1 / 3, 1 / 6, 0.0]), atol=1e-12
        )

    def test_support_inverse_flattens(self):
        x = Dmat.from_diagonal([0.75, 0.5, 0.0])
        np.testing.assert_allclose(
            phaser(x, neg_supp(x)).matrix, np.diag([1.0, 1.0, 0.0]), atol=1e-10
        )


class TestMultDiag:
    def test_mult_entrywise(self):
        np.testing.assert_allclose(
            mult(PLUS, B_DIAG).matrix, np.array([[0.5, 0.0], [0.0, 0.125]])
        )

    def test_mult_with_identity_keeps_diagonal(self):
        np.testing.assert_allclose(
            mult(PLUS, Dmat.identity(2)).matrix, np.diag([0.5, 0.5])
        )

    def test_mult_with_all_ones_is_identity_element(self):
        ones = Dmat(np.ones((2, 2)))
        np.testing.assert_array_equal(mult(PLUS, ones).matrix, PLUS.matrix)

    def test_diag_product(self):
        np.testing.assert_allclose(
            diag_comp(PLUS, B_DIAG).matrix, np.diag([0.5, 0.125])
        )

    def test_diag_with_identity(self):
        np.testing.assert_allclose(
            diag_comp(Dmat.identity(2), B_DIAG).matrix, np.diag([1.0, 0.25])
        )

    def test_diag_with_unit_diagonal(self):
        unit_diag = Dmat(np.array([[1.0, 0.5], [0.5, 1.0]]))
        np.testing.assert_allclose(
            diag_comp(PLUS, unit_diag).matrix, np.diag([0.5, 0.5])
        )


class TestCompose:
    def test_slot_selects_structural_operand(self, rng):
        a = random_psd(rng, 3)
        b = random_psd(rng, 3)
        np.testing.assert_array_equal(
            compose(a, b, CompositionKind.PHASER, BasisSlot.FIRST_OPERAND).matrix,
            phaser(b, a).matrix,
        )
        np.testing.assert_array_equal(
            compose(a, b, CompositionKind.PHASER, BasisSlot.SECOND_OPERAND).matrix,
            phaser(a, b).matrix,
        )

    def test_mult_ignores_slot(self, rng):
        a = random_psd(rng, 3)
        b = random_psd(rng, 3)
        np.testing.assert_array_equal(
            compose(a, b, CompositionKind.MULT, BasisSlot.FIRST_OPERAND).matrix,
            compose(a, b, CompositionKind.MULT, BasisSlot.SECOND_OPERAND).matrix,
        )

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            compose(Dmat.identity(2), Dmat.identity(3), CompositionKind.SPIDER)


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
