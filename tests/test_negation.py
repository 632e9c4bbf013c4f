import warnings

import numpy as np
import pytest

from convneg.errors import EmptyKernelWarning, NotNormalizedError, WeightOutOfRangeError, ZeroMatrixError
from convneg.negation import neg_inv, neg_ker, neg_sub, neg_supp
from convneg.sampling import random_orthogonal, random_psd
from convneg.spectral import Dmat, _born, spectral_decompose

from conftest import from_diagonal, identity


class TestNegSub:
    def test_pure_state(self):
        out = neg_sub(from_diagonal([1.0, 0.0]))
        np.testing.assert_allclose(out.matrix, np.diag([0.0, 1.0]))

    def test_toy_apple(self, onb):
        # the pure first basis state flips to the rest of the basis
        out = neg_sub(onb["apple"])
        np.testing.assert_allclose(out.matrix, np.diag([0.0, 1.0, 1.0, 1.0]))

    def test_eigenvalue_arithmetic(self):
        out = neg_sub(from_diagonal([0.5, 0.0]))
        np.testing.assert_allclose(out.matrix, np.diag([0.5, 1.0]))

    def test_requires_normalized_input(self):
        with pytest.raises(NotNormalizedError):
            neg_sub(from_diagonal([2.0, 0.0]))



class TestNegSupp:
    def test_diagonal(self):
        out = neg_supp(from_diagonal([0.5, 0.0]))
        np.testing.assert_allclose(out.matrix, np.diag([2.0, 0.0]))

    def test_identity_self_inverse(self):
        out = neg_supp(identity(3))
        np.testing.assert_allclose(out.matrix, np.eye(3), atol=1e-12)

    def test_three_values(self):
        out = neg_supp(from_diagonal([0.5, 0.25, 0.0]))
        np.testing.assert_allclose(out.matrix, np.diag([2.0, 4.0, 0.0]))

    def test_rank_zero_rejected(self):
        with pytest.raises(ZeroMatrixError):
            neg_supp(Dmat(np.zeros((2, 2))))

    def test_double_application(self, rng):
        for _ in range(20):
            x = random_psd(rng, 5, rank=3)
            assert np.linalg.norm(neg_supp(neg_supp(x)).matrix - x.matrix) <= 1e-8

    def test_output_unnormalized(self):
        # eigenvalues above 1 are expected; normalization happens downstream
        out = neg_supp(from_diagonal([0.25, 0.0]))
        assert out.max_eigenvalue() == pytest.approx(4.0)


class TestNegKer:
    def test_diagonal(self):
        out = neg_ker(from_diagonal([0.5, 0.0]))
        np.testing.assert_allclose(out.matrix, np.diag([0.0, 1.0]))

    def test_three_values(self):
        out = neg_ker(from_diagonal([0.5, 0.25, 0.0]))
        np.testing.assert_allclose(out.matrix, np.diag([0.0, 0.0, 1.0]))

    def test_double_application_flattens_support(self):
        # applying twice lands on the flat state over the original support
        out = neg_ker(neg_ker(from_diagonal([0.5, 0.0])))
        np.testing.assert_allclose(out.matrix, np.diag([1.0, 0.0]))

    def test_invertible_input_warns_and_returns_zero(self):
        with pytest.warns(EmptyKernelWarning):
            out = neg_ker(identity(2))
        np.testing.assert_array_equal(out.matrix, np.zeros((2, 2)))


class TestNegInv:
    def test_equal_mixture(self):
        out = neg_inv(from_diagonal([0.5, 0.0]), 0.5)
        np.testing.assert_allclose(out.matrix, np.diag([1.0, 0.5]))

    def test_weight_one_is_support_inverse(self, rng):
        x = random_psd(rng, 4, rank=2)
        np.testing.assert_allclose(neg_inv(x, 1.0).matrix, neg_supp(x).matrix)

    def test_weight_zero_is_kernel_projector(self):
        out = neg_inv(from_diagonal([0.5, 0.0]), 0.0)
        np.testing.assert_allclose(out.matrix, np.diag([0.0, 1.0]))

    def test_weight_zero_is_neg_ker_without_its_warning(self, rng, recwarn):
        for x in (identity(3), random_psd(rng, 4), random_psd(rng, 4, rank=2), Dmat(np.zeros((2, 2)))):
            out = neg_inv(x, 0.0)
            assert not recwarn.list
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", EmptyKernelWarning)
                assert out.matrix.tobytes() == neg_ker(x).matrix.tobytes()

    def test_weight_out_of_range(self):
        with pytest.raises(WeightOutOfRangeError):
            neg_inv(identity(2), 1.5)

    def test_invertible_input_no_warning_leaks(self, rng, recwarn):
        neg_inv(random_psd(rng, 3), 0.5)
        assert not [w for w in recwarn.list if issubclass(w.category, EmptyKernelWarning)]

    def test_invertible_input_leaves_warning_filters_alone(self, rng, monkeypatch):
        # catch_warnings swaps process-wide state, which races between threads
        def forbidden(*args, **kwargs):
            raise AssertionError("neg_inv entered warnings.catch_warnings")

        x = random_psd(rng, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            monkeypatch.setattr(warnings, "catch_warnings", forbidden)
            out = neg_inv(x, 0.5)
        np.testing.assert_array_equal(out.matrix, 0.5 * neg_supp(x).matrix)

    @pytest.mark.parametrize("ulps", [0, 3])
    def test_pure_word_is_exactly_scalar(self, rng, ulps, eigen_solves):
        # a pure word of top t maps to 0.5 / t on its support and 0.5 on its kernel,
        # one value to roundoff; normalize_max_eig never scales upward, so t can sit
        # a few ulps below 1
        dim, top = 6, 1.0
        for _ in range(ulps):
            top = np.nextafter(top, 0.0)
        v = random_orthogonal(rng, dim)
        values = np.append(top, np.zeros(dim - 1))
        word = _born(top * np.outer(v[:, 0], v[:, 0]), np.sort(values), lambda: (values, v))
        spectral_decompose(word)
        eigen_solves.clear()
        out = neg_inv(word, 0.5)
        c = 0.5 / top
        assert c == 0.5 if ulps == 0 else 0.5 < c <= 0.5 + 2 * np.spacing(0.5)
        assert out.matrix.tobytes() == (c * np.eye(dim)).tobytes()
        decomp = spectral_decompose(out)
        assert np.array_equal(decomp.eigenvectors, np.eye(dim)) and np.all(decomp.eigenvalues == c)
        assert np.all(out.eigenvalues == c)
        assert eigen_solves == []


def test_negations_preserve_eigenspaces(rng):
    # outputs are spectral functions of the input: same eigenspace projectors
    from convneg.spectral import spectral_decompose

    for _ in range(20):
        x = random_psd(rng, 5, rank=4, repeat_prob=0.4)
        groups = spectral_decompose(x).eigenspaces()
        cut = spectral_decompose(x).support_cut()
        supp = neg_supp(x).matrix
        expected = sum((1.0 / v if v > cut else 0.0) * p for v, p in groups)
        assert np.linalg.norm(supp - expected) <= 1e-8
