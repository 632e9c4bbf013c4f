import math

import numpy as np
import pytest

from convneg.negation import neg_ker, neg_supp

from convneg.errors import (
    DimensionMismatchError,
    NonSymmetricError,
    NotPSDError,
    ZeroMatrixError,
)
from convneg.sampling import random_orthogonal, random_psd
from convneg import spectral
from convneg.spectral import (
    Dmat,
    _born,
    _decompose,
    _decomposed,
    _roundoff_cut,
    _scaled,
    loewner_leq,
    normalize_max_eig,
    rescale_max_eig,
    spectral_decompose,
    support_projector,
)

from conftest import from_diagonal, identity


class TestDmatInvariants:
    def test_rejects_asymmetry(self):
        with pytest.raises(NonSymmetricError):
            Dmat(np.array([[1.0, 0.1], [0.0, 1.0]]))

    def test_asymmetry_message_names_its_size(self):
        with pytest.raises(NonSymmetricError, match=r"^asymmetry 2\.000e-10 exceeds 1e-10$"):
            Dmat(np.array([[1.0, 0.5 + 2e-10], [0.5, 1.0]]))

    def test_accepts_asymmetry_within_tolerance(self):
        m = np.array([[1.0, 0.5 + 5e-11], [0.5, 1.0]])
        assert np.array_equal(Dmat(m).matrix, m)

    def test_mirrored_signed_zeros_are_symmetric(self):
        # -0.0 == 0.0, so the exact comparison treats the mirror as symmetric
        m = np.array([[1.0, -0.0, 0.0], [0.0, 1.0, -0.0], [-0.0, 0.0, 1.0]])
        assert np.array_equal(Dmat(m).eigenvalues, [1.0, 1.0, 1.0])

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(NotPSDError):
            Dmat(np.array([[1.0, 0.0], [0.0, -0.5]]))

    def test_tolerates_roundoff_negativity(self):
        m = Dmat(np.diag([1.0, -1e-10]))
        assert m.dim == 2

    @pytest.mark.parametrize("scale", [1e8, 1e10, 1e20, 1e50, 1e100, 1e150])
    def test_psd_cut_is_relative_to_the_top(self, rng, scale):
        # s·A's roundoff-negative eigenvalue, about -2e-16·s here, passes PSD_TOL only
        # below s = 5e6; the cut is -max(PSD_TOL, _roundoff_cut of the top), in validation
        # and in decomposition alike
        a = random_psd(rng, 20, rank=3).matrix
        assert np.linalg.eigvalsh(scale * a)[0] < -1e-9
        for m in (Dmat(scale * a), _decomposed(scale * a), Dmat(scale * a, spectrum=lambda _: np.zeros(20))):
            np.testing.assert_allclose(spectral_decompose(m).eigenvalues[:3] / scale, np.linalg.eigvalsh(a)[:-4:-1], rtol=1e-12)
        with pytest.raises(NotPSDError, match="below -"):
            Dmat(scale * (a - 1e-6 * np.eye(20)))
        with pytest.raises(NotPSDError, match="below -"):
            spectral_decompose(Dmat(scale * (a - 1e-6 * np.eye(20)), spectrum=lambda _: np.zeros(20)))

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatchError):
            Dmat(np.zeros((2, 3)))

    def test_matrix_is_readonly(self):
        m = identity(3)
        with pytest.raises(ValueError):
            m.matrix[0, 0] = 2.0


class TestSpectralDecompose:
    def test_diagonal_input_keeps_standard_basis(self):
        decomp = spectral_decompose(from_diagonal([0.5, 1 / 3, 1 / 6, 0.0]))
        np.testing.assert_allclose(decomp.eigenvalues, [0.5, 1 / 3, 1 / 6, 0.0])
        assert np.count_nonzero(np.abs(decomp.eigenvectors) > 1e-12) == 4

    def test_identity_eigenvalues(self):
        decomp = spectral_decompose(identity(3))
        np.testing.assert_allclose(decomp.eigenvalues, [1.0, 1.0, 1.0])

    def test_reconstruction_dim8(self, rng):
        m = random_psd(rng, 8, rank=5, repeat_prob=0.3)
        rebuilt = spectral_decompose(m).reconstruct()
        scale = max(1.0, np.linalg.norm(m.matrix))
        assert np.linalg.norm(rebuilt - m.matrix) <= 1e-8 * scale

    def test_orthonormality(self, rng):
        v = spectral_decompose(random_psd(rng, 6)).eigenvectors
        assert np.linalg.norm(v.T @ v - np.eye(6)) <= 1e-8

    def test_kernel_clamped_to_zero(self, rng):
        # negatives clamp to exact zero; kernel roundoff may stay tiny-positive
        m = random_psd(rng, 5, rank=2)
        decomp = spectral_decompose(m)
        assert np.all(decomp.eigenvalues >= 0.0)
        assert decomp.rank() == 2
        assert np.all(decomp.eigenvalues[2:] <= 1e-12)

    def test_deterministic_for_identical_input(self, rng):
        m = random_psd(rng, 5, repeat_prob=0.5)
        d1 = spectral_decompose(m)
        d2 = spectral_decompose(Dmat(m.matrix.copy()))
        np.testing.assert_array_equal(d1.eigenvalues, d2.eigenvalues)
        np.testing.assert_array_equal(d1.eigenvectors, d2.eigenvectors)

    def test_descending_contiguous_pairs(self, rng):
        m = random_psd(rng, 12, rank=7, repeat_prob=0.5)
        decomp = spectral_decompose(m)
        assert np.all(np.diff(decomp.eigenvalues) <= 0.0)
        assert decomp.eigenvectors.flags["C_CONTIGUOUS"]
        np.testing.assert_allclose(m.matrix @ decomp.eigenvectors, decomp.eigenvectors * decomp.eigenvalues, atol=1e-12)

    def test_diagonal_ties_keep_index_order(self):
        decomp = spectral_decompose(from_diagonal([0.5, 0.5, 0.25, 0.0, 0.5]))
        assert decomp.eigenvalues.tolist() == [0.5, 0.5, 0.5, 0.25, 0.0]
        assert decomp.eigenvectors.tobytes() == np.eye(5)[:, [0, 1, 4, 2, 3]].tobytes()

    def test_group_of_equal_eigenvalues_takes_their_value(self):
        # the mean of three copies of this value misses it by an ulp
        value = 0.8132702392002724
        assert float(np.mean([value] * 3)) != value
        decomp = spectral_decompose(from_diagonal([value, value, 0.3, value]))
        assert decomp.eigenvalue_groups() == [(value, 0, 3), (0.3, 3, 4)]

    def test_eigenspaces_sum_to_identity(self, rng):
        m = random_psd(rng, 6, rank=4, repeat_prob=0.5)
        groups = spectral_decompose(m).eigenspaces()
        total = sum(proj for _, proj in groups)
        np.testing.assert_allclose(total, np.eye(6), atol=1e-10)

    def test_degenerate_projectors_match_across_rotation_noise(self, rng):
        # projector sums per eigenvalue are the stable object for repeated spectra
        q = random_orthogonal(rng, 4)
        eigs = np.array([0.7, 0.7, 0.2, 0.0])
        m = Dmat((q * eigs) @ q.T)
        groups = spectral_decompose(m).eigenspaces()
        assert [round(v, 9) for v, _ in groups] == [0.7, 0.2, 0.0]
        assert all(np.allclose(p @ p, p, atol=1e-10) for _, p in groups)


def loop_apply(decomp, fn):
    """A spectral function with `fn` called once per eigenvalue."""
    v = decomp.eigenvectors
    out = (v * np.array([fn(lam) for lam in decomp.eigenvalues])) @ v.T
    return (out + out.T) / 2.0


def test_spectral_functions_match_per_eigenvalue_loop(rng):
    # np.sqrt and np.divide round exactly as math.sqrt and / do
    for dim in range(1, 51):
        X = random_psd(rng, dim, rank=int(rng.integers(1, dim + 1)), repeat_prob=0.3)
        decomp = spectral_decompose(X)
        cut = decomp.support_cut()
        cases = [
            (neg_supp(X).matrix, lambda lam: 1.0 / lam if lam > cut else 0.0),
            (support_projector(X).matrix, lambda lam: 1.0 if lam > cut else 0.0),
            (decomp.apply(np.sqrt), math.sqrt),
        ]
        if decomp.rank() < dim:
            cases.append((neg_ker(X).matrix, lambda lam: 0.0 if lam > cut else 1.0))
        for got, fn in cases:
            assert got.tobytes() == loop_apply(decomp, fn).tobytes(), dim


class TestDecompositionCache:
    def test_second_call_returns_same_object(self, rng):
        m = random_psd(rng, 6, rank=4)
        assert spectral_decompose(m) is spectral_decompose(m)

    def test_cached_arrays_are_readonly(self, rng):
        m = random_psd(rng, 5)
        decomp = spectral_decompose(m)
        for array in (decomp.eigenvalues, decomp.eigenvectors, m.eigenvalues):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 1.0

    def test_max_eigenvalue_matches_eigvalsh_bitwise(self, rng):
        for dim in (1, 2, 7, 30):
            m = random_psd(rng, dim, repeat_prob=0.3)
            assert m.max_eigenvalue() == float(np.linalg.eigvalsh(m.matrix)[-1])

    def test_small_negative_eigenvalue_clamped_once_and_cached(self, rng):
        q = random_orthogonal(rng, 3)
        for matrix in (np.diag([1.0, 0.5, -1e-10]), (q * [1.0, 0.5, -1e-10]) @ q.T):
            m = Dmat((matrix + matrix.T) / 2.0)
            # -1e-10 is within PSD_TOL: clamped to 0 once, in the cached decomposition
            assert spectral_decompose(m) is spectral_decompose(m)
            assert spectral_decompose(m).rank() == 2


class TestDecomposed:
    """`_decomposed` validates with one eigh and builds the decomposition from it at construction."""

    def test_one_eigh_serves_validation_and_decomposition(self, rng, monkeypatch):
        matrix = random_psd(rng, 7, rank=5).matrix
        calls = []
        real_eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda *args: calls.append("eigvalsh"))
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append("eigh") or real_eigh(a))
        m = _decomposed(matrix)
        decomp = m._spectral
        assert calls == ["eigh"] and decomp is not None
        assert spectral_decompose(m) is decomp
        assert calls == ["eigh"]
        w, v = real_eigh(matrix)
        assert m.eigenvalues.tobytes() == w.tobytes()
        np.testing.assert_array_equal(decomp.eigenvalues, np.maximum(w[::-1], 0.0))
        np.testing.assert_array_equal(decomp.eigenvectors, v[:, ::-1])
        for array in (m.eigenvalues, decomp.eigenvalues, decomp.eigenvectors):
            assert not array.flags.writeable
        assert decomp.eigenvectors.flags.c_contiguous

    def test_diagonal_keeps_the_standard_basis(self, eigen_solves):
        # validated by its sorted diagonal and decomposed by the diagonal rule: nothing is solved
        m = _decomposed(np.diag([0.25, 1.0, 0.25]))
        np.testing.assert_array_equal(spectral_decompose(m).eigenvectors, np.eye(3)[:, [1, 0, 2]])
        np.testing.assert_array_equal(m.eigenvalues, [0.25, 0.25, 1.0])
        assert eigen_solves == []

    def test_nan_raises_not_psd(self):
        with pytest.raises(NotPSDError, match="non-finite"):
            _decomposed(np.array([[1.0, np.nan], [np.nan, 1.0]]))

    def test_asymmetry_raises_before_the_solve(self):
        with pytest.raises(NonSymmetricError):
            _decomposed(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_negative_eigenvalue_raises_not_psd(self):
        with pytest.raises(NotPSDError):
            _decomposed(np.diag([1.0, -0.1]))


class TestDecomposeThenRescale:
    """Decomposing at construction, then rescaling, gives the bits of rescaling, then decomposing.

    Dividing by the scale commutes with the clamp of roundoff-negative
    eigenvalues and with the descending order, as long as no quotient
    underflows or rounds two distinct diagonal entries together; no case
    here does.
    """

    @staticmethod
    def cases(rng):
        full = [random_psd(rng, dim).matrix * scale for dim in (2, 7, 20) for scale in (0.3, 1.0, 4.0)]
        draws = [random_psd(rng, 9, rank=4).matrix * 2.5 for _ in range(20)]
        # ones whose lowest kernel eigenvalue rounds negative, so it is clamped
        deficient = [matrix for matrix in draws if np.linalg.eigh(matrix)[0][0] < 0.0]
        assert len(deficient) >= 4
        diagonal = [np.diag([0.5, 2.0, 0.5, 2.0, 0.0]), np.diag([0.25, 0.25, 0.25]), 3.0 * np.diag([1.0, 0.0, 1.0])]
        return full + deficient + diagonal

    @pytest.mark.parametrize("rescale, scale", [
        (rescale_max_eig, lambda top: top),
        (normalize_max_eig, lambda top: max(1.0, top)),
    ])
    def test_matches_the_rescale_first_route(self, rng, rescale, scale):
        for matrix in self.cases(rng):
            rescaled = rescale(_decomposed(matrix))
            w, v = np.linalg.eigh(matrix)
            s = scale(w[-1])
            before = _decompose(rescaled.matrix, (w / s, v))
            after = spectral_decompose(rescaled)
            assert after.eigenvalues.tobytes() == before.eigenvalues.tobytes()
            assert after.eigenvectors.tobytes() == before.eigenvectors.tobytes()

    @pytest.mark.parametrize("matrix", [
        np.diag([0.5, 0.0, 0.5]),
        np.array([[1.0, -0.0], [-0.0, 0.5]]),
        np.array([[1.0, 5e-324], [5e-324, 0.5]]),
        np.array([[0.0, 5e-324], [5e-324, 0.0]]),
        np.array([[1.0, 0.0], [5e-324, 0.5]]),
    ])
    def test_diagonal_rule_matches_the_off_diagonal_difference(self, matrix, monkeypatch):
        # the fast path is taken exactly when m - diag(diagonal(m)) has no nonzero entry
        calls = []
        real_eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a) or real_eigh(a))
        _decompose(matrix)
        assert (calls == []) == (np.count_nonzero(matrix - np.diag(np.diagonal(matrix))) == 0)


class TestIsZero:
    """`Dmat.is_zero` is the Frobenius rule, read off the kept top eigenvalue where that settles it."""

    def test_no_norm_when_the_top_eigenvalue_is_above_the_cut(self, rng, monkeypatch):
        norms = []
        real = Dmat.frobenius_norm
        monkeypatch.setattr(Dmat, "frobenius_norm", lambda m: norms.append(m) or real(m))
        for m in [random_psd(rng, 5) for _ in range(3)] + [from_diagonal([2e-12, 0.0]), Dmat(1e-10 * np.eye(4))]:
            assert not m.is_zero()
        assert norms == []

    @pytest.mark.parametrize(
        "matrix",
        [
            np.zeros((3, 3)),
            1e-13 * np.eye(2),
            np.diag([1e-12, 0.0]),
            5e-13 * np.eye(10),  # top 5e-13, norm 1.6e-12
            None,  # a normalized word
        ],
    )
    def test_agrees_with_the_frobenius_rule(self, rng, matrix):
        m = normalize_max_eig(Dmat(3.0 * random_psd(rng, 4).matrix)) if matrix is None else Dmat(matrix)
        assert m.is_zero() == (m.frobenius_norm() < spectral.ZERO_NORM_TOL)


class TestNormalize:
    def test_scales_down(self):
        out = normalize_max_eig(from_diagonal([2.0, 0.0]))
        np.testing.assert_allclose(out.matrix, np.diag([1.0, 0.0]))
        assert out.max_eigenvalue() == 1.0

    def test_leaves_small_matrices_alone(self):
        m = from_diagonal([0.5, 1 / 3])
        out = normalize_max_eig(m)
        np.testing.assert_array_equal(out.matrix, m.matrix)

    def test_support_inverse_then_normalize(self):
        # eigenvalues (1/2, 1/4) invert to (2, 4); dividing by 4 gives (1/2, 1)
        from convneg.negation import neg_supp

        out = normalize_max_eig(neg_supp(from_diagonal([0.5, 0.25])))
        np.testing.assert_allclose(out.matrix, np.diag([0.5, 1.0]), atol=1e-12)

    def test_zero_matrix_rejected(self):
        with pytest.raises(ZeroMatrixError):
            normalize_max_eig(Dmat(np.zeros((2, 2))))

    def test_rescale_scales_up(self):
        out = rescale_max_eig(from_diagonal([0.5, 1 / 3, 1 / 6, 0.0]))
        np.testing.assert_allclose(out.matrix, np.diag([1.0, 2 / 3, 1 / 3, 0.0]), atol=1e-12)

    def test_output_always_capped(self, rng):
        for _ in range(25):
            m = Dmat(random_psd(rng, 4).matrix * rng.uniform(0.1, 5.0))
            assert normalize_max_eig(m).max_eigenvalue() <= 1.0 + 1e-9


class TestRescaleWithoutSolve:
    """normalize_max_eig and rescale_max_eig check their result against the input's spectrum."""

    def test_no_eigensolve(self, rng, monkeypatch):
        inputs = [random_psd(rng, 6) for _ in range(2)] + [Dmat(random_psd(rng, 6).matrix * 3.0)]
        calls = []

        def counting(real):
            def solve(a, *args, **kwargs):
                calls.append(a)
                return real(a, *args, **kwargs)

            return solve

        for name in ("eigvalsh", "eigh"):
            monkeypatch.setattr(np.linalg, name, counting(getattr(np.linalg, name)))
        for m in inputs:
            normalize_max_eig(m)
            rescale_max_eig(m)
        assert calls == []

    def test_scaling_down_rechecks_nothing(self, rng, monkeypatch):
        # dividing by s >= 1 keeps every validated property, and a top eigenvalue above
        # ZERO_NORM_TOL already shows the matrix is nonzero; scaling up checks again
        checks = []
        real_validate, real_norm = spectral._validate, Dmat.frobenius_norm
        monkeypatch.setattr(spectral, "_validate", lambda *args: checks.append("validate") or real_validate(*args))
        monkeypatch.setattr(Dmat, "frobenius_norm", lambda m: checks.append("norm") or real_norm(m))
        for scale in (0.5, 1.0, 3.0):
            m = Dmat(random_psd(rng, 6).matrix * scale)
            checks.clear()
            normalize_max_eig(m)
            assert checks == []
            rescale_max_eig(m)
            assert checks == ([] if m.max_eigenvalue() >= 1.0 else ["validate"])

    def test_lazy_eigenvalues_match_eager_validation_bitwise(self, rng):
        # the result keeps the input's eigenvalues divided by the scale, bit for bit,
        # which lie within roundoff of a fresh eigvalsh of the scaled matrix
        for dim in (1, 2, 7, 30):
            for scale in (0.3, 1.0, 4.0):
                m = Dmat(random_psd(rng, dim, repeat_prob=0.3).matrix * scale)
                top = m.max_eigenvalue()
                for out, s in ((normalize_max_eig(m), max(1.0, top)), (rescale_max_eig(m), top)):
                    assert out.eigenvalues.tobytes() == (m.eigenvalues / s).tobytes()
                    np.testing.assert_allclose(out.eigenvalues, np.linalg.eigvalsh(out.matrix), rtol=0,
                                               atol=_roundoff_cut(out.max_eigenvalue(), dim))
                    assert out.eigenvalues is out.eigenvalues
                    assert not out.eigenvalues.flags.writeable

    def test_carries_the_decomposition(self, rng, monkeypatch):
        # no LAPACK call for the result: its eigenvalues and decomposition are M's divided by s,
        # sharing M's read-only eigenvectors
        inputs = [_decomposed(random_psd(rng, 6).matrix * 3.0), _decomposed(random_psd(rng, 6).matrix * 0.5)]
        calls = []
        for name in ("eigvalsh", "eigh", "eig", "svd", "cholesky"):
            monkeypatch.setattr(np.linalg, name, lambda *args, **kwargs: calls.append(args))
        for M in inputs:
            out = rescale_max_eig(M)
            s = M.max_eigenvalue()
            assert out.eigenvalues.tobytes() == (M.eigenvalues / s).tobytes()
            decomp = spectral_decompose(out)
            assert decomp is out._spectral
            assert decomp.eigenvalues.tobytes() == (M._spectral.eigenvalues / s).tobytes()
            assert not decomp.eigenvalues.flags.writeable
            assert decomp.eigenvectors is M._spectral.eigenvectors and not decomp.eigenvectors.flags.writeable
        assert calls == []

    @pytest.mark.parametrize("result_first", [True, False])
    def test_defers_a_deferred_decomposition_to_the_input(self, rng, result_first):
        # the eigenpairs are built once, kept on M, and shared divided by s, whichever is decomposed first
        built = []
        M = _born(np.diag([3.0, 1.5, 0.0]), np.array([0.0, 1.5, 3.0]),
                  lambda: built.append(1) or (np.array([3.0, 1.5, 0.0]), np.eye(3)))
        out = rescale_max_eig(M)
        assert callable(out._spectral) and not built
        first, second = (out, M) if result_first else (M, out)
        spectral_decompose(first), spectral_decompose(second)
        assert built == [1]
        assert spectral_decompose(out).eigenvectors is spectral_decompose(M).eigenvectors
        assert spectral_decompose(out).eigenvalues.tolist() == [1.0, 0.5, 0.0]

    def test_result_is_a_fresh_read_only_dmat(self, rng):
        m = random_psd(rng, 5)
        parent_decomp = spectral_decompose(m)
        out = rescale_max_eig(m)
        assert out.max_eigenvalue() == 1.0 and out.dim == 5
        np.testing.assert_array_equal(out.matrix, m.matrix / m.max_eigenvalue())
        with pytest.raises(ValueError):
            out.matrix[0, 0] = 2.0
        assert spectral_decompose(out) is not parent_decomp
        np.testing.assert_allclose(
            spectral_decompose(out).eigenvalues, parent_decomp.eigenvalues / m.max_eigenvalue()
        )

    def test_upward_rescaling_still_rejects_scaled_negativity(self, rng):
        q = random_orthogonal(rng, 3)
        for matrix in (np.diag([0.5, 0.2, -0.9e-9]), (q * [0.5, 0.2, -0.9e-9]) @ q.T):
            m = Dmat((matrix + matrix.T) / 2.0)  # -0.9e-9 is within PSD_TOL
            with pytest.raises(NotPSDError):
                rescale_max_eig(m)  # -0.9e-9 / 0.5 is not

    def test_upward_rescaling_still_rejects_scaled_asymmetry(self):
        m = Dmat(np.array([[1e-3, 1e-3 + 5e-12], [1e-3, 1e-3]]))  # asymmetry within tolerance
        with pytest.raises(NonSymmetricError):
            rescale_max_eig(m)  # 5e-12 / 2e-3 is not

    def test_non_finite_result_rejected(self):
        with np.errstate(over="ignore"), pytest.raises(NotPSDError, match="non-finite"):
            _scaled(identity(2), 1e-320)

    def test_scale_of_one_shares_the_arrays(self, rng):
        # x / 1 is x bit for bit, so nothing is divided; the result is still a fresh Dmat
        m = _decomposed(random_psd(rng, 5).matrix / 2.0)
        spectral_decompose(m)
        out = normalize_max_eig(m)
        assert out is not m and m.max_eigenvalue() <= 1.0
        assert out.matrix is m.matrix and out.eigenvalues is m.eigenvalues
        assert out._spectral.eigenvalues is m._spectral.eigenvalues
        assert out._spectral.eigenvectors is m._spectral.eigenvectors


class TestLoewner:
    def test_diagonal_true(self):
        assert loewner_leq(from_diagonal([0.5, 0.0]), from_diagonal([1.0, 0.5]))

    def test_diagonal_false(self):
        assert not loewner_leq(from_diagonal([1.0, 0.0]), from_diagonal([0.5, 1.0]))

    def test_pure_below_identity_scale(self):
        # a pure state sits below the flat state of the same max eigenvalue,
        # and the flat state is not below the pure one
        pure = from_diagonal([1.0, 0.0])
        flat = from_diagonal([1.0, 1.0])
        assert loewner_leq(pure, flat)
        assert not loewner_leq(flat, pure)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            loewner_leq(identity(2), identity(3))


class TestSupportProjector:
    def test_diagonal(self):
        out = support_projector(from_diagonal([0.5, 0.25, 0.0]))
        np.testing.assert_allclose(out.matrix, np.diag([1.0, 1.0, 0.0]), atol=1e-12)

    def test_identity(self):
        out = support_projector(identity(2))
        np.testing.assert_allclose(out.matrix, np.eye(2), atol=1e-12)

    def test_rank_one_plus_state(self):
        plus = Dmat(np.full((2, 2), 0.5))
        out = support_projector(plus)
        np.testing.assert_allclose(out.matrix, plus.matrix, atol=1e-12)

    def test_idempotent(self, rng):
        for _ in range(20):
            p = support_projector(random_psd(rng, 5, rank=3)).matrix
            assert np.linalg.norm(p @ p - p) <= 1e-10
