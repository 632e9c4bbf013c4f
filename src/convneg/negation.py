"""Logical negations of a density matrix.

Three unary maps, all acting through the spectral decomposition and hence
preserving eigenvectors: subtraction from the identity, the Moore-Penrose
support inverse, and the kernel projector, plus the convex mixture of the
latter two.  Outputs are deliberately left unnormalized; the conversational
pipeline normalizes once, after composition.
Each output is f(X) = V f(Λ) Vᵀ, so its decomposition (f(Λ), V) is given
at construction (`spectral._born`), and only X is ever decomposed: by
`neg_inv` to form its output, by `neg_sub` only once its output is.  An f
constant on the spectrum to roundoff gives c·I (Higham, Functions of
Matrices, ch. 1), which `neg_inv` forms with no product.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import (
    EmptyKernelWarning,
    NotNormalizedError,
    WeightOutOfRangeError,
    ZeroMatrixError,
)
from .spectral import PSD_TOL, Dmat, _born, _decomposed, _is_scalar, spectral_decompose


def neg_sub(X: Dmat) -> Dmat:
    """Identity minus X, with eigenvalues 1 - λ.  Requires largest eigenvalue <= 1 so the result stays PSD."""
    top = X.max_eigenvalue()
    if top > 1.0 + PSD_TOL:
        raise NotNormalizedError(f"largest eigenvalue {top:.12g} exceeds 1")
    out = np.eye(X.dim) - X.matrix

    def eigenpairs():
        decomp = spectral_decompose(X)
        return 1.0 - decomp.eigenvalues, decomp.eigenvectors

    return _born((out + out.T) / 2.0, 1.0 - X.eigenvalues[::-1], eigenpairs)


def neg_supp(X: Dmat) -> Dmat:
    """Moore-Penrose inverse: invert eigenvalues on the support, zero the kernel."""
    return neg_inv(X, 1.0)


def neg_ker(X: Dmat) -> Dmat:
    """Projector onto the kernel: `neg_inv` at support weight 0.

    An invertible input has an empty kernel; the zero matrix is returned with
    an EmptyKernelWarning so that the convex mixture below stays total.
    """
    if spectral_decompose(X).rank() == X.dim:
        warnings.warn("input is invertible; kernel projector is zero", EmptyKernelWarning)
    return neg_inv(X, 0.0)


def neg_inv(X: Dmat, support_weight: float = 0.5) -> Dmat:
    """Convex mixture of support inverse and kernel projector.

    Equal weighting is the default; `support_weight` in [0, 1] tilts toward
    the support inverse (1 is neg_supp, 0 the kernel projector).  Every
    weight w is one spectral function of X: w/lambda on the support (+0.0
    at w = 0), 1 - w on the kernel.  When those values lie within roundoff
    (`spectral._is_scalar`) of their top c, the output is exactly c·I, with
    no V·diag·Vᵀ product, validated and decomposed as a diagonal matrix:
    a pure word of top eigenvalue 1 gives 0.5·I at w = 0.5, and one a few
    ulps below 1 gives (0.5 / top)·I.  An input of rank 0 raises
    ZeroMatrixError when w > 0.  An empty kernel contributes zero without a
    warning, and the process-wide warning filters are left alone, so
    concurrent callers are safe.
    """
    if not 0.0 <= support_weight <= 1.0:
        raise WeightOutOfRangeError(f"support_weight {support_weight} not in [0, 1]")
    decomp = spectral_decompose(X)
    if support_weight > 0.0 and decomp.rank() == 0:
        raise ZeroMatrixError("support inverse of a rank-0 matrix")
    lam = decomp.eigenvalues
    mapped = np.divide(support_weight, lam, out=np.full_like(lam, 1.0 - support_weight), where=lam > decomp.support_cut())
    ascending = np.sort(mapped)
    if _is_scalar(ascending[-1], ascending[0], X.dim):
        return _decomposed(np.eye(X.dim) * ascending[-1])
    return _born(decomp.apply(lambda _: mapped), ascending, lambda: (mapped, decomp.eigenvectors))
