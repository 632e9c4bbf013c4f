"""Graded entailment measures between density matrices.

k_hyp is the generalized max-eigenvalue form (no support check, may exceed
1), k_BA the signed eigenvalue ratio of the difference, k_E the error-norm
measure, and trace similarity the density-operator analog of cosine
similarity.  A slow binary-search oracle for the maximal Loewner grading is
included as an independent cross-check of k_hyp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, ZeroMatrixError
from .spectral import RANK_TOL, Dmat, spectral_decompose

MEASURE_NAMES = ("k_hyp", "k_BA", "k_E", "trace_sim")


@dataclass(frozen=True)
class EntailmentScore:
    """One measured entailment value with the direction it was computed in."""

    measure: str
    value: float
    direction: tuple[str, str]

    def __post_init__(self):
        if self.measure not in MEASURE_NAMES:
            raise ValueError(f"unknown measure {self.measure!r}")
        v = self.value
        if self.measure == "k_hyp":
            ok = v >= 0.0 or math.isinf(v)
        elif self.measure == "k_BA":
            ok = -1.0 - 1e-9 <= v <= 1.0 + 1e-9
        else:
            ok = -1e-9 <= v <= 1.0 + 1e-9
        if not ok and not math.isnan(v):
            raise ValueError(f"{self.measure} value {v} out of range")


def _check(A: Dmat, B: Dmat) -> None:
    if A.dim != B.dim:
        raise DimensionMismatchError(f"dims {A.dim} and {B.dim} differ")


def k_hyp(A: Dmat, B: Dmat, rank_tol: float = RANK_TOL) -> float:
    """Reciprocal of the top eigenvalue of pinv(B) A (generalized grading).

    Computed from the symmetrized form pinv_sqrt(B) A pinv_sqrt(B), which has
    the same spectrum but stays symmetric.  When the support of A lies inside
    the support of B this equals the largest k with B - kA still PSD.  A top
    eigenvalue at or below rank_tol means A places nothing measurable inside
    B's support; +inf is returned to signal the unconstrained case.
    """
    _check(A, B)
    if A.is_zero() or B.is_zero():
        raise ZeroMatrixError("k_hyp needs two nonzero matrices")
    decomp = spectral_decompose(B)
    cut = decomp.support_cut(rank_tol)
    pinv_root = decomp.apply(lambda lam: 1.0 / math.sqrt(lam) if lam > cut else 0.0)
    core = pinv_root @ A.matrix @ pinv_root
    gamma = float(np.linalg.eigvalsh((core + core.T) / 2.0)[-1])
    if gamma <= rank_tol:
        return math.inf
    return 1.0 / gamma


def k_hyp_clamped(A: Dmat, B: Dmat, rank_tol: float = RANK_TOL) -> float:
    """min(k_hyp, 1); the +inf sentinel clamps to full entailment."""
    return min(k_hyp(A, B, rank_tol), 1.0)


def k_hyp_oracle(A: Dmat, B: Dmat, tol: float = 1e-9, iterations: int = 60) -> float:
    """Largest k with B - kA PSD, by plain bisection.  Independent of k_hyp."""
    _check(A, B)
    eigs_a = np.linalg.eigvalsh(A.matrix)
    positive = eigs_a[eigs_a > tol]
    if positive.size == 0:
        raise ZeroMatrixError("oracle needs a nonzero first argument")
    top_b = float(np.linalg.eigvalsh(B.matrix)[-1])
    lo, hi = 0.0, top_b / float(positive.min()) + 1.0

    def psd_at(k: float) -> bool:
        return float(np.linalg.eigvalsh(B.matrix - k * A.matrix)[0]) >= -tol

    if not psd_at(lo):
        return 0.0
    for _ in range(iterations):
        mid = (lo + hi) / 2.0
        if psd_at(mid):
            lo = mid
        else:
            hi = mid
    return lo


def k_ba(A: Dmat, B: Dmat) -> float:
    """Signed eigenvalue ratio of B - A, in [-1, 1].

    Equal matrices give 0/0; that case is defined as 1 (full self-entailment,
    matching the limit along B = A + eps*I).
    """
    _check(A, B)
    eigs = np.linalg.eigvalsh(B.matrix - A.matrix)
    denom = float(np.sum(np.abs(eigs)))
    if denom < 1e-12:
        return 1.0
    return float(np.sum(eigs)) / denom


def k_e(A: Dmat, B: Dmat, norm: str = "fro") -> float:
    """One minus the relative size of the entailment error term.

    The error term collects the negative part of B - A with flipped signs;
    it vanishes exactly when B - A is PSD.  Clamped to [0, 1].  The norm is
    Frobenius by default; "trace" uses the absolute eigenvalue sum instead.
    """
    _check(A, B)
    if norm not in ("fro", "trace"):
        raise ValueError(f"norm must be 'fro' or 'trace', got {norm!r}")
    order = 2 if norm == "fro" else 1
    norm_a = float(np.linalg.norm(A.eigenvalues, ord=order))
    if norm_a < 1e-12:
        raise ZeroMatrixError("k_e needs a nonzero first argument")
    eigs = np.linalg.eigvalsh(B.matrix - A.matrix)
    error_norm = float(np.linalg.norm(np.where(eigs < 0.0, -eigs, 0.0), ord=order))
    return float(np.clip(1.0 - error_norm / norm_a, 0.0, 1.0))


def trace_similarity(A: Dmat, B: Dmat) -> float:
    """trace(A B) over the product of Frobenius norms; symmetric, in [0, 1]."""
    _check(A, B)
    norm_a = A.frobenius_norm()
    norm_b = B.frobenius_norm()
    if norm_a < 1e-12 or norm_b < 1e-12:
        raise ZeroMatrixError("trace similarity needs two nonzero matrices")
    value = float(np.trace(A.matrix @ B.matrix)) / (norm_a * norm_b)
    return float(np.clip(value, 0.0, 1.0))
