"""Graded entailment measures between density matrices.

k_hyp is the generalized max-eigenvalue form (no support check, may exceed
1), k_BA the signed eigenvalue ratio of the difference, k_E the error-norm
measure, and trace similarity the density-operator analog of cosine
similarity.  A slow binary-search oracle for the maximal Loewner grading is
included as an independent cross-check of k_hyp.

The k_hyp and k_E formulas each live in one array kernel (`k_hyp_from_root`,
`k_e_from_spectra`), shared by the scalar measures and by the all-pairs
scorers (`pairwise_k_hyp_clamped`, `pairwise_k_e`) that build the entailment
graph with stacked eigensolves.
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


def _check_all(mats: list[Dmat]) -> None:
    dims = sorted({m.dim for m in mats})
    if len(dims) > 1:
        raise DimensionMismatchError(f"dims {dims} differ")


def pinv_root(B: Dmat, rank_tol: float = RANK_TOL) -> np.ndarray:
    """Pseudo-inverse square root of B, from its cached decomposition."""
    decomp = spectral_decompose(B)
    cut = decomp.support_cut(rank_tol)
    return decomp.apply(lambda lam: 1.0 / math.sqrt(lam) if lam > cut else 0.0)


def k_hyp_from_root(root: np.ndarray, mats: np.ndarray, rank_tol: float = RANK_TOL) -> np.ndarray:
    """k_hyp of each A in `mats` (one matrix or a stack) against B = pinv(root)^2.

    The formula behind `k_hyp`: gamma is the top eigenvalue of the symmetrized
    `root @ A @ root`, and the result is 1/gamma, or +inf where gamma is at or
    below rank_tol.  A stack is solved by one `eigvalsh` call.
    """
    core = root @ mats @ root
    gamma = np.linalg.eigvalsh((core + np.swapaxes(core, -1, -2)) / 2.0)[..., -1]
    return np.divide(1.0, gamma, out=np.full_like(gamma, np.inf), where=gamma > rank_tol)


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
    return float(k_hyp_from_root(pinv_root(B, rank_tol), A.matrix, rank_tol))


def k_hyp_clamped(A: Dmat, B: Dmat, rank_tol: float = RANK_TOL) -> float:
    """min(k_hyp, 1); the +inf sentinel clamps to full entailment."""
    return min(k_hyp(A, B, rank_tol), 1.0)


def pairwise_k_hyp_clamped(mats: list[Dmat]) -> np.ndarray:
    """W[i, j] = k_hyp_clamped(mats[i], mats[j]) for i != j; the diagonal is unset.

    One stacked eigensolve per structural word B = mats[j]: its pseudo-inverse
    root is formed once and applied to every other matrix at once.
    """
    _check_all(mats)
    if any(m.is_zero() for m in mats):
        raise ZeroMatrixError("k_hyp needs two nonzero matrices")
    stack = np.stack([m.matrix for m in mats])
    n = len(mats)
    weights = np.full((n, n), np.nan)
    for j, b in enumerate(mats):
        others = np.delete(np.arange(n), j)
        k = k_hyp_from_root(pinv_root(b), stack[others])
        weights[others, j] = np.minimum(k, 1.0)
    return weights


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


def spectrum_norms(spectra: np.ndarray, order: int = 2) -> np.ndarray:
    """Norm of each spectrum along the last axis: Euclidean (2) or absolute sum (1).

    The Euclidean norm is the root of a per-row `@` dot product, which rounds
    exactly as `np.linalg.norm` does on each row; `np.einsum` does not.
    """
    if order == 1:
        return np.abs(spectra).sum(axis=-1)
    return np.sqrt((spectra[..., None, :] @ spectra[..., :, None])[..., 0, 0])


def k_e_from_spectra(spectra: np.ndarray, norm_a, order: int = 2) -> np.ndarray:
    """k_E from ascending spectra of B - A (last axis) and the norms of A's spectra.

    The formula behind `k_e`: the error norm is the norm of the negative part
    of the spectrum, and the result is 1 - error / norm_a clamped to [0, 1].
    """
    error = spectrum_norms(np.where(spectra < 0.0, -spectra, 0.0), order)
    return np.clip(1.0 - error / norm_a, 0.0, 1.0)


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
    norm_a = float(spectrum_norms(A.eigenvalues, order))
    if norm_a < 1e-12:
        raise ZeroMatrixError("k_e needs a nonzero first argument")
    return float(k_e_from_spectra(np.linalg.eigvalsh(B.matrix - A.matrix), norm_a, order))


def pairwise_k_e(mats: list[Dmat]) -> np.ndarray:
    """W[i, j] = k_e(mats[i], mats[j]) for i != j; the diagonal is unset.

    One stacked eigensolve per source word: row i solves M_j - M_i for every
    j != i at once.  Both directions of a pair are solved directly: the
    spectrum of M_i - M_j is the negated reversal of that of M_j - M_i in
    exact arithmetic, but LAPACK does not keep that symmetry at exact
    eigenvalue ties, so reading one direction from the other would not be
    bit-identical to `k_e`.  The largest temporary is one (n - 1) x d x d stack.
    """
    _check_all(mats)
    norms = spectrum_norms(np.stack([m.eigenvalues for m in mats]))
    if np.any(norms < 1e-12):
        raise ZeroMatrixError("k_e needs a nonzero first argument")
    stack = np.stack([m.matrix for m in mats])
    n = len(mats)
    weights = np.full((n, n), np.nan)
    for i in range(n):
        others = np.delete(np.arange(n), i)
        spectra = np.linalg.eigvalsh(stack[others] - stack[i])
        weights[i, others] = k_e_from_spectra(spectra, norms[i])
    return weights


def trace_similarity(A: Dmat, B: Dmat) -> float:
    """trace(A B) over the product of Frobenius norms; symmetric, in [0, 1]."""
    _check(A, B)
    norm_a = A.frobenius_norm()
    norm_b = B.frobenius_norm()
    if norm_a < 1e-12 or norm_b < 1e-12:
        raise ZeroMatrixError("trace similarity needs two nonzero matrices")
    value = float(np.trace(A.matrix @ B.matrix)) / (norm_a * norm_b)
    return float(np.clip(value, 0.0, 1.0))
