"""Graded entailment measures between density matrices.

k_hyp is the generalized max-eigenvalue form (no support check, may exceed
1), k_BA the signed eigenvalue ratio of the difference, k_E the error-norm
measure, and trace similarity the density-operator analog of cosine
similarity.  A slow binary-search oracle for the maximal Loewner grading is
included as an independent cross-check of k_hyp.

Each measure takes a `Dmat` or a non-empty sequence of `Dmat`s in either
argument.  Two matrices give a float.  Otherwise one matrix pairs with every
member of the sequence (two sequences pair up elementwise), and the values
come back as an array in sequence order, equal bit for bit to a loop of
scalar calls and raising what the first failing call of that loop would
raise.  A sequence costs one stacked eigensolve per measure.

The k_hyp, k_E and k_BA formulas each live in one array kernel
(`k_hyp_from_root`, `k_e_from_spectra`, `k_ba_from_spectra`).  The grid
scores through the measures themselves.  The entailment graph scores every
ordered word pair through `k_hyp_clamped_all_pairs`, bit for bit the scalar
values, and `k_e_all_pairs`, which solves each pair in its joint support and
agrees with `k_e` to roundoff.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import ZeroMatrixError
from .spectral import RANK_TOL, Dmat, check_dims, spectral_decompose


def _check_pairs(A: Dmat | Sequence[Dmat], B: Dmat | Sequence[Dmat], zero=False, message: str = "") -> None:
    """Raise what the first failing call of a loop of scalar calls would raise.

    The loop visits the (a, b) pairs in order; a pair fails on differing
    dims, else on its flag in `zero` (one flag, or an array of one per
    pair) with ZeroMatrixError(message).
    """
    if isinstance(A, Dmat):
        pairs = [(A, B)] if isinstance(B, Dmat) else [(A, b) for b in B]
    else:
        pairs = [(a, B) for a in A] if isinstance(B, Dmat) else list(zip(A, B, strict=True))
    flags = zero if isinstance(zero, np.ndarray) else [zero] * len(pairs)
    for (a, b), flag in zip(pairs, flags):
        check_dims(a, b)
        if flag:
            raise ZeroMatrixError(message)


def _each(X: Dmat | Sequence[Dmat], fn: Callable[[Dmat], object]):
    """fn(X) for one matrix; the stack of fn over a sequence.

    Arrays stack only at one dim: stack per-matrix scalars before
    `_check_pairs`, matrices and spectra only after it.
    """
    return fn(X) if isinstance(X, Dmat) else np.stack([fn(x) for x in X])


def _matrix(X: Dmat) -> np.ndarray:
    return X.matrix


def _result(values, A, B):
    """A float for two matrices, else the array of values."""
    return float(values) if isinstance(A, Dmat) and isinstance(B, Dmat) else values


def pinv_root(B: Dmat) -> np.ndarray:
    """Pseudo-inverse square root of B, from its cached decomposition.

    Built once per Dmat and kept read-only on it, like the decomposition.
    """
    root = B._pinv_root
    if root is None:
        decomp = spectral_decompose(B)
        cut = decomp.support_cut()
        root = decomp.apply(lambda lam: np.divide(1.0, np.sqrt(lam), out=np.zeros_like(lam), where=lam > cut))
        root.setflags(write=False)
        object.__setattr__(B, "_pinv_root", root)
    return root


def k_hyp_from_root(root: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """k_hyp of each A in `mats` against B = pinv(root)^2.

    The formula behind `k_hyp`: gamma is the top eigenvalue of the symmetrized
    `root @ A @ root`, and the result is 1/gamma, or +inf where gamma is at or
    below RANK_TOL.  `root` and `mats` are each one matrix or a stack (they
    broadcast); a stack is solved by one `eigvalsh` call.
    """
    core = root @ mats @ root
    gamma = np.linalg.eigvalsh((core + np.swapaxes(core, -1, -2)) / 2.0)[..., -1]
    return np.divide(1.0, gamma, out=np.full_like(gamma, np.inf), where=gamma > RANK_TOL)


def k_hyp(A: Dmat | Sequence[Dmat], B: Dmat | Sequence[Dmat]):
    """Reciprocal of the top eigenvalue of pinv(B) A (generalized grading).

    Computed from the symmetrized form pinv_sqrt(B) A pinv_sqrt(B), which has
    the same spectrum but stays symmetric.  When the support of A lies inside
    the support of B this equals the largest k with B - kA still PSD.  A top
    eigenvalue at or below RANK_TOL means A places nothing measurable inside
    B's support; +inf is returned to signal the unconstrained case.  Each
    structural operand B has its pseudo-inverse root formed once.
    """
    _check_pairs(A, B, _each(A, Dmat.is_zero) | _each(B, Dmat.is_zero), "k_hyp needs two nonzero matrices")
    root = _each(B, pinv_root)
    return _result(k_hyp_from_root(root, _each(A, _matrix)), A, B)


def k_hyp_clamped(A: Dmat | Sequence[Dmat], B: Dmat | Sequence[Dmat]):
    """min(k_hyp, 1); the +inf sentinel clamps to full entailment."""
    return _result(np.minimum(k_hyp(A, B), 1.0), A, B)


def k_hyp_oracle(A: Dmat, B: Dmat, tol: float = 1e-9, iterations: int = 60) -> float:
    """Largest k with B - kA PSD, by plain bisection.  Independent of k_hyp."""
    check_dims(A, B)
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


def k_ba_from_spectra(spectra: np.ndarray) -> np.ndarray:
    """k_BA from spectra of B - A (last axis): their sum over their absolute sum.

    An absolute sum below 1e-12 (equal matrices, 0/0) gives 1.
    """
    denom = np.abs(spectra).sum(axis=-1)
    return np.divide(spectra.sum(axis=-1), denom, out=np.ones_like(denom), where=denom >= 1e-12)


def k_ba(A: Dmat | Sequence[Dmat], B: Dmat | Sequence[Dmat]):
    """Signed eigenvalue ratio of B - A, in [-1, 1].

    Equal matrices give 0/0; that case is defined as 1 (full self-entailment,
    matching the limit along B = A + eps*I).
    """
    _check_pairs(A, B)
    spectra = np.linalg.eigvalsh(_each(B, _matrix) - _each(A, _matrix))
    return _result(k_ba_from_spectra(spectra), A, B)


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


def k_e(A: Dmat | Sequence[Dmat], B: Dmat | Sequence[Dmat], norm: str = "fro"):
    """One minus the relative size of the entailment error term.

    The error term collects the negative part of B - A with flipped signs;
    it vanishes exactly when B - A is PSD.  Clamped to [0, 1].  The norm is
    Frobenius by default; "trace" uses the absolute eigenvalue sum instead.
    """
    if norm not in ("fro", "trace"):
        raise ValueError(f"norm must be 'fro' or 'trace', got {norm!r}")
    order = 2 if norm == "fro" else 1
    norm_a = _each(A, lambda a: spectrum_norms(a.eigenvalues, order))
    _check_pairs(A, B, norm_a < 1e-12, "k_e needs a nonzero first argument")
    spectra = np.linalg.eigvalsh(_each(B, _matrix) - _each(A, _matrix))
    return _result(k_e_from_spectra(spectra, norm_a, order), A, B)


def trace_similarity(A: Dmat | Sequence[Dmat], B: Dmat | Sequence[Dmat]):
    """trace(A B) over the product of Frobenius norms; symmetric, in [0, 1]."""
    norm_a = _each(A, Dmat.frobenius_norm)
    norm_b = _each(B, Dmat.frobenius_norm)
    _check_pairs(A, B, (norm_a < 1e-12) | (norm_b < 1e-12), "trace similarity needs two nonzero matrices")
    traces = np.trace(_each(A, _matrix) @ _each(B, _matrix), axis1=-2, axis2=-1)
    return _result(np.clip(traces / (norm_a * norm_b), 0.0, 1.0), A, B)


def _check_all_pairs(mats: Sequence[Dmat], zero: np.ndarray, message: str, either: bool = False) -> None:
    """Raise what the first failing scalar call over every ordered pair, row by row, would raise.

    A pair fails on differing dims, else on its first word's flag in `zero`
    (on either word's, with `either`).  Any dims mismatch already fails the
    first row, so a later row can only fail on its own flag.
    """
    _check_pairs(mats[0], mats[1:], zero[0] | zero[1:] if either else zero[0], message)
    if zero.any():
        raise ZeroMatrixError(message)


def _support_factor(M: Dmat) -> np.ndarray:
    """F with F F^T = M to roundoff: eigenvectors scaled by root eigenvalues, from the cached decomposition.

    The support is cut at roundoff (4 dim eps times the top eigenvalue), not
    at RANK_TOL: a real eigenvalue of 1e-9 left out moves k_E by about as much.
    """
    decomp = spectral_decompose(M)
    lam = decomp.eigenvalues
    rank = int(np.count_nonzero(lam > 4 * M.dim * np.finfo(float).eps * lam[0]))
    return decomp.eigenvectors[:, :rank] * np.sqrt(lam[:rank])


def k_e_all_pairs(mats: Sequence[Dmat]) -> np.ndarray:
    """`k_e(mats[i], mats[j])` in cell (i, j) for every ordered pair of two or more words.

    The diagonal is NaN, and a bad word raises what the first failing `k_e`
    call in row order would raise.  M_j - M_i vanishes outside span[F_j F_i]
    (support factors, F F^T = M), so with R the triangular factor of
    [F_j F_i] its nonzero spectrum is that of R diag(+1.., -1..) R^T, an
    (r_i + r_j)-square problem; each row solves one stack of them per target
    rank.  A pair with r_i + r_j >= dim, or of equal matrices (which must
    score exactly 1), is solved d x d as `k_e` does.  The values agree with
    `k_e` to roundoff.
    """
    n, dim = len(mats), mats[0].dim
    norm_a = np.array([spectrum_norms(m.eigenvalues) for m in mats])
    _check_all_pairs(mats, norm_a < 1e-12, "k_e needs a nonzero first argument")
    stack = np.stack([m.matrix for m in mats])
    factors = [_support_factor(m) for m in mats]
    ranks = np.array([f.shape[1] for f in factors])
    by_rank = {}
    for r in set(ranks.tolist()):
        by_rank[r] = (ranks == r, np.stack([f for f in factors if f.shape[1] == r]))
    # equal matrices hash alike (adding 0.0 makes -0.0 into 0.0); a collision only costs a d x d solve
    hashes = np.array([hash((m.matrix + 0.0).tobytes()) for m in mats])
    out = np.full((n, n), np.nan)
    for i, fi in enumerate(factors):
        others = np.arange(n) != i
        full = others & ((ranks + ranks[i] >= dim) | (hashes == hashes[i]))
        if full.any():
            out[i, full] = k_e_from_spectra(np.linalg.eigvalsh(stack[full] - stack[i]), norm_a[i])
        joint = others & ~full
        for r, (members, stacked) in by_rank.items():
            cols = joint & members
            if cols.any():
                fj = stacked[cols[members]]
                tri = np.linalg.qr(np.concatenate([fj, np.broadcast_to(fi, (len(fj), *fi.shape))], axis=-1), "r")
                signs = np.repeat([1.0, -1.0], [r, fi.shape[1]])
                spectra = np.linalg.eigvalsh((tri * signs) @ np.swapaxes(tri, -1, -2))
                out[i, cols] = k_e_from_spectra(spectra, norm_a[i])
    return out


def k_hyp_clamped_all_pairs(mats: Sequence[Dmat]) -> np.ndarray:
    """`k_hyp_clamped(mats[i], mats[j])` in cell (i, j) for every ordered pair of two or more words.

    The diagonal is NaN, and a bad word raises what the first failing call
    in row order would raise.  Column j is one `k_hyp_from_root` call with
    mats[j]'s root over the stack of every other matrix, so the values are
    the scalar ones bit for bit.
    """
    n = len(mats)
    _check_all_pairs(mats, np.array([m.is_zero() for m in mats]), "k_hyp needs two nonzero matrices", either=True)
    stack = np.stack([m.matrix for m in mats])
    out = np.full((n, n), np.nan)
    for j, b in enumerate(mats):
        others = np.arange(n) != j
        out[others, j] = np.minimum(k_hyp_from_root(pinv_root(b), stack[others]), 1.0)
    return out
