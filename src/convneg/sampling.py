"""Seeded random constructions used by the theorem suites and tests."""

from __future__ import annotations

import numpy as np

from .spectral import Dmat, rescale_max_eig, spectral_decompose


def random_orthogonal(rng: np.random.Generator, dim: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)))
    return q * np.sign(np.diagonal(r))


def random_psd(
    rng: np.random.Generator,
    dim: int,
    rank: int | None = None,
    eig_low: float = 0.1,
    eig_high: float = 1.0,
    repeat_prob: float = 0.0,
) -> Dmat:
    """Random PSD matrix with eigenvalues in [eig_low, eig_high] on its support.

    Keeping support eigenvalues away from zero keeps pseudo-inverses well
    conditioned.  With `repeat_prob`, adjacent eigenvalues are duplicated to
    exercise degenerate spectra.
    """
    rank = dim if rank is None else rank
    eigs = np.zeros(dim)
    eigs[:rank] = rng.uniform(eig_low, eig_high, size=rank)
    if repeat_prob > 0.0:
        for i in range(1, rank):
            if rng.random() < repeat_prob:
                eigs[i] = eigs[i - 1]
    q = random_orthogonal(rng, dim)
    m = (q * eigs) @ q.T
    return Dmat((m + m.T) / 2.0)


def random_normalized(rng: np.random.Generator, dim: int, rank: int | None = None) -> Dmat:
    """Random PSD matrix with largest eigenvalue exactly 1."""
    return rescale_max_eig(random_psd(rng, dim, rank=rank))


def random_ordered_pair(rng: np.random.Generator, dim: int, margin: float = 0.0):
    """(A, B) with A below B in the Loewner order and B's top eigenvalue 1.

    A is built as sqrt(B) K sqrt(B) for a random contraction K, which keeps
    the pair generic (non-commuting); `margin` shrinks K away from the
    boundary.
    """
    b = random_normalized(rng, dim)
    k = random_psd(rng, dim)
    k = k.matrix / (k.max_eigenvalue() * (1.0 + margin))
    root = spectral_decompose(b).apply(np.sqrt)
    a = root @ k @ root
    return Dmat((a + a.T) / 2.0, normalized=True), b


def random_diagonal_ordered_pair(rng: np.random.Generator, dim: int):
    """Ordered pair diagonal in the computational basis (entrywise a_i <= b_i)."""
    b = rng.uniform(0.2, 1.0, size=dim)
    a = b * rng.uniform(0.0, 1.0, size=dim)
    return Dmat(np.diag(a)), Dmat(np.diag(b))


def random_commuting_pair(
    rng: np.random.Generator,
    dim: int,
    family: str = "ordered",
):
    """Commuting invertible pair from a family where inversion reverses k_BA.

    'ordered': eigenvalue differences share one sign (drawn either way), so
    both sides of the reversal identity are +/-1.  'constant_product': the
    eigenvalue products a_i * b_i are all equal, making the inverse-side
    differences pointwise proportional to the original ones; the identity
    then holds with a nontrivial value.  'free': unconstrained spectra (the
    identity generally fails there; used only to measure the discrepancy).
    """
    q = random_orthogonal(rng, dim)
    a = rng.uniform(0.2, 1.0, size=dim)
    if family == "ordered":
        gap = rng.uniform(0.0, 1.0, size=dim)
        b = a + gap
        if rng.random() < 0.5:
            a, b = b, a
    elif family == "constant_product":
        # c <= a_min * a_max keeps every b_i = c / a_i at most a_max <= 1
        c = float(rng.uniform(0.5, 1.0)) * float(a.min() * a.max())
        b = c / a
    elif family == "free":
        b = rng.uniform(0.2, 1.0, size=dim)
    else:
        raise ValueError(f"unknown family {family!r}")
    mat_a = (q * a) @ q.T
    mat_b = (q * b) @ q.T
    return Dmat((mat_a + mat_a.T) / 2.0), Dmat((mat_b + mat_b.T) / 2.0)


def random_invertible_pair(rng: np.random.Generator, dim: int):
    return random_psd(rng, dim), random_psd(rng, dim)


def random_same_support_pair(rng: np.random.Generator, dim: int, rank: int):
    """Singular pair sharing an exact support of the given rank."""
    basis = random_orthogonal(rng, dim)[:, :rank]
    core_a = random_psd(rng, rank).matrix
    core_b = random_psd(rng, rank).matrix
    a = basis @ core_a @ basis.T
    b = basis @ core_b @ basis.T
    return Dmat((a + a.T) / 2.0), Dmat((b + b.T) / 2.0)


def random_nested_support_pair(rng: np.random.Generator, dim: int):
    """(A, B) with the support of A contained in the support of B."""
    rank_b = int(rng.integers(1, dim + 1))
    b = random_psd(rng, dim, rank=rank_b)
    decomp = spectral_decompose(b)
    basis = decomp.eigenvectors[:, decomp.eigenvalues > decomp.support_cut()]
    rank_a = int(rng.integers(1, basis.shape[1] + 1))
    core = random_psd(rng, basis.shape[1], rank=rank_a).matrix
    a = basis @ core @ basis.T
    return Dmat((a + a.T) / 2.0), b
