"""Seeded random constructions used by the theorem suites and tests.

Every sampler takes `dim` as an int, for one draw, or as a sequence of
dims, for a list with one draw per member; a per-member argument (`rank`,
`family`) may likewise be one value or a sequence.  The members' rng draws
are taken one member after another, each in the order a call for that
member alone takes them.  The arithmetic then runs once per stack of
members whose draws have the same shapes (the same dim, and for the
support pairs the same rank): one `qr` with its sign fix, one (q·λ)@qᵀ
with its symmetrisation, and one `eigvalsh` whose rows are the members'
validation spectra (`Dmat`'s `spectrum`).  A scalar call is a stack of
one.  Stacked LAPACK and matmul calls give each member the bits of its own
call, so a sequence draws exactly what a loop of scalar calls draws.
"""

from __future__ import annotations

import numpy as np

from .spectral import Dmat, _deferred, rescale_max_eig, spectral_decompose


def _each(value, n: int) -> list:
    """A per-member argument as a list: a sequence as is, one value n times."""
    return [value] * n if np.ndim(value) == 0 else list(value)


def _sample(dim, draw, build, *per_member):
    """`draw(d, *args)` for each member in turn, then `build` once per stack of same-shape draws.

    `build` takes the stacked fields of its members' draws and yields their
    results in order.  One result for a single `dim`, else a list.
    """
    single = np.ndim(dim) == 0
    dims = [dim] if single else list(dim)
    draws = [draw(*member) for member in zip(dims, *(_each(arg, len(dims)) for arg in per_member))]
    shapes = [tuple(np.shape(field) for field in d) for d in draws]
    out = [None] * len(draws)
    for shape in dict.fromkeys(shapes):
        members = [i for i, other in enumerate(shapes) if other == shape]
        for i, result in zip(members, build(*(np.stack(f) for f in zip(*(draws[i] for i in members))))):
            out[i] = result
    return out[0] if single else out


def _sym(m: np.ndarray) -> np.ndarray:
    return (m + m.swapaxes(-1, -2)) / 2.0


def _orthogonal(normals: np.ndarray) -> np.ndarray:
    q, r = np.linalg.qr(normals)
    return q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[..., None, :]


def _rotated(eigs: np.ndarray, q: np.ndarray) -> np.ndarray:
    return _sym((q * eigs[..., None, :]) @ q.swapaxes(-1, -2))


def _dmats(stack: np.ndarray) -> list[Dmat]:
    """A `Dmat` per matrix of an exactly symmetric stack, validated by its row of one `eigvalsh`."""
    return [Dmat(m, spectrum=lambda _, s=s: s) for m, s in zip(stack, np.linalg.eigvalsh(stack))]


def _psd(eigs, normals) -> list[Dmat]:
    return _dmats(_rotated(eigs, _orthogonal(normals)))


def _decompositions(ms: list[Dmat]):
    """Each matrix's `spectral_decompose`, kept on it, from its row of one stacked `eigh` (`_deferred`)."""
    solved = zip(*np.linalg.eigh(np.stack([m.matrix for m in ms])))
    return [spectral_decompose(_deferred(m, lambda s=s: s)) for m, s in zip(ms, solved)]


def _supported(basis: np.ndarray, core: np.ndarray) -> list[Dmat]:
    return _dmats(_sym(basis @ core @ basis.swapaxes(-1, -2)))


def _psd_draw(rng, dim, rank=None, repeat_prob=0.0):
    """A random PSD matrix's draws: its eigenvalues, then its rotation's normals."""
    rank = dim if rank is None else rank
    eigs = np.zeros(dim)
    eigs[:rank] = rng.uniform(0.1, 1.0, size=rank)
    if repeat_prob > 0.0:
        for i in range(1, rank):
            if rng.random() < repeat_prob:
                eigs[i] = eigs[i - 1]
    return eigs, rng.normal(size=(dim, dim))


def random_orthogonal(rng: np.random.Generator, dim):
    return _sample(dim, lambda d: (rng.normal(size=(d, d)),), _orthogonal)


def random_psd(rng: np.random.Generator, dim, rank=None, repeat_prob: float = 0.0):
    """Random PSD matrix with eigenvalues in [0.1, 1] on its support.

    Keeping support eigenvalues away from zero keeps pseudo-inverses well
    conditioned.  With `repeat_prob`, adjacent eigenvalues are duplicated to
    exercise degenerate spectra.
    """
    return _sample(dim, lambda d, r: _psd_draw(rng, d, r, repeat_prob), _psd, rank)


def random_normalized(rng: np.random.Generator, dim, rank=None):
    """Random PSD matrix with largest eigenvalue exactly 1."""
    return _sample(dim, lambda d, r: _psd_draw(rng, d, r), lambda *s: map(rescale_max_eig, _psd(*s)), rank)


def random_ordered_pair(rng: np.random.Generator, dim, margin: float = 0.0):
    """(A, B) with A below B in the Loewner order and B's top eigenvalue 1.

    A is built as sqrt(B) K sqrt(B) for a random contraction K, which keeps
    the pair generic (non-commuting); `margin` shrinks K away from the
    boundary.  B keeps the decomposition its square root was read from.
    """

    def build(b_eigs, b_normals, k_eigs, k_normals):
        bs = [rescale_max_eig(b) for b in _psd(b_eigs, b_normals)]
        k = np.stack([m.matrix / (m.max_eigenvalue() * (1.0 + margin)) for m in _psd(k_eigs, k_normals)])
        root = np.stack([decomp.apply(np.sqrt) for decomp in _decompositions(bs)])
        return zip(_dmats(_sym(root @ k @ root)), bs)

    return _sample(dim, lambda d: _psd_draw(rng, d) + _psd_draw(rng, d), build)


def random_diagonal_ordered_pair(rng: np.random.Generator, dim):
    """Ordered pair diagonal in the computational basis (entrywise a_i <= b_i)."""

    def draw(d):
        b = rng.uniform(0.2, 1.0, size=d)
        return np.diag(b * rng.uniform(0.0, 1.0, size=d)), np.diag(b)

    return _sample(dim, draw, lambda a, b: zip(_dmats(a), _dmats(b)))


def _commuting_draw(rng, dim, family):
    normals = rng.normal(size=(dim, dim))
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
    return normals, a, b


def random_commuting_pair(rng: np.random.Generator, dim, family="ordered"):
    """Commuting invertible pair from a family where inversion reverses k_BA.

    'ordered': eigenvalue differences share one sign (drawn either way), so
    both sides of the reversal identity are +/-1.  'constant_product': the
    eigenvalue products a_i * b_i are all equal, making the inverse-side
    differences pointwise proportional to the original ones; the identity
    then holds with a nontrivial value.  'free': unconstrained spectra (the
    identity generally fails there; used only to measure the discrepancy).
    """

    def build(normals, a, b):
        q = _orthogonal(normals)
        return zip(_dmats(_rotated(a, q)), _dmats(_rotated(b, q)))

    return _sample(dim, lambda d, f: _commuting_draw(rng, d, f), build, family)


def random_invertible_pair(rng: np.random.Generator, dim):
    return _sample(dim, lambda d: _psd_draw(rng, d) + _psd_draw(rng, d), lambda *s: zip(_psd(*s[:2]), _psd(*s[2:])))


def random_same_support_pair(rng: np.random.Generator, dim, rank):
    """Singular pair sharing an exact support of the given rank."""

    def build(normals, a_eigs, a_normals, b_eigs, b_normals):
        basis = _orthogonal(normals)[..., : a_eigs.shape[-1]]
        cores = (_rotated(a_eigs, _orthogonal(a_normals)), _rotated(b_eigs, _orthogonal(b_normals)))
        return zip(*(_supported(basis, core) for core in cores))

    def draw(d, r):
        return (rng.normal(size=(d, d)),) + _psd_draw(rng, r) + _psd_draw(rng, r)

    return _sample(dim, draw, build, rank)


def random_nested_support_pair(rng: np.random.Generator, dim):
    """(A, B) with the support of A contained in the support of B.

    A's rank is drawn within B's drawn rank, which is B's support: B's
    support eigenvalues are at least 0.1 and its kernel is roundoff.
    """

    def draw(d):
        rank = int(rng.integers(1, d + 1))
        return _psd_draw(rng, d, rank) + _psd_draw(rng, rank, int(rng.integers(1, rank + 1)))

    def build(b_eigs, b_normals, core_eigs, core_normals):
        bs = _psd(b_eigs, b_normals)
        basis = np.stack([d.eigenvectors[:, d.eigenvalues > d.support_cut()] for d in _decompositions(bs)])
        return zip(_supported(basis, _rotated(core_eigs, _orthogonal(core_normals))), bs)

    return _sample(dim, draw, build)
