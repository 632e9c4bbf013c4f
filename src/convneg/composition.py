"""Meaning-update compositions of two density matrices.

spider, fuzz, and phaser read their spectral structure off the second
operand B: spider pinches A in B's eigenbasis and multiplies by B's
eigenvalues, fuzz conjugates A by B's eigenspace projectors weighted by the
eigenvalues, phaser conjugates by B's square root.  fuzz and phaser use
B's eigenspaces only, and spider fixes a basis inside each (see `spider`).
mult and diag work in the computational basis, and their entrywise
products commute bit for bit.  `COMPOSITIONS` names each composition; its
second argument is the structural operand B.

Cost at dimension d: the three structural compositions read B's cached
eigendecomposition (`spectral_decompose`, solved once per B) and then take
a fixed number of d x d BLAS matmuls (spider 2, phaser 3, fuzz 4), so
O(d^3) time and O(d^2) memory whatever B's spectrum is.  spider and fuzz
give their output's eigenpairs (`spectral._born`), so it is never solved:
past spider's rotations of groups smaller than d, only fuzz's blocks of
size > 1 take an `eigh`.  A scalar operand c·I (a pure word's `neg_inv` at
0.5) is solved for nothing: spider gives c times A's diagonal, and fuzz
and phaser give c times the other operand (`_times`), from that operand's
decomposition and with no matmul.  mult and diag are O(d^2) entrywise.
phaser's and mult's outputs are validated by one `eigh`
(`spectral._decomposed`), which also gives their decomposition; an exactly
diagonal output (diag's always, mult's for a diagonal operand) is
validated by its sorted diagonal instead and keeps the standard basis.
Rescaling divides a decomposition, and solves nothing.
"""

from __future__ import annotations

from enum import Enum
from types import MappingProxyType
from typing import Callable, Mapping

import numpy as np

from .spectral import Dmat, _born, _decomposed, _is_scalar, _roundoff_cut, check_dims, spectral_decompose


class CompositionKind(str, Enum):
    SPIDER = "spider"
    FUZZ = "fuzz"
    PHASER = "phaser"
    MULT = "mult"
    DIAG = "diag"


def _symmetric(matrix: np.ndarray) -> np.ndarray:
    return (matrix + matrix.T) / 2.0


def spider(A: Dmat, B: Dmat) -> Dmat:
    """Entrywise product in B's eigenbasis.

    Equivalent to conjugating the tensor product of A and B by the copy
    isometry built from B's eigenvectors, without materializing the
    dim^2 x dim^2 tensor: in B's eigenbasis B is diagonal, so the entrywise
    product keeps only A's diagonal there, scaled by B's eigenvalues.

    Inside each group of B's repeated eigenvalues above its support cut
    (`eigenvalue_groups`), the columns V_k are rotated to the eigenvectors
    of V_kᵀ diag(1, ..., d) V_k, so the basis depends on B's eigenspaces,
    not on LAPACK's columns (unless that matrix repeats an eigenvalue too),
    and spider equals mult for a diagonal B.  Each column is weighted by
    its group's value, as in `fuzz`.  So a B of one group above its support
    cut (a multiple of I to within the grouping tolerance) gives that value
    times A's diagonal, with no solve and no matmul.

    Cost: A's diagonal in that basis, diag(Vᵀ A V), is the column sums of
    V * (A V), so the whole update is two d x d matmuls.  Its eigenpairs
    are those weighted diagonal entries with the columns of V.
    """
    check_dims(A, B)
    decomp = spectral_decompose(B)
    groups = decomp.eigenvalue_groups()
    cut = decomp.support_cut()
    if len(groups) == 1 and groups[0][0] > cut:
        return _decomposed(np.diag(groups[0][0] * np.diagonal(A.matrix)))
    v = decomp.eigenvectors.copy()
    weights = np.empty(B.dim)
    index = np.arange(1.0, B.dim + 1)
    for value, start, stop in groups:
        weights[start:stop] = value
        if stop - start > 1 and value > cut:
            block = v[:, start:stop]
            v[:, start:stop] = block @ np.linalg.eigh((block.T * index) @ block)[1]
    values = weights * np.sum(v * (A.matrix @ v), axis=0)
    return _born(_symmetric((v * values) @ v.T), np.sort(values), lambda: (values, v))


def fuzz(A: Dmat, B: Dmat) -> Dmat:
    """Sum of B's eigenspace projectors applied around A, weighted by eigenvalue.

    Projectors are grouped per distinct eigenvalue of B
    (`SpectralDecomposition.eigenvalue_groups`), so degenerate spectra do not
    depend on the eigenvector choice inside an eigenspace.

    Cost: with V B's eigenvectors and P_k = V_k V_kᵀ the projector of group
    k, Σ_k value_k P_k A P_k = V (⊕_k value_k V_kᵀ A V_k) Vᵀ.  So A is
    turned into B's eigenbasis once, every entry outside the diagonal blocks
    of the groups is dropped, each block is scaled by its group's value (a
    zero-valued group leaves a zero block), and the result is turned back:
    four d x d matmuls and a few d x d arrays, however many groups there are.
    The output's eigenpairs are the blocks', turned back: a block of size 1
    is its own eigenvalue, and a block of size > 1 valued above roundoff
    (`_roundoff_cut` of B's top) is solved by `eigh`, rotating its columns;
    one within roundoff (B's kernel) keeps its diagonal, off by at most that
    cut times A's top eigenvalue.  A B of one group valued above roundoff
    has the one projector I, so the output is that value times A
    (`_times`): no solve and no matmul.
    """
    check_dims(A, B)
    decomp = spectral_decompose(B)
    v = decomp.eigenvectors
    groups = decomp.eigenvalue_groups()
    cut = _roundoff_cut(decomp.eigenvalues[0], B.dim)
    if len(groups) == 1 and groups[0][0] > cut:
        return _times(groups[0][0], A)
    blocks = np.zeros((A.dim, A.dim))
    for value, start, stop in groups:
        blocks[start:stop, start:stop] = value
    blocks *= v.T @ A.matrix @ v
    values, vectors = np.diagonal(blocks).copy(), v
    for value, start, stop in groups:
        if stop - start > 1 and value > cut:
            vectors = v.copy() if vectors is v else vectors
            values[start:stop], rotation = np.linalg.eigh(blocks[start:stop, start:stop])
            vectors[:, start:stop] = v[:, start:stop] @ rotation
    return _born(_symmetric(v @ blocks @ v.T), np.sort(values), lambda: (values, vectors))


def phaser(A: Dmat, B: Dmat) -> Dmat:
    """Conjugation by the spectral square root of B (Bayesian-style update).

    B's eigenvalues at or below roundoff (`spectral._roundoff_cut` of the
    top, where `SpectralDecomposition.support_factor` cuts) are zeroed
    before the root: the square root would turn a kernel eigenvalue of
    1e-17 into a weight of 3e-9 on an eigenvector that roundoff picks.

    A scalar operand c·I (`spectral._is_scalar`) is solved for nothing: a
    scalar B gives c·A, and a scalar A gives c·B with B's roundoff kernel
    cut (`_times`).  Otherwise the output is validated by one `eigh`.
    """
    check_dims(A, B)
    decomp = spectral_decompose(B)
    top = decomp.eigenvalues[0]
    cut = _roundoff_cut(top, B.dim)
    if _is_scalar(top, decomp.eigenvalues[-1], B.dim):
        return _times(top, A)
    if _is_scalar(A.eigenvalues[-1], A.eigenvalues[0], A.dim):
        return _times(A.eigenvalues[-1], B, cut)
    root = decomp.apply(lambda lam: np.sqrt(np.where(lam > cut, lam, 0.0)))
    return _decomposed(_symmetric(root @ A.matrix @ root))


def mult(A: Dmat, B: Dmat) -> Dmat:
    """Entrywise product in the computational basis (Schur product)."""
    check_dims(A, B)
    return _decomposed(_symmetric(A.matrix * B.matrix))


def diag_comp(A: Dmat, B: Dmat) -> Dmat:
    """Product of the diagonal parts; off-diagonal entries are discarded."""
    check_dims(A, B)
    return _decomposed(np.diag(np.diagonal(A.matrix) * np.diagonal(B.matrix)))


def _times(c, M: Dmat, cut: float = -np.inf) -> Dmat:
    """c·M for c > 0, born from M's decomposition times c with eigenvalues at or below `cut` (roundoff) zeroed."""

    def scaled(lam):
        return c * np.where(lam > cut, lam, 0.0)

    def eigenpairs():
        decomp = spectral_decompose(M)
        return scaled(decomp.eigenvalues), decomp.eigenvectors

    return _born(c * M.matrix, scaled(M.eigenvalues), eigenpairs)


# name -> composition; each takes (A, B) with B the structural operand
COMPOSITIONS: Mapping[CompositionKind, Callable[[Dmat, Dmat], Dmat]] = MappingProxyType({
    CompositionKind.SPIDER: spider,
    CompositionKind.FUZZ: fuzz,
    CompositionKind.PHASER: phaser,
    CompositionKind.MULT: mult,
    CompositionKind.DIAG: diag_comp,
})
