"""Numerical foundation: symmetric PSD matrices, eigendecomposition, Loewner order.

Matrices are real symmetric positive semidefinite throughout.  The top-level
normalization convention divides by the largest eigenvalue so that it never
exceeds 1; `rescale_max_eig` additionally scales upward so the largest
eigenvalue is exactly 1 (used for worldly contexts and pipeline outputs).

A `Dmat` is immutable, so its eigen-data is computed at most once and kept
read-only on the instance: the eigenvalues from validation, and the full
`SpectralDecomposition`, the only other field.  Nothing else is kept on a
`Dmat`: a measure that reuses work across calls keeps it in its own module
(the rank-1 route's one-slot cache in `entailment`).  A construction that
holds its output's eigenbasis (both logical negations, spider, fuzz,
phaser with a scalar operand) gives it (`_born`): validation reads that
spectrum, the eigenpairs are formed on first use, and nothing is solved.
A lexicon word is validated against the spectrum of its r×r Gram matrix,
and its eigenpairs are formed from it on first use (`_deferred`, which
`_born` uses too).  The rest (phaser, mult, diag, the worldly contexts) are
validated by one `eigh` (`_decomposed`), which also gives their
decomposition; an exactly diagonal one (diag's output, mult's by a
diagonal operand, `neg_inv`'s c·I) by its sorted diagonal, keeping the
standard basis, with no solve.
`normalize_max_eig` and `rescale_max_eig` read their result's checks off
the input's spectrum divided by the scale (a scale of at least 1 needs
none), and hand the result that spectrum, with the input's decomposition,
held or deferred, divided by the scale, so a rescaled matrix is never
solved again.  Threads sharing a `Dmat` may race
to fill its decomposition; the race is benign, because every writer stores
the same deterministic result.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import (
    DimensionMismatchError,
    NonSymmetricError,
    NotPSDError,
    ZeroMatrixError,
)

SYMMETRY_TOL = 1e-10
PSD_TOL = 1e-9
RANK_TOL = 1e-8
ZERO_NORM_TOL = 1e-12

EPS = np.finfo(float).eps

# Eigenvalues closer than this (relative to the largest) are treated as one
# eigenspace when grouping projectors.
EIGENVALUE_GROUP_TOL = 1e-8

@dataclass(frozen=True, eq=False)
class Dmat:
    """Real symmetric PSD matrix representing a word or context meaning.

    Construction validates symmetry (within SYMMETRY_TOL) and positive
    semidefiniteness (eigenvalues at least -max(PSD_TOL, roundoff of the
    top), `_check_psd`).  Instances are immutable; the wrapped array is
    read-only.  An operation that needs a top eigenvalue of at most 1
    checks it itself (`neg_sub`).

    The read-only ascending `eigenvalues` are the ones validation checked,
    kept from construction: `eigvalsh(matrix)` by default, `eigh`'s (or the
    sorted diagonal of an exactly diagonal one) for a matrix made by
    `_decomposed`, and the input's divided by the scale for one made by
    `normalize_max_eig` or `rescale_max_eig`, within roundoff of
    `eigvalsh`'s.  A caller that knows the spectrum more cheaply passes
    `spectrum`, a function from the array to its ascending eigenvalues
    (default `np.linalg.eigvalsh`); validation checks and keeps what it
    returns, so it must be proved within roundoff of the array's own (as a
    lexicon word's is from its r×r Gram matrix).  The spectral decomposition
    is set at construction by `_decomposed`, deferred to a function by
    `_born` or `_deferred`, and carried by rescaling; otherwise the first
    `spectral_decompose` call solves for it.  Every later call reuses it.
    Concurrent first calls may each compute it, and whichever identical
    result lands last is kept.
    """

    matrix: np.ndarray
    # how validation finds the ascending eigenvalues; None is np.linalg.eigvalsh
    spectrum: InitVar[Callable[[np.ndarray], np.ndarray] | None] = None
    # the read-only ascending eigenvalues validation checked
    eigenvalues: np.ndarray = field(init=False)
    # set at construction or by rescaling, else filled by the first spectral_decompose call;
    # a function (`_deferred`) is called by that first call in place of a solve
    _spectral: SpectralDecomposition | Callable[[], SpectralDecomposition] | None = field(init=False, default=None)

    def __post_init__(self, spectrum):
        m = np.array(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
            raise DimensionMismatchError(f"expected a square matrix, got shape {m.shape}")
        eigenvalues = _validate(m, spectrum or np.linalg.eigvalsh)
        m.setflags(write=False)
        eigenvalues.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "eigenvalues", eigenvalues)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def max_eigenvalue(self) -> float:
        return float(self.eigenvalues[-1])

    def frobenius_norm(self) -> float:
        return float(np.linalg.norm(self.matrix))

    def is_zero(self) -> bool:
        """The one zero-matrix rule, Frobenius norm below ZERO_NORM_TOL; a top eigenvalue above it answers alone."""
        return self.max_eigenvalue() <= ZERO_NORM_TOL and self.frobenius_norm() < ZERO_NORM_TOL

    def __repr__(self) -> str:
        return f"Dmat(dim={self.dim})"


def _validate(m: np.ndarray, spectrum) -> np.ndarray:
    """Check a square float array as a Dmat; return `spectrum(m)`.

    The checks: finite entries, symmetry within SYMMETRY_TOL, and ascending
    eigenvalues `spectrum(m)` passing `_check_psd`.  `spectrum` runs only on
    a finite symmetric `m`.
    """
    if not np.isfinite(m).all():
        raise NotPSDError("matrix has non-finite entries")
    # most inputs are exactly symmetric, and comparing is far cheaper than forming m - m.T
    asym = 0.0 if (m == m.T).all() else float(np.max(np.abs(m - m.T)))
    if asym > SYMMETRY_TOL:
        raise NonSymmetricError(f"asymmetry {asym:.3e} exceeds {SYMMETRY_TOL:.0e}")
    eigenvalues = spectrum(m)
    if eigenvalues[0] < -PSD_TOL:
        _check_psd(eigenvalues[0], eigenvalues[-1], len(m))
    return eigenvalues


def _check_psd(lowest, top, dim: int) -> None:
    """Raise NotPSDError for a lowest eigenvalue below -max(PSD_TOL, `_roundoff_cut` of the top).

    The roundoff cut is the larger above a top of about 1e6 / dim.  Callers
    ask only past -PSD_TOL, so a valid matrix pays one comparison.
    """
    cut = max(PSD_TOL, _roundoff_cut(top, dim))
    if lowest < -cut:
        raise NotPSDError(f"eigenvalue {lowest:.3e} below -{cut:.3g}")


def _scaled(M: Dmat, s: float) -> Dmat:
    """`M.matrix / s` without a new eigensolve; s is at least M's top eigenvalue, or below 1.

    Dividing by a positive s divides each eigenvalue by s.  For s >= 1 every
    check holds by construction: the entries stay finite, the asymmetry and
    a roundoff-negative eigenvalue only shrink, and the top eigenvalue
    becomes at most 1.  A smaller s can overflow and widens both, so the
    scaled array is checked again, its PSD check reading M's spectrum
    divided by s.  The result is built without `__init__`, whose validation
    would solve again.  It keeps M's eigenvalues divided by s, and M's
    decomposition, if it has one, divided by s and sharing M's read-only
    eigenvectors: nothing is solved for it again.  A decomposition M defers
    is deferred again: the result's first decomposition decomposes M, which
    keeps it, and divides that by s.  A scale of exactly 1 divides nothing
    (x / 1 is x, bit for bit), so the result shares M's read-only arrays.
    """

    def divided(array: np.ndarray) -> np.ndarray:
        return array if s == 1.0 else _read_only(array / s)

    m, eigenvalues, held = divided(M.matrix), divided(M.eigenvalues), M._spectral
    if s < 1.0:
        _validate(m, lambda _: eigenvalues)

    def spectral():
        decomp = spectral_decompose(M)
        return SpectralDecomposition(divided(decomp.eigenvalues), decomp.eigenvectors)

    out = object.__new__(Dmat)
    vars(out).update(matrix=m, eigenvalues=eigenvalues,
                     _spectral=None if held is None else spectral() if isinstance(held, SpectralDecomposition) else spectral)
    return out


def _decomposed(matrix) -> Dmat:
    """`Dmat(matrix)` validated by one `np.linalg.eigh`, whose (w, V) also give its decomposition.

    For a matrix whose construction does not give its eigenbasis (phaser,
    mult, a worldly context), so that it is solved once.  `_validate`
    checks finiteness and symmetry before the solve, as for any `Dmat`,
    then checks and keeps eigh's eigenvalues.  An exactly diagonal matrix
    (diag, mult by a diagonal operand, a scalar `neg_inv`) is solved for
    nothing: it is validated by its sorted diagonal, and decomposed on first
    use by `_decompose`'s diagonal rule.  Any other is tested for
    diagonality once, here, and decomposed from eigh's (w, V) directly.
    """
    solved = []

    def spectrum(m):
        diagonal = _diagonal(m)
        if diagonal is not None:
            return np.sort(diagonal)
        solved.extend(np.linalg.eigh(m))
        return solved[0]

    out = Dmat(matrix, spectrum=spectrum)
    if solved:
        object.__setattr__(out, "_spectral", _from_eigh(*solved))
    return out


def _born(matrix, spectrum: np.ndarray, eigenpairs: Callable[[], tuple[np.ndarray, np.ndarray]]) -> Dmat:
    """`Dmat(matrix)` whose construction gives its ascending `spectrum`, and its eigenpairs on first use (`_deferred`), so it is never solved.

    Validation checks and keeps `spectrum`.
    """
    return _deferred(Dmat(matrix, spectrum=lambda _: spectrum), eigenpairs)


def _deferred(M: Dmat, eigenpairs: Callable[[], tuple[np.ndarray, np.ndarray]]) -> Dmat:
    """M, whose first `spectral_decompose` builds its decomposition from `eigenpairs()`, a cheaper route than a solve.

    `eigenpairs()` returns (values, vectors), `values[i]` with column i of
    `vectors`, in any order; they are sorted as `eigh` returns them and the
    decomposition is built by `_decompose`'s rule (an exactly diagonal matrix
    keeps the standard basis).  Both must be M's within roundoff:
    orthonormal columns, values within a few d·eps of the top.
    """
    m = M.matrix

    def decompose():
        values, vectors = eigenpairs()
        order = np.argsort(values, kind="stable")
        return _decompose(m, (values[order], vectors[:, order]))

    object.__setattr__(M, "_spectral", decompose)
    return M


def _roundoff_cut(scale, dim: int):
    """Roundoff in the spectrum of a dim-square matrix whose largest eigenvalue magnitude is `scale`: 4 dim eps scale."""
    return 4 * dim * EPS * scale


def _is_scalar(top, bottom, dim: int) -> bool:
    """Whether a dim-square matrix with eigenvalues in [bottom, top], top > 0, is top·I to roundoff: its distance top - bottom within `_roundoff_cut` of top."""
    return top > 0.0 and top - bottom <= _roundoff_cut(top, dim)


def _roundoff_rank(eigenvalues: np.ndarray, dim: int) -> np.ndarray:
    """How many eigenvalues (last axis, so one spectrum or a stack) exceed roundoff (`_roundoff_cut` of the largest)."""
    return np.count_nonzero(eigenvalues > _roundoff_cut(eigenvalues.max(axis=-1, keepdims=True), dim), axis=-1)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigenvalues (descending, kernel clamped to 0) with orthonormal eigenvectors.

    The columns are in descending order: LAPACK's (`eigh`), the ones the
    matrix's construction gives (`_born`, `_deferred`), or the standard
    basis for an exactly diagonal matrix.  Only eigenspaces are stable: a
    column's sign, and the basis of a repeated eigenvalue's eigenspace, may
    change with roundoff, so read them through `eigenvalue_groups`,
    `eigenspaces` or `apply`.

    Instances come from `spectral_decompose`, which caches one per `Dmat`
    and shares it with every caller, or from rescaling one (`_scaled`),
    which shares its eigenvectors, so both arrays are read-only, as are the
    support factor and whitened support, each computed on first read.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvectors.shape[0]

    @cached_property
    def roundoff_rank(self) -> int:
        """How many eigenvalues exceed roundoff (`_roundoff_rank`)."""
        return int(_roundoff_rank(self.eigenvalues, self.dim))

    @cached_property
    def support_factor(self) -> np.ndarray:
        """F with F F^T = M to roundoff: eigenvectors scaled by root eigenvalues.

        The support is cut at roundoff (`roundoff_rank`), not at RANK_TOL: a
        real eigenvalue of 1e-9 left out moves k_E by about as much.
        """
        rank = self.roundoff_rank
        return _read_only(self.eigenvectors[:, :rank] * np.sqrt(self.eigenvalues[:rank]))

    @cached_property
    def whitened_support(self) -> np.ndarray:
        """W = U_r diag(lambda_r)^(-1/2) over the eigenvalues above the RANK_TOL support cut, so W W^T = pinv(M)."""
        rank = self.rank()
        return _read_only(self.eigenvectors[:, :rank] / np.sqrt(self.eigenvalues[:rank]))

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.T

    def apply(self, fn) -> np.ndarray:
        """Spectral function: sum of fn(eigenvalue) times each projector.

        `fn` maps the whole eigenvalue array at once (elementwise), e.g.
        `np.sqrt`.
        """
        v = self.eigenvectors
        mapped = np.asarray(fn(self.eigenvalues), dtype=float)
        out = (v * mapped) @ v.T
        return (out + out.T) / 2.0

    def support_cut(self) -> float:
        """Threshold separating support from kernel: RANK_TOL times the top eigenvalue."""
        top = self.eigenvalues[0] if self.eigenvalues.size else 0.0
        return RANK_TOL * max(top, 0.0)

    def rank(self) -> int:
        return int(np.sum(self.eigenvalues > self.support_cut()))

    def eigenvalue_groups(self) -> list[tuple[float, int, int]]:
        """The eigenspaces as (value, start, stop) over the descending eigenvalues.

        A group runs from its first eigenvalue while the next stays within
        EIGENVALUE_GROUP_TOL times max(1, top eigenvalue) of that first one;
        its value is the mean of `eigenvalues[start:stop]`, or their common
        value when the first and last are equal (the mean of equal values
        can miss it by an ulp).
        """
        values = self.eigenvalues.tolist()
        tol = EIGENVALUE_GROUP_TOL * max(abs(values[0]), 1.0) if values else 0.0
        groups: list[tuple[float, int, int]] = []
        start = 0
        n = len(values)
        for i in range(1, n + 1):
            if i == n or values[start] - values[i] > tol:
                equal = values[start] == values[i - 1]
                value = values[start] if equal else float(np.mean(self.eigenvalues[start:i]))
                groups.append((value, start, i))
                start = i
        return groups

    def eigenspaces(self):
        """Group eigenvalues within EIGENVALUE_GROUP_TOL (relative) into (value, projector) pairs.

        The groups are `eigenvalue_groups()`, in descending eigenvalue order;
        projectors sum to the identity.
        """
        groups: list[tuple[float, np.ndarray]] = []
        for value, start, stop in self.eigenvalue_groups():
            block = self.eigenvectors[:, start:stop]
            proj = block @ block.T
            groups.append((value, (proj + proj.T) / 2.0))
        return groups


def _diagonal(m: np.ndarray) -> np.ndarray | None:
    """m's diagonal if m is exactly diagonal, else None (counted, with no d×d temporary)."""
    diagonal = m.diagonal()
    return diagonal if np.count_nonzero(m) == np.count_nonzero(diagonal) else None


def _decompose(m: np.ndarray, solved=None) -> SpectralDecomposition:
    diagonal = _diagonal(m)
    if diagonal is None:
        return _from_eigh(*(np.linalg.eigh(m) if solved is None else solved))
    # the standard basis, ascending as eigh orders it, so that equal entries end in index order
    order = np.argsort(-diagonal, kind="stable")[::-1]
    return _from_eigh(diagonal[order], np.eye(m.shape[0])[:, order])


def _from_eigh(ascending: np.ndarray, vectors: np.ndarray) -> SpectralDecomposition:
    """The decomposition of eigh's ascending (w, V): descending, roundoff-negative eigenvalues clamped to zero."""
    eigenvalues, vectors = ascending[::-1], vectors[:, ::-1]
    if eigenvalues[-1] < -PSD_TOL:
        _check_psd(eigenvalues[-1], eigenvalues[0], len(eigenvalues))
    eigenvalues = np.where(eigenvalues < 0.0, 0.0, eigenvalues)
    return SpectralDecomposition(_read_only(eigenvalues), _read_only(np.ascontiguousarray(vectors)))


def spectral_decompose(M: Dmat, solved=None) -> SpectralDecomposition:
    """Eigendecompose a Dmat, clamping roundoff-negative eigenvalues to zero.

    Exactly diagonal matrices take a fast path that keeps the standard basis
    (equal diagonal entries in index order), so diagonal fixtures decompose
    without floating-point surprises.  The result is computed once per Dmat
    and the same read-only object is returned on every later call.  An
    eigenvalue below `_check_psd`'s cut raises NotPSDError when the
    decomposition is computed.  A caller holding `np.linalg.eigh(M.matrix)`,
    say a row of a stacked solve, passes it as `solved` to be used in place
    of that solve.
    A deferred decomposition (`_deferred`, or a rescaled one) is computed
    by its function instead.
    """
    decomp = M._spectral
    if not isinstance(decomp, SpectralDecomposition):
        decomp = _decompose(M.matrix, solved) if decomp is None else decomp()
        object.__setattr__(M, "_spectral", decomp)
    return decomp


def normalize_max_eig(M: Dmat) -> Dmat:
    """Divide by the largest eigenvalue when it exceeds 1; never scale upward."""
    if M.is_zero():
        raise ZeroMatrixError("cannot normalize the zero matrix")
    return _scaled(M, max(1.0, M.max_eigenvalue()))


def rescale_max_eig(M: Dmat) -> Dmat:
    """Scale so the largest eigenvalue is exactly 1 (up or down).

    Worldly contexts and conversational-negation outputs use this stronger
    convention so that results of different words live on a common scale.
    """
    top = M.max_eigenvalue()
    if top < ZERO_NORM_TOL:
        if M.is_zero():
            raise ZeroMatrixError("cannot rescale the zero matrix")
        raise ZeroMatrixError("largest eigenvalue is numerically zero")
    return _scaled(M, top)


def check_dims(A: Dmat, B: Dmat) -> None:
    """Raise DimensionMismatchError unless A and B have the same dimension."""
    if A.dim != B.dim:
        raise DimensionMismatchError(f"dims {A.dim} and {B.dim} differ")


def loewner_leq(A: Dmat, B: Dmat, tol: float = PSD_TOL) -> bool:
    """True iff B - A is PSD within tol (crisp Loewner order A below B)."""
    check_dims(A, B)
    smallest = float(np.linalg.eigvalsh(B.matrix - A.matrix)[0])
    return smallest >= -tol


def support_projector(M: Dmat) -> Dmat:
    """Orthogonal projector onto the span of eigenvectors above the rank cut."""
    decomp = spectral_decompose(M)
    cut = decomp.support_cut()
    proj = decomp.apply(lambda lam: np.where(lam > cut, 1.0, 0.0))
    return Dmat(proj)
