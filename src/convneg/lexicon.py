"""Word-vector ingestion, density-matrix construction, and lexicon persistence.

A word's density matrix is the mixture of outer products of the unit-length
vectors of the word and its hyponyms, scaled so the largest eigenvalue is 1.
A word of r < d such vectors has rank r, so its spectrum is read off the r×r
Gram matrix of the vectors: building it costs O(d²·r + d·r²), not the O(d³)
of a d×d eigensolve, and so does its decomposition, left to its first
`spectral_decompose` (`_gram_eigenpairs`).  The sum itself is one
`np.einsum` pass in row order, not BLAS, whose rounding would follow the
BLAS thread count (`_mixture`).  The on-disk lexicon (format
DMLX2) stores each word's unit vectors, not its d×d matrix.  `load_lexicon`
checks every record, then leaves each word to be built from its rows on its
first read, by the same construction (`_mixture`) as `build_density_matrix`:
a reloaded word is bitwise the built one, and a run pays only for the words
it reads.
"""

from __future__ import annotations

import logging
import struct
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping

import numpy as np

from .errors import (
    CorruptLexiconError,
    DimensionMismatchError,
    DuplicateWordError,
    ParseError,
    UnknownWordError,
    ZeroMatrixError,
)
from .spectral import EPS, PSD_TOL, Dmat, _deferred, _roundoff_rank, normalize_max_eig

MAGIC = b"DMLX2"

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class VectorTable:
    """Fixed-dimension word vectors keyed by surface form."""

    vectors: Mapping[str, np.ndarray]
    dim: int

    def __contains__(self, word: str) -> bool:
        return word in self.vectors

    def __getitem__(self, word: str) -> np.ndarray:
        try:
            return self.vectors[word]
        except KeyError:
            raise UnknownWordError(f"no vector for {word!r}") from None

    def __len__(self) -> int:
        return len(self.vectors)

    def __iter__(self) -> Iterator[str]:
        return iter(self.vectors)


def load_vectors(path) -> VectorTable:
    """Parse a text vector file: one `word v1 ... vd` record per line."""
    vectors: dict[str, np.ndarray] = {}
    dim: int | None = None
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            parts = line.split()
            if len(parts) < 2:
                raise ParseError("expected `word v1 ... vd`", lineno)
            word = parts[0]
            try:
                values = np.array([float(tok) for tok in parts[1:]], dtype=float)
            except ValueError:
                raise ParseError("non-numeric vector component", lineno) from None
            if not np.all(np.isfinite(values)):
                raise ParseError("non-finite vector component", lineno)
            if dim is None:
                dim = values.size
            elif values.size != dim:
                raise DimensionMismatchError(
                    f"line {lineno}: vector of length {values.size}, expected {dim}"
                )
            if word in vectors:
                raise DuplicateWordError(f"duplicate vector for {word!r}", lineno)
            values.setflags(write=False)
            vectors[word] = values
    if dim is None:
        raise ParseError("vector file is empty")
    return VectorTable(vectors=vectors, dim=dim)


def build_density_matrix(word: str, hyponyms: Iterable[str], vectors: VectorTable, *,
                         rows: dict[str, np.ndarray] | None = None) -> Dmat:
    """Mixture of unit outer products over the word and its known hyponyms.

    Hyponyms missing from the vector table, or with a zero vector, are
    skipped; a word with no usable hyponyms yields a pure rank-1 state.  The
    unit vectors, the word's own first and then its hyponyms' in sorted
    order, are summed by `_mixture`.  `rows`, if given, maps the word to its
    read-only (r, d) array of unit vectors, which is what `save_lexicon`
    stores.
    """
    if word not in vectors:
        raise UnknownWordError(f"no vector for {word!r}")
    members = [word] + sorted(h for h in set(hyponyms) if h != word and h in vectors)
    units = []
    for member in members:
        v = vectors[member]
        norm = float(np.linalg.norm(v))
        if norm < 1e-12:
            if member == word:
                raise ZeroMatrixError(f"zero vector for {word!r}")
            continue
        units.append(v / norm)
    f = np.array(units)
    f.setflags(write=False)
    if rows is not None:
        rows[word] = f
    return _mixture(f)


def _mixture(f: np.ndarray) -> Dmat:
    """Σ fᵢfᵢᵀ over the r unit rows of f (r×d), divided by its largest eigenvalue where that exceeds 1.

    The one construction behind a built and a loaded word.  The sum is one
    `np.einsum` pass, numpy's own sum-of-products loop with `optimize` off:
    each product fᵢ[k]·fᵢ[l] is rounded, then added in row order, which is
    bit for bit a loop adding each row's outer product, on every call and
    for every BLAS thread count.  (BLAS, as `f.T @ f` or `optimize=True`, is
    faster, but orders its additions by its thread count.)  The sum is
    validated against the spectrum of its r×r Gram matrix where
    `_gram_spectrum` proves it, and a d×d `eigvalsh` otherwise;
    `normalize_max_eig` reuses that spectrum.  On the Gram route the scaled
    word's decomposition is deferred to `_gram_eigenpairs`; otherwise it is
    solved on first use.
    """
    r, dim = f.shape
    out = np.einsum("ki,kj->ij", f, f)
    # each outer product is exactly symmetric, and so is their sum in one order
    word = Dmat(out, spectrum=_gram_spectrum(f))
    if not _gram_route(r, dim):
        return normalize_max_eig(word)
    scale = max(1.0, word.max_eigenvalue())  # what normalize_max_eig divides by
    return _deferred(normalize_max_eig(word), lambda: _gram_eigenpairs(f, scale))


def _gram_spectrum(f: np.ndarray) -> Callable[[np.ndarray], np.ndarray] | None:
    """The spectrum of Σ fᵢfᵢᵀ over the r unit rows of f (r×d), proved from F·Fᵀ; None if not proved.

    FᵀF and the r×r Gram matrix F·Fᵀ have the same nonzero eigenvalues, so
    FᵀF's ascending spectrum is that of F·Fᵀ merged with d − r zeros.  The
    function returned computes it for `Dmat(out, spectrum=...)`, where `out`
    is the rounded sum of the rows' rounded outer products.  Each value it
    returns is within ρ = 1.1·eps·r·(d + 5r) of the matching eigenvalue of
    `out` (eps is machine epsilon; Weyl's inequality adds the three errors,
    and merging two sorted lists moves no element by more than its inputs):
    - `out` − FᵀF: each entry is a sum of r rounded products, off by at most
      γ_r·(|F|ᵀ|F|), whose Frobenius norm is at most 0.51·r·eps·‖F‖_F²;
    - the computed F·Fᵀ: each entry a dot product of length d, off by at
      most 0.51·d·eps·‖F‖_F² in Frobenius norm;
    - `eigvalsh` of that r×r matrix G: off by at most 4·r·eps·‖G‖_F, with
      ‖G‖_F <= 1.01·‖F‖_F².  This assumes `eigvalsh` of a k×k matrix A
      is backward stable with constant 4·k: its eigenvalues are the exact
      ones of some symmetric A + E with ‖E‖₂ <= 4·k·eps·‖A‖_F, so Weyl's
      inequality moves none of them by more than that;
    and a row v/‖v‖ rounded has squared norm below 1 + (d + 4)·eps (as
    `load_lexicon` checks of every stored row), so ‖F‖_F² <= 1.01·r.  The
    sum, below 0.6·eps·r·(d + 9r), is under ρ, which leaves room for the
    rounding of the division by the scale and of the comparisons.  Since
    FᵀF is PSD, `out` has no eigenvalue below −ρ.

    The Gram route is taken for r < d when ρ <= PSD_TOL / 10.  The d×d
    `eigvalsh` it replaces errs by up to 4·d·eps·‖out‖_F <= 3.7·ρ itself,
    so both routes' spectra lie within PSD_TOL / 2 of `out`'s exact one, and
    both accept every built word: its eigenvalues lie in [−ρ, top + ρ], far
    from the thresholds −PSD_TOL and (after scaling) 1 + PSD_TOL.  The scale
    max(1, top) may differ from the d×d route's by a few ulps.
    """
    r, d = f.shape
    if not _gram_route(r, d):
        return None
    return lambda _: np.sort(np.append(np.linalg.eigvalsh(f @ f.T), np.zeros(d - r)))


def _gram_eigenpairs(f: np.ndarray, scale: float) -> tuple[np.ndarray, np.ndarray]:
    """The ascending eigenpairs of Σ fᵢfᵢᵀ / scale over the r unit rows of f (r×d, r < d), from its r×r Gram matrix.

    With F·Fᵀ = U Σ Uᵀ (a 1×1 one needs no solve), the support eigenvectors
    are Fᵀ U Σ^{-1/2} over the σ above roundoff (`_roundoff_rank` at dim d);
    the rest are 0.  One complete QR orthonormalizes them in descending
    order and completes the kernel: a column's error, about eps·‖F‖/√σ,
    enters FᵀF weighted by σ, so the result is orthonormal and reconstructs
    FᵀF within a few d·eps.  O(d²·r), against a d×d solve's O(d³).
    """
    r, d = f.shape
    gram = f @ f.T
    sigma, u = (gram[0], np.ones((1, 1))) if r == 1 else np.linalg.eigh(gram)
    sigma, u = sigma[::-1], u[:, ::-1]
    k = int(_roundoff_rank(sigma, d))
    q = np.linalg.qr((f.T @ u[:, :k]) / np.sqrt(sigma[:k]), mode="complete")[0]
    return (np.concatenate([sigma[:k], np.zeros(d - k)]) / scale)[::-1], q[:, ::-1]


def _gram_route(r: int, d: int) -> bool:
    """Whether `_gram_spectrum` proves the spectrum of r unit rows at dim d: r < d and ρ <= PSD_TOL / 10."""
    return r < d and 1.1 * EPS * r * (d + 5 * r) <= PSD_TOL / 10


def _log_routes(action: str, rows: Mapping[str, np.ndarray], dim: int) -> None:
    """One DEBUG line counting the words whose rows take the Gram route (`_gram_route`) and the rest."""
    gram = sum(_gram_route(len(f), dim) for f in rows.values())
    logger.debug("%s %d words at dim %d: %d proved by Gram spectrum, %d solved by eigvalsh",
                 action, len(rows), dim, gram, len(rows) - gram)


def _validation_proved(r: int, d: int) -> bool:
    """Whether `_mixture` of r rows that pass `load_lexicon`'s checks at dim d is proved to validate (see there)."""
    return _gram_route(r, d) or EPS * r * (0.52 * r + 4.1 * d) <= PSD_TOL / 2


class Lexicon(Mapping[str, Dmat]):
    """Normalized density matrices per word, and the unit rows of each built or loaded word.

    `rows` maps a word to the read-only (r, d) unit vectors its matrix is
    summed from (`build_density_matrix`); only words that have them can be
    saved.  The lexicon is a mapping over the words of both arguments (also
    as `matrices`).  A word given in `matrices` (built, or made by hand) is
    kept as given; a word with rows only is built from them by `_mixture` on
    its first read, and kept.  A word built from rows on the Gram route is
    decomposed from its Gram matrix when first decomposed.  `in`, `len`,
    iteration and `dim`, read off the rows and the given matrices, which
    must agree, build nothing.  Two threads reading a word at once may both
    build it; the race is benign, since `dict.setdefault` keeps the first
    object stored, and every reader gets that one (either build is bitwise
    the same).
    """

    def __init__(self, matrices: Mapping[str, Dmat], rows: dict[str, np.ndarray] | None = None):
        self.rows = {} if rows is None else rows
        self._built = dict(matrices)
        self._words = dict.fromkeys([*self._built, *self.rows])
        dims = {f.shape[1] for f in self.rows.values()} | {m.dim for m in self._built.values()}
        if len(dims) > 1:
            raise DimensionMismatchError(f"mixed matrix dimensions {sorted(dims)}")
        self._dim = dims.pop() if dims else None

    @property
    def matrices(self) -> Mapping[str, Dmat]:
        """Every word's matrix: the lexicon itself."""
        return self

    @property
    def dim(self) -> int:
        if self._dim is None:
            raise ValueError("empty lexicon has no dimension")
        return self._dim

    def __len__(self) -> int:
        return len(self._words)

    def __iter__(self) -> Iterator[str]:
        return iter(self._words)

    def __contains__(self, word) -> bool:
        return word in self._words

    def __getitem__(self, word: str) -> Dmat:
        """Exact-match lookup; words differing only in case are distinct."""
        m = self._built.get(word)
        if m is None:
            if word not in self.rows:
                raise UnknownWordError(f"no density matrix for {word!r}")
            m = self._built.setdefault(word, _mixture(self.rows[word]))
        return m


def lookup_word(lexicon, word: str) -> Dmat:
    """A word's matrix from a Lexicon or a plain mapping; UnknownWordError if missing."""
    try:
        return lexicon[word]
    except KeyError:
        raise UnknownWordError(f"no density matrix for {word!r}") from None


def build_lexicon(vectors: VectorTable, hyponym_sets: Mapping[str, set[str]] | None = None) -> Lexicon:
    """Density matrices for every word in the vector table, with their unit rows.

    `hyponym_sets` typically comes from HypernymHierarchy.hyponym_sets();
    words absent from it get pure states.  One DEBUG line on this module's
    logger counts the words whose spectrum came from their Gram matrix and
    those solved by a d×d `eigvalsh` (`_log_routes`).
    """
    hyponym_sets = hyponym_sets or {}
    rows: dict[str, np.ndarray] = {}
    matrices = {
        word: build_density_matrix(word, hyponym_sets.get(word, ()), vectors, rows=rows)
        for word in sorted(vectors)
    }
    _log_routes("built", rows, vectors.dim)
    return Lexicon(matrices=matrices, rows=rows)


def save_lexicon(lexicon: Lexicon, path) -> None:
    """Write format DMLX2: magic, u32 count, u32 dim, then one record per word, sorted.

    A record is a u16 UTF-8 byte length, the word bytes, a u32 row count r,
    and the word's r unit rows (`Lexicon.rows`) as r·dim little-endian
    float64 values, row-major.  A word without rows raises ValueError before
    anything is written.
    """
    if not lexicon.matrices:
        raise ValueError("refusing to save an empty lexicon")
    records = []
    for word in sorted(lexicon.matrices):
        encoded = word.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise ValueError(f"word too long to encode: {word[:32]!r}...")
        if word not in lexicon.rows:
            raise ValueError(f"no unit rows for {word!r}: only built or loaded words can be saved")
        f = lexicon.rows[word]
        records += [struct.pack("<H", len(encoded)), encoded, struct.pack("<I", len(f)),
                    np.ascontiguousarray(f, dtype="<f8").tobytes()]
    with open(path, "wb") as fh:
        fh.write(MAGIC + struct.pack("<II", len(lexicon.matrices), lexicon.dim))
        fh.writelines(records)


def load_lexicon(path) -> Lexicon:
    """Read format DMLX2 back: check every record, and build each word from its rows on its first read.

    Every failure raises CorruptLexiconError, naming the record at fault if
    any: another format (a file of an earlier format is to be rebuilt with
    `build-lexicon`), no words or dim 0, truncation or trailing bytes, a
    word that is not valid UTF-8 or repeats one before it, no rows, a
    non-finite value, or a row whose computed squared norm is off 1 by more
    than (1.5·d + 5)·eps: the (d + 4)·eps `_gram_spectrum` assumes of a
    rounded unit row, plus the rounding of the computed norm.

    A word is built by `_mixture` when the returned lexicon first reads it
    (see `Lexicon`), as `build_density_matrix` built it, so its matrix, kept
    eigenvalues and scale are bitwise those of the built word.  Waiting
    moves no error from the load to that first read (`_validation_proved`):
    - rows that pass these checks are finite unit rows within
      (1.5·d + 5)·eps, so ‖F‖_F² <= 1.01·r, and their sum is finite and
      exactly symmetric;
    - a unit row cannot make a zero matrix: the sum's trace is about r;
    - on the Gram route, `_gram_spectrum`'s proof puts the mixture's
      eigenvalues in [−ρ, top + ρ], with ρ <= PSD_TOL / 10;
    - on the d×d route, the sum's rounding (below 0.51·r·eps·‖F‖_F²) and
      `eigvalsh`'s (below 4·d·eps·‖out‖_F, ‖out‖_F <= 1.02·r) keep the
      lowest eigenvalue above −eps·r·(0.52·r + 4.1·d), which is within
      −PSD_TOL / 2 for r up to 1 210 at dim 300;
    and a scale of at least 1 needs no further check.  A word of more rows
    than that is built here, so that its failure, if any, is the load's.
    One DEBUG line on this module's logger counts the words of each route,
    read off each word's (r, d) with nothing solved.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    magic = blob[: len(MAGIC)]
    if magic != MAGIC:
        if magic[:4] == MAGIC[:4]:
            raise CorruptLexiconError(f"format {magic.decode('ascii', 'replace')} is not "
                                      f"{MAGIC.decode()}: rebuild the lexicon with `build-lexicon`")
        raise CorruptLexiconError("bad magic bytes")
    if len(blob) < len(MAGIC) + 8:
        raise CorruptLexiconError("truncated header")
    count, dim = struct.unpack_from("<II", blob, len(MAGIC))
    if count == 0 or dim == 0:
        raise CorruptLexiconError(f"empty lexicon: {count} words of dim {dim}")
    offset = len(MAGIC) + 8
    tol = (1.5 * dim + 5) * EPS
    rows: dict[str, np.ndarray] = {}

    def take(n: int) -> bytes:
        nonlocal offset
        if offset + n > len(blob):
            raise CorruptLexiconError(f"record {index}: truncated")
        offset += n
        return blob[offset - n : offset]

    for index in range(count):
        (word_len,) = struct.unpack("<H", take(2))
        try:
            word = take(word_len).decode("utf-8")
        except UnicodeDecodeError:
            raise CorruptLexiconError(f"record {index}: word bytes are not valid UTF-8") from None
        if word in rows:
            raise CorruptLexiconError(f"record {index}: duplicate record for {word!r}")
        (r,) = struct.unpack("<I", take(4))
        if r == 0:
            raise CorruptLexiconError(f"record {index}: {word!r} has no rows")
        f = np.frombuffer(take(r * dim * 8), dtype="<f8").reshape(r, dim)  # a read-only view of the bytes
        if not np.isfinite(f).all():
            raise CorruptLexiconError(f"record {index}: {word!r} has non-finite values")
        off = np.abs(np.einsum("ij,ij->i", f, f) - 1.0)
        if off.max() > tol:
            raise CorruptLexiconError(f"record {index}: row {int(off.argmax())} of {word!r} has "
                                      f"squared norm off 1 by {off.max():.3e}, beyond {tol:.3e}")
        rows[word] = f
    if offset != len(blob):
        raise CorruptLexiconError(f"{len(blob) - offset} trailing bytes")
    _log_routes("loaded", rows, dim)
    unproved = {word: _mixture(f) for word, f in rows.items() if not _validation_proved(len(f), dim)}
    return Lexicon(matrices=unproved, rows=rows)
