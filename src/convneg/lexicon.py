"""Word-vector ingestion, density-matrix construction, and lexicon persistence.

A word's density matrix is the mixture of outer products of the unit-length
vectors of the word and its hyponyms, scaled so the largest eigenvalue is 1.
A word of r < d such vectors has rank r, so its spectrum is read off the r×r
Gram matrix of the vectors: building it costs O(d²·r + d·r²), not the O(d³)
of a d×d eigensolve.  The on-disk lexicon format is binary for exactness.
"""

from __future__ import annotations

import hashlib
import logging
import struct
from collections import Counter
from dataclasses import dataclass, field
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
from .spectral import PSD_TOL, Dmat, _certified_normalized, normalize_max_eig

MAGIC = b"DMLX1"

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
                         routes: Counter | None = None) -> Dmat:
    """Mixture of unit outer products over the word and its known hyponyms.

    Hyponyms missing from the vector table, or with a zero vector, are
    skipped; a word with no usable hyponyms yields a pure rank-1 state.  The
    sum is divided by its largest eigenvalue where that exceeds 1
    (`normalize_max_eig`).  Its spectrum comes from the r×r Gram matrix of
    the r unit vectors where `_gram_spectrum` proves it, and from a d×d
    `eigvalsh` otherwise.  `routes`, if given, counts the word under "gram"
    or "eigvalsh".
    """
    if word not in vectors:
        raise UnknownWordError(f"no vector for {word!r}")
    members = [word] + sorted(h for h in set(hyponyms) if h != word and h in vectors)
    dim = vectors.dim
    out = np.zeros((dim, dim))
    units = []
    for member in members:
        v = vectors[member]
        norm = float(np.linalg.norm(v))
        if norm < 1e-12:
            if member == word:
                raise ZeroMatrixError(f"zero vector for {word!r}")
            continue
        unit = v / norm
        out += np.outer(unit, unit)
        units.append(unit)
    spectrum = _gram_spectrum(np.array(units))
    if routes is not None:
        routes["eigvalsh" if spectrum is None else "gram"] += 1
    # each outer product is exactly symmetric, and so is their sum in one order
    return normalize_max_eig(Dmat(out, spectrum=spectrum))


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
    - `eigvalsh` of that r×r matrix G: off by at most 4·r·eps·‖G‖_F (the
      assumption `_certified_normalized` makes), with ‖G‖_F <= 1.01·‖F‖_F²;
    and a row v/‖v‖ rounded has squared norm below 1 + (d + 4)·eps, so
    ‖F‖_F² <= 1.01·r.  The sum, below 0.6·eps·r·(d + 9r), is under ρ,
    which leaves room for the rounding of the division by the scale and of
    the comparisons.  Since FᵀF is PSD, `out` has no eigenvalue below −ρ.

    The Gram route is taken for r < d when ρ <= PSD_TOL / 10.  The d×d
    `eigvalsh` it replaces errs by up to 4·d·eps·‖out‖_F <= 3.7·ρ itself,
    so both routes' spectra lie within PSD_TOL / 2 of `out`'s exact one, and
    both accept every built word: its eigenvalues lie in [−ρ, top + ρ], far
    from the thresholds −PSD_TOL and (after scaling) 1 + PSD_TOL.  The scale
    max(1, top) may differ from the d×d route's by a few ulps.
    """
    r, d = f.shape
    if r >= d or 1.1 * np.finfo(float).eps * r * (d + 5 * r) > PSD_TOL / 10:
        return None
    return lambda _: np.sort(np.append(np.linalg.eigvalsh(f @ f.T), np.zeros(d - r)))


@dataclass
class Lexicon:
    """Normalized density matrices per word, with construction provenance."""

    matrices: dict[str, Dmat]
    provenance: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        dims = {m.dim for m in self.matrices.values()}
        if len(dims) > 1:
            raise DimensionMismatchError(f"mixed matrix dimensions {sorted(dims)}")

    @property
    def dim(self) -> int:
        if not self.matrices:
            raise ValueError("empty lexicon has no dimension")
        return next(iter(self.matrices.values())).dim

    def __len__(self) -> int:
        return len(self.matrices)

    def __iter__(self) -> Iterator[str]:
        return iter(self.matrices)

    def __contains__(self, word: str) -> bool:
        return word in self.matrices

    def __getitem__(self, word: str) -> Dmat:
        """Exact-match lookup; words differing only in case are distinct."""
        try:
            return self.matrices[word]
        except KeyError:
            raise UnknownWordError(f"no density matrix for {word!r}") from None

    def keys(self):
        return self.matrices.keys()


def lookup_word(lexicon, word: str) -> Dmat:
    """A word's matrix from a Lexicon or a plain mapping; UnknownWordError if missing."""
    try:
        return lexicon[word]
    except KeyError:
        raise UnknownWordError(f"no density matrix for {word!r}") from None


def _file_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def build_lexicon(vectors: VectorTable, hyponym_sets: Mapping[str, set[str]] | None = None,
                  source_path=None) -> Lexicon:
    """Density matrices for every word in the vector table.

    `hyponym_sets` typically comes from HypernymHierarchy.hyponym_sets();
    words absent from it get pure states.  One DEBUG line on this module's
    logger counts the words whose spectrum came from their Gram matrix and
    those solved by a d×d `eigvalsh` (see `build_density_matrix`).
    """
    hyponym_sets = hyponym_sets or {}
    routes = Counter()
    matrices = {
        word: build_density_matrix(word, hyponym_sets.get(word, ()), vectors, routes=routes)
        for word in sorted(vectors)
    }
    logger.debug("built %d words at dim %d: %d proved by Gram spectrum, %d solved by eigvalsh",
                 len(matrices), vectors.dim, routes["gram"], routes["eigvalsh"])
    provenance = {
        "recipe": "unit-outer-product mixture of word and hyponym vectors, max-eig normalized",
        "dim": str(vectors.dim),
    }
    if source_path is not None:
        provenance["vector_file_sha256"] = _file_sha256(source_path)
    return Lexicon(matrices=matrices, provenance=provenance)


def save_lexicon(lexicon: Lexicon, path) -> None:
    """Write the binary format: magic, u32 count, u32 dim, then per-word records.

    Each record is a u16 UTF-8 byte length, the word bytes, and dim*dim
    little-endian float64 entries in row-major order.
    """
    if not lexicon.matrices:
        raise ValueError("refusing to save an empty lexicon")
    dim = lexicon.dim
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", len(lexicon.matrices), dim))
        for word in sorted(lexicon.matrices):
            encoded = word.encode("utf-8")
            if len(encoded) > 0xFFFF:
                raise ValueError(f"word too long to encode: {word[:32]!r}...")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(np.ascontiguousarray(lexicon.matrices[word].matrix, dtype="<f8"))


def load_lexicon(path) -> Lexicon:
    """Read the binary format back, re-validating every matrix invariant.

    A matrix gets the checks of `Dmat(matrix, normalized=True)`, with the same
    errors (wrapped in CorruptLexiconError).  At dim CERTIFY_MIN_DIM or above,
    a word of rank at most dim // 4 is proved PSD and normalized by a pivoted
    Cholesky certificate instead of a d×d eigensolve, and its eigenvalues are
    solved only if read; any other word is solved as before.  One DEBUG line
    on this module's logger counts the words of each kind.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(MAGIC) + 8 or blob[: len(MAGIC)] != MAGIC:
        raise CorruptLexiconError("bad magic bytes")
    count, dim = struct.unpack_from("<II", blob, len(MAGIC))
    offset = len(MAGIC) + 8
    matrix_bytes = dim * dim * 8
    matrices: dict[str, Dmat] = {}
    for index in range(count):
        if offset + 2 > len(blob):
            raise CorruptLexiconError("truncated word header")
        (word_len,) = struct.unpack_from("<H", blob, offset)
        offset += 2
        if offset + word_len + matrix_bytes > len(blob):
            raise CorruptLexiconError("truncated record")
        try:
            word = blob[offset : offset + word_len].decode("utf-8")
        except UnicodeDecodeError:
            raise CorruptLexiconError(f"record {index}: word bytes are not valid UTF-8") from None
        if word in matrices:
            raise CorruptLexiconError(f"record {index}: duplicate record for {word!r}")
        offset += word_len
        flat = np.frombuffer(blob, dtype="<f8", count=dim * dim, offset=offset)
        offset += matrix_bytes
        try:
            matrices[word] = _certified_normalized(flat.reshape(dim, dim))
        except Exception as exc:
            raise CorruptLexiconError(f"invalid matrix for {word!r}: {exc}") from exc
    if offset != len(blob):
        raise CorruptLexiconError(f"{len(blob) - offset} trailing bytes")
    certified = sum(m._eigenvalues is None for m in matrices.values())
    logger.debug("loaded %d words at dim %d: %d certified by Cholesky, %d solved by eigvalsh",
                 count, dim, certified, count - certified)
    return Lexicon(matrices=matrices, provenance={"loaded_from": str(path)})
