"""Word-vector ingestion, density-matrix construction, and lexicon persistence.

A word's density matrix is the mixture of outer products of the unit-length
vectors of the word and its hyponyms, scaled so the largest eigenvalue is 1.
The on-disk lexicon format is binary for exactness.
"""

from __future__ import annotations

import hashlib
import logging
import struct
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

import numpy as np

from .errors import (
    CorruptLexiconError,
    DimensionMismatchError,
    DuplicateWordError,
    ParseError,
    UnknownWordError,
    ZeroMatrixError,
)
from .spectral import Dmat, _certified_normalized, normalize_max_eig

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


def build_density_matrix(word: str, hyponyms: Iterable[str], vectors: VectorTable) -> Dmat:
    """Mixture of unit outer products over the word and its known hyponyms.

    Hyponyms missing from the vector table are skipped; a word with no usable
    hyponyms yields a pure rank-1 state.  The sum always has top eigenvalue
    >= 1, so downward normalization lands it at exactly 1.
    """
    if word not in vectors:
        raise UnknownWordError(f"no vector for {word!r}")
    members = [word] + sorted(h for h in set(hyponyms) if h != word and h in vectors)
    dim = vectors.dim
    out = np.zeros((dim, dim))
    for member in members:
        v = vectors[member]
        norm = float(np.linalg.norm(v))
        if norm < 1e-12:
            if member == word:
                raise ZeroMatrixError(f"zero vector for {word!r}")
            continue
        unit = v / norm
        out += np.outer(unit, unit)
    # each outer product is exactly symmetric, and so is their sum in one order
    return normalize_max_eig(Dmat(out))


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
    words absent from it get pure states.
    """
    hyponym_sets = hyponym_sets or {}
    matrices = {
        word: build_density_matrix(word, hyponym_sets.get(word, ()), vectors)
        for word in sorted(vectors)
    }
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
