import hashlib
import logging
import struct
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from convneg.context import load_hierarchy
from convneg.errors import (
    CorruptLexiconError,
    DimensionMismatchError,
    DuplicateWordError,
    NonSymmetricError,
    NotNormalizedError,
    NotPSDError,
    ParseError,
    UnknownWordError,
)
from convneg.lexicon import (
    MAGIC,
    Lexicon,
    build_density_matrix,
    build_lexicon,
    load_lexicon,
    load_vectors,
    save_lexicon,
)
from convneg.spectral import Dmat, _roundoff_cut, normalize_max_eig

from conftest import identity

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadVectors:
    def test_two_words(self, tmp_path):
        table = load_vectors(write(tmp_path, "v.txt", "a 1.0 0.0\nb 0.0 1.0\n"))
        assert len(table) == 2 and table.dim == 2
        np.testing.assert_array_equal(table["a"], [1.0, 0.0])

    def test_ragged_lines_rejected(self, tmp_path):
        with pytest.raises(DimensionMismatchError):
            load_vectors(write(tmp_path, "v.txt", "a 1.0 0.0\nb 1.0\n"))

    def test_non_numeric_rejected(self, tmp_path):
        with pytest.raises(ParseError) as err:
            load_vectors(write(tmp_path, "v.txt", "a 1.0 zzz\n"))
        assert err.value.line_number == 1

    def test_empty_file_rejected(self, tmp_path):
        with pytest.raises(ParseError):
            load_vectors(write(tmp_path, "v.txt", ""))

    def test_duplicate_word_rejected_with_line_number(self, tmp_path):
        with pytest.raises(DuplicateWordError) as err:
            load_vectors(write(tmp_path, "v.txt", "a 1.0 0.0\nb 0.0 1.0\n\na 0.6 0.8\n"))
        assert err.value.line_number == 4
        assert "'a'" in str(err.value)

    def test_unknown_word(self, tmp_path):
        table = load_vectors(write(tmp_path, "v.txt", "a 1.0 0.0\n"))
        with pytest.raises(UnknownWordError):
            table["zzz"]


class TestBuildDensityMatrix:
    def test_pure_state_without_hyponyms(self, tmp_path):
        table = load_vectors(write(tmp_path, "v.txt", "a 1.0 0.0\n"))
        out = build_density_matrix("a", set(), table)
        np.testing.assert_allclose(out.matrix, np.diag([1.0, 0.0]))

    def test_orthogonal_hyponym(self, tmp_path):
        table = load_vectors(write(tmp_path, "v.txt", "a 1.0 0.0\nb 0.0 1.0\n"))
        out = build_density_matrix("a", {"b"}, table)
        np.testing.assert_allclose(out.matrix, np.eye(2))

    def test_duplicate_direction_normalizes(self, tmp_path):
        table = load_vectors(write(tmp_path, "v.txt", "a 1.0 0.0\nb 2.0 0.0\n"))
        out = build_density_matrix("a", {"b"}, table)
        np.testing.assert_allclose(out.matrix, np.diag([1.0, 0.0]), atol=1e-12)

    def test_missing_hyponyms_skipped(self, tmp_path):
        table = load_vectors(write(tmp_path, "v.txt", "a 1.0 0.0\n"))
        out = build_density_matrix("a", {"ghost"}, table)
        np.testing.assert_allclose(out.matrix, np.diag([1.0, 0.0]))

    def test_unknown_word_rejected(self, tmp_path):
        table = load_vectors(write(tmp_path, "v.txt", "a 1.0 0.0\n"))
        with pytest.raises(UnknownWordError):
            build_density_matrix("zzz", set(), table)

    def test_permutation_invariant(self, tmp_path):
        table = load_vectors(
            write(tmp_path, "v.txt", "a 1.0 0.2\nb 0.1 1.0\nc 0.5 0.5\nd 0.9 0.1\n")
        )
        first = build_density_matrix("a", ["b", "c", "d"], table)
        second = build_density_matrix("a", ["d", "b", "c"], table)
        np.testing.assert_array_equal(first.matrix, second.matrix)

    def test_one_eigensolve_per_word(self, tmp_path, rng, monkeypatch):
        lines = [f"w{i} " + " ".join(f"{v:.6f}" for v in rng.normal(size=5)) for i in range(4)]
        table = load_vectors(write(tmp_path, "v.txt", "\n".join(lines) + "\n"))
        solves = []
        real_eigvalsh = np.linalg.eigvalsh

        def counting_eigvalsh(a, *args, **kwargs):
            solves.append(a)
            return real_eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
        for hyponyms in (set(), {"w1"}, {"w1", "w2", "w3"}):
            solves.clear()
            build_density_matrix("w0", hyponyms, table)
            assert len(solves) == 1  # the Gram matrix's, to validate; normalizing reuses its spectrum

    def test_top_eigenvalue_exactly_one(self, tmp_path, rng):
        lines = [
            f"w{i} " + " ".join(f"{v:.6f}" for v in rng.normal(size=4)) for i in range(6)
        ]
        table = load_vectors(write(tmp_path, "v.txt", "\n".join(lines) + "\n"))
        out = build_density_matrix("w0", {f"w{i}" for i in range(1, 6)}, table)
        assert out.max_eigenvalue() == pytest.approx(1.0, abs=1e-12)


class TestPersistence:
    def make_lexicon(self, tmp_path):
        table = load_vectors(write(tmp_path, "v.txt", "a 1.0 0.0\nb 0.6 0.8\n"))
        return build_lexicon(table, {"a": {"b"}}, source_path=tmp_path / "v.txt")

    def test_round_trip_bit_exact(self, tmp_path):
        lexicon = self.make_lexicon(tmp_path)
        path = tmp_path / "lex.bin"
        save_lexicon(lexicon, path)
        loaded = load_lexicon(path)
        assert set(loaded.keys()) == set(lexicon.keys())
        for word in lexicon:
            assert np.max(np.abs(loaded[word].matrix - lexicon[word].matrix)) == 0.0

    def test_truncated_file_rejected(self, tmp_path):
        lexicon = self.make_lexicon(tmp_path)
        path = tmp_path / "lex.bin"
        save_lexicon(lexicon, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-7])
        with pytest.raises(CorruptLexiconError):
            load_lexicon(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "lex.bin"
        path.write_bytes(b"NOPE!" + b"\x00" * 16)
        with pytest.raises(CorruptLexiconError):
            load_lexicon(path)

    def test_corrupted_matrix_rejected(self, tmp_path):
        lexicon = self.make_lexicon(tmp_path)
        path = tmp_path / "lex.bin"
        save_lexicon(lexicon, path)
        blob = bytearray(path.read_bytes())
        blob[-8:] = np.array([5.0]).tobytes()  # breaks the normalized invariant
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptLexiconError):
            load_lexicon(path)

    def test_invalid_utf8_word_rejected_with_record_index(self, tmp_path):
        lexicon = self.make_lexicon(tmp_path)
        path = tmp_path / "lex.bin"
        save_lexicon(lexicon, path)
        blob = bytearray(path.read_bytes())
        second = len(MAGIC) + 8 + 2 + 1 + 2 * 2 * 8 + 2  # word bytes of record 1 ("b")
        assert blob[second : second + 1] == b"b"
        blob[second] = 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptLexiconError, match="record 1: word bytes are not valid UTF-8"):
            load_lexicon(path)

    def test_duplicate_word_rejected(self, tmp_path):
        record = struct.pack("<H", 1) + b"a" + np.eye(2).astype("<f8").tobytes()
        path = tmp_path / "lex.bin"
        path.write_bytes(MAGIC + struct.pack("<II", 2, 2) + record + record)
        with pytest.raises(CorruptLexiconError, match="record 1: duplicate record for 'a'"):
            load_lexicon(path)

    def test_mixed_dims_rejected_at_construction(self):
        with pytest.raises(DimensionMismatchError):
            Lexicon({"a": identity(2), "b": identity(3)})


def tree_table(tmp_path, rng, dim=64):
    """Vectors for a tree `root -> a, b -> a0..a9, b0..b9` and its hyponym sets.

    Ranks: root 23 (above the certificate's budget of dim // 4 = 16 at dim
    64), `a` and `b` 11, the leaves 1.
    """
    words = ["root", "a", "b"] + [f"{p}{i}" for p in "ab" for i in range(10)]
    lines = [f"{w} " + " ".join(f"{v:.6f}" for v in rng.normal(size=dim)) for w in words]
    table = load_vectors(write(tmp_path, "v.txt", "\n".join(lines) + "\n"))
    hyponyms = {p: {f"{p}{i}" for i in range(10)} for p in "ab"}
    hyponyms["root"] = set(words[1:])
    return table, hyponyms


def old_build_density_matrix(word, hyponyms, vectors):
    """The construction before the no-op symmetrization was dropped."""
    members = [word] + sorted(h for h in set(hyponyms) if h != word and h in vectors)
    out = np.zeros((vectors.dim, vectors.dim))
    for member in members:
        v = vectors[member]
        unit = v / float(np.linalg.norm(v))
        out += np.outer(unit, unit)
    return normalize_max_eig(Dmat((out + out.T) / 2.0))


def old_save_lexicon(lexicon, path):
    """The writer before the `astype("<f8")` copy was dropped."""
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", len(lexicon.matrices), lexicon.dim))
        for word in sorted(lexicon.matrices):
            encoded = word.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(lexicon.matrices[word].matrix.astype("<f8").tobytes(order="C"))


def sha256(data):
    return hashlib.sha256(data).hexdigest()


class TestDim64Load:
    """Loading at a dim where words are proved by the Cholesky certificate."""

    def saved_tree(self, tmp_path, rng):
        table, hyponyms = tree_table(tmp_path, rng)
        lexicon = build_lexicon(table, hyponyms)
        path = tmp_path / "lex.bin"
        save_lexicon(lexicon, path)
        return lexicon, path

    def test_solves_only_words_beyond_the_budget(self, tmp_path, rng, monkeypatch):
        lexicon, path = self.saved_tree(tmp_path, rng)
        eager = {w: Dmat(m.matrix, normalized=True).eigenvalues for w, m in lexicon.matrices.items()}
        shapes = []
        real_eigvalsh = np.linalg.eigvalsh

        def counting_eigvalsh(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return real_eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
        loaded = load_lexicon(path)
        assert shapes.count((64, 64)) == 1  # root, rank 23 > 16, falls back
        assert [w for w, m in loaded.matrices.items() if m._eigenvalues is not None] == ["root"]
        monkeypatch.undo()
        for word, m in loaded.matrices.items():
            assert m.eigenvalues.tobytes() == real_eigvalsh(m.matrix).tobytes()
            assert m.eigenvalues.tobytes() == eager[word].tobytes()
            assert not m.eigenvalues.flags.writeable

    @pytest.mark.parametrize(
        "corrupt, error",
        [
            (lambda m: m * 2.0, NotNormalizedError),
            (lambda m: m - 1e-6 * np.eye(64), NotPSDError),
            (lambda m: np.where(np.eye(64, k=3, dtype=bool), np.nan, m), NotPSDError),
            (lambda m: m + 1e-6 * np.eye(64, k=3), NonSymmetricError),
            (lambda m: m + 1e-12 * np.eye(64, k=3), None),  # within SYMMETRY_TOL: solved, kept
        ],
    )
    def test_corrupted_record_rejected_like_dmat(self, tmp_path, rng, corrupt, error):
        lexicon, path = self.saved_tree(tmp_path, rng)
        bad = corrupt(lexicon["a3"].matrix)
        blob = path.read_bytes()
        start = blob.index(lexicon["a3"].matrix.tobytes())
        path.write_bytes(blob[:start] + bad.astype("<f8").tobytes() + blob[start + bad.nbytes :])
        if error is None:
            loaded = load_lexicon(path)
            assert loaded["a3"].matrix.tobytes() == bad.tobytes()
            assert loaded["a3"]._eigenvalues is not None
            return
        with pytest.raises(error) as expected:
            Dmat(bad, normalized=True)
        with pytest.raises(CorruptLexiconError) as err:
            load_lexicon(path)
        assert str(err.value) == f"invalid matrix for 'a3': {expected.value}"
        assert type(err.value.__cause__) is error

    def test_logs_certified_and_solved_counts(self, tmp_path, rng, caplog):
        _, path = self.saved_tree(tmp_path, rng)
        with caplog.at_level(logging.DEBUG, logger="convneg.lexicon"):
            load_lexicon(path)
        assert [r.getMessage() for r in caplog.records] == [
            "loaded 23 words at dim 64: 22 certified by Cholesky, 1 solved by eigvalsh"
        ]

    def test_silent_by_default(self, tmp_path, rng, caplog):
        _, path = self.saved_tree(tmp_path, rng)
        load_lexicon(path)
        assert caplog.records == []

    def test_built_matches_d_by_d_reference_and_saved_bytes_unchanged(self, tmp_path, rng):
        table, hyponyms = tree_table(tmp_path, rng)
        lexicon = build_lexicon(table, hyponyms)
        for word, m in lexicon.matrices.items():
            assert_scaled_reference(m, word, hyponyms.get(word, ()), table)
        save_lexicon(lexicon, tmp_path / "new.bin")
        old_save_lexicon(lexicon, tmp_path / "old.bin")
        assert sha256((tmp_path / "new.bin").read_bytes()) == sha256((tmp_path / "old.bin").read_bytes())

    def test_no_d_by_d_solve_for_low_rank_words(self, tmp_path, rng, monkeypatch):
        table, hyponyms = tree_table(tmp_path, rng)
        shapes = []
        real_eigvalsh = np.linalg.eigvalsh

        def counting_eigvalsh(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return real_eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
        build_lexicon(table, hyponyms)
        # every word has rank below 64: one r×r Gram solve each, none 64×64
        ranks = [1 + len(hyponyms.get(w, ())) for w in table]
        assert sorted(shapes) == sorted((r, r) for r in ranks)

    def test_logs_gram_and_solved_counts(self, tmp_path, rng, caplog):
        table, hyponyms = tree_table(tmp_path, rng)
        with caplog.at_level(logging.DEBUG, logger="convneg.lexicon"):
            build_lexicon(table, hyponyms)
        assert [r.getMessage() for r in caplog.records] == [
            "built 23 words at dim 64: 23 proved by Gram spectrum, 0 solved by eigvalsh"
        ]

    def test_build_silent_by_default(self, tmp_path, rng, caplog):
        table, hyponyms = tree_table(tmp_path, rng)
        build_lexicon(table, hyponyms)
        assert caplog.records == []


# The Gram route's scale max(1, top) differs from the d×d route's by a few
# ulps (up to about 6 measured at dim 300); this allows 16.
SCALE_ULPS = 16


def assert_scaled_reference(m, word, hyponyms, table):
    """The built word m equals the d×d-route matrix up to one scale within SCALE_ULPS.

    m keeps the spectrum its unscaled sum was validated with, divided by the
    scale max(1, top) bit for bit, which lies within `_roundoff_cut` of
    `eigvalsh` of m itself.
    """
    old = old_build_density_matrix(word, hyponyms, table)
    nonzero = old.matrix != 0
    assert np.array_equal(m.matrix != 0, nonzero)
    ratio = m.matrix[nonzero] / old.matrix[nonzero]
    assert np.max(np.abs(ratio - 1.0)) <= SCALE_ULPS * np.finfo(float).eps
    with mock.patch("convneg.lexicon.normalize_max_eig", lambda unscaled: unscaled):
        unscaled = build_density_matrix(word, hyponyms, table)
    assert m.eigenvalues.tobytes() == (unscaled.eigenvalues / max(1.0, unscaled.max_eigenvalue())).tobytes()
    np.testing.assert_allclose(m.eigenvalues, np.linalg.eigvalsh(m.matrix), rtol=0,
                               atol=_roundoff_cut(m.max_eigenvalue(), m.dim))


class TestGramRoute:
    """Words of rank r < d take their spectrum from the r×r Gram matrix."""

    def build(self, word, hyponyms, table):
        routes = Counter()
        m = build_density_matrix(word, hyponyms, table, routes=routes)
        assert_scaled_reference(m, word, hyponyms, table)
        return m, routes

    def test_full_rank_word_falls_back_to_eigvalsh(self):
        table = load_vectors(FIXTURES / "toy_vectors.txt")
        hyponyms = load_hierarchy(FIXTURES / "toy_hierarchy.tsv").hyponym_sets()["entity"]
        m, routes = self.build("entity", hyponyms, table)  # 6 members at dim 4
        assert routes == Counter(eigvalsh=1)
        assert m.matrix.tobytes() == old_build_density_matrix("entity", hyponyms, table).matrix.tobytes()

    def test_parallel_and_duplicate_vectors(self, tmp_path, rng):
        a, b = rng.normal(size=6), rng.normal(size=6)
        rows = {"a": a, "twice": 2.0 * a, "copy": a, "negated": -a, "b": b}
        text = "".join(f"{w} " + " ".join(repr(float(x)) for x in v) + "\n" for w, v in rows.items())
        table = load_vectors(write(tmp_path, "v.txt", text))
        m, routes = self.build("a", set(rows) - {"a"}, table)  # Gram rank 2 of r = 5
        assert routes == Counter(gram=1)
        assert m.eigenvalues[-1] == pytest.approx(1.0, abs=1e-12)
        assert m.eigenvalues[0] >= -4 * 6 * np.finfo(float).eps  # eigvalsh's roundoff at dim 6
        assert np.sum(m.eigenvalues > 1e-12) == 2

    def test_zero_vector_hyponym_skipped(self, tmp_path):
        table = load_vectors(write(tmp_path, "v.txt", "a 1.0 0.2 0.0\nb 0.1 1.0 0.3\nz 0.0 0.0 0.0\n"))
        routes = Counter()
        m = build_density_matrix("a", {"b", "z"}, table, routes=routes)
        assert routes == Counter(gram=1)
        assert m.matrix.tobytes() == self.build("a", {"b"}, table)[0].matrix.tobytes()

    def test_rank_one_scale_exactly_one_when_gram_top_at_most_one(self, tmp_path, rng):
        vectors = [np.eye(5)[0], np.array([3.0, 4.0, 0.0, 0.0, 0.0])] + list(rng.normal(size=(8, 5)))
        text = "".join(f"w{i} " + " ".join(repr(float(x)) for x in v) + "\n" for i, v in enumerate(vectors))
        table = load_vectors(write(tmp_path, "v.txt", text))
        exact = 0
        for i, v in enumerate(vectors):
            m, routes = self.build(f"w{i}", set(), table)
            assert routes == Counter(gram=1)
            unit = (v / np.linalg.norm(v))[None, :]
            top = np.linalg.eigvalsh(unit @ unit.T)[-1]
            outer = np.outer(unit, unit)
            assert m.matrix.tobytes() == (outer if top <= 1.0 else outer / top).tobytes()
            exact += top <= 1.0
        assert exact >= 1  # w0 is a standard basis vector


class TestLexiconLookup:
    def test_lookup_is_case_exact(self, tmp_path):
        lexicon = TestPersistence().make_lexicon(tmp_path)
        assert "a" in lexicon and "A" not in lexicon
        with pytest.raises(UnknownWordError):
            lexicon["A"]

    def test_missing_word(self, tmp_path):
        lexicon = TestPersistence().make_lexicon(tmp_path)
        with pytest.raises(UnknownWordError):
            lexicon["zzz"]

    def test_provenance_recorded(self, tmp_path):
        lexicon = TestPersistence().make_lexicon(tmp_path)
        assert "vector_file_sha256" in lexicon.provenance
        assert lexicon.provenance["dim"] == "2"
