import hashlib
import logging
import os
import struct
import subprocess
import sys
import tempfile
import threading
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convneg import lexicon as lexicon_module
from convneg.cli import main
from convneg.context import WeightFunction, WeightKind, load_hierarchy, worldly_context_hierarchy
from convneg.errors import (
    CorruptLexiconError,
    DimensionMismatchError,
    DuplicateWordError,
    ParseError,
    UnknownWordError,
)
from convneg.experiment import load_dataset, parse_grid_config, run_grid
from convneg.lexicon import (
    MAGIC,
    Lexicon,
    VectorTable,
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


def pack(records, count=None, dim=2, magic=MAGIC):
    """A lexicon file of `(word bytes, rows)` records, with `count` defaulting to their number.

    `rows` is an (r, dim) array, or a flat one of r·dim values.
    """
    blob = magic + struct.pack("<II", len(records) if count is None else count, dim)
    for word, rows in records:
        rows = np.asarray(rows, dtype="<f8")
        rows = rows if rows.ndim == 2 else rows.reshape(-1, dim)
        blob += struct.pack("<H", len(word)) + word + struct.pack("<I", len(rows)) + rows.tobytes()
    return blob


class TestPersistence:
    def make_lexicon(self, tmp_path):
        table = load_vectors(write(tmp_path, "v.txt", "a 1.0 0.0\nb 0.6 0.8\n"))
        return build_lexicon(table, {"a": {"b"}})

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
        blob[-8:] = np.array([5.0]).tobytes()  # record 1's only row is no longer a unit vector
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptLexiconError, match="record 1: row 0 of 'b' has squared norm off 1"):
            load_lexicon(path)

    def test_invalid_utf8_word_rejected_with_record_index(self, tmp_path):
        lexicon = self.make_lexicon(tmp_path)
        path = tmp_path / "lex.bin"
        save_lexicon(lexicon, path)
        blob = bytearray(path.read_bytes())
        second = len(MAGIC) + 8 + 2 + 1 + 4 + 2 * 2 * 8 + 2  # word bytes of record 1 ("b"); "a" has 2 rows
        assert blob[second : second + 1] == b"b"
        blob[second] = 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptLexiconError, match="record 1: word bytes are not valid UTF-8"):
            load_lexicon(path)

    def test_duplicate_word_rejected(self, tmp_path):
        path = tmp_path / "lex.bin"
        path.write_bytes(pack([(b"a", [1.0, 0.0]), (b"a", [1.0, 0.0])]))
        with pytest.raises(CorruptLexiconError, match="record 1: duplicate record for 'a'"):
            load_lexicon(path)

    @pytest.mark.parametrize("blob, message", [
        (pack([(b"a", [1.0, 0.0])])[:-1], "record 0: truncated"),
        (pack([(b"a", [1.0, 0.0])], count=2), "record 1: truncated"),
        (pack([(b"a", [1.0, 0.0])])[:8], "truncated header"),
        (pack([(b"a", [1.0, 0.0])]) + b"\x00", "1 trailing bytes"),
        (pack([(b"a", [1.0, 0.0]), (b"\xff", [1.0, 0.0])]), "record 1: word bytes are not valid UTF-8"),
        (pack([(b"a", [1.0, 0.0]), (b"a", [0.0, 1.0])]), "record 1: duplicate record for 'a'"),
        (pack([(b"a", np.zeros((0, 2)))]), "record 0: 'a' has no rows"),
        (pack([(b"a", [1.0, 0.0, np.nan, 1.0])]), "record 0: 'a' has non-finite values"),
        (pack([(b"a", [1.0, 0.0, np.inf, 0.0])]), "record 0: 'a' has non-finite values"),
        (pack([(b"a", [1.0, 0.0, 0.0, 0.0])]), "record 0: row 1 of 'a' has squared norm off 1 by 1.000e+00"),
        # (1.5·2 + 5)·eps = 1.8e-15 at dim 2
        (pack([(b"a", [1.0 + 2e-15, 0.0])]), "record 0: row 0 of 'a' has squared norm off 1 by 3.997e-15"),
        (pack([]), "empty lexicon: 0 words of dim 2"),
        (pack([(b"a", np.zeros((1, 0)))], dim=0), "empty lexicon: 1 words of dim 0"),
        (pack([(b"a", [1.0, 0.0])], magic=b"DMLX1"), "format DMLX1 is not DMLX2: rebuild the lexicon with `build-lexicon`"),
    ])
    def test_corrupt_record_rejected(self, tmp_path, blob, message):
        path = tmp_path / "lex.bin"
        path.write_bytes(blob)
        with pytest.raises(CorruptLexiconError) as err:
            load_lexicon(path)
        assert str(err.value).startswith(message)

    def test_rows_within_the_norm_bound_accepted(self, tmp_path):
        path = tmp_path / "lex.bin"
        path.write_bytes(pack([(b"a", [1.0 + 2 * np.finfo(float).eps, 0.0])]))
        assert load_lexicon(path)["a"].max_eigenvalue() == 1.0

    def test_word_without_rows_not_saved(self, tmp_path):
        lexicon = self.make_lexicon(tmp_path)
        path = tmp_path / "lex.bin"
        with pytest.raises(ValueError, match="no unit rows for 'c'"):
            save_lexicon(Lexicon({**lexicon.matrices, "c": identity(2)}, rows=lexicon.rows), path)
        assert not path.exists()

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 64), n=st.integers(1, 68))
    def test_reload_is_the_built_word(self, seed, dim, n):
        # w0 takes every word, so it has r >= d when n >= dim; the others random subsets
        rng = np.random.default_rng(seed)
        words = [f"w{i}" for i in range(n)]
        scales = 10.0 ** rng.uniform(-3, 3, size=len(words))
        table = VectorTable({w: s * rng.normal(size=dim) for w, s in zip(words, scales)}, dim)
        hyponyms = {w: {h for h in words if rng.random() < 0.3} for w in words}
        hyponyms["w0"] = set(words)
        lexicon = build_lexicon(table, hyponyms)
        with tempfile.TemporaryDirectory() as scratch:
            save_lexicon(lexicon, Path(scratch) / "lex.bin")
            loaded = load_lexicon(Path(scratch) / "lex.bin")
        assert list(loaded.keys()) == sorted(words)
        for w in words:
            assert loaded[w].matrix.tobytes() == lexicon[w].matrix.tobytes()
            assert loaded[w].eigenvalues.tobytes() == lexicon[w].eigenvalues.tobytes()
            assert loaded.rows[w].tobytes() == lexicon.rows[w].tobytes()
            assert not loaded.rows[w].flags.writeable

    def test_mixed_dims_rejected_at_construction(self):
        with pytest.raises(DimensionMismatchError):
            Lexicon({"a": identity(2), "b": identity(3)})


def tree_table(tmp_path, rng, dim=64):
    """Vectors for a tree `root -> a, b -> a0..a9, b0..b9` and its hyponym sets.

    Ranks: root 23, `a` and `b` 11, the leaves 1; all take the Gram route.
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


class TestDim64Load:
    """Building, saving and loading at dim 64, where every word of the tree takes the Gram route."""

    def saved_tree(self, tmp_path, rng):
        table, hyponyms = tree_table(tmp_path, rng)
        lexicon = build_lexicon(table, hyponyms)
        path = tmp_path / "lex.bin"
        save_lexicon(lexicon, path)
        return lexicon, path

    def test_reload_keeps_matrix_and_eigenvalue_bytes(self, tmp_path, rng):
        lexicon, path = self.saved_tree(tmp_path, rng)
        loaded = load_lexicon(path)
        assert list(loaded.keys()) == sorted(lexicon.keys())
        for word, m in loaded.matrices.items():
            assert m.matrix.tobytes() == lexicon[word].matrix.tobytes()
            assert m.eigenvalues.tobytes() == lexicon[word].eigenvalues.tobytes()
            assert not m.eigenvalues.flags.writeable
        assert path.stat().st_size == len(MAGIC) + 8 + sum(
            2 + len(w) + 4 + f.nbytes for w, f in lexicon.rows.items()
        )

    def test_logs_loaded_gram_and_solved_counts(self, tmp_path, rng, caplog):
        _, path = self.saved_tree(tmp_path, rng)
        with caplog.at_level(logging.DEBUG, logger="convneg.lexicon"):
            load_lexicon(path)
        assert [r.getMessage() for r in caplog.records] == [
            "loaded 23 words at dim 64: 23 proved by Gram spectrum, 0 solved by eigvalsh"
        ]

    def test_logs_built_gram_and_solved_counts(self, caplog):
        # at dim 4 the toy hierarchy's "fruit" (4 vectors) and "entity" (6) are solved d×d
        table = load_vectors(FIXTURES / "toy_vectors.txt")
        with caplog.at_level(logging.DEBUG, logger="convneg.lexicon"):
            build_lexicon(table, load_hierarchy(FIXTURES / "toy_hierarchy.tsv").hyponym_sets())
        assert [r.getMessage() for r in caplog.records] == [
            "built 6 words at dim 4: 4 proved by Gram spectrum, 2 solved by eigvalsh"
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
        # saving a reloaded lexicon writes the same bytes
        save_lexicon(lexicon, tmp_path / "lex.bin")
        save_lexicon(load_lexicon(tmp_path / "lex.bin"), tmp_path / "again.bin")
        assert (tmp_path / "again.bin").read_bytes() == (tmp_path / "lex.bin").read_bytes()

    def test_no_d_by_d_solve_for_low_rank_words(self, tmp_path, rng, monkeypatch):
        table, hyponyms = tree_table(tmp_path, rng)
        shapes = []
        real_eigvalsh = np.linalg.eigvalsh

        def counting_eigvalsh(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return real_eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
        save_lexicon(build_lexicon(table, hyponyms), tmp_path / "lex.bin")
        # every word has rank below 64: one r×r Gram solve each, none 64×64, on build and on first read
        ranks = [1 + len(hyponyms.get(w, ())) for w in table]
        assert sorted(shapes) == sorted((r, r) for r in ranks)
        shapes.clear()
        loaded = load_lexicon(tmp_path / "lex.bin")
        assert shapes == []  # the load solves nothing
        for word, r in zip(table, ranks):
            loaded[word]
            assert shapes == [(r, r)]
            loaded[word]  # kept: a second read solves nothing
            assert shapes == [(r, r)]
            shapes.clear()

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

    def record(self, word, hyponyms, table):
        """The built word and the shape of each matrix `eigvalsh` solved for it."""
        shapes, real = [], np.linalg.eigvalsh
        with mock.patch.object(np.linalg, "eigvalsh", lambda a: shapes.append(a.shape) or real(a)):
            return build_density_matrix(word, hyponyms, table), shapes

    def build(self, word, hyponyms, table):
        """`record`, with the word checked against the reference construction."""
        m, shapes = self.record(word, hyponyms, table)
        assert_scaled_reference(m, word, hyponyms, table)
        return m, shapes

    def test_full_rank_word_falls_back_to_eigvalsh(self):
        table = load_vectors(FIXTURES / "toy_vectors.txt")
        hyponyms = load_hierarchy(FIXTURES / "toy_hierarchy.tsv").hyponym_sets()["entity"]
        m, shapes = self.build("entity", hyponyms, table)  # 6 members at dim 4
        assert shapes == [(4, 4)]
        assert m.matrix.tobytes() == old_build_density_matrix("entity", hyponyms, table).matrix.tobytes()

    def test_parallel_and_duplicate_vectors(self, tmp_path, rng):
        a, b = rng.normal(size=6), rng.normal(size=6)
        rows = {"a": a, "twice": 2.0 * a, "copy": a, "negated": -a, "b": b}
        text = "".join(f"{w} " + " ".join(repr(float(x)) for x in v) + "\n" for w, v in rows.items())
        table = load_vectors(write(tmp_path, "v.txt", text))
        m, shapes = self.build("a", set(rows) - {"a"}, table)  # Gram rank 2 of r = 5
        assert shapes == [(5, 5)]
        assert m.eigenvalues[-1] == pytest.approx(1.0, abs=1e-12)
        assert m.eigenvalues[0] >= -4 * 6 * np.finfo(float).eps  # eigvalsh's roundoff at dim 6
        assert np.sum(m.eigenvalues > 1e-12) == 2

    def test_zero_vector_hyponym_skipped(self, tmp_path):
        table = load_vectors(write(tmp_path, "v.txt", "a 1.0 0.2 0.0\nb 0.1 1.0 0.3\nz 0.0 0.0 0.0\n"))
        m, shapes = self.record("a", {"b", "z"}, table)
        assert shapes == [(2, 2)]
        assert m.matrix.tobytes() == self.build("a", {"b"}, table)[0].matrix.tobytes()

    def test_rank_one_scale_exactly_one_when_gram_top_at_most_one(self, tmp_path, rng):
        vectors = [np.eye(5)[0], np.array([3.0, 4.0, 0.0, 0.0, 0.0])] + list(rng.normal(size=(8, 5)))
        text = "".join(f"w{i} " + " ".join(repr(float(x)) for x in v) + "\n" for i, v in enumerate(vectors))
        table = load_vectors(write(tmp_path, "v.txt", text))
        exact = 0
        for i, v in enumerate(vectors):
            m, shapes = self.build(f"w{i}", set(), table)
            assert shapes == [(1, 1)]
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


def hier_grid_inputs(tmp_path, seed, dim=20):
    """`evaluate` inputs shaped like the `grid_hier` benchmark: tree 4×4×11, 4 negated leaves × 5 alternatives.

    Writes v.txt, h.tsv, d.tsv, g.cfg and the built lexicon lex.bin into
    tmp_path; returns lex.bin's path and the words the run reads: the
    negated leaves, their alternatives, and the two nearest hypernyms of
    each negated leaf (`poly` x = 2 gives the root weight 0).
    """
    rng = np.random.default_rng(seed)
    paths = {}
    for i in range(4):
        paths[f"c{i}"] = ["entity"]
        for j in range(4):
            paths[f"c{i}s{j}"] = [f"c{i}", "entity"]
            for k in range(11):
                paths[f"c{i}s{j}l{k}"] = [f"c{i}s{j}", f"c{i}", "entity"]
    words = ["entity", *paths]
    write(tmp_path, "v.txt", "".join(f"{w} " + " ".join(repr(float(x)) for x in rng.normal(size=dim)) + "\n"
                                     for w in words))
    write(tmp_path, "h.tsv", "".join(f"{w}\t{','.join(p)}\n" for w, p in paths.items()))
    leaves = [w for w, p in paths.items() if len(p) == 3]
    negated = rng.choice(leaves, size=4, replace=False).tolist()
    pairs = [(n, a) for n in negated for a in rng.choice([w for w in leaves if w != n], size=5, replace=False)]
    write(tmp_path, "d.tsv", "negated\talternative\tmean_rating\n" + "".join(
        f"{n}\t{a}\t{rng.uniform(1, 5):.2f}\n" for n, a in pairs))
    write(tmp_path, "g.cfg", "negations = sub, inv\ncompositions = spider, fuzz, phaser, mult, diag\n"
                             "bases = w, c\nsupport_weight = 0.5\ncontext = hierarchy\ncontext_fn = poly\nx = 2\n")
    read = {w for pair in pairs for w in pair} | {h for n in negated for h in paths[n][:2]}
    table = load_vectors(tmp_path / "v.txt")
    hyponyms = load_hierarchy(tmp_path / "h.tsv").hyponym_sets()
    save_lexicon(build_lexicon(table, hyponyms), tmp_path / "lex.bin")
    return tmp_path / "lex.bin", read


def counting_mixture(monkeypatch):
    """Patch `_mixture` to record each call's rows; return the list of their bytes."""
    calls = []
    real = lexicon_module._mixture

    def counting(f, *args):
        calls.append(f.tobytes())
        return real(f, *args)

    monkeypatch.setattr(lexicon_module, "_mixture", counting)
    return calls


class TestLazyLoad:
    """A loaded word is built from its rows on its first read, once, and kept."""

    def test_evaluate_builds_each_word_it_reads_once(self, tmp_path, monkeypatch):
        path, read = hier_grid_inputs(tmp_path, seed=5)
        rows = load_lexicon(path).rows
        calls = counting_mixture(monkeypatch)
        code = main(["evaluate", "--lexicon", str(path), "--hierarchy", str(tmp_path / "h.tsv"),
                     "--dataset", str(tmp_path / "d.tsv"), "--grid", str(tmp_path / "g.cfg"),
                     "--out", str(tmp_path / "out.csv")])
        assert code == 0
        assert sorted(calls) == sorted(rows[w].tobytes() for w in read)
        assert len(read) < len(rows) == 197

    def test_load_builds_nothing_and_saves_the_same_bytes(self, tmp_path, monkeypatch):
        path, _ = hier_grid_inputs(tmp_path, seed=1)
        calls = counting_mixture(monkeypatch)
        loaded = load_lexicon(path)
        assert len(loaded) == 197 and loaded.dim == 20 and "c0s0l0" in loaded and "zzz" not in loaded
        assert list(loaded) == list(loaded.keys()) == sorted(loaded.rows)
        save_lexicon(loaded, tmp_path / "again.bin")
        assert (tmp_path / "again.bin").read_bytes() == path.read_bytes()
        assert calls == []
        with pytest.raises(UnknownWordError):
            loaded["zzz"]
        assert calls == []

    def test_grid_with_two_workers_matches_one_and_keeps_one_object_per_word(self, tmp_path, monkeypatch):
        path, read = hier_grid_inputs(tmp_path, seed=2)
        hierarchy = load_hierarchy(tmp_path / "h.tsv")
        dataset = load_dataset(tmp_path / "d.tsv")
        configs = parse_grid_config(tmp_path / "g.cfg").configs()
        fn = WeightFunction(WeightKind.POLY, 2.0)
        seen = []
        real_getitem = Lexicon.__getitem__

        def recording(self, word):
            m = real_getitem(self, word)
            seen.append((word, m))
            return m

        for workers in (1, 2):
            loaded = load_lexicon(path)
            provider = partial(worldly_context_hierarchy, hierarchy=hierarchy, lexicon=loaded, fn=fn)
            if workers == 2:
                monkeypatch.setattr(Lexicon, "__getitem__", recording)
            run_grid(dataset, loaded, provider, configs, workers=workers).to_csv(tmp_path / f"w{workers}.csv")
        assert (tmp_path / "w1.csv").read_bytes() == (tmp_path / "w2.csv").read_bytes()
        objects = {}
        for word, m in seen:
            objects.setdefault(word, set()).add(id(m))
        assert set(objects) == read and all(len(ids) == 1 for ids in objects.values())

    def test_racing_first_reads_share_one_object(self, tmp_path, monkeypatch):
        path = tmp_path / "lex.bin"
        path.write_bytes(pack([(b"a", [0.6, 0.8])]))
        loaded = load_lexicon(path)
        barrier = threading.Barrier(2, timeout=10)
        calls = []
        real = lexicon_module._mixture

        def both_build(f, *args):
            calls.append(f)
            barrier.wait()  # both threads have missed the cache before either stores
            return real(f, *args)

        monkeypatch.setattr(lexicon_module, "_mixture", both_build)
        with ThreadPoolExecutor(max_workers=2) as pool:
            got = list(pool.map(lambda _: loaded["a"], range(2)))
        assert len(calls) == 2 and got[0] is got[1] is loaded["a"]

    def test_many_threads_reading_every_word_see_one_object_each(self, tmp_path):
        path, _ = hier_grid_inputs(tmp_path, seed=3, dim=6)
        loaded = load_lexicon(path)
        words = list(loaded)

        def read_all(seed):
            order = np.random.default_rng(seed).permutation(words)
            return {w: id(loaded[w]) for w in order}

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(read_all, seed) for seed in range(8)]
                seen = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        kept = {w: id(loaded[w]) for w in words}
        assert all(ids == kept for ids in seen)

    def test_word_beyond_the_validation_proof_built_at_load(self, tmp_path, monkeypatch, caplog):
        # at dim 2 the d×d route's bound proves validation up to 2 073 rows
        big = np.tile([0.6, 0.8], (2100, 1))
        path = tmp_path / "lex.bin"
        path.write_bytes(pack([(b"big", big), (b"small", [[1.0, 0.0]])]))
        calls = counting_mixture(monkeypatch)
        with caplog.at_level(logging.DEBUG, logger="convneg.lexicon"):
            loaded = load_lexicon(path)
        assert calls == [big.tobytes()]
        assert [r.getMessage() for r in caplog.records] == [
            "loaded 2 words at dim 2: 1 proved by Gram spectrum, 1 solved by eigvalsh"
        ]
        assert loaded["big"].max_eigenvalue() == pytest.approx(1.0)
        assert calls == [big.tobytes()]
        loaded["small"]
        assert len(calls) == 2

    def test_hand_built_and_row_words_share_one_mapping(self, tmp_path):
        lexicon = TestPersistence().make_lexicon(tmp_path)
        extended = Lexicon({"c": identity(2)}, rows=lexicon.rows)
        assert list(extended) == ["c", "a", "b"] and len(extended.matrices) == 3 and extended.dim == 2
        assert extended["a"].matrix.tobytes() == lexicon["a"].matrix.tobytes()
        with pytest.raises(DimensionMismatchError):
            Lexicon({"c": identity(3)}, rows=lexicon.rows)


def row_by_row_sum(f):
    """Σ fᵢfᵢᵀ over the rows of f as a loop: each row's outer product rounded, then added in row order."""
    out = np.zeros((f.shape[1], f.shape[1]))
    for unit in f:
        out += np.outer(unit, unit)
    return out


# Run as a child: build a lexicon, save it, and print each word's row count, route (True for Gram),
# the digest of its built matrix and eigenvalues, and the digest of its unscaled sum.
BUILD_DIGESTS = """
import hashlib, sys
from unittest import mock
from convneg import lexicon
from convneg.context import load_hierarchy
lex = lexicon.build_lexicon(lexicon.load_vectors(sys.argv[1]), load_hierarchy(sys.argv[2]).hyponym_sets())
lexicon.save_lexicon(lex, sys.argv[3])
with mock.patch.object(lexicon, "normalize_max_eig", lambda unscaled: unscaled):
    sums = {word: lexicon._mixture(f).matrix for word, f in lex.rows.items()}
for word, m in lex.items():
    r = len(lex.rows[word])
    built = hashlib.sha256(m.matrix.tobytes() + m.eigenvalues.tobytes()).hexdigest()
    print(word, r, lexicon._gram_route(r, lex.dim), built, hashlib.sha256(sums[word].tobytes()).hexdigest())
"""


class TestMixtureSum:
    """`_mixture`'s sum rounds as the row-by-row loop, whatever the shape, alignment or BLAS thread count."""

    @pytest.mark.parametrize("aligned", [True, False])
    @pytest.mark.parametrize("d", [4, 20, 300])
    @pytest.mark.parametrize("r", [1, 2, 11, 47, 400])
    def test_sum_is_the_row_by_row_sum(self, rng, r, d, aligned):
        f = rng.normal(size=(r, d))
        f /= np.linalg.norm(f, axis=1, keepdims=True)
        if not aligned:  # rows read off a byte string at an odd offset, as `load_lexicon` may read them
            f = np.frombuffer(b"\0" + f.tobytes(), offset=1).reshape(r, d)
            assert not f.flags.aligned
        with mock.patch("convneg.lexicon.normalize_max_eig", lambda unscaled: unscaled):
            summed = lexicon_module._mixture(f)
        assert summed.matrix.tobytes() == row_by_row_sum(f).tobytes()

    def test_build_does_not_depend_on_blas_threads(self, tmp_path, rng):
        # dim 300: leaves of 1 row and words of 81 (Gram route), and a root of 325 (d×d route); each
        # thread count is set in a child's environment, before numpy loads
        dim, mids, leaves = 300, 4, 80
        paths = {f"m{i}": ("entity",) for i in range(mids)}
        paths |= {f"m{i}l{k}": (f"m{i}", "entity") for i in range(mids) for k in range(leaves)}
        vectors = write(tmp_path, "v.txt", "".join(
            f"{w} " + " ".join(f"{x:.17g}" for x in rng.normal(size=dim)) + "\n" for w in ["entity", *paths]
        ))
        hierarchy = write(tmp_path, "h.tsv", "".join(f"{w}\t{','.join(p)}\n" for w, p in paths.items()))
        src = str(Path(lexicon_module.__file__).resolve().parents[1])
        runs = []
        for threads in ("1", "2"):
            env = {
                **os.environ,
                "OPENBLAS_NUM_THREADS": threads,
                "OMP_NUM_THREADS": threads,
                "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
            }
            out = tmp_path / f"threads{threads}.bin"
            done = subprocess.run([sys.executable, "-c", BUILD_DIGESTS, str(vectors), str(hierarchy), str(out)],
                                  env=env, check=True, capture_output=True, text=True)
            words = {word: rest for word, *rest in map(str.split, done.stdout.splitlines())}
            runs.append((words, hashlib.sha256(out.read_bytes()).hexdigest()))
        (one, saved_one), (two, saved_two) = runs
        assert saved_one == saved_two
        assert sorted({(int(r), gram) for r, gram, *_ in one.values()}) == [
            (1, "True"), (1 + leaves, "True"), (1 + mids * (1 + leaves), "False")
        ]
        for word, (r, gram, built, summed) in one.items():
            assert two[word][3] == summed, word
            # a d×d-route word's scale is eigvalsh's top eigenvalue, which at dim 300 moves by
            # an ulp with the thread count: only its sum is compared
            if gram == "True":
                assert two[word][2] == built, word

