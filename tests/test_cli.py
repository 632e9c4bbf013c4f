import hashlib
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import convneg
from convneg.cli import main
from convneg.lexicon import MAGIC, load_lexicon


def build(fixture_paths, tmp_path):
    out = tmp_path / "toy.lex"
    code = main(
        [
            "build-lexicon",
            "--vectors", str(fixture_paths["vectors"]),
            "--hierarchy", str(fixture_paths["hierarchy"]),
            "--out", str(out),
        ]
    )
    assert code == 0
    return out


def test_build_lexicon_round_trip(fixture_paths, tmp_path, capsys):
    lex_path = build(fixture_paths, tmp_path)
    lexicon = load_lexicon(lex_path)
    assert set(lexicon.keys()) == {"apple", "orange", "fig", "movie", "fruit", "entity"}
    assert lexicon.dim == 4
    assert "wrote 6 matrices" in capsys.readouterr().out


def test_negate_prints_matrix(fixture_paths, tmp_path, capsys):
    lex_path = build(fixture_paths, tmp_path)
    code = main(
        [
            "negate",
            "--lexicon", str(lex_path),
            "--hierarchy", str(fixture_paths["hierarchy"]),
            "--word", "apple",
            "--negation", "sub",
            "--composition", "spider",
            "--basis", "w",
            "--context-fn", "poly",
            "--x", "2",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "not-apple" in out


def test_negate_text_out_parses(fixture_paths, tmp_path, capsys):
    lex_path = build(fixture_paths, tmp_path)
    capsys.readouterr()  # drop the build message
    code = main(
        [
            "negate",
            "--lexicon", str(lex_path),
            "--hierarchy", str(fixture_paths["hierarchy"]),
            "--word", "apple",
            "--text-out",
        ]
    )
    assert code == 0
    line = capsys.readouterr().out.strip()
    word, dim, values = line.split("\t")
    assert word == "apple" and int(dim) == 4
    matrix = np.array([float(v) for v in values.split()]).reshape(4, 4)
    assert np.linalg.eigvalsh(matrix)[-1] <= 1.0 + 1e-9


# Digest of the toy grid CSV; a change to any reported number changes it.
FIXTURE_CSV_SHA256 = "ef8d407d66852aba0e4c2234271c90528b1a4da8bf3518785ae7c6ccf1e60b92"
# The same grid with entailment-graph context, per graph measure.
GRAPH_FIXTURE_CSV_SHA256 = {
    "k_E": "c95682ec12b341df80236e58e6b28e897b65d28052c49f5d7267cb39468c1e8f",
    "k_hyp": "5c992204960dab56637aeced0f1fbc619db0f083b8ad25df3b26e0caa12bd16c",
}
# Digest of the `verify --seed 0 --trials 200` report.
VERIFY_STDOUT_SHA256 = "0a258a02d2f4b9cf25225303225c844a15d50ca1b7245c0e60301f8ded048a47"


def test_evaluate_writes_csv(fixture_paths, tmp_path, capsys):
    lex_path = build(fixture_paths, tmp_path)
    out_csv = tmp_path / "results.csv"
    code = main(
        [
            "evaluate",
            "--lexicon", str(lex_path),
            "--hierarchy", str(fixture_paths["hierarchy"]),
            "--dataset", str(fixture_paths["dataset"]),
            "--grid", str(fixture_paths["grid"]),
            "--out", str(out_csv),
        ]
    )
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0].startswith("negation,composition,basis,")
    assert len(lines) > 10
    assert hashlib.sha256(out_csv.read_bytes()).hexdigest() == FIXTURE_CSV_SHA256


def graph_grid(fixture_paths, tmp_path, measure):
    """The fixture grid config with its context switched to the entailment graph under `measure`."""
    hierarchy_grid = fixture_paths["grid"].read_text(encoding="utf-8")
    assert "context = hierarchy\n" in hierarchy_grid
    grid = tmp_path / "graph.cfg"
    grid.write_text(
        hierarchy_grid.replace("context = hierarchy\n", f"context = graph\ngraph_measure = {measure}\n"),
        encoding="utf-8",
    )
    return grid


@pytest.mark.parametrize("measure", sorted(GRAPH_FIXTURE_CSV_SHA256))
def test_evaluate_graph_context_csv(fixture_paths, tmp_path, measure):
    lex_path = build(fixture_paths, tmp_path)
    grid = graph_grid(fixture_paths, tmp_path, measure)
    out_csv = tmp_path / "results.csv"
    code = main(
        [
            "evaluate",
            "--lexicon", str(lex_path),
            "--hierarchy", str(fixture_paths["hierarchy"]),
            "--dataset", str(fixture_paths["dataset"]),
            "--grid", str(grid),
            "--out", str(out_csv),
        ]
    )
    assert code == 0
    assert hashlib.sha256(out_csv.read_bytes()).hexdigest() == GRAPH_FIXTURE_CSV_SHA256[measure]


@pytest.mark.parametrize("measure", sorted(GRAPH_FIXTURE_CSV_SHA256))
def test_evaluate_graph_context_needs_no_hierarchy(fixture_paths, tmp_path, measure):
    lex_path = build(fixture_paths, tmp_path)
    out_csv = tmp_path / "results.csv"
    code = main(
        [
            "evaluate",
            "--lexicon", str(lex_path),
            "--dataset", str(fixture_paths["dataset"]),
            "--grid", str(graph_grid(fixture_paths, tmp_path, measure)),
            "--out", str(out_csv),
        ]
    )
    assert code == 0
    assert hashlib.sha256(out_csv.read_bytes()).hexdigest() == GRAPH_FIXTURE_CSV_SHA256[measure]


def test_evaluate_hierarchy_context_requires_hierarchy(fixture_paths, tmp_path, capsys):
    # the lexicon does not exist: the missing flag is reported before anything loads
    code = main(
        [
            "evaluate",
            "--lexicon", str(tmp_path / "missing.lex"),
            "--dataset", str(fixture_paths["dataset"]),
            "--grid", str(fixture_paths["grid"]),
            "--out", str(tmp_path / "results.csv"),
        ]
    )
    assert code == 2
    assert capsys.readouterr().err == "error: --hierarchy is required when the grid's context is hierarchy\n"
    assert not (tmp_path / "results.csv").exists()


def write_synthetic_grid(out_dir, dim=64):
    """A 23-word hypernym tree at `dim` and a rating set of 3 negated leaves with 5 alternatives each."""
    rng = np.random.default_rng(79)
    paths = {}
    for i in range(2):
        paths[f"c{i}"] = ("entity",)
        for j in range(2):
            paths[f"c{i}s{j}"] = (f"c{i}", "entity")
            for k in range(4):
                paths[f"c{i}s{j}l{k}"] = (f"c{i}s{j}", f"c{i}", "entity")
    words = ["entity", *paths]
    leaves = [w for w, path in paths.items() if len(path) == 3]
    rows = ["negated\talternative\tmean_rating"]
    for n in rng.choice(leaves, size=3, replace=False):
        alternatives = rng.choice([w for w in leaves if w != n], size=5, replace=False)
        rows += [f"{n}\t{a}\t{rng.uniform(1.0, 5.0):.2f}" for a in alternatives]
    files = {
        "vectors": "\n".join(f"{w} " + " ".join(f"{x:.9g}" for x in rng.normal(size=dim)) for w in words),
        "hierarchy": "\n".join(f"{w}\t{','.join(path)}" for w, path in paths.items()),
        "dataset": "\n".join(rows),
        "grid": "context_fn = poly\nx = 2\n",
    }
    for name, text in files.items():
        (out_dir / name).write_text(text + "\n", encoding="utf-8")
    return {name: out_dir / name for name in files}


@pytest.mark.parametrize("inputs", ["toy", "synthetic"])
def test_evaluate_csv_does_not_depend_on_blas_threads(fixture_paths, tmp_path, inputs):
    # each thread count is set in a child's environment only, before numpy loads
    paths = fixture_paths if inputs == "toy" else write_synthetic_grid(tmp_path)
    lex_path = build(paths, tmp_path)
    src = str(Path(convneg.__file__).resolve().parents[1])
    csvs = []
    for threads in ("1", "2"):
        out_csv = tmp_path / f"threads{threads}.csv"
        env = {
            **os.environ,
            "OPENBLAS_NUM_THREADS": threads,
            "OMP_NUM_THREADS": threads,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        }
        child = "import sys; from convneg.cli import main; sys.exit(main(sys.argv[1:]))"
        args = ["evaluate", "--lexicon", str(lex_path), "--out", str(out_csv)]
        args += [f"--{name}={paths[name]}" for name in ("hierarchy", "dataset", "grid")]
        subprocess.run([sys.executable, "-c", child, *args], env=env, check=True, capture_output=True)
        csvs.append(out_csv.read_bytes())
    assert csvs[0] == csvs[1] and csvs[0].count(b"\n") == 19


def test_verify_report_digest(capsys):
    assert main(["verify", "--seed", "0", "--trials", "200"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == VERIFY_STDOUT_SHA256


def test_verify_exit_codes(capsys):
    assert main(["verify", "--seed", "0", "--trials", "5"]) == 0
    assert "ALL SUITES PASSED" in capsys.readouterr().out
    assert main(["verify", "--seed", "0", "--trials", "0"]) == 2
    assert main(["verify", "--seed", "-1", "--trials", "5"]) == 2
    assert "error: --seed must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("x", ["-1", "nan", "inf"])
def test_negate_rejects_bad_weight_parameter(fixture_paths, tmp_path, capsys, x):
    lex_path = build(fixture_paths, tmp_path)
    code = main(
        [
            "negate",
            "--lexicon", str(lex_path),
            "--hierarchy", str(fixture_paths["hierarchy"]),
            "--word", "apple",
            "--x", x,
        ]
    )
    assert code == 2
    assert "error: weight parameter must be finite and non-negative" in capsys.readouterr().err


def test_unknown_word_is_reported(fixture_paths, tmp_path, capsys):
    lex_path = build(fixture_paths, tmp_path)
    code = main(
        [
            "negate",
            "--lexicon", str(lex_path),
            "--hierarchy", str(fixture_paths["hierarchy"]),
            "--word", "ghost",
        ]
    )
    assert code == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "word, message",
    [("entity", "'entity' has no hypernym path"), ("movie", "all hypernym weights vanish for 'movie'")],
)
def test_negate_reports_a_word_without_context(fixture_paths, tmp_path, capsys, word, message):
    # both words are in the lexicon: "entity" tops the hierarchy, and "movie"'s one
    # hypernym weighs (n - i)^x = 0 under poly
    lex_path = build(fixture_paths, tmp_path)
    code = main(["negate", "--lexicon", str(lex_path), "--hierarchy", str(fixture_paths["hierarchy"]), "--word", word])
    assert code == 2
    assert f"error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "config, line",
    [
        ("negations = sub, bogus\n", 1),
        ("compositions = spider, blend\n", 1),
        ("bases = w, z\n", 1),
        ("negations =\n", 1),
        ("# axes\ncontext = grph\n", 2),
        ("context = hierarchy\ncontext_fn = cubic\n", 2),
        ("context = graph\ngraph_measure = k_BA\n", 2),
        ("x = -1\n", 1),
        ("x = nan\n", 1),
        ("x = two\n", 1),
        ("support_weight = 1.5\n", 1),
        ("graph_threshold = inf\n", 1),
        ("x = 1\nsupport_weight = 0.5\nx = 2\n", 3),
        ("volume = 11\n", 1),
        ("negations sub\n", 1),
    ],
)
def test_evaluate_rejects_bad_config_at_parse_time(fixture_paths, tmp_path, capsys, config, line):
    # the lexicon does not exist: the config must fail before anything loads
    grid = tmp_path / "grid.cfg"
    grid.write_text(config, encoding="utf-8")
    code = main(
        [
            "evaluate",
            "--lexicon", str(tmp_path / "missing.lex"),
            "--hierarchy", str(fixture_paths["hierarchy"]),
            "--dataset", str(fixture_paths["dataset"]),
            "--grid", str(grid),
            "--out", str(tmp_path / "results.csv"),
        ]
    )
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: line {line}: ")
    assert "Traceback" not in err


def evaluate_exit(lex_path, fixture_paths, tmp_path, capsys):
    """`evaluate` over the fixture files with the given lexicon: its exit code and stderr."""
    capsys.readouterr()
    code = main(
        [
            "evaluate",
            "--lexicon", str(lex_path),
            "--hierarchy", str(fixture_paths["hierarchy"]),
            "--dataset", str(fixture_paths["dataset"]),
            "--grid", str(fixture_paths["grid"]),
            "--out", str(tmp_path / "results.csv"),
        ]
    )
    return code, capsys.readouterr().err


def test_evaluate_reports_corrupt_lexicon_word(fixture_paths, tmp_path, capsys):
    lex_path = build(fixture_paths, tmp_path)
    blob = bytearray(lex_path.read_bytes())
    blob[len(MAGIC) + 8 + 2] = 0xFF  # first byte of record 0's word
    lex_path.write_bytes(bytes(blob))
    assert evaluate_exit(lex_path, fixture_paths, tmp_path, capsys) == (
        2, "error: record 0: word bytes are not valid UTF-8\n"
    )


def test_evaluate_rejects_a_zero_row_at_load(fixture_paths, tmp_path, capsys):
    # a word outside the dataset whose only row is zero: its file record is rejected before any run
    blob = build(fixture_paths, tmp_path).read_bytes()
    count, dim = struct.unpack_from("<II", blob, len(MAGIC))
    void = struct.pack("<H", 4) + b"void" + struct.pack("<I", 1) + bytes(8 * dim)
    lex_path = tmp_path / "zero.lex"
    lex_path.write_bytes(MAGIC + struct.pack("<II", count + 1, dim) + blob[len(MAGIC) + 8 :] + void)
    code, err = evaluate_exit(lex_path, fixture_paths, tmp_path, capsys)
    assert code == 2
    assert err.startswith(f"error: record {count}: row 0 of 'void' has squared norm off 1 by 1.000e+00, beyond ")


def test_evaluate_rejects_an_empty_lexicon(fixture_paths, tmp_path, capsys):
    lex_path = tmp_path / "empty.lex"
    lex_path.write_bytes(MAGIC + struct.pack("<II", 0, 4))
    code, err = evaluate_exit(lex_path, fixture_paths, tmp_path, capsys)
    assert code == 2
    assert err == "error: empty lexicon: 0 words of dim 4\n"
    assert not (tmp_path / "results.csv").exists()


def assert_missing_input_reported(argv, flag, tmp_path, capsys):
    """Run with the file after `flag` missing: one `error:` line, exit 2."""
    missing = tmp_path / "missing.txt"
    argv[argv.index(flag) + 1] = str(missing)
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {missing}: No such file or directory\n"


@pytest.mark.parametrize("flag", ["--lexicon", "--hierarchy", "--dataset", "--grid"])
def test_evaluate_reports_missing_input_file(fixture_paths, tmp_path, capsys, flag):
    lex_path = build(fixture_paths, tmp_path)
    capsys.readouterr()
    argv = [
        "evaluate",
        "--lexicon", str(lex_path),
        "--hierarchy", str(fixture_paths["hierarchy"]),
        "--dataset", str(fixture_paths["dataset"]),
        "--grid", str(fixture_paths["grid"]),
        "--out", str(tmp_path / "results.csv"),
    ]
    assert_missing_input_reported(argv, flag, tmp_path, capsys)


@pytest.mark.parametrize("flag", ["--vectors", "--hierarchy"])
def test_build_lexicon_reports_missing_input_file(fixture_paths, tmp_path, capsys, flag):
    argv = [
        "build-lexicon",
        "--vectors", str(fixture_paths["vectors"]),
        "--hierarchy", str(fixture_paths["hierarchy"]),
        "--out", str(tmp_path / "toy.lex"),
    ]
    assert_missing_input_reported(argv, flag, tmp_path, capsys)
