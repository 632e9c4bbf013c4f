"""convneg benchmark: one workload per invocation, end to end or traced per layer.

Run from the repository root, for example:

    python3 perfbench/run.py --workload grid_hier --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  A fuller record (provenance, input
shape, per-repetition wall and reference times, speed probes, output
digests, checks) is written to
`perfbench/out/<workload>_seed<seed>_trace<0|1>.json`; a traced run also
writes its spans to `perfbench/out/spans_<workload>_seed<seed>.jsonl.gz`.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import os
import sys

# BLAS must be pinned before numpy is first imported.
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402
import tracing  # noqa: E402
from inputs import TreeShape, write_grid_inputs, write_vectors_and_hierarchy  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
SRC = REPO / "src"
FIXTURES = REPO / "fixtures"
OUT = BENCH_DIR / "out"

SETUP_REPEATS = 11
MIN_REPS = 3
MIN_TRACED_REPS = 2

GRID_AXES = [
    "negations = sub, inv",
    "compositions = spider, fuzz, phaser, mult, diag",
    "bases = w, c",
    "support_weight = 0.5",
]
# 2 negations x (3 structural compositions x 2 bases + mult + diag) + 2 baselines
GRID_ROWS = 18
CSV_HEADER = (
    "negation,composition,basis,k_hyp1_r,k_hyp1_n,k_hyp2_r,k_hyp2_n,k_E1_r,k_E1_n,"
    "k_E2_r,k_E2_n,k_BA_r,k_BA_n,trace_r,trace_n"
)

END_TO_END = {"run_s": "s", "units_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


class SetupError(Exception):
    """The benchmark could not prepare its inputs."""


def _cli(argv: list[str]) -> tuple[int, str]:
    """Run the convneg CLI in-process; return (exit code, captured stdout)."""
    from convneg import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class Outcome:
    """What the checks made of one execution of a workload's command."""

    attempted: int
    failed: int
    digest: str
    errors: list[str] = field(default_factory=list)


class GridWorkload:
    """`evaluate` on a synthetic lexicon; a unit is one scored (row, pair)."""

    unit = "scored (grid row, dataset pair)"
    probe = staticmethod(speed.probe)

    def __init__(self, dim, tree, negated, alternatives, context_lines, check_workers=None):
        self.dim, self.tree = dim, tree
        self.negated, self.alternatives = negated, alternatives
        self.check_workers = check_workers
        self.grid_lines = GRID_AXES + context_lines

    def setup(self, work: Path, seed: int) -> dict:
        self.inputs = write_grid_inputs(
            work, seed, self.dim, self.tree, self.negated, self.alternatives, self.grid_lines
        )
        self.lexicon = work / "words.lex"
        rc, _ = _cli(["build-lexicon", "--vectors", str(self.inputs.vectors), "--hierarchy",
                      str(self.inputs.hierarchy), "--out", str(self.lexicon)])
        if rc != 0:
            raise SetupError(f"build-lexicon exited {rc}")
        shape = dict(self.inputs.shape, grid_rows=GRID_ROWS)
        if "context = graph" in self.grid_lines:
            # threshold 0 keeps every ordered pair: k_E is finite and clipped to [0, 1]
            shape["graph_edges"] = shape["words"] * (shape["words"] - 1)
        return shape

    def prepare(self) -> None:
        pass

    def timed(self, work: Path, rep: str, workers: int = 1):
        out = work / f"{rep}.csv"
        rc, _ = _cli(["evaluate", "--lexicon", str(self.lexicon), "--hierarchy",
                      str(self.inputs.hierarchy), "--dataset", str(self.inputs.dataset),
                      "--grid", str(self.inputs.grid), "--out", str(out),
                      "--workers", str(workers)])
        return rc, out

    def check(self, rc: int, out: Path) -> Outcome:
        pairs = self.inputs.shape["pairs"]
        attempted = GRID_ROWS * pairs
        if rc != 0 or not out.exists():
            return Outcome(attempted, attempted, "", [f"evaluate exited {rc}"])
        data = out.read_bytes()
        lines = data.decode("utf-8").splitlines()
        errors = []
        if not lines or lines[0] != CSV_HEADER:
            errors.append("unexpected CSV header")
        rows = [line.split(",") for line in lines[1:]]
        if len(rows) != GRID_ROWS:
            errors.append(f"{len(rows)} CSV rows, expected {GRID_ROWS}")
        scored = 0
        for row in rows:
            counts = {int(n) for n in row[4::2]} if len(row) == 15 else {0}
            scored += min(counts)
            if counts != {pairs}:
                errors.append(f"row {row[:3]} scored {sorted(counts)} of {pairs} pairs")
        failed = attempted - scored
        return Outcome(attempted, failed, _sha256(data), errors)


class LexiconWorkload:
    """`build-lexicon`, then `load_lexicon`; a unit is one word built and reloaded."""

    unit = "word built and reloaded"
    probe = staticmethod(speed.probe_dense)

    def __init__(self, dim, tree):
        self.dim, self.tree = dim, tree

    def setup(self, work: Path, seed: int) -> dict:
        work.mkdir(parents=True, exist_ok=True)
        self.vectors, self.hierarchy, _, shape = write_vectors_and_hierarchy(
            work, seed, self.dim, self.tree
        )
        return shape

    def prepare(self) -> None:
        """SHA-256 of each matrix built in memory, for the bit-identical reload check.

        Built once before the first timed repetition and dropped at once, so
        the harness holds one lexicon at most, below the timed command's own
        peak (build, save, then reload).  Only digests are kept.
        """
        from convneg import build_lexicon, load_hierarchy, load_vectors

        hierarchy = load_hierarchy(self.hierarchy)
        built = build_lexicon(load_vectors(self.vectors), hierarchy.hyponym_sets())
        self.reference = {word: _sha256(m.matrix.tobytes()) for word, m in built.matrices.items()}

    def timed(self, work: Path, rep: str, workers: int = 1):
        from convneg import load_lexicon

        out = work / f"{rep}.lex"
        rc, _ = _cli(["build-lexicon", "--vectors", str(self.vectors), "--hierarchy",
                      str(self.hierarchy), "--out", str(out)])
        loaded = load_lexicon(out) if rc == 0 else None
        return rc, (out, loaded)

    def check(self, rc: int, artifact) -> Outcome:
        out, loaded = artifact
        attempted = len(self.reference)
        if rc != 0 or loaded is None:
            return Outcome(attempted, attempted, "", [f"build-lexicon exited {rc}"])
        identical = sum(
            1
            for word, ref in self.reference.items()
            if word in loaded.matrices and _sha256(loaded.matrices[word].matrix.tobytes()) == ref
        )
        errors = []
        if identical != attempted or len(loaded) != attempted:
            errors.append(f"{attempted - identical} of {attempted} words not reloaded bit-identical")
        digest = _sha256(out.read_bytes())
        out.unlink()  # 74 MB at dim 300; the digest is what later runs compare
        return Outcome(attempted, attempted - identical, digest, errors)


class VerifyWorkload:
    """`verify --seed <seed> --trials N`; a unit is one suite trial."""

    unit = "suite trial"
    probe = staticmethod(speed.probe)

    def __init__(self, trials):
        self.trials = trials

    def setup(self, work: Path, seed: int) -> dict:
        work.mkdir(parents=True, exist_ok=True)
        self.seed = seed
        return {"trials": self.trials, "verify_seed": seed}

    def prepare(self) -> None:
        pass

    def timed(self, work: Path, rep: str, workers: int = 1):
        return _cli(["verify", "--seed", str(self.seed), "--trials", str(self.trials)])

    def check(self, rc: int, report: str) -> Outcome:
        trials = failures = 0
        for line in report.splitlines():
            if line.startswith(("PASS", "FAIL")):
                fields = dict(tok.split("=", 1) for tok in line.split() if "=" in tok)
                trials += int(fields["trials"])
                failures += int(fields["failures"])
        if trials == 0:
            return Outcome(1, 1, "", [f"verify exited {rc} and listed no suites"])
        errors = []
        if rc != 0:
            errors.append(f"verify exited {rc}")
        if not report.rstrip().endswith("ALL SUITES PASSED"):
            errors.append("verify report does not end with ALL SUITES PASSED")
        return Outcome(trials, failures, _sha256(report.encode()), errors)


# Sizes were set by measurement (see README.md): each command takes 1-2 s of
# wall time on a 2-core Xeon, so a 20 s run holds 9-18 repetitions for its median.
# grid_graph times `--workers 1`: with 2 workers its median moved 1.6x between
# two sets of runs as the host's CPU share changed.  The 2-worker thread-pool
# path still runs once per invocation, untimed, as an output-identity check.
WORKLOADS = {
    "grid_hier": lambda: GridWorkload(
        50, TreeShape(4, 4, 11), 4, 5, ["context = hierarchy", "context_fn = poly", "x = 2"]
    ),
    "grid_graph": lambda: GridWorkload(
        20, TreeShape(3, 3, 10), 3, 6,
        ["context = graph", "graph_measure = k_E", "graph_threshold = 0"], check_workers=2,
    ),
    "lexicon": lambda: LexiconWorkload(300, TreeShape(2, 2, 10)),
    "verify": lambda: VerifyWorkload(50),
}

# Boundaries each workload must reach at least once in a traced run, so that a
# renamed or bypassed function fails loudly instead of reporting 0.
_GRID_COMMON = (
    "spectral.Dmat_validate", "spectral.spectral_decompose", "spectral.max_eigenvalue",
    "spectral.rescale_max_eig", "linalg.eigh", "linalg.eigvalsh",
    "entailment.k_hyp", "entailment.k_e", "entailment.k_ba", "entailment.trace_similarity",
    "negation.neg_sub", "negation.neg_inv", "composition.spider", "composition.fuzz",
    "composition.phaser", "composition.mult", "composition.diag_comp",
    "pipeline.conversational_negate", "pipeline.plausibility",
    "experiment.run_grid", "experiment.pearson", "experiment.load_dataset",
    "lexicon.load_lexicon",
)
COVERAGE = {
    "grid_hier": _GRID_COMMON + ("context.worldly_context_hierarchy",),
    "grid_graph": _GRID_COMMON + (
        "context.build_entailment_graph", "context.worldly_context_graph",
        "context.EntailmentGraph.neighbors",
    ),
    "lexicon": (
        "spectral.Dmat_validate", "spectral.max_eigenvalue", "spectral.normalize_max_eig",
        "linalg.eigvalsh", "lexicon.load_vectors", "lexicon.build_density_matrix",
        "lexicon.save_lexicon", "lexicon.load_lexicon",
    ),
    "verify": (
        "spectral.Dmat_validate", "spectral.spectral_decompose", "spectral.max_eigenvalue",
        "spectral.rescale_max_eig", "spectral.normalize_max_eig", "linalg.eigh",
        "linalg.eigvalsh", "entailment.k_hyp", "entailment.k_e", "entailment.k_ba",
        "entailment.trace_similarity", "context.worldly_context_hierarchy",
        "negation.neg_sub", "negation.neg_inv", "composition.spider", "composition.fuzz",
        "composition.phaser", "composition.mult", "composition.diag_comp",
        "experiment.pearson", "lexicon.build_density_matrix", "lexicon.save_lexicon",
        "lexicon.load_lexicon", "sampling.random_psd", "sampling.random_orthogonal",
        "verify.verify_theorems",
    ),
}


# ---------------------------------------------------------------- provenance


def _git_commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads():
    """Thread count OpenBLAS reports at run time, if its library can be found."""
    import numpy as np

    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def provenance(seed: int) -> dict:
    import numpy as np

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "git_commit": _git_commit(),
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: deps.get("blas", {}).get(k) for k in ("name", "version")},
        "lapack": {k: deps.get("lapack", {}).get(k) for k in ("name", "version")},
        "blas_threads": _blas_threads(),
        "env": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                               "MKL_NUM_THREADS")},
        "load": "closed loop, one command at a time, one process",
        "speed_probe_reference_s": speed.REFERENCE_S,
    }


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "convneg").glob("*.py")) + sorted(FIXTURES.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


# ------------------------------------------------------------------ running


def _quartiles(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2], "n": len(values),
            "values": values}


def _setup(workload, work: Path, seed: int, clock, errors: list[str]):
    """Set up SETUP_REPEATS times (each in a fresh directory); keep the last.

    One set-up is a fresh interpreter that imports numpy and convneg, input
    generation, and the untimed lexicon build the grid workloads need.
    Returns the wall and reference seconds of each set-up, and the input shape.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    walls, times, shape, input_digests = [], [], None, set()
    for i in range(SETUP_REPEATS):
        target = work / f"setup{i}"

        def once():
            subprocess.run([sys.executable, "-c", "import numpy, convneg"], env=env,
                           check=True, cwd=work)
            return workload.setup(target, seed)

        shape, wall, elapsed = clock.time(once)
        walls.append(wall)
        times.append(elapsed)
        input_digests.add(tuple(_sha256(p.read_bytes()) for p in sorted(target.iterdir())))
        if i + 1 < SETUP_REPEATS:
            shutil.rmtree(target)
    if len(input_digests) != 1:
        errors.append("input generation is not deterministic for one seed")
    return walls, times, shape


def _fixture_digest(work: Path) -> str:
    """The bundled toy grid, run untimed; its CSV is the byte-identity reference."""
    lex, out = work / "toy.lex", work / "toy.csv"
    rc1, _ = _cli(["build-lexicon", "--vectors", str(FIXTURES / "toy_vectors.txt"),
                   "--hierarchy", str(FIXTURES / "toy_hierarchy.tsv"), "--out", str(lex)])
    rc2, _ = _cli(["evaluate", "--lexicon", str(lex), "--hierarchy",
                   str(FIXTURES / "toy_hierarchy.tsv"), "--dataset",
                   str(FIXTURES / "toy_dataset.tsv"), "--grid", str(FIXTURES / "toy_grid.cfg"),
                   "--out", str(out)])
    if rc1 or rc2 or not out.exists():
        return ""
    return _sha256(out.read_bytes())


class Runner:
    """Times repetitions of one workload's command and checks every output."""

    def __init__(self, workload, work: Path, clock):
        self.workload, self.work, self.clock = workload, work, clock
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        self.digests: dict[str, set[str]] = {}

    def once(self, label: str, kind: str, tracer=None, workers=1):
        """One timed execution; returns (wall s, reference s, units done, trace or None)."""

        def command():
            try:
                if tracer is None:
                    return self.workload.timed(self.work, label, workers), None
                return tracer.run(lambda: self.workload.timed(self.work, label, workers))
            except Exception:
                traceback.print_exc(file=sys.stderr)
                return None, None

        (result, trace), wall, elapsed = self.clock.time(command)
        if trace is not None:
            self.errors += [f"{label}: {e}" for e in trace.bookkeeping_errors(wall)]
        if result is None:
            self.errors.append(f"{label}: command raised")
            self.failed += 1
            self.attempted += 1
            return wall, elapsed, 0, trace
        outcome = self.workload.check(*result)
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.errors += [f"{label}: {e}" for e in outcome.errors]
        self.digests.setdefault(kind, set()).add(outcome.digest)
        return wall, elapsed, outcome.attempted - outcome.failed, trace

    def repeat(self, budget_s: float, min_reps: int, kind: str, tracer=None):
        """Repeat the command until budget_s of real time (probes and checks too) is spent."""
        walls, times, rates, traces = [], [], [], []
        start = time.perf_counter()
        while len(walls) < min_reps or (
            (time.perf_counter() - start) * (len(walls) + 1) / len(walls) <= budget_s
        ):
            wall, elapsed, done, trace = self.once(f"{kind}{len(walls)}", kind, tracer)
            walls.append(wall)
            times.append(elapsed)
            rates.append(done / elapsed)
            if trace is not None:
                traces.append(trace)
        return walls, times, rates, traces


def _ledger_check(key: str, digests: dict, errors: list[str]) -> None:
    """Output digests must match those of earlier runs of the same seed and source."""
    path = OUT / "digests.json"
    ledger = json.loads(path.read_text()) if path.exists() else {}
    if key in ledger and ledger[key] != digests:
        errors.append(f"output digests differ from an earlier run: {key}")
    ledger.setdefault(key, digests)
    path.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")


def run(args) -> dict:
    workload = WORKLOADS[args.workload]()
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work_{args.workload}_{args.seed}_{os.getpid()}"
    work.mkdir(parents=True)
    # verify's lexicon suite writes temporary files; keep them inside the checkout
    tempfile.tempdir = str(work)
    record: dict = {"workload": args.workload, "trace": args.trace,
                    "provenance": provenance(args.seed)}
    try:
        clock = speed.Clock(workload.probe)
        runner = Runner(workload, work / f"setup{SETUP_REPEATS - 1}", clock)
        setup_walls, setup_times, record["input_shape"] = _setup(
            workload, work, args.seed, clock, runner.errors
        )
        workload.prepare()
        fixture = _fixture_digest(work)
        if not fixture:
            runner.errors.append("fixture toy grid failed")

        tracer = None
        if args.trace:
            try:
                tracer = tracing.Tracer()
            except tracing.BoundaryNotFound as exc:
                raise SetupError(f"boundary function not found: {exc}") from None
            walls, times, _, _ = runner.repeat(args.seconds / 2, MIN_REPS, "untraced")
            _, traced_times, _, traces = runner.repeat(args.seconds / 2, MIN_TRACED_REPS,
                                                       "traced", tracer)
            metrics, layer_errors = _layer_metrics(args.workload, traces, times, traced_times)
            runner.errors += layer_errors
            tracing.write_spans(OUT / f"spans_{args.workload}_seed{args.seed}.jsonl.gz",
                                traces, f"{args.workload}/seed{args.seed}/pid{os.getpid()}")
            record["traced_run_s"] = _quartiles(traced_times)
            out_metrics = {k: {"value": v, "unit": tracing.unit(k)} for k, v in metrics.items()}
        else:
            walls, times, rates, _ = runner.repeat(args.seconds, MIN_REPS, "timed")
            values = {
                "run_s": statistics.median(times),
                "units_per_s": statistics.median(rates),
                "setup_s": statistics.median(setup_times),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            out_metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
            record["units_per_s"] = _quartiles(rates)

        if getattr(workload, "check_workers", None):
            # The thread-pool path must give the same output; traced, it also
            # checks the span bookkeeping on pool threads.
            label = f"workers{workload.check_workers}"
            runner.once(label, label, tracer, workers=workload.check_workers)

        digests = {kind: sorted(d) for kind, d in runner.digests.items()}
        merged = sorted(set().union(*runner.digests.values())) if runner.digests else []
        if len(merged) != 1:
            runner.errors.append(f"outputs differ between repetitions: {len(merged)} digests")
        _ledger_check(f"{args.workload}|seed={args.seed}|source={_source_digest()}",
                      {"output": merged, "fixture_csv": fixture}, runner.errors)
        record.update(
            run_s=_quartiles(times),
            run_s_wall=_quartiles(walls),
            setup_s=_quartiles(setup_times),
            setup_s_wall=_quartiles(setup_walls),
            speed_probe_s=_quartiles(clock.probes),
            unit=workload.unit,
            output_digests=digests,
            fixture_csv_sha256=fixture,
            attempted=runner.attempted,
            failed=runner.failed,
            fail_frac=runner.failed / max(runner.attempted, 1),
            errors=runner.errors,
            metrics=out_metrics,
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    name = f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    for error in record["errors"]:
        print(f"check failed: {error}", file=sys.stderr)
    return {
        "correct": not record["errors"] and record["failed"] == 0,
        "attempted": max(record["attempted"], 1),
        "failed": record["failed"],
        "metrics": record["metrics"],
    }


def _layer_metrics(workload: str, traces, times, traced_times):
    """Per-layer metrics: the median over traced repetitions of each summary value."""
    summaries = [t.summary() for t in traces]
    metrics = {k: statistics.median(s[k] for s in summaries) for k in summaries[0]}
    metrics["trace.overhead_frac"] = statistics.median(traced_times) / statistics.median(times) - 1
    errors = []
    for name in COVERAGE[workload]:
        if metrics[f"{name}.calls"] < 1:
            errors.append(f"traced boundary {name} recorded no call")
    return metrics, errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "convneg" / "cli.py").is_file() or not (FIXTURES / "toy_grid.cfg").is_file():
        print(f"error: convneg sources not found under {REPO}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        result = run(args)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
