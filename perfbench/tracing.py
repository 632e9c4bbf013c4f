"""In-memory span tracer for the benchmark's traced runs.

Spans are keyed by code object (`module.qualname`) and recorded through
`sys.setprofile` / `threading.setprofile`, so the threads of a `--workers 2`
pool are traced too.  Nothing in the program is rebound: function tables
such as `pipeline._MEASURES` hold direct references that a name patch would
silently miss, while a code-object hook sees every call however it is made.

A span is (id, parent id, boundary index, thread id, start ns, end ns, self
ns).  Self time is the span's duration minus the durations of its children
in the same thread.  Top-level spans of a pool thread take the command span
as parent, but are not subtracted from it: the command span waits while
they run in parallel.
"""

from __future__ import annotations

import gzip
import hashlib
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from dataclasses import dataclass

# (metric prefix, module, attribute path); the prefix is `<layer>.<function>`.
BOUNDARIES = (
    ("spectral.Dmat_validate", "convneg.spectral", "Dmat.__post_init__"),
    ("spectral.spectral_decompose", "convneg.spectral", "spectral_decompose"),
    ("spectral.max_eigenvalue", "convneg.spectral", "Dmat.max_eigenvalue"),
    ("spectral.rescale_max_eig", "convneg.spectral", "rescale_max_eig"),
    ("spectral.normalize_max_eig", "convneg.spectral", "normalize_max_eig"),
    ("linalg.eigh", "numpy.linalg", "eigh"),
    ("linalg.eigvalsh", "numpy.linalg", "eigvalsh"),
    ("entailment.k_hyp", "convneg.entailment", "k_hyp"),
    ("entailment.k_e", "convneg.entailment", "k_e"),
    ("entailment.k_ba", "convneg.entailment", "k_ba"),
    ("entailment.trace_similarity", "convneg.entailment", "trace_similarity"),
    ("context.worldly_context_hierarchy", "convneg.context", "worldly_context_hierarchy"),
    ("context.build_entailment_graph", "convneg.context", "build_entailment_graph"),
    ("context.worldly_context_graph", "convneg.context", "worldly_context_graph"),
    ("context.EntailmentGraph.neighbors", "convneg.context", "EntailmentGraph.neighbors"),
    ("negation.neg_sub", "convneg.negation", "neg_sub"),
    ("negation.neg_inv", "convneg.negation", "neg_inv"),
    ("composition.spider", "convneg.composition", "spider"),
    ("composition.fuzz", "convneg.composition", "fuzz"),
    ("composition.phaser", "convneg.composition", "phaser"),
    ("composition.mult", "convneg.composition", "mult"),
    ("composition.diag_comp", "convneg.composition", "diag_comp"),
    ("pipeline.conversational_negate", "convneg.pipeline", "conversational_negate"),
    ("pipeline.plausibility", "convneg.pipeline", "plausibility"),
    ("experiment.run_grid", "convneg.experiment", "run_grid"),
    ("experiment.pearson", "convneg.experiment", "pearson"),
    ("experiment.load_dataset", "convneg.experiment", "load_dataset"),
    ("lexicon.load_vectors", "convneg.lexicon", "load_vectors"),
    ("lexicon.build_density_matrix", "convneg.lexicon", "build_density_matrix"),
    ("lexicon.save_lexicon", "convneg.lexicon", "save_lexicon"),
    ("lexicon.load_lexicon", "convneg.lexicon", "load_lexicon"),
    ("sampling.random_psd", "convneg.sampling", "random_psd"),
    ("sampling.random_orthogonal", "convneg.sampling", "random_orthogonal"),
    ("verify.verify_theorems", "convneg.verify", "verify_theorems"),
)
NAMES = tuple(b[0] for b in BOUNDARIES)
COMMAND = "benchmark.command"

def unit(metric: str) -> str:
    """Unit of a per-layer metric, as BENCHMARK.json declares it."""
    if metric.endswith(".self_s"):
        return "s"
    if metric.endswith((".calls", ".distinct_matrices", ".distinct_words", ".eig_n3")):
        return "count"
    return "ratio"


class BoundaryNotFound(Exception):
    """A listed boundary function no longer exists under its name."""


def _resolve(module: str, path: str):
    obj = importlib.import_module(module)
    try:
        for part in path.split("."):
            obj = getattr(obj, part)
    except AttributeError:
        raise BoundaryNotFound(f"{module}.{path}") from None
    return inspect.unwrap(obj).__code__


def _matrix_key(frame) -> bytes:
    return hashlib.blake2b(frame.f_locals["M"].matrix.tobytes(), digest_size=16).digest()


def _eig_ops(frame) -> int:
    shape = frame.f_locals["a"].shape
    batch = 1
    for n in shape[:-2]:
        batch *= n
    return batch * shape[-1] ** 3


def _word(frame) -> str:
    return frame.f_locals["word"]


# Argument probes: boundary prefix -> what to note from the frame on entry.
_PROBES = {
    "spectral.spectral_decompose": _matrix_key,
    "linalg.eigh": _eig_ops,
    "linalg.eigvalsh": _eig_ops,
    "context.worldly_context_hierarchy": _word,
    "context.worldly_context_graph": _word,
}


@dataclass
class Trace:
    """Spans and argument notes from one traced command."""

    names: tuple[str, ...]
    spans: list
    notes: list
    main_thread: int
    open_spans: int

    def summary(self) -> dict[str, float]:
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for _, _, idx, _, _, _, own in self.spans:
            calls[idx] += 1
            self_ns[idx] += own
        out: dict[str, float] = {}
        for idx, name in enumerate(self.names):
            if name != COMMAND:
                out[f"{name}.calls"] = calls[idx]
                out[f"{name}.self_s"] = self_ns[idx] / 1e9
        by_probe: dict[str, list] = {}
        for idx, value in self.notes:
            by_probe.setdefault(self.names[idx], []).append(value)
        decomposes = len(by_probe.get("spectral.spectral_decompose", ()))
        matrices = len(set(by_probe.get("spectral.spectral_decompose", ())))
        words_seen = by_probe.get("context.worldly_context_hierarchy", []) + by_probe.get(
            "context.worldly_context_graph", []
        )
        words = len(set(words_seen))
        out["spectral.decompose_per_matrix"] = decomposes / matrices if matrices else 0.0
        out["spectral.distinct_matrices"] = matrices
        out["linalg.eig_n3"] = sum(by_probe.get("linalg.eigh", ())) + sum(
            by_probe.get("linalg.eigvalsh", ())
        )
        out["context.builds_per_word"] = len(words_seen) / words if words else 0.0
        out["context.distinct_words"] = words
        return out

    def bookkeeping_errors(self, wall_s: float) -> list[str]:
        """Every span must be closed, and the main thread's self times must add
        up to `wall_s`, the command's wall time measured outside the tracer
        (within 1 ms + 1%, the tracer's own start and stop)."""
        errors = []
        if self.open_spans:
            errors.append(f"{self.open_spans} spans entered but never left")
        own = sum(s[6] for s in self.spans if s[3] == self.main_thread) / 1e9
        if abs(own - wall_s) > 1e-3 + 0.01 * wall_s:
            errors.append(f"main-thread self times sum to {own:.4f} s, wall time {wall_s:.4f} s")
        return errors

    def write(self, fh, run_id: str) -> None:
        """Append spans as JSON lines: run, id, parent, name, thread, start, end, self (ns)."""
        for sid, parent, idx, tid, start, end, own in self.spans:
            fh.write(json.dumps([run_id, sid, parent, self.names[idx], tid, start, end, own]) + "\n")


class Tracer:
    """Records spans at every boundary in BOUNDARIES while `run` executes."""

    def __init__(self):
        self.names = NAMES + (COMMAND,)
        self._index = {}
        for idx, (_, module, path) in enumerate(BOUNDARIES):
            self._index[_resolve(module, path)] = idx
        self._probes = {
            idx: _PROBES[name] for idx, name in enumerate(self.names) if name in _PROBES
        }
        self._ids = itertools.count(1)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._stacks.append(stack)
        return stack

    def _enter(self, idx: int, frame) -> None:
        probe = self._probes.get(idx)
        if probe is not None:
            self._notes.append((idx, probe(frame)))
        stack = self._stack()
        parent = stack[-1][0] if stack else self._command_id
        stack.append([next(self._ids), parent, idx, time.perf_counter_ns(), 0])

    def _exit(self) -> None:
        end = time.perf_counter_ns()
        stack = self._stack()
        sid, parent, idx, start, child_ns = stack.pop()
        dur = end - start
        if stack:
            stack[-1][4] += dur
        self._spans.append((sid, parent, idx, threading.get_ident(), start, end, dur - child_ns))

    def _hook(self, frame, event, arg):
        if event == "call":
            idx = self._index.get(frame.f_code)
            if idx is not None:
                self._enter(idx, frame)
        elif event == "return" and frame.f_code in self._index:
            self._exit()

    def run(self, fn):
        """Call fn() with tracing on; return (fn's result, Trace)."""
        self._spans, self._notes = [], []
        self._local, self._stacks = threading.local(), []
        self._command_id = next(self._ids)
        stack = self._stack()
        stack.append([self._command_id, 0, len(self.names) - 1, time.perf_counter_ns(), 0])
        threading.setprofile(self._hook)
        sys.setprofile(self._hook)
        try:
            result = fn()
        finally:
            sys.setprofile(None)
            threading.setprofile(None)
            # only the command span may still be open; drop any other, then close it
            open_spans = sum(len(s) for s in self._stacks) - 1
            del stack[1:]
            self._exit()
        trace = Trace(self.names, self._spans, self._notes, threading.get_ident(), open_spans)
        return result, trace


def write_spans(path, traces: list[Trace], run_id: str) -> None:
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        for rep, trace in enumerate(traces):
            trace.write(fh, f"{run_id}/rep{rep}")
