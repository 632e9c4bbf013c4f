"""Command-line harness: lexicon building, single negations, grid runs, verify."""

from __future__ import annotations

import argparse
import sys
from functools import partial

import numpy as np

from .composition import CompositionKind
from .context import (
    WeightFunction,
    WeightKind,
    build_entailment_graph,
    load_hierarchy,
    worldly_context_graph,
    worldly_context_hierarchy,
)
from .errors import ConvNegError
from .experiment import load_dataset, parse_grid_config, run_grid
from .lexicon import build_lexicon, load_lexicon, load_vectors, save_lexicon
from .pipeline import Basis, NegationConfig, NegationKind, conversational_negate
from .verify import verify_theorems


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="convneg",
        description="Density-matrix conversational negation and its evaluation harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-lexicon", help="build density matrices from word vectors")
    p.add_argument("--vectors", required=True, help="text vector file: `word v1 ... vd` per line")
    p.add_argument("--hierarchy", required=True, help="hypernym file: `word<TAB>h1,h2,...`")
    p.add_argument("--out", required=True, help="output lexicon (binary)")

    p = sub.add_parser("negate", help="conversationally negate one word")
    p.add_argument("--lexicon", required=True)
    p.add_argument("--hierarchy", required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--negation", choices=[k.value for k in NegationKind], default="sub")
    p.add_argument("--composition", choices=[k.value for k in CompositionKind], default="spider")
    p.add_argument("--basis", choices=[b.value for b in Basis], default="w")
    p.add_argument("--context-fn", choices=[k.value for k in WeightKind], default="poly")
    p.add_argument("--x", type=float, default=1.0, help="weight-function parameter")
    p.add_argument("--support-weight", type=float, default=0.5)
    p.add_argument("--text-out", action="store_true", help="full-precision row-major output")

    p = sub.add_parser("evaluate", help="run the correlation grid against a rating dataset")
    p.add_argument("--lexicon", required=True)
    p.add_argument("--hierarchy", required=True)
    p.add_argument("--dataset", required=True, help="TSV: negated<TAB>alternative<TAB>mean_rating")
    p.add_argument("--grid", required=True, help="flat `key = value` grid config")
    p.add_argument("--out", required=True, help="output CSV")
    p.add_argument("--highlight", type=float, default=0.4, help="mark rows whose best r reaches this")
    p.add_argument("--workers", type=int, default=1, help="threads for the grid rows")

    p = sub.add_parser("verify", help="run the randomized theorem suites")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=200)

    return parser


def _cmd_build_lexicon(args) -> int:
    vectors = load_vectors(args.vectors)
    hierarchy = load_hierarchy(args.hierarchy)
    lexicon = build_lexicon(vectors, hierarchy.hyponym_sets())
    save_lexicon(lexicon, args.out)
    print(f"wrote {len(lexicon)} matrices of dim {lexicon.dim} to {args.out}")
    return 0


def _cmd_negate(args) -> int:
    lexicon = load_lexicon(args.lexicon)
    hierarchy = load_hierarchy(args.hierarchy)
    fn = WeightFunction(WeightKind(args.context_fn), args.x)
    provider = partial(worldly_context_hierarchy, hierarchy=hierarchy, lexicon=lexicon, fn=fn)
    cfg = NegationConfig(
        negation=args.negation,
        composition=args.composition,
        basis=args.basis,
        support_weight=args.support_weight,
    )
    result = conversational_negate(args.word, cfg, lexicon, provider)
    if args.text_out:
        values = " ".join(f"{v:.17g}" for v in result.matrix.reshape(-1))
        print(f"{args.word}\t{result.dim}\t{values}")
    else:
        print(f"not-{args.word} ({cfg.negation.value}, {cfg.composition.value}, basis {cfg.basis.value}):")
        print(np.array2string(result.matrix, precision=6, suppress_small=True))
    return 0


def _cmd_evaluate(args) -> int:
    spec = parse_grid_config(args.grid)
    lexicon = load_lexicon(args.lexicon)
    dataset = load_dataset(args.dataset)
    if spec.context == "graph":
        negated = {record.negated for record in dataset}
        graph = build_entailment_graph(lexicon, negated, measure=spec.graph_measure, threshold=spec.graph_threshold)
        provider = partial(worldly_context_graph, graph=graph, lexicon=lexicon)
    else:
        hierarchy = load_hierarchy(args.hierarchy)
        fn = WeightFunction(WeightKind(spec.context_fn), spec.x)
        provider = partial(worldly_context_hierarchy, hierarchy=hierarchy, lexicon=lexicon, fn=fn)
    table = run_grid(dataset, lexicon, provider, spec.configs(), out=args.out, workers=args.workers)
    print(table.render(highlight=args.highlight))
    print(f"wrote {args.out}")
    return 0


def _cmd_verify(args) -> int:
    if args.trials < 1:
        print("error: --trials must be >= 1", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2
    report = verify_theorems(seed=args.seed, trials=args.trials)
    print(report.render())
    return 0 if report.passed else 1


_COMMANDS = {
    "build-lexicon": _cmd_build_lexicon,
    "negate": _cmd_negate,
    "evaluate": _cmd_evaluate,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConvNegError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        detail = f"{exc.filename}: {exc.strerror}" if exc.filename else str(exc)
        print(f"error: {detail}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
