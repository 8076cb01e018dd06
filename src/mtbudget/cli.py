"""Command-line front end: run, baseline, verify-graph, bounds, synth."""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from .data import (binarize_by_percentile, generate_synthetic, parse_dataset,
                   rescale_features, write_dataset)
from .errors import TaskOutOfRange
from .graph import TaskGraph, resolve_graph, verify_proposition_3_1
from .harness import resolve_budget, run_stream
from .kernels import KernelSpec
from .learners import ALGORITHMS, LearnerConfig, mtforg_bound, mtrbp_bound

VERIFY_TOL = 1e-9
SYNTH_KEYS = ("k", "d", "n", "rel", "relatedness", "noise", "seed", "margin")


def _emit(obj):
    """One JSON line; a NaN or infinite value raises ValueError instead of
    printing a token JSON does not have."""
    sys.stdout.write(json.dumps(obj, sort_keys=True, allow_nan=False) + "\n")


def _parse_synth_spec(text):
    opts, given = {}, {}
    for part in text.split(","):
        key, _, value = part.partition("=")
        key = "relatedness" if key.strip() == "rel" else key.strip()
        if key in given:
            raise ValueError("--synth sets %s twice: %r and %r"
                             % (key, given[key], part.strip()))
        given[key], opts[key] = part.strip(), value.strip()
    unknown = sorted(set(opts) - set(SYNTH_KEYS))
    if unknown:
        raise ValueError("unknown --synth key(s) %s; known: %s"
                         % (", ".join(map(repr, unknown)), ", ".join(SYNTH_KEYS)))

    def read(key, kind, default):
        if key not in opts:
            return default
        try:
            return kind(opts[key])
        except ValueError:
            raise ValueError("--synth %s must be %s, got %r" % (
                key, "an integer" if kind is int else "a number", opts[key])) from None

    return dict(k=read("k", int, 2), d=read("d", int, 10), n=read("n", int, 1000),
                relatedness=read("relatedness", float, 0.5),
                noise=read("noise", float, 0.0), seed=read("seed", int, 0),
                min_margin=read("margin", float, 0.0))


def _load_stream(args):
    if args.k is not None and args.k < 1:
        raise ValueError("--k must be at least 1, got %d" % args.k)
    if args.data:
        stream = parse_dataset(args.data, k=args.k)
        # without --k the largest task id sizes the graph, so one mistyped
        # id could ask for a graph of 10^12 tasks
        present = np.unique(stream.tasks).size
        if args.k is None and present < stream.tasks.max(initial=0):
            raise TaskOutOfRange(
                "the largest task id is %d but only %d distinct tasks appear; "
                "give the task count with --k" % (stream.k, present))
    elif args.synth:
        stream, _ = generate_synthetic(**_parse_synth_spec(args.synth))
    else:
        raise ValueError("one of --data or --synth is required")
    if args.rescale:
        stream = rescale_features(stream)
    if not stream.binary:
        stream = binarize_by_percentile(stream, args.percentile)
    return stream


def _add_stream_args(parser):
    parser.add_argument("--data", help="mtsvm dataset file")
    parser.add_argument("--synth",
                        help="synthetic spec, e.g. k=3,d=20,n=2000,rel=0.9,noise=0.1,seed=1")
    parser.add_argument("--k", type=int, help="task count (needed by graph keywords)")
    parser.add_argument("--kernel", default="linear:norm",
                        help="linear | poly:<deg>:<off> | gauss:<gamma>, `:norm` suffix")
    parser.add_argument("--percentile", type=float, default=75.0,
                        help="binarization percentile for real labels")
    parser.add_argument("--rescale", action="store_true",
                        help="rescale non-binary features to [0,1]")


def cmd_run(args):
    stream = _load_stream(args)
    k = args.k or stream.k
    graph = resolve_graph(args.graph, k)
    kernel = KernelSpec.parse(args.kernel)
    budget = resolve_budget(args.budget, stream, kernel)
    config = LearnerConfig(algorithm=args.algo, graph=graph, budget=budget,
                           eta=args.eta, kernel=kernel, seed=args.seed)
    start = time.perf_counter()
    metrics = run_stream(stream, config, epochs=args.epochs)
    wall_ms = (time.perf_counter() - start) * 1000.0
    result = {
        "algo": args.algo,
        "graph": args.graph,
        "budget_resolved": budget,
        "eta": args.eta,
        "seed": args.seed,
        "epochs": args.epochs,
        "kernel": kernel.to_string(),
        "f_measure": metrics.f_measure,
        "mistakes": metrics.mistakes,
        "final_active": metrics.final_active,
        "per_task": [{"task": t + 1, "tp": int(row[0]), "fp": int(row[1]),
                      "fn": int(row[2]), "tn": int(row[3])}
                     for t, row in enumerate(metrics.per_task)],
        "trajectory": [[int(s), f, int(a)] for s, f, a in metrics.trajectory],
    }
    if args.csv:
        sys.stdout.write("algo,graph,B,eta,seed,f_measure,mistakes,final_active,wall_ms\n")
        sys.stdout.write("%s,%s,%d,%g,%d,%.6f,%d,%d,%.1f\n" % (
            args.algo, args.graph, budget, args.eta, args.seed,
            metrics.f_measure, metrics.mistakes, metrics.final_active, wall_ms))
    else:
        _emit(result)
    return 0


def cmd_baseline(args):
    stream = _load_stream(args)
    kernel = KernelSpec.parse(args.kernel)
    config = LearnerConfig("perceptron_battery", TaskGraph.edgeless(args.k or stream.k),
                           kernel=kernel)
    metrics = run_stream(stream, config, epochs=args.epochs)
    _emit({"algo": "perceptron_battery", "f_measure": metrics.f_measure,
           "mistakes": metrics.mistakes, "final_active": metrics.final_active})
    return 0


def cmd_verify_graph(args):
    if args.k < 1:
        raise ValueError("--k must be at least 1, got %d" % args.k)
    if args.trials < 0:
        raise ValueError("--trials must be at least 0, got %d" % args.trials)
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    for k in range(1, args.k + 1):
        for g in (TaskGraph.complete(k), TaskGraph.edgeless(k), TaskGraph.path(k)):
            worst = max(worst, verify_proposition_3_1(g))
    for _ in range(args.trials):
        k = int(rng.integers(1, args.k + 1))
        prob = rng.uniform(0.1, 0.9)
        edges = [(i, j) for i in range(1, k + 1) for j in range(i + 1, k + 1)
                 if rng.random() < prob]
        worst = max(worst, verify_proposition_3_1(TaskGraph.from_edges(k, edges)))
    _emit({"max_error": worst, "trials": args.trials, "k": args.k})
    return 0 if worst <= VERIFY_TOL else 1


def cmd_bounds(args):
    if args.which == "mtrbp":
        value = mtrbp_bound(args.L, args.cg, args.S, args.B, args.eps)
    else:
        value = mtforg_bound(args.L, args.B)
    _emit({"bound": value, "which": args.which})
    return 0


def cmd_synth(args):
    schedule = []
    for part in args.shift.split(",") if args.shift else ():
        step_s, _, angle_s = part.partition(":")
        try:
            schedule.append((int(step_s), float(angle_s)))
        except ValueError:
            raise ValueError("--shift entry %r is not step:angle, e.g. 5:0.5" % part) from None
    stream, refs = generate_synthetic(args.k, args.d, args.n,
                                      args.relatedness, args.noise,
                                      shift_schedule=schedule, seed=args.seed)
    write_dataset(stream, args.out)
    _emit({"out": args.out, "n": args.n, "k": args.k, "d": args.d,
           "positives": int(np.sum(stream.labels > 0))})
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="mtbudget",
                                     description="Multitask budget kernel online learning")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="stream one learner over a dataset")
    _add_stream_args(p)
    p.add_argument("--algo", required=True, choices=ALGORITHMS)
    p.add_argument("--graph", required=True,
                   help="`complete`, `disconnected` or a graph file")
    p.add_argument("--budget", default="100",
                   help="absolute size or a percentage of the baseline, e.g. 10%%")
    p.add_argument("--eta", type=float, default=0.01)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epochs", type=int, default=1)
    p.add_argument("--csv", action="store_true", help="one CSV row instead of JSON")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("baseline", help="k independent Perceptrons, no budget")
    _add_stream_args(p)
    p.add_argument("--epochs", type=int, default=1)
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("verify-graph", help="resistance-identity sweep")
    p.add_argument("--k", type=int, default=8)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify_graph)

    p = sub.add_parser("bounds", help="mistake-bound calculators")
    p.add_argument("which", choices=("mtrbp", "mtforg"))
    p.add_argument("--L", type=float, default=0.0, help="cumulative hinge loss")
    p.add_argument("--B", type=int, required=True)
    p.add_argument("--cg", type=float, default=1.0)
    p.add_argument("--S", type=float, default=0.0, help="total shift")
    p.add_argument("--eps", type=float, default=0.5)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("synth", help="emit a synthetic dataset file")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--relatedness", type=float, default=0.5)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--shift", help="comma list of step:angle rotations")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
