"""Command line interface.

    filtermax gen        write a random instance as JSON
    filtermax constants  weight characteristics of an instance
    filtermax verify     run inequality suites on an instance or ensemble

Exit codes: 0 ok, 1 falsification (a hard failure in exact mode),
2 usage error, 3 I/O error, 4 invalid instance file, 5 exhaustive
enumeration infeasible (no --fallback).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import replace

from .space import ValidationError
from .stopping import EnumerationBudgetError
from .verify import (
    DEFAULT_REL_TOL,
    SUITES,
    dump_instance,
    gen_instance,
    load_instance,
    rows_to_csv,
    rows_to_json,
    run_ensemble,
    run_instance_suite,
)
from .weights import ALL_CONSTANTS, compute_constant

EXIT_OK = 0
EXIT_FALSIFIED = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_INVALID = 4
EXIT_INFEASIBLE = 5


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="filtermax", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a random instance")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--depth", type=int, default=2)
    gen.add_argument("--branching", type=int, default=2)
    gen.add_argument("--model", default="lognormal", help="lognormal[:s] | power[:a] | product[:s]")
    gen.add_argument("--p1", type=float, default=2.0)
    gen.add_argument("--p2", type=float, default=2.0)
    gen.add_argument("--out", required=True, help="output JSON path")

    cons = sub.add_parser("constants", help="weight characteristics of an instance")
    cons.add_argument("instance", help="instance JSON path")
    cons.add_argument("--which", default="all", choices=ALL_CONSTANTS + ("all",))
    cons.add_argument("--mode", default="exact", choices=("exact", "heuristic"))
    cons.add_argument("--fallback", action="store_true", help="degrade to heuristic when enumeration is infeasible")
    cons.add_argument("--format", default="csv", choices=("csv", "json"))
    cons.add_argument("--out", help="write report here instead of stdout")

    ver = sub.add_parser("verify", help="check the weighted inequalities")
    ver.add_argument("instance", nargs="?", help="instance JSON path")
    ver.add_argument("--ensemble", nargs=2, type=int, metavar=("SEED", "COUNT"), help="generate COUNT instances from a master seed")
    ver.add_argument("--suite", default="all", choices=SUITES)
    ver.add_argument("--depth", type=int, default=2)
    ver.add_argument("--branching", type=int, default=2)
    ver.add_argument("--model", default="lognormal")
    ver.add_argument("--p1", type=float, default=2.0)
    ver.add_argument("--p2", type=float, default=2.0)
    ver.add_argument("--pairs", type=int, default=5, help="random test pairs per instance (at least 1)")
    ver.add_argument(
        "--tol", type=float, default=DEFAULT_REL_TOL, help="relative tolerance for pass/fail (finite, >= 0)"
    )
    ver.add_argument("--jobs", type=int, default=1, help="worker processes (at least 1)")
    ver.add_argument("--fallback", action="store_true")
    ver.add_argument("--format", default="csv", choices=("csv", "json"))
    ver.add_argument("--out", help="write report here instead of stdout")
    return parser


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


def _cmd_gen(args: argparse.Namespace) -> int:
    try:
        inst = gen_instance(
            args.seed, depth=args.depth, branching=args.branching, model=args.model, p1=args.p1, p2=args.p2
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        dump_instance(inst, args.out)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_IO
    space = inst.space
    print(
        f"wrote {args.out}: {space.n} points, levels 0..{space.last_level}, "
        f"{space.atom_count()} atoms, model {inst.model}, p1={inst.exps.p1} p2={inst.exps.p2}"
    )
    return EXIT_OK


def _cmd_constants(args: argparse.Namespace) -> int:
    try:
        inst = load_instance(args.instance)
    except OSError as exc:
        print(f"error: cannot read {args.instance}: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValidationError as exc:
        print(f"error: invalid instance: {exc}", file=sys.stderr)
        return EXIT_INVALID
    names = ALL_CONSTANTS if args.which == "all" else (args.which,)
    records = []
    for name in names:
        try:
            rec = compute_constant(
                name, inst.space, inst.v, inst.omega1, inst.omega2, inst.exps, mode=args.mode
            )
        except EnumerationBudgetError as exc:
            if not args.fallback:
                print(f"error: [{name}] {exc}", file=sys.stderr)
                return EXIT_INFEASIBLE
            rec = compute_constant(
                name, inst.space, inst.v, inst.omega1, inst.omega2, inst.exps, mode="heuristic"
            )
        except ValueError as exc:  # a malformed FILTERMAX_ATOM_BUDGET, as in verify
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        records.append(rec)
    if args.format == "json":
        payload = [
            {"name": r.name, "value": r.value, "mode": r.mode, "witness": r.witness} for r in records
        ]
        text = json.dumps(payload, indent=2) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["name", "value", "mode", "witness"])
        for r in records:
            writer.writerow([r.name, repr(r.value), r.mode, json.dumps(r.witness)])
        text = buf.getvalue()
    try:
        _write_text(args.out, text)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    if (args.instance is None) == (args.ensemble is None):
        print("error: give an instance path or --ensemble SEED COUNT (not both)", file=sys.stderr)
        return EXIT_USAGE
    if args.pairs < 1:
        print(f"error: --pairs must be at least 1, got {args.pairs}", file=sys.stderr)
        return EXIT_USAGE
    if args.jobs < 1:
        print(f"error: --jobs must be at least 1, got {args.jobs}", file=sys.stderr)
        return EXIT_USAGE
    if not (math.isfinite(args.tol) and args.tol >= 0):
        print(f"error: --tol must be finite and non-negative, got {args.tol!r}", file=sys.stderr)
        return EXIT_USAGE
    replay_instance = None
    try:
        if args.ensemble is not None:
            master, count = args.ensemble
            if count < 1:
                print("error: ensemble COUNT must be positive", file=sys.stderr)
                return EXIT_USAGE
            rows = run_ensemble(
                master,
                count,
                suite=args.suite,
                depth=args.depth,
                branching=args.branching,
                model=args.model,
                p1=args.p1,
                p2=args.p2,
                pair_count=args.pairs,
                fallback=args.fallback,
                jobs=args.jobs,
            )
        else:
            try:
                inst = load_instance(args.instance)
            except OSError as exc:
                print(f"error: cannot read {args.instance}: {exc}", file=sys.stderr)
                return EXIT_IO
            except ValidationError as exc:
                print(f"error: invalid instance: {exc}", file=sys.stderr)
                return EXIT_INVALID
            rows = run_instance_suite(inst, args.suite, pair_count=args.pairs, fallback=args.fallback)
    except EnumerationBudgetError as exc:
        print(f"error: {exc} (use --fallback)", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    rows = [replace(r, rel_tol=args.tol) for r in rows]
    text = rows_to_csv(rows) if args.format == "csv" else rows_to_json(rows)
    try:
        _write_text(args.out, text)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_IO

    failures = [r for r in rows if r.hard_failure]
    indeterminate = sum(1 for r in rows if r.status == "indeterminate")
    print(
        f"{len(rows)} checks: {len(rows) - len(failures) - indeterminate} pass, "
        f"{indeterminate} indeterminate, {len(failures)} fail",
        file=sys.stderr,
    )
    if failures:
        worst = failures[0]
        if args.ensemble is not None:
            replay_instance = gen_instance(
                worst.seed,
                depth=args.depth,
                branching=args.branching,
                model=args.model,
                p1=args.p1,
                p2=args.p2,
            )
            replay_path = f"replay_{worst.seed}.json"
            try:
                dump_instance(replay_instance, replay_path)
                print(f"falsified: {worst.theorem} at seed {worst.seed}; instance written to {replay_path}", file=sys.stderr)
            except OSError:
                print(f"falsified: {worst.theorem} at seed {worst.seed}", file=sys.stderr)
        else:
            print(f"falsified: {worst.theorem} on {args.instance}", file=sys.stderr)
        return EXIT_FALSIFIED
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "gen":
        return _cmd_gen(args)
    if args.command == "constants":
        return _cmd_constants(args)
    if args.command == "verify":
        return _cmd_verify(args)
    parser.error(f"unknown command {args.command!r}")
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
