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
import functools
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
    Instance,
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

_GEN_FLAGS = {  # `gen_instance` keyword -> its flag's options, shared by `gen` and `verify`
    "depth": {"type": int, "default": 2},
    "branching": {"type": int, "default": 2},
    "model": {"default": "lognormal", "help": "lognormal[:s] | power[:a] | product[:s]"},
    "p1": {"type": float, "default": 2.0},
    "p2": {"type": float, "default": 2.0},
}


class _Failure(Exception):
    """A command's error: `main` prints "error: <message>" and returns the code."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _add_gen_flags(parser: argparse.ArgumentParser) -> None:
    for key, options in _GEN_FLAGS.items():
        parser.add_argument(f"--{key}", **options)


def _gen_kwargs(args: argparse.Namespace) -> dict:
    return {key: getattr(args, key) for key in _GEN_FLAGS}


@functools.cache  # parse_args leaves the parser as it was, so a process builds it once
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="filtermax", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a random instance")
    gen.add_argument("--seed", type=int, default=0)
    _add_gen_flags(gen)
    gen.add_argument("--out", required=True, help="output JSON path")
    gen.set_defaults(run=_cmd_gen)

    cons = sub.add_parser("constants", help="weight characteristics of an instance")
    cons.add_argument("instance", help="instance JSON path")
    cons.add_argument("--which", default="all", choices=ALL_CONSTANTS + ("all",))
    cons.add_argument("--mode", default="exact", choices=("exact", "heuristic"))
    cons.add_argument("--fallback", action="store_true", help="degrade to heuristic when enumeration is infeasible")
    cons.add_argument("--format", default="csv", choices=("csv", "json"))
    cons.add_argument("--out", help="write report here instead of stdout")
    cons.set_defaults(run=_cmd_constants)

    ver = sub.add_parser("verify", help="check the weighted inequalities")
    ver.add_argument("instance", nargs="?", help="instance JSON path")
    ver.add_argument("--ensemble", nargs=2, type=int, metavar=("SEED", "COUNT"), help="generate COUNT instances from a master seed")
    ver.add_argument("--suite", default="all", choices=SUITES)
    _add_gen_flags(ver)
    ver.add_argument("--pairs", type=int, default=5, help="random test pairs per instance (at least 1)")
    ver.add_argument(
        "--tol", type=float, default=DEFAULT_REL_TOL, help="relative tolerance for pass/fail (finite, >= 0)"
    )
    ver.add_argument("--jobs", type=int, default=1, help="worker processes (at least 1)")
    ver.add_argument("--fallback", action="store_true")
    ver.add_argument("--format", default="csv", choices=("csv", "json"))
    ver.add_argument("--out", help="write report here instead of stdout")
    ver.set_defaults(run=_cmd_verify)
    return parser


def _load(path: str) -> Instance:
    try:
        return load_instance(path)
    except OSError as exc:
        raise _Failure(EXIT_IO, f"cannot read {path}: {exc}") from exc
    except ValidationError as exc:
        raise _Failure(EXIT_INVALID, f"invalid instance: {exc}") from exc


def _write(path: str | None, text: str) -> None:
    """Write a report to `path`, or to stdout when there is none."""
    try:
        if path is None:
            sys.stdout.write(text)
        else:
            with open(path, "w", newline="") as fh:
                fh.write(text)
    except OSError as exc:
        raise _Failure(EXIT_IO, f"cannot write {path}: {exc}") from exc


def _cmd_gen(args: argparse.Namespace) -> int:
    inst = gen_instance(args.seed, **_gen_kwargs(args))
    try:
        dump_instance(inst, args.out)
    except OSError as exc:
        raise _Failure(EXIT_IO, f"cannot write {args.out}: {exc}") from exc
    space = inst.space
    print(
        f"wrote {args.out}: {space.n} points, levels 0..{space.last_level}, "
        f"{space.atom_count()} atoms, model {inst.model}, p1={inst.exps.p1} p2={inst.exps.p2}"
    )
    return EXIT_OK


def _cmd_constants(args: argparse.Namespace) -> int:
    inst = _load(args.instance)
    names = ALL_CONSTANTS if args.which == "all" else (args.which,)
    weights = (inst.space, inst.v, inst.omega1, inst.omega2, inst.exps)
    records = []
    for name in names:
        try:
            rec = compute_constant(name, *weights, mode=args.mode)
        except EnumerationBudgetError as exc:
            if not args.fallback:
                raise _Failure(EXIT_INFEASIBLE, f"[{name}] {exc}") from exc
            rec = compute_constant(name, *weights, mode="heuristic")
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
    _write(args.out, text)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    if (args.instance is None) == (args.ensemble is None):
        raise _Failure(EXIT_USAGE, "give an instance path or --ensemble SEED COUNT (not both)")
    if args.pairs < 1:
        raise _Failure(EXIT_USAGE, f"--pairs must be at least 1, got {args.pairs}")
    if args.jobs < 1:
        raise _Failure(EXIT_USAGE, f"--jobs must be at least 1, got {args.jobs}")
    if not (math.isfinite(args.tol) and args.tol >= 0):
        raise _Failure(EXIT_USAGE, f"--tol must be finite and non-negative, got {args.tol!r}")
    try:
        if args.ensemble is not None:
            master, count = args.ensemble
            if count < 1:
                raise _Failure(EXIT_USAGE, "ensemble COUNT must be positive")
            rows = run_ensemble(
                master, count, suite=args.suite, pair_count=args.pairs, fallback=args.fallback, jobs=args.jobs,
                **_gen_kwargs(args),
            )
        else:
            inst = _load(args.instance)
            rows = run_instance_suite(inst, args.suite, pair_count=args.pairs, fallback=args.fallback)
    except EnumerationBudgetError as exc:
        raise _Failure(EXIT_INFEASIBLE, f"{exc} (use --fallback)") from exc

    # --tol replaces the default tolerance only; a row that fixes its own (sparse_domination's 0) keeps it
    if args.tol != DEFAULT_REL_TOL:
        rows = [replace(r, rel_tol=args.tol) if r.rel_tol == DEFAULT_REL_TOL else r for r in rows]
    _write(args.out, rows_to_csv(rows) if args.format == "csv" else rows_to_json(rows))

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
            replay_path = f"replay_{worst.seed}.json"
            try:
                dump_instance(gen_instance(worst.seed, **_gen_kwargs(args)), replay_path)
                print(f"falsified: {worst.theorem} at seed {worst.seed}; instance written to {replay_path}", file=sys.stderr)
            except OSError:
                print(f"falsified: {worst.theorem} at seed {worst.seed}", file=sys.stderr)
        else:
            print(f"falsified: {worst.theorem} on {args.instance}", file=sys.stderr)
        return EXIT_FALSIFIED
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except _Failure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ValueError as exc:  # bad generator flags, a malformed FILTERMAX_ATOM_BUDGET, data a check refuses
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
