"""filtermax benchmark: offline batch verification, end to end and per layer.

    python3 bench/run.py --workload ensemble_exact --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

The harness treats `src/filtermax` as a black box.  It builds instances
from `--seed`, drives the `filtermax` command in-process through
`filtermax.cli.main` and reads back what the command writes.  Each
workload is a closed loop: one process runs one unit of work after
another (an ensemble batch, or one instance through the constants and
Carleson paths) until `--seconds` have passed, at least MIN_UNITS times.

--trace 0 prints the end-to-end metrics:
  instances_per_s  median over units of instances / wall time of the unit's
                   commands, times the host slowdown measured in the run
  setup_s          median over SETUP_REPEATS fresh interpreters of import
                   plus generation of the first unit's instances, divided
                   by the host slowdown measured on interpreter start-up
  peak_rss_mb      peak RSS of this process over the timed units
  verdict_frac     expected checks that ended with a pass/fail verdict,
                   over expected checks (1 - the unchecked fraction; the
                   expected set is what the suite emits in exact mode)
  exact_frac       emitted rows labelled exact, over all emitted rows
Failed checks (hard-failure rows, plus the expected checks of a unit
whose command raised) are the result's `failed`, over `attempted`.
The host slowdown is the median time of the frozen work in reference.py,
run before every command of the timed loop (wide_tails, with few long
commands, samples it four times there) and before every set-up probe,
over its nominal time.  It cancels the host's speed drift; the unscaled
values are kept in the meta line as raw_*.

--trace 1 runs a fixed number of units untraced, then the same units with
every public function of the package wrapped by `tracer.Tracer`, checks
that both passes wrote the same bytes, and prints the per-layer metrics
(totals over the traced units) plus trace.overhead_frac.  The
heuristic/exact ratios are measured where both values exist (wide_tails)
and read 0 elsewhere.  The spans are written to
.bench_out/spans-<workload>-seed<seed>.npz.

Correctness gates (any violation prints correct=false and exits 1): no
hard-failure row; on wide_tails the exact RH/S/Winf equal an independent
power-set evaluation (oracle.py) and every heuristic value is at most
the exact one; on the ensemble workloads the first batch rerun at
--jobs POOL_JOBS writes the same bytes as at --jobs 1; a traced pass
writes the same bytes as the untraced pass.
The last stdout line is the JSON result; the line before it holds the
machine, shapes, seeds, src/ line count and the sha256 of the first
unit's output.  Without `src/filtermax` next to this directory the
benchmark exits 2 without a result.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import oracle
import reference
from tracer import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

MIN_UNITS = 2
POOL_JOBS = 2  # the process pool of run_ensemble, checked but not timed
SETUP_REPEATS = 7
SEED_STRIDE = 1_000_000  # instance seeds of one --seed never reach the next's
REL_TOL = 1e-9  # exact constant vs the oracle
HEURISTIC_SLACK = 1e-12  # heuristic may exceed exact by rounding only


@dataclass(frozen=True)
class Workload:
    why: str
    kind: str  # "ensemble": verify --ensemble batches; "tails": constants + carleson per instance
    gen: dict
    batch: int  # instances per unit
    traced_units: int
    fallback: bool = False
    pause_samples: int = 1  # reference samples before each command of the timed loop


WORKLOADS = {
    "ensemble_exact": Workload(
        why="verify --suite all at depth 3: every module runs, every tail sweep is exact (256 tails); "
        "time goes to thm12 sweeps and small cond_exp calls; first batch must match at --jobs 2",
        kind="ensemble", gen={"depth": 3, "branching": 2, "model": "lognormal", "p1": 2.0, "p2": 2.0},
        batch=4, traced_units=8,
    ),
    "wide_tails": Workload(
        why="16 leaves, 21 atoms: exact RH/S/Winf and Carleson sweep 65536 tails, heuristics run too; "
        "a dense tail x leaf array (8 MiB) outgrows L2, so batched sweeps show their memory cost",
        kind="tails", gen={"depth": 2, "branching": 4, "model": "lognormal", "p1": 2.0, "p2": 2.0},
        batch=1, traced_units=1, pause_samples=4,
    ),
    "deep_fallback": Workload(
        why="63 atoms, enumeration refused: heuristic search with --fallback, Carleson and thm12_attain "
        "rows dropped; tail-sweep changes bypass it",
        kind="ensemble", gen={"depth": 5, "branching": 2, "model": "product", "p1": 2.5, "p2": 2.5},
        batch=2, traced_units=5, fallback=True,
    ),
}

END_TO_END = [
    ("instances_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("verdict_frac", "ratio"),
    ("exact_frac", "ratio"),
]

# (module, function, span name, wrap options); span names are "<module>.<function>"
# except for the weight constants, which are split by mode where they have one.
TRACED = [
    ("space", "cond_exp", {}),
    ("space", "as_fn", {}),
    ("space", "weighted_cond_exp", {}),
    ("operators", "bilinear_maximal", {}),
    ("operators", "maximal", {}),
    ("operators", "lp_norm", {}),
    ("stopping", "enumerate_tail_masks", {"count": ("stopping.tails_enumerated", len)}),
    ("stopping", "mask_points", {}),
    ("stopping", "heuristic_sup_over_tau", {}),
    ("stopping", "stopping_time_from_tail", {}),
    ("weights", "a_p_constant", {"name": "weights.a"}),
    ("weights", "b_p_constant", {"name": "weights.b"}),
    ("weights", "rh_constant", {"name": "weights.rh", "mode_arg": "mode"}),
    ("weights", "s_p_constant", {"name": "weights.s", "mode_arg": "mode"}),
    ("weights", "w_infty_constant", {"name": "weights.winf", "mode_arg": "mode"}),
    ("principal", "build_principal_forest",
     {"count": ("principal.nodes", lambda forest: 0 if forest is None else forest.n_nodes)}),
    ("principal", "verify_properties", {}),
    ("principal", "sparse_domination_report", {}),
    ("carleson", "certify_carleson_constant",
     {"count": ("carleson.entries", lambda result: len(result[0].entries))}),
    ("carleson", "build_level_sets", {}),
    ("carleson", "proof_coefficients", {}),
    ("carleson", "verify_embedding", {}),
    *(("verify", f"check_{name}", {}) for name in
      ("thm11_forward", "thm11_converse", "thm12", "thm14", "thm15", "sparse", "carleson", "properties")),
    ("verify", "run_instance_suite", {}),
    ("verify", "run_ensemble", {}),
    ("verify", "rows_to_csv", {}),
    ("cli", "main", {}),
]

CALLS_AND_SELF = [
    "space.cond_exp", "space.as_fn", "space.weighted_cond_exp",
    "operators.bilinear_maximal", "operators.maximal", "operators.lp_norm",
    "stopping.enumerate_tail_masks", "stopping.mask_points", "stopping.heuristic_sup_over_tau",
    "principal.build_principal_forest",
]
INCLUSIVE = [
    *(f"weights.{c}.{m}" for c in ("rh", "s", "winf") for m in ("exact", "heuristic")),
    "weights.a", "weights.b",
    "principal.verify_properties", "principal.sparse_domination_report",
    "carleson.certify_carleson_constant", "carleson.build_level_sets",
    "carleson.proof_coefficients", "carleson.verify_embedding",
    *(f"verify.check_{n}" for n in
      ("thm11_forward", "thm11_converse", "thm12", "thm14", "thm15", "sparse", "carleson", "properties")),
    "verify.run_ensemble", "verify.rows_to_csv", "cli.main",
]
TAIL_MODE_CHECKS = ["verify.check_thm11_converse", "verify.check_thm12", "verify.check_thm15"]
RATIO_CONSTANTS = ("rh", "s", "winf")

# (name, unit, better) of every metric --trace 1 prints; BENCHMARK.json lists the same
PER_LAYER = [
    *((f"{n}.{k}", u, "lower") for n in CALLS_AND_SELF for k, u in (("calls", "count"), ("self_s", "s"))),
    ("stopping.tails_enumerated", "count", "lower"),
    ("stopping.stopping_time_from_tail.self_s", "s", "lower"),
    ("carleson.certify_carleson_constant.calls", "count", "lower"),
    *((f"{n}.s", "s", "lower") for n in INCLUSIVE),
    ("principal.nodes", "count", "lower"),
    ("carleson.entries", "count", "lower"),
    ("verify.run_instance_suite.p50_ms", "ms", "lower"),
    ("verify.run_instance_suite.p90_ms", "ms", "lower"),
    ("verify.fallback_retries", "count", "lower"),
    *((f"weights.{c}.heuristic_ratio_min", "ratio", "higher") for c in RATIO_CONSTANTS),
    ("trace.overhead_frac", "ratio", "lower"),
]

SETUP_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import filtermax.cli
from filtermax import gen_instance
spec = json.loads(sys.argv[2])
for seed in spec["seeds"]:
    gen_instance(seed, **spec["gen"])
"""


@dataclass
class Unit:
    instances: int
    wall: float = 0.0
    output: bytes = b""
    checks: list = field(default_factory=list)  # CheckResult rows the command wrote
    constants: list = field(default_factory=list)  # (call, name, mode, value) from `constants`
    raised: int = 0  # command calls that raised or exited other than 0/1
    instance_data: dict | None = None
    errors: list = field(default_factory=list)


# ---- driving the program -------------------------------------------------------


def _cli_call(unit: Unit, argv: list[str]) -> None:
    """One `filtermax` command in-process; its wall time adds to unit.wall
    and the rows it writes go into unit.checks."""
    cli = sys.modules["filtermax.cli"]
    write_rows = cli.rows_to_csv

    def capture(rows):
        unit.checks.extend(rows)
        return write_rows(rows)

    cli.rows_to_csv = capture
    stderr = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:
        code = None
        stderr.write(traceback.format_exc())
    finally:
        unit.wall += time.perf_counter() - t0
        cli.rows_to_csv = write_rows
    if code not in (0, 1):
        unit.raised += 1
        unit.errors.append(f"filtermax {' '.join(argv)} -> {code}: {stderr.getvalue().strip()[-2000:]}")


def _gen_flags(gen: dict) -> list[str]:
    return [f"--{key}={value}" for key, value in gen.items()]


def _first_seed(seed: int, workload: Workload, index: int) -> int:
    return seed * SEED_STRIDE + index * workload.batch


def run_unit(
    workload: Workload, first: int, workdir: Path, jobs: int = 1, pause: Callable[[], None] | None = None
) -> Unit:
    """One unit of work; `pause` runs before each command, outside its timing."""
    unit = Unit(instances=workload.batch)
    if workload.kind == "ensemble":
        out = workdir / "unit.csv"
        argv = ["verify", "--ensemble", str(first), str(workload.batch), "--suite", "all",
                *_gen_flags(workload.gen), f"--jobs={jobs}"]
        if workload.fallback:
            argv.append("--fallback")
        calls = [("checks", argv, out)]
    else:
        from filtermax import ALL_CONSTANTS, dump_instance, gen_instance

        path = workdir / "instance.json"
        dump_instance(gen_instance(first, **workload.gen), str(path))
        # one command per exact constant, so that the host is sampled between them
        calls = [("exact", ["constants", str(path), "--which", name], workdir / f"{name}.csv")
                 for name in ALL_CONSTANTS]
        calls.append(("heuristic", ["constants", str(path), "--mode", "heuristic"], workdir / "heuristic.csv"))
        calls.append(("checks", ["verify", str(path), "--suite", "carleson"], workdir / "carleson.csv"))
        unit.instance_data = json.loads(path.read_text())
    for kind, argv, out in calls:
        if pause is not None:
            pause()
        _cli_call(unit, [*argv, "--out", str(out)])
        if not out.exists():
            continue
        text = out.read_bytes()
        out.unlink()
        unit.output += text
        if kind != "checks":
            for rec in csv.DictReader(io.StringIO(text.decode())):
                unit.constants.append((kind, rec["name"], rec["mode"], float(rec["value"])))
    if workload.kind == "tails":
        path.unlink()
    return unit


def expected_checks(workload: Workload) -> set[str]:
    """Theorem names the suite emits in exact mode, from a one-level
    instance of the workload's weight model."""
    from filtermax import gen_instance, run_instance_suite

    gen = dict(workload.gen, depth=1, branching=2)
    suite = "all" if workload.kind == "ensemble" else "carleson"
    return {row.theorem for row in run_instance_suite(gen_instance(0, **gen), suite)}


def install_tracer(tracer: Tracer) -> None:
    for module, func, options in TRACED:
        options = dict(options)
        name = options.pop("name", f"{module}.{func}")
        fn = getattr(importlib.import_module(f"filtermax.{module}"), func)
        tracer.install("filtermax", fn, name, **options)


# ---- accounting and gates ---------------------------------------------------------


def account(units: list[Unit], expected: set[str]) -> dict:
    instances = sum(u.instances for u in units)
    attempted = len(expected) * instances
    verdicts = sum(
        1 for u in units for row in u.checks if row.theorem in expected and row.status in ("pass", "fail")
    )
    failed = sum(1 for u in units for row in u.checks if row.hard_failure)
    failed += sum(len(expected) * u.instances for u in units if u.raised)
    modes = [row.mode for u in units for row in u.checks] + [c[2] for u in units for c in u.constants]
    return {
        "attempted": attempted,
        "failed": failed,
        "verdict_frac": verdicts / attempted,
        "exact_frac": sum(1 for m in modes if m == "exact") / max(len(modes), 1),
    }


def _constant_values(unit: Unit) -> dict[tuple[str, str], float]:
    return {(call, name.lower()): value for call, name, _, value in unit.constants}


def tail_constant_errors(unit: Unit) -> list[str]:
    """wide_tails gate: exact values equal the oracle, heuristics stay below."""
    values = _constant_values(unit)
    ref = oracle.exact_constants(unit.instance_data)
    errors = []
    seed = unit.instance_data.get("seed")
    for key in RATIO_CONSTANTS:
        exact = values.get(("exact", key))
        heuristic = values.get(("heuristic", key))
        if exact is None or heuristic is None:
            errors.append(f"seed {seed}: constant {key} missing from the output")
            continue
        if abs(exact - ref[key]) > REL_TOL * abs(ref[key]):
            errors.append(f"seed {seed}: exact {key} = {exact!r}, power-set oracle = {ref[key]!r}")
        if heuristic > exact * (1.0 + HEURISTIC_SLACK):
            errors.append(f"seed {seed}: heuristic {key} = {heuristic!r} exceeds exact {exact!r}")
    return errors


def heuristic_ratios(units: list[Unit]) -> dict[str, float]:
    """Smallest heuristic / exact per constant; 0.0 where no exact value exists."""
    out = {}
    for key in RATIO_CONSTANTS:
        ratios = []
        for u in units:
            values = _constant_values(u)
            if ("exact", key) in values and ("heuristic", key) in values:
                ratios.append(values[("heuristic", key)] / values[("exact", key)])
        out[key] = min(ratios) if ratios else 0.0
    return out


def gate_errors(units: list[Unit]) -> list[str]:
    errors = [e for u in units for e in u.errors]
    for u in units:
        errors += [f"hard failure: {r.theorem} at seed {r.seed}" for r in u.checks if r.hard_failure]
        if u.instance_data is not None and not u.raised:
            errors += tail_constant_errors(u)
    return errors


# ---- measurements --------------------------------------------------------------------


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_seconds(workload: Workload, seed: int) -> tuple[float, float]:
    """Median set-up time and the host slowdown measured beside it."""
    first = _first_seed(seed, workload, 0)
    spec = json.dumps({"seeds": list(range(first, first + workload.batch)), "gen": workload.gen})
    times, probes = [], []
    for _ in range(SETUP_REPEATS):
        probes.append(reference.probe_seconds())
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_PROBE, str(SRC), spec],
                       check=True, capture_output=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), statistics.median(probes) / reference.PROBE_NOMINAL_S


def layer_metrics(tracer: Tracer, overhead: float, ratios: dict[str, float]) -> dict[str, float]:
    summary = tracer.summary()

    def get(name: str, key: str) -> float:
        return summary[name][key] if name in summary else 0

    values: dict[str, float] = {}
    for name in CALLS_AND_SELF:
        values[f"{name}.calls"] = get(name, "calls")
        values[f"{name}.self_s"] = get(name, "self_s")
    values["stopping.stopping_time_from_tail.self_s"] = get("stopping.stopping_time_from_tail", "self_s")
    values["carleson.certify_carleson_constant.calls"] = get("carleson.certify_carleson_constant", "calls")
    for name in INCLUSIVE:
        values[f"{name}.s"] = get(name, "s")
    values.update(tracer.counters)
    suite = summary.get("verify.run_instance_suite")
    for q in (50, 90):
        values[f"verify.run_instance_suite.p{q}_ms"] = (
            float(np.percentile(suite["durations"], q)) * 1e3 if suite and suite["calls"] else 0.0
        )
    values["verify.fallback_retries"] = sum(get(name, "raised") for name in TAIL_MODE_CHECKS)
    for key, ratio in ratios.items():
        values[f"weights.{key}.heuristic_ratio_min"] = ratio
    values["trace.overhead_frac"] = overhead
    return values


def machine_info() -> dict:
    info = {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": platform.processor() or "unknown",
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
    caches = {}
    with contextlib.suppress(OSError):
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                caches[f"L{level}"] = (index / "size").read_text().strip()
    info["caches_per_core"] = caches
    return info


def shape_info(workload: Workload, first: int) -> dict:
    from filtermax import enumeration_budget, gen_instance

    space = gen_instance(first, **workload.gen).space
    leaves = len(space.atoms[space.last_level])
    return {
        **workload.gen,
        "points": space.n,
        "levels": space.n_levels,
        "atoms": space.atom_count(),
        "leaves": leaves,
        "atom_budget": enumeration_budget(),
        "tails_per_sweep": 2**leaves,
        "dense_tail_leaf_bytes": 2**leaves * leaves * 8,
        "batch": workload.batch,
        "fallback": workload.fallback,
    }


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


# ---- one workload run -------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> int:
    workload = WORKLOADS[name]
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR))
    cwd = os.getcwd()
    os.chdir(workdir)  # a failing ensemble writes replay_<seed>.json to the working directory
    try:
        import filtermax.cli  # noqa: F401  (the command under test)

        expected = expected_checks(workload)
        meta = {
            "workload": name, "why": workload.why, "seed": seed, "seconds": seconds, "trace": int(trace),
            "shape": shape_info(workload, _first_seed(seed, workload, 0)),
            "machine": machine_info(), "src_lines": src_lines(), "expected_checks": sorted(expected),
        }
        if trace:
            result = _traced_run(name, workload, seed, workdir, meta)
        else:
            result = _timed_run(workload, seed, seconds, workdir, meta)
        meta["errors"] = result.pop("errors")
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _timed_run(workload: Workload, seed: int, seconds: int, workdir: Path, meta: dict) -> dict:
    units: list[Unit] = []
    kernel_times: list[float] = []

    def pause() -> None:
        kernel_times.extend(reference.kernel_seconds() for _ in range(workload.pause_samples))

    t_start = time.perf_counter()
    # start another unit only if it should end less than half a unit past the deadline
    while len(units) < MIN_UNITS or time.perf_counter() - t_start + units[-1].wall / 2 < seconds:
        units.append(run_unit(workload, _first_seed(seed, workload, len(units)), workdir, pause=pause))
    slowdown = statistics.median(kernel_times) / reference.KERNEL_NOMINAL_S
    rss = peak_rss_mb()  # before the gates, which allocate on their own
    errors = gate_errors(units)
    if workload.kind == "ensemble":
        pooled = run_unit(workload, _first_seed(seed, workload, 0), workdir, jobs=POOL_JOBS)
        if pooled.output != units[0].output:
            errors.append(f"--jobs {POOL_JOBS} output differs from --jobs 1 output")
    counts = account(units, set(meta["expected_checks"]))
    raw_rate = statistics.median(u.instances / u.wall for u in units)
    raw_setup, setup_slowdown = setup_seconds(workload, seed)
    meta.update(
        units=len(units),
        instances=sum(u.instances for u in units),
        unit_wall_s=[u.wall for u in units],
        host_slowdown=slowdown,
        setup_host_slowdown=setup_slowdown,
        raw_instances_per_s=raw_rate,
        raw_setup_s=raw_setup,
        output_sha256=hashlib.sha256(units[0].output).hexdigest(),
    )
    values = {
        "instances_per_s": raw_rate * slowdown,
        "setup_s": raw_setup / setup_slowdown,
        "peak_rss_mb": rss,
        "verdict_frac": counts["verdict_frac"],
        "exact_frac": counts["exact_frac"],
    }
    return {
        "correct": not errors,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {n: {"value": values[n], "unit": unit} for n, unit in END_TO_END},
        "errors": errors,
    }


def _traced_run(name: str, workload: Workload, seed: int, workdir: Path, meta: dict) -> dict:
    seeds = [_first_seed(seed, workload, i) for i in range(workload.traced_units)]
    plain = [run_unit(workload, s, workdir) for s in seeds]
    tracer = Tracer()
    with tracer:
        install_tracer(tracer)
        traced = [run_unit(workload, s, workdir) for s in seeds]
    errors = gate_errors(plain) + gate_errors(traced)
    for a, b in zip(plain, traced):
        if a.output != b.output:
            errors.append("traced output differs from untraced output")
    overhead = sum(u.wall for u in traced) / sum(u.wall for u in plain) - 1.0
    values = layer_metrics(tracer, overhead, heuristic_ratios(plain))
    counts = account(traced, set(meta["expected_checks"]))
    spans = OUT_DIR / f"spans-{name}-seed{seed}.npz"
    tracer.save(spans)
    meta.update(
        units=len(traced),
        instances=sum(u.instances for u in traced),
        spans=len(tracer),
        spans_file=str(spans.relative_to(ROOT)),
        output_sha256=hashlib.sha256(plain[0].output).hexdigest(),
    )
    return {
        "correct": not errors,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {n: {"value": values[n], "unit": unit} for n, unit, _ in PER_LAYER},
        "errors": errors,
    }


def run_all(seed: int, seconds: int, trace: bool) -> int:
    """Every workload in its own process; one line per metric."""
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=900,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = 1
            print(f"{name}: exit {proc.returncode}\n{proc.stderr.strip()}")
        if not lines:
            continue
        result = json.loads(lines[-1])
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:48s} {m['value']:.6g} {m['unit']}")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "filtermax" / "__init__.py").is_file():
        print(f"error: {SRC.relative_to(ROOT)}/filtermax not found next to the benchmark", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import filtermax

    if Path(filtermax.__file__).resolve().parent != SRC / "filtermax":
        print(f"error: imported filtermax from {filtermax.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
