"""Tests of the benchmark's own tracer, oracle and metric list.

Run from the repository root: python3 -m pytest bench/tests
"""

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import filtermax
import filtermax.cli  # noqa: F401  (loaded before bindings are recorded)
import oracle
import run
from filtermax import compute_constant, gen_instance, run_instance_suite
from tracer import Tracer

ROOT = Path(run.__file__).resolve().parents[1]


def _bindings() -> dict:
    """(module, attribute) -> object for every attribute of the package's modules."""
    return {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if name == "filtermax" or name.startswith("filtermax.")
        for attr, value in vars(module).items()
    }


def _traced_suite(inst) -> tuple[Tracer, list]:
    tracer = Tracer()
    with tracer:
        run.install_tracer(tracer)
        rows = run_instance_suite(inst, "all")
    return tracer, rows


def test_wrappers_are_restored_after_the_run():
    before = _bindings()
    original = filtermax.space.cond_exp
    tracer = Tracer()
    with tracer:
        run.install_tracer(tracer)
        wrapped = filtermax.space.cond_exp
        assert wrapped is not original and wrapped.__wrapped__ is original
        # every module that imported the function sees the same wrapper
        for module in (filtermax.operators, filtermax.weights, filtermax.verify, filtermax):
            assert module.cond_exp is wrapped
        run_instance_suite(gen_instance(1, depth=2, branching=2), "props")
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert len(tracer) > 0


def test_restore_after_an_exception():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with Tracer() as tracer:
            run.install_tracer(tracer)
            raise RuntimeError("boom")
    after = _bindings()
    assert all(after[key] is before[key] for key in before)


def test_self_time_is_duration_minus_children():
    ticks = itertools.count()
    tracer = Tracer(clock=lambda: float(next(ticks)))
    leaf = tracer.wrap(lambda: None, "leaf")
    mid = tracer.wrap(lambda: (leaf(), leaf()), "mid")
    top = tracer.wrap(lambda: (mid(), leaf()), "top")
    top()
    # clock reads: top 0, mid 1, leaf 2-3, leaf 4-5, mid 6, leaf 7-8, top 9
    summary = tracer.summary()
    assert summary["top"]["s"] == 9.0 and summary["top"]["self_s"] == 9.0 - 5.0 - 1.0
    assert summary["mid"]["s"] == 5.0 and summary["mid"]["self_s"] == 5.0 - 2.0
    assert summary["leaf"]["calls"] == 3 and summary["leaf"]["self_s"] == 3.0


def test_self_time_matches_spans_on_a_real_suite():
    tracer, _ = _traced_suite(gen_instance(2, depth=2, branching=2))
    a = tracer.arrays()
    dur = a["end"] - a["start"]
    own = dur.copy()
    for idx, parent in enumerate(a["parent"]):
        if parent >= 0:
            assert a["start"][parent] <= a["start"][idx] and a["end"][idx] <= a["end"][parent]
            own[parent] -= dur[idx]
    summary = tracer.summary()
    for nid, name in enumerate(tracer.names):
        assert summary[name]["self_s"] == pytest.approx(own[a["name_id"] == nid].sum(), abs=1e-9)
    # self times partition the time of the outermost spans
    total_self = sum(s["self_s"] for s in summary.values())
    assert total_self == pytest.approx(dur[a["parent"] < 0].sum(), rel=1e-9)


def test_call_counts_repeat_exactly_across_two_runs():
    inst = gen_instance(3, depth=2, branching=2)
    first, rows_a = _traced_suite(inst)
    second, rows_b = _traced_suite(inst)
    calls_a = {name: s["calls"] for name, s in first.summary().items()}
    calls_b = {name: s["calls"] for name, s in second.summary().items()}
    assert calls_a == calls_b
    assert first.counters == second.counters
    assert calls_a["space.cond_exp"] > 0 and first.counters["stopping.tails_enumerated"] > 0
    # the mode argument splits the weight constants
    assert calls_a["weights.rh.exact"] > 0 and calls_a["weights.rh.heuristic"] > 0
    assert [r.theorem for r in rows_a] == [r.theorem for r in rows_b]


def test_raised_span_is_marked_and_stack_unwinds():
    tracer = Tracer()

    def fail():
        raise ValueError("no")

    failing = tracer.wrap(fail, "fail")
    ok = tracer.wrap(lambda: None, "ok")
    with pytest.raises(ValueError):
        failing()
    ok()
    a = tracer.arrays()
    assert a["raised"].tolist() == [1, 0]
    assert a["parent"].tolist() == [-1, -1]
    assert tracer.summary()["fail"]["raised"] == 1


@pytest.mark.parametrize("seed,depth,branching", [(3, 3, 2), (5, 2, 3)])
def test_oracle_matches_exact_constants(seed, depth, branching):
    inst = gen_instance(seed, depth=depth, branching=branching)
    ref = oracle.exact_constants(filtermax.instance_to_dict(inst))
    for key in ("rh", "s", "winf"):
        value = compute_constant(key, inst.space, inst.v, inst.omega1, inst.omega2, inst.exps).value
        assert value == pytest.approx(ref[key], rel=1e-12)


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in run.WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.PER_LAYER


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ensemble_exact", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0 and proc.stdout == ""
