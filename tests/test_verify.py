"""Instance generation, theorem checkers on a fully hand-checkable
instance, the norm estimator, suite/ensemble runners, and report formats."""

import json
import math
import pickle
from collections import Counter

import numpy as np
import pytest

import filtermax.principal
import filtermax.verify
from filtermax import (
    CSV_HEADER,
    CheckResult,
    Exponents,
    Instance,
    ValidationError,
    check_carleson,
    check_properties,
    check_sparse,
    check_thm11_converse,
    check_thm11_forward,
    check_thm12,
    check_thm14,
    check_thm15,
    default_forest,
    dump_instance,
    estimate_norm,
    evaluation_pairs,
    gen_instance,
    gen_space,
    load_instance,
    norm_ratio,
    rows_to_csv,
    rows_to_json,
    run_ensemble,
    run_instance_suite,
)
from filtermax.stopping import EnumerationBudgetError
from filtermax.verify import _indicator_ratio

H = np.array([1.0, 0.0, 0.0, 0.0])


@pytest.fixture
def flat(quad):
    """All-ones weights on the four-point space; every characteristic is 1."""
    one = np.ones(4)
    return Instance(
        space=quad,
        v=one,
        omega1=one,
        omega2=one,
        exps=Exponents(2.0, 2.0),
        product_weight=True,
        seed=0,
        h1=H,
        h2=H,
    )


def ones_pair(n=4):
    return [("ones", np.ones(n), np.ones(n))]


# ---- generators -----------------------------------------------------------------


def test_gen_space_structure_and_determinism():
    s1 = gen_space(9, depth=3, branching=2)
    s2 = gen_space(9, depth=3, branching=2)
    assert s1.n == 8
    assert s1.n_levels == 4
    assert np.array_equal(s1.masses, s2.masses)
    assert s1.total_mass == pytest.approx(1.0)
    assert not np.array_equal(s1.masses, gen_space(10, depth=3, branching=2).masses)
    with pytest.raises(ValueError, match="atom budget exceeded"):
        gen_space(0, depth=40, branching=2)
    with pytest.raises(ValueError):
        gen_space(0, depth=0, branching=2)


def test_gen_instance_models():
    inst = gen_instance(3, model="product", p1=1.5, p2=3.0)
    assert inst.product_weight
    e = inst.exps
    assert np.array_equal(
        inst.v, inst.omega1 ** (e.p / e.p1) * inst.omega2 ** (e.p / e.p2)
    )

    inst = gen_instance(3, model="lognormal:0.1")
    assert not inst.product_weight
    assert inst.model == "lognormal:0.1"

    inst = gen_instance(3, depth=3, model="power:1.5")
    n = inst.space.n
    x = (np.arange(n) + 0.5) / n
    assert np.array_equal(inst.omega1, x**1.5)
    assert np.allclose(inst.space.masses, 1.0 / n)

    with pytest.raises(ValueError, match="unknown weight model"):
        gen_instance(3, model="gamma")


def test_gen_instance_same_seed_same_bytes():
    a, b = gen_instance(77), gen_instance(77)
    for key in ("v", "omega1", "omega2"):
        assert np.array_equal(getattr(a, key), getattr(b, key))


def test_instance_round_trip(tmp_path, flat):
    path = tmp_path / "inst.json"
    dump_instance(flat, str(path))
    again = load_instance(str(path))
    assert np.array_equal(again.v, flat.v)
    assert again.exps == flat.exps
    assert again.product_weight
    assert np.array_equal(again.h1, H)
    assert json.loads(path.read_text())  # plain JSON on disk


def test_load_instance_errors(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ValidationError, match="bad.json:1"):
        load_instance(str(path))
    path.write_text(json.dumps({"masses": [1, 1], "levels": [[[0, 1]]], "p1": 2, "p2": 2}))
    with pytest.raises(ValidationError, match="missing weight field"):
        load_instance(str(path))
    path.write_text(
        json.dumps(
            {
                "masses": [1, 1],
                "levels": [[[0, 1]]],
                "p1": 2,
                "p2": 2,
                "v": [1, 1],
                "omega1": [1, -1],
                "omega2": [1, 1],
            }
        )
    )
    with pytest.raises(ValidationError, match="omega1"):
        load_instance(str(path))
    # p1 near 1: sigma1 = omega1^(-1000) overflows at point 1, underflows at point 2
    base = {"masses": [1, 1, 1], "levels": [[[0, 1, 2]]], "p1": 1.001, "p2": 2, "v": [1, 1, 1]}
    path.write_text(json.dumps({**base, "omega1": [1, 1e-3, 1e3], "omega2": [1, 1, 1]}))
    with pytest.raises(ValidationError, match=r"bad.json: field 'sigma1' .* p1 = 1.001 is inf at point 1"):
        load_instance(str(path))
    path.write_text(json.dumps({**base, "omega1": [1, 1, 1e3], "omega2": [1, 1, 1]}))
    with pytest.raises(ValidationError, match="field 'sigma1' .* is 0.0 at point 2"):
        load_instance(str(path))
    # bookkeeping fields: a bad seed, a non-boolean product_weight, h1 without h2
    good = {"masses": [1, 1], "levels": [[[0, 1]]], "p1": 2, "p2": 2}
    good.update(v=[1, 1], omega1=[1, 1], omega2=[1, 1])
    for extra, message in BAD_BOOKKEEPING:
        path.write_text(json.dumps({**good, **extra}))
        with pytest.raises(ValidationError, match=r"bad\.json: " + message):
            load_instance(str(path))
    path.write_text(json.dumps({**good, "seed": 0, "product_weight": False, "h1": [1, 0], "h2": [0, 1]}))
    assert load_instance(str(path)).seed == 0


BAD_BOOKKEEPING = [
    ({"seed": "abc"}, r"field 'seed' must be a non-negative integer, got 'abc'"),
    ({"seed": 1.5}, r"field 'seed' must be a non-negative integer, got 1\.5"),
    ({"seed": -4}, r"field 'seed' must be a non-negative integer, got -4"),
    ({"seed": True}, r"field 'seed' must be a non-negative integer, got True"),
    ({"product_weight": "false"}, r"field 'product_weight' must be true or false, got 'false'"),
    ({"product_weight": 1}, r"field 'product_weight' must be true or false, got 1"),
    ({"h1": [1, 1]}, r"field 'h1' needs field 'h2' too"),
    ({"h2": [1, 1]}, r"field 'h2' needs field 'h1' too"),
]


def test_product_weight_is_validated_on_load(tmp_path):
    for seed in (3, 4):
        path = tmp_path / f"gen{seed}.json"
        dump_instance(gen_instance(seed, depth=3, model="product", p1=1.5, p2=3.0), str(path))
        assert load_instance(str(path)).product_weight
    data = {
        "masses": [1, 1, 1],
        "levels": [[[0, 1, 2]], [[0], [1], [2]]],
        "p1": 2,
        "p2": 2,
        "v": [2.0, 6.0, 3.0],
        "omega1": [4.0, 4.0, 1.0],
        "omega2": [1.0, 9.0, 4.0],
        "product_weight": True,
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    # v must be omega1^(1/2) omega2^(1/2) = [2, 6, 2]: point 2 is the first mismatch
    with pytest.raises(ValidationError, match=r"bad\.json: product_weight is true but v\[2\] = 3\.0"):
        load_instance(str(path))
    data["v"][2] = 2.0 * (1.0 + 1e-12)  # inside DEFAULT_REL_TOL
    path.write_text(json.dumps(data))
    assert load_instance(str(path)).product_weight
    data["product_weight"] = False
    data["v"][2] = 3.0
    path.write_text(json.dumps(data))
    assert not load_instance(str(path)).product_weight


# ---- CheckResult semantics --------------------------------------------------------


def test_check_result_status_rules():
    ok = CheckResult("x", lhs=1.0, rhs=1.0)
    assert ok.passed and ok.status == "pass" and not ok.hard_failure
    fail = CheckResult("x", lhs=2.0, rhs=1.0)
    assert fail.status == "fail" and fail.hard_failure
    soft = CheckResult("x", lhs=2.0, rhs=1.0, mode="lower-bound")
    assert soft.status == "indeterminate" and not soft.hard_failure
    assert soft.slack == -1.0
    # tolerance is relative with a tiny absolute floor
    edge = CheckResult("x", lhs=1.0 + 5e-10, rhs=1.0)
    assert edge.passed


def test_check_result_is_slotted_and_pickles(flat):
    # slotted rows keep an ensemble's report small; the process pool pickles them
    for row in run_instance_suite(flat, "thm12", pair_count=1):
        assert not hasattr(row, "__dict__")
        back = pickle.loads(pickle.dumps(row))
        assert back == row and back.status == row.status


# ---- theorem checkers on the flat instance -----------------------------------------


def test_thm11_forward_flat(flat):
    row = check_thm11_forward(flat, ones_pair())
    assert row.theorem == "thm11_forward"
    assert row.lhs == pytest.approx(1.0)
    # 16 * 4^(q'-1) p1' p2' [A]^(q'/p) with q' = 2, [A] = 1
    assert row.rhs == pytest.approx(256.0)
    assert row.detail["A"] == pytest.approx(1.0)
    assert row.passed

    plain = Instance(
        space=flat.space,
        v=np.array([2.0, 1.0, 1.0, 1.0]),
        omega1=flat.omega1,
        omega2=flat.omega2,
        exps=flat.exps,
        product_weight=False,
    )
    with pytest.raises(ValueError, match="product weight"):
        check_thm11_forward(plain, ones_pair())


def test_thm11_converse_flat(flat):
    row = check_thm11_converse(flat, mode="exact")
    assert row.lhs == pytest.approx(1.0)
    assert row.rhs == pytest.approx(1.0)
    assert row.passed
    assert row.mode == "exact"
    soft = check_thm11_converse(flat, mode="heuristic")
    assert soft.mode == "lower-bound"
    assert soft.passed


def test_thm12_flat(flat):
    rows = {r.theorem: r for r in check_thm12(flat, ones_pair(), mode="exact")}
    assert set(rows) == {"thm12_attain", "thm12_lower", "thm12_upper"}
    attain = rows["thm12_attain"]
    assert attain.lhs <= 1e-12  # indicator family reproduces [S]
    assert attain.detail["S"] == pytest.approx(1.0)
    lower = rows["thm12_lower"]
    assert lower.lhs <= lower.rhs * (1 + 1e-12)
    upper = rows["thm12_upper"]
    assert upper.rhs == pytest.approx(128.0)  # 32 * 2 * 2 * [S] * [RH]
    assert upper.passed
    heur = {r.theorem for r in check_thm12(flat, ones_pair(), mode="heuristic")}
    assert heur == {"thm12_lower", "thm12_upper"}  # no attainment row without enumeration


def test_thm14_flat(flat):
    bound, subst = check_thm14(flat, ones_pair())
    assert bound.theorem == "thm14_bound"
    assert bound.lhs == pytest.approx(1.0)
    assert bound.rhs == pytest.approx(32.0 * 2.0 * math.e * 4.0)
    assert subst.theorem == "thm14_subst"
    assert subst.lhs <= 1e-15
    assert subst.abs_tol == 1e-12


def test_thm15_flat(flat):
    row = check_thm15(flat, ones_pair(), mode="exact")
    assert row.lhs == pytest.approx(1.0)
    assert row.rhs == pytest.approx(32.0 * 2.0 * 4.0)
    assert row.detail["Winf"] == pytest.approx(1.0)
    assert row.passed


def test_worst_pair_skips_vanishing_norms_and_keeps_the_first_tie(flat):
    ones = np.ones(4)
    pairs = [("zero", np.zeros(4), ones), ("first", ones, ones), ("again", ones, ones)]
    assert check_thm11_forward(flat, pairs).detail["pair"] == "first"
    assert check_thm14(flat, pairs)[0].detail["pair"] == "first"
    assert check_thm15(flat, pairs, mode="exact").detail["pair"] == "first"


def test_sparse_rows_flat(flat):
    dom, props = check_sparse(flat)
    assert dom.theorem == "sparse_domination"
    assert dom.lhs == 0.25 and dom.rhs == 0.25
    assert dom.passed  # equality within the absolute cushion
    assert dom.detail["min_slack"] == 0.0
    assert dom.detail["tightest_point"] == 1
    assert props.theorem == "sparse_properties"
    assert props.lhs == 0.0
    assert props.passed


def test_carleson_rows_flat(flat):
    rows = check_carleson(flat)
    assert [r.theorem for r in rows] == ["carleson_node", "carleson_exit"]
    for row in rows:
        assert row.passed
        assert row.detail["entries"] >= 1
        assert row.detail["A"] >= 1.0 - 1e-12


def test_properties_rows(flat):
    rows = check_properties(flat, draws=25)
    names = {r.theorem for r in rows}
    assert names == {
        "prop_tower",
        "prop_cond_holder",
        "prop_jensen_log",
        "prop_doob",
        "prop_square",
        "prop_rh_ge1",
    }
    for row in rows:
        assert row.passed, row.theorem
    by_name = {r.theorem: r for r in rows}
    assert by_name["prop_square"].lhs == 0.0  # bit-exact identity
    assert by_name["prop_rh_ge1"].rhs >= 1.0


# ---- norm estimator ----------------------------------------------------------------


def test_estimate_norm_flat(flat):
    value, witness = estimate_norm(flat, budget=16, seed=0)
    assert value == pytest.approx(1.375)
    assert witness == {"kind": "atom", "level": 2, "atom": 0}


def test_estimate_norm_deterministic_and_monotone(pair):
    inst = Instance(
        space=pair,
        v=np.array([2.0, 2.0]),
        omega1=np.array([0.25, 1.0]),
        omega2=np.array([1.0, 0.25]),
        exps=Exponents(2.0, 2.0),
        product_weight=False,
        seed=11,
    )
    a = estimate_norm(inst, budget=4, seed=5)[0]
    b = estimate_norm(inst, budget=4, seed=5)[0]
    assert a == b  # bit-identical rerun
    # doubling the budget keeps earlier draws and can only improve
    c = estimate_norm(inst, budget=8, seed=5)[0]
    d = estimate_norm(inst, budget=16, seed=5)[0]
    assert a <= c <= d
    assert estimate_norm(inst, budget=4, seed=7)[0] >= 0  # other seeds still run


@pytest.mark.parametrize("shape", [dict(depth=3), dict(depth=2, branching=3, model="power:1.5")])
def test_estimate_norm_heuristic_branch(shape):
    """Past the atom budget the tail pairs come from the heuristic search,
    scored in blocks by `_tail_ratios`' row kernel."""
    search = filtermax.verify.heuristic_sup_over_tau
    found = []

    def recorded(*args, **kwargs):
        found.append(search(*args, **kwargs))
        return found[-1]

    for seed in range(3):
        inst = gen_instance(seed, **shape)
        unforced = estimate_norm(inst, budget=4)
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("FILTERMAX_ATOM_BUDGET", "3")
            mp.setattr(filtermax.verify, "heuristic_sup_over_tau", recorded)
            found.clear()
            forced = estimate_norm(inst, budget=4)
            assert estimate_norm(inst, budget=4) == forced  # deterministic
        assert len(found) == 2
        assert forced[0] <= unforced[0]
        assert forced[1]["kind"] in ("atom", "tail_heuristic", "random")
        # each block value is bit for bit the ratio of its tail's indicator pair
        value, tau = found[0]
        assert value == _indicator_ratio(inst, tau.tail_set())


def test_norm_ratio_zero_denominator(flat):
    assert norm_ratio(flat, np.zeros(4), np.ones(4)) is None
    assert norm_ratio(flat, np.ones(4), np.ones(4)) == pytest.approx(1.0)


def test_evaluation_pairs_deterministic(flat):
    a = evaluation_pairs(flat, 3)
    b = evaluation_pairs(flat, 3)
    assert [n for n, _, _ in a] == ["rand0", "rand1", "rand2"]
    for (_, f1, f2), (_, g1, g2) in zip(a, b):
        assert np.array_equal(f1, g1) and np.array_equal(f2, g2)
    # a longer family extends, never reshuffles
    longer = evaluation_pairs(flat, 5)
    assert np.array_equal(longer[2][1], a[2][1])


# ---- suite and ensemble runners ----------------------------------------------------


def test_run_instance_suite_row_names(flat):
    rows = run_instance_suite(flat, "all", pair_count=2)
    names = {r.theorem for r in rows}
    assert {
        "thm11_forward",
        "thm11_converse",
        "thm12_attain",
        "thm12_lower",
        "thm12_upper",
        "thm14_bound",
        "thm14_subst",
        "thm15_bound",
        "sparse_domination",
        "sparse_properties",
        "carleson_node",
        "carleson_exit",
        "prop_tower",
        "prop_doob",
    } <= names
    assert all(not r.hard_failure for r in rows)
    with pytest.raises(ValueError, match="unknown suite"):
        run_instance_suite(flat, "everything")


def test_run_instance_suite_fallback():
    big = gen_instance(4, depth=5, branching=2)  # 63 atoms > budget of 24
    with pytest.raises(EnumerationBudgetError):
        run_instance_suite(big, "thm12", pair_count=1)
    rows = run_instance_suite(big, "thm12", pair_count=1, fallback=True)
    assert rows and all(r.mode == "lower-bound" for r in rows)
    # exhaustive-only carleson certification is skipped quietly under fallback
    assert run_instance_suite(big, "carleson", fallback=True) == []


def _count_work(monkeypatch) -> tuple[Counter, list]:
    """Count weight constants by (name, mode) and principal forest builds."""
    constants: Counter = Counter()
    builds: list = []
    compute = filtermax.verify.compute_constant
    build = filtermax.principal.build_principal_forest

    def counted_constant(name, *args, mode="exact", **kwargs):
        constants[(name, mode)] += 1
        return compute(name, *args, mode=mode, **kwargs)

    def counted_build(*args, **kwargs):
        builds.append(args[2])
        return build(*args, **kwargs)

    monkeypatch.setattr(filtermax.verify, "compute_constant", counted_constant)
    monkeypatch.setattr(filtermax.principal, "build_principal_forest", counted_build)
    return constants, builds


def test_suite_computes_each_constant_and_the_forest_once(monkeypatch):
    inst = gen_instance(4, depth=3, model="product")
    constants, builds = _count_work(monkeypatch)
    default_forest(inst)
    shells = list(builds)
    assert shells
    builds.clear()
    run_instance_suite(inst, "all")
    assert builds == shells
    assert constants == {
        (name, "exact"): 1 for name in ("a", "rh", "s", "b", "winf")
    } | {("rh", "heuristic"): 1}
    # every call starts afresh: a second run repeats the same work
    run_instance_suite(inst, "all")
    assert builds == shells * 2
    assert set(constants.values()) == {2}


def test_fallback_suite_decides_the_tail_mode_once(monkeypatch):
    inst = gen_instance(5, depth=5, model="product", p1=2.5, p2=2.5)
    constants, _ = _count_work(monkeypatch)
    rows = run_instance_suite(inst, "all", pair_count=2, fallback=True)
    # one heuristic RH serves thm11_converse, thm12 and prop_rh_ge1; nothing exact is tried
    assert constants == {
        ("a", "exact"): 1,
        ("b", "exact"): 1,
        ("rh", "heuristic"): 1,
        ("s", "heuristic"): 1,
        ("winf", "heuristic"): 1,
    }
    assert not any(r.theorem.startswith("carleson") for r in rows)


@pytest.mark.parametrize("depth,mode", [(3, "exact"), (5, "heuristic")])
def test_suite_rows_equal_the_individual_checks(depth, mode):
    inst = gen_instance(6, depth=depth, model="product")
    pairs = evaluation_pairs(inst, 3)
    rows = [
        check_thm11_forward(inst, pairs),
        check_thm11_converse(inst, mode),
        *check_thm12(inst, pairs, mode),
        *check_thm14(inst, pairs),
        check_thm15(inst, pairs, mode),
        *check_sparse(inst),
        *(check_carleson(inst) if mode == "exact" else []),
        *check_properties(inst),
    ]
    assert run_instance_suite(inst, "all", pair_count=3, fallback=mode != "exact") == rows


def test_suites_without_tail_checks_need_no_fallback():
    big = gen_instance(4, depth=5, branching=2)  # over the atom budget
    for suite in ("thm14", "sparse", "props"):
        rows = run_instance_suite(big, suite, pair_count=1)
        assert rows and all(r.mode == "exact" for r in rows)
    for suite in ("thm11", "thm15", "carleson", "all"):
        with pytest.raises(EnumerationBudgetError):
            run_instance_suite(big, suite, pair_count=1)


@pytest.mark.parametrize("pair_count", [0, -1])
def test_suite_runners_reject_pair_counts_below_one(flat, pair_count):
    with pytest.raises(ValueError, match=f"pair_count must be at least 1, got {pair_count}"):
        run_instance_suite(flat, "thm14", pair_count=pair_count)
    with pytest.raises(ValueError, match=f"pair_count must be at least 1, got {pair_count}"):
        run_ensemble(1, 2, suite="thm14", pair_count=pair_count)


@pytest.mark.parametrize(
    "check,theorem",
    [(check_thm11_forward, "thm11_forward"), (check_thm14, "thm14_bound"), (check_thm15, "thm15_bound")],
)
@pytest.mark.parametrize("count", [0, 1, 3])
def test_worst_pair_without_a_nonvanishing_pair_names_the_check(flat, check, theorem, count):
    """A family whose every pair has ||f1|| ||f2|| = 0 (or no pair at all) is
    a ValueError naming the check, not an assert."""
    pairs = [(f"zero{t}", np.zeros(4), np.ones(4)) for t in range(count)]
    with pytest.raises(ValueError) as info:
        check(flat, pairs)
    assert str(info.value) == f"{theorem}: no test pair has ||f1|| ||f2|| > 0 ({count} pairs given)"


def test_run_ensemble_sorted_and_parallel_equal():
    seq = run_ensemble(100, 4, suite="props", pair_count=2)
    par = run_ensemble(100, 4, suite="props", pair_count=2, jobs=2)
    assert rows_to_csv(seq) == rows_to_csv(par)
    keys = [(r.seed, r.theorem) for r in seq]
    assert keys == sorted(keys)
    assert {r.seed for r in seq} == {100, 101, 102, 103}


# ---- report formats ----------------------------------------------------------------


def test_rows_to_csv_golden(flat):
    assert CSV_HEADER == "theorem,seed,lhs,rhs,slack,mode"
    rows = [
        CheckResult("b_thm", lhs=0.5, rhs=1.0, seed=2),
        CheckResult("a_thm", lhs=1.0 / 3.0, rhs=2.0, seed=2),
        CheckResult("z_thm", lhs=0.1, rhs=0.2, seed=1, mode="lower-bound"),
    ]
    text = rows_to_csv(rows)
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1].startswith("z_thm,1,")  # sorted by (seed, theorem)
    assert lines[2].startswith("a_thm,2,")
    assert text.endswith("\n")
    # repr floats survive the round trip exactly
    fields = lines[2].split(",")
    assert float(fields[2]) == 1.0 / 3.0
    assert float(fields[4]) == 2.0 - 1.0 / 3.0


def test_rows_to_json(flat):
    rows = run_instance_suite(flat, "sparse")
    payload = json.loads(rows_to_json(rows))
    assert [p["theorem"] for p in payload] == ["sparse_domination", "sparse_properties"]
    assert all(p["status"] == "pass" for p in payload)
    assert payload[0]["detail"]["tightest_point"] == 1
