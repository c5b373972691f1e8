"""Instance generation, theorem checkers on a fully hand-checkable
instance, the norm estimator, suite/ensemble runners, and report formats."""

import concurrent.futures
import copy
import dataclasses
import functools
import json
import math
import operator
import os
import pickle
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import filtermax.carleson
import filtermax.principal
import filtermax.space
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
from filtermax.verify import IDENTITY_TOL
from filtermax.weights import WeightConstant

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
    with pytest.raises(ValueError, match="point limit exceeded"):
        gen_space(0, depth=40, branching=2)
    # the running product stops at the limit: no 10**6-digit power, nor its string
    with pytest.raises(ValueError, match=r"point limit exceeded: branching 3 at depth 1000000 gives more than 65536"):
        gen_instance(1, depth=10**6, branching=3)
    # past Python's int-to-string digit limit the refusal names the bit length
    with pytest.raises(ValueError, match=r"exceeded: branching of 16610 bits at depth 1 gives more than 65536"):
        gen_instance(1, depth=1, branching=10**5000)
    with pytest.raises(ValueError, match=r"exceeded: branching 2 at depth of 16610 bits gives more than 65536"):
        gen_instance(1, depth=10**5000, branching=2)
    with pytest.raises(ValueError):
        gen_space(0, depth=0, branching=2)


@pytest.mark.parametrize("shape", [{"depth": 3}, {"depth": 2, "branching": 3}])
def test_power_instance_shares_the_generated_tower(monkeypatch, shape):
    """The power model puts uniform masses on gen_space's cached tower: it reads
    no raw tower, and its atoms are the very arrays of gen_space's."""
    reads = []
    read = filtermax.space._read
    monkeypatch.setattr(filtermax.space, "_read", lambda *raw: reads.append(1) or read(*raw))
    inst = gen_instance(3, model="power", **shape)
    assert not reads
    n = inst.space.n
    assert np.array_equal(inst.space.masses, np.full(n, 1.0 / n))
    assert inst.space.atoms is gen_space(3, **{"branching": 2, **shape}).atoms


MODELS = ("lognormal", "product", "power", "power:1.5")
SHAPES = [(depth, branching) for depth in range(1, 6) for branching in range(2, 5)]


def _tower_lists(depth, branching):
    """The regular tower as raw lists, the form a `gen` file stores."""
    n = branching**depth
    return [
        [list(range(a * n // branching**t, (a + 1) * n // branching**t)) for a in range(branching**t)]
        for t in range(depth + 1)
    ]


@pytest.mark.parametrize("depth,branching", SHAPES)
def test_the_cached_tower_matches_the_reader(depth, branching):
    """In every model, a generated space equals the space the reader builds from
    the same lists: atoms, labels, parents, levels of single points, and the atom
    and total masses to the bit, each atom mass its 1-d sum as before.  Its
    arrays reject writes; two seeds of a shape share the tower, not the masses;
    and `gen` files list the same levels."""
    levels = _tower_lists(depth, branching)
    for model in MODELS:
        space = gen_instance(5, depth=depth, branching=branching, model=model).space
        read = filtermax.space.FilteredSpace(space.masses, levels)
        assert [[a.tolist() for a in level] for level in space.atoms] == levels
        for got, want in ((space.atom_of, read.atom_of), (space.parents, read.parents)):
            assert len(got) == len(want) == depth + 1
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and np.array_equal(g, w)
        assert space._point_levels == read._point_levels == {depth}
        hexes = [[float(m).hex() for m in level] for level in space.atom_mass]
        assert hexes == [[float(m).hex() for m in level] for level in read.atom_mass]
        assert hexes == [[float(space.masses[a].sum()).hex() for a in level] for level in space.atoms]
        assert float(space.total_mass).hex() == float(read.total_mass).hex()
        arrays = [space.masses, *space.atom_of, *space.parents, *space.atom_mass, *(a for lv in space.atoms for a in lv)]
        for arr in arrays:
            assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            space.atoms[-1][0][0] = 1
        other = gen_instance(6, depth=depth, branching=branching, model=model).space
        assert other.atoms is space.atoms and other.atom_of is space.atom_of and other.parents is space.parents
        assert other._tower is space._tower
        assert not np.shares_memory(other.masses, space.masses)
        assert filtermax.space.space_to_dict(space)["levels"] == levels


def _row_bits(rows):
    return [(r.theorem, float(r.lhs).hex(), float(r.rhs).hex(), r.mode, json.dumps(r.detail, sort_keys=True)) for r in rows]


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.sampled_from([(1, 2), (2, 2), (3, 2), (1, 3), (2, 3), (1, 4), (2, 4), (5, 2)]),
    model=st.sampled_from(MODELS),
    p12=st.sampled_from([(2.0, 2.0), (2.5, 1.7), (1.5, 3.0)]),
)
def test_generated_and_loaded_instances_give_the_same_rows(tmp_path, seed, shape, model, p12):
    """The suite gives the same rows, to the bit, for a generated instance and for
    it dumped and loaded again: generation and file loading build one space.
    Depth 5 is past the atom budget, so its rows are the fallback's."""
    inst = gen_instance(seed, depth=shape[0], branching=shape[1], model=model, p1=p12[0], p2=p12[1])
    path = str(tmp_path / "inst.json")
    dump_instance(inst, path)
    rows = [_row_bits(run_instance_suite(x, "all", fallback=True)) for x in (inst, load_instance(path))]
    assert rows[0] == rows[1]


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


def test_load_instance_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"masses": [1, 2')
    with pytest.raises(ValidationError) as err:
        load_instance(str(path))
    assert "broken.json:1" in str(err.value)
    assert "invalid JSON" in str(err.value)


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
    # point indices and masses that are not numbers, and test functions with no forest
    for extra, message in BAD_DATA:
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
    ({"model": 5}, r"field 'model' must be a string, got 5"),
    ({"model": {}}, r"field 'model' must be a string, got \{\}"),
    ({"h1": [1, 1]}, r"field 'h1' needs field 'h2' too"),
    ({"h2": [1, 1]}, r"field 'h2' needs field 'h1' too"),
]

def test_instance_files_keep_their_key_order(tmp_path):
    path = tmp_path / "inst.json"
    dump_instance(gen_instance(3, depth=1), str(path))
    keys = ["masses", "levels", "v", "omega1", "omega2", "p1", "p2", "product_weight", "model", "seed"]
    assert list(json.loads(path.read_text())) == keys
    data = {**json.loads(path.read_text()), "h1": [1, 0], "h2": [1, 1]}
    path.write_text(json.dumps(data))
    dump_instance(load_instance(str(path)), str(path))
    assert list(json.loads(path.read_text())) == keys + ["h1", "h2"]


@pytest.mark.parametrize(
    "faults,message",
    [
        ({"p1": "2", "p2": True, "v": {}}, r"field 'p1' must be a number"),
        ({"p2": True, "v": {}}, r"field 'p2' must be a number"),
        ({"p1": 1, "v": {}}, r"p1 must lie in \(1, inf\)"),
        ({"v": [0, 1], "omega1": "x", "h1": [-1, 1]}, r"field 'v' must be strictly positive"),
        ({"omega1": "x", "omega2": {}, "h1": [-1, 1]}, r"field 'omega1': could not convert"),
        ({"omega2": {}, "h1": [-1, 1]}, r"field 'omega2': float\(\) argument"),
        ({"h1": [-1, 1], "h2": None}, r"field 'h1' must be nonnegative"),
        ({"h1": [1, 1], "seed": -1}, r"field 'h1' needs field 'h2' too"),
        ({"seed": -1, "product_weight": 1, "model": 5}, r"field 'seed' must be"),
        ({"product_weight": 1, "model": 5}, r"field 'product_weight' must be"),
        ({"product_weight": True, "v": [1, 2], "model": 5}, r"product_weight is true but v\[1\] = 2\.0"),
    ],
)
def test_load_instance_reports_the_first_fault_in_field_order(tmp_path, faults, message):
    """With several faults, loading reports the first in the order p1, p2,
    the pair, v, omega1, omega2, h1, h2, then seed, product_weight, model."""
    good = {"masses": [1, 1], "levels": [[[0, 1]]], "p1": 2, "p2": 2, "v": [1, 1], "omega1": [1, 1], "omega2": [1, 1]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**good, **faults}))
    with pytest.raises(ValidationError, match=r"^" + str(path) + ": " + message):
        load_instance(str(path))


MALFORMED_SHAPES = [
    ({"levels": None}, r"levels: need a list of partition levels, got None"),
    ({"levels": 3}, r"levels: need a list of partition levels, got 3"),
    ({"levels": False}, r"levels: need a list of partition levels, got False"),
    ({"levels": [[0, 1]]}, r"level 0, atom 0: need a list of point indices, got 0"),
    ({"levels": [[[0, 1]], 7]}, r"level 1: need a list of atoms, got 7"),
    ({"levels": [[[0, 1]], [None, [1]]]}, r"level 1, atom 0: need a list of point indices, got None"),
    ({"levels": [[[0, 1]], []]}, r"level 1: point 0 is missing from the partition"),
    ({"v": {}}, r"field 'v': float\(\) argument must be a string or a real number, not 'dict'"),
    ({"omega1": {"a": 1}}, r"field 'omega1': float\(\) argument .* not 'dict'"),
    ({"omega2": {}}, r"field 'omega2': float\(\) argument .* not 'dict'"),
    ({"h1": {}, "h2": [1, 1]}, r"field 'h1': float\(\) argument .* not 'dict'"),
    ({"h1": [1, 1], "h2": {}}, r"field 'h2': float\(\) argument .* not 'dict'"),
]


@pytest.mark.parametrize("extra,message", MALFORMED_SHAPES)
def test_load_instance_rejects_malformed_shapes(tmp_path, extra, message):
    """Levels, atoms and fields of the wrong JSON type are ValidationErrors
    naming the path and where, not TypeErrors."""
    good = {"masses": [1, 1], "levels": [[[0, 1]]], "p1": 2, "p2": 2, "v": [1, 1], "omega1": [1, 1], "omega2": [1, 1]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**good, **extra}))
    with pytest.raises(ValidationError, match=r"^" + str(path) + ": " + message + "$"):
        load_instance(str(path))


def test_load_instance_rejects_undecodable_files(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"masses": [1], "levels": [[[0]]], "model": "caf\u00e9"}'.encode("latin-1"))
    with pytest.raises(ValidationError, match=r"^" + str(path) + r": invalid JSON \('utf-8' codec can't decode"):
        load_instance(str(path))


def _json_nodes(x, path=()):
    """Paths to every node of a JSON value below its root."""
    items = x.items() if isinstance(x, dict) else enumerate(x) if isinstance(x, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _json_nodes(value, path + (key,))


LOADER_BASES = [
    json.loads((Path(__file__).parent / "data" / "worked4.json").read_text()),
    filtermax.verify.instance_to_dict(gen_instance(3, depth=2, model="product")),
    filtermax.verify.instance_to_dict(gen_instance(4, depth=3, branching=3)),
]
JSON_VALUES = [None, True, False, 0, 1, -1, 2.5, 1e30, 10**400, "", "x", "1", [], {}, [0], [1, 2], [[0]], [None], {"a": 1}]


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_the_loader_raises_only_validation_errors(tmp_path, data):
    """Replace or delete up to three nodes of a valid instance file: the file
    either loads or raises ValidationError prefixed with its path, never
    another exception."""
    doc = copy.deepcopy(data.draw(st.sampled_from(LOADER_BASES)))
    for _ in range(data.draw(st.integers(1, 3))):
        nodes = list(_json_nodes(doc))
        if not nodes:
            break
        path = data.draw(st.sampled_from(nodes))
        holder = functools.reduce(operator.getitem, path[:-1], doc)
        if data.draw(st.integers(0, 4)) == 0:
            del holder[path[-1]]
        else:
            holder[path[-1]] = copy.deepcopy(data.draw(st.sampled_from(JSON_VALUES)))
    file = tmp_path / "mutated.json"
    file.write_text(json.dumps(doc))
    try:
        load_instance(str(file))
    except ValidationError as exc:
        assert str(exc).startswith(f"{file}:")


BAD_DATA = [
    ({"levels": [[[0, 1]], [[0.9], [1]]]}, r"level 1, atom 0: point index 0\.9 is not an integer"),
    ({"levels": [[[0, 1]], [[0], [1.5]]]}, r"level 1, atom 1: point index 1\.5 is not an integer"),
    ({"levels": [[["0", 1]]]}, r"level 0, atom 0: point index '0' is not an integer"),
    ({"levels": [[[0, True]]]}, r"level 0, atom 0: point index True is not an integer"),
    ({"masses": [1, "1"]}, r"masses\[1\]: mass '1' is not a number"),
    ({"masses": [False, 1]}, r"masses\[0\]: mass False is not a number"),
    ({"h1": [0, 0], "h2": [0, 0]}, r"fields 'h1' and 'h2': E_0\(h1\) E_0\(h2\) vanishes everywhere"),
    ({"h1": [1, 1], "h2": [0, 0]}, r"fields 'h1' and 'h2': E_0\(h1\) E_0\(h2\) vanishes everywhere"),
    # level products past float range, named by level and point
    ({"h1": [1e200, 1], "h2": [1e200, 1]}, r"fields 'h1' and 'h2': E_0\(h1\) E_0\(h2\) overflows at point 0$"),
    (
        {"levels": [[[0, 1]], [[0], [1]]], "h1": [0, 2e154], "h2": [0, 2e154]},
        r"fields 'h1' and 'h2': E_1\(h1\) E_1\(h2\) overflows at point 1$",
    ),
    # finite level products past 4^510, whose sparse bound 16 * 4^(K2-1) overflows
    (
        {"h1": [1e154, 1e154], "h2": [1e154, 1e154]},
        r"fields 'h1' and 'h2': E_0\(h1\) E_0\(h2\) exceeds 4\^510 at point 0, so its sparse bound .* overflows",
    ),
    (
        {"levels": [[[0, 1]], [[0], [1]]], "h1": [0, 5e153], "h2": [0, 5e153]},
        r"fields 'h1' and 'h2': E_1\(h1\) E_1\(h2\) exceeds 4\^510 at point 1, so its sparse bound",
    ),
    # weights, test functions and exponents that are not numbers, or not floats
    ({"v": ["1", True]}, r"field 'v'\[0\]: '1' is not a number"),
    ({"omega1": [1, False]}, r"field 'omega1'\[1\]: False is not a number"),
    ({"omega2": [1, "2.5"]}, r"field 'omega2'\[1\]: '2\.5' is not a number"),
    ({"h1": [1, None], "h2": [1, 1]}, r"field 'h1'\[1\]: None is not a number"),
    ({"h1": [1, 1], "h2": [[1], 1]}, r"field 'h2'\[0\]: \[1\] is not a number"),
    ({"p1": "2"}, r"field 'p1' must be a number, got '2'"),
    ({"p2": True}, r"field 'p2' must be a number, got True"),
    ({"v": [10**400, 1]}, r"field 'v': int too large to convert to float"),
    ({"p1": 10**400}, r"field 'p1': int too large to convert to float"),
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
    # the default tolerance is relative only
    edge = CheckResult("x", lhs=1.0 + 5e-10, rhs=1.0)
    assert edge.passed


def test_bound_rows_take_no_absolute_tolerance():
    """Two tiny sides of a bound row are compared as they are: 1e-20 <= 1e-30
    fails.  An identity row with the same sides passes through IDENTITY_TOL,
    which it passes explicitly."""
    assert CheckResult("thm15_bound", 1e-20, 1e-30).status == "fail"
    assert CheckResult("thm14_subst", 1e-20, 1e-30, abs_tol=IDENTITY_TOL).status == "pass"


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


def test_thm12_refuses_a_witness_tail_without_a_norm_ratio():
    """A witness tail whose indicator pair has ||1_E|| ||1_E|| = 0 (sigma = 1e-322
    times a point's mass underflows) is refused naming thm12.  An underflowed
    [S] is refused before its tail is read, so a finite [S] is set on it here."""
    inst = gen_instance(3, depth=3, p1=1.5, p2=1.5)
    tiny = np.full(inst.space.n, 1e161)
    inst = dataclasses.replace(inst, omega1=tiny, omega2=tiny, v=np.ones(inst.space.n))
    inst._constants[("s", "exact")] = WeightConstant("S", 1.0, "exact", {"origin": 0, "tail": [0]})
    with pytest.raises(ValueError, match=r"^thm12: the \[S\] witness tail E has .* = 0$"):
        check_thm12(inst)


@pytest.mark.parametrize("value", [0.0, 5e-324])
def test_weight_constants_refuse_an_underflowed_value(value):
    with pytest.raises(ValueError, match=r"^constant S is .* at tail \[0\], underflowed below the normal float range$"):
        WeightConstant("S", value, "exact", {"origin": 0, "tail": [0]})
    assert WeightConstant("S", 2.2250738585072014e-308, "exact", {"tail": [0]}).value > 0


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


@pytest.mark.parametrize(
    "operator,gap,failing",
    [
        ([1e6 + 1e-4, 1.0 + 1e-5, 0.5, 0.5], 0.0, "sparse_domination"),  # past 1e-12 * scale, within 1e-9 rel
        ([0.5, 0.5, 0.5, 0.5], 1.0, "sparse_properties"),
    ],
)
def test_sparse_rows_fail_where_the_report_fails(flat, monkeypatch, operator, gap, failing):
    """The sparse rows judge a report by its own rule: each crafted report has
    `ok` False, and exactly the row that carries the broken term fails."""
    bound = np.array([1e6, 1.0, 1.0, 1.0])
    operator = np.array(operator)
    slack = bound - operator
    report = filtermax.principal.DominationReport(
        bound=bound,
        operator=operator,
        operator_global=operator,
        min_slack=float(slack.min()),
        tightest_point=int(slack.argmin()),
        localization_gap=gap,
    )
    assert not report.ok
    monkeypatch.setattr("filtermax.verify.sparse_domination_report", lambda forest: report)
    rows = check_sparse(flat)
    assert {r.theorem: r.status for r in rows} == {
        name: "fail" if name == failing else "pass" for name in ("sparse_domination", "sparse_properties")
    }


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


# ---- norm ratio --------------------------------------------------------------------


def test_norm_ratio_indicator_pairs_flat(flat):
    """Each singleton's indicator pair gives 1.375, each half's 1.25 and the
    root's 1.0; thm11's converse row reads r_B off the same path."""
    space = flat.space
    for level, expected in ((2, 1.375), (1, 1.25), (0, 1.0)):
        for atom in space.atoms[level]:
            chi = space.indicator(atom)
            assert norm_ratio(flat, chi, chi) == pytest.approx(expected)
    witness = flat.constant("a").witness["atom"]
    chi = space.indicator(witness)
    assert check_thm11_converse(flat).detail["r_B"] == norm_ratio(flat, chi, chi)


def test_norm_ratio_refuses_a_root_past_float_range():
    """p1 = p2 = 1.5 gives p = 0.75; with v = 1e250 the integral of M^p v is
    finite, but its root ** (1/p) is not."""
    inst = gen_instance(3, depth=3, p1=1.5, p2=1.5)
    big = dataclasses.replace(inst, v=np.full(inst.space.n, 1e250))
    one = np.ones(inst.space.n)
    with pytest.raises(ValueError, match=r"^\|\|M\(f1 sigma1, f2 sigma2\)\|\|_\{L\^p\(v\)\}: .* \*\* 1\.3333333333333333 overflows a float$"):
        norm_ratio(big, one, one)


def test_default_forest_refuses_vanishing_h_products():
    """h1 = h2 = 1e-200 underflows E_0(h1) E_0(h2) to 0 at every point."""
    inst = gen_instance(3, depth=3)
    tiny = np.full(inst.space.n, 1e-200)
    with pytest.raises(ValueError, match="^no occupied shell"):
        default_forest(dataclasses.replace(inst, h1=tiny, h2=tiny))


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
    # carleson certification needs no sweep: its rows are exact under fallback too
    rows = run_instance_suite(big, "carleson", fallback=True)
    assert [r.theorem for r in rows] == ["carleson_node", "carleson_exit"]
    assert all(r.mode == "exact" and r.passed for r in rows)


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


@pytest.mark.parametrize("model", ["lognormal", "product"])
def test_suite_scores_the_test_pairs_once(monkeypatch, model):
    """thm11_forward, thm12, thm14 and thm15 share one scoring of the five
    test pairs; the tail sweeps and indicator pairs score their own rows."""
    inst = gen_instance(0, depth=3, model=model)
    norms = filtermax.verify._pair_norms
    blocks = []

    def counted_norms(inst, F1, F2, inside=None):
        if inside is None:
            blocks.append(F1.shape[0])
        return norms(inst, F1, F2, inside)

    monkeypatch.setattr(filtermax.verify, "_pair_norms", counted_norms)
    run_instance_suite(inst, "all")
    assert blocks.count(5) == 1
    # explicit pairs with other names or values get their own scores
    pairs = evaluation_pairs(inst, 5)
    renamed = [(f"other{t}", f1, f2) for t, (_, f1, f2) in enumerate(pairs)]
    scaled = [(name, 2.0 * f1, f2) for name, f1, f2 in pairs]
    for family in (pairs, pairs, renamed, scaled):
        check_thm14(inst, family)
    assert blocks.count(5) == 4


def _count_products(monkeypatch) -> Counter:
    """Level-products computations, counted by their pair's bytes: calls that
    get the space's kept products back are not counted."""
    remember, computed = filtermax.space._remember, Counter()

    def counted(space, kind, key, compute):
        def counting():
            computed[key] += 1
            return compute()

        return remember(space, kind, key, counting if kind == "products" else compute)

    monkeypatch.setattr(filtermax.space, "_remember", counted)
    return computed


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_suite_computes_the_forest_level_products_once(monkeypatch, seed):
    """A suite run computes the forest's (h1, h2) level products once, for the
    cover's shells, every forest's growth and the P.1–P.5 check, and the
    (sigma1, sigma2) products once, for both Carleson variants."""
    inst = gen_instance(seed, depth=3)
    computed = _count_products(monkeypatch)
    run_instance_suite(inst, "all")
    counts = dict(computed)  # before the pair's keys are derived: the run's forest was on a copy
    h = (inst.forest.h1.tobytes(), inst.forest.h2.tobytes())
    sigma = (inst.sigma1.tobytes(), inst.sigma2.tobytes())
    assert counts == {h: 1, sigma: 1}


def test_fallback_suite_computes_the_sigma_level_products_at_most_twice(monkeypatch):
    """Under fallback the heuristic searches take their first-hit guides from the
    (sigma1, sigma2) products too; the forest's products come between them and
    the Carleson rows, so the sigma pair is computed at most twice."""
    inst = gen_instance(5, depth=5, model="product", p1=2.5, p2=2.5)
    computed = _count_products(monkeypatch)
    run_instance_suite(inst, "all", pair_count=2, fallback=True)
    counts = dict(computed)
    h = (inst.forest.h1.tobytes(), inst.forest.h2.tobytes())
    sigma = (inst.sigma1.tobytes(), inst.sigma2.tobytes())
    assert set(counts) == {h, sigma}
    assert counts[h] == 1
    assert counts[sigma] <= 2


def test_carleson_rows_go_through_the_public_steps(monkeypatch):
    """`check_carleson` builds and weighs each variant's family through the public
    `build_level_sets` and `proof_coefficients`, once per variant."""
    calls = Counter()
    for name in ("build_level_sets", "proof_coefficients"):
        real = getattr(filtermax.carleson, name)
        monkeypatch.setattr(
            filtermax.carleson, name, lambda *a, _name=name, _real=real, **k: calls.update([_name]) or _real(*a, **k)
        )
    rows = run_instance_suite(gen_instance(3, depth=3), "carleson")
    assert [r.theorem for r in rows] == ["carleson_node", "carleson_exit"]
    assert calls == {"build_level_sets": 2, "proof_coefficients": 2}


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
    assert [r.theorem for r in rows if r.theorem.startswith("carleson")] == ["carleson_node", "carleson_exit"]


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
        *check_carleson(inst),
        *check_properties(inst),
    ]
    assert run_instance_suite(inst, "all", pair_count=3, fallback=mode != "exact") == rows


def test_suites_without_tail_checks_need_no_fallback():
    big = gen_instance(4, depth=5, branching=2)  # over the atom budget
    for suite in ("thm14", "sparse", "carleson", "props"):
        rows = run_instance_suite(big, suite, pair_count=1)
        assert rows and all(r.mode == "exact" for r in rows)
    for suite in ("thm11", "thm15", "all"):
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


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize(
    "gen",
    [
        {"depth": 2, "branching": 3, "model": "power:1.5", "p1": 1.5, "p2": 3.0},
        {"model": "product"},  # the rest from gen_instance's defaults
    ],
)
def test_run_ensemble_forwards_generator_keywords(jobs, gen):
    """The generator keywords reach gen_instance unchanged: the rows are those
    of one suite run per generated instance."""
    rows = run_ensemble(40, 3, suite="thm14", pair_count=2, jobs=jobs, **gen)
    want = [row for seed in (40, 41, 42) for row in run_instance_suite(gen_instance(seed, **gen), "thm14", pair_count=2)]
    assert rows == sorted(want, key=lambda r: (r.seed, r.theorem))


@pytest.mark.parametrize(
    "jobs,count,cpus,workers",
    [
        (100000, 2, 64, 2),
        (100000, 50, 4, 4),
        (3, 50, 64, 3),
        (4, 1, 64, None),
        (8, 50, None, None),
        (1, 50, 64, None),
    ],
)
def test_run_ensemble_caps_the_pool(monkeypatch, jobs, count, cpus, workers):
    """The pool gets min(jobs, count, CPUs) workers, and is not started below
    two.  A fake executor records max_workers, so no process is started."""
    started = []

    class RecordingPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, args, chunksize=1):
            return map(fn, args)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(filtermax.verify, "_ensemble_worker", lambda args: [])
    assert run_ensemble(0, count, suite="thm14", jobs=jobs) == []
    assert started == ([] if workers is None else [workers])


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
