"""The filtermax command line: exit codes, report formats, golden values
on the worked instance, and byte determinism."""

import dataclasses
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from filtermax import Exponents, ValidationError, cli, compute_constant, load_instance, verify
from filtermax.cli import main
from filtermax.principal import DominationReport

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).resolve().parent.parent / "src"


def run(*argv):
    return main(list(argv))


# ---- gen ---------------------------------------------------------------------


def test_gen_writes_loadable_instance(tmp_path, capsys):
    out = tmp_path / "inst.json"
    assert run("gen", "--seed", "5", "--depth", "3", "--branching", "2", "--out", str(out)) == 0
    inst = load_instance(str(out))
    assert inst.space.n == 8
    assert inst.seed == 5
    assert "wrote" in capsys.readouterr().out


def test_gen_usage_error(tmp_path, capsys):
    """A tower past the point limit is refused with a short message, before its
    point count is ever computed in full."""
    out = tmp_path / "x.json"
    for depth, branching in (("40", "2"), ("1000000", "3")):
        assert run("gen", "--depth", depth, "--branching", branching, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert f"point limit exceeded: branching {branching} at depth {depth} gives more than 65536 points" in err
        assert len(err) < 200
        assert not out.exists()


@pytest.mark.parametrize(
    "model,flags,field",
    [
        pytest.param("lognormal:400", [], "omega1", id="lognormal:400-omega1"),
        pytest.param("power:800", [], "v", id="power:800-v"),
        # p1 near 1: the dual weight omega1^(-1/(p1 - 1)) overflows
        pytest.param("lognormal", ["--p1", "1.001"], "sigma1", id="lognormal-p1=1.001-sigma1"),
    ],
)
def test_gen_rejects_weights_that_overflow(tmp_path, capsys, model, flags, field):
    out = tmp_path / "x.json"
    assert run("gen", "--model", model, *flags, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert f"model {model!r} at seed 0: field {field!r}" in err
    assert not out.exists()


def test_a_bad_dual_weight_gets_one_message_everywhere(tmp_path):
    """`gen`, the loader and the API end in the same text for the same omegas
    with p1 = 1.001, where sigma1 underflows."""
    inst = verify.gen_instance(1)
    data = verify.instance_to_dict(inst)
    data["p1"] = 1.001
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError) as gen_error:
        verify.gen_instance(1, p1=1.001)
    with pytest.raises(ValidationError) as load_error:
        load_instance(str(path))
    with pytest.raises(ValueError) as api_error:
        compute_constant("rh", inst.space, inst.v, inst.omega1, inst.omega2, Exponents(1.001, 2.0))
    text = str(api_error.value)
    assert text.startswith("field 'sigma1' = omega1^(-1/(p1 - 1)) with p1 = 1.001 is 0.0 at point ")
    assert str(gen_error.value) == f"model 'lognormal' at seed 1: {text}"
    assert str(load_error.value) == f"{path}: {text}"


def test_gen_io_error(tmp_path, capsys):
    out = tmp_path / "no" / "dir" / "x.json"
    assert run("gen", "--out", str(out)) == 3
    assert "cannot write" in capsys.readouterr().err


# ---- constants ----------------------------------------------------------------


def test_constants_csv(tmp_path, capsys):
    assert run("constants", str(DATA / "worked4.json")) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "name,value,mode,witness"
    assert len(lines) == 6
    body = {}
    for line in lines[1:]:
        name, value, mode, *_ = line.split(",", 3)
        body[name] = (float(value), mode)
    assert set(body) == {"A", "RH", "S", "B", "Winf"}
    for value, mode in body.values():
        assert value == pytest.approx(1.0, rel=1e-9)
        assert mode == "exact"


def test_constants_all_derives_the_dual_weights_once(tmp_path, capsys, dual_calls):
    """The loader derives sigma1 and sigma2 once, and all five constants read it."""
    out = tmp_path / "inst.json"
    verify.dump_instance(verify.gen_instance(5, depth=3), str(out))
    dual_calls.clear()
    assert run("constants", str(out), "--which", "all") == 0
    assert len(dual_calls) == 2


def test_constants_json_and_selection(tmp_path):
    out = tmp_path / "c.json"
    assert run("constants", str(DATA / "worked4.json"), "--which", "rh", "--format", "json", "--out", str(out)) == 0
    payload = json.loads(out.read_text())
    assert len(payload) == 1
    assert payload[0]["name"] == "RH"
    assert payload[0]["value"] == pytest.approx(1.0)
    tail = payload[0]["witness"]["tail"]
    # on the flat instance every achievable tail attains the supremum 1.0,
    # so only the shape of the witness is pinned, not the particular tail
    assert tail and all(isinstance(pt, int) and 0 <= pt < 4 for pt in tail)


def test_constants_missing_file(tmp_path, capsys):
    assert run("constants", "/nonexistent/inst.json") == 3
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read /nonexistent/inst.json: [Errno 2] ")
    assert err.count("\n") == 1
    # an unwritable report is an I/O error too
    out = tmp_path / "no" / "c.csv"
    assert run("constants", str(DATA / "worked4.json"), "--out", str(out)) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}: [Errno 2] ")
    assert err.count("\n") == 1


# p1 near 1: the dual weight omega1^(-1/(p1 - 1)) = omega1^(-1000) overflows at point 1
DUAL_OVERFLOW = {
    "masses": [1, 1],
    "levels": [[[0, 1]], [[0], [1]]],
    "p1": 1.001,
    "p2": 2,
    "v": [1, 1],
    "omega1": [1, 1e-3],
    "omega2": [1, 1],
}


def test_constants_invalid_instance(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"masses": [1, -1], "levels": [[[0, 1]]]}')
    assert run("constants", str(bad)) == 4
    assert capsys.readouterr().err == f"error: invalid instance: {bad}: masses[1]: mass -1.0 is not strictly positive\n"
    bad.write_text(json.dumps(DUAL_OVERFLOW))
    assert run("constants", str(bad)) == 4
    assert "field 'sigma1'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "extra,field",
    [
        ({"seed": "abc"}, "seed"),
        ({"seed": 1.5}, "seed"),
        ({"seed": -4}, "seed"),
        ({"product_weight": "false"}, "product_weight"),
        ({"h1": [1, 1]}, "h1"),
        ({"v": ["1", True]}, "v"),
        ({"omega2": [1, "2.5"]}, "omega2"),
        ({"p1": "2"}, "p1"),
    ],
)
@pytest.mark.parametrize("command", ["verify", "constants"])
def test_bad_bookkeeping_fields_are_invalid_instances(tmp_path, capsys, extra, field, command):
    """Exit 4 with the path and the field named, not a traceback (exit 1)
    or a usage error (exit 2)."""
    bad = tmp_path / "bad.json"
    good = {**DUAL_OVERFLOW, "p1": 2}
    bad.write_text(json.dumps({**good, **extra}))
    assert run(command, str(bad)) == 4
    assert f"{bad}: field '{field}'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "space,where",
    [
        ({"masses": [10**400, 1]}, "masses[0]: mass does not fit in a float"),
        ({"levels": [[[0, 1]], [[0], [1, 10**30]]]}, "level 1, atom 1: point index out of range 0..1"),
    ],
)
@pytest.mark.parametrize("command", ["verify", "constants"])
def test_values_beyond_machine_range_are_invalid_instances(tmp_path, capsys, space, where, command):
    """An integer mass beyond float range or a point index beyond int64 is
    invalid instance data (exit 4), not an OverflowError (exit 1)."""
    bad = tmp_path / "bad.json"
    good = {**DUAL_OVERFLOW, "p1": 2}
    bad.write_text(json.dumps({**good, **space}))
    assert run(command, str(bad)) == 4
    assert f"{bad}: {where}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "extra,where",
    [
        ({"levels": None}, "levels: need a list of partition levels, got None"),
        ({"levels": 2}, "levels: need a list of partition levels, got 2"),
        ({"levels": True}, "levels: need a list of partition levels, got True"),
        ({"levels": [[0, 1]]}, "level 0, atom 0: need a list of point indices, got 0"),
        ({"levels": [[[0, 1]], 7]}, "level 1: need a list of atoms, got 7"),
        ({"levels": [[[0, 1]], [[0], None]]}, "level 1, atom 1: need a list of point indices, got None"),
        ({"v": {}}, "field 'v': "),
        ({"omega1": {}}, "field 'omega1': "),
        ({"h1": {"a": 1}, "h2": [1, 1]}, "field 'h1': "),
    ],
)
@pytest.mark.parametrize("command", ["verify", "constants"])
def test_malformed_shapes_are_invalid_instances(tmp_path, capsys, extra, where, command):
    """A tower level or atom that is not a list, or a function field given as
    an object, is invalid instance data (exit 4) with no report written, not a
    TypeError (exit 1, which means falsification)."""
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**DUAL_OVERFLOW, "p1": 2, **extra}))
    out = tmp_path / "report.csv"
    assert run(command, str(bad), "--out", str(out)) == 4
    assert f"{bad}: {where}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "text,reason",
    [
        (b'{"masses": [1, 1], "model": "\xff"}', "'utf-8' codec can't decode byte 0xff"),
        (b'{"masses": [1, 1], "seed": ' + b"9" * 5000 + b"}", "Exceeds the limit (4300 digits)"),
        (b'{"masses": ' + b"[" * 100000 + b"]" * 100000 + b"}", "maximum recursion depth exceeded"),
    ],
)
@pytest.mark.parametrize("command", ["verify", "constants"])
def test_unreadable_file_is_an_invalid_instance(tmp_path, capsys, text, reason, command):
    """A file that is not UTF-8, holds an integer literal past Python's digit
    limit or nests past its recursion limit is invalid instance data (exit
    4), not a traceback (exit 1) or a usage error (exit 2)."""
    bad = tmp_path / "bad.json"
    bad.write_bytes(text)
    out = tmp_path / "report.csv"
    assert run(command, str(bad), "--out", str(out)) == 4
    assert f"{bad}: invalid JSON ({reason}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["abc", "0", "-3"])
@pytest.mark.parametrize(
    "command",
    ["verify", "constants", pytest.param("verify --suite thm14 --fallback", id="verify-thm14-fallback")],
)
def test_malformed_atom_budget_is_a_usage_error(tmp_path, monkeypatch, capsys, value, command):
    """A FILTERMAX_ATOM_BUDGET that is not a positive integer: exit 2 and no
    report, not a traceback (exit 1, which means falsification).  Under
    --fallback every suite reads the budget, thm14 (no tail check) too."""
    monkeypatch.setenv("FILTERMAX_ATOM_BUDGET", value)
    out = tmp_path / "report.csv"
    assert run(*command.split(), str(DATA / "worked4.json"), "--out", str(out)) == 2
    assert "error: FILTERMAX_ATOM_BUDGET must be" in capsys.readouterr().err
    assert not out.exists()


def test_constants_infeasible_and_fallback(tmp_path, capsys):
    big = tmp_path / "big.json"
    assert run("gen", "--seed", "2", "--depth", "5", "--branching", "2", "--out", str(big)) == 0
    capsys.readouterr()
    assert run("constants", str(big), "--which", "s") == 5
    err = capsys.readouterr().err
    assert "enumeration infeasible" in err and "[s]" in err
    out = tmp_path / "c.csv"
    assert run("constants", str(big), "--which", "s", "--fallback", "--out", str(out)) == 0
    assert "lower-bound" in out.read_text()


# ---- verify -------------------------------------------------------------------


def test_verify_worked_instance_golden(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    assert run("verify", str(DATA / "worked4.json"), "--suite", "sparse", "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "theorem,seed,lhs,rhs,slack,mode"
    dom = next(line for line in lines if line.startswith("sparse_domination"))
    fields = dom.split(",")
    assert float(fields[2]) == 0.25  # operator at the tightest point
    assert float(fields[3]) == 0.25  # sparse bound there
    assert "2 checks: 2 pass, 0 indeterminate, 0 fail" in capsys.readouterr().err


def test_verify_full_suite_on_worked_instance(capsys):
    assert run("verify", str(DATA / "worked4.json"), "--suite", "all") == 0
    err = capsys.readouterr().err
    assert "0 fail" in err and "0 indeterminate" in err


@pytest.mark.parametrize("command", ["gen", "verify"])
def test_help_lists_the_generator_flags(capsys, command):
    """gen and verify take the same generator flags, with the same help."""
    with pytest.raises(SystemExit) as info:
        run(command, "--help")
    assert info.value.code == 0
    out = " ".join(capsys.readouterr().out.split())  # whatever the terminal width
    assert "--model MODEL lognormal[:s] | power[:a] | product[:s]" in out
    for flag in ("--depth DEPTH", "--branching BRANCHING", "--p1 P1", "--p2 P2"):
        assert flag in out


def test_repeated_main_calls_write_the_same_bytes(tmp_path, capsys):
    """`main` builds its parser once per process: a usage error (exit 2, from
    argparse or from a command), --help (SystemExit 0) or another command's
    flags leave nothing behind, so a later call takes its defaults and writes
    the same bytes as before."""
    inst = tmp_path / "inst.json"
    assert run("gen", "--seed", "3", "--depth", "2", "--branching", "3", "--out", str(inst)) == 0
    calls = [
        ("constants", str(inst), "--format", "json"),
        ("constants", str(inst), "--which", "winf", "--mode", "heuristic"),
        ("verify", str(inst), "--suite", "thm14", "--pairs", "2"),
    ]
    first = []
    for argv in calls:
        capsys.readouterr()
        assert run(*argv) in (0, 1)
        first.append(capsys.readouterr().out)
    with pytest.raises(SystemExit) as info:
        run("verify", str(inst), "--suite", "nope")
    assert info.value.code == 2
    assert run("gen", "--depth", "40", "--out", str(tmp_path / "x.json")) == 2
    with pytest.raises(SystemExit) as info:
        run("constants", "--help")
    assert info.value.code == 0
    for argv, want in zip(calls[::-1], first[::-1]):
        capsys.readouterr()
        assert run(*argv) in (0, 1)
        assert capsys.readouterr().out == want


def test_verify_usage_errors(tmp_path, capsys):
    assert run("verify") == 2
    assert run("verify", str(DATA / "worked4.json"), "--ensemble", "1", "2") == 2
    assert run("verify", "--ensemble", "1", "0") == 2


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--pairs", "0"], "--pairs must be at least 1"),
        (["--pairs", "-3"], "--pairs must be at least 1"),
        (["--tol", "-1"], "--tol must be finite and non-negative"),
        (["--tol", "-0.0001"], "--tol must be finite and non-negative"),
        (["--tol", "nan"], "--tol must be finite and non-negative"),
        (["--tol", "inf"], "--tol must be finite and non-negative"),
        (["--jobs", "0"], "--jobs must be at least 1"),
        (["--jobs", "-2"], "--jobs must be at least 1"),
    ],
)
@pytest.mark.parametrize("source", ["ensemble", "file"])
def test_verify_rejects_option_ranges(tmp_path, monkeypatch, capsys, flags, message, source):
    """Out-of-range --pairs and --tol are usage errors: exit 2, no report and
    no replay file, rather than a falsification (exit 1)."""
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "rows.csv"
    target = ["--ensemble", "7", "2"] if source == "ensemble" else [str(DATA / "worked4.json")]
    assert run("verify", *target, "--suite", "props", *flags, "--out", str(out)) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()
    assert list(tmp_path.glob("replay_*.json")) == []


def test_verify_accepts_option_bounds(tmp_path):
    out = tmp_path / "rows.csv"
    flags = ["--suite", "thm14", "--pairs", "1", "--tol", "0", "--out", str(out)]
    assert run("verify", str(DATA / "worked4.json"), *flags) == 0
    assert out.read_text().count("thm14_") == 2


def test_verify_missing_and_invalid(tmp_path, capsys):
    assert run("verify", "/nonexistent.json") == 3
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read /nonexistent.json: [Errno 2] ")
    assert err.count("\n") == 1
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2")
    assert run("verify", str(bad)) == 4
    assert capsys.readouterr().err.startswith(f"error: invalid instance: {bad}:1: invalid JSON (")
    # an unwritable report exits 3 before the summary line
    out = tmp_path / "no" / "rows.csv"
    assert run("verify", str(DATA / "worked4.json"), "--suite", "props", "--out", str(out)) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}: [Errno 2] ")
    assert err.count("\n") == 1
    bad.write_text(json.dumps(DUAL_OVERFLOW))
    assert run("verify", str(bad)) == 4
    assert "field 'sigma1'" in capsys.readouterr().err


@pytest.mark.parametrize("suite", ["sparse", "carleson", "all"])
def test_verify_rejects_vanishing_test_functions(tmp_path, capsys, suite):
    """h1 = h2 = 0 leaves no occupied shell for the default forest: invalid
    instance data (exit 4) naming the file and both fields, not a usage error."""
    data = json.loads((DATA / "worked4.json").read_text())
    bad = tmp_path / "zero_h.json"
    bad.write_text(json.dumps({**data, "h1": [0.0] * 4, "h2": [0.0] * 4}))
    assert run("verify", str(bad), "--suite", suite) == 4
    assert f"{bad}: fields 'h1' and 'h2'" in capsys.readouterr().err


DEGENERATE = [
    ({"h1": [1e200, 1, 1, 1], "h2": [1e200, 1, 1, 1]}, "fields 'h1' and 'h2': E_0(h1) E_0(h2) overflows at point 0"),
    ({"h1": [1e154] * 4, "h2": [1e154] * 4}, "fields 'h1' and 'h2': E_0(h1) E_0(h2) exceeds 4^510 at point 0"),
    ({"masses": [1e-320, 1, 1, 1]}, "masses[0]: mass 1e-320 is subnormal"),
    ({"masses": [1e308, 1e308, 1, 1]}, "masses: total mass overflows a float"),
]


@pytest.mark.parametrize("extra, message", DEGENERATE, ids=["h_products", "h_shells", "subnormal_mass", "total_mass"])
def test_degenerate_instances_fail_at_load(tmp_path, capsys, extra, message):
    """Level products past float range or past 4^510 (where the sparse bound
    overflows), a subnormal mass and an infinite total mass on the four-point
    dyadic tower: invalid instance data (exit 4) naming
    the fields or the mass, for every command and suite, with no warning."""
    data = json.loads((DATA / "worked4.json").read_text())
    bad = tmp_path / "degenerate.json"
    bad.write_text(json.dumps({**data, **extra}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for argv in (("constants",), *(("verify", "--suite", suite) for suite in verify.SUITES)):
            assert run(argv[0], str(bad), *argv[1:]) == 4, argv
            assert f"{bad}: {message}" in capsys.readouterr().err


EXTREME_WEIGHTS = [
    (1e200, None, "E_0(sigma1) E_0(sigma2) = 0.0 at point 0, not positive finite"),
    (1e-200, None, "E_0(sigma1) E_0(sigma2) = inf at point 0, not positive finite"),
    (1e153, 100.0, "essinf of E^sigma1(h1/sigma1) E^sigma2(h2/sigma2) at level 0, point 0, is inf"),
]


@pytest.mark.parametrize(
    "omega, h, message", EXTREME_WEIGHTS, ids=["sigma_products_underflow", "sigma_products_overflow", "lhs_overflows"]
)
def test_carleson_rows_refuse_products_past_float_range(tmp_path, capsys, omega, h, message):
    """omega1 = omega2 = 1e200 underflows E_0(sigma1) E_0(sigma2) = 1e-400 to 0;
    1e-200 overflows it; 1e153 with h1 = h2 = 100 keeps it a normal float
    (1e-306) but overflows the embedding's weighted means' product (1e310).  Each
    is a check refusing the data (exit 2) with the level and the point, with no
    warning, not a `fail` verdict on a nan or inf lhs."""
    data = verify.instance_to_dict(verify.gen_instance(3, depth=3))
    n = len(data["masses"])
    data.update(omega1=[omega] * n, omega2=[omega] * n, v=[1.0] * n)
    if h is not None:
        data.update(h1=[h] * n, h2=[h] * n)
    path = tmp_path / "extreme.json"
    path.write_text(json.dumps(data))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("verify", str(path), "--suite", "carleson") == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def _assert_error(err, template, value=None):
    """err is "error: <template>" and a newline, the template's one `{}` (if any)
    a float within 1e-9 of `value`: values derived through numpy's exp and power
    may differ in their last bits between CPUs."""
    before, _, after = template.partition("{}")
    assert err.startswith(f"error: {before}") and err.endswith(f"{after}\n"), err
    if value is not None:
        assert float(err[len(f"error: {before}") : -len(after) - 1]) == pytest.approx(value, rel=1e-9)


ESSINF = "essinf of E^sigma1(h1/sigma1) E^sigma2(h2/sigma2) at level 0, point 0"


@pytest.mark.parametrize(
    "omega, v, h, template, value",
    [
        (1e150, 1.0, 1e25, f"{ESSINF}: {{}} ** 1.25 overflows a float", 1e250),
        (1e-200, 1.0, None, "coefficient of (E_0(sigma1) E_0(sigma2))^p v at level 0, point 0, is inf", None),
        (1e-50, 1.0, 1e153, f"{ESSINF}: the lhs passes float range at this entry", None),
        (1e-50, 1e-300, 1e153, "rhs A (p1' p2')^p ||h1||^p ||h2||^p over the root is inf, past float range", None),
    ],
    ids=["lhs_power_overflows", "coefficient_overflows", "lhs_term_overflows", "rhs_overflows"],
)
def test_carleson_rows_refuse_powers_past_float_range(tmp_path, capsys, omega, v, h, template, value):
    """With p1 = p2 = 2.5 (p = 1.25): omega = 1e150 and h = 1e25 give a finite
    essinf of 1e250 whose p-th power overflows; omega = 1e-200 gives sigma
    products of 1e266.7, whose p-th power, a proof coefficient, overflows;
    omega = 1e-50 and h = 1e153 give an essinf power of 1e307.5 whose product
    with its coefficient overflows, and with v = 1e-300 (tiny coefficients) a
    finite lhs but an infinite ||h_s||_{L^p_s(omega_s)}.  Each is refused (exit
    2), an entry's with its level and point, with no warning: not an
    OverflowError (exit 1), an unlocated refusal or a pass on an infinite side."""
    data = verify.instance_to_dict(verify.gen_instance(3, depth=3, p1=2.5, p2=2.5))
    n = len(data["masses"])
    data.update(omega1=[omega] * n, omega2=[omega] * n, v=[v] * n)
    if h is not None:
        data.update(h1=[h] * n, h2=[h] * n)
    path = tmp_path / "extreme.json"
    path.write_text(json.dumps(data))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("verify", str(path), "--suite", "carleson") == 2
    _assert_error(capsys.readouterr().err, template, value)


POWER = "** 1.3333333333333333 overflows a float"
BOUND_ROWS_PAST_RANGE = [  # (p1 = p2, v, command, error template, its float)
    (1.5, 1e300, ("verify", "--suite", "thm11"), f"thm11_converse's [A]^(1/p): {{}} {POWER}", 1.5291133995404e300),
    (1.5, 1e300, ("verify", "--suite", "thm12"), "constant S is inf at tail [0], past float range", None),
    (1.5, 1e300, ("verify", "--suite", "thm14"), f"thm14_bound's [B]^(1/p): {{}} {POWER}", 1.7639193930807543e300),
    (1.5, 1e300, ("verify", "--suite", "thm15"), f"thm15_bound's ([A] [Winf])^(1/p): {{}} {POWER}",
     2.82252275517119e300),
    (1.5, 1e300, ("constants",), "constant S is inf at tail [0], past float range", None),
    (2.0, 1e307, ("verify", "--suite", "thm14"), "thm14_bound: lhs {} and rhs inf are not both finite",
     2.033228015209227e307),
]


@pytest.mark.parametrize(
    "p_s, v, argv, template, value",
    BOUND_ROWS_PAST_RANGE,
    ids=["thm11", "thm12", "thm14", "thm15", "constants", "thm14_rhs_product"],
)
def test_bound_rows_refuse_values_past_float_range(tmp_path, capsys, p_s, v, argv, template, value):
    """p1 = p2 = 1.5 gives p = 0.75, so every root ** (1/p) raises to a power
    above 1; with v = 1e300 the bound constants and [S] pass float range.  At
    p = 1, v = 1e307 keeps [B] finite but its bound constant 32 (2e) p1' p2' [B]
    overflows.  Each is refused (exit 2) in one line naming the row, or the
    constant and its witness, with no warning: not an OverflowError (exit 1), a
    pass on an infinite rhs or an exact inf."""
    data = verify.instance_to_dict(verify.gen_instance(3, depth=3, p1=p_s, p2=p_s))
    data["v"] = [v] * len(data["v"])
    path = tmp_path / "big_v.json"
    path.write_text(json.dumps(data))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv[0], str(path), *argv[1:]) == 2
    _assert_error(capsys.readouterr().err, template, value)


S_PAST_RANGE = f"constant S is inf at tail {list(range(16))}, past float range"


@pytest.mark.parametrize(
    "argv, template, value",
    [
        (("constants", "--which", "s"), S_PAST_RANGE, None),
        (("constants", "--which", "s", "--mode", "heuristic"), S_PAST_RANGE, None),
        (("verify", "--suite", "all"), "thm11_converse: lhs {} and rhs inf are not both finite", 6.109278244120145e133),
    ],
    ids=["exact_s", "heuristic_s", "suite_all"],
)
def test_sigma_products_past_float_range_are_refused_without_a_warning(tmp_path, capsys, argv, template, value):
    """16 leaves with p1 = p2 = 1.5 and omega1 = omega2 = 1e-100 give sigma =
    1e200, so E_j(sigma1) E_j(sigma2) overflows at every level.  Exact S is inf on
    the full tail only: every other tail leaves out a leaf under the overflowing
    level-0 mean, which makes its row nan, so the sweep scores those blocks on
    every leaf again (a block on its set leaves only would name tail [0, ..., 9]).
    Each command is refused (exit 2) in one line, with no warning."""
    data = verify.instance_to_dict(verify.gen_instance(3, depth=2, branching=4, p1=1.5, p2=1.5))
    n = len(data["masses"])
    data.update(omega1=[1e-100] * n, omega2=[1e-100] * n)
    path = tmp_path / "big_sigma.json"
    path.write_text(json.dumps(data))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv[0], str(path), *argv[1:]) == 2
    _assert_error(capsys.readouterr().err, template, value)


@pytest.mark.parametrize(
    "suite, message",
    [
        ("thm11", "thm11_converse: the [A] witness atom B has ||1_B||_{p1,sigma1} ||1_B||_{p2,sigma2} = 0"),
        ("thm12", "thm12: the [S] witness tail E has ||1_E||_{p1,sigma1} ||1_E||_{p2,sigma2} = 0"),
    ],
    ids=["thm11", "thm12"],
)
def test_witness_indicator_pairs_with_vanishing_norms_are_refused(tmp_path, capsys, suite, message):
    """p1 = p2 = 1.5 and omega = 1e161 give sigma = 1e-322, so sigma times a
    point's mass underflows to 0 and the witness set's indicator pair has no
    norm ratio (`norm_ratio` is None): a refusal (exit 2) naming the row, not a
    ZeroDivisionError or TypeError (exit 1)."""
    data = verify.instance_to_dict(verify.gen_instance(3, depth=3, p1=1.5, p2=1.5))
    n = len(data["masses"])
    data.update(omega1=[1e161] * n, omega2=[1e161] * n, v=[1.0] * n)
    path = tmp_path / "tiny_sigma.json"
    path.write_text(json.dumps(data))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("verify", str(path), "--suite", suite) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_verify_infeasible_suggests_fallback(tmp_path, capsys):
    big = tmp_path / "big.json"
    run("gen", "--seed", "2", "--depth", "5", "--branching", "2", "--out", str(big))
    capsys.readouterr()
    assert run("verify", str(big), "--suite", "thm12") == 5
    assert "--fallback" in capsys.readouterr().err
    out = tmp_path / "rows.csv"
    assert run("verify", str(big), "--suite", "thm12", "--fallback", "--out", str(out)) == 0


def test_verify_ensemble_byte_determinism(tmp_path):
    """Identical flags give identical bytes, with any --jobs value."""
    outs = []
    for name, jobs in (("a.csv", "1"), ("b.csv", "1"), ("c.csv", "3")):
        out = tmp_path / name
        code = run(
            "verify", "--ensemble", "42", "5", "--suite", "props", "--out", str(out), "--jobs", jobs
        )
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_verify_jobs_beyond_the_count(tmp_path):
    """--jobs 3 on two instances starts at most two workers and writes the
    bytes of --jobs 1."""
    outs = []
    for jobs in ("1", "3"):
        out = tmp_path / f"jobs{jobs}.csv"
        assert run("verify", "--ensemble", "3", "2", "--suite", "thm14", "--jobs", jobs, "--out", str(out)) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_verify_json_format(tmp_path):
    out = tmp_path / "rows.json"
    assert run("verify", str(DATA / "worked4.json"), "--suite", "props", "--format", "json", "--out", str(out)) == 0
    payload = json.loads(out.read_text())
    assert all(p["status"] == "pass" for p in payload)


def _break_first_row(monkeypatch, check):
    """Make the first row of verify.<check> exceed its rhs, a genuine falsification."""
    real = getattr(verify, check)

    def broken(*args, **kwargs):
        rows = real(*args, **kwargs)
        rows = rows if isinstance(rows, list) else [rows]
        return [dataclasses.replace(rows[0], lhs=rows[0].rhs + 1.0), *rows[1:]]

    monkeypatch.setattr(verify, check, broken)


def test_verify_falsification_writes_replay(tmp_path, monkeypatch, capsys):
    """A check whose lhs exceeds its rhs exercises the falsification path:
    exit 1 plus a replay instance."""
    monkeypatch.chdir(tmp_path)
    _break_first_row(monkeypatch, "check_properties")
    _break_first_row(monkeypatch, "check_sparse")
    out = tmp_path / "rows.csv"
    code = run("verify", "--ensemble", "7", "2", "--suite", "props", "--out", str(out))
    assert code == 1
    err = capsys.readouterr().err
    assert "falsified" in err
    replays = list(tmp_path.glob("replay_*.json"))
    assert len(replays) == 1
    replayed = load_instance(str(replays[0]))
    assert replayed.seed in (7, 8)
    # the single-instance path reports without a replay file
    code = run("verify", str(DATA / "worked4.json"), "--suite", "sparse")
    assert code == 1
    assert "falsified" in capsys.readouterr().err
    assert sorted(tmp_path.glob("replay_*.json")) == replays


def test_verify_tol_keeps_the_sparse_rows_own_rule(monkeypatch, capsys):
    """--tol replaces the default tolerance only.  sparse_domination fixes its
    own (none, as `DominationReport.ok`), so a bound of 1e6 exceeded by 5e-4
    fails under every --tol, though it is within 1e-9 of the bound.  At the
    default --tol no row is copied, and the report has the same bytes."""
    bound = np.full(4, 1e6)
    operator = bound.copy()
    operator[0] += 5e-4
    report = DominationReport(
        bound=bound, operator=operator, operator_global=operator, min_slack=-5e-4, tightest_point=0, localization_gap=0.0
    )
    assert not report.ok
    monkeypatch.setattr(verify, "sparse_domination_report", lambda forest: report)
    copies = []
    monkeypatch.setattr(cli, "replace", lambda row, **changes: copies.append(row) or dataclasses.replace(row, **changes))
    reports = []
    for tol in ([], ["--tol", "1e-3"], ["--tol", "0"]):
        copies.clear()
        assert run("verify", str(DATA / "worked4.json"), "--suite", "sparse", "--format", "json", *tol) == 1, tol
        out, err = capsys.readouterr()
        assert "2 checks: 1 pass, 0 indeterminate, 1 fail" in err
        assert "falsified: sparse_domination" in err
        assert [row.theorem for row in copies] == ([] if not tol else ["sparse_properties"])
        reports.append(out)
    assert reports[0] == reports[1] == reports[2]
    assert [(r["theorem"], r["status"]) for r in json.loads(reports[0])] == [
        ("sparse_domination", "fail"), ("sparse_properties", "pass")
    ]


def test_report_bytes_do_not_depend_on_the_openblas_kernel(tmp_path):
    """Heuristic constants and a verify report are the same bytes on OpenBLAS's
    default kernel and on Sandybridge (no FMA): no reported number goes
    through BLAS."""

    def fm(*argv, core=None):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        if core is not None:
            env["OPENBLAS_CORETYPE"] = core
        proc = subprocess.run(
            [sys.executable, "-m", "filtermax.cli", *argv], cwd=tmp_path, env=env, capture_output=True, timeout=300
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    inst = str(tmp_path / "inst.json")
    fm("gen", "--seed", "11", "--depth", "2", "--branching", "4", "--model", "lognormal", "--p1", "2.5", "--p2", "1.7",
       "--out", inst)
    for argv in (
        ["constants", inst, "--mode", "heuristic", "--format", "json"],
        ["verify", "--ensemble", "9", "6", "--depth", "2", "--branching", "4"],
    ):
        assert fm(*argv) == fm(*argv, core="Sandybridge"), argv


def test_console_script_installed():
    import shutil

    exe = shutil.which("filtermax")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run([exe, "verify", "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "--ensemble" in proc.stdout
