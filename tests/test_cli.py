"""The filtermax command line: exit codes, report formats, golden values
on the worked instance, and byte determinism."""

import dataclasses
import json
import os
from pathlib import Path

import pytest

from filtermax import load_instance, verify
from filtermax.cli import main

DATA = Path(__file__).parent / "data"


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
    out = tmp_path / "x.json"
    assert run("gen", "--depth", "40", "--out", str(out)) == 2
    assert "atom budget exceeded" in capsys.readouterr().err
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


def test_constants_missing_file(capsys):
    assert run("constants", "/nonexistent/inst.json") == 3
    assert "cannot read" in capsys.readouterr().err


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
    assert "invalid instance" in capsys.readouterr().err
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
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2")
    assert run("verify", str(bad)) == 4
    bad.write_text(json.dumps(DUAL_OVERFLOW))
    assert run("verify", str(bad)) == 4
    assert "field 'sigma1'" in capsys.readouterr().err


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


def test_console_script_installed():
    import shutil
    import subprocess

    exe = shutil.which("filtermax")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run([exe, "verify", "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "--ensemble" in proc.stdout
