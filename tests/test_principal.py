"""Principal-set forests: the worked four-point example, the structural
properties P.1-P.5, doubling, sparse domination, and serialization."""

import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from filtermax import (
    DominationReport,
    FilteredSpace,
    ValidationError,
    build_principal_forest,
    dump_forest,
    forest_cover,
    forest_from_dict,
    forest_to_dict,
    load_forest,
    occupied_shells,
    shell_index,
    sparse_bound,
    sparse_domination_report,
    verify_properties,
)

H = np.array([1.0, 0.0, 0.0, 0.0])


# ---- shell indices --------------------------------------------------------------


def test_shell_index_boundaries():
    # shells are (base^(l-1), base^l]; powers land in their own shell exactly
    assert shell_index(1.0) == 0
    assert shell_index(4.0) == 1
    assert shell_index(0.25) == -1
    assert shell_index(0.0625) == -2
    assert shell_index(4.0 + 1e-9) == 2
    assert shell_index(2.0, base=2.0) == 1
    assert shell_index(1.0, base=2.0) == 0
    for k in range(-25, 26):
        assert shell_index(4.0**k) == k
        assert shell_index(2.0**k, base=2.0) == k


def test_shell_index_extreme_magnitudes():
    # the shell comes from the binary exponent, so no power of 4 can overflow
    ulp = 2.0**-52
    for k in (-500, -30, -1, 0, 1, 30, 300, 511):
        x = math.ldexp(1.0, 2 * k)  # 4^k, exact
        assert shell_index(x) == k
        assert shell_index(x * (1.0 + ulp)) == k + 1
        assert shell_index(x * (1.0 - ulp)) == k
    assert shell_index(1e308) == 512
    assert shell_index(sys.float_info.max) == 512
    assert shell_index(5e-324) == -537  # the least subnormal is 4^-537
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            shell_index(bad)
    with pytest.raises(ValueError):
        shell_index(2.0, base=3.0)


def test_forest_on_level_products_above_4_to_the_511(quad):
    """Shells come from binary exponents, so a forest whose thresholds 4^(K2+1)
    would overflow a double still builds and checks."""
    h = np.array([1e154, 1.0, 1.0, 1.0])
    forest = build_principal_forest(quad, 0, 510, np.arange(4), h, h)
    assert forest is not None
    assert [(node.k1, node.k2) for node in forest.nodes()] == [(0, 510), (2, 512)]
    assert forest.root.exit_points.tolist() == [1, 2, 3]
    props = verify_properties(forest)
    assert props.ok
    assert 0.0 < props.p5_margin < 1.0
    report = sparse_domination_report(forest)
    assert report.min_slack >= 0.0
    # the K2 = 512 node's exit point has bound inf; the tolerance scale skips it
    assert np.isinf(report.bound[0])
    assert report.scale == 16.0 * 4.0**509
    assert report.ok


def test_domination_report_scale_ignores_infinite_bounds():
    """An infinite bound entry must not make every comparison pass."""
    report = DominationReport(
        bound=np.array([np.inf, 1.0]),
        operator=np.array([0.0, 1.5]),
        operator_global=np.array([0.0, 1.5]),
        min_slack=-0.5,
        tightest_point=1,
        localization_gap=0.0,
    )
    assert not report.ok
    assert report.scale == 1.0


# ---- the worked example ----------------------------------------------------------


@pytest.fixture
def worked(quad):
    forest = build_principal_forest(quad, 0, -2, np.arange(4), H, H)
    assert forest is not None
    return forest


def test_worked_forest_structure(worked):
    root = worked.root
    assert worked.base_level == 0
    assert worked.base_k == -2
    assert root.k1 == 0
    assert root.k2 == -2
    assert root.points.tolist() == [0, 1, 2, 3]
    assert root.exit_points.tolist() == [1, 2, 3]
    assert root.generation == 1
    assert len(root.children) == 1
    child = root.children[0]
    assert child.k1 == 2
    assert child.k2 == 0
    assert child.points.tolist() == [0]
    assert child.exit_points.tolist() == [0]
    assert child.children == ()
    assert child.generation == 2
    assert worked.n_nodes == 2
    assert [n.k2 for n in worked.nodes()] == [-2, 0]


def test_worked_sparse_bound_and_domination(worked):
    assert sparse_bound(worked).tolist() == [4.0, 0.25, 0.25, 0.25]
    report = sparse_domination_report(worked)
    assert report.operator.tolist() == [1.0, 0.25, 0.0625, 0.0625]
    assert report.min_slack == 0.0
    assert report.tightest_point == 1
    assert report.localization_gap == 0.0
    assert report.ok


def test_worked_properties(worked):
    props = verify_properties(worked)
    assert props.ok
    assert props.n_nodes == 2
    assert props.p1_ok and props.p2_ok and props.p4_ok
    assert props.p3_margin == pytest.approx(0.5)  # 2 * E_0(1_{1,2,3}) - 1
    assert props.p5_margin == pytest.approx(0.0)  # tight at point 1
    assert props.doubling_ok
    assert props.max_doubling_ratio == pytest.approx(4.0 / 3.0)


def test_properties_flag_a_node_outside_its_shell(worked):
    """P.4 needs E_K1(h1) E_K1(h2) inside the node's own shell, not merely below its top."""
    shifted = replace(worked, root=replace(worked.root, k2=worked.root.k2 + 1))
    props = verify_properties(shifted)
    assert not props.p4_ok
    assert not props.ok


def test_occupied_shells_and_cover(quad):
    shells = occupied_shells(quad, 0, np.arange(4), H, H)
    assert shells == [-2]  # E_0(h)^2 = 1/16 everywhere
    forests = forest_cover(quad, 0, np.arange(4), H, H)
    assert len(forests) == 1
    assert forests[0].base_k == -2
    # the P0 sets across shells tile the points where the product is positive
    covered = np.concatenate([f.root.points for f in forests])
    assert sorted(covered.tolist()) == [0, 1, 2, 3]


def test_empty_shell_returns_none(quad):
    assert build_principal_forest(quad, 0, 5, np.arange(4), H, H) is None
    assert occupied_shells(quad, 0, np.arange(4), np.zeros(4), H) == []


def test_input_validation(quad):
    with pytest.raises(ValueError, match="nonnegative"):
        build_principal_forest(quad, 0, -2, np.arange(4), -H, H)
    with pytest.raises(ValueError, match="union of level-1 atoms"):
        build_principal_forest(quad, 1, -2, [0], H, H)


def test_restricting_omega0(quad):
    """Omega0 = right half: the root lives there and never spawns children
    (the product E_j(h1)E_j(h2) stays small on {2,3})."""
    g = np.array([0.0, 0.0, 1.0, 0.0])
    forest = build_principal_forest(quad, 1, shell_index(0.25), [2, 3], g, g)
    assert forest is not None
    assert forest.root.points.tolist() == [2, 3]
    assert forest.root.k1 == 1


# ---- serialization ----------------------------------------------------------------


def test_forest_round_trip(worked, tmp_path):
    data = forest_to_dict(worked)
    clone = forest_from_dict(worked.space, data)
    assert clone.base_k == worked.base_k
    assert clone.n_nodes == worked.n_nodes
    assert clone.root.exit_points.tolist() == worked.root.exit_points.tolist()
    path = tmp_path / "forest.json"
    dump_forest(worked, str(path))
    again = load_forest(worked.space, str(path))
    assert forest_to_dict(again) == data


def test_forest_from_dict_detects_corruption(worked):
    data = forest_to_dict(worked)
    data["root"]["k2"] = 3
    with pytest.raises(ValueError, match="root"):
        forest_from_dict(worked.space, data)


def test_load_forest_malformed_json(quad, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"base_level": 0,')
    with pytest.raises(ValidationError) as err:
        load_forest(quad, str(path))
    assert str(err.value).startswith(f"{path}:1: invalid JSON")


def test_load_forest_missing_fields(quad, tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("{}")
    with pytest.raises(ValidationError) as err:
        load_forest(quad, str(path))
    assert str(err.value).startswith(f"{path}: ")
    assert "base_level" in str(err.value)


# ---- randomized structural check ---------------------------------------------------


def test_random_forests_satisfy_all_properties():
    """A compressed version of the acceptance sweep: random towers, base
    levels, admissible start sets, and densities with occasional zeros."""
    rng = np.random.default_rng(2024)
    built = 0
    for trial in range(120):
        depth = int(rng.integers(2, 5))
        branching = int(rng.integers(2, 4))
        n = branching**depth
        if n > 32:
            continue
        masses = rng.uniform(0.5, 1.5, n)
        levels = []
        for t in range(depth + 1):
            block = branching ** (depth - t)
            levels.append([list(range(a * block, (a + 1) * block)) for a in range(branching**t)])
        space = FilteredSpace(masses, levels)
        i = int(rng.integers(0, depth))
        atoms = space.level_atoms(i)
        keep = rng.random(len(atoms)) < 0.8
        if not keep.any():
            keep[0] = True
        omega0 = np.concatenate([a for a, k in zip(atoms, keep) if k])
        h1 = np.exp(1.2 * rng.standard_normal(n)) * (rng.random(n) > 0.1)
        h2 = np.exp(1.2 * rng.standard_normal(n)) * (rng.random(n) > 0.1)
        for k in occupied_shells(space, i, omega0, h1, h2):
            forest = build_principal_forest(space, i, k, omega0, h1, h2)
            if forest is None:
                continue
            built += 1
            assert verify_properties(forest).ok
            assert sparse_domination_report(forest).ok
    assert built >= 100
