"""Core space machinery: validation, conditional expectations, exponents,
JSON round trips."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from filtermax import (
    Exponents,
    FilteredSpace,
    ValidationError,
    as_fn,
    cond_exp,
    integrate,
    level_products,
    space_from_dict,
    space_to_dict,
    validate,
    weighted_cond_exp,
)
from filtermax.space import Violation


# ---- validate -----------------------------------------------------------------


def test_validate_accepts_good_data(quad):
    report = validate([0.25] * 4, [[[0, 1, 2, 3]], [[0, 1], [2, 3]]])
    assert report.ok
    assert report.violations == ()


def test_validate_rejects_nonpositive_mass():
    report = validate([1.0, -1.0], [[[0, 1]]])
    assert not report.ok
    text = str(report)
    assert "masses[1]" in text
    assert "-1.0" in text
    assert "np.float64" not in text  # plain float repr in messages


def test_validate_rejects_nonfinite_mass():
    report = validate([1.0, float("nan")], [[[0, 1]]])
    assert not report.ok
    assert "not finite" in str(report)


def test_validate_rejects_subnormal_masses_and_an_overflowing_total():
    """A subnormal mass loses bits in every mean it enters, and an infinite total
    mass leaves no finite average; both are named at load, the smallest normal
    mass passes."""
    levels = [[[0, 1, 2, 3]], [[0, 1], [2, 3]], [[0], [1], [2], [3]]]
    report = validate([1.0, 1e-320, 1.0, 1.0], levels)
    assert str(report) == "masses[1]: mass 1e-320 is subnormal (below 2.2250738585072014e-308)"
    assert validate([np.finfo(float).tiny, 1.0, 1.0, 1.0], levels).ok
    assert validate([1e308, 1e308, 1.0, 1.0], levels).violations == (
        Violation("masses", "total mass overflows a float"),
    )
    with pytest.raises(ValidationError, match=r"masses\[0\]: mass 5e-324 is subnormal"):
        FilteredSpace([5e-324, 1.0], [[[0, 1]]])


def test_validate_rejects_bad_partitions():
    # point 1 missing from the level
    report = validate([1.0, 1.0], [[[0]]])
    assert not report.ok
    assert "missing" in str(report)
    # point 0 covered twice
    report = validate([1.0, 1.0], [[[0], [0, 1]]])
    assert not report.ok
    assert "twice" in str(report) or "repeated" in str(report)
    # out-of-range index
    report = validate([1.0, 1.0], [[[0, 1, 5]]])
    assert not report.ok
    assert "out of range" in str(report)
    # empty atom
    report = validate([1.0, 1.0], [[[0, 1], []]])
    assert not report.ok
    assert "empty atom" in str(report)


@pytest.mark.parametrize(
    "masses,levels,where,message",
    [
        ([0.25] * 4, [[[0, 1, 2, 3]], [[0.9, 1], [2, 3.7]]], "level 1, atom 0", "point index 0.9 is not an integer"),
        ([0.25] * 4, [[[0, 1, 2, 3]], [[0, 1], [2, 3.7]]], "level 1, atom 1", "point index 3.7 is not an integer"),
        ([0.25] * 4, [[[0, 1, 2, 3]], [[0, "1"], [2, 3]]], "level 1, atom 0", "point index '1' is not an integer"),
        ([0.25] * 4, [[[0, True, 2, 3]]], "level 0, atom 0", "point index True is not an integer"),
        ([0.25] * 4, [[[0, 1, 2, float("nan")]]], "level 0, atom 0", "point index nan is not an integer"),
        ([0.25] * 4, [[[0, 1, 2, None]]], "level 0, atom 0", "point index None is not an integer"),
        ([0.25, "0.25", 0.25, 0.25], [[[0, 1, 2, 3]]], "masses[1]", "mass '0.25' is not a number"),
        ([True, 0.25, 0.25, 0.25], [[[0, 1, 2, 3]]], "masses[0]", "mass True is not a number"),
        ([0.25, 0.25, None, 0.25], [[[0, 1, 2, 3]]], "masses[2]", "mass None is not a number"),
        (np.array([True, False]), [[[0, 1]]], "masses[0]", "mass True is not a number"),
    ],
)
def test_validate_rejects_values_that_are_not_numbers(masses, levels, where, message):
    report = validate(masses, levels)
    assert str(report) == f"{where}: {message}"
    with pytest.raises(ValidationError, match="not a"):
        FilteredSpace(masses, levels)


@pytest.mark.parametrize(
    "masses,levels,where,message",
    [
        ([10**400, 1], [[[0, 1]]], "masses[0]", "mass does not fit in a float"),
        ([1, 1, -(10**400)], [[[0, 1, 2]]], "masses[2]", "mass does not fit in a float"),
        ([1, 1], [[[0, 1]], [[0], [1, 10**30]]], "level 1, atom 1", "point index out of range 0..1"),
        ([1, 1], [[[0, 1]], [[0, 1e30], [1]]], "level 1, atom 0", "point index out of range 0..1"),
    ],
)
def test_validate_reports_values_beyond_machine_range(masses, levels, where, message):
    """A mass beyond float range or an index beyond int64 is a violation, not an OverflowError."""
    report = validate(masses, levels)
    assert str(report) == f"{where}: {message}"
    with pytest.raises(ValidationError, match=message):
        FilteredSpace(masses, levels)


@pytest.mark.parametrize(
    "levels,message",
    [
        (None, "levels: need a list of partition levels, got None"),
        (3, "levels: need a list of partition levels, got 3"),
        (True, "levels: need a list of partition levels, got True"),
        ([[0, 1, 2, 3]], "level 0, atom 0: need a list of point indices, got 0"),
        ([[[0, 1, 2, 3]], 7], "level 1: need a list of atoms, got 7"),
        ([[[0, 1, 2, 3]], None], "level 1: need a list of atoms, got None"),
        ([False, [[0, 1, 2, 3]]], "level 0: need a list of atoms, got False"),
        ([[[0, 1, 2, 3]], [[0, 1], None]], "level 1, atom 1: need a list of point indices, got None"),
        ([[[0, 1, 2, 3]], [True, [2, 3]]], "level 1, atom 0: need a list of point indices, got True"),
        # a level that is a list but holds no atoms misses every point
        ([[[0, 1, 2, 3]], []], "level 1: point 0 is missing from the partition"),
    ],
)
def test_validate_rejects_levels_and_atoms_that_are_not_lists(levels, message):
    """A tower whose levels, levels or atoms are not lists is a violation naming
    where, not a TypeError."""
    assert str(validate([0.25] * 4, levels)) == message
    with pytest.raises(ValidationError) as err:
        FilteredSpace([0.25] * 4, levels)
    assert str(err.value) == message


def test_validate_reports_every_faulty_atom_in_order():
    levels = [[[0, 1, 2, 3]], [[], [0, 9], [1, 1], [2, 3], [-1, -1]], [[3, 2, 1, 0]], [[0, 2], [1, 3]]]
    assert str(validate([0.25] * 4, levels)) == (
        "level 1, atom 0: empty atom; level 1, atom 1: point index out of range 0..3; "
        "level 1, atom 2: repeated point inside atom; level 1, atom 4: point index out of range 0..3"
    )
    levels = [[[0, 1], [2, 3]], [[0, 1, 2], [3]], [[3, 0], [1], [2]]]
    assert str(validate([0.25] * 4, levels)) == (
        "level 1, atom 0: atom [0, 1, 2] straddles more than one atom of level 0; "
        "level 2, atom 0: atom [0, 3] straddles more than one atom of level 1"
    )


def test_the_space_keeps_the_tower_validate_read(mixed6):
    """Atoms come sorted and read-only, labels and parents agree with them."""
    space = FilteredSpace(mixed6.masses, [[[5, 4, 3, 2, 1, 0]], [[1, 0], [4, 2, 3], [5]], [[i] for i in range(6)]])
    assert [[a.tolist() for a in level] for level in space.atoms] == [
        [a.tolist() for a in level] for level in mixed6.atoms
    ]
    for t, level in enumerate(space.atoms):
        for a_idx, atom in enumerate(level):
            assert not atom.flags.writeable
            assert (space.atom_of[t][atom] == a_idx).all()
            if t:
                assert (space.atom_of[t - 1][atom] == space.parents[t][a_idx]).all()
    assert space.parents[1].tolist() == [0, 0, 0] and space.parents[2].tolist() == [0, 0, 1, 1, 1, 2]
    for arr in (space.masses, *space.atom_of, *space.parents, *space.atom_mass):
        assert not arr.flags.writeable


def test_validate_accepts_integer_valued_numbers():
    masses = np.array([1, 2, 1, 2])  # integer masses
    space = FilteredSpace(masses, [[[0, 1, 2, 3]], [[0, np.int64(1)], [2.0, 3]]])
    assert [a.tolist() for a in space.atoms[1]] == [[0, 1], [2, 3]]
    assert space.masses.tolist() == [1.0, 2.0, 1.0, 2.0]


def test_validate_rejects_non_refining_tower():
    report = validate([1.0] * 4, [[[0, 1], [2, 3]], [[0, 2], [1], [3]]])
    assert not report.ok
    assert "straddles" in str(report)


def test_constructor_raises_validation_error():
    with pytest.raises(ValidationError):
        FilteredSpace([1.0, 1.0], [[[0]]])
    with pytest.raises(ValidationError):
        FilteredSpace([], [])


# ---- structure ----------------------------------------------------------------


def test_structure_lookups(quad):
    assert quad.n == 4
    assert quad.n_levels == 3
    assert quad.last_level == 2
    assert quad.total_mass == 1.0
    assert [a.tolist() for a in quad.level_atoms(1)] == [[0, 1], [2, 3]]
    assert quad.atom_containing(1, 2).tolist() == [2, 3]
    assert quad.children(0, 0) == [0, 1]
    assert quad.children(1, 1) == [2, 3]
    assert quad.children(2, 0) == []
    assert quad.atom_count() == 1 + 2 + 4
    assert quad.atom_count(from_level=1) == 2 + 4
    with pytest.raises(ValueError):
        quad.level_atoms(3)


def test_subsets_and_measure(quad):
    assert quad.as_subset([2, 0]).tolist() == [0, 2]
    mask = np.array([True, False, True, False])
    assert quad.as_subset(mask).tolist() == [0, 2]
    assert quad.indicator([1]).tolist() == [0.0, 1.0, 0.0, 0.0]
    assert quad.measure([0, 1]) == 0.5
    assert quad.is_level_measurable(1, [0, 1])
    assert not quad.is_level_measurable(1, [0])
    assert quad.is_level_measurable(2, [0])
    with pytest.raises(ValueError):
        quad.as_subset(np.array([True, False]))


def test_subsets_refuse_points_out_of_range():
    space = FilteredSpace(np.ones(8), [[list(range(8))], [[x] for x in range(8)]])
    with pytest.raises(ValueError, match=r"^point index out of range 0\.\.7$"):
        space.as_subset([0, 99])


def test_is_level_measurable_checks_its_level(quad):
    for level in (-1, -3, 3):
        with pytest.raises(ValueError, match=rf"^level {level} outside 0\.\.2$"):
            quad.is_level_measurable(level, [0])


def test_as_fn_shapes(quad):
    with pytest.raises(ValueError, match=r"shape \(4,\)"):
        as_fn(quad, 2.0)
    assert as_fn(quad, [1, 2, 3, 4]).dtype == float
    with pytest.raises(ValueError):
        as_fn(quad, [1.0, 2.0])


# ---- conditional expectation ---------------------------------------------------


def test_cond_exp_hand_values(quad):
    f = np.array([1.0, 0.0, 0.0, 0.0])
    assert cond_exp(quad, f, 0).tolist() == [0.25] * 4
    assert cond_exp(quad, f, 1).tolist() == [0.5, 0.5, 0.0, 0.0]
    assert cond_exp(quad, f, 2).tolist() == [1.0, 0.0, 0.0, 0.0]


def test_cond_exp_weighted_masses(mixed6):
    f = np.arange(6, dtype=float)
    e1 = cond_exp(mixed6, f, 1)
    # atom {0,1}: (0*0.1 + 1*0.2) / 0.3
    assert e1[0] == pytest.approx(0.2 / 0.3)
    # atom {2,3,4}: (2*0.3 + 3*0.15 + 4*0.15) / 0.6
    assert e1[2] == pytest.approx((0.6 + 0.45 + 0.6) / 0.6)
    assert e1[5] == 5.0


def test_cond_exp_preserves_integral(mixed6):
    rng = np.random.default_rng(7)
    f = rng.standard_normal(6)
    for level in range(mixed6.n_levels):
        assert integrate(mixed6, cond_exp(mixed6, f, level)) == pytest.approx(
            integrate(mixed6, f)
        )


def test_integrate_subset(quad):
    f = np.array([1.0, 2.0, 3.0, 4.0])
    assert integrate(quad, f) == pytest.approx(2.5)
    assert integrate(quad, f, subset=[2, 3]) == pytest.approx(1.75)


def test_integrate_is_numpys_fixed_order_sum():
    """integrate sums the products f * mu with numpy's pairwise sum, whose order
    is fixed, not with a BLAS dot, whose order depends on the kernel."""
    n = 300
    space = FilteredSpace(np.linspace(0.5, 1.5, n), [[list(range(n))], [[x] for x in range(n)]])
    f = np.random.default_rng(3).standard_normal(n)
    assert integrate(space, f) == float((f * space.masses).sum())
    subset = np.arange(0, n, 3)
    assert integrate(space, f, subset=subset) == float((f[subset] * space.masses[subset]).sum())


def test_weighted_cond_exp_hand_values(quad):
    f = np.array([1.0, 0.0, 0.0, 0.0])
    sigma = np.array([3.0, 1.0, 1.0, 1.0])
    assert weighted_cond_exp(quad, f, sigma, 1).tolist() == [0.75, 0.75, 0.0, 0.0]
    # sigma == 1 reduces to the plain conditional expectation
    ones = np.ones(4)
    for level in range(3):
        assert np.array_equal(
            weighted_cond_exp(quad, f, ones, level), cond_exp(quad, f, level)
        )
    with pytest.raises(ValueError):
        weighted_cond_exp(quad, f, np.array([0.0, 1.0, 1.0, 1.0]), 1)


@st.composite
def random_tower(draw):
    """A small random refining tower with positive masses."""
    n = draw(st.integers(min_value=1, max_value=8))
    masses = draw(
        st.lists(
            st.floats(min_value=0.01, max_value=10.0, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    depth = draw(st.integers(min_value=1, max_value=3))
    levels = [[list(range(n))]]
    for _ in range(depth):
        prev = levels[-1]
        nxt = []
        for atom in prev:
            if len(atom) > 1 and draw(st.booleans()):
                cut = draw(st.integers(min_value=1, max_value=len(atom) - 1))
                nxt.extend([atom[:cut], atom[cut:]])
            else:
                nxt.append(atom)
        levels.append(nxt)
    return FilteredSpace(masses, levels)


@settings(max_examples=50, deadline=None)
@given(random_tower(), st.integers(min_value=0, max_value=100))
def test_tower_rule_random(space, seed):
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(space.n)
    for i in range(space.n_levels):
        for j in range(space.n_levels):
            nested = cond_exp(space, cond_exp(space, f, j), i)
            flat = cond_exp(space, f, min(i, j))
            assert np.allclose(nested, flat, rtol=1e-12, atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(random_tower())
def test_cond_exp_of_constant_is_constant(space):
    for level in range(space.n_levels):
        out = cond_exp(space, np.full(space.n, 3.5), level)
        assert np.allclose(out, 3.5, rtol=1e-12)


def test_kept_level_products_are_never_stale(mixed6):
    """The space keeps the last pair's level products, read-only, and gives the
    same tuple back for the same bytes; a new pair, the same array mutated in
    place and another space each get products of their own, bit for bit the
    `cond_exp` products."""

    def fresh(space, f, g):
        return [cond_exp(space, f, j) * cond_exp(space, g, j) for j in range(space.n_levels)]

    def same(prods, want):
        return len(prods) == len(want) and all(np.array_equal(a, b) for a, b in zip(prods, want))

    rng = np.random.default_rng(7)
    f, g = rng.random(6), rng.random(6)
    kept = level_products(mixed6, f, g)
    assert same(kept, fresh(mixed6, f, g))
    assert level_products(mixed6, f.copy(), g.copy()) is kept
    assert not any(pr.flags.writeable for pr in kept)
    with pytest.raises(ValueError):
        kept[0][0] = 1.0
    f[2] += 1.0  # in place: the kept products are of the old f
    assert same(level_products(mixed6, f, g), fresh(mixed6, f, g))
    assert not same(kept, fresh(mixed6, f, g))
    h = 2.0 * g
    assert same(level_products(mixed6, f, h), fresh(mixed6, f, h))
    other = FilteredSpace([0.3, 0.1, 0.1, 0.2, 0.2, 0.1], [[atom.tolist() for atom in level] for level in mixed6.atoms])
    assert same(level_products(other, f, h), fresh(other, f, h))
    assert not same(level_products(other, f, h), fresh(mixed6, f, h))


# ---- exponents -----------------------------------------------------------------


def test_exponents_arithmetic():
    e = Exponents(2.0, 2.0)
    assert e.p == pytest.approx(1.0)
    assert e.p1_prime == pytest.approx(2.0)
    assert e.q == 2.0
    assert e.q_prime == pytest.approx(2.0)

    e = Exponents(1.5, 3.0)
    assert e.p == pytest.approx(1.0)
    assert e.p1_prime == pytest.approx(3.0)
    assert e.p2_prime == pytest.approx(1.5)
    assert e.q == 1.5
    assert e.q_prime == pytest.approx(3.0)

    e = Exponents(4.0, 4.0)
    assert e.p == pytest.approx(2.0)


def test_exponents_validation():
    with pytest.raises(ValueError):
        Exponents(1.0, 2.0)
    with pytest.raises(ValueError):
        Exponents(2.0, 0.5)
    with pytest.raises(ValueError):
        Exponents(2.0, float("inf"))


# ---- serialization -------------------------------------------------------------


def test_space_round_trip(mixed6):
    data = space_to_dict(mixed6)
    clone = space_from_dict(data)
    assert np.array_equal(clone.masses, mixed6.masses)
    assert [[a.tolist() for a in lv] for lv in clone.atoms] == [
        [a.tolist() for a in lv] for lv in mixed6.atoms
    ]
    again = space_from_dict(json.loads(json.dumps(data)))  # through JSON text
    assert np.array_equal(again.masses, mixed6.masses)


def test_space_from_dict_errors(tmp_path):
    with pytest.raises(ValidationError, match="masses"):
        space_from_dict({"levels": []})
    with pytest.raises(ValidationError) as err:
        space_from_dict({"masses": [1.0, -1.0], "levels": [[[0, 1]]]}, where="here")
    assert str(err.value) == "here: masses[1]: mass -1.0 is not strictly positive"


def test_dict_is_json_clean(quad):
    json.dumps(space_to_dict(quad))
