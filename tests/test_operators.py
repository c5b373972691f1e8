"""Maximal operators and norms against hand-computed values plus
structural identities on random data."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import filtermax.operators
import filtermax.space
from filtermax import (
    Exponents,
    FilteredSpace,
    a_p_constant,
    b_p_constant,
    bilinear_maximal,
    build_level_sets,
    check_thm12,
    check_thm14,
    check_thm15,
    cond_exp,
    gen_instance,
    gen_space,
    level_products,
    lp_norm,
    maximal,
    norm_ratio,
    proof_coefficients,
    tailed_bilinear_maximal,
    tailed_maximal,
    verify_embedding,
    weighted_cond_exp,
    weighted_maximal,
)

F = np.array([1.0, 0.0, 0.0, 0.0])
G = np.array([0.0, 1.0, 0.0, 0.0])


def test_maximal_hand_values(quad):
    assert maximal(quad, F).tolist() == [1.0, 0.5, 0.25, 0.25]
    # takes absolute values of the averages
    assert maximal(quad, -F).tolist() == [1.0, 0.5, 0.25, 0.25]


def test_bilinear_maximal_hand_values(quad):
    assert bilinear_maximal(quad, F, G).tolist() == [0.25, 0.25, 0.0625, 0.0625]
    ones = np.ones(4)
    assert np.array_equal(bilinear_maximal(quad, F, ones), maximal(quad, F))


def test_tailed_operators_hand_values(quad):
    ones = np.ones(4)
    assert tailed_bilinear_maximal(quad, 1, F, ones).tolist() == [1.0, 0.5, 0.0, 0.0]
    assert tailed_maximal(quad, 1, F).tolist() == [1.0, 0.5, 0.0, 0.0]
    # tail from the coarsest level is the full operator
    assert np.array_equal(tailed_bilinear_maximal(quad, 0, F, G), bilinear_maximal(quad, F, G))
    assert np.array_equal(tailed_maximal(quad, 0, F), maximal(quad, F))
    with pytest.raises(ValueError):
        tailed_maximal(quad, 3, F)


def test_weighted_maximal_hand_values(quad):
    sigma = np.array([3.0, 1.0, 1.0, 1.0])
    assert weighted_maximal(quad, F, sigma).tolist() == [1.0, 0.75, 0.5, 0.5]
    # sigma == 1 reduces to the unweighted operator
    assert np.array_equal(weighted_maximal(quad, F, np.ones(4)), maximal(quad, F))
    with pytest.raises(ValueError):
        weighted_maximal(quad, F, np.zeros(4))


def test_lp_norm_hand_values(quad):
    ones = np.ones(4)
    assert lp_norm(quad, F, ones, 2.0) == 0.5
    assert lp_norm(quad, ones, ones, 3.0) == pytest.approx(1.0)
    assert lp_norm(quad, F, ones, 2.0, subset=[0, 1]) == 0.5
    assert lp_norm(quad, F, ones, 2.0, subset=[1, 2, 3]) == 0.0
    # weighted: ||1_{0}||_{L^2(w)} with w = (4,1,1,1)
    w = np.array([4.0, 1.0, 1.0, 1.0])
    assert lp_norm(quad, F, w, 2.0) == 1.0
    # (sum)^(1/inf) would read 1 for every f
    for p in (0.0, float("inf"), float("nan")):
        with pytest.raises(ValueError) as info:
            lp_norm(quad, F, ones, p)
        assert str(info.value) == f"p must be positive and finite, got {p!r}"
    with pytest.raises(ValueError):
        lp_norm(quad, F, np.array([-1.0, 1.0, 1.0, 1.0]), 2.0)


def test_lp_norm_past_float_range_is_a_value_error(quad):
    """With p < 1 the root raises its total to a power above 1: a norm past
    float range is refused by name, not a bare OverflowError."""
    with pytest.raises(ValueError) as info:
        lp_norm(quad, np.ones(4), np.full(4, 1e300), 0.5)
    assert str(info.value) == "(integral of |f|^p weight)^(1/p): 1e+300 ** 2.0 overflows a float"


@st.composite
def space_and_fn(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    masses = draw(
        st.lists(st.floats(min_value=0.05, max_value=5.0), min_size=n, max_size=n)
    )
    levels = [[list(range(n))], [[i] for i in range(n)]]
    if n >= 4:
        levels.insert(1, [list(range(n // 2)), list(range(n // 2, n))])
    f = draw(
        st.lists(st.floats(min_value=-50, max_value=50), min_size=n, max_size=n)
    )
    return FilteredSpace(masses, levels), np.array(f)


@settings(max_examples=60, deadline=None)
@given(space_and_fn())
def test_squaring_identity_bit_exact(sf):
    """max_i |E_i f|^2 computed two ways gives the identical floats."""
    space, f = sf
    m = maximal(space, f)
    assert np.array_equal(m * m, bilinear_maximal(space, f, f))


@settings(max_examples=60, deadline=None)
@given(space_and_fn(), st.integers(min_value=0, max_value=1000))
def test_maximal_is_sublinear(sf, seed):
    space, f = sf
    g = np.random.default_rng(seed).standard_normal(space.n) * 10
    lhs = maximal(space, f + g)
    rhs = maximal(space, f) + maximal(space, g)
    assert np.all(lhs <= rhs * (1 + 1e-12) + 1e-12)


@settings(max_examples=60, deadline=None)
@given(space_and_fn())
def test_maximal_dominates_each_level(sf):
    space, f = sf
    m = maximal(space, f)
    for level in range(space.n_levels):
        assert np.all(np.abs(cond_exp(space, f, level)) <= m + 1e-12)


def test_tailed_decreasing_in_start_level(quad):
    rng = np.random.default_rng(3)
    f = np.abs(rng.standard_normal(4))
    g = np.abs(rng.standard_normal(4))
    prev = tailed_bilinear_maximal(quad, 0, f, g)
    for i in range(1, quad.n_levels):
        cur = tailed_bilinear_maximal(quad, i, f, g)
        assert np.all(cur <= prev + 1e-15)
        prev = cur


def test_appending_duplicate_finest_level_changes_nothing(quad):
    """Constant extension of the filtration window is invisible to the
    operators — the finite-window maxima already capture every level."""
    levels = [[a.tolist() for a in lv] for lv in quad.atoms]
    extended = FilteredSpace(quad.masses.tolist(), levels + [levels[-1]])
    rng = np.random.default_rng(11)
    f = rng.standard_normal(4)
    g = np.abs(rng.standard_normal(4))
    assert np.array_equal(maximal(quad, f), maximal(extended, f))
    assert np.array_equal(
        bilinear_maximal(quad, f, g), bilinear_maximal(extended, f, g)
    )
    assert np.array_equal(
        tailed_bilinear_maximal(quad, 1, f, g), tailed_bilinear_maximal(extended, 1, f, g)
    )
    sigma = np.abs(rng.standard_normal(4)) + 0.1
    assert np.array_equal(
        weighted_maximal(quad, f, sigma), weighted_maximal(extended, f, sigma)
    )


# ---- validation at the public boundary ----------------------------------------

_INST = gen_instance(3, depth=3)  # eight points, levels 0..3
_SP = _INST.space
_OK = np.ones(8)
_SHORT = np.ones(7)
_NAN = np.where(np.arange(8) == 2, np.nan, 1.0)
_ZERO = np.where(np.arange(8) == 0, 0.0, 1.0)
_SHAPE = "function must have shape (8,), got (7,)"
_FINITE = "function values must be finite"
_SIGMA = "sigma must be strictly positive"
_EXPS = Exponents(2.0, 3.0)

# (call, message): every public entry point, one bad input, or two to pin the order
BAD_INPUTS = {
    "cond_exp level": (lambda: cond_exp(_SP, _OK, 4), "level 4 outside 0..3"),
    "cond_exp level before f": (lambda: cond_exp(_SP, _SHORT, -1), "level -1 outside 0..3"),
    "cond_exp nan": (lambda: cond_exp(_SP, _NAN, 1), _FINITE),
    "cond_exp block level before block": (lambda: cond_exp(_SP, np.ones((2, 7)), 4), "level 4 outside 0..3"),
    "cond_exp block width": (
        lambda: cond_exp(_SP, np.ones((2, 7)), 1), "block must have shape (k, 8), got (2, 7)"
    ),
    "cond_exp block width before nan": (
        lambda: cond_exp(_SP, np.full((2, 7), np.nan), 1), "block must have shape (k, 8), got (2, 7)"
    ),
    "cond_exp block nan": (lambda: cond_exp(_SP, np.stack([_OK, _NAN]), 1), _FINITE),
    "cond_exp 3-d": (lambda: cond_exp(_SP, np.ones((1, 2, 8)), 1), "function must have shape (8,), got (1, 2, 8)"),
    "level_products f before g": (lambda: level_products(_SP, _SHORT, _NAN), _SHAPE),
    "level_products g": (lambda: level_products(_SP, _OK, _NAN), _FINITE),
    "maximal shape": (lambda: maximal(_SP, _SHORT), _SHAPE),
    "bilinear_maximal f before g": (lambda: bilinear_maximal(_SP, _NAN, _SHORT), _FINITE),
    "bilinear_maximal g": (lambda: bilinear_maximal(_SP, _OK, _SHORT), _SHAPE),
    "tailed_maximal level": (lambda: tailed_maximal(_SP, 99, _OK), "level 99 outside 0..3"),
    "tailed_bilinear level before f": (
        lambda: tailed_bilinear_maximal(_SP, 4, _SHORT, _OK), "level 4 outside 0..3"
    ),
    "tailed_bilinear g": (lambda: tailed_bilinear_maximal(_SP, 1, _OK, _NAN), _FINITE),
    "weighted_maximal f before sigma": (lambda: weighted_maximal(_SP, _NAN, _ZERO), _FINITE),
    "weighted_maximal sigma": (lambda: weighted_maximal(_SP, _OK, _ZERO), _SIGMA),
    "weighted_maximal sigma shape": (lambda: weighted_maximal(_SP, _OK, _SHORT), _SHAPE),
    "weighted_maximal overflow": (
        lambda: weighted_maximal(_SP, np.full(8, 1e200), np.full(8, 1e200)), _FINITE
    ),
    "weighted_cond_exp sigma before f, level": (lambda: weighted_cond_exp(_SP, _SHORT, -_OK, 9), _SIGMA),
    "weighted_cond_exp f before level": (lambda: weighted_cond_exp(_SP, _SHORT, _OK, 9), _SHAPE),
    "weighted_cond_exp level": (lambda: weighted_cond_exp(_SP, _OK, _OK, -1), "level -1 outside 0..3"),
    "weighted_cond_exp level before overflow": (
        lambda: weighted_cond_exp(_SP, np.full(8, 1e200), np.full(8, 1e200), 9), "level 9 outside 0..3"
    ),
    "a_p_constant omega1": (
        lambda: a_p_constant(_SP, _OK, _ZERO, _OK, _EXPS), "omega1 must be strictly positive"
    ),
    "a_p_constant sigma1 overflow": (
        lambda: a_p_constant(_SP, _OK, np.full(8, 1e-3), _OK, Exponents(1.001, 2.0)),
        "field 'sigma1' = omega1^(-1/(p1 - 1)) with p1 = 1.001 is inf at point 0, not finite and strictly positive",
    ),
    "b_p_constant v": (lambda: b_p_constant(_SP, _ZERO, _OK, _OK, _EXPS), "v must be strictly positive"),
    "b_p_constant omega2 shape": (lambda: b_p_constant(_SP, _OK, _OK, _SHORT, _EXPS), _SHAPE),
    "norm_ratio f1 before f2": (lambda: norm_ratio(_INST, _NAN, _SHORT), _FINITE),
    "norm_ratio f2": (lambda: norm_ratio(_INST, _OK, _SHORT), _SHAPE),
    "thm14 pairs in order": (
        lambda: check_thm14(_INST, [("a", _OK, _OK), ("b", _OK, _NAN), ("c", _SHORT, _OK)]), _FINITE
    ),
    "thm15 first pair first": (lambda: check_thm15(_INST, [("a", _SHORT, _OK), ("b", _NAN, _OK)]), _SHAPE),
    "thm12 pair": (lambda: check_thm12(_INST, [("a", _OK, _NAN)]), _FINITE),
    "proof_coefficients sigma2 before v": (
        lambda: proof_coefficients(_SP, _family(), _OK, _SHORT, _NAN, _EXPS), _SHAPE
    ),
    "proof_coefficients v": (lambda: proof_coefficients(_SP, _family(), _OK, _OK, _NAN, _EXPS), _FINITE),
    "verify_embedding h2": (
        lambda: verify_embedding(_INST.forest, _family(1.0), _OK, _SHORT, _OK, _OK, _EXPS), _SHAPE
    ),
    "verify_embedding omega2": (
        lambda: verify_embedding(_INST.forest, _family(1.0), _OK, _OK, _OK, _ZERO, _EXPS),
        "omega2 must be strictly positive",
    ),
}


def _family(constant=None):
    family = build_level_sets(_INST.forest, _INST.sigma1, _INST.sigma2)
    return family if constant is None else family.with_constant(constant, certified=False)


@pytest.mark.parametrize("case", BAD_INPUTS)
def test_public_entry_points_keep_their_error_messages(case):
    call, message = BAD_INPUTS[case]
    with np.errstate(all="ignore"), pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize(
    "call,count",
    [
        (lambda sp, f, g: bilinear_maximal(sp, f, g), 2),
        (lambda sp, f, g: tailed_bilinear_maximal(sp, 2, f, g), 2),
        (lambda sp, f, g: maximal(sp, f), 1),
        (lambda sp, f, g: weighted_maximal(sp, f, g), 4),  # f, sigma, |f| and |f| sigma
        (lambda sp, f, g: level_products(sp, f, g), 2),
    ],
    ids=["bilinear_maximal", "tailed_bilinear_maximal", "maximal", "weighted_maximal", "level_products"],
)
def test_operators_validate_each_input_once(monkeypatch, call, count):
    """On a depth-5 space (six levels) an operator checks its inputs once, on
    entry, and runs every level on the unchecked kernel: the count does not
    grow with the levels."""
    space = gen_space(1, depth=5, branching=2)
    rng = np.random.default_rng(0)
    f, g = np.exp(rng.standard_normal((2, space.n)))
    want = call(space, f, g)
    calls = []
    real = filtermax.space.as_fn

    def counting(sp, values):
        calls.append(values)
        return real(sp, values)

    monkeypatch.setattr(filtermax.operators, "as_fn", counting)
    monkeypatch.setattr(filtermax.space, "as_fn", counting)
    assert np.array_equal(call(space, f, g), want)
    assert len(calls) == count
