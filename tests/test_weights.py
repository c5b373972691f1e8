"""Weight characteristics against hand-computed values; exact vs heuristic
modes; witness records."""

import json
import math

import numpy as np
import pytest

from filtermax import (
    ALL_CONSTANTS,
    Exponents,
    a_p_constant,
    b_p_constant,
    compute_constant,
    gen_instance,
    rh_constant,
    run_instance_suite,
    s_p_constant,
    sigma_from_omega,
    space_from_dict,
    space_to_dict,
    w_infty_constant,
)

P22 = Exponents(2.0, 2.0)


def ones(space):
    return np.ones(space.n)


def test_sigma_from_omega_duality():
    omega = np.array([0.25, 1.0, 9.0])
    assert sigma_from_omega(omega, 2.0).tolist() == [4.0, 1.0, 1.0 / 9.0]
    # applying the dual map with the conjugate exponent undoes it
    for p in (1.5, 2.0, 3.0):
        pp = p / (p - 1.0)
        back = sigma_from_omega(sigma_from_omega(omega, p), pp)
        assert np.allclose(back, omega, rtol=1e-12)
    with pytest.raises(ValueError):
        sigma_from_omega(omega, 1.0)
    with pytest.raises(ValueError):
        sigma_from_omega(np.array([1.0, 0.0]), 2.0)


def test_a_constant_trivial_and_hand(quad):
    one = ones(quad)
    c = a_p_constant(quad, one, one, one, P22)
    assert c.value == 1.0
    assert c.mode == "exact"

    v = np.array([2.0, 1.0, 1.0, 1.0])
    c = a_p_constant(quad, v, one, one, P22)
    # with unit omegas the characteristic is max over atoms of E(v)
    assert c.value == 2.0
    assert c.witness == {"level": 2, "atom": [0]}


def test_b_constant_trivial_and_hand(quad):
    one = ones(quad)
    assert b_p_constant(quad, one, one, one, P22).value == 1.0
    v = np.array([2.0, 1.0, 1.0, 1.0])
    # unit omegas make the geometric correction 1, so again max E(v)
    assert b_p_constant(quad, v, one, one, P22).value == 2.0


def test_b_exceeds_a_on_spread_weights(quad):
    """E(sigma)^p >= E(sigma)^(p/p') * geometric correction: the log-bump
    constant dominates the base characteristic (here p = 1, p/p' halves
    the exponent while the correction is a geometric mean <= E)."""
    rng = np.random.default_rng(5)
    v = np.exp(rng.standard_normal(4))
    w1 = np.exp(rng.standard_normal(4))
    w2 = np.exp(rng.standard_normal(4))
    a = a_p_constant(quad, v, w1, w2, P22).value
    b = b_p_constant(quad, v, w1, w2, P22).value
    assert b >= a * (1 - 1e-12)


def test_rh_hand_value(pair):
    omega1 = np.array([0.25, 1.0])  # sigma1 = (4, 1)
    omega2 = np.array([1.0, 0.25])  # sigma2 = (1, 4)
    c = rh_constant(pair, omega1, omega2, P22, mode="exact")
    # full tail: sqrt(2.5) * sqrt(2.5) / int sqrt(sigma1 sigma2) = 2.5 / 2
    assert c.value == pytest.approx(1.25, rel=1e-14)
    assert c.mode == "exact"
    assert c.witness["tail"] == [0, 1]
    assert c.value >= 1.0


def test_rh_is_one_for_flat_weights(quad):
    one = ones(quad)
    c = rh_constant(quad, one, one, P22, mode="exact")
    assert c.value == pytest.approx(1.0, rel=1e-14)


def test_s_constant_trivial(quad):
    one = ones(quad)
    c = s_p_constant(quad, one, one, one, P22, mode="exact")
    assert c.value == pytest.approx(1.0, rel=1e-12)
    assert c.mode == "exact"


def test_w_infty_hand_value(pair):
    omega1 = np.array([0.25, 1.0])
    omega2 = np.array([1.0, 0.25])
    c = w_infty_constant(pair, omega1, omega2, P22, mode="exact")
    # attained on the full tail: int sqrt(M sigma1 * M sigma2) / int sqrt(sigma1 sigma2)
    # = sqrt(4 * 2.5)/2 restricted-averaged = sqrt(10)/2
    assert c.value == pytest.approx(math.sqrt(10.0) / 2.0, rel=1e-12)
    assert c.value >= 1.0


def test_heuristic_mode_is_lower_bound(mixed6):
    rng = np.random.default_rng(17)
    exps = Exponents(2.5, 1.7)
    for trial in range(4):
        w1 = np.exp(rng.standard_normal(6))
        w2 = np.exp(rng.standard_normal(6))
        v = np.exp(rng.standard_normal(6))
        for name in ("rh", "s", "winf"):
            exact = compute_constant(name, mixed6, v, w1, w2, exps, mode="exact")
            heur = compute_constant(name, mixed6, v, w1, w2, exps, mode="heuristic")
            assert heur.mode == "lower-bound"
            assert exact.mode == "exact"
            assert heur.value <= exact.value * (1 + 1e-12)


def test_witnesses_are_json_clean_and_locate_the_value(quad):
    rng = np.random.default_rng(23)
    v = np.exp(rng.standard_normal(4))
    w1 = np.exp(rng.standard_normal(4))
    w2 = np.exp(rng.standard_normal(4))
    for name in ("a", "b", "rh", "s", "winf"):
        for mode in ("exact", "heuristic"):
            c = compute_constant(name, quad, v, w1, w2, P22, mode=mode)
            text = json.dumps(c.witness)
            assert "Infinity" not in text and "NaN" not in text
            assert float(c) == c.value
    # tail witnesses carry the stopping time itself
    c = rh_constant(quad, w1, w2, P22, mode="exact")
    assert set(c.witness) >= {"origin", "tail", "tau"}
    assert all(lv is None or isinstance(lv, int) for lv in c.witness["tau"])


def test_compute_constant_dispatch_matches_direct(quad):
    rng = np.random.default_rng(31)
    v = np.exp(rng.standard_normal(4))
    w1 = np.exp(rng.standard_normal(4))
    w2 = np.exp(rng.standard_normal(4))
    assert compute_constant("a", quad, v, w1, w2, P22).value == a_p_constant(
        quad, v, w1, w2, P22
    ).value
    assert compute_constant("RH", quad, v, w1, w2, P22).value == rh_constant(
        quad, w1, w2, P22
    ).value
    with pytest.raises(ValueError, match="unknown constant"):
        compute_constant("zzz", quad, v, w1, w2, P22)


@pytest.mark.parametrize("constant", [rh_constant, w_infty_constant])
def test_tail_constants_refuse_an_unknown_mode(quad, constant):
    one = ones(quad)
    with pytest.raises(ValueError, match="^mode must be 'exact' or 'heuristic', got 'bogus'$"):
        constant(quad, one, one, P22, mode="bogus")


def test_weights_must_be_positive(quad):
    one = ones(quad)
    bad = np.array([1.0, 0.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        a_p_constant(quad, bad, one, one, P22)
    with pytest.raises(ValueError):
        rh_constant(quad, bad, one, P22)
    with pytest.raises(ValueError):
        s_p_constant(quad, one, one, bad, P22)


@pytest.mark.parametrize("mode", ["exact", "heuristic"])
@pytest.mark.parametrize("name", ALL_CONSTANTS)
def test_dual_weights_that_overflow_are_not_finite(quad, name, mode):
    """sigma1 = (1e-4)^(-100) overflows at p1 = 1.01: every constant, in both
    modes, rejects it as not finite at its point, not as a nan objective on
    every tail, and without a RuntimeWarning."""
    one = ones(quad)
    omega1 = np.array([1e-4, 1.0, 1.0, 1.0])
    with pytest.raises(ValueError) as info:
        compute_constant(name, quad, one, omega1, one, Exponents(1.01, 2.0), mode=mode)
    assert str(info.value) == (
        "field 'sigma1' = omega1^(-1/(p1 - 1)) with p1 = 1.01 is inf at point 0, not finite and strictly positive"
    )


@pytest.mark.parametrize("mode", ["exact", "heuristic"])
@pytest.mark.parametrize("name", ALL_CONSTANTS)
def test_dual_weights_that_underflow_are_not_positive(name, mode):
    """omega = 1e300 at p_s = 1.5 gives sigma_s = 1e-600, which underflows to 0:
    every constant, in both modes, names the dual weight, instead of an
    AssertionError (or a nan objective on every tail) from the search."""
    space = gen_instance(1, depth=2).space
    one, huge = np.ones(space.n), np.full(space.n, 1e300)
    exps = Exponents(1.5, 1.5)
    for omega1, omega2, s in ((huge, huge, 1), (one, huge, 2)):
        with pytest.raises(ValueError) as info:
            compute_constant(name, space, one, omega1, omega2, exps, mode=mode)
        assert str(info.value) == (
            f"field 'sigma{s}' = omega{s}^(-1/(p{s} - 1)) with p{s} = 1.5 is 0.0 at point 0, "
            "not finite and strictly positive"
        )


def test_one_instance_derives_its_dual_weights_once(dual_calls):
    """`gen` derives sigma1 and sigma2 once; every constant of the full suite,
    both modes, the instance's sigmas, the Carleson embedding and the property
    self-test read that derivation."""
    inst = gen_instance(5, depth=3)
    run_instance_suite(inst, "all")
    assert dual_calls == [inst.exps.p1, inst.exps.p2]


def test_dual_weights_kept_on_a_space_are_never_stale(dual_calls):
    """One space asked in turn for new omegas, the same omegas mutated in place
    and new exponents gives every constant bit for bit as a fresh space does,
    deriving the dual weights once per change."""
    base = gen_instance(2, depth=3)
    space, v = base.space, base.v
    rng = np.random.default_rng(3)
    w1, w2 = np.exp(rng.standard_normal((2, space.n)))

    def constants(sp, exps):
        return [(c.value, c.witness) for c in (compute_constant(name, sp, v, w1, w2, exps) for name in ALL_CONSTANTS)]

    for change in ("new omegas", "mutated in place", "new exponents"):
        exps = Exponents(2.5, 1.7) if change == "new exponents" else base.exps
        if change == "mutated in place":
            w1[3] *= 4.0
        want = constants(space_from_dict(space_to_dict(space)), exps)
        dual_calls.clear()
        assert constants(space, exps) == want, change
        assert dual_calls == [exps.p1, exps.p2], change


def test_rh_every_tail_ratio_at_least_one(mixed6):
    """The conditional Hölder inequality forces every tail ratio >= 1, so
    the reported maximum is >= 1 for arbitrary positive weights."""
    rng = np.random.default_rng(41)
    for _ in range(5):
        w1 = np.exp(1.5 * rng.standard_normal(6))
        w2 = np.exp(1.5 * rng.standard_normal(6))
        exps = Exponents(float(rng.uniform(1.2, 4.0)), float(rng.uniform(1.2, 4.0)))
        c = rh_constant(mixed6, w1, w2, exps, mode="exact")
        assert c.value >= 1.0 - 1e-12
