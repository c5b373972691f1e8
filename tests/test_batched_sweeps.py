"""Batched exact tail sweeps and the batched heuristic search against the
per-tail scalar loops they replace.

The references below walk `enumerate_tail_masks` one tail at a time with
one `mask_points` and one operator call per tail, exactly as the library
did before its sweeps were blocked, and `reference_search` is the
heuristic search as it was before it scored candidates in blocks;
`reference_properties` is the operators' self-test one draw at a time.
The batched RH/S/Winf values sum in a different order, so they must
agree to REL_TOL; the Carleson sums, thm12's tail-indicator ratios and
the self-test's residuals keep the scalar order and must agree bit for
bit.
"""

import dataclasses
import functools
import itertools
import operator
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import filtermax.space
from filtermax import (
    CarlesonEntry,
    CarlesonFamily,
    CheckResult,
    EnumerationBudgetError,
    Exponents,
    FilteredSpace,
    Instance,
    StoppingTime,
    a_p_constant,
    b_p_constant,
    bilinear_maximal,
    build_level_sets,
    certify_carleson_constant,
    check_properties,
    check_thm12,
    compute_constant,
    cond_exp,
    default_forest,
    enumerate_tail_masks,
    finest_mask,
    first_hit,
    gen_instance,
    is_adapted,
    level_products,
    load_instance,
    lp_norm,
    mask_points,
    maximal,
    proof_coefficients,
    sigma_from_omega,
    space_from_dict,
    weighted_maximal,
)
from filtermax.carleson import _MAX_UNIONS
from filtermax.operators import _level_max
from filtermax.space import _atom_cond, _cond, _level_means
from filtermax.stopping import (
    _BLOCK_BYTES,
    _MAX_ROUNDS,
    _atom_keys,
    _block_max,
    _block_rows,
    _first_scores,
    _key_rows,
    _low_bits,
    _moves,
    _packed_keys,
    _span_bits,
    _sweep_tails,
    heuristic_sup_over_tau,
)
from filtermax.verify import (
    _PROPERTY_TOLS,
    _pair_norms,
    _property_residuals,
    _roots,
    _tail_ratios,
    norm_ratio,
)
from filtermax.weights import WeightConstant, _LeafTails, _PointTails, _sup_over_tails, _tail_layout, _TailTables

DATA = Path(__file__).parent / "data"
REL_TOL = 1e-12
BUDGET = 64  # generated towers of 10 finest atoms can hold up to 40 atoms
FIXTURES = ["quad", "pair", "chain", "mixed6", "lumpy5"]


@pytest.fixture(autouse=True, scope="module")
def atom_budget():
    """Every exact sweep in this module runs under FILTERMAX_ATOM_BUDGET=BUDGET."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("FILTERMAX_ATOM_BUDGET", str(BUDGET))
        yield


# ---- the scalar reference ----------------------------------------------------


def scalar_objectives(space, v, omega1, omega2, exps):
    """{name: objective(pts, chi)} of one tail, through the operators."""
    sigma1 = sigma_from_omega(omega1, exps.p1)
    sigma2 = sigma_from_omega(omega2, exps.p2)
    p = exps.p
    a1, a2 = p / exps.p1, p / exps.p2
    w1 = sigma1 * space.masses
    w2 = sigma2 * space.masses
    mix = sigma1**a1 * sigma2**a2 * space.masses
    v_mass = v * space.masses

    def rh(pts, chi):
        return float(w1[pts].sum() ** a1 * w2[pts].sum() ** a2 / mix[pts].sum())

    def s(pts, chi):
        m = bilinear_maximal(space, sigma1 * chi, sigma2 * chi)
        num = float((m[pts] ** p * v_mass[pts]).sum())
        return float((num / (w1[pts].sum() ** a1 * w2[pts].sum() ** a2)) ** (1.0 / p))

    def winf(pts, chi):
        m1 = maximal(space, sigma1 * chi)
        m2 = maximal(space, sigma2 * chi)
        num = float((m1[pts] ** a1 * m2[pts] ** a2 * space.masses[pts]).sum())
        return num / float(mix[pts].sum())

    return {"rh": rh, "s": s, "winf": winf}


def scalar_tail_values(space, v, omega1, omega2, exps):
    """{name: {mask: value}} over every nonempty tail, one tail at a time."""
    objectives = scalar_objectives(space, v, omega1, omega2, exps)
    out = {name: {} for name in objectives}
    for mask in enumerate_tail_masks(space, 0):
        if mask == 0:
            continue
        pts = mask_points(space, mask)
        chi = space.indicator(pts)
        for name, objective in objectives.items():
            out[name][mask] = objective(pts, chi)
    return out


def scalar_carleson(space, family, sigma1, sigma2, exps, tails=None):
    """(A, worst mask) by the per-tail sums, in entry and leaf order, over the
    given ascending tail masks (by default every tail)."""
    mix = sigma1 ** (exps.p / exps.p1) * sigma2 ** (exps.p / exps.p2) * space.masses
    entry_masks = [finest_mask(space, e.points) for e in family.entries]
    coeffs = family.coefficients()
    atom_mix = np.array([mix[atom].sum() for atom in space.atoms[space.last_level]])
    best = 0.0
    best_mask = None
    for mask in enumerate_tail_masks(space, family.base_level) if tails is None else tails:
        if mask == 0:
            continue
        num = sum(c for c, em in zip(coeffs, entry_masks) if em & mask == em)
        den = sum(atom_mix[a] for a in range(atom_mix.size) if mask >> a & 1)
        ratio = num / den
        if ratio > best or best_mask is None:
            best = ratio
            best_mask = mask
    return best, best_mask


def entry_unions(space, family):
    """Every nonempty union of the family's entries, from each subset of them in
    turn, and every single leaf: ascending finest-atom masks as Python ints."""
    leaf_of = space.atom_of[space.last_level]
    keys = [sum(1 << a for a in set(leaf_of[e.points].tolist())) for e in family.entries]
    unions = {0}
    for r in range(1, len(keys) + 1):
        for subset in itertools.combinations(keys, r):
            unions.add(functools.reduce(operator.or_, subset))
    return sorted((unions | {1 << a for a in range(len(space.atoms[space.last_level]))}) - {0})


def scalar_tail_ratios(inst):
    """thm12's (restricted max, full max, first full argmax mask), one tail
    at a time through `bilinear_maximal` and `lp_norm`."""
    exps = inst.exps
    space = inst.space
    best_restricted = -np.inf
    best_full = -np.inf
    arg_f = None
    for mask in enumerate_tail_masks(space, 0):
        if mask == 0:
            continue
        pts = mask_points(space, mask)
        chi = space.indicator(pts)
        m = bilinear_maximal(space, inst.sigma1 * chi, inst.sigma2 * chi)
        den = lp_norm(space, chi, inst.sigma1, exps.p1) * lp_norm(space, chi, inst.sigma2, exps.p2)
        restricted = lp_norm(space, m, inst.v, exps.p, subset=pts) / den
        full = lp_norm(space, m, inst.v, exps.p) / den
        best_restricted = max(best_restricted, restricted)
        if full > best_full:
            best_full, arg_f = full, mask
    return best_restricted, best_full, arg_f


# ---- comparisons -------------------------------------------------------------


def assert_constants_match(space, v, omega1, omega2, exps):
    ref = scalar_tail_values(space, v, omega1, omega2, exps)
    for name, values in ref.items():
        best_mask = max(values, key=lambda m: (values[m], -m))  # first maximizer
        best = values[best_mask]
        got = compute_constant(name, space, v, omega1, omega2, exps, mode="exact")
        assert got.mode == "exact"
        assert abs(got.value - best) <= REL_TOL * abs(best), name
        witness_mask = finest_mask(space, got.witness["tail"])
        if witness_mask != best_mask:
            # only a near-tie between the top two tails may move the witness
            assert abs(values[witness_mask] - best) <= REL_TOL * abs(best), name


def assert_carleson_matches(inst):
    forest = default_forest(inst)
    for variant in ("node", "exit"):
        family = build_level_sets(forest, inst.sigma1, inst.sigma2, variant=variant)
        family = proof_coefficients(inst.space, family, inst.sigma1, inst.sigma2, inst.v, inst.exps)
        if not family.entries:
            continue
        certified, worst = certify_carleson_constant(inst.space, family, inst.sigma1, inst.sigma2, inst.exps)
        want_a, want_mask = scalar_carleson(inst.space, family, inst.sigma1, inst.sigma2, inst.exps)
        assert certified.carleson_A == want_a, variant
        assert finest_mask(inst.space, worst.tail_set()) == want_mask, variant


def random_weights(rng, n):
    return tuple(np.exp(0.8 * rng.standard_normal(n)) for _ in range(3))


@pytest.mark.parametrize("name", FIXTURES)
def test_batched_constants_match_scalar_on_fixtures(name, request):
    space = request.getfixturevalue(name)
    rng = np.random.default_rng(7)
    for exps in (Exponents(2.0, 2.0), Exponents(1.5, 3.0), Exponents(4.0, 1.3)):
        v, omega1, omega2 = random_weights(rng, space.n)
        assert_constants_match(space, v, omega1, omega2, exps)


@pytest.mark.parametrize("name", FIXTURES)
def test_batched_carleson_equals_scalar_on_fixtures(name, request):
    space = request.getfixturevalue(name)
    rng = np.random.default_rng(11)
    for _ in range(3):
        v, omega1, omega2 = random_weights(rng, space.n)
        h1, h2 = random_weights(rng, space.n)[:2]
        inst = Instance(space, v, omega1, omega2, Exponents(2.0, 2.0), False, h1=h1, h2=h2)
        assert_carleson_matches(inst)


def test_batched_carleson_equals_scalar_on_multi_point_leaves():
    """Ten leaves of 1 to 12 points, so a leaf's mix integral sums 8 or more points
    pairwise, under two coarser levels: the certified A and worst tail are the
    per-tail sums', whose denominators add the leaves in leaf order."""
    sizes = [1, 9, 2, 12, 3, 8, 1, 10, 4, 2]
    starts = np.cumsum([0, *sizes]).tolist()
    leaves = [list(range(lo, hi)) for lo, hi in zip(starts, starts[1:])]
    middle = [sum(leaves[a : a + 3], []) for a in range(0, len(leaves), 3)]
    space = FilteredSpace(np.full(starts[-1], 1.0 / starts[-1]), [[sum(leaves, [])], middle, leaves])
    rng = np.random.default_rng(67)
    for exps in (Exponents(2.0, 2.0), Exponents(1.5, 3.0)):
        v, omega1, omega2 = random_weights(rng, space.n)
        h1, h2 = random_weights(rng, space.n)[:2]
        assert_carleson_matches(Instance(space, v, omega1, omega2, exps, False, h1=h1, h2=h2))


@pytest.mark.parametrize(
    "shape", [dict(depth=3, branching=2), dict(depth=2, branching=3, p1=1.5, p2=3.0)]
)
def test_batched_matches_scalar_on_generated_instances(shape):
    for seed in range(3):
        inst = gen_instance(seed, model="lognormal:1.2", **shape)
        assert_constants_match(inst.space, inst.v, inst.omega1, inst.omega2, inst.exps)
        assert_carleson_matches(inst)


@st.composite
def small_instances(draw):
    """Irregular towers of at most 10 finest atoms (1-3 points each), with
    1-3 coarser levels, each merging contiguous runs of the level below
    (a run of length one everywhere repeats the level)."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=10))
    n = sum(sizes)
    starts = np.cumsum([0, *sizes])
    atoms = [list(range(starts[a], starts[a + 1])) for a in range(len(sizes))]
    levels = [atoms]
    for _ in range(draw(st.integers(1, 3))):
        cuts = draw(st.lists(st.booleans(), min_size=len(atoms) - 1, max_size=len(atoms) - 1))
        merged = [list(atoms[0])]
        for atom, cut in zip(atoms[1:], cuts):
            if cut:
                merged.append(list(atom))
            else:
                merged[-1].extend(atom)
        atoms = merged
        levels.insert(0, atoms)
    positive = st.floats(min_value=0.05, max_value=20.0)
    masses = draw(st.lists(positive, min_size=n, max_size=n))
    v, omega1, omega2, h1, h2 = (
        np.array(draw(st.lists(positive, min_size=n, max_size=n))) for _ in range(5)
    )
    exps = Exponents(draw(st.floats(1.2, 4.0)), draw(st.floats(1.2, 4.0)))
    space = FilteredSpace(masses, levels)
    return Instance(space, v, omega1, omega2, exps, False, h1=h1, h2=h2)


@settings(max_examples=25, deadline=None)
@given(small_instances())
def test_batched_matches_scalar_on_generated_spaces(inst):
    assert_constants_match(inst.space, inst.v, inst.omega1, inst.omega2, inst.exps)
    assert_carleson_matches(inst)


# ---- thm12's tail-indicator sweep --------------------------------------------


@pytest.mark.parametrize("name", FIXTURES)
def test_tail_ratios_equal_scalar_on_fixtures(name, request):
    space = request.getfixturevalue(name)
    rng = np.random.default_rng(13)
    for exps in (Exponents(2.0, 2.0), Exponents(1.5, 3.0), Exponents(4.0, 1.3)):
        v, omega1, omega2 = random_weights(rng, space.n)
        inst = Instance(space, v, omega1, omega2, exps, False)
        assert _tail_ratios(inst) == scalar_tail_ratios(inst)


@pytest.mark.parametrize(
    "shape",
    [
        dict(depth=3),
        dict(depth=2, branching=3, model="power:1.5"),
        dict(model="product:1.0", p1=1.5, p2=3.0),
        dict(depth=3, model="product", p1=2.5, p2=2.5),
    ],
)
def test_tail_ratios_equal_scalar_on_generated_instances(shape):
    for seed in range(4):
        inst = gen_instance(seed, **shape)
        assert _tail_ratios(inst) == scalar_tail_ratios(inst)


@settings(max_examples=25, deadline=None)
@given(small_instances())
def test_tail_ratios_equal_scalar_on_generated_spaces(inst):
    assert _tail_ratios(inst) == scalar_tail_ratios(inst)


@pytest.mark.parametrize("name", [*FIXTURES, "generated"])
def test_row_cond_exp_is_cond_exp_of_each_row(name, request):
    if name == "generated":
        space = gen_instance(3, depth=3, branching=3).space
    else:
        space = request.getfixturevalue(name)
    rng = np.random.default_rng(17)
    rows = rng.standard_normal((9, space.n)) * np.exp(3.0 * rng.standard_normal((9, space.n)))
    for level in range(space.n_levels):
        got = _cond(space, rows, level)
        assert got.shape == rows.shape
        for row, want in zip(rows, got):
            assert want.tobytes() == cond_exp(space, row, level).tobytes()
            one = _cond(space, row, level)  # a single function, 1-d
            assert one.shape == row.shape and one.tobytes() == want.tobytes()
        assert _cond(space, rows[:1], level).tobytes() == got[:1].tobytes()
        assert _cond(space, rows[:0], level).shape == (0, space.n)
        # the public entry point takes the same block, checked once
        assert cond_exp(space, rows, level).tobytes() == got.tobytes()
        assert cond_exp(space, rows[:0], level).shape == (0, space.n)


@pytest.mark.parametrize("k", [1, 2, 3, 5, 7, 9, 16, 20, 33, 40, 64])
def test_row_sums_are_the_rows_1d_sums(k):
    """On a C-contiguous float64 block, sum(axis=1) adds each row as its 1-d
    .sum() does, for short rows and for rows past numpy's pairwise unroll."""
    rng = np.random.default_rng(k)
    for n in [*range(1, 17), 31, 32, 127, 128, 129, 300]:
        block = rng.standard_normal((k, n)) * np.exp(4.0 * rng.standard_normal((k, n)))
        sums = block.sum(axis=1)
        assert [sums[r] for r in range(k)] == [block[r].sum() for r in range(k)], n


def test_thm12_attain_catches_a_wrong_s(monkeypatch):
    inst = gen_instance(0, depth=3)
    attain = {r.theorem: r for r in check_thm12(inst)}["thm12_attain"]
    assert attain.status == "pass"
    constant = Instance.constant

    def skewed(self, name, mode="exact"):
        c = constant(self, name, mode)
        return dataclasses.replace(c, value=c.value * (1 + 1e-9)) if name == "s" else c

    monkeypatch.setattr(Instance, "constant", skewed)
    attain = {r.theorem: r for r in check_thm12(inst)}["thm12_attain"]
    assert attain.status == "fail"


# ---- the heuristic search ----------------------------------------------------


def antichain_of(space, tau):
    """The stopped atoms (level, atom index) of an adapted tau."""
    out = []
    for j in range(tau.origin, space.n_levels):
        hit = tau.levels == j
        out += [(j, int(a_idx)) for a_idx in np.unique(space.atom_of[j][hit])]
    return sorted(out)


def tau_from_antichain(space, i, chain):
    levels = np.full(space.n, np.inf)
    for t, a in chain:
        levels[space.atoms[t][a]] = t
    return StoppingTime(levels, origin=i)


def reference_search(space, i, objective, guide, threshold_count=32, max_rounds=40):
    """The per-candidate search the batched one replaces: one StoppingTime
    and one scalar objective(tau) call per candidate, one `first_hit` per
    threshold, the same candidate order and moves."""
    best = None

    def consider(tau):
        nonlocal best
        if not tau.tail_mask().any():
            return None
        val = float(objective(tau))
        if best is None or val > best[0]:
            best = (val, tau)
        return val

    consider(StoppingTime(np.full(space.n, float(i)), origin=i))
    for t in range(i, space.n_levels):
        for a_idx in range(len(space.atoms[t])):
            consider(tau_from_antichain(space, i, [(t, a_idx)]))
    prods = level_products(space, *guide)
    values = np.unique(np.concatenate([pr[pr > 0] for pr in prods]))
    lo, hi = float(values[0]), float(values[-1])
    grid = np.geomspace(lo, hi, num=threshold_count) if hi > lo else np.array([lo])
    for thr in np.unique(np.concatenate([grid, values * (1.0 - 1e-9), values])):
        consider(first_hit(space, i, [pr > thr for pr in prods]))
    chain = antichain_of(space, best[1])
    for _ in range(max_rounds):
        current = best[0]
        moves = []
        covered = np.zeros(space.n, dtype=bool)
        for t, a in chain:
            covered[space.atoms[t][a]] = True
        for idx, (t, a) in enumerate(chain):
            rest = chain[:idx] + chain[idx + 1 :]
            moves.append(rest)
            if t < space.last_level:
                moves.append(rest + [(t + 1, c) for c in space.children(t, a)])
            if t > i:
                parent = int(space.atom_of[t - 1][space.atoms[t][a][0]])
                p_atom = space.atoms[t - 1][parent]
                keep = [
                    (tt, aa)
                    for tt, aa in rest
                    if not np.isin(space.atoms[tt][aa], p_atom, assume_unique=True).any()
                ]
                moves.append(keep + [(t - 1, parent)])
        for t in range(i, space.n_levels):
            for a_idx, atom in enumerate(space.atoms[t]):
                if not covered[atom].any():
                    moves.append(chain + [(t, a_idx)])
        improved = False
        for move in moves:
            val = consider(tau_from_antichain(space, i, sorted(set(move))))
            if val is not None and val > current:
                improved = True
        if not improved:
            break
        chain = antichain_of(space, best[1])
    return best


def assert_search_matches_reference(space, v, omega1, omega2, exps, exact=None):
    """The batched heuristic RH/S/Winf against `reference_search` on the
    scalar objectives; below `exact` ({name: value}) where given."""
    guide = (sigma_from_omega(omega1, exps.p1), sigma_from_omega(omega2, exps.p2))
    for name, scalar in scalar_objectives(space, v, omega1, omega2, exps).items():

        def objective(tau):
            return scalar(tau.tail_set(), space.indicator(tau.tail_set()))

        want, want_tau = reference_search(space, 0, objective, guide)
        got = compute_constant(name, space, v, omega1, omega2, exps, mode="heuristic")
        assert got.mode == "lower-bound"
        assert abs(got.value - want) <= REL_TOL * abs(want), name
        levels = [np.inf if x is None else x for x in got.witness["tau"]]
        tau = StoppingTime(levels, origin=got.witness["origin"])
        assert is_adapted(space, tau), name
        assert tau.tail_set().tolist() == got.witness["tail"], name
        if tau != want_tau:
            # only a near-tie between the top two candidates may move the witness
            assert abs(objective(tau) - want) <= REL_TOL * abs(want), name
        if exact is not None:
            assert got.value <= exact[name] * (1 + REL_TOL), name


def exact_constants(space, v, omega1, omega2, exps):
    return {
        name: compute_constant(name, space, v, omega1, omega2, exps, mode="exact").value
        for name in ("rh", "s", "winf")
    }


@pytest.mark.parametrize("name", FIXTURES)
def test_search_matches_reference_on_fixtures(name, request):
    space = request.getfixturevalue(name)
    rng = np.random.default_rng(19)
    for exps in (Exponents(2.0, 2.0), Exponents(1.5, 3.0), Exponents(4.0, 1.3)):
        weights = random_weights(rng, space.n)
        exact = exact_constants(space, *weights, exps)
        assert_search_matches_reference(space, *weights, exps, exact)


@pytest.mark.parametrize(
    "shape,enumerable",
    [
        (dict(depth=3), True),
        (dict(depth=2, branching=4), True),
        (dict(depth=5, model="product", p1=2.5, p2=2.5), False),
    ],
)
def test_search_matches_reference_on_generated_instances(shape, enumerable):
    for seed in range(2):
        inst = gen_instance(seed, **shape)
        weights = (inst.v, inst.omega1, inst.omega2)
        exact = exact_constants(inst.space, *weights, inst.exps) if enumerable else None
        assert_search_matches_reference(inst.space, *weights, inst.exps, exact)


@settings(max_examples=25, deadline=None)
@given(small_instances())
def test_search_matches_reference_on_generated_spaces(inst):
    weights = (inst.v, inst.omega1, inst.omega2)
    exact = exact_constants(inst.space, *weights, inst.exps)
    assert_search_matches_reference(inst.space, *weights, inst.exps, exact)


# ---- the sweep's blocks ---------------------------------------------------------


class StopSweep(Exception):
    """Ends a sweep from inside its objective."""


def recorder(space, blocks, limit=None):
    """A tail objective that appends each block it gets to `blocks`, as (masks,
    inside) with each row's finest-atom mask read from its leaf bits (the
    first point of each finest atom), and scores every tail 0; it raises
    StopSweep on block `limit`."""
    firsts = np.array([atom[0] for atom in space.atoms[space.last_level]])

    def objective(inside):
        masks = np.array([sum(1 << int(a) for a in np.flatnonzero(row[firsts])) for row in inside], dtype=np.int64)
        blocks.append((masks, inside))
        if len(blocks) == limit:
            raise StopSweep
        return np.zeros(len(inside))

    return objective


def test_blocks_cover_the_power_set_in_order(mixed6, lumpy5):
    for space in (mixed6, lumpy5):
        leaves = len(space.atoms[space.last_level])
        blocks = []
        assert _sweep_tails(space, 0, recorder(space, blocks)) == (0.0, 1)  # all tied: the first tail
        tails, insides = zip(*blocks)
        assert np.concatenate(tails).tolist() == list(range(1, 2**leaves))
        for block_tails, inside in zip(tails, insides):
            for mask, row in zip(block_tails, inside):
                assert np.flatnonzero(row).tolist() == mask_points(space, int(mask)).tolist()


@pytest.mark.parametrize("name", FIXTURES)
def test_sweep_and_search_take_one_objective(name, request):
    """One callable of a boolean tail block runs unchanged in the exact sweep
    and in the search: the sweep keeps the first maximizer of a per-tail loop,
    and the search, which scores every single-atom stop, lands between the best
    leaf and the sweep on a tail it scored."""
    space = request.getfixturevalue(name)
    mass_w = np.exp(np.random.default_rng(47).standard_normal(space.n)) * space.masses

    def objective(inside):  # the weight's mean over each tail; each row sums as its 1-d sum
        assert inside.dtype == bool and inside.ndim == 2 and inside.shape[1] == space.n
        return np.where(inside, mass_w, 0.0).sum(axis=1) / np.where(inside, space.masses, 0.0).sum(axis=1)

    def score(points):
        row = np.zeros((1, space.n), dtype=bool)
        row[0, points] = True
        return objective(row)[0]

    leaves = len(space.atoms[space.last_level])
    want_val, want_mask = -np.inf, None
    for mask in range(1, 2**leaves):
        val = score(mask_points(space, mask))
        if val > want_val:
            want_val, want_mask = val, mask
    assert _sweep_tails(space, 0, objective) == (want_val, want_mask)
    found, tau = heuristic_sup_over_tau(space, 0, objective)
    assert max(score(leaf) for leaf in space.atoms[space.last_level]) <= found <= want_val
    assert score(tau.tail_set()) == found


def test_blocks_slice_the_lazy_tail_enumeration(monkeypatch):
    # 40 finest atoms: 2**40 tails, swept block by block, never materialised
    monkeypatch.setenv("FILTERMAX_ATOM_BUDGET", "41")
    space = FilteredSpace(np.ones(40), [[list(range(40))], [[x] for x in range(40)]])
    masks = enumerate_tail_masks(space, 0)
    assert isinstance(masks, range) and len(masks) == 1 << 40
    blocks = []
    with pytest.raises(StopSweep):
        _sweep_tails(space, 0, recorder(space, blocks, limit=2))
    (first, _), (second, _) = blocks
    assert first.tolist() + second.tolist() == list(masks[1 : 1 + first.size + second.size])


@pytest.fixture(scope="module")
def wide_points():
    """_BLOCK_BYTES // 8 points in 4 finest atoms: one row as float64 is the
    whole cap, so every block holds a single tail."""
    n = _BLOCK_BYTES // 8
    per_leaf = n // 4
    data = {
        "masses": np.random.default_rng(3).uniform(0.5, 1.5, n).tolist(),
        "levels": [
            [list(range(n))],
            [list(range(n // 2)), list(range(n // 2, n))],
            [list(range(a * per_leaf, (a + 1) * per_leaf)) for a in range(4)],
        ],
    }
    return space_from_dict(data)


def test_blocks_stay_under_the_byte_cap_on_wide_points(wide_points):
    space = wide_points
    n = space.n
    blocks = []
    _sweep_tails(space, 0, recorder(space, blocks))
    for tails, inside in blocks:
        assert inside.shape == (tails.size, n)
        assert inside.astype(float).nbytes <= _BLOCK_BYTES
    assert sum(tails.size for tails, _ in blocks) == 15
    rng = np.random.default_rng(5)
    v, omega1, omega2 = random_weights(rng, n)
    exps = Exponents(2.0, 2.0)
    ref = scalar_tail_values(space, v, omega1, omega2, exps)["rh"]
    best = max(ref.values())
    got = compute_constant("rh", space, v, omega1, omega2, exps)
    assert abs(got.value - best) <= REL_TOL * best


@pytest.mark.parametrize("name", [*FIXTURES, "lognormal", "product"])
def test_the_byte_cap_is_only_a_speed_setting(name, request, monkeypatch):
    """RH, S and Winf keep their witness tails whether a block holds 16 KiB, the
    default cap or 512 KiB, and exact RH keeps its bits.  The generated
    instances have 16 leaves, so the exact sweep runs in 512, 64 and 16 blocks
    with 7, 10 and 12 low bits; a sum over a tail adds its low leaves, then its
    high ones, so a cap regroups the sums of tails reaching past its low bits.
    Exact RH's witness tail lies within the low leaves of every cap (asserted
    below), so its sums, and its value, are the same at every cap.  Exact S and
    Winf agree within REL_TOL: their level means split at the cap's low bits too.
    The search scores each tail on its own row in a fixed order, so the
    heuristic values keep their bits at every cap."""
    if name in FIXTURES:
        space = request.getfixturevalue(name)
        v, omega1, omega2 = random_weights(np.random.default_rng(43), space.n)
        exps = Exponents(1.5, 3.0)
    else:
        inst = gen_instance(5, depth=2, branching=4, model=name, p1=2.5, p2=2.5)
        space, v, omega1, omega2, exps = inst.space, inst.v, inst.omega1, inst.omega2, inst.exps
    seen = {}
    caps = (16 * 1024, _BLOCK_BYTES, 512 * 1024)
    for cap in caps:
        monkeypatch.setattr("filtermax.stopping._BLOCK_BYTES", cap)
        for key in ("rh", "s", "winf"):
            for mode in ("exact", "heuristic"):
                got = compute_constant(key, space, v, omega1, omega2, exps, mode=mode)
                first = seen.setdefault((key, mode), got)
                if (key, mode) == ("rh", "exact") or mode == "heuristic":
                    assert got.value == first.value, (cap, key, mode)
                assert got.value == pytest.approx(first.value, rel=REL_TOL, abs=0), (cap, key, mode)
                assert got.witness["tail"] == first.witness["tail"], (cap, key, mode)
    monkeypatch.setattr("filtermax.stopping._BLOCK_BYTES", caps[0])
    assert finest_mask(space, seen["rh", "exact"].witness["tail"]) < 1 << _low_bits(space)


def test_blocks_check_the_budget_before_building(monkeypatch, quad):
    monkeypatch.setenv("FILTERMAX_ATOM_BUDGET", "3")
    blocks = []
    with pytest.raises(EnumerationBudgetError):
        _sweep_tails(quad, 0, recorder(quad, blocks))
    assert blocks == []  # refused before the first objective call
    monkeypatch.setenv("FILTERMAX_ATOM_BUDGET", "7")
    _sweep_tails(quad, 0, recorder(quad, blocks))
    assert len(blocks) == 1
    # past 62 finest atoms a tail no longer fits an int64 mask
    monkeypatch.setenv("FILTERMAX_ATOM_BUDGET", "1000")
    wide = FilteredSpace(np.ones(63), [[list(range(63))], [[x] for x in range(63)]])
    with pytest.raises(EnumerationBudgetError, match="62-bit"):
        _sweep_tails(wide, 0, recorder(wide, blocks))
    assert len(blocks) == 1


def test_exact_constants_refuse_before_building_the_row_kernel(monkeypatch, quad):
    """The atom budget is checked before the exact sweep builds its subset-sum
    tables (the kernel of its rows)."""

    def tables(space, densities):
        raise AssertionError("subset-sum tables built past the atom budget")

    monkeypatch.setattr("filtermax.weights._TailTables", tables)
    monkeypatch.setenv("FILTERMAX_ATOM_BUDGET", "3")
    one = np.ones(quad.n)
    for name in ("rh", "s", "winf"):
        with pytest.raises(EnumerationBudgetError):
            compute_constant(name, quad, one, one, one, Exponents(2.0, 2.0))


def test_exact_constants_share_the_cached_layout(monkeypatch):
    """Exact RH, S and Winf on one space build the block layout once: its tower
    keeps one `layouts` entry, and every constant's tables hold its arrays."""
    inst = gen_instance(11, depth=2, branching=4)
    space = inst.space
    space._tower.layouts.clear()  # the tower is shared by every space of its shape
    tables = []

    class Recorded(_TailTables):
        def __init__(self, *args):
            super().__init__(*args)
            tables.append(self)

    monkeypatch.setattr("filtermax.weights._TailTables", Recorded)
    layouts = []
    for name in ("rh", "s", "winf"):
        compute_constant(name, space, inst.v, inst.omega1, inst.omega2, inst.exps)
        layouts.append(list(space._tower.layouts.values()))
    layout = layouts[0][0]
    assert all(len(got) == 1 and got[0] is layout for got in layouts)
    bits, patterns, _, starts = layout
    assert len(tables) == 3
    for table in tables:
        assert (table.bits, table.starts) == (bits, starts)
        assert table.patterns is patterns


@pytest.mark.parametrize("name", ["quad", "wide_points"])
def test_sweep_of_an_all_nan_objective_raises(name, request):
    space = request.getfixturevalue(name)
    with pytest.raises(ValueError, match="nan"):
        _sweep_tails(space, 0, lambda inside: np.full(len(inside), np.nan))
    with pytest.raises(ValueError, match="nan"):
        _sup_over_tails(space, "T", lambda tails: np.full(len(tails.chi), np.nan), None, "exact")


@pytest.mark.parametrize("name", ["quad", "wide_points"])
def test_search_of_an_all_nan_objective_raises(name, request):
    """The search words it as the sweep does, counting its candidates: the full
    stop and the 7 single-atom stops, then a guide's distinct level products and
    one threshold below the least."""
    space = request.getfixturevalue(name)
    nan = lambda inside: np.full(len(inside), np.nan)  # noqa: E731
    with pytest.raises(ValueError, match=r"^tail objective is nan \(or -inf\) on all 8 T_0 search candidates$"):
        heuristic_sup_over_tau(space, 0, nan)
    with pytest.raises(ValueError, match=r"^tail objective is nan \(or -inf\) on all 7 T_1 search candidates$"):
        heuristic_sup_over_tau(space, 1, lambda inside: np.full(len(inside), -np.inf))
    guide = tuple(np.exp(np.random.default_rng(53).standard_normal((2, space.n))))
    prods = level_products(space, *guide)
    values = np.unique(np.concatenate(prods))
    with pytest.raises(ValueError, match=rf"on all {8 + 1 + values.size} T_0 search candidates$"):
        heuristic_sup_over_tau(space, 0, nan, guide=guide)
    with pytest.raises(ValueError, match="T_0 search candidates"):
        _sup_over_tails(space, "T", lambda tails: np.full(len(tails.chi), np.nan), guide, "heuristic")


def test_carleson_keeps_the_first_worst_tail_across_blocks(wide_points):
    space = wide_points
    one = np.ones(space.n)
    leaf2 = space.atoms[space.last_level][2]
    family = CarlesonFamily("node", 0, (CarlesonEntry(0, 0, 0, leaf2, 0.0),))
    exps = Exponents(2.0, 2.0)
    for coeff in (0.0, 1.0):  # all tails tie at 0; then only leaf 2 alone is worst
        fam = family.with_coefficients([coeff])
        certified, worst = certify_carleson_constant(space, fam, one, one, exps)
        want_a, want_mask = scalar_carleson(space, fam, one, one, exps)
        assert certified.carleson_A == want_a
        assert finest_mask(space, worst.tail_set()) == want_mask == (1 if coeff == 0 else 4)


def test_carleson_sums_entries_in_entry_order(quad):
    """Nested entries with coefficients 1, 2^-53, 2^-53 on the full tail: in
    entry order they add to 1.0, in reverse order to 1 + 2^-52, so A pins the
    order of the per-tail sum."""
    one = np.ones(quad.n)
    entries = tuple(
        CarlesonEntry(0, 0, 0, np.array(pts), 0.0) for pts in ([0, 1, 2, 3], [0, 1], [0])
    )
    family = CarlesonFamily("node", 0, entries).with_coefficients([1.0, 2.0**-53, 2.0**-53])
    exps = Exponents(2.0, 2.0)
    certified, worst = certify_carleson_constant(quad, family, one, one, exps)
    want_a, want_mask = scalar_carleson(quad, family, one, one, exps)
    assert certified.carleson_A == want_a == 1.0  # the full tail, mix integral 1.0
    assert finest_mask(quad, worst.tail_set()) == want_mask == 15


def test_carleson_sums_denominators_in_leaf_order():
    """Leaf mix integrals 1, 2^-53, 2^-53 under one entry on every point: in leaf
    order the full tail's denominator adds to 1.0, in reverse order to 1 + 2^-52,
    so A pins the order of the per-tail sum."""
    space = FilteredSpace([1.0, 2.0**-53, 2.0**-53], [[[0, 1, 2]], [[0], [1], [2]]])
    one = np.ones(space.n)
    family = CarlesonFamily("node", 0, (CarlesonEntry(0, 0, 0, np.arange(3), 0.0),)).with_coefficients([1.0])
    certified, worst = certify_carleson_constant(space, family, one, one, Exponents(2.0, 2.0))
    want_a, want_mask = scalar_carleson(space, family, one, one, Exponents(2.0, 2.0))
    assert certified.carleson_A == want_a == 1.0
    assert finest_mask(space, worst.tail_set()) == want_mask == 7


def union_family(space, point_sets, coeffs):
    """A family of entries on the given point sets with the given coefficients."""
    entries = tuple(CarlesonEntry(0, 0, 0, np.array(pts, dtype=np.int64), 0.0) for pts in point_sets)
    return CarlesonFamily("node", 0, entries).with_coefficients(coeffs)


def assert_certified_as_scalar(space, family, sigma1, sigma2, exps):
    certified, worst = certify_carleson_constant(space, family, sigma1, sigma2, exps)
    want_a, want_mask = scalar_carleson(space, family, sigma1, sigma2, exps)
    assert certified.carleson_A == want_a and certified.certified
    assert finest_mask(space, worst.tail_set()) == want_mask
    return want_a, want_mask


def test_carleson_unions_of_nested_and_repeated_entries(quad, lumpy5):
    exps = Exponents(2.0, 2.0)
    one = np.ones(quad.n)
    sigma1 = np.array([3.0, 1.0, 0.5, 2.0])
    point_sets = [[0, 1, 2, 3], [0, 1], [0, 1], [0], [2], [2]]
    for coeffs in ([1.0, 0.5, 0.5, 2.0, 1.0, 1.0], [0.0, 0.0, 0.0, 1.0, 0.0, 1.0], [4.0, 0, 0, 0, 0, 0]):
        for s1 in (one, sigma1):
            assert_certified_as_scalar(quad, union_family(quad, point_sets, coeffs), s1, one, exps)
    # lumpy5's leaves {0, 1}, {2}, {3, 4}: entries are unions of them
    point_sets = [[0, 1, 2, 3, 4], [0, 1], [0, 1, 2], [3, 4], [0, 1]]
    rng = np.random.default_rng(43)
    for _ in range(10):
        coeffs = rng.choice([0.0, 1.0, 2.0, rng.uniform(0, 3)], size=len(point_sets))
        sigma1, sigma2 = np.exp(rng.standard_normal((2, lumpy5.n)))
        assert_certified_as_scalar(lumpy5, union_family(lumpy5, point_sets, coeffs), sigma1, sigma2, exps)


@pytest.mark.parametrize("name", [*FIXTURES, "generated"])
def test_carleson_unions_with_more_entries_than_leaves(name, request):
    """Random unions of leaves, more of them than leaves, with coefficients
    drawn so that ties between unions happen."""
    space = gen_instance(5, depth=3).space if name == "generated" else request.getfixturevalue(name)
    leaves = space.atoms[space.last_level]
    rng = np.random.default_rng(47)
    for trial in range(12):
        sets = []
        for _ in range(len(leaves) + 1 + trial % 4):
            picked = rng.random(len(leaves)) < 0.4
            picked[rng.integers(len(leaves))] = True  # nonempty
            sets.append(np.concatenate([leaves[a] for a in np.flatnonzero(picked)]).tolist())
        coeffs = rng.choice([0.0, 1.0, 0.5, rng.uniform(0, 2)], size=len(sets))
        sigma1, sigma2 = np.exp(rng.standard_normal((2, space.n)))
        exps = Exponents(float(rng.uniform(1.2, 4.0)), float(rng.uniform(1.2, 4.0)))
        assert_certified_as_scalar(space, union_family(space, sets, coeffs), sigma1, sigma2, exps)


@pytest.mark.parametrize("name", ["quad", "mixed6", "lumpy5"])
def test_carleson_with_a_zero_constant_keeps_the_first_tail(name, request):
    """A = 0 (all coefficients zero, or no entries): every tail ties, and the
    first one, leaf 0 alone, is the worst tail as in the sweep; an entry with
    no points lies in every tail and scores on single leaves."""
    space = request.getfixturevalue(name)
    one = np.ones(space.n)
    exps = Exponents(2.0, 2.0)
    leaves = space.atoms[space.last_level]
    full = np.arange(space.n).tolist()
    for sets, coeffs in (([], []), ([full, leaves[-1].tolist()], [0.0, 0.0])):
        assert assert_certified_as_scalar(space, union_family(space, sets, coeffs), one, one, exps) == (0.0, 1)
    weights = np.linspace(1.0, 2.0, space.n)
    a, mask = assert_certified_as_scalar(space, union_family(space, [[]], [1.0]), weights, one, exps)
    assert a > 0 and bin(mask).count("1") == 1  # 1 / (the lightest leaf's mix)
    assert_certified_as_scalar(space, union_family(space, [[], leaves[-1].tolist()], [1.0, 3.0]), weights, one, exps)


def test_carleson_certification_never_sweeps_the_tails(monkeypatch):
    """Certification scores unions of entries, so it runs with the sweep
    disabled, and past the atom budget it certifies the same A and tail."""

    def no_sweep(*args, **kwargs):
        raise AssertionError("certify_carleson_constant swept the tails")

    for module in ("stopping", "weights", "carleson", "verify"):
        monkeypatch.setattr(f"filtermax.{module}._sweep_tails", no_sweep, raising=False)
    inst = gen_instance(2, depth=3)
    forest = default_forest(inst)
    family = build_level_sets(forest, inst.sigma1, inst.sigma2)
    family = proof_coefficients(inst.space, family, inst.sigma1, inst.sigma2, inst.v, inst.exps)
    certified, worst = certify_carleson_constant(inst.space, family, inst.sigma1, inst.sigma2, inst.exps)
    assert certified.certified
    monkeypatch.setenv("FILTERMAX_ATOM_BUDGET", "3")
    again, again_worst = certify_carleson_constant(inst.space, family, inst.sigma1, inst.sigma2, inst.exps)
    assert again.carleson_A == certified.carleson_A and again_worst == worst


def test_carleson_certification_past_the_atom_budget():
    """81 leaves (121 atoms, past the atom budget and an int64 mask): A and the
    worst tail are bit-equal to the per-tail sums over every union of entries
    and every single leaf, unions taken subset by subset on Python ints."""
    inst = gen_instance(3, depth=4, branching=3)
    assert len(inst.space.atoms[inst.space.last_level]) == 81
    forest = default_forest(inst)
    for variant in ("node", "exit"):
        family = build_level_sets(forest, inst.sigma1, inst.sigma2, variant=variant)
        family = proof_coefficients(inst.space, family, inst.sigma1, inst.sigma2, inst.v, inst.exps)
        assert family.entries
        certified, worst = certify_carleson_constant(inst.space, family, inst.sigma1, inst.sigma2, inst.exps)
        tails = entry_unions(inst.space, family)
        want_a, want_mask = scalar_carleson(inst.space, family, inst.sigma1, inst.sigma2, inst.exps, tails)
        assert certified.carleson_A == want_a, variant
        assert finest_mask(inst.space, worst.tail_set()) == want_mask, variant


def test_carleson_certification_refuses_past_the_union_cap():
    """k disjoint entries have 2**k distinct unions (the empty one too): at the
    cap they are certified, one more entry is refused, naming the entry count."""
    space = gen_instance(0, depth=4).space  # 16 leaves
    leaves = space.atoms[space.last_level]
    k = _MAX_UNIONS.bit_length() - 1
    assert _MAX_UNIONS == 1 << k and len(leaves) > k
    one = np.ones(space.n)
    family = union_family(space, [leaf.tolist() for leaf in leaves[:k]], np.ones(k))
    assert certify_carleson_constant(space, family, one, one, Exponents(2.0, 2.0))[0].certified
    family = union_family(space, [leaf.tolist() for leaf in leaves[: k + 1]], np.ones(k + 1))
    with pytest.raises(ValueError, match=rf"^{k + 1} entries have more than {_MAX_UNIONS} distinct unions to certify$"):
        certify_carleson_constant(space, family, one, one, Exponents(2.0, 2.0))


def test_carleson_certification_rejects_negative_coefficients(quad):
    entry = CarlesonEntry(0, 0, 0, np.array([0, 1]), -1.0)
    one = np.ones(quad.n)
    with pytest.raises(ValueError, match="nonnegative"):
        certify_carleson_constant(quad, CarlesonFamily("node", 0, (entry,)), one, one, Exponents(2.0, 2.0))


@pytest.mark.parametrize("name", ["quad", "wide_points"])
def test_exact_sweep_keeps_the_first_maximizer_across_blocks(name, request):
    space = request.getfixturevalue(name)

    def tied(tails):
        return np.ones(len(tails.chi))

    def full_tail_nan(tails):  # chi holds a row of the finest atoms (exact) or of the points (search)
        size = tails.chi.sum(axis=1)
        return np.where(size == tails.chi.shape[1], np.nan, size)

    c = _sup_over_tails(space, "T", tied, None, "exact")
    assert finest_mask(space, c.witness["tail"]) == 1
    # nan is skipped, as a per-tail `>` skips it: the first 3-leaf tail wins
    c = _sup_over_tails(space, "T", full_tail_nan, None, "exact")
    assert finest_mask(space, c.witness["tail"]) == 7
    # the search too, whether a block is one slice (quad) or one per tail
    # (wide_points): the full stop comes first, then adding leaves to a half
    c = _sup_over_tails(space, "T", tied, None, "heuristic")
    assert c.witness["tau"] == [0] * space.n
    c = _sup_over_tails(space, "T", full_tail_nan, None, "heuristic")
    assert finest_mask(space, c.witness["tail"]) == 7


# ---- level maxima on atoms ------------------------------------------------------
#
# The kernels and the per-point level maximum as they were before the maximum
# ran on atoms: every level read back at the points, the maximum taken there.


def point_cond(space, f, level):
    """The bincount kernel reading each level back at the points (C order)."""
    mass = space.atom_mass[level]
    labels = space.atom_of[level]
    if f.ndim == 2:
        labels = (labels + mass.size * np.arange(f.shape[0])[:, None]).ravel()
        mass = np.tile(mass, f.shape[0])
    sums = np.bincount(labels, weights=(f * space.masses).ravel(), minlength=mass.size)
    return (sums / mass)[labels].reshape(f.shape)


def point_level_max(space, cond, start, f, g=None):
    """max over levels j >= start of |cond(f)|, or |cond(f) cond(g)|, per point."""
    out = cond(space, f, start) if g is None else cond(space, f, start) * cond(space, g, start)
    np.abs(out, out=out)
    for level in range(start + 1, space.n_levels):
        term = cond(space, f, level) if g is None else cond(space, f, level) * cond(space, g, level)
        np.maximum(out, np.abs(term, out=term), out=out)
    return out


def point_objectives(space, v, omega1, omega2, exps):
    """The S and Winf block objectives on the per-point maximum, fed chi * sigma."""
    sigma1 = sigma_from_omega(omega1, exps.p1)
    sigma2 = sigma_from_omega(omega2, exps.p2)
    p = exps.p
    a1, a2 = p / exps.p1, p / exps.p2
    w1, w2 = sigma1 * space.masses, sigma2 * space.masses
    v_mass = v * space.masses
    mix = sigma1**a1 * sigma2**a2 * space.masses

    def row_sum(x, w):  # each row as its 1-d .sum()
        return np.array([(row * w).sum() for row in x])

    def s(chi, cond):
        m = point_level_max(space, cond, 0, chi * sigma1, chi * sigma2)
        return (row_sum(m**p * chi, v_mass) / (row_sum(chi, w1) ** a1 * row_sum(chi, w2) ** a2)) ** (1.0 / p)

    def winf(chi, cond):
        m1 = point_level_max(space, cond, 0, chi * sigma1)
        m2 = point_level_max(space, cond, 0, chi * sigma2)
        return row_sum(m1**a1 * m2**a2 * chi, space.masses) / row_sum(chi, mix)

    return {"s": s, "winf": winf}, (sigma1, sigma2)


def level_max_space(name, request):
    if name == "one_level":  # no coarse level: the level maximum is the finest level's alone
        return FilteredSpace([0.2, 0.3, 0.5], [[[0], [1, 2]]])
    if name == "generated":
        return gen_instance(3, depth=2, branching=3).space
    if name == "worked4":
        return load_instance(str(DATA / "worked4.json")).space
    return request.getfixturevalue(name)


def assert_same_block(got, want):
    """Equal bits in the same layout, which decides how later reductions round.
    The layout is the strides of the axes longer than one, the ones numpy's
    contiguity flags read: a one-row product of the per-point matmul kernel was
    a fresh array, its atom-level counterpart an indexed one, and only the
    stride of that single row differs (the S and Winf test below runs one-row
    blocks through the objectives)."""
    assert got.shape == want.shape
    if got.size == 0:  # nothing to lay out
        return
    assert [(n, st) for n, st in zip(got.shape, got.strides) if n > 1] == [
        (n, st) for n, st in zip(want.shape, want.strides) if n > 1
    ]
    assert got.flags.c_contiguous == want.flags.c_contiguous
    assert got.flags.f_contiguous == want.flags.f_contiguous
    assert got.tobytes() == want.tobytes()


LEVEL_MAX_SPACES = [*FIXTURES, "worked4", "generated"]


@pytest.mark.parametrize("name", LEVEL_MAX_SPACES)
def test_atom_level_max_equals_the_point_max(name, request):
    """Bincount kernel and the weighted ratio of two means, from every start
    level, on one function and on blocks of 0, 1, 2 and 9 rows."""
    space = level_max_space(name, request)
    rng = np.random.default_rng(31)
    for k in (None, 0, 1, 2, 9):
        shape = (space.n,) if k is None else (k, space.n)
        f = rng.standard_normal(shape) * np.exp(rng.standard_normal(shape))
        g = np.exp(rng.standard_normal(shape))
        fg = np.abs(f) * g
        for start in range(space.n_levels):
            assert_same_block(_level_max(space, start, f), point_level_max(space, point_cond, start, f))
            assert_same_block(_level_max(space, start, f, g), point_level_max(space, point_cond, start, f, g))
            ratio = lambda s, h, i: [a / b for a, b in zip(_level_means(s, h, i), _level_means(s, g, i))]  # noqa: E731
            got = _level_max(space, start, fg, means=ratio)
            want = point_level_max(space, lambda s, h, j: point_cond(s, h, j) / point_cond(s, g, j), start, fg)
            assert_same_block(got, want)


# ---- the exact sweep's subset-sum tables -------------------------------------------
#
# The exact sweep reads a block of tails on the finest atoms ("leaves") from
# subset-sum tables.  `ReferenceTails` is the same view of a block built one
# tail at a time in Python floats: each leaf's density summed point by point,
# and each sum over a tail (per coarse atom and in total) taken as the tail's
# leaves below the block's low bits added in ascending order from 0, the leaves
# from there up likewise, then the two partial sums added.


def leaf_sums_in_point_order(space, density):
    sums = []
    for atom in space.atoms[space.last_level]:
        total = 0.0
        for x in atom.tolist():
            total += float(density[x])
        sums.append(total)
    return sums


class ReferenceTails:
    """`_LeafTails` of the tails `masks` for `densities`, one tail at a time."""

    def __init__(self, space, densities, masks, bits):
        self.space = space
        leaves = range(len(space.atoms[space.last_level]))
        firsts = [int(atom[0]) for atom in space.atoms[space.last_level]]
        self.leaf_atoms = [[int(space.atom_of[j][x]) for x in firsts] for j in range(space.n_levels)]
        self.leaf_sums = [leaf_sums_in_point_order(space, d) for d in densities]
        self.members = [[leaf for leaf in leaves if mask >> leaf & 1] for mask in masks]
        self.chi = np.array([[float(mask >> leaf & 1) for leaf in leaves] for mask in masks]).reshape(len(masks), -1)
        self.bits = bits

    def _sum(self, s, leaves):
        low = high = 0.0
        for leaf in leaves:
            if leaf < self.bits:
                low += self.leaf_sums[s][leaf]
            else:
                high += self.leaf_sums[s][leaf]
        return low + high

    def total(self, s):
        return np.array([self._sum(s, members) for members in self.members])

    def row_sum(self, x, s):
        """Each row of x weighted by density s, its leaves added in ascending order."""
        sums = []
        for row in x.tolist():
            total = 0.0
            for value, weight in zip(row, self.leaf_sums[s]):
                total += value * weight
            sums.append(total)
        return np.array(sums)

    def means(self, s):
        out = []
        for j, mass in enumerate(self.space.atom_mass):
            rows = []
            for members in self.members:
                if j == self.space.last_level:  # a leaf's mean is its own sum over its mass
                    rows.append([self.leaf_sums[s][a] / m if a in members else 0.0 for a, m in enumerate(mass)])
                else:
                    atoms = [[x for x in members if self.leaf_atoms[j][x] == a] for a in range(mass.size)]
                    rows.append([self._sum(s, inside) / m for inside, m in zip(atoms, mass)])
            out.append(np.array(rows).reshape(len(self.members), mass.size))
        return out

    def level_max(self, *s):
        """max over levels of |the product of the densities' means| per leaf."""
        means = [self.means(t) for t in s]
        out = np.zeros(self.chi.shape)
        for r, x in np.ndindex(out.shape):
            terms = []
            for j in range(self.space.n_levels):
                term = means[0][j][r, self.leaf_atoms[j][x]]
                for m in means[1:]:
                    term = term * m[j][r, self.leaf_atoms[j][x]]
                terms.append(abs(term))
            out[r, x] = max(terms)
        return out


def block_masks(tails):
    """The finest-atom masks of a block's rows, read from the bits of its leaves."""
    return [sum(1 << int(tails.leaves[c]) for c in np.flatnonzero(row)) for row in tails.chi]


def kept_leaves(space, masks, bits):
    """The leaves a block of `masks` keeps: its low ones and its set high ones, or
    every leaf in a one-row block."""
    leaves = len(space.atoms[space.last_level])
    if len(masks) == 1:
        return list(range(leaves))
    return [leaf for leaf in range(leaves) if leaf < bits or masks[0] >> leaf & 1]


def assert_view_matches(space, tails, ref, leaves, rng):
    """A block's view on `leaves` equals the per-tail reference at those leaves
    bit for bit: chi, the weighted row sums of chi and of a positive block inside
    each tail (`inside_sum`, handed an F-ordered copy, as the objectives hand it
    their level maxima), every total and level mean, and the level maxima of each
    density and of a product."""
    assert tails.leaves.tolist() == leaves
    chi = ref.chi[:, leaves]
    assert tails.chi.tobytes() == chi.tobytes() and tails.chi.shape == chi.shape
    x = np.exp(rng.standard_normal(ref.chi.shape))
    for s in range(len(ref.leaf_sums)):
        assert tails.row_sum(tails.chi, s).tobytes() == ref.row_sum(ref.chi, s).tobytes()
        inside = tails.inside_sum(x[:, leaves].copy(order="F"), s)
        assert inside.tobytes() == ref.row_sum(x * ref.chi, s).tobytes()
        assert tails.total(s).tobytes() == ref.total(s).tobytes()
        got, want = tails.means(s), ref.means(s)
        want[-1] = want[-1][:, leaves]
        assert len(got) == len(want) == space.n_levels
        for a, b in zip(got, want):
            assert a.shape == b.shape and np.ascontiguousarray(a).tobytes() == b.tobytes()
    for s in ((0,), (1,), (0, 1)) if len(ref.leaf_sums) > 1 else ((0,),):
        assert tails.level_max(*s).tobytes() == np.ascontiguousarray(ref.level_max(*s)[:, leaves]).tobytes()


def assert_tables_match(space, densities):
    """Every block the exact sweep reads from the tables equals the per-tail
    reference bit for bit (`assert_view_matches`): at its low and set high leaves,
    and again on every leaf (`every_leaf`, the view a block is scored again on);
    and the blocks cover the nonempty tails in order."""
    tables = _TailTables(space, densities)
    seen = []
    rng = np.random.default_rng(len(densities))
    bits = _low_bits(space)
    every = list(range(len(space.atoms[space.last_level])))

    def objective(tails):
        masks = block_masks(tails)
        seen.extend(masks)
        ref = ReferenceTails(space, densities, masks, bits)
        assert_view_matches(space, tails, ref, kept_leaves(space, masks, bits), rng)
        assert_view_matches(space, tails.every_leaf(), ref, every, rng)
        return np.zeros(len(masks))

    _sweep_tails(space, 0, objective, tables.read)
    assert seen == list(range(1, 1 << len(space.atoms[space.last_level])))


def table_densities(space, seed):
    rng = np.random.default_rng(seed)
    return tuple(np.exp(1.5 * rng.standard_normal(space.n)) * space.masses for _ in range(3))


@pytest.mark.parametrize("name", [*LEVEL_MAX_SPACES, "wide_points", "one_level"])
@pytest.mark.parametrize("cap", [None, 64])
def test_tail_tables_equal_ascending_sums(name, cap, request, monkeypatch):
    """On every fixture (mixed6, lumpy5 and wide_points have several points in
    a finest atom), a generated tower, worked4 and a one-level tower, with the
    default cap and with blocks of a few tails, so that high leaves are fixed
    per block."""
    space = level_max_space(name, request)
    if cap is not None:
        monkeypatch.setattr("filtermax.stopping._BLOCK_BYTES", max(8, cap * space.n))
    assert_tables_match(space, table_densities(space, 67))


@settings(max_examples=25, deadline=None)
@given(small_instances(), st.sampled_from([None, 8, 64]))
def test_tail_tables_equal_ascending_sums_on_generated_spaces(inst, rows):
    with pytest.MonkeyPatch.context() as mp:
        if rows is not None:
            mp.setattr("filtermax.stopping._BLOCK_BYTES", 8 * rows * inst.space.n)
        assert_tables_match(inst.space, tuple(w * inst.space.masses for w in (inst.omega1, inst.omega2, inst.v)))


@pytest.mark.parametrize("cap", [None, 16 * 1024, 8 * 16 * 4, 8 * 16])
@pytest.mark.parametrize("name", ["mixed6", "wide_points", "sixteen_leaves"])
def test_span_totals_equal_the_blocks_totals(name, cap, request, monkeypatch):
    """Exact RH reads `_BLOCK_BYTES // 8` tails per call (`_span_bits`): each
    span's totals equal its blocks' `_LeafTails` totals bit for bit, and the
    spans cover the nonempty tails in order.  On 16 one-point leaves the caps give
    b = 10, 7, 2 and 0, so spans of 16 blocks, the first from mask 1, and with the
    smallest cap spans of 16 one-tail blocks."""
    if cap is not None:
        monkeypatch.setattr("filtermax.stopping._BLOCK_BYTES", cap)
    if name == "sixteen_leaves":
        space = gen_instance(3, depth=2, branching=4).space
    else:
        space = level_max_space(name, request)
    densities = table_densities(space, 5)
    tables = _TailTables(space, densities)
    bits, span = _low_bits(space), _span_bits(space)
    assert span == min(max(bits, (_BLOCK_BYTES if cap is None else cap).bit_length() - 4), len(tables.rows))
    seen = []

    def objective(tails):
        lo, hi = seen[-1]
        blocks = [tables.read(max(lo, start), start + (1 << bits)) for start in range(lo >> bits << bits, hi, 1 << bits)]
        for s in range(len(densities)):
            want = np.concatenate([block.total(s) for block in blocks])
            assert tails.total(s).tobytes() == want.tobytes()
        return np.zeros(hi - lo)

    def read(lo, hi):
        seen.append((lo, hi))
        return tables.read_totals(lo, hi)

    _sweep_tails(space, 0, objective, read, span)
    assert [mask for lo, hi in seen for mask in range(lo, hi)] == list(range(1, 1 << len(tables.rows)))
    assert all(hi - lo == 1 << span for lo, hi in seen[1:])


def exercise_tables(space, densities):
    """The tables of `densities` after a sweep that calls every `_LeafTails`
    method on every block, so that every low-leaf table is cached."""
    tables = _TailTables(space, densities)

    def objective(tails):
        tails.chi, tails.means(0)
        m = tails.level_max(0, 1)
        tails.level_max(1)
        m **= 1.5
        return tails.inside_sum(m, 2) / tails.total(2)

    _sweep_tails(space, 0, objective, tables.read)
    return tables


@pytest.mark.parametrize("name", [*LEVEL_MAX_SPACES, "wide_points", "one_level"])
def test_tail_tables_are_read_only(name, request):
    """The objectives work in place on their blocks, so every cached table
    refuses a write, and a sweep leaves each as a fresh build has it."""
    space = level_max_space(name, request)
    densities = table_densities(space, 13)
    tables = exercise_tables(space, densities)
    fresh = exercise_tables(space, densities)
    low = [arr for pair in tables._low_tables.values() for arr in pair]
    assert len(low) == 2 * len(fresh._low_tables) == 2 * 5  # chi, means of 0, of 1 and of (0, 1), sums of 2
    for arr in (tables.table, tables.leaf_sums, tables.leaf_means, *low):
        with pytest.raises(ValueError, match="read-only"):
            arr *= 1.0
    for attr in ("table", "leaf_sums", "leaf_means"):
        assert getattr(tables, attr).tobytes() == getattr(fresh, attr).tobytes()
    for key, pair in fresh._low_tables.items():
        assert [a.tobytes() for a in tables._low_tables[key]] == [a.tobytes() for a in pair]


@pytest.mark.parametrize("name", [*LEVEL_MAX_SPACES, "wide_points"])
def test_point_objectives_leave_the_cached_bins(name, request):
    """The heuristic S and Winf objectives raise their level maxima to powers
    in place: the maxima are fresh, never the cached `_level_bins`, which stay
    read-only and unchanged."""
    space = level_max_space(name, request)
    v, omega1, omega2 = random_weights(np.random.default_rng(19), space.n)
    exps = Exponents(1.5, 3.0)
    compute_constant("s", space, v, omega1, omega2, exps, mode="heuristic")
    before = {start: bins.tobytes() for start, (bins, _) in space._tower.bins.items()}
    assert before
    densities = tuple(w * space.masses for w in (omega1, omega2))
    tails = _PointTails(space, densities, np.eye(space.n, dtype=bool)[: min(space.n, 9)])
    for s in ((0, 1), (0,), (1,)):
        assert not any(np.shares_memory(tails.level_max(*s), bins) for bins, _ in space._tower.bins.values())
    for key in ("s", "winf"):
        compute_constant(key, space, v, omega1, omega2, exps, mode="heuristic")
    for start, (bins, _) in space._tower.bins.items():
        assert not bins.flags.writeable
        assert bins.tobytes() == before.get(start, bins.tobytes())


def test_exact_s_and_winf_sweeps_hold_few_blocks():
    """At the wide_tails benchmark's shape (16 leaves, 1024 tails per block) one
    exact S sweep peaks at 4.2 blocks of _BLOCK_BYTES traced, a Winf sweep at 6.2
    (the tables, the cached low-leaf tables and each block's level maxima); they
    read 7.0 and 8.4 while each block built its finest level's means and chi.
    The space's block layout, built once per space, is built before."""
    inst = gen_instance(1, depth=2, branching=4, model="lognormal", p1=2.0, p2=2.0)
    _tail_layout(inst.space)
    for key, cap in (("s", 5), ("winf", 7)):
        tracemalloc.start()
        try:
            compute_constant(key, inst.space, inst.v, inst.omega1, inst.omega2, inst.exps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / _BLOCK_BYTES <= cap, (key, peak / _BLOCK_BYTES)


@pytest.mark.parametrize("name", [*LEVEL_MAX_SPACES, "wide_points"])
def test_atom_level_max_on_the_matmul_kernel_equals_the_point_max(name, request):
    """The exact sweep's kernel (subset-sum tables since it replaced the points x
    atoms matmul) takes its level maximum on the finest atoms; read at the
    points, it equals the per-point maximum of the reference's level means read
    at the points, on every block of a sweep, for one density and for a product
    of two.  wide_points gives one-row blocks."""
    space = level_max_space(name, request)
    densities = table_densities(space, 37)
    leaf_of = space.atom_of[space.last_level]

    def objective(tails):
        ref = ReferenceTails(space, densities, block_masks(tails), _low_bits(space))
        means = [ref.means(0), ref.means(1)]

        def cond(_, s, level):  # density s's reference means read at the points
            return np.ascontiguousarray(means[s][level][:, space.atom_of[level]])

        for s in ((0,), (1,), (0, 1)):
            got = tails.every_leaf().level_max(*s).take(leaf_of, axis=1)
            assert_same_block(got, point_level_max(space, cond, 0, *s))
        return np.zeros(len(tails.chi))

    _sweep_tails(space, 0, objective, _TailTables(space, densities).read)


def reference_objectives(space, v, omega1, omega2, exps):
    """RH, S and Winf block objectives of point blocks on `ReferenceTails`."""
    sigma1 = sigma_from_omega(omega1, exps.p1)
    sigma2 = sigma_from_omega(omega2, exps.p2)
    p = exps.p
    a1, a2 = p / exps.p1, p / exps.p2
    mix = sigma1**a1 * sigma2**a2 * space.masses
    densities = (sigma1 * space.masses, sigma2 * space.masses, v * space.masses, mix, space.masses)
    firsts = [int(atom[0]) for atom in space.atoms[space.last_level]]

    def view(inside):
        masks = [sum(1 << leaf for leaf, x in enumerate(firsts) if row[x]) for row in inside]
        return ReferenceTails(space, densities, masks, _low_bits(space))

    def rh(inside):
        t = view(inside)
        return t.total(0) ** a1 * t.total(1) ** a2 / t.total(3)

    def s(inside):
        t = view(inside)
        m = t.level_max(0, 1)
        return (t.row_sum(m**p * t.chi, 2) / (t.total(0) ** a1 * t.total(1) ** a2)) ** (1.0 / p)

    def winf(inside):
        t = view(inside)
        m1, m2 = t.level_max(0), t.level_max(1)
        return t.row_sum(m1**a1 * m2**a2 * t.chi, 4) / t.total(3)

    return {"rh": rh, "s": s, "winf": winf}


@pytest.mark.parametrize("name", [*LEVEL_MAX_SPACES, "wide_points", "one_level"])
def test_s_and_winf_keep_the_point_max_bits(name, request):
    """Exact RH, S and Winf equal a sweep of the per-tail reference objectives
    (`ReferenceTails`, same blocks, so each sum splits at the same low leaves)
    bit for bit, value and witness; heuristic S and Winf equal the search run
    on the per-point objectives."""
    space = level_max_space(name, request)
    rng = np.random.default_rng(41)
    for exps in (Exponents(2.0, 2.0), Exponents(1.5, 3.0)):
        v, omega1, omega2 = random_weights(rng, space.n)
        for key, objective in reference_objectives(space, v, omega1, omega2, exps).items():
            got = compute_constant(key, space, v, omega1, omega2, exps, mode="exact")
            value, mask = _sweep_tails(space, 0, objective)
            assert got.value == value
            assert finest_mask(space, got.witness["tail"]) == mask
        objectives, guide = point_objectives(space, v, omega1, omega2, exps)
        for key, objective in objectives.items():
            got = compute_constant(key, space, v, omega1, omega2, exps, mode="heuristic")
            value, tau = heuristic_sup_over_tau(
                space, 0, lambda inside: objective(inside.astype(float), point_cond), guide=guide
            )
            assert got.value == value
            assert got.witness["tail"] == tau.tail_set().tolist()


@pytest.mark.parametrize("name", [*LEVEL_MAX_SPACES, "wide_points"])
def test_exact_objectives_never_see_the_empty_tail(name, request, monkeypatch):
    """Every block or span the exact RH, S and Winf objectives get holds nonempty
    tails only (the sweep starts at mask 1, and each S or Winf row holds a leaf),
    the spans and blocks cover every nonempty tail once, and no RuntimeWarning is
    raised: 0/0 on the empty tail would be nan."""
    space = level_max_space(name, request)
    v, omega1, omega2 = random_weights(np.random.default_rng(71), space.n)
    spans, rows = [], []

    def checked(space, i, objective, read, bits=None):
        def watched(lo, hi):
            spans.append((lo, hi))
            tails = read(lo, hi)
            if hasattr(tails, "chi"):
                rows.extend(tails.chi.sum(axis=1).tolist())
            return tails

        return _sweep_tails(space, i, objective, watched, bits)

    monkeypatch.setattr("filtermax.weights._sweep_tails", checked)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for key in ("rh", "s", "winf"):
            compute_constant(key, space, v, omega1, omega2, Exponents(1.5, 3.0))
    tails = 2 ** len(space.atoms[space.last_level]) - 1
    masks = [mask for lo, hi in spans for mask in range(lo, hi)]
    assert masks == 3 * list(range(1, tails + 1))
    assert len(rows) == 2 * tails
    assert min(rows) >= 1


def past_range_instances():
    """Sixteen-leaf towers (b = 10: leaves 10..15 are high) whose weights leave
    float range: sigma = 1e200 everywhere (every level's mean product overflows);
    a leaf of mass 1e-10 with sigma1 = sigma2 = 1e160, whose own mean product
    overflows while its ancestors' stay finite; and a leaf of mass 1e10 with v =
    1e300, whose sum of v overflows.  The leaf is the high leaf 12."""
    inst = gen_instance(3, depth=2, branching=4, p1=2.0, p2=2.0)
    levels = [[atom.tolist() for atom in level] for level in inst.space.atoms]
    one = np.ones(16)
    yield "overflow_everywhere", inst.space, one, np.full(16, 1e-200), np.full(16, 1e-200)
    masses = inst.space.masses.copy()
    masses[12] = 1e-10
    omega = one.copy()
    omega[12] = 1e-160
    yield "one_leaf_product", FilteredSpace(masses, levels), one, omega, omega
    masses[12], v = 1e10, one.copy()
    v[12] = 1e300
    yield "one_leaf_weight", FilteredSpace(masses, levels), v, one, one


def outcome(key, space, v, omega1, omega2, exps):
    try:
        got = compute_constant(key, space, v, omega1, omega2, exps)
    except ValueError as exc:
        return str(exc)
    return got.value, got.witness["tail"]


@pytest.mark.parametrize("case", list(past_range_instances()), ids=lambda case: case[0])
def test_exact_sweeps_score_each_block_as_on_every_leaf(case, monkeypatch):
    """Exact S and Winf read a block on its low and set high leaves only, and
    score it again on every leaf when a value or a leaf's value is not finite:
    each block's values are its every-leaf values bit for bit, nan and inf rows
    included, so value, witness and refusal equal a sweep on every leaf.  Each
    case has blocks of both kinds, and some every-leaf row is nan."""
    _, space, v, omega1, omega2 = case
    exps = Exponents(2.0, 2.0)
    finite, nan = [], []

    def checked(space, i, objective, read, bits=None):
        def scored(tails):
            values = objective(tails)
            every = objective(tails.every_leaf())
            assert values.tobytes() == every.tobytes()
            finite.append(bool(np.isfinite(values).all()))
            nan.append(bool(np.isnan(every).any()))
            return values

        return _sweep_tails(space, i, scored, read, bits)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with monkeypatch.context() as mp:
            mp.setattr("filtermax.weights._sweep_tails", checked)
            got = [outcome(key, space, v, omega1, omega2, exps) for key in ("s", "winf")]
        assert any(nan) and len(set(finite)) == 2
        monkeypatch.setattr(_TailTables, "read", lambda tables, lo, hi: _LeafTails(tables, lo, hi, every_leaf=True))
        assert got == [outcome(key, space, v, omega1, omega2, exps) for key in ("s", "winf")]


# ---- every level's means in one bincount ------------------------------------------


@pytest.mark.parametrize("name", [*LEVEL_MAX_SPACES, "wide_points"])
def test_level_means_are_atom_cond_of_each_level(name, request):
    """One bincount for every level from each start equals `_atom_cond` level by
    level, bit for bit and fresh and C-ordered, with and without a density, on
    one function and on blocks of 0, 1, 2 and 9 rows."""
    space = level_max_space(name, request)
    rng = np.random.default_rng(59)
    density = np.exp(rng.standard_normal(space.n)) * space.masses
    for k in (None, 0, 1, 2, 9):
        shape = (space.n,) if k is None else (k, space.n)
        f = rng.standard_normal(shape) * np.exp(3.0 * rng.standard_normal(shape))
        for d in (None, density):
            for start in range(space.n_levels):
                got = _level_means(space, f, start, d)
                assert len(got) == space.n_levels - start
                for level, means in enumerate(got, start):
                    assert_same_block(means, _atom_cond(space, f, level, d))
                    assert means.flags.c_contiguous and means.flags.owndata


# ---- A and B over every atom at once ---------------------------------------------
#
# `reference_atom_max` is `weights._atom_max` as it was before A and B took one
# pass over the atoms of every level: one density and one first-maximum pass
# per level, a later level winning only when strictly larger.


def reference_atom_max(space, density, name):
    best_val, found = _block_max((level, density(level)) for level in range(space.n_levels))
    level, a_idx = found or (0, 0)
    return WeightConstant(name, best_val, "exact", {"level": level, "atom": space.atoms[level][a_idx].tolist()})


def reference_atom_maxima(space, v, omega1, omega2, exps):
    """(A, B) by the per-level loop, on each weight's `_level_means`."""
    sigma1, sigma2 = sigma_from_omega(omega1, exps.p1), sigma_from_omega(omega2, exps.p2)
    p = exps.p
    e1, e2 = p / exps.p1_prime, p / exps.p2_prime
    log_mix = np.log(sigma1 ** (p / exps.p1) * sigma2 ** (p / exps.p2))
    mv, m1, m2, mlog = (_level_means(space, w) for w in (v, sigma1, sigma2, log_mix))
    a = reference_atom_max(space, lambda t: mv[t] * m1[t] ** e1 * m2[t] ** e2, "A")
    b = reference_atom_max(space, lambda t: mv[t] * m1[t] ** p * m2[t] ** p / np.exp(mlog[t]), "B")
    return a, b


def assert_atom_maxima_match(space, v, omega1, omega2, exps):
    got = a_p_constant(space, v, omega1, omega2, exps), b_p_constant(space, v, omega1, omega2, exps)
    for g, want in zip(got, reference_atom_maxima(space, v, omega1, omega2, exps)):
        assert float.hex(g.value) == float.hex(want.value), want.name
        assert (g.name, g.mode, g.witness) == (want.name, want.mode, want.witness)
    return got


@pytest.mark.parametrize("name", [*FIXTURES, "worked4", "generated"])
def test_atom_maxima_equal_the_per_level_loop(name, request):
    space = level_max_space(name, request)
    rng = np.random.default_rng(71)
    for exps in (Exponents(2.0, 2.0), Exponents(1.5, 3.0), Exponents(1.3, 7.0)):
        assert_atom_maxima_match(space, *random_weights(rng, space.n), exps)


@pytest.mark.parametrize("shape", [dict(depth=3), dict(depth=5, model="product", p1=2.5, p2=2.5), dict(depth=8)])
def test_atom_maxima_equal_the_per_level_loop_on_generated_instances(shape):
    for seed in range(3):
        inst = gen_instance(seed, **shape)
        assert_atom_maxima_match(inst.space, inst.v, inst.omega1, inst.omega2, inst.exps)


@settings(max_examples=40, deadline=None)
@given(small_instances())
def test_atom_maxima_equal_the_per_level_loop_on_generated_spaces(inst):
    """Irregular towers, unsplit atoms (a repeated level) and multi-point leaves."""
    assert_atom_maxima_match(inst.space, inst.v, inst.omega1, inst.omega2, inst.exps)


def test_atom_maxima_ties_go_to_the_earliest_level(chain, lumpy5):
    """Equal values on several levels: the earliest level's first atom wins."""
    one = np.ones(chain.n)
    for got in assert_atom_maxima_match(chain, one, one, one, Exponents(2.0, 3.0)):
        assert (got.value, got.witness) == (1.0, {"level": 0, "atom": [0, 1]})
    # the atom {3, 4} repeats from level 1 to level 2 and holds the largest v
    v, one = np.array([1.0, 1.0, 1.0, 5.0, 5.0]), np.ones(lumpy5.n)
    for got in assert_atom_maxima_match(lumpy5, v, one, one, Exponents(2.0, 2.0)):
        assert got.witness == {"level": 1, "atom": [3, 4]}


# ---- the search's memo ------------------------------------------------------------
#
# The search keys each candidate by its finest atoms and builds rows for new
# tails only.  `packbits_search` is the search as it was before: a boolean row
# for every candidate, keyed by the packed bits of its points.


def packbits_search(space, i, objective, guide=None, rows=None):
    """The search with a row per candidate and a packed-points memo."""
    rows = max(1, _BLOCK_BYTES // (8 * space.n)) if rows is None else rows
    scores = {np.packbits(np.zeros(space.n, dtype=bool)).tobytes(): np.nan}

    def scored(inside):
        keys = [np.packbits(row).tobytes() for row in inside]
        fresh = {key: r for r, key in enumerate(keys) if key not in scores}
        if fresh:
            scores.update(zip(fresh, np.asarray(objective(inside[list(fresh.values())]), dtype=float)))
        return np.array([scores[key] for key in keys])

    def chain_rows(chains):
        inside = np.zeros((len(chains), space.n), dtype=bool)
        for row, chain in zip(inside, chains):
            for t, a in chain:
                row[space.atoms[t][a]] = True
        return inside

    best = [-np.inf]

    def winner(candidates, tails):
        found = None
        for lo in range(0, len(candidates), rows):
            vals = scored(tails(candidates[lo : lo + rows]))
            k = int(np.argmax(np.where(np.isnan(vals), -np.inf, vals)))
            if vals[k] > best[0]:
                best[0], found = float(vals[k]), lo + k
        return found

    opening = [[(i, a) for a in range(len(space.atoms[i]))]]
    opening += [[(t, a)] for t in range(i, space.n_levels) for a in range(len(space.atoms[t]))]
    k = winner(opening, chain_rows)
    chain = None if k is None else opening[k]
    if guide is not None:
        prods = level_products(space, *guide)
        values = np.unique(np.concatenate([pr[pr > 0] for pr in prods]))
        if values.size:
            lo, hi = float(values[0]), float(values[-1])
            grid = np.geomspace(lo, hi, num=32) if hi > lo else np.array([lo])
            thresholds = np.unique(np.concatenate([grid, values * (1.0 - 1e-9), values]))
            reach = np.max(prods[i:], axis=0)
            k = winner(thresholds, lambda part: reach > part[:, None])
            if k is not None:
                stop = first_hit(space, i, [pr > thresholds[k] for pr in prods]).levels
                hit = np.flatnonzero(np.isfinite(stop)).tolist()
                chain = sorted({(int(stop[x]), int(space.atom_of[int(stop[x])][x])) for x in hit})
    for _ in range(40):
        moves = []
        covered = chain_rows([chain])[0]
        for idx, (t, a) in enumerate(chain):
            rest = chain[:idx] + chain[idx + 1 :]
            moves.append(rest)
            if t < space.last_level:
                moves.append(rest + [(t + 1, c) for c in space.children(t, a)])
            if t > i:
                parent = int(space.parents[t][a])
                keep = [(tt, aa) for tt, aa in rest if space.atom_of[t - 1][space.atoms[tt][aa][0]] != parent]
                moves.append(keep + [(t - 1, parent)])
        for t in range(i, space.n_levels):
            for a_idx, atom in enumerate(space.atoms[t]):
                if not covered[atom].any():
                    moves.append(chain + [(t, a_idx)])
        moves = [sorted(set(move)) for move in moves]
        k = winner(moves, chain_rows)
        if k is None:
            break
        chain = moves[k]
    return best[0], tau_from_antichain(space, i, chain)


def recording(objective, blocks):
    def record(inside):
        blocks.append(inside.copy(order="K"))
        return objective(inside)

    return record


def search_objectives(space, v, omega1, omega2, exps):
    """The (objective, guide) pairs the heuristic RH, S and Winf hand the search."""
    captured = []

    def capture(space, i, objective, guide=None):
        captured.append((objective, guide))
        return heuristic_sup_over_tau(space, i, objective, guide)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("filtermax.weights.heuristic_sup_over_tau", capture)
        for name in ("rh", "s", "winf"):
            compute_constant(name, space, v, omega1, omega2, exps, mode="heuristic")
    assert len(captured) == 3
    return captured


def assert_search_sends_the_packbits_blocks(space, v, omega1, omega2, exps, origins=(0,)):
    """Under both memos the RH, S and Winf objectives (and their guide, or none)
    see the same blocks, rows and layout, and the searches agree on value and tau."""
    for objective, guide in search_objectives(space, v, omega1, omega2, exps):
        for i in origins:
            for g in (guide, None):
                got, want = [], []
                value, tau = heuristic_sup_over_tau(space, i, recording(objective, got), g)
                assert (value, tau) == packbits_search(space, i, recording(objective, want), g)
                assert len(got) == len(want)
                for a, b in zip(got, want):
                    assert_same_block(a, b)
                    assert a.dtype == b.dtype == bool


@pytest.mark.parametrize("name", LEVEL_MAX_SPACES)
def test_search_sends_the_packbits_blocks_on_fixtures(name, request):
    space = level_max_space(name, request)
    rng = np.random.default_rng(61)
    for exps in (Exponents(2.0, 2.0), Exponents(1.5, 3.0)):
        weights = random_weights(rng, space.n)
        assert_search_sends_the_packbits_blocks(space, *weights, exps, origins=range(space.n_levels))


def test_search_sends_the_packbits_blocks_on_deep_product_instances():
    for seed in range(2):
        inst = gen_instance(seed, depth=5, model="product", p1=2.5, p2=2.5)
        assert_search_sends_the_packbits_blocks(inst.space, inst.v, inst.omega1, inst.omega2, inst.exps, (0, 2))


@settings(max_examples=25, deadline=None)
@given(small_instances())
def test_search_sends_the_packbits_blocks_on_generated_spaces(inst):
    assert_search_sends_the_packbits_blocks(inst.space, inst.v, inst.omega1, inst.omega2, inst.exps)


def test_search_memo_keys_are_finest_masks(mixed6, lumpy5):
    """An atom's key is the finest mask of its points; a key's row is its tail."""
    for space in (mixed6, lumpy5):
        keys = _atom_keys(space)
        for t, level in enumerate(space.atoms):
            assert keys[t] == tuple(finest_mask(space, atom) for atom in level)
        masks = list(range(1 << len(space.atoms[space.last_level])))
        rows = _key_rows(space, masks)
        assert rows.flags.c_contiguous and rows.dtype == bool
        assert [np.flatnonzero(row).tolist() for row in rows] == [mask_points(space, m).tolist() for m in masks]
        assert _key_rows(space, []).shape == (0, space.n)


# ---- the search's moves, keyed in O(1) ------------------------------------------
#
# `keyed_reference_search` is the search as it was before its moves were keyed
# from the chain's own key: every move built as a list of atoms, with its key
# summed over them, sorted, and a refine move (an atom into its children) too.
# A refine move keeps the chain's tail, whose score is the best so far, so it can
# never win; the search keeps every other candidate in order, so value and tau
# keep their bits.


def reference_moves(space, i, chain, atom_keys):
    """(kind, atoms) of each move on the chain, in the reference order."""
    moves = []
    covered = sum(atom_keys[t][a] for t, a in chain)
    for idx, (t, a) in enumerate(chain):
        rest = chain[:idx] + chain[idx + 1 :]
        moves.append(("drop", rest))
        if t < space.last_level:
            moves.append(("refine", rest + [(t + 1, c) for c in space.children(t, a)]))
        if t > i:
            parent = int(space.parents[t][a])
            keep = [(tt, aa) for tt, aa in rest if not atom_keys[tt][aa] & atom_keys[t - 1][parent]]
            moves.append(("merge", keep + [(t - 1, parent)]))
    for t in range(i, space.n_levels):
        for a_idx, key in enumerate(atom_keys[t]):
            if not key & covered:
                moves.append(("add", chain + [(t, a_idx)]))
    return moves


def keyed_reference_search(space, i, objective, guide=None):
    """The keyed search with a summed key, a sort and a list per move, refine included."""
    best_val = -np.inf
    chain = None
    scored = _first_scores(space, objective)
    rows = _block_rows(space)
    atom_keys = _atom_keys(space)

    def chain_keys(chains):
        return [sum(atom_keys[t][a] for t, a in c) for c in chains]

    def winner(candidates, keys):
        nonlocal best_val
        slices = ((lo, scored(keys(candidates[lo : lo + rows]))) for lo in range(0, len(candidates), rows))
        best_val, found = _block_max(slices, best_val)
        return None if found is None else found[0] + found[1]

    opening = [[(i, a) for a in range(len(space.atoms[i]))]]
    opening += [[(t, a)] for t in range(i, space.n_levels) for a in range(len(space.atoms[t]))]
    k = winner(opening, chain_keys)
    if k is not None:
        chain = opening[k]
    if guide is not None:
        prods = level_products(space, *guide)
        values = np.unique(np.concatenate([pr[pr > 0] for pr in prods]))
        if values.size:
            thresholds = np.concatenate([values[:1] * (1.0 - 1e-9), values])
            reach = np.max(prods[i:], axis=0)[[atom[0] for atom in space.atoms[space.last_level]]]
            k = winner(thresholds, lambda part: _packed_keys(reach > part[:, None]))
            if k is not None:
                stop = first_hit(space, i, [pr > thresholds[k] for pr in prods]).levels
                hit = np.flatnonzero(np.isfinite(stop)).tolist()
                chain = sorted({(int(stop[x]), int(space.atom_of[int(stop[x])][x])) for x in hit})
    for _ in range(_MAX_ROUNDS):
        moves = [sorted(set(move)) for _, move in reference_moves(space, i, chain, atom_keys)]
        k = winner(moves, chain_keys)
        if k is None:
            break
        chain = moves[k]
    return best_val, tau_from_antichain(space, i, chain)


def assert_search_keeps_the_keyed_reference(space, v, omega1, omega2, exps, origins=(0,)):
    """The RH, S and Winf searches (with their guide, and without) keep the
    value bits and the tau of `keyed_reference_search`."""
    for objective, guide in search_objectives(space, v, omega1, omega2, exps):
        for i in origins:
            for g in (guide, None):
                value, tau = heuristic_sup_over_tau(space, i, objective, g)
                want, want_tau = keyed_reference_search(space, i, objective, g)
                assert value.hex() == want.hex(), i
                assert tau == want_tau, i


@pytest.mark.parametrize("name", FIXTURES)
def test_search_keeps_the_keyed_reference_on_fixtures(name, request):
    space = request.getfixturevalue(name)
    rng = np.random.default_rng(67)
    for exps in (Exponents(2.0, 2.0), Exponents(1.5, 3.0), Exponents(4.0, 1.3)):
        weights = random_weights(rng, space.n)
        assert_search_keeps_the_keyed_reference(space, *weights, exps, origins=range(min(2, space.n_levels)))


def test_search_keeps_the_keyed_reference_on_deep_fallback_instances():
    for seed in range(20):
        inst = gen_instance(seed, depth=5, branching=2, model="product", p1=2.5, p2=2.5)
        assert_search_keeps_the_keyed_reference(inst.space, inst.v, inst.omega1, inst.omega2, inst.exps)


def test_search_keeps_the_keyed_reference_on_a_121_atom_tower():
    inst = gen_instance(0, depth=4, branching=3, model="lognormal:1.2", p1=1.5, p2=3.0)
    assert inst.space.atom_count() == 121
    assert_search_keeps_the_keyed_reference(inst.space, inst.v, inst.omega1, inst.omega2, inst.exps, (0, 2))


@settings(max_examples=25, deadline=None)
@given(small_instances())
def test_search_keeps_the_keyed_reference_on_generated_spaces(inst):
    space = inst.space
    assert_search_keeps_the_keyed_reference(space, inst.v, inst.omega1, inst.omega2, inst.exps, range(space.n_levels))


def random_antichain(space, i, rng):
    """Pairwise disjoint atoms of levels i..L, each taken with probability 1/2
    in a random order when it misses the ones before."""
    keys = _atom_keys(space)
    atoms = [(t, a) for t in range(i, space.n_levels) for a in range(len(space.atoms[t]))]
    chain, covered = [], 0
    for t, a in (atoms[j] for j in rng.permutation(len(atoms))):
        if not keys[t][a] & covered and rng.random() < 0.5:
            chain.append((t, a))
            covered |= keys[t][a]
    return sorted(chain)


@settings(max_examples=25, deadline=None)
@given(small_instances(), st.integers(0, 2**32 - 1))
def test_move_keys_are_the_finest_masks_of_their_moves(inst, seed):
    """On random antichains, `_moves` keys each drop, merge and add as
    `finest_mask` of its points; taking away the chain atoms that meet its cut
    and adding its atom gives the reference move; it keeps the reference
    order without the refine moves, whose keys are the chain's own."""
    space, rng = inst.space, np.random.default_rng(seed)
    keys = _atom_keys(space)
    for i in range(space.n_levels):
        for _ in range(4):
            chain = random_antichain(space, i, rng)
            covered = sum(keys[t][a] for t, a in chain)
            want = reference_moves(space, i, chain, keys)
            assert all(sum(keys[t][a] for t, a in move) == covered for kind, move in want if kind == "refine")
            want = [move for kind, move in want if kind != "refine"]
            got = _moves(space, i, chain)
            assert len(got) == len(want)
            for (key, cut, atom), move in zip(got, want):
                points = [x for t, a in move for x in space.atoms[t][a].tolist()]
                assert key == finest_mask(space, points)
                kept = [(t, a) for t, a in chain if not keys[t][a] & cut]
                assert sorted(kept + ([atom] if atom else [])) == sorted(set(move))


def test_atom_keys_are_built_once_per_space(monkeypatch):
    """The first search builds the keys (tuples, each atom's `finest_mask`) on the
    space's tower; S and Winf then reuse them, and so does every other space of
    that shape."""
    monkeypatch.setenv("FILTERMAX_ATOM_BUDGET", "24")
    inst = gen_instance(3, depth=5, model="product", p1=2.5, p2=2.5)
    space = inst.space
    space._tower.keys = None  # the tower is shared by every space of its shape
    inst.constant("rh", "heuristic")
    keys = space._tower.keys
    assert isinstance(keys, tuple) and all(isinstance(level, tuple) for level in keys)
    for t, level in enumerate(space.atoms):
        assert keys[t] == tuple(finest_mask(space, atom) for atom in level)
    for name in ("s", "winf"):
        inst.constant(name, "heuristic")
    assert _atom_keys(space) is keys and space._tower.keys is keys
    assert _atom_keys(gen_instance(4, depth=5, model="product", p1=2.5, p2=2.5).space) is keys


# ---- the search's first-hit thresholds --------------------------------------------
#
# The search takes its first-hit thresholds at the distinct positive level
# products and one point below the least.  `parent_thresholds` is the family it
# took before: a 32-point geometric grid, each product value and a point just
# below each, which adds only repeats of a first-hit time already scored.


def parent_thresholds(values):
    lo, hi = float(values[0]), float(values[-1])
    grid = np.geomspace(lo, hi, num=32) if hi > lo else np.array([lo])
    return np.unique(np.concatenate([grid, values * (1.0 - 1e-9), values]))


def first_hits(space, i, prods, thresholds):
    """(tail key, first_hit chain) of each threshold's first-hit time, in order."""
    out = []
    for thr in thresholds:
        tau = first_hit(space, i, [pr > thr for pr in prods])
        out.append((finest_mask(space, tau.tail_set()), tuple(antichain_of(space, tau))))
    return out


def searched_threshold_keys(space, i, guide):
    """The tail keys the search gives its thresholds, in order."""
    keys = []

    def packed(leaf_bits):
        out = _packed_keys(leaf_bits)
        keys.extend(out)
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("filtermax.stopping._packed_keys", packed)
        heuristic_sup_over_tau(space, i, lambda inside: inside.sum(axis=1, dtype=float), guide)
    return keys


def assert_thresholds_keep_the_first_hits(space, guide, origins=(0,)):
    """The search's thresholds are the distinct positive products and one point
    below the least, and their first occurrences of (tail key, chain) are the
    parent family's, in the same order."""
    prods = level_products(space, *guide)
    values = np.unique(np.concatenate([pr[pr > 0] for pr in prods]))
    family = np.concatenate([values[:1] * (1.0 - 1e-9), values])
    for i in origins:
        hits = first_hits(space, i, prods, family)
        assert searched_threshold_keys(space, i, guide) == [key for key, _ in hits]
        parent = first_hits(space, i, prods, parent_thresholds(values))
        assert list(dict.fromkeys(hits)) == list(dict.fromkeys(parent))


@pytest.mark.parametrize("name", FIXTURES)
def test_thresholds_keep_the_first_hits_on_fixtures(name, request):
    space = request.getfixturevalue(name)
    rng = np.random.default_rng(73)
    for _ in range(3):
        guide = tuple(np.exp(1.5 * rng.standard_normal((2, space.n))))
        assert_thresholds_keep_the_first_hits(space, guide, origins=range(space.n_levels))


def test_thresholds_keep_the_first_hits_on_deep_product_instances():
    for seed in range(2):
        inst = gen_instance(seed, depth=5, model="product", p1=2.5, p2=2.5)
        guide = (sigma_from_omega(inst.omega1, inst.exps.p1), sigma_from_omega(inst.omega2, inst.exps.p2))
        assert_thresholds_keep_the_first_hits(inst.space, guide, origins=(0, 2))


@settings(max_examples=25, deadline=None)
@given(small_instances())
def test_thresholds_keep_the_first_hits_on_generated_spaces(inst):
    guide = (sigma_from_omega(inst.omega1, inst.exps.p1), sigma_from_omega(inst.omega2, inst.exps.p2))
    assert_thresholds_keep_the_first_hits(inst.space, guide, origins=range(inst.space.n_levels))


# ---- the block pair norms ------------------------------------------------------


def reference_pair_norms(inst, F1, F2, inside=None):
    """_pair_norms one pair at a time through the public operator and norms."""
    nums, dens, inside_nums = [], [], []
    for r, (f1, f2) in enumerate(zip(F1, F2)):
        m = bilinear_maximal(inst.space, f1 * inst.sigma1, f2 * inst.sigma2)
        nums.append(lp_norm(inst.space, m, inst.v, inst.exps.p))
        n1 = lp_norm(inst.space, f1, inst.sigma1, inst.exps.p1)
        dens.append(n1 * lp_norm(inst.space, f2, inst.sigma2, inst.exps.p2))
        pts = None if inside is None else np.flatnonzero(inside[r])
        inside_nums.append(lp_norm(inst.space, m, inst.v, inst.exps.p, subset=pts))
    return nums, dens, inside_nums


def assert_pair_norms_match(inst, seed):
    """Random signed pairs, a zero f1 (no ratio) and indicator pairs of random
    point sets, scored as one block, equal the per-pair reference bit for bit."""
    n = inst.space.n
    rng = np.random.default_rng(seed)
    F1 = rng.standard_normal((6, n)) * np.exp(rng.standard_normal((6, n)))
    F2 = np.exp(0.5 * rng.standard_normal((6, n)))
    F1[2] = 0.0
    assert _pair_norms(inst, F1, F2) == reference_pair_norms(inst, F1, F2)
    assert norm_ratio(inst, F1[2], F2[2]) is None
    for f1, f2, num, den in zip(F1, F2, *_pair_norms(inst, F1, F2)[:2]):
        assert norm_ratio(inst, f1, f2) == (None if den == 0.0 else num / den)
    inside = rng.random((5, n)) < 0.5
    inside[:, 0] = True  # nonempty sets
    chi = inside.astype(float)
    assert _pair_norms(inst, chi, chi, inside) == reference_pair_norms(inst, chi, chi, inside)


@pytest.mark.parametrize("name", FIXTURES)
def test_pair_norms_equal_the_public_operators_on_fixtures(name, request):
    space = request.getfixturevalue(name)
    rng = np.random.default_rng(23)
    for exps in (Exponents(2.0, 2.0), Exponents(1.5, 3.0)):
        v, omega1, omega2 = random_weights(rng, space.n)
        assert_pair_norms_match(Instance(space, v, omega1, omega2, exps, False), 5)


@pytest.mark.parametrize("shape", [dict(depth=3), dict(depth=2, branching=4, p1=1.5, p2=3.0), dict(depth=5)])
def test_pair_norms_equal_the_public_operators_on_generated_instances(shape):
    for seed in range(3):
        assert_pair_norms_match(gen_instance(seed, **shape), seed)


@settings(max_examples=25, deadline=None)
@given(small_instances(), st.integers(0, 2**32 - 1))
def test_pair_norms_equal_the_public_operators_on_generated_spaces(inst, seed):
    assert_pair_norms_match(inst, seed)


def test_restricted_pair_norms_in_every_summation_regime():
    """Rows with fewer than 8, 8 to 128 and more than 128 points inside (numpy's
    pairwise sum adds each size range its own way), counts repeated and rows
    shuffled, on a 256-point tower: each restricted norm is the per-row
    reference's bit for bit, the row compressed, then summed as a 1-d `.sum()`."""
    inst = gen_instance(4, depth=8)
    space, exps = inst.space, inst.exps
    rng = np.random.default_rng(61)
    counts = rng.permutation([1, 3, 7, 7, 8, 9, 64, 128, 128, 3, 129, 200, 256, 129, 8, 256])
    inside = np.zeros((counts.size, space.n), dtype=bool)
    for row, count in zip(inside, counts):
        row[rng.choice(space.n, count, replace=False)] = True
    for F1, F2 in ((inside.astype(float),) * 2, np.exp(rng.standard_normal((2, counts.size, space.n)))):
        want = []
        for f1, f2, pts in zip(F1, F2, inside):
            m = bilinear_maximal(space, f1 * inst.sigma1, f2 * inst.sigma2)
            total = (m**exps.p * inst.v * space.masses)[pts].sum()
            want.append(float(total) ** (1.0 / exps.p))
        assert list(map(float.hex, _pair_norms(inst, F1, F2, inside)[2])) == list(map(float.hex, want))


def test_roots_are_python_float_powers():
    rng = np.random.default_rng(73)
    totals = np.concatenate([[0.0, 5e-324, 1.0, 1e308], np.exp(20.0 * rng.standard_normal(40))])
    for p in (1.0, 1.5, 2.0, 3.0, 7.3, float(rng.uniform(1.1, 4.0))):
        want = [float(t) ** (1.0 / p) for t in totals]
        assert list(map(float.hex, _roots(totals, p))) == list(map(float.hex, want))


# ---- the batched self-test -----------------------------------------------------


def reference_properties(inst, draws=20, seed=None):
    """check_properties one draw at a time through the public `cond_exp`,
    `weighted_maximal`, `lp_norm`, `maximal` and `bilinear_maximal`, as the
    self-test ran before its draws were blocked.  Returns the per-draw
    residuals (name -> (draws,) array) and the six rows."""
    space, exps = inst.space, inst.exps
    base = inst.seed if seed is None else seed
    rng = np.random.default_rng(np.random.SeedSequence(base or 0, spawn_key=(4,)))
    n = space.n
    res = {name: [] for name in _PROPERTY_TOLS}
    for _ in range(draws):
        f = rng.standard_normal(n) * np.exp(rng.standard_normal(n))
        g = np.exp(0.8 * rng.standard_normal(n))
        h = np.exp(0.8 * rng.standard_normal(n))
        i = int(rng.integers(0, space.n_levels))
        j = int(rng.integers(0, space.n_levels))
        lhs = cond_exp(space, cond_exp(space, f, j), i)
        rhs = cond_exp(space, f, min(i, j))
        scale = float(np.max(np.abs(rhs))) or 1.0
        res["prop_tower"].append(float(np.max(np.abs(lhs - rhs))) / scale)

        a1, a2 = exps.p / exps.p1, exps.p / exps.p2
        mix = cond_exp(space, g**a1 * h**a2, i)
        split = cond_exp(space, g, i) ** a1 * cond_exp(space, h, i) ** a2
        res["prop_cond_holder"].append(float(np.max((mix - split) / split)))

        jl = np.exp(cond_exp(space, np.log(g), i))
        je = cond_exp(space, g, i)
        res["prop_jensen_log"].append(float(np.max((jl - je) / je)))

        p_doob = float(rng.uniform(1.1, 4.0))
        mw = weighted_maximal(space, f, g)
        num = lp_norm(space, mw, g, p_doob)
        den = (p_doob / (p_doob - 1.0)) * lp_norm(space, f, g, p_doob)
        res["prop_doob"].append(num / den - 1.0)

        m1 = maximal(space, f)
        mbil = bilinear_maximal(space, f, f)
        sq_scale = float(np.max(mbil)) or 1.0
        res["prop_square"].append(float(np.max(np.abs(m1 * m1 - mbil))) / sq_scale)

    rh = inst.constant("rh", "heuristic")
    seed_out = -1 if inst.seed is None else inst.seed
    rows = []
    for name, values in res.items():
        worst = 0.0
        for value in values:
            worst = max(worst, value)
        rows.append(
            CheckResult(name, worst, 0.0, abs_tol=_PROPERTY_TOLS[name], seed=seed_out, detail={"draws": draws})
        )
    rows.append(CheckResult("prop_rh_ge1", 1.0, rh.value, seed=seed_out, detail={"RH_lower_bound": rh.value}))
    return {name: np.array(values, dtype=float) for name, values in res.items()}, rows


def assert_properties_match(inst, draws=20, seed=None):
    want, want_rows = reference_properties(inst, draws, seed)
    got = _property_residuals(inst, draws, seed)
    assert list(got) == list(want)
    for name in want:
        assert got[name].shape == (draws,), name
        assert got[name].tolist() == want[name].tolist(), name
    assert check_properties(inst, draws, seed) == want_rows


@pytest.mark.parametrize("name", FIXTURES)
def test_properties_equal_the_per_draw_loop_on_fixtures(name, request):
    space = request.getfixturevalue(name)
    rng = np.random.default_rng(29)
    for seed, exps in enumerate((Exponents(2.0, 2.0), Exponents(1.5, 3.0), Exponents(1.3, 7.0))):
        v, omega1, omega2 = random_weights(rng, space.n)
        assert_properties_match(Instance(space, v, omega1, omega2, exps, False), seed=seed)


@pytest.mark.parametrize(
    "shape",
    [
        dict(depth=3),
        dict(depth=2, branching=4),
        dict(depth=5, model="product", p1=2.5, p2=2.5),
        dict(depth=2, branching=3, model="power:1.5"),
        dict(depth=1, p1=1.3, p2=7.0),
        dict(depth=3, p1=1.3, p2=7.0),
    ],
)
def test_properties_equal_the_per_draw_loop_on_generated_instances(shape):
    for seed in range(3):
        assert_properties_match(gen_instance(seed, **shape))


@pytest.mark.parametrize("draws", [0, 1, 40])
def test_properties_equal_the_per_draw_loop_for_any_draw_count(draws):
    inst = gen_instance(5, depth=3)
    assert_properties_match(inst, draws)
    rows = check_properties(inst, draws)
    assert [r.theorem for r in rows[:5]] == list(_PROPERTY_TOLS) and rows[5].theorem == "prop_rh_ge1"
    if draws == 0:
        assert all(r.lhs == 0.0 and r.detail == {"draws": 0} for r in rows[:5])


@settings(max_examples=25, deadline=None)
@given(small_instances(), st.integers(0, 2**32 - 1))
def test_properties_equal_the_per_draw_loop_on_generated_spaces(inst, seed):
    assert_properties_match(inst, seed=seed)


@pytest.mark.parametrize("name", [*FIXTURES, "deep"])
def test_the_self_test_makes_two_cond_exp_calls_per_level(name, request, monkeypatch):
    """One `check_properties` call makes exactly 2 * n_levels public `cond_exp`
    calls, through any module's binding: the stacked draw blocks and the tower's
    inner block, one call per level each."""
    if name == "deep":
        monkeypatch.setenv("FILTERMAX_ATOM_BUDGET", "24")
        inst = gen_instance(2, depth=5, model="product", p1=2.5, p2=2.5)
    else:
        space = request.getfixturevalue(name)
        inst = Instance(space, *random_weights(np.random.default_rng(7), space.n), Exponents(2.0, 3.0), False)
    real, calls = filtermax.space.cond_exp, []

    def counted(*args, **kwargs):
        calls.append(args[2] if len(args) > 2 else kwargs["level"])
        return real(*args, **kwargs)

    for module in [m for key, m in sys.modules.items() if key == "filtermax" or key.startswith("filtermax.")]:
        if getattr(module, "cond_exp", None) is real:
            monkeypatch.setattr(module, "cond_exp", counted)
    check_properties(inst)
    assert sorted(calls) == sorted([*range(inst.space.n_levels)] * 2)


@pytest.mark.parametrize("draws", [0, 1, 40])
@pytest.mark.parametrize("name", [*FIXTURES, "deep"])
def test_the_self_test_conditions_each_draw_row_once(name, draws, request, monkeypatch):
    """Each draw row is conditioned at its own level only: across one
    `check_properties` call, the blocks passed to the public `cond_exp`, through
    any module's binding, hold 7 * draws rows, 6 * draws in the stacked block and
    draws in the tower's inner block."""
    if name == "deep":  # deep_fallback's shape
        monkeypatch.setenv("FILTERMAX_ATOM_BUDGET", "24")
        inst = gen_instance(2, depth=5, model="product", p1=2.5, p2=2.5)
    else:
        space = request.getfixturevalue(name)
        inst = Instance(space, *random_weights(np.random.default_rng(7), space.n), Exponents(2.0, 3.0), False)
    real, rows = filtermax.space.cond_exp, []

    def counted(space, f, level):
        rows.append(len(f))
        return real(space, f, level)

    for module in [m for key, m in sys.modules.items() if key == "filtermax" or key.startswith("filtermax.")]:
        if getattr(module, "cond_exp", None) is real:
            monkeypatch.setattr(module, "cond_exp", counted)
    check_properties(inst, draws)
    assert sum(rows) == 7 * draws
