"""Batched exact tail sweeps and the batched heuristic search against the
per-tail scalar loops they replace.

The references below walk `enumerate_tail_masks` one tail at a time with
one `mask_points` and one operator call per tail, exactly as the library
did before its sweeps were blocked, and `reference_search` is the
heuristic search as it was before it scored candidates in blocks.  The
batched RH/S/Winf values sum in a different order, so they must agree to
REL_TOL; the Carleson sums and thm12's tail-indicator ratios keep the
scalar order and must agree bit for bit.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from filtermax import (
    CarlesonEntry,
    CarlesonFamily,
    EnumerationBudgetError,
    Exponents,
    FilteredSpace,
    Instance,
    StoppingTime,
    bilinear_maximal,
    build_level_sets,
    certify_carleson_constant,
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
    lp_norm,
    mask_points,
    maximal,
    proof_coefficients,
    sigma_from_omega,
    space_from_dict,
)
from filtermax.space import _cond
from filtermax.stopping import _BLOCK_BYTES, _tail_blocks
from filtermax.verify import _pair_norms, _tail_ratios, norm_ratio
from filtermax.weights import _sup_over_tails

REL_TOL = 1e-12
BUDGET = 64  # generated towers of 10 finest atoms can hold up to 40 atoms
FIXTURES = ["quad", "pair", "chain", "mixed6", "lumpy5"]


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
    for mask in enumerate_tail_masks(space, 0, budget=BUDGET):
        if mask == 0:
            continue
        pts = mask_points(space, mask)
        chi = space.indicator(pts)
        for name, objective in objectives.items():
            out[name][mask] = objective(pts, chi)
    return out


def scalar_carleson(space, family, sigma1, sigma2, exps):
    """(A, worst mask) by the per-tail sums, in entry and leaf order."""
    mix = sigma1 ** (exps.p / exps.p1) * sigma2 ** (exps.p / exps.p2) * space.masses
    entry_masks = [finest_mask(space, e.points) for e in family.entries]
    coeffs = family.coefficients()
    atom_mix = np.array([mix[atom].sum() for atom in space.atoms[space.last_level]])
    best = 0.0
    best_mask = None
    for mask in enumerate_tail_masks(space, family.base_level, budget=BUDGET):
        if mask == 0:
            continue
        num = sum(c for c, em in zip(coeffs, entry_masks) if em & mask == em)
        den = sum(atom_mix[a] for a in range(atom_mix.size) if mask >> a & 1)
        ratio = num / den
        if ratio > best or best_mask is None:
            best = ratio
            best_mask = mask
    return best, best_mask


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
        got = compute_constant(name, space, v, omega1, omega2, exps, mode="exact", budget=BUDGET)
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
        certified, worst = certify_carleson_constant(
            inst.space, family, inst.sigma1, inst.sigma2, inst.exps, budget=BUDGET
        )
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
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("FILTERMAX_ATOM_BUDGET", str(BUDGET))
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
        name: compute_constant(name, space, v, omega1, omega2, exps, mode="exact", budget=BUDGET).value
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


# ---- blocks ------------------------------------------------------------------


def test_blocks_cover_the_power_set_in_order(mixed6, lumpy5):
    for space in (mixed6, lumpy5):
        leaves = len(space.atoms[space.last_level])
        tails, insides = zip(*_tail_blocks(space, 0, None))
        assert np.concatenate(tails).tolist() == list(range(1, 2**leaves))
        for block_tails, inside in zip(tails, insides):
            for mask, row in zip(block_tails, inside):
                assert np.flatnonzero(row).tolist() == mask_points(space, int(mask)).tolist()


def test_blocks_slice_the_lazy_tail_enumeration():
    # 40 finest atoms: 2**40 tails, swept block by block, never materialised
    space = FilteredSpace(np.ones(40), [[list(range(40))], [[x] for x in range(40)]])
    masks = enumerate_tail_masks(space, 0, 41)
    assert isinstance(masks, range) and len(masks) == 1 << 40
    blocks = _tail_blocks(space, 0, 41)
    first, second = next(blocks)[0], next(blocks)[0]
    assert first.tolist() + second.tolist() == list(masks[1 : 1 + first.size + second.size])


@pytest.fixture(scope="module")
def wide_points():
    """4 finest atoms of 16384 points each: one row is already the whole cap,
    so every block holds a single tail."""
    n, per_leaf = 65536, 16384
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
    rows = 0
    for tails, inside in _tail_blocks(space, 0, None):
        assert inside.shape == (tails.size, n)
        assert inside.astype(float).nbytes <= _BLOCK_BYTES
        rows += tails.size
    assert rows == 15
    rng = np.random.default_rng(5)
    v, omega1, omega2 = random_weights(rng, n)
    exps = Exponents(2.0, 2.0)
    ref = scalar_tail_values(space, v, omega1, omega2, exps)["rh"]
    best = max(ref.values())
    got = compute_constant("rh", space, v, omega1, omega2, exps)
    assert abs(got.value - best) <= REL_TOL * best


def test_blocks_check_the_budget_before_building(monkeypatch, quad):
    monkeypatch.setenv("FILTERMAX_ATOM_BUDGET", "3")
    with pytest.raises(EnumerationBudgetError):
        _tail_blocks(quad, 0, None)
    assert len(list(_tail_blocks(quad, 0, 7))) == 1
    # past 62 finest atoms a tail no longer fits an int64 mask
    wide = FilteredSpace(np.ones(63), [[list(range(63))], [[x] for x in range(63)]])
    with pytest.raises(EnumerationBudgetError, match="62-bit"):
        _tail_blocks(wide, 0, 1000)


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


@pytest.mark.parametrize("name", ["quad", "wide_points"])
def test_exact_sweep_keeps_the_first_maximizer_across_blocks(name, request):
    space = request.getfixturevalue(name)

    def tied(chi, cond):
        return np.ones(chi.shape[0])

    def full_tail_nan(chi, cond):
        size = chi.sum(axis=1)
        return np.where(size == space.n, np.nan, size)

    c = _sup_over_tails(space, "T", tied, None, "exact", None)
    assert finest_mask(space, c.witness["tail"]) == 1
    # nan is skipped, as a per-tail `>` skips it: the first 3-leaf tail wins
    c = _sup_over_tails(space, "T", full_tail_nan, None, "exact", None)
    assert finest_mask(space, c.witness["tail"]) == 7
    # the search too, whether a block is one slice (quad) or one per tail
    # (wide_points): the full stop comes first, then adding leaves to a half
    c = _sup_over_tails(space, "T", tied, None, "heuristic", None)
    assert c.witness["tau"] == [0] * space.n
    c = _sup_over_tails(space, "T", full_tail_nan, None, "heuristic", None)
    assert finest_mask(space, c.witness["tail"]) == 7


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
