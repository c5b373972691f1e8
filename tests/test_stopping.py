"""Stopping times: adaptedness, enumeration against an independent oracle,
tail-set machinery, the enumeration budget, and the heuristic search."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from filtermax import (
    EnumerationBudgetError,
    FilteredSpace,
    StoppingTime,
    adaptedness_violation,
    count_stopping_times,
    enumerate_stopping_times,
    enumerate_tail_masks,
    enumeration_budget,
    finest_mask,
    first_hit,
    heuristic_sup_over_tau,
    is_adapted,
    level_products,
    mask_points,
    stopping_time_from_tail,
)
from filtermax import stopping
from filtermax.stopping import DEFAULT_ATOM_BUDGET

from conftest import brute_force_stopping_times


# ---- StoppingTime basics --------------------------------------------------------


def test_stopping_time_value_semantics():
    a = StoppingTime(np.array([1.0, np.inf]), origin=0)
    b = StoppingTime([1.0, np.inf], origin=0)
    c = StoppingTime([1.0, np.inf], origin=1)
    assert a == b
    assert hash(a) == hash(b)
    assert a != c
    assert a.tail_set().tolist() == [0]
    assert a.tail_mask().tolist() == [True, False]


def test_adaptedness(quad):
    good = StoppingTime([1.0, 1.0, np.inf, np.inf], origin=0)
    assert adaptedness_violation(quad, good) is None
    assert is_adapted(quad, good)

    # {tau = 1} must be a union of level-1 atoms; {0} alone is not
    bad = StoppingTime([1.0, np.inf, np.inf, np.inf], origin=0)
    assert adaptedness_violation(quad, bad) is not None
    assert not is_adapted(quad, bad)

    # stopping below the origin is not allowed
    early = StoppingTime([0.0, 0.0, 0.0, 0.0], origin=1)
    assert adaptedness_violation(quad, early) is not None

    # beyond the last level is not a valid stop
    late = StoppingTime([3.0, 3.0, 3.0, 3.0], origin=0)
    assert adaptedness_violation(quad, late) is not None


def test_first_hit_hand_values(quad):
    from filtermax import cond_exp

    f = np.array([1.0, 0.0, 0.0, 0.0])
    conds = [cond_exp(quad, f, j) >= 0.5 for j in range(quad.n_levels)]
    tau = first_hit(quad, 0, conds)
    assert tau.origin == 0
    assert tau.levels.tolist() == [1.0, 1.0, np.inf, np.inf]
    assert is_adapted(quad, tau)

    # a later origin ignores earlier conditions but keeps these stops
    tau1 = first_hit(quad, 1, conds)
    assert tau1.levels.tolist() == [1.0, 1.0, np.inf, np.inf]
    with pytest.raises(ValueError):
        first_hit(quad, 0, conds[:2])


def test_first_hit_rejects_non_measurable_condition(quad):
    # condition at level 0 is not constant on the single level-0 atom
    conds = [np.array([True, False, False, False])] + [np.zeros(4, dtype=bool)] * 2
    with pytest.raises(ValueError, match=r"^condition at level 0 is not constant on atom \[0, 1, 2, 3\]$"):
        first_hit(quad, 0, conds)
    # level-then-atom order: both level-1 atoms are cut, the first one is named
    conds = [np.zeros(4, dtype=bool), np.array([False, True, True, False]), np.ones(4, dtype=bool)]
    with pytest.raises(ValueError, match=r"^condition at level 1 is not constant on atom \[0, 1\]$"):
        first_hit(quad, 0, conds)


# ---- enumeration vs the independent oracle --------------------------------------


def test_counts_hand_values(quad, pair, chain, mixed6):
    # recursion: T(leaf) = 2, T(atom) = 1 + prod T(children), count = prod over roots
    assert count_stopping_times(quad, 0) == 26  # 1 + 5*5
    assert count_stopping_times(quad, 1) == 25
    assert count_stopping_times(quad, 2) == 16
    assert count_stopping_times(pair, 0) == 5  # 1 + 2*2
    assert count_stopping_times(pair, 1) == 4
    assert count_stopping_times(chain, 0) == 6  # 1 + (1 + 2*2)
    assert count_stopping_times(chain, 1) == 5
    assert count_stopping_times(mixed6, 0) == 136  # 1 + 5*9*3
    assert count_stopping_times(mixed6, 1) == 135
    assert count_stopping_times(mixed6, 2) == 64


def test_enumerator_matches_brute_force(quad, pair, chain, mixed6):
    for space in (quad, pair, chain, mixed6):
        for i in range(space.n_levels):
            got = set(enumerate_stopping_times(space, i))
            want = brute_force_stopping_times(space, i)
            assert got == want
            assert len(got) == count_stopping_times(space, i)


def test_enumerated_are_adapted_and_distinct(quad):
    taus = list(enumerate_stopping_times(quad, 0))
    assert len(taus) == len(set(taus)) == 26
    assert all(is_adapted(quad, t) for t in taus)


# ---- tail sets -----------------------------------------------------------------


def test_tail_masks_hand_values(quad):
    masks = enumerate_tail_masks(quad, 0)
    assert len(masks) == 16
    assert list(masks) == sorted(masks)
    assert 0 in masks  # tau = infinity
    assert (1 << 4) - 1 in masks  # tau = 0

    # the achievable tails are exactly the tails of the enumerated taus
    from_taus = {finest_mask(quad, t.tail_set()) for t in enumerate_stopping_times(quad, 0)}
    assert from_taus == set(masks)


@pytest.mark.parametrize("name", ["quad", "chain", "mixed6", "lumpy5"])
def test_tail_masks_are_stopping_time_tails(name, request):
    # chain repeats its root level; lumpy5 has non-singleton finest atoms
    space = request.getfixturevalue(name)
    leaves = len(space.atoms[space.last_level])
    for i in range(space.n_levels):
        masks = enumerate_tail_masks(space, i)
        assert list(masks) == list(range(2**leaves))
        from_taus = {finest_mask(space, t.tail_set()) for t in enumerate_stopping_times(space, i)}
        assert from_taus == set(masks)


def test_tail_masks_respect_origin(chain):
    # from origin 2 any union of the singletons is a tail; from origin 0
    # the same tails arise because the chain does not split until level 2
    assert set(enumerate_tail_masks(chain, 0)) == set(enumerate_tail_masks(chain, 2))


def test_finest_mask_round_trip(mixed6):
    subset = [0, 1, 5]
    mask = finest_mask(mixed6, subset)
    assert mask_points(mixed6, mask).tolist() == subset
    assert finest_mask(mixed6, []) == 0
    assert mask_points(mixed6, 0).size == 0


@pytest.mark.parametrize("name", ["quad", "chain", "mixed6", "lumpy5"])
def test_finest_mask_matches_the_leaf_loop(name, request):
    """The leaf counts against the leaf sizes give the mask a per-leaf
    membership loop gives, and the same error for a set cutting a leaf."""
    space = request.getfixturevalue(name)
    leaves = space.atoms[space.last_level]
    rng = np.random.default_rng(29)
    for _ in range(40):
        subset = np.flatnonzero(rng.random(space.n) < 0.5)
        inside = np.zeros(space.n, dtype=bool)
        inside[subset] = True
        touched = [a for a, leaf in enumerate(leaves) if inside[leaf].any()]
        if all(inside[leaves[a]].all() for a in touched):
            assert finest_mask(space, subset) == sum(1 << a for a in touched)
            assert finest_mask(space, inside) == finest_mask(space, subset)
        else:
            with pytest.raises(ValueError, match="not measurable at the finest level"):
                finest_mask(space, subset)
    if name == "lumpy5":  # point 0 alone cuts the leaf {0, 1}
        with pytest.raises(ValueError, match="not measurable at the finest level"):
            finest_mask(space, [0, 2])


def test_stopping_time_from_tail(quad):
    for mask in enumerate_tail_masks(quad, 0):
        if mask == 0:
            continue
        tau = stopping_time_from_tail(quad, 0, mask_points(quad, mask))
        assert is_adapted(quad, tau)
        assert finest_mask(quad, tau.tail_set()) == mask
    # the empty tail is tau = infinity
    tau = stopping_time_from_tail(quad, 0, [])
    assert tau.tail_set().size == 0


def test_stopping_time_from_tail_rejects_unachievable():
    space = FilteredSpace([1.0, 1.0, 1.0, 1.0], [[[0, 1, 2, 3]], [[0, 1], [2, 3]]])
    # {0} is half of a finest atom: no stopping time has that tail
    with pytest.raises(ValueError):
        stopping_time_from_tail(space, 0, [0])


@pytest.mark.parametrize("mask", [-1, -16, 1 << 4, 1 << 7, 1 << 10, (1 << 4) | 1, np.int64(16)])
def test_out_of_range_tail_masks_are_refused(quad, mask):
    """A mask is a set of the 4 finest atoms: a negative one, or one with a bit
    at or past bit 4, names no tail (it used to give [] or every point)."""
    pattern = rf"tail mask {mask} is not a set of the 4 finest atoms"
    with pytest.raises(ValueError, match=pattern):
        mask_points(quad, mask)
    with pytest.raises(ValueError, match=pattern):
        stopping_time_from_tail(quad, 0, mask)


def test_in_range_tail_masks_are_accepted(quad):
    assert mask_points(quad, 0).tolist() == []
    assert mask_points(quad, (1 << 4) - 1).tolist() == [0, 1, 2, 3]
    assert stopping_time_from_tail(quad, 0, np.int64(15)).tail_set().tolist() == [0, 1, 2, 3]


# ---- budget -------------------------------------------------------------------


def test_budget_default_and_env(monkeypatch):
    monkeypatch.delenv("FILTERMAX_ATOM_BUDGET", raising=False)
    assert enumeration_budget() == DEFAULT_ATOM_BUDGET == 24
    monkeypatch.setenv("FILTERMAX_ATOM_BUDGET", "100")
    assert enumeration_budget() == 100


def test_budget_enforced(monkeypatch, quad):
    monkeypatch.setenv("FILTERMAX_ATOM_BUDGET", "3")
    with pytest.raises(EnumerationBudgetError) as err:
        list(enumerate_stopping_times(quad, 0))
    msg = str(err.value)
    assert "enumeration infeasible" in msg
    assert "FILTERMAX_ATOM_BUDGET" in msg
    # deeper origins need fewer atoms: levels 2..2 hold 4 <= budget? no, 4 > 3
    with pytest.raises(EnumerationBudgetError):
        enumerate_tail_masks(quad, 2)
    monkeypatch.setenv("FILTERMAX_ATOM_BUDGET", "4")
    assert len(enumerate_tail_masks(quad, 2)) == 16
    # the whole tower holds 7 atoms
    with pytest.raises(EnumerationBudgetError):
        enumerate_tail_masks(quad, 0)
    monkeypatch.setenv("FILTERMAX_ATOM_BUDGET", "7")
    assert len(enumerate_tail_masks(quad, 0)) == 16


# ---- heuristic search -----------------------------------------------------------


def test_heuristic_finds_exact_optimum_on_small_space(quad):
    """Objective: mass of the tail times an arbitrary profile — the exact
    maximum over all 16 tails is known by enumeration."""
    profile = np.array([5.0, 1.0, 0.5, 2.0])

    def objective(inside):
        return inside.astype(float) @ profile

    exact = max(
        float(profile[mask_points(quad, m)].sum())
        for m in enumerate_tail_masks(quad, 0)
        if m
    )
    val, tau = heuristic_sup_over_tau(quad, 0, objective, guide=(profile, profile))
    assert val <= exact + 1e-12
    assert val == pytest.approx(exact)
    assert is_adapted(quad, tau)
    assert objective(tau.tail_mask()[None])[0] == pytest.approx(val)


def test_heuristic_never_exceeds_exact_random(mixed6):
    rng = np.random.default_rng(42)
    for _ in range(5):
        profile = np.exp(rng.standard_normal(6))

        def objective(inside):
            # a non-monotone objective: ratio of two integrals
            chi = inside.astype(float)
            return chi @ (profile * mixed6.masses) / (chi @ mixed6.masses) ** 0.5

        exact = max(
            objective(stopping_time_from_tail(mixed6, 0, mask_points(mixed6, m)).tail_mask()[None])[0]
            for m in enumerate_tail_masks(mixed6, 0)
            if m
        )
        val, _ = heuristic_sup_over_tau(mixed6, 0, objective, guide=(profile, profile))
        assert val <= exact * (1 + 1e-12)


@pytest.mark.parametrize("name", ["quad", "pair", "chain", "mixed6", "lumpy5"])
def test_first_hit_tail_is_the_reach_above_the_threshold(name, request):
    # the search scores every threshold at once as {max_{j >= i} prods[j] > thr}
    space = request.getfixturevalue(name)
    rng = np.random.default_rng(23)
    prods = level_products(space, np.exp(rng.standard_normal(space.n)), np.exp(rng.standard_normal(space.n)))
    values = np.unique(np.concatenate(prods))
    thresholds = np.unique(np.concatenate([[0.0], values * (1 - 1e-9), values, values * (1 + 1e-9)]))
    for i in range(space.n_levels):
        reach = np.max(prods[i:], axis=0)
        for thr in thresholds:
            tau = first_hit(space, i, [pr > thr for pr in prods])
            assert np.array_equal(tau.tail_mask(), reach > thr)


@pytest.mark.parametrize("i", [0, 1])
def test_heuristic_scores_each_candidate_block_in_one_call(mixed6, i, monkeypatch):
    profile = np.exp(np.random.default_rng(29).standard_normal(6))
    blocks = []

    def objective(inside):
        blocks.append(inside.copy())
        chi = inside.astype(float)
        return chi @ (profile * mixed6.masses) / (chi @ mixed6.masses) ** 0.5

    monkeypatch.setattr(stopping, "_MAX_ROUNDS", 0)
    heuristic_sup_over_tau(mixed6, i, objective)
    # the opening family: the full stop and every single-atom stop, each
    # distinct tail once (the level-1 atom {5} is also a level-2 atom)
    assert len(blocks) == 1
    want = {tuple(atom) for t in range(i, 3) for atom in mixed6.level_atoms(t)} | {tuple(range(6))}
    assert {tuple(np.flatnonzero(row)) for row in blocks[0]} == want
    assert len(blocks[0]) == len(want)
    blocks.clear()
    heuristic_sup_over_tau(mixed6, i, objective, guide=(profile, profile))
    assert len(blocks) == 2  # opening family, then every threshold
    for rounds in (1, 3, 40):
        blocks.clear()
        monkeypatch.setattr(stopping, "_MAX_ROUNDS", rounds)
        heuristic_sup_over_tau(mixed6, i, objective, guide=(profile, profile))
        assert len(blocks) <= 2 + rounds
        # no tail is scored twice, and no empty one at all
        rows = [row.tobytes() for block in blocks for row in block if row.any()]
        assert len(rows) == sum(len(block) for block in blocks) == len(set(rows))


def test_enumeration_yields_before_materializing(quad):
    # the enumerator is a generator: taking a prefix must not build all 26
    gen = enumerate_stopping_times(quad, 0)
    first = next(gen)
    assert is_adapted(quad, first)


@pytest.mark.parametrize("name", ["quad", "pair", "chain", "mixed6", "lumpy5"])
def test_stopping_time_from_tail_matches_the_per_atom_loop(name, request):
    """Every point set and every mask from every origin: the same witness, or
    the same ValueError (lumpy5's half atoms are no tail; masks out of range)."""
    space = request.getfixturevalue(name)
    leaves = len(space.atoms[space.last_level])
    for i in range(space.n_levels):
        for bits in range(1 << space.n):
            subset = [x for x in range(space.n) if bits >> x & 1]
            want = outcome(reference_stopping_time_from_tail, space, i, subset)
            assert outcome(stopping_time_from_tail, space, i, subset) == want
            assert outcome(stopping_time_from_tail, space, i, np.asarray(subset, dtype=int)) == want
        for mask in range(-1, (1 << leaves) + 1):
            want = outcome(reference_stopping_time_from_tail, space, i, mask)
            assert outcome(stopping_time_from_tail, space, i, mask) == want


# ---- one atom-membership test ------------------------------------------------------
#
# `is_level_measurable`, `first_hit` and `adaptedness_violation` ask the same
# question, "does this point set meet a level-j atom without holding all of
# it?", through `space._cut_atoms`.  The references are the three loops they
# replaced, as they were written before.


def reference_is_level_measurable(space, level, subset):
    labels = space.atom_of[level]
    hits = np.bincount(labels[space.as_subset(subset)], minlength=len(space.atoms[level]))
    return bool(np.all((hits == 0) | (hits == np.bincount(labels))))


def reference_first_hit(space, i, conditions):
    space._check_level(i)
    if len(conditions) != space.n_levels:
        raise ValueError(f"need one condition per level (expected {space.n_levels})")
    levels = np.full(space.n, np.inf)
    for j in range(i, space.n_levels):
        cond = np.asarray(conditions[j], dtype=bool)
        if cond.shape != (space.n,):
            raise ValueError(f"condition at level {j} must have shape ({space.n},)")
        labels = space.atom_of[j]
        hits = np.bincount(labels, weights=cond)  # points of each atom where cond holds
        mixed = np.flatnonzero((hits != 0) & (hits != np.bincount(labels)))
        if mixed.size:
            atom = space.atoms[j][mixed[0]]
            raise ValueError(f"condition at level {j} is not constant on atom {atom.tolist()}")
        levels[np.isinf(levels) & cond] = j
    return StoppingTime(levels, origin=i)


def reference_adaptedness_violation(space, tau):
    lv = tau.levels
    if lv.shape != (space.n,):
        return f"levels must have shape ({space.n},)"
    finite = np.isfinite(lv)
    if np.any(lv[finite] != np.round(lv[finite])):
        return "finite stopping levels must be integers"
    if np.any(lv[finite] < tau.origin) or np.any(lv[finite] > space.last_level):
        return f"finite stopping levels must lie in {tau.origin}..{space.last_level}"
    for j in range(tau.origin, space.n_levels):
        hit = lv == j
        if not hit.any():
            continue
        for a_idx in np.unique(space.atom_of[j][hit]):
            atom = space.atoms[j][a_idx]
            if not np.all(hit[atom]):
                return f"{{tau = {j}}} cuts level-{j} atom {atom.tolist()}"
    return None


def reference_stopping_time_from_tail(space, i, tail):
    space._check_level(i)
    pts = mask_points(space, int(tail)) if isinstance(tail, (int, np.integer)) else space.as_subset(tail)
    inside = np.zeros(space.n, dtype=bool)
    inside[pts] = True
    levels = np.full(space.n, np.inf)
    for j in range(i, space.n_levels):
        for atom in space.atoms[j]:
            if np.isinf(levels[atom[0]]) and inside[atom].all():
                levels[atom] = j
    tau = StoppingTime(levels, origin=i)
    if not np.array_equal(tau.tail_mask(), inside):
        raise ValueError("tail is not achievable by any stopping time in T_i")
    return tau


def outcome(fn, *args):
    """fn's result, or the type and message of the ValueError it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return ValueError, str(exc)


@st.composite
def towers(draw):
    """Irregular towers of 1-9 points: each coarser level merges contiguous
    runs of the level below, then a permutation scatters the points, so
    atoms need not be contiguous or sorted by their first point."""
    n = draw(st.integers(1, 9))
    atoms = [[x] for x in range(n)]
    levels = [atoms]
    for _ in range(draw(st.integers(0, 3))):
        cuts = draw(st.lists(st.booleans(), min_size=len(atoms) - 1, max_size=len(atoms) - 1))
        merged = [list(atoms[0])]
        for atom, cut in zip(atoms[1:], cuts):
            if cut:
                merged.append(list(atom))
            else:
                merged[-1].extend(atom)
        atoms = merged
        levels.insert(0, atoms)
    perm = draw(st.permutations(range(n)))
    return FilteredSpace(np.ones(n), [[[perm[x] for x in atom] for atom in level] for level in levels])


def atom_unions(draw, space, level):
    """A random union of level atoms with, at times, one point flipped."""
    keep = draw(st.lists(st.booleans(), min_size=len(space.atoms[level]), max_size=len(space.atoms[level])))
    mask = np.asarray(keep)[space.atom_of[level]]
    if draw(st.booleans()):
        mask[draw(st.integers(0, space.n - 1))] ^= True
    return mask


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_atom_membership_matches_the_replaced_loops(data):
    space = data.draw(towers())
    draw = data.draw
    for level in range(space.n_levels):
        if draw(st.booleans()):
            mask = atom_unions(draw, space, level)
        else:
            mask = np.asarray(draw(st.lists(st.booleans(), min_size=space.n, max_size=space.n)))
        for subset in (mask, np.flatnonzero(mask), np.flatnonzero(mask).tolist()):
            assert space.is_level_measurable(level, subset) == reference_is_level_measurable(space, level, subset)
    i = draw(st.integers(0, space.last_level))
    conditions = [atom_unions(draw, space, j) for j in range(space.n_levels)]
    got, want = outcome(first_hit, space, i, conditions), outcome(reference_first_hit, space, i, conditions)
    assert got == want
    # a random level per point, or one per atom of a random level (adapted
    # until a point is moved)
    t = draw(st.integers(i, space.last_level))
    options = [*range(i, space.n_levels), np.inf]
    if draw(st.booleans()):
        levels = np.array([draw(st.sampled_from(options)) for _ in range(space.n)], dtype=float)
    else:
        per_atom = [draw(st.sampled_from(options[t - i :])) for _ in space.atoms[t]]
        levels = np.asarray(per_atom, dtype=float)[space.atom_of[t]]
        if draw(st.booleans()):
            levels[draw(st.integers(0, space.n - 1))] = draw(st.sampled_from(options))
    tau = StoppingTime(levels, origin=i)
    assert adaptedness_violation(space, tau) == reference_adaptedness_violation(space, tau)
    tail = atom_unions(draw, space, t)
    assert outcome(stopping_time_from_tail, space, i, tail) == outcome(reference_stopping_time_from_tail, space, i, tail)
