"""Adapted stopping times on a filtered space.

A stopping time assigns each point a level in {i, ..., L} or infinity,
such that {tau = j} is a union of level-j atoms for every finite j.  The
family of all such assignments with tau >= i is denoted T_i; the sets
{tau < infinity} realizable by T_i tails are exactly the unions of
pairwise-disjoint atoms drawn from levels i..L (antichains in the
refinement forest).  Since every atom is a union of finest atoms and
stopping at level L is allowed from any origin, these are exactly the
2**leaves unions of finest atoms, whatever i is.

Exhaustive enumeration is exponential in the forest, so it is guarded by
an atom budget (number of (level, atom) pairs at levels i..L, default 24,
set only by the FILTERMAX_ATOM_BUDGET environment variable).  The exact
RH, S, Winf and thm12 suprema walk that power set through one sweep,
`_sweep_tails`, in blocks of 2**b consecutive masks aligned on 2**b
(`_low_bits`), at most 128 KiB as n-point float64 rows (1024 tails on 16
points): within a block the low b finest atoms run through every pattern and
the others stay fixed, which lets the exact weight constants read every sum
over a tail from subset-sum tables (`weights._TailTables`).  For larger spaces
`heuristic_sup_over_tau` searches a candidate family of stopping times and
returns a certified lower bound for the supremum.  The sweep and the
search take one objective contract, objective(inside) -> values for a
k x n boolean block of tails (the sweep's `read` may hand the objective
another view of the block), and keep the first maximizer through one
loop, `_block_max`.  The search keys each candidate
tail by its finest atoms, a Python int of any width (an antichain's key is
the sum of its atoms' keys, a move's one int operation on it, a threshold's
from one packbits of its leaves), so its memo compares ints and builds
boolean rows for new tails only.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .space import FilteredSpace, Fn, _cut_atoms, level_products

DEFAULT_ATOM_BUDGET = 24
_BUDGET_ENV = "FILTERMAX_ATOM_BUDGET"
# Cap on one rows x n float64 block of a batched tail sweep.  An exact S or Winf
# objective holds one or two temporaries of at most a block's size (its level maxima
# on the low and set high leaves; the finest level, powers and weighted sum apply in
# place), a heuristic one also the 0/1 block, level means and gathers: at 128 KiB
# they fit a 2 MiB L2 together, and each is at glibc's default mmap threshold, so it
# may be faulted in afresh.  Exact RH, S and Winf may move by ulps with the cap: it
# splits a tail's low and high leaves.
_BLOCK_BYTES = 128 * 1024
_MAX_MASK_BITS = 62  # finest atoms a tail mask can hold in an int64
_MAX_ROUNDS = 40  # hill-climbing rounds of the heuristic search


class EnumerationBudgetError(RuntimeError):
    """Exhaustive stopping-time enumeration refused: forest too large."""


def enumeration_budget() -> int:
    raw = os.environ.get(_BUDGET_ENV)
    if raw is None:
        return DEFAULT_ATOM_BUDGET
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"{_BUDGET_ENV} must be an integer, got {raw!r}") from exc
    if value <= 0:
        raise ValueError(f"{_BUDGET_ENV} must be positive, got {value}")
    return value


def _check_budget(space: FilteredSpace, i: int) -> None:
    """Raise EnumerationBudgetError unless the T_i tails can be swept exactly:
    at most the budget's atoms at levels i..L, and a tail mask in an int64."""
    limit = enumeration_budget()
    count = space.atom_count(from_level=i)
    if count > limit:
        raise EnumerationBudgetError(
            f"enumeration infeasible: {count} atoms at levels {i}..{space.last_level} "
            f"exceed the budget of {limit} (raise {_BUDGET_ENV} to override)"
        )
    leaves = len(space.atoms[space.last_level])
    if leaves > _MAX_MASK_BITS:
        raise EnumerationBudgetError(
            f"enumeration infeasible: {leaves} finest atoms do not fit a {_MAX_MASK_BITS}-bit tail mask"
        )


@dataclass(frozen=True)
class StoppingTime:
    """Per-point stopping levels (np.inf = never stops) with origin i.

    levels[x] is in {origin, ..., L} or np.inf; adaptedness means each
    finite level set {tau = j} is a union of level-j atoms.
    """

    levels: np.ndarray
    origin: int

    def __post_init__(self):
        arr = np.asarray(self.levels, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "levels", arr)

    def tail_mask(self) -> np.ndarray:
        """Boolean mask of {tau < infinity}."""
        return np.isfinite(self.levels)

    def tail_set(self) -> np.ndarray:
        return np.flatnonzero(np.isfinite(self.levels))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, StoppingTime)
            and self.origin == other.origin
            and np.array_equal(self.levels, other.levels)
        )

    def __hash__(self) -> int:
        return hash((self.origin, self.levels.tobytes()))


def adaptedness_violation(space: FilteredSpace, tau: StoppingTime) -> str | None:
    """None when tau is a valid member of T_origin, else a description."""
    lv = tau.levels
    if lv.shape != (space.n,):
        return f"levels must have shape ({space.n},)"
    finite = np.isfinite(lv)
    if (lv[finite] != np.round(lv[finite])).any():
        return "finite stopping levels must be integers"
    if (lv[finite] < tau.origin).any() or (lv[finite] > space.last_level).any():
        return f"finite stopping levels must lie in {tau.origin}..{space.last_level}"
    for j in range(tau.origin, space.n_levels):
        cut = _cut_atoms(space, j, lv == j)
        if cut.size:
            return f"{{tau = {j}}} cuts level-{j} atom {space.atoms[j][cut[0]].tolist()}"
    return None


def is_adapted(space: FilteredSpace, tau: StoppingTime) -> bool:
    return adaptedness_violation(space, tau) is None


def first_hit(space: FilteredSpace, i: int, conditions: Sequence[np.ndarray]) -> StoppingTime:
    """tau(x) = first level j >= i whose condition holds at x (inf if none).

    conditions[j] is a boolean function for each level j = 0..L; entries
    below the origin are ignored.  Each used condition must be constant on
    the atoms of its level (otherwise the result would not be adapted).
    """
    space._check_level(i)
    if len(conditions) != space.n_levels:
        raise ValueError(f"need one condition per level (expected {space.n_levels})")
    levels = np.full(space.n, np.inf)
    for j in range(i, space.n_levels):
        cond = np.asarray(conditions[j], dtype=bool)
        if cond.shape != (space.n,):
            raise ValueError(f"condition at level {j} must have shape ({space.n},)")
        mixed = _cut_atoms(space, j, cond)
        if mixed.size:
            atom = space.atoms[j][mixed[0]]
            raise ValueError(f"condition at level {j} is not constant on atom {atom.tolist()}")
        levels[np.isinf(levels) & cond] = j
    return StoppingTime(levels, origin=i)


# ---- exhaustive enumeration ----------------------------------------------


def count_stopping_times(space: FilteredSpace, i: int = 0) -> int:
    """Independent count oracle: T(leaf atom) = 2, T(atom) = 1 + prod T(children),
    total = prod over level-i atoms."""
    space._check_level(i)

    def t_count(level: int, a_idx: int) -> int:
        if level == space.last_level:
            return 2
        prod = 1
        for c in space.children(level, a_idx):
            prod *= t_count(level + 1, c)
        return 1 + prod

    total = 1
    for a_idx in range(len(space.atoms[i])):
        total *= t_count(i, a_idx)
    return total


def enumerate_stopping_times(space: FilteredSpace, i: int = 0) -> Iterator[StoppingTime]:
    """Yield every adapted tau >= i exactly once (including tau = infinity).

    Raises EnumerationBudgetError when the refinement forest at levels
    i..L exceeds the atom budget.
    """
    space._check_level(i)
    _check_budget(space, i)

    def atom_options(level: int, a_idx: int) -> list[np.ndarray]:
        # assignments restricted to this atom, aligned with its point order
        atom = space.atoms[level][a_idx]
        out = [np.full(atom.size, float(level))]
        if level == space.last_level:
            out.append(np.full(atom.size, np.inf))
            return out
        kids = space.children(level, a_idx)
        kid_opts = [atom_options(level + 1, c) for c in kids]
        pos = np.empty(space.n, dtype=np.int64)
        pos[atom] = np.arange(atom.size)
        slots = [pos[space.atoms[level + 1][c]] for c in kids]
        for combo in itertools.product(*kid_opts):
            arr = np.empty(atom.size)
            for slot, vals in zip(slots, combo):
                arr[slot] = vals
            out.append(arr)
        return out

    roots = list(range(len(space.atoms[i])))
    root_opts = [atom_options(i, a) for a in roots]
    for combo in itertools.product(*root_opts):
        levels = np.empty(space.n)
        for a_idx, vals in zip(roots, combo):
            levels[space.atoms[i][a_idx]] = vals
        yield StoppingTime(levels, origin=i)


# ---- tail sets ------------------------------------------------------------
#
# Tail sets are represented as bit masks over the finest-level atoms (every
# achievable tail is a union of those), which makes unions and the subset
# tests needed by the Carleson condition cheap integer operations.


def finest_mask(space: FilteredSpace, subset) -> int:
    """Bit mask over level-L atoms for a measurable point set."""
    if not space.is_level_measurable(space.last_level, subset):
        raise ValueError("set is not measurable at the finest level")
    return sum(1 << a for a in np.unique(space.atom_of[space.last_level][space.as_subset(subset)]).tolist())


def mask_points(space: FilteredSpace, mask: int) -> np.ndarray:
    """Sorted point indices of a finest-atom bit mask; ValueError for a
    negative mask or one with a bit at or past the number of finest atoms."""
    leaves = len(space.atoms[space.last_level])
    if not 0 <= mask < 1 << leaves:
        raise ValueError(f"tail mask {mask} is not a set of the {leaves} finest atoms (0 <= mask < 2**{leaves})")
    bits = [mask >> a & 1 for a in range(leaves)]
    return np.flatnonzero(np.array(bits, dtype=bool)[space.atom_of[space.last_level]])


def enumerate_tail_masks(space: FilteredSpace, i: int = 0) -> range:
    """All distinct sets {tau < infinity} over tau in T_i, as finest-atom masks.

    Every union of finest atoms is a T_i tail (stop at level L on exactly
    those atoms) and every tail is such a union, so this is the power set
    of the finest atoms: the masks 0 .. 2**leaves - 1 in ascending order,
    0 being the tail of tau = infinity, as a `range` so that nothing is
    materialised.  Guarded by the same atom budget as
    `enumerate_stopping_times`; the exact sweeps take their tails from here.
    """
    space._check_level(i)
    _check_budget(space, i)
    return range(1 << len(space.atoms[space.last_level]))


def _block_rows(space: FilteredSpace) -> int:
    """Tails per block: as many n-point float64 rows as fit _BLOCK_BYTES, at least one."""
    return max(1, _BLOCK_BYTES // (8 * space.n))


def _low_bits(space: FilteredSpace) -> int:
    """b of the exact sweep's blocks: the largest b with 2**b <= `_block_rows`, at
    most the number of finest atoms."""
    return min(_block_rows(space).bit_length() - 1, len(space.atoms[space.last_level]))


def _block_max(blocks: Iterable[tuple[int, np.ndarray]], best: float = -np.inf) -> tuple[float, tuple | None]:
    """The one first-maximizer loop: (value, (tag, row)) of the first maximum over
    blocks (tag, values), nan skipped, if it beats `best`, else (best, None); a
    block's first maximizer wins only when strictly larger, as a per-value `>`."""
    found = None
    for tag, vals in blocks:
        k = int(np.argmax(np.where(np.isnan(vals), -np.inf, vals)))
        if vals[k] > best:
            best, found = float(vals[k]), (tag, k)
    return best, found


def _point_block(space: FilteredSpace, lo: int, hi: int) -> np.ndarray:
    """The tails of masks lo..hi-1 as a (hi - lo) x n boolean block of points."""
    tails = np.arange(lo, hi, dtype=np.int64)
    return (tails[:, None] >> space.atom_of[space.last_level] & 1).astype(bool)


def _sweep_tails(
    space: FilteredSpace,
    i: int,
    objective: Callable,
    read: Callable[[int, int], object] | None = None,
) -> tuple[float, int]:
    """(max, first mask attaining it) of objective(block) over the nonempty T_i
    tails of `enumerate_tail_masks`, which checks the atom budget first.  The
    masks go in ascending order, in blocks of 2**b aligned on 2**b (b of
    `_low_bits`), the first from mask 1: within a block
    the low b finest atoms run through every pattern and the others stay fixed.
    read(lo, hi) makes the block of masks lo..hi-1, by default `_point_block`, at
    most _BLOCK_BYTES as float64 (or one row).  ValueError if every value is nan."""
    masks = enumerate_tail_masks(space, i)
    width = 1 << _low_bits(space)
    read = read or (lambda lo, hi: _point_block(space, lo, hi))

    def blocks() -> Iterator[tuple[int, np.ndarray]]:
        lo = 1
        while lo < len(masks):
            hi = (lo | (width - 1)) + 1  # the end of lo's aligned block
            yield lo, objective(read(lo, hi))
            lo = hi

    best_val, found = _block_max(blocks())
    if found is None:
        raise ValueError(f"tail objective is nan (or -inf) on all {len(masks) - 1} nonempty T_{i} tails")
    return best_val, found[0] + found[1]


def stopping_time_from_tail(space: FilteredSpace, i: int, tail) -> StoppingTime:
    """Canonical witness with the given tail: stop at the first level whose
    atom is contained in the tail.

    `tail` is a finest-atom mask (checked as `mask_points` checks it), index
    array, or boolean mask; it must be an achievable T_i tail (a union of
    atoms at levels >= i), else ValueError.
    """
    space._check_level(i)
    pts = mask_points(space, int(tail)) if isinstance(tail, (int, np.integer)) else space.as_subset(tail)
    inside = np.zeros(space.n, dtype=bool)
    inside[pts] = True
    levels = np.full(space.n, np.inf)
    for j in range(i, space.n_levels):
        labels = space.atom_of[j]
        full = np.bincount(labels, weights=inside, minlength=len(space.atoms[j])) == np.bincount(labels)
        levels[full[labels] & np.isinf(levels)] = j  # an atom inside a stopped one is stopped whole
    tau = StoppingTime(levels, origin=i)
    if not np.array_equal(tau.tail_mask(), inside):
        raise ValueError("tail is not achievable by any stopping time in T_i")
    return tau


# ---- heuristic search ------------------------------------------------------


def _atom_keys(space: FilteredSpace) -> tuple[tuple[int, ...], ...]:
    """Each atom's tail key, keys[t][a]: the finest-atom mask (as `finest_mask`,
    a Python int of any width) of atom a of level t, summed up from its children;
    built once per tower."""
    tower = space._tower
    if tower.keys is None:
        keys = [[1 << a for a in range(len(space.atoms[space.last_level]))]]
        for t in range(space.last_level, 0, -1):
            keys.insert(0, [0] * len(space.atoms[t - 1]))
            for a, parent in enumerate(space.parents[t].tolist()):
                keys[0][parent] += keys[1][a]
        tower.keys = tuple(map(tuple, keys))
    return tower.keys


def _packed_keys(leaf_bits: np.ndarray) -> list[int]:
    """The keys of the rows of a k x leaves boolean block (bit a of row r's key is
    leaf_bits[r, a]), from one packbits."""
    packed = np.packbits(leaf_bits, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _key_bits(space: FilteredSpace, keys: Sequence[int]) -> np.ndarray:
    """The tails with the given finest-atom keys, as a C-ordered k x leaves
    boolean block (bit a of key r at [r, a]), from one unpackbits."""
    leaves = len(space.atoms[space.last_level])
    width = (leaves + 7) // 8
    packed = np.frombuffer(b"".join(key.to_bytes(width, "little") for key in keys), dtype=np.uint8)
    return np.unpackbits(packed.reshape(len(keys), width), axis=1, count=leaves, bitorder="little").view(bool)


def _key_rows(space: FilteredSpace, keys: Sequence[int]) -> np.ndarray:
    """The tails with the given finest-atom keys, as a C-ordered k x n boolean
    block (the layout fixes the order in which an objective sums a row: each
    as its 1-d `.sum()`)."""
    return _key_bits(space, keys).take(space.atom_of[space.last_level], axis=1)


def _first_scores(space: FilteredSpace, objective: Callable) -> Callable[[Sequence[int]], np.ndarray]:
    """The objective by tail keys, each distinct tail scored once (a fifth of
    the search's candidates repeat a tail it has scored): a slice's new nonempty
    tails go to it in one call, one row each in order of first appearance, built
    from their keys only; the empty tail (key 0) is nan."""
    scores = {0: np.nan}

    def scored(keys: Sequence[int]) -> np.ndarray:
        fresh = [key for key in dict.fromkeys(keys) if key not in scores]
        if fresh:
            scores.update(zip(fresh, np.asarray(objective(_key_rows(space, fresh)), dtype=float)))
        return np.array([scores[key] for key in keys])

    return scored


def _moves(space: FilteredSpace, i: int, chain: Sequence[tuple[int, int]]) -> list[tuple[int, int, tuple | None]]:
    """The search's moves on an antichain of T_i atoms, in order, as (tail key, key
    of the chain atoms it removes, atom it adds or None), each key in O(1) from
    the chain's: drop an atom; merge it into its parent, whose chain atoms lie
    inside it (a laminar family); add a disjoint atom.  Refining an atom keeps
    the tail, whose score is the best so far, so it is no move."""
    keys = _atom_keys(space)
    covered = sum(keys[t][a] for t, a in chain)  # the atoms are disjoint
    moves = []
    for t, a in chain:
        moves.append((covered - keys[t][a], keys[t][a], None))
        if t > i:
            up = int(space.parents[t][a])
            moves.append((covered | keys[t - 1][up], keys[t - 1][up], (t - 1, up)))
    for t in range(i, space.n_levels):
        moves += [(covered + key, 0, (t, a)) for a, key in enumerate(keys[t]) if not key & covered]
    return moves


def heuristic_sup_over_tau(
    space: FilteredSpace,
    i: int,
    objective: Callable[[np.ndarray], np.ndarray],
    guide: tuple[Fn, Fn] | None = None,
) -> tuple[float, StoppingTime]:
    """Lower-bound search for the sup over tau in T_i of a tail objective.

    objective(inside) maps a k x n boolean block of tails {tau < inf} to k
    values, as in `_sweep_tails`; it scores each distinct nonempty tail once
    (`_first_scores`), per candidate block: the full stop tau = i and every
    single-atom stop; the first-hit times of the distinct positive level
    products and of one threshold below the least (given a guide pair of
    positive weights); the moves of each round of greedy hill climbing
    (`_moves`).  Candidates are keyed by their finest atoms (`_atom_keys`), so
    only new tails become rows; a block is scored in slices of an exact sweep's
    block, so memory stays linear in the points, and its first maximizer is
    kept as `_block_max` keeps it.  Every candidate is adapted, so the result
    never exceeds the true supremum.  ValueError if the objective is nan (or
    -inf) on every opening and threshold candidate.
    """
    space._check_level(i)
    best_val = -np.inf
    scored = _first_scores(space, objective)
    rows = _block_rows(space)  # tails per call, as in an exact sweep block
    atom_keys = _atom_keys(space)

    def winner(keys: Sequence[int]) -> int | None:
        """Index of the first maximizer of the tails keyed `keys` if it beats the best so far."""
        nonlocal best_val
        slices = ((lo, scored(keys[lo : lo + rows])) for lo in range(0, len(keys), rows))
        best_val, found = _block_max(slices, best_val)
        return None if found is None else found[0] + found[1]

    # full stop and single-atom stops
    opening = [[(i, a) for a in range(len(space.atoms[i]))]]
    opening += [[(t, a)] for t in range(i, space.n_levels) for a in range(len(space.atoms[t]))]
    tried = len(opening)
    k = winner([sum(atom_keys[i]), *(key for keys in atom_keys[i:] for key in keys)])
    chain = None if k is None else opening[k]

    # first-hit thresholds on the guide product
    if guide is not None:
        prods = level_products(space, *guide)
        values = np.unique(np.concatenate([pr[pr > 0] for pr in prods]))
        if values.size:
            # every other threshold sets the same conditions {pr > thr} as one of these
            thresholds = np.concatenate([values[:1] * (1.0 - 1e-9), values])
            tried += len(thresholds)
            # the first hit of {prods[j] > thr}, j >= i, stops exactly on {reach > thr},
            # a union of finest atoms, read at each one's first point
            reach = np.max(prods[i:], axis=0)[[atom[0] for atom in space.atoms[space.last_level]]]
            k = winner([key for lo in range(0, len(thresholds), rows)
                        for key in _packed_keys(reach > thresholds[lo : lo + rows, None])])
            if k is not None:
                stop = first_hit(space, i, [pr > thresholds[k] for pr in prods]).levels
                hit = np.flatnonzero(np.isfinite(stop)).tolist()
                chain = sorted({(int(stop[x]), int(space.atom_of[int(stop[x])][x])) for x in hit})

    if chain is None:
        raise ValueError(f"tail objective is nan (or -inf) on all {tried} T_{i} search candidates")
    for _ in range(_MAX_ROUNDS):  # greedy improvement on the antichain
        moves = _moves(space, i, chain)
        k = winner([move[0] for move in moves])
        if k is None:
            break
        _, cut, atom = moves[k]  # the chain atoms that meet `cut` go, `atom` comes
        chain = sorted([(t, a) for t, a in chain if not atom_keys[t][a] & cut] + ([atom] if atom else []))
    levels = np.full(space.n, np.inf)
    for t, a in chain:
        levels[space.atoms[t][a]] = t
    return best_val, StoppingTime(levels, origin=i)
