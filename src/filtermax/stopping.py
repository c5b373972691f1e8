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
overridable via the FILTERMAX_ATOM_BUDGET environment variable).  Exact
tail sweeps walk that power set in byte-capped numpy blocks
(`_tail_blocks`).  For larger spaces `heuristic_sup_over_tau` searches a
candidate family of stopping times and returns a certified lower bound
for the supremum.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .space import FilteredSpace, Fn, level_products

DEFAULT_ATOM_BUDGET = 24
_BUDGET_ENV = "FILTERMAX_ATOM_BUDGET"
_BLOCK_BYTES = 512 * 1024  # cap on one rows x n float64 block of a batched tail sweep
_MAX_MASK_BITS = 62  # finest atoms a tail mask can hold in an int64


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


def _check_budget(space: FilteredSpace, i: int, budget: int | None) -> None:
    """Raise EnumerationBudgetError unless the T_i tails can be swept exactly:
    at most `budget` atoms at levels i..L, and a tail mask that fits an int64."""
    limit = enumeration_budget() if budget is None else budget
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
        for a_idx, atom in enumerate(space.atoms[j]):
            vals = cond[atom]
            if vals.any() != vals.all():
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


def enumerate_stopping_times(
    space: FilteredSpace, i: int = 0, budget: int | None = None
) -> Iterator[StoppingTime]:
    """Yield every adapted tau >= i exactly once (including tau = infinity).

    Raises EnumerationBudgetError when the refinement forest at levels
    i..L exceeds the atom budget.
    """
    space._check_level(i)
    _check_budget(space, i, budget)

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
    idx = space.as_subset(subset)
    mask = 0
    for a_idx in np.unique(space.atom_of[space.last_level][idx]):
        atom = space.atoms[space.last_level][a_idx]
        if not np.isin(atom, idx, assume_unique=True).all():
            raise ValueError("set is not measurable at the finest level")
        mask |= 1 << int(a_idx)
    return mask


def mask_points(space: FilteredSpace, mask: int) -> np.ndarray:
    """Sorted point indices of a finest-atom bit mask."""
    parts = [
        space.atoms[space.last_level][a]
        for a in range(len(space.atoms[space.last_level]))
        if mask >> a & 1
    ]
    if not parts:
        return np.empty(0, dtype=np.int64)
    return np.sort(np.concatenate(parts))


def enumerate_tail_masks(space: FilteredSpace, i: int = 0, budget: int | None = None) -> list[int]:
    """All distinct sets {tau < infinity} over tau in T_i, as finest-atom masks.

    Every union of finest atoms is a T_i tail (stop at level L on exactly
    those atoms) and every tail is such a union, so this is the power set
    of the finest atoms: the masks 0 .. 2**leaves - 1 in ascending order,
    0 being the tail of tau = infinity.  Guarded by the same atom budget
    as `enumerate_stopping_times`.
    """
    space._check_level(i)
    _check_budget(space, i, budget)
    return list(range(1 << len(space.atoms[space.last_level])))


def _tail_blocks(
    space: FilteredSpace, i: int, budget: int | None
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The nonempty T_i tails in blocks, for batched exact sweeps.

    Checks the atom budget when called, before any block is built, then
    yields (tails, inside): an int64 array of consecutive masks from
    1 .. 2**leaves - 1 in ascending order, and the matching rows x n
    boolean point membership.  The row count keeps one rows x n float64
    block within _BLOCK_BYTES (a block has at least one row, so a space
    of more than _BLOCK_BYTES / 8 points exceeds it by that one row).
    """
    space._check_level(i)
    _check_budget(space, i, budget)
    leaf_of = space.atom_of[space.last_level]
    rows = max(1, _BLOCK_BYTES // (8 * space.n))
    end = 1 << len(space.atoms[space.last_level])

    def blocks() -> Iterator[tuple[np.ndarray, np.ndarray]]:
        for lo in range(1, end, rows):
            tails = np.arange(lo, min(lo + rows, end), dtype=np.int64)
            yield tails, (tails[:, None] >> leaf_of & 1).astype(bool)

    return blocks()


def stopping_time_from_tail(space: FilteredSpace, i: int, tail) -> StoppingTime:
    """Canonical witness with the given tail: stop at the first level whose
    atom is contained in the tail.

    `tail` is a finest-atom mask, index array, or boolean mask; it must be
    an achievable T_i tail (a union of atoms at levels >= i), else ValueError.
    """
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


# ---- heuristic search ------------------------------------------------------


def _antichain_of(space: FilteredSpace, tau: StoppingTime) -> list[tuple[int, int]]:
    """The stopped atoms (level, atom index) of an adapted tau."""
    out = []
    for j in range(tau.origin, space.n_levels):
        hit = tau.levels == j
        if not hit.any():
            continue
        for a_idx in np.unique(space.atom_of[j][hit]):
            out.append((j, int(a_idx)))
    return sorted(out)


def _tau_from_antichain(space: FilteredSpace, i: int, chain: Sequence[tuple[int, int]]) -> StoppingTime:
    levels = np.full(space.n, np.inf)
    for t, a in chain:
        levels[space.atoms[t][a]] = t
    return StoppingTime(levels, origin=i)


def heuristic_sup_over_tau(
    space: FilteredSpace,
    i: int,
    objective: Callable[[StoppingTime], float],
    guide: tuple[Fn, Fn] | None = None,
    threshold_count: int = 32,
    max_rounds: int = 40,
) -> tuple[float, StoppingTime]:
    """Lower-bound search for sup over tau in T_i of objective(tau).

    Candidates: first-hit times of level-product thresholds (when a guide
    pair of positive weights is supplied), every single-atom stop, the
    full stop tau = i, then greedy hill climbing on the antichain of
    stopped atoms (refine / merge / drop / add moves).  Every candidate is
    a genuine adapted stopping time, so the result never exceeds the true
    supremum.  Empty-tail candidates are skipped.
    """
    space._check_level(i)
    best: tuple[float, StoppingTime] | None = None

    def consider(tau: StoppingTime) -> float | None:
        nonlocal best
        if not tau.tail_mask().any():
            return None
        val = float(objective(tau))
        if best is None or val > best[0]:
            best = (val, tau)
        return val

    # full stop and single-atom stops
    consider(StoppingTime(np.full(space.n, float(i)), origin=i))
    for t in range(i, space.n_levels):
        for a_idx in range(len(space.atoms[t])):
            consider(_tau_from_antichain(space, i, [(t, a_idx)]))

    # first-hit thresholds on the guide product
    if guide is not None:
        g1, g2 = guide
        prods = level_products(space, g1, g2)
        values = np.unique(np.concatenate([pr[pr > 0] for pr in prods]))
        if values.size:
            lo, hi = float(values[0]), float(values[-1])
            grid = np.geomspace(lo, hi, num=threshold_count) if hi > lo else np.array([lo])
            thresholds = np.unique(np.concatenate([grid, values * (1.0 - 1e-9), values]))
            for thr in thresholds:
                conds = [pr > thr for pr in prods]
                consider(first_hit(space, i, conds))

    assert best is not None
    # greedy improvement on the antichain
    chain = _antichain_of(space, best[1])
    for _ in range(max_rounds):
        current = best[0]
        moves: list[list[tuple[int, int]]] = []
        covered = np.zeros(space.n, dtype=bool)
        for t, a in chain:
            covered[space.atoms[t][a]] = True
        for idx, (t, a) in enumerate(chain):
            rest = chain[:idx] + chain[idx + 1 :]
            moves.append(rest)  # drop
            if t < space.last_level:  # refine into children
                moves.append(rest + [(t + 1, c) for c in space.children(t, a)])
            if t > i:  # merge into the parent atom, absorbing siblings
                parent = int(space.atom_of[t - 1][space.atoms[t][a][0]])
                p_atom = space.atoms[t - 1][parent]
                keep = [
                    (tt, aa)
                    for tt, aa in rest
                    if not np.isin(space.atoms[tt][aa], p_atom, assume_unique=True).any()
                ]
                moves.append(keep + [(t - 1, parent)])
        for t in range(i, space.n_levels):  # add a disjoint atom
            for a_idx, atom in enumerate(space.atoms[t]):
                if not covered[atom].any():
                    moves.append(chain + [(t, a_idx)])
        improved = False
        for move in moves:
            val = consider(_tau_from_antichain(space, i, sorted(set(move))))
            if val is not None and val > current:
                improved = True
        if not improved:
            break
        chain = _antichain_of(space, best[1])
    return best
