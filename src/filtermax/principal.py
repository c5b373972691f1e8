"""Principal sets: a stopping-time decomposition that linearizes the
tailed bilinear maximal operator into a sparse sum.

Given nonnegative h1, h2, a base level i, a level-i measurable seed set
Omega0, and a shell exponent k with

    P0 = { 4^(k-1) < E_i(h1) E_i(h2) <= 4^k }  intersect  Omega0

of positive mass, the forest is grown recursively: a node P carrying
(K1, K2) spawns the first-hit time

    tau_P(x) = inf { j >= K1 : E_j(h1)(x) E_j(h2)(x) > 4^(K2+1) }   on P,

and its children are the nonempty shell pieces

    { 4^(l-1) < E_j(h1) E_j(h2) <= 4^l }  intersect  {tau_P = j}  intersect  P

over finite hit levels j and shell exponents l (automatically j > K1 and
l >= K2 + 2).  The exit set E(P) removes the children from P.  The
resulting family satisfies:

  P.1  the exit sets partition P0;
  P.2  each node is a union of its level-K1 atoms;
  P.3  1_P <= 2 E(1_{E(P)} | F_K1) on P  (so mu(P) <= 2 mu(E(P)));
  P.4  4^(K2-1) < E_K1(h1) E_K1(h2) <= 4^K2 on P;
  P.5  sup_{j>=i} E_j(h1 1_P) E_j(h2 1_P) <= 4^(K2+1) on E(P);

and the sparse bound 16 * sum over nodes of 4^(K2-1) 1_{E(P)} dominates
the tailed bilinear maximal function of (h1 1_P0, h2 1_P0) pointwise on
P0, with the base-level supremum localizing: the tailed operator of the
truncated pair agrees on P0 with the tailed operator of (h1, h2).  The space
keeps the level products of (h1, h2), so `occupied_shells`, every forest of
`forest_cover` and `verify_properties` share one computation of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .operators import _level_max, tailed_bilinear_maximal
from .space import FilteredSpace, Fn, _cond, as_fn, level_products

_NO_SHELL = np.iinfo(np.int64).min  # shell of a zero product
MAX_K2 = 510  # the largest K2 whose sparse-bound term 16 * 4^(K2-1) = 2^(2 K2 + 2) is a finite float


def shell_index(x: float, base: float = 4.0) -> int:
    """The unique integer l with base^(l-1) < x <= base^l (x > 0 finite).

    base must be a power of two, 2^b.  With x = m 2^e from frexp
    (1/2 <= m < 1), the smallest integer c with x <= 2^c is e - 1 when
    m = 1/2 and e otherwise, and l = ceil(c / b).  Everything is integer
    arithmetic on the exact exponent, so boundary values land on the
    correct side and no power of the base is ever formed (4^512 would
    overflow a double).
    """
    if not (x > 0 and math.isfinite(x)):
        raise ValueError(f"shell index needs a finite x > 0, got {x!r}")
    b_mant, b_exp = math.frexp(base)
    if b_mant != 0.5 or b_exp < 2:
        raise ValueError(f"shell base must be a power of two above 1, got {base!r}")
    return int(_shells(np.float64(x), b_exp - 1))


def _shells(x: np.ndarray, bits: int = 2) -> np.ndarray:
    """`shell_index` elementwise for base 2^bits by the same exponent arithmetic,
    on finite x >= 0, as int64; x = 0 gets _NO_SHELL, below every finite shell."""
    if not np.isfinite(x).all():
        raise ValueError("shell index needs finite values")
    mant, exp = np.frexp(x)
    c = exp.astype(np.int64) - (mant == 0.5)
    return np.where(x > 0, -(-c // bits), _NO_SHELL)


@dataclass(frozen=True)
class PrincipalSet:
    """One node of the forest: point set, stopping data, exit set, children."""

    points: np.ndarray
    k1: int
    k2: int
    generation: int
    exit_points: np.ndarray
    children: tuple["PrincipalSet", ...]

    def __iter__(self) -> Iterator["PrincipalSet"]:
        yield self
        for child in self.children:
            yield from child


@dataclass(frozen=True)
class PrincipalForest:
    """The full construction for one (i, k, Omega0, h1, h2) quintuple."""

    space: FilteredSpace
    base_level: int
    base_k: int
    omega0: np.ndarray
    h1: Fn
    h2: Fn
    root: PrincipalSet

    def nodes(self) -> list[PrincipalSet]:
        return list(self.root)

    @property
    def n_nodes(self) -> int:
        return sum(1 for _ in self.root)


def build_principal_forest(space: FilteredSpace, i: int, k: int, omega0, h1: Fn, h2: Fn) -> PrincipalForest | None:
    """Grow the forest; returns None when P0 is empty.

    h1, h2 must be nonnegative; omega0 must be level-i measurable.
    """
    space._check_level(i)
    h1, h2 = as_fn(space, h1), as_fn(space, h2)
    if (h1 < 0).any() or (h2 < 0).any():
        raise ValueError("h1 and h2 must be nonnegative")
    omega0 = space.as_subset(omega0)
    if not space.is_level_measurable(i, omega0):
        raise ValueError(f"Omega0 must be a union of level-{i} atoms")
    prods = level_products(space, h1, h2)
    # integer shells of the level products: 4^(k2+1) itself overflows for k2 >= 511
    shells = [_shells(pr) for pr in prods]

    p0_mask = np.zeros(space.n, dtype=bool)
    p0_mask[omega0] = shells[i][omega0] == k
    if not p0_mask.any():
        return None

    def grow(points: np.ndarray, k1: int, k2: int, generation: int) -> PrincipalSet:
        remaining = np.zeros(space.n, dtype=bool)  # points of this node not yet stopped
        remaining[points] = True
        children: list[PrincipalSet] = []
        # a product above 4^(K2+1) is one whose shell exceeds K2 + 1
        assert not (shells[k1][points] > k2 + 1).any(), "node violates its own shell bound"
        for j in range(k1 + 1, space.n_levels):
            hit = remaining & (shells[j] > k2 + 1)
            if not hit.any():
                continue
            remaining &= ~hit
            for l in np.unique(shells[j][hit]).tolist():
                assert l >= k2 + 2, "child shell must jump by at least two"
                children.append(grow(np.flatnonzero(hit & (shells[j] == l)), j, l, generation + 1))
        # every hit point went to the child of its own shell: E(P) is what was never hit
        return PrincipalSet(
            points=points,
            k1=k1,
            k2=k2,
            generation=generation,
            exit_points=np.flatnonzero(remaining),
            children=tuple(children),
        )

    root = grow(np.flatnonzero(p0_mask), i, k, 1)
    return PrincipalForest(space=space, base_level=i, base_k=k, omega0=omega0, h1=h1, h2=h2, root=root)


def occupied_shells(space: FilteredSpace, i: int, omega0, h1: Fn, h2: Fn) -> list[int]:
    """Shell exponents k for which P0 is nonempty."""
    space._check_level(i)
    vals = level_products(space, h1, h2)[i][space.as_subset(omega0)]
    return np.unique(_shells(vals[vals > 0])).tolist()


def forest_cover(space: FilteredSpace, i: int, omega0, h1: Fn, h2: Fn) -> list[PrincipalForest]:
    """One forest per occupied shell k; their P0's tile
    Omega0 intersect {E_i(h1) E_i(h2) > 0}.  The space keeps the level products
    of (h1, h2), so every forest of the cover shares one computation."""
    forests = [build_principal_forest(space, i, k, omega0, h1, h2) for k in occupied_shells(space, i, omega0, h1, h2)]
    assert None not in forests, "occupied shell produced an empty P0"
    return forests


def sparse_bound(forest: PrincipalForest) -> Fn:
    """16 * sum over nodes of 4^(K2-1) 1_{E(P)} — zero off P0.  ValueError naming
    K2 when a node with exit points has K2 > MAX_K2, whose term overflows a float."""
    out = np.zeros(forest.space.n)
    for node in forest.root:
        if node.k2 > MAX_K2 and node.exit_points.size:
            raise ValueError(f"sparse bound 16 * 4^(K2-1) overflows a float at a node with K2 = {node.k2} > {MAX_K2}")
        out[node.exit_points] += 16.0 * 4.0 ** (node.k2 - 1)
    return out


@dataclass(frozen=True)
class PropertyReport:
    """Outcome of checking P.1..P.5 plus the doubling bound on one forest.

    Margins are signed slacks (>= 0 means the property holds):
      p3_margin    min over nodes/points of 2 E(1_{E(P)}|F_K1) - 1,
      p5_margin    min over nodes of the relative gap
                   (4^(K2+1) - sup) / 4^(K2+1) on the exit set,
      doubling_margin  min over nodes of 2 mu(E(P)) - mu(P), relative to mu(P).
    """

    n_nodes: int
    p1_ok: bool
    p2_ok: bool
    p3_margin: float
    p4_ok: bool
    p5_margin: float
    doubling_margin: float
    max_doubling_ratio: float

    _CUSHION = 1e-12  # float comparisons of independently-rounded aggregates

    @property
    def p3_ok(self) -> bool:
        return self.p3_margin >= -self._CUSHION

    @property
    def p5_ok(self) -> bool:
        return self.p5_margin >= -self._CUSHION

    @property
    def doubling_ok(self) -> bool:
        return self.doubling_margin >= -self._CUSHION

    @property
    def ok(self) -> bool:
        return self.p1_ok and self.p2_ok and self.p3_ok and self.p4_ok and self.p5_ok and self.doubling_ok


def verify_properties(forest: PrincipalForest) -> PropertyReport:
    """Evaluate P.1–P.5 and the doubling bound exactly on every node."""
    space = forest.space
    prods = level_products(space, forest.h1, forest.h2)
    root = forest.root

    # P.1: exit sets are pairwise disjoint and tile P0
    counts = np.zeros(space.n, dtype=np.int64)
    for node in root:
        counts[node.exit_points] += 1
    p0_mask = np.zeros(space.n, dtype=bool)
    p0_mask[root.points] = True
    p1_ok = bool((counts[p0_mask] == 1).all() and (counts[~p0_mask] == 0).all())

    p2_ok = True
    p4_ok = True
    p3_margin = np.inf
    p5_margin = np.inf
    doubling_margin = np.inf
    max_ratio = 0.0
    for node in root:
        if not space.is_level_measurable(node.k1, node.points):
            p2_ok = False
        if not (_shells(prods[node.k1][node.points]) == node.k2).all():
            p4_ok = False
        exit_ind = space.indicator(node.exit_points)
        cover = 2.0 * _cond(space, exit_ind, node.k1) - 1.0
        p3_margin = min(p3_margin, float(cover[node.points].min()))
        chi = space.indicator(node.points)
        tail_max = _level_max(space, forest.base_level, forest.h1 * chi, forest.h2 * chi)
        if node.exit_points.size:
            # (cap - sup) / cap with cap = 4^(K2+1), without forming cap (it overflows
            # above K2 = 510); scaling by a power of two is exact, so the float is the same
            sup = float(tail_max[node.exit_points].max())
            p5_margin = min(p5_margin, 1.0 - math.ldexp(sup, -2 * (node.k2 + 1)))
        mu_p = space.measure(node.points)
        mu_exit = space.measure(node.exit_points)
        doubling_margin = min(doubling_margin, (2.0 * mu_exit - mu_p) / mu_p)
        if mu_exit > 0:
            max_ratio = max(max_ratio, mu_p / mu_exit)
        else:
            max_ratio = np.inf
    return PropertyReport(
        n_nodes=forest.n_nodes,
        p1_ok=p1_ok,
        p2_ok=p2_ok,
        p3_margin=p3_margin,
        p4_ok=p4_ok,
        p5_margin=p5_margin,
        doubling_margin=doubling_margin,
        max_doubling_ratio=max_ratio,
    )


@dataclass(frozen=True)
class DominationReport:
    """Sparse bound vs the tailed bilinear maximal function on P0."""

    bound: Fn
    operator: Fn          # tailed operator of (h1 1_P0, h2 1_P0)
    operator_global: Fn   # tailed operator of (h1, h2), for the localization identity
    min_slack: float      # min over P0 of bound - operator
    tightest_point: int
    localization_gap: float  # max over P0 of |operator - operator_global|

    @property
    def scale(self) -> float:
        """Tolerance scale: the largest finite bound entry, at least 1.  An
        infinite entry (`sparse_bound` refuses to make one) must not excuse every
        point."""
        finite = self.bound[np.isfinite(self.bound)]
        return max(float(np.max(finite, initial=0.0)), 1.0)

    @property
    def ok(self) -> bool:
        scale = self.scale
        return self.min_slack >= -1e-12 * scale and self.localization_gap <= 1e-12 * scale


def sparse_domination_report(forest: PrincipalForest) -> DominationReport:
    """Check the sparse bound dominates the tailed operator pointwise on P0."""
    space = forest.space
    chi = space.indicator(forest.root.points)
    op_local = tailed_bilinear_maximal(space, forest.base_level, forest.h1 * chi, forest.h2 * chi)
    op_global = tailed_bilinear_maximal(space, forest.base_level, forest.h1, forest.h2)
    bound = sparse_bound(forest)
    p0 = forest.root.points
    slack = bound[p0] - op_local[p0]
    arg = int(np.argmin(slack))
    gap = float(np.max(np.abs(op_local[p0] - op_global[p0])))
    return DominationReport(
        bound=bound,
        operator=op_local,
        operator_global=op_global,
        min_slack=float(slack[arg]),
        tightest_point=int(p0[arg]),
        localization_gap=gap,
    )

