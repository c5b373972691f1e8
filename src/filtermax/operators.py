"""Maximal operators and weighted norms on a filtered space.

All maxima run over the full level window 0..L (or a tail j >= i of it);
on a finite tower the conditional expectations are constant outside the
window, so nothing is lost by truncating.

Each public operator checks its level and arrays once, on entry, and then
takes the maximum over levels on atoms, of the unchecked kernel
`space._level_means` (or any means of its contract: every level's atom
means from `start` down, in one call), and reads it at the points once,
in C order.  The maximum itself, on the finest atoms (`_leaf_max`), also
serves the exact weight sweeps, whose level means come from subset-sum
tables.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .space import FilteredSpace, Fn, _level_means, _to_points, _weighted_pair, as_fn
from .space import cond_exp  # noqa: F401  (bench/tests expects this module to bind it)


def _level_max(space: FilteredSpace, start: int, f: Fn, g: Fn | None = None, means=_level_means) -> Fn:
    """max over levels j >= start of |E_j(f)|, or of |E_j(f) E_j(g)|, at every point.
    means(space, f, start) returns E_j(f) per atom for j = start..L, (atoms_j,) or
    (k, atoms_j) each, fresh, and each level is made absolute in place (a copy per
    level slowed the S sweep by a quarter).  The maximum is read at the points
    once, in C order, whichever kernel took the means."""
    terms = means(space, f, start)
    if g is not None:
        terms = [np.multiply(a, b, out=a) for a, b in zip(terms, means(space, g, start))]
    return _to_points(space, _leaf_max(space, start, [np.abs(t, out=t) for t in terms]), space.last_level)


def _leaf_max(space: FilteredSpace, start: int, terms: list[np.ndarray]) -> np.ndarray:
    """max over levels j >= start of terms[j - start] on the finest atoms, terms
    being fresh level-j atom values, updated in place.  The maximum runs top-down,
    cur = max(cur[..., parent_j], term_j), on the values a per-point maximum takes,
    so every bit is the same."""
    cur = terms[0]
    for level, t in enumerate(terms[1:], start + 1):
        cur = np.maximum(cur[..., space.parents[level]], t, out=t)
    return cur


def maximal(space: FilteredSpace, f: Fn) -> Fn:
    """Doob maximal function Mf = max over levels of |E(f | F_level)|."""
    return tailed_maximal(space, 0, f)


def bilinear_maximal(space: FilteredSpace, f: Fn, g: Fn) -> Fn:
    """max over levels of |E(f | F_level)| |E(g | F_level)| (same level for both)."""
    return tailed_bilinear_maximal(space, 0, f, g)


def tailed_bilinear_maximal(space: FilteredSpace, i: int, f: Fn, g: Fn) -> Fn:
    """Tail version: max over levels j >= i only."""
    space._check_level(i)
    return _level_max(space, i, as_fn(space, f), as_fn(space, g))


def tailed_maximal(space: FilteredSpace, i: int, f: Fn) -> Fn:
    """max over levels j >= i of |E(f | F_j)|."""
    space._check_level(i)
    return _level_max(space, i, as_fn(space, f))


def weighted_maximal(space: FilteredSpace, f: Fn, sigma: Fn) -> Fn:
    """Doob maximal operator of the measure sigma dmu:

        M^sigma f = max over levels of E^sigma(|f| | F_level).

    Satisfies the Doob bound ||M^sigma f||_{L^p(sigma)} <= p' ||f||_{L^p(sigma)}
    for every p in (1, inf).
    """
    f_sigma, sigma = _weighted_pair(space, np.abs(as_fn(space, f)), sigma)
    return _level_max(space, 0, f_sigma, means=_ratio_means(sigma))


def _ratio_means(sigma: np.ndarray) -> Callable[[FilteredSpace, np.ndarray, int], list[np.ndarray]]:
    """The means of `weighted_maximal`, for `_level_max`: E_j(h) / E_j(sigma) per
    atom, sigma one function or one per row of h."""
    return lambda s, h, start: [a / b for a, b in zip(_level_means(s, h, start), _level_means(s, sigma, start))]


def lp_norm(space: FilteredSpace, f: Fn, weight: Fn, p: float, subset=None) -> float:
    """(integral over the subset of |f|^p weight dmu)^(1/p); weight >= 0, 0 < p < inf."""
    if not 0 < p < float("inf"):
        raise ValueError(f"p must be positive and finite, got {p!r}")
    f = as_fn(space, f)
    weight = as_fn(space, weight)
    if (weight < 0).any():
        raise ValueError("weight must be nonnegative")
    dens = np.abs(f) ** p * weight * space.masses
    if subset is None:
        total = float(dens.sum())
    else:
        total = float(dens[space.as_subset(subset)].sum())
    return _power(total, 1.0 / p, "(integral of |f|^p weight)^(1/p)")


def _power(x: float, e: float, what: str) -> float:
    """x ** e of Python floats, the one power of a reported value: a result past
    float range raises a ValueError naming the quantity `what`."""
    try:
        return x**e
    except OverflowError:
        raise ValueError(f"{what}: {x!r} ** {e!r} overflows a float") from None
