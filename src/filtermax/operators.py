"""Maximal operators and weighted norms on a filtered space.

All maxima run over the full level window 0..L (or a tail j >= i of it);
on a finite tower the conditional expectations are constant outside the
window, so nothing is lost by truncating.

Each public operator checks its level and arrays once, on entry, and then
takes every level's conditional expectation on the unchecked kernel
`space._cond` (or `space._weighted_cond`).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .space import FilteredSpace, Fn, _cond, _weighted_cond, _weighted_pair, as_fn
from .space import cond_exp  # noqa: F401  (bench/tests expects this module to bind it)


def _level_max(space: FilteredSpace, cond: Callable, start: int, f: Fn, g: Fn | None = None) -> Fn:
    """max over levels j >= start of |cond(space, f, j)|, or of |cond(space, f, j) cond(space, g, j)|
    when g is given.  cond returns a fresh array, made absolute in place: a second array per
    level made the batched S sweep about a quarter slower."""
    out = cond(space, f, start) if g is None else cond(space, f, start) * cond(space, g, start)
    np.abs(out, out=out)
    for level in range(start + 1, space.n_levels):
        term = cond(space, f, level) if g is None else cond(space, f, level) * cond(space, g, level)
        np.maximum(out, np.abs(term, out=term), out=out)
    return out


def maximal(space: FilteredSpace, f: Fn) -> Fn:
    """Doob maximal function Mf = max over levels of |E(f | F_level)|."""
    return tailed_maximal(space, 0, f)


def bilinear_maximal(space: FilteredSpace, f: Fn, g: Fn) -> Fn:
    """max over levels of |E(f | F_level)| |E(g | F_level)| (same level for both)."""
    return tailed_bilinear_maximal(space, 0, f, g)


def tailed_bilinear_maximal(space: FilteredSpace, i: int, f: Fn, g: Fn) -> Fn:
    """Tail version: max over levels j >= i only."""
    space._check_level(i)
    return _level_max(space, _cond, i, as_fn(space, f), as_fn(space, g))


def tailed_maximal(space: FilteredSpace, i: int, f: Fn) -> Fn:
    """max over levels j >= i of |E(f | F_j)|."""
    space._check_level(i)
    return _level_max(space, _cond, i, as_fn(space, f))


def weighted_maximal(space: FilteredSpace, f: Fn, sigma: Fn) -> Fn:
    """Doob maximal operator of the measure sigma dmu:

        M^sigma f = max over levels of E^sigma(|f| | F_level).

    Satisfies the Doob bound ||M^sigma f||_{L^p(sigma)} <= p' ||f||_{L^p(sigma)}
    for every p in (1, inf).
    """
    f_sigma, sigma = _weighted_pair(space, np.abs(as_fn(space, f)), sigma)
    return _level_max(space, lambda s, h, level: _weighted_cond(s, h, sigma, level), 0, f_sigma)


def lp_norm(space: FilteredSpace, f: Fn, weight: Fn, p: float, subset=None) -> float:
    """(integral over the subset of |f|^p weight dmu)^(1/p); weight >= 0, p > 0."""
    if not p > 0:
        raise ValueError(f"p must be positive, got {p!r}")
    f = as_fn(space, f)
    weight = as_fn(space, weight)
    if np.any(weight < 0):
        raise ValueError("weight must be nonnegative")
    dens = np.abs(f) ** p * weight * space.masses
    if subset is None:
        total = float(dens.sum())
    else:
        total = float(dens[space.as_subset(subset)].sum())
    return total ** (1.0 / p)
