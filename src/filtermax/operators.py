"""Maximal operators and weighted norms on a filtered space.

All maxima run over the full level window 0..L (or a tail j >= i of it);
on a finite tower the conditional expectations are constant outside the
window, so nothing is lost by truncating.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .space import FilteredSpace, Fn, as_fn, cond_exp, weighted_cond_exp


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
    """Tail version: max over levels j >= i only (cond_exp rejects a bad level i)."""
    return _level_max(space, cond_exp, i, f, g)


def tailed_maximal(space: FilteredSpace, i: int, f: Fn) -> Fn:
    """max over levels j >= i of |E(f | F_j)| (cond_exp rejects a bad level i)."""
    return _level_max(space, cond_exp, i, f)


def weighted_maximal(space: FilteredSpace, f: Fn, sigma: Fn) -> Fn:
    """Doob maximal operator of the measure sigma dmu:

        M^sigma f = max over levels of E^sigma(|f| | F_level).

    Satisfies the Doob bound ||M^sigma f||_{L^p(sigma)} <= p' ||f||_{L^p(sigma)}
    for every p in (1, inf).
    """
    absf = np.abs(as_fn(space, f))
    return _level_max(space, lambda s, h, level: weighted_cond_exp(s, h, sigma, level), 0, absf)


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
