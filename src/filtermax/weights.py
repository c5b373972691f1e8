"""Bilinear Muckenhoupt-type weight characteristics.

Five constants for a triple (v, omega1, omega2) of strictly positive
weights and a Hölder pair (p1, p2):

* the joint A-characteristic (level/atom maximum),
* the reverse-Hölder constant [RH] (supremum over stopping-time tails),
* the bilinear testing/sparse constant [S] (supremum over tails),
* the exp-log (Hruščëv-type) constant [B] (level/atom maximum),
* the two-weight M-product constant [W∞] (supremum over tails).

The dual weights sigma_s = omega_s^{-1/(p_s - 1)} are derived internally.
Tail suprema run over T_0 — on a finite tower the T_i tail families are
nested decreasingly in i, so the i = 0 supremum is the binding one.
Each tail constant has one objective of a `_Tails` view of a block of tails:
its 0/1 rows, each tail's sums of the constant's densities and of a block
inside it (`inside_sum`), their level means and level maxima; the mode picks
only the view and the maximizer.  Exact mode evaluates the objective on every
union of finest atoms through `stopping._sweep_tails` (refused past the atom
budget), on the finest atoms ("leaves"), on which everything the objectives
compute is constant: every sum over a tail is a subset-sum table's entry for
its low leaves plus the fixed high leaves' sum (`_TailTables` on
`_tail_layout`).  Heuristic mode scores the stopping-time search's candidates
at the points (`_PointTails`: the one-bincount means `space._level_means`),
which yields a certified lower bound.  Every other sum over a row of a block,
in either mode, is `_Tails.row_sum` or `inside_sum`, in numpy's fixed order, so
no value depends on the BLAS library or its kernel.  A and B take their
weights' means of every level, side by side, from one `_level_sums` bincount,
and their first maximum in one pass over every atom.  `_duals` derives the dual
weights and their Hölder product once per space and weights, for every
constant; a dual weight that is not finite and strictly positive raises a
ValueError naming it and its first such point, as the loader and `gen` do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .operators import _leaf_max
from .space import Exponents, FilteredSpace, Fn, _level_means, _level_sums, _positive, _remember, _to_points, as_fn
from .space import cond_exp  # noqa: F401  (bench/tests expects this module to bind it)
from .stopping import (
    _block_max,
    _check_budget,
    _low_bits,
    _span_bits,
    _sweep_tails,
    heuristic_sup_over_tau,
    stopping_time_from_tail,
)

EXACT = "exact"
HEURISTIC = "heuristic"


@dataclass(frozen=True)
class WeightConstant:
    """A named characteristic with the mode it was computed in and a witness.

    mode is "exact" (true maximum) or "lower-bound" (heuristic search).
    The witness locates where the value is attained: {"level", "atom"} for
    atom maxima, {"origin", "tail"} for tail suprema.  A value that is not
    finite (its objective overflowed there) raises a ValueError naming both.
    """

    name: str
    value: float
    mode: str
    witness: dict

    def __post_init__(self):
        if not math.isfinite(self.value):
            where = ", ".join(f"{key} {self.witness[key]}" for key in ("level", "atom", "tail") if key in self.witness)
            raise ValueError(f"constant {self.name} is {self.value!r} at {where}, past float range")

    def __float__(self) -> float:
        return self.value


def sigma_from_omega(omega: Fn, p_s: float) -> Fn:
    """Dual weight sigma = omega^(-1/(p_s - 1)); involutive under p_s -> p_s'."""
    if not p_s > 1:
        raise ValueError(f"exponent must exceed 1, got {p_s!r}")
    omega = np.asarray(omega, dtype=float)
    if (omega <= 0).any():
        raise ValueError("omega must be strictly positive")
    return omega ** (-1.0 / (p_s - 1.0))


def _mix(x: Fn, y: Fn, exps: Exponents) -> Fn:
    """The Hölder product x^(p/p1) y^(p/p2)."""
    return x ** (exps.p / exps.p1) * y ** (exps.p / exps.p2)


def _duals(space: FilteredSpace, omega1: Fn, omega2: Fn, exps: Exponents) -> tuple[Fn, Fn, Fn]:
    """(sigma1, sigma2, _mix(sigma1, sigma2)) of strictly positive omegas, read-only,
    each sigma_s checked finite and strictly positive (p_s near 1 overflows it or
    underflows it to 0).  The last result is kept on the space (`_remember`), keyed by
    the exponents and the omegas' bytes, so the constants of one instance share it."""
    omegas = (_positive(space, omega1, "omega1"), _positive(space, omega2, "omega2"))

    def compute() -> tuple[Fn, Fn, Fn]:
        sigmas = []
        for s, omega, p_s in zip((1, 2), omegas, (exps.p1, exps.p2)):
            with np.errstate(all="ignore"):
                sigma = sigma_from_omega(omega, p_s)
            bad = np.flatnonzero(~(np.isfinite(sigma) & (sigma > 0)))
            if bad.size:
                x = int(bad[0])
                raise ValueError(
                    f"field 'sigma{s}' = omega{s}^(-1/(p{s} - 1)) with p{s} = {p_s!r} is "
                    f"{float(sigma[x])!r} at point {x}, not finite and strictly positive"
                )
            sigmas.append(sigma)
        return (*sigmas, _mix(*sigmas, exps))

    return _remember(space, "duals", (exps, omegas[0].tobytes(), omegas[1].tobytes()), compute)


def _tau_witness(tau) -> dict:
    # stop levels as ints with None for "never" keeps the record JSON-clean
    levels = [int(x) if np.isfinite(x) else None for x in tau.levels]
    return {"origin": tau.origin, "tail": tau.tail_set().tolist(), "tau": levels}


def _atom_max(space: FilteredSpace, name: str, density: Callable, *weights: Fn) -> WeightConstant:
    """The first maximum of density(*means) over the atoms of every level, the
    means being each weight's atom means of every level side by side, levels in
    order, from one `_level_sums` bincount over the stacked weights (each mean is
    `_level_means`' bit for bit).  One pass finds the first maximum in level
    order, then atom order, as a per-level loop where a later level wins only
    when strictly larger."""
    sums, bounds = _level_sums(space, np.stack(weights))
    with np.errstate(over="ignore"):  # an atom past float range scores inf, which WeightConstant refuses
        values = density(*(sums / np.concatenate(space.atom_mass)))
    best_val, found = _block_max([(0, values)])
    k = found[1] if found else 0
    level = next(j for j, (_, hi) in enumerate(bounds) if k < hi)
    witness = {"level": level, "atom": space.atoms[level][k - bounds[level][0]].tolist()}
    return WeightConstant(name, best_val, EXACT, witness)


def a_p_constant(space: FilteredSpace, v: Fn, omega1: Fn, omega2: Fn, exps: Exponents) -> WeightConstant:
    """max over levels and atoms of E(v) E(sigma1)^(p/p1') E(sigma2)^(p/p2')."""
    v = _positive(space, v, "v")
    sigma1, sigma2, _ = _duals(space, omega1, omega2, exps)
    e1, e2 = exps.p / exps.p1_prime, exps.p / exps.p2_prime
    return _atom_max(space, "A", lambda mv, m1, m2: mv * m1**e1 * m2**e2, v, sigma1, sigma2)


def b_p_constant(space: FilteredSpace, v: Fn, omega1: Fn, omega2: Fn, exps: Exponents) -> WeightConstant:
    """max over levels and atoms of
    E(v) E(sigma1)^p E(sigma2)^p / exp E(log(sigma1^(p/p1) sigma2^(p/p2)))."""
    v = _positive(space, v, "v")
    sigma1, sigma2, mix = _duals(space, omega1, omega2, exps)
    p = exps.p
    log_mix = as_fn(space, np.log(mix))
    return _atom_max(
        space, "B", lambda mv, m1, m2, mlog: mv * m1**p * m2**p / np.exp(mlog), v, sigma1, sigma2, log_mix
    )


class _Tails:
    """A block of k nonempty tails as a tail objective reads it, for the constant's
    densities d_0, d_1, ... (each a function times the masses): chi, the k x width
    0/1 tails; densities[s], d_s summed over each column of the width; row_sum(x,
    s), the sums over each row of a k x width x weighted by d_s; inside_sum(x, s),
    row_sum(x * chi, s), which may overwrite x; total(s), the (k,) sums of d_s over
    each tail; means(s), the fresh (k, atoms_j) level means E_j(chi d_s / mu) per
    atom, j = 0..L; level_max(s[, t]), fresh, max over levels of E_j(chi d_s / mu)
    [E_j(chi d_t / mu)] at the width (chi and the densities are nonnegative).  The
    width is the points (`_PointTails`) or finest atoms (`_LeafTails`: a block's
    low and set high leaves).  A row sum is numpy's `sum(axis=1)`, whose order the
    block's layout fixes: a C-ordered row adds as its 1-d `.sum()`, an F-ordered
    block adds its columns in order."""

    space: FilteredSpace
    chi: np.ndarray
    densities: tuple | np.ndarray

    def row_sum(self, x: np.ndarray, s: int) -> np.ndarray:
        return (x * self.densities[s]).sum(axis=1)

    def inside_sum(self, x: np.ndarray, s: int) -> np.ndarray:
        return self.row_sum(x * self.chi, s)

    def total(self, s: int) -> np.ndarray:
        return self.row_sum(self.chi, s)

    def level_max(self, *s: int) -> np.ndarray:
        terms = self.means(s[0])
        for t in s[1:]:
            terms = [np.multiply(a, b, out=a) for a, b in zip(terms, self.means(t))]
        return _leaf_max(self.space, 0, terms)


class _PointTails(_Tails):
    """The search's blocks, at the points, C-ordered: the level means are
    `_level_means` bincounts, and the level maximum is read at the points."""

    def __init__(self, space: FilteredSpace, densities: tuple, inside: np.ndarray):
        self.space, self.densities, self.chi = space, densities, inside.astype(float)

    def means(self, s: int) -> list[np.ndarray]:
        return _level_means(self.space, self.chi, 0, self.densities[s])

    def level_max(self, *s: int) -> np.ndarray:
        return _to_points(self.space, super().level_max(*s), self.space.last_level)


def _tail_layout(space: FilteredSpace) -> tuple[int, np.ndarray, np.ndarray, list[int]]:
    """The exact sweep's layout of a block, cached on the tower by b (`_low_bits`):
    b; the b x 2**b 0/1 patterns of the low b finest atoms (column r holds the
    bits of r); each finest atom's atom at every coarser level, as a leaves x C
    0/1 matrix whose columns are the atoms of levels 0..L-1 in order, then one
    column for the whole tail; and the first column of each of those levels,
    then C - 1."""
    bits = _low_bits(space)
    cached = space._tower.layouts.get(bits)
    if cached is None:
        leaves = len(space.atoms[space.last_level])
        patterns = (np.arange(1 << bits) >> np.arange(bits)[:, None] & 1).astype(float)
        firsts = [int(atom[0]) for atom in space.atoms[space.last_level]]
        starts = np.cumsum([0, *(len(level) for level in space.atoms[:-1])]).tolist()
        onehot = np.zeros((leaves, starts[-1] + 1))
        for start, labels in zip(starts, space.atom_of[:-1]):
            onehot[np.arange(leaves), start + labels[firsts]] = 1.0
        onehot[:, -1] = 1.0
        for arr in (patterns, onehot):
            arr.setflags(write=False)
        cached = space._tower.layouts[bits] = bits, patterns, onehot, starts
    return cached


class _TailTables:
    """The exact sweep's sums, built once per constant on `_tail_layout`: each
    finest atom's ("leaf's") sum of every density, in point order, and mean;
    subset-sum tables over the low b leaves, built in ascending bit order so that
    a pattern's row adds its leaves in ascending order, of each density's atom
    sums at every level 0..L-1 and its total, stored one row per column, so that a
    block's means broadcast along rows and its level maximum gathers rows; and on
    first use the `low_table`s, noting in `finite` whether every leaf's value in
    them is finite.  All are read-only: the objectives work in place.
    `read(lo, hi)` is the block of masks lo..hi-1 of `_sweep_tails`, and
    `read_totals(lo, hi)` the span of blocks of a `_span_bits` sweep."""

    def __init__(self, space: FilteredSpace, densities: tuple):
        self.space = space
        self.bits, self.patterns, onehot, self.starts = _tail_layout(space)
        leaves, self.width = onehot.shape
        self.coarse_mass = np.concatenate([*space.atom_mass[:-1], []])[:, None]
        sums = [np.bincount(space.atom_of[-1], weights=d, minlength=leaves) for d in densities]
        self.leaf_sums = np.array(sums).reshape(len(densities), leaves)
        self.leaf_means = self.leaf_sums / space.atom_mass[-1]
        # leaf l's row: its sum of each density at its atom's column of every coarse level and at the total's
        self.rows = (self.leaf_sums.T[:, :, None] * onehot[:, None, :]).reshape(leaves, -1)
        table = np.zeros((1 << self.bits, self.rows.shape[1]))
        for bit in range(self.bits):
            np.add(table[: 1 << bit], self.rows[bit], out=table[1 << bit : 2 << bit])
        self.table = np.ascontiguousarray(table.T)
        for arr in (self.leaf_sums, self.leaf_means, self.rows, self.table):
            arr.setflags(write=False)
        self._low_tables: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}
        self.finite = True

    def low_table(self, kind: str, *s: int) -> tuple[np.ndarray, np.ndarray]:
        """Chi times the product over s of `kind` ("leaf_means" or "leaf_sums";
        ones for no s) for every low pattern, a row per low leaf, and its high
        leaves' values; cached."""
        key = (kind, *s)
        if key not in self._low_tables:
            values = getattr(self, kind)[list(s)].prod(axis=0)
            self.finite &= bool(np.isfinite(values).all())
            low, high = self.patterns * values[: self.bits, None], values[self.bits :]
            for arr in (low, high):
                arr.setflags(write=False)
            self._low_tables[key] = low, high
        return self._low_tables[key]

    def read(self, lo: int, hi: int) -> _LeafTails:
        return _LeafTails(self, lo, hi)

    def read_totals(self, lo: int, hi: int) -> _SpanTotals:
        return _SpanTotals(self, lo, hi)


class _LeafTails(_Tails):
    """The exact sweep's blocks, on the finest atoms, on which everything the
    objectives compute is constant.  Within a block the low b leaves run through
    the patterns low..low+k-1 and the high leaves are fixed: a total or a coarse
    level's atom sums are the table's entries plus the high leaves' sum (added in
    ascending order, from 0), and chi times a per-leaf value is a `low_table`'s
    entries and the high leaves' values.  The width is the block's `leaves`: the
    low ones and the set high ones, in ascending order, or with `every_leaf` (and
    in a one-row block, which adds pairwise as its 1-d `.sum()`) every leaf.  A
    high leaf outside every tail of the block would add only its 0.0 to each row,
    where its values are finite.  The level maximum gathers the coarse levels'
    maximum at the leaves (0 on a one-level tower); it and `inside_sum` apply the
    finest level in place.  Arrays are built a row per atom or leaf and handed out
    transposed, so a row sum adds its leaves in ascending order."""

    def __init__(self, tables: _TailTables, lo: int, hi: int, every_leaf: bool = False):
        self.space, self.tables, self.span = tables.space, tables, (lo, hi)
        bits, leaves = tables.bits, len(tables.rows)
        high = [leaf for leaf in range(bits, leaves) if lo >> leaf & 1]  # the set high leaves
        kept = range(bits, leaves) if every_leaf or hi - lo == 1 else high
        self.leaves = np.array([*range(bits), *kept], dtype=np.intp)
        self.high_at = self.leaves[bits:] - bits  # the kept high leaves among a low table's high values
        # and their bits, None when every one is set
        self.fixed = None if kept is high else np.array([lo >> leaf & 1 for leaf in kept], dtype=float)
        self.high = sum((tables.rows[leaf] for leaf in high), np.zeros(tables.rows.shape[1]))
        low = lo & ((1 << bits) - 1)
        self.low = slice(low, low + hi - lo)

    def every_leaf(self) -> _LeafTails:
        """The same block on every leaf."""
        return _LeafTails(self.tables, *self.span, every_leaf=True)

    @cached_property
    def densities(self) -> np.ndarray:
        return self.tables.leaf_sums[:, self.leaves]

    def _apply(self, op: np.ufunc, x: np.ndarray, kind: str, *s: int) -> np.ndarray:
        """x = op(x, chi times `low_table(kind, *s)`'s values), in place."""
        bits, (low, high) = self.tables.bits, self.tables.low_table(kind, *s)
        op(x[:, :bits], low[:, self.low].T, out=x[:, :bits])
        values = high[self.high_at] if self.fixed is None else self.fixed * high[self.high_at]
        op(x[:, bits:], values, out=x[:, bits:])
        return x

    def _zeros(self) -> np.ndarray:
        return np.zeros((len(self.leaves), self.low.stop - self.low.start)).T

    @cached_property
    def chi(self) -> np.ndarray:
        return self._apply(np.add, self._zeros(), "leaf_means")

    def _sums(self, lo: int, hi: int) -> np.ndarray:
        """Each tail's sums of the table's columns lo..hi-1, one row per column."""
        return self.tables.table[lo:hi, self.low] + self.high[lo:hi, None]

    def total(self, s: int) -> np.ndarray:
        at = (s + 1) * self.tables.width - 1
        return self._sums(at, at + 1)[0]

    def inside_sum(self, x: np.ndarray, s: int) -> np.ndarray:
        return self._apply(np.multiply, x, "leaf_sums", s).sum(axis=1)

    def _coarse_means(self, s: int) -> list[np.ndarray]:
        at, starts = s * self.tables.width, self.tables.starts
        coarse = self._sums(at, at + starts[-1])
        coarse /= self.tables.coarse_mass
        return [coarse[a:b].T for a, b in zip(starts, starts[1:])]

    def means(self, s: int) -> list[np.ndarray]:
        return [*self._coarse_means(s), self._apply(np.add, self._zeros(), "leaf_means", s)]

    def level_max(self, *s: int) -> np.ndarray:
        terms = self._coarse_means(s[0])
        for t in s[1:]:
            terms = [np.multiply(a, b, out=a) for a, b in zip(terms, self._coarse_means(t))]
        m = _leaf_max(self.space, 0, terms).T[self.space.parents[-1][self.leaves]].T if terms else self._zeros()
        return self._apply(np.maximum, m, "leaf_means", *s)


class _SpanTotals:
    """The exact RH sweep's spans of masks lo..hi-1 (`_span_bits`), whole blocks
    of `_LeafTails`, read through `total` only.  Each block's high leaves' sums of
    the totals come from a subset-sum table over the span's varying high leaves,
    built in ascending bit order, with its fixed set high leaves added after it in
    ascending order, so each adds its set high leaves in ascending order from 0,
    as a block's `_LeafTails` does; a tail's total is its low pattern's table
    entry plus its block's, so every total keeps the block's bits."""

    def __init__(self, tables: _TailTables, lo: int, hi: int):
        bits, leaves = tables.bits, len(tables.rows)
        base = 0 if lo == 1 else lo  # the first block's first mask: a span is aligned but for mask 0
        blocks = (hi - base) >> bits
        vary = (blocks - 1).bit_length()  # the span's varying high leaves: bits..bits+vary-1
        self.at = [(s + 1) * tables.width - 1 for s in range(len(tables.leaf_sums))]
        totals = tables.rows[:, self.at]
        self.highs = np.zeros((blocks, len(self.at)))
        for bit in range(vary):
            np.add(self.highs[: 1 << bit], totals[bits + bit], out=self.highs[1 << bit : 2 << bit])
        for leaf in range(bits + vary, leaves):
            if base >> leaf & 1:
                self.highs += totals[leaf]
        self.tables, self.skip = tables, lo - base

    def total(self, s: int) -> np.ndarray:
        return (self.tables.table[self.at[s]] + self.highs[:, s, None]).ravel()[self.skip :]


def _sup_over_tails(
    space: FilteredSpace,
    name: str,
    block_objective: Callable,
    guide: tuple[Fn, Fn] | None,
    mode: str,
    weights=(),
    totals_only: bool = False,
) -> WeightConstant:
    """Maximize an objective of the tail over T_0 tails.

    block_objective(tails) scores a block of k nonempty tails, one value per row,
    from a `_Tails` view of the densities, the weights times the masses (sigma_s
    gives the means E(chi sigma_s | F_j) and the totals sigma_s(E)).  The mode picks only the view
    and the maximizer: `_sweep_tails` reads its blocks on the finest atoms from
    subset-sum tables (`_TailTables`), the `heuristic_sup_over_tau` candidates are
    read at the points (`_PointTails`), which hold nothing per tail pattern, so the
    search stays linear in the points past the atom budget.  An objective that
    reads only `total` (`totals_only`) is swept in spans (`_SpanTotals`).  Else a
    block is read on its low and set high leaves, and scored again on every leaf
    when a value or a low table's leaf value is not finite: a coarse level's mean
    at a leaf outside the tail sits above a leaf of the tail too, so only there
    could a leaf left out turn a row's value into nan.  The witness is the first
    maximizing tail (nan skipped): in ascending mask order, or in candidate order.
    A tail past float range scores inf or nan, which WeightConstant or the
    maximizer refuses.
    """
    if mode not in (EXACT, HEURISTIC):
        raise ValueError(f"mode must be 'exact' or 'heuristic', got {mode!r}")
    if mode == HEURISTIC:
        with np.errstate(over="ignore", invalid="ignore"):
            densities = tuple(w * space.masses for w in weights)
            objective = lambda inside: block_objective(_PointTails(space, densities, inside))  # noqa: E731
            value, tau = heuristic_sup_over_tau(space, 0, objective, guide=guide)
        return WeightConstant(name, value, "lower-bound", _tau_witness(tau))
    _check_budget(space, 0)  # refuse before building the tables
    with np.errstate(over="ignore", invalid="ignore"):
        tables = _TailTables(space, tuple(w * space.masses for w in weights))
        if totals_only:
            value, mask = _sweep_tails(space, 0, block_objective, tables.read_totals, _span_bits(space))
        else:

            def objective(tails: _LeafTails) -> np.ndarray:
                values = block_objective(tails)
                return values if tables.finite and np.isfinite(values).all() else block_objective(tails.every_leaf())

            value, mask = _sweep_tails(space, 0, objective, tables.read)
    return WeightConstant(name, value, EXACT, _tau_witness(stopping_time_from_tail(space, 0, mask)))


def rh_constant(
    space: FilteredSpace,
    omega1: Fn,
    omega2: Fn,
    exps: Exponents,
    mode: str = EXACT,
) -> WeightConstant:
    """Reverse-Hölder constant of (sigma1, sigma2):

        sup over tails E of  sigma1(E)^(p/p1) sigma2(E)^(p/p2)
                             / integral over E of sigma1^(p/p1) sigma2^(p/p2).

    Always >= 1 (Hölder with exponents p1/p, p2/p gives the reverse bound),
    with equality when sigma1 is proportional to sigma2.
    """
    sigma1, sigma2, mix = _duals(space, omega1, omega2, exps)

    def block_objective(tails: _Tails) -> np.ndarray:
        return _mix(tails.total(0), tails.total(1), exps) / tails.total(2)

    return _sup_over_tails(space, "RH", block_objective, (sigma1, sigma2), mode, (sigma1, sigma2, mix), totals_only=True)


def s_p_constant(
    space: FilteredSpace,
    v: Fn,
    omega1: Fn,
    omega2: Fn,
    exps: Exponents,
    mode: str = EXACT,
) -> WeightConstant:
    """Testing constant over indicator inputs localized to stopping tails:

        sup over tails E of
        ( integral over E of M(sigma1 1_E, sigma2 1_E)^p v dmu
          / [ sigma1(E)^(p/p1) sigma2(E)^(p/p2) ] )^(1/p).
    """
    v = _positive(space, v, "v")
    sigma1, sigma2, _ = _duals(space, omega1, omega2, exps)
    p = exps.p

    def block_objective(tails: _Tails) -> np.ndarray:
        m = tails.level_max(0, 1)
        m **= p
        num = tails.inside_sum(m, 2)
        return (num / _mix(tails.total(0), tails.total(1), exps)) ** (1.0 / p)

    return _sup_over_tails(space, "S", block_objective, (sigma1, sigma2), mode, (sigma1, sigma2, v))


def w_infty_constant(
    space: FilteredSpace,
    omega1: Fn,
    omega2: Fn,
    exps: Exponents,
    mode: str = EXACT,
) -> WeightConstant:
    """Two-weight maximal-product constant:

        sup over tails E of  integral over E of M(sigma1 1_E)^(p/p1) M(sigma2 1_E)^(p/p2) dmu
                             / integral over E of sigma1^(p/p1) sigma2^(p/p2) dmu.

    At least 1 whenever the finest level separates points.
    """
    sigma1, sigma2, mix = _duals(space, omega1, omega2, exps)

    def block_objective(tails: _Tails) -> np.ndarray:
        m1, m2 = tails.level_max(0), tails.level_max(1)
        m1 **= exps.p / exps.p1
        m2 **= exps.p / exps.p2
        m1 *= m2
        return tails.inside_sum(m1, 3) / tails.total(2)

    return _sup_over_tails(space, "Winf", block_objective, (sigma1, sigma2), mode, (sigma1, sigma2, mix, 1.0))


ALL_CONSTANTS = ("a", "rh", "s", "b", "winf")


def compute_constant(
    name: str,
    space: FilteredSpace,
    v: Fn,
    omega1: Fn,
    omega2: Fn,
    exps: Exponents,
    mode: str = EXACT,
) -> WeightConstant:
    """Dispatch by short name ("a", "rh", "s", "b", "winf")."""
    key = name.lower()
    if key == "a":
        return a_p_constant(space, v, omega1, omega2, exps)
    if key == "b":
        return b_p_constant(space, v, omega1, omega2, exps)
    if key == "rh":
        return rh_constant(space, omega1, omega2, exps, mode=mode)
    if key == "s":
        return s_p_constant(space, v, omega1, omega2, exps, mode=mode)
    if key == "winf":
        return w_infty_constant(space, omega1, omega2, exps, mode=mode)
    raise ValueError(f"unknown constant {name!r}; expected one of {ALL_CONSTANTS}")
