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
Each tail constant has one objective, a function of a block of tails.
Exact mode evaluates it on every achievable tail, i.e. every union of
finest atoms, in byte-capped blocks (budgeted); heuristic mode evaluates
it on the candidate blocks of the stopping-time search and yields a
certified lower bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .operators import _level_max
from .space import Exponents, FilteredSpace, Fn, _cond, _positive, _row_cond_exp, as_fn
from .space import cond_exp  # noqa: F401  (bench/tests expects this module to bind it)
from .stopping import _first_max, _tail_blocks, heuristic_sup_over_tau, stopping_time_from_tail

EXACT = "exact"
HEURISTIC = "heuristic"


@dataclass(frozen=True)
class WeightConstant:
    """A named characteristic with the mode it was computed in and a witness.

    mode is "exact" (true maximum) or "lower-bound" (heuristic search).
    The witness locates where the value is attained: {"level", "atom"} for
    atom maxima, {"origin", "tail"} for tail suprema.
    """

    name: str
    value: float
    mode: str
    witness: dict

    def __float__(self) -> float:
        return self.value


def sigma_from_omega(omega: Fn, p_s: float) -> Fn:
    """Dual weight sigma = omega^(-1/(p_s - 1)); involutive under p_s -> p_s'."""
    if not p_s > 1:
        raise ValueError(f"exponent must exceed 1, got {p_s!r}")
    omega = np.asarray(omega, dtype=float)
    if np.any(omega <= 0):
        raise ValueError("omega must be strictly positive")
    return omega ** (-1.0 / (p_s - 1.0))


def _tau_witness(tau) -> dict:
    # stop levels as ints with None for "never" keeps the record JSON-clean
    levels = [int(x) if np.isfinite(x) else None for x in tau.levels]
    return {"origin": tau.origin, "tail": tau.tail_set().tolist(), "tau": levels}


def _atom_max(space: FilteredSpace, density: Callable[[int], Fn], name: str) -> WeightConstant:
    best_val = -np.inf
    best: tuple[int, int] = (0, 0)
    for level in range(space.n_levels):
        vals = density(level)
        for a_idx, atom in enumerate(space.atoms[level]):
            v = float(vals[atom[0]])
            if v > best_val:
                best_val = v
                best = (level, a_idx)
    level, a_idx = best
    witness = {"level": level, "atom": space.atoms[level][a_idx].tolist()}
    return WeightConstant(name, best_val, EXACT, witness)


def a_p_constant(space: FilteredSpace, v: Fn, omega1: Fn, omega2: Fn, exps: Exponents) -> WeightConstant:
    """max over levels and atoms of E(v) E(sigma1)^(p/p1') E(sigma2)^(p/p2')."""
    v = _positive(space, v, "v")
    sigma1 = sigma_from_omega(_positive(space, omega1, "omega1"), exps.p1)
    sigma2 = sigma_from_omega(_positive(space, omega2, "omega2"), exps.p2)
    sigma1, sigma2 = as_fn(space, sigma1), as_fn(space, sigma2)  # overflow for p_s near 1
    p = exps.p
    e1, e2 = p / exps.p1_prime, p / exps.p2_prime

    def density(level: int) -> Fn:
        return (
            _cond(space, v, level)
            * _cond(space, sigma1, level) ** e1
            * _cond(space, sigma2, level) ** e2
        )

    return _atom_max(space, density, "A")


def b_p_constant(space: FilteredSpace, v: Fn, omega1: Fn, omega2: Fn, exps: Exponents) -> WeightConstant:
    """max over levels and atoms of
    E(v) E(sigma1)^p E(sigma2)^p / exp E(log(sigma1^(p/p1) sigma2^(p/p2)))."""
    v = _positive(space, v, "v")
    sigma1 = sigma_from_omega(_positive(space, omega1, "omega1"), exps.p1)
    sigma2 = sigma_from_omega(_positive(space, omega2, "omega2"), exps.p2)
    p = exps.p
    log_mix = np.log(sigma1 ** (p / exps.p1) * sigma2 ** (p / exps.p2))
    sigma1, sigma2, log_mix = as_fn(space, sigma1), as_fn(space, sigma2), as_fn(space, log_mix)

    def density(level: int) -> Fn:
        return (
            _cond(space, v, level)
            * _cond(space, sigma1, level) ** p
            * _cond(space, sigma2, level) ** p
            / np.exp(_cond(space, log_mix, level))
        )

    return _atom_max(space, density, "B")


_RowCond = Callable[[FilteredSpace, np.ndarray, int], np.ndarray]


def _sup_over_tails(
    space: FilteredSpace,
    name: str,
    block_objective: Callable[[np.ndarray, _RowCond], np.ndarray],
    guide: tuple[Fn, Fn],
    mode: str,
    budget: int | None,
) -> WeightConstant:
    """Maximize an objective of the tail point set over T_0 tails.

    block_objective(chi, cond) takes a rows x n 0/1 indicator block of
    nonempty tails and the row-batched conditional expectation, and returns
    one value per row.  Both modes score tails through the one objective
    built from it: exact mode on every block of `_tail_blocks`, heuristic
    mode on the candidate blocks of `heuristic_sup_over_tau`.  Either way
    the witness is the first maximizing tail (nan values are skipped), as a
    per-tail loop would pick it: in ascending mask order for the sweep, in
    candidate order for the search.
    """
    if mode not in (EXACT, HEURISTIC):
        raise ValueError(f"mode must be 'exact' or 'heuristic', got {mode!r}")
    blocks = _tail_blocks(space, 0, budget) if mode == EXACT else None
    # the matmul kernel holds a points x atoms matrix per level, linear in the
    # points under the atom budget but quadratic past it, where the search runs;
    # the bincount kernel holds none
    cond = _row_cond_exp(space) if blocks is not None else _cond

    def objective(inside: np.ndarray) -> np.ndarray:
        return block_objective(inside.astype(float), cond)

    if blocks is None:
        value, tau = heuristic_sup_over_tau(space, 0, objective, guide=guide)
        return WeightConstant(name, value, "lower-bound", _tau_witness(tau))
    best_val = -np.inf
    best_mask: int | None = None
    for tails, inside in blocks:
        vals = objective(inside)
        k = _first_max(vals)
        if vals[k] > best_val:
            best_val = float(vals[k])
            best_mask = int(tails[k])
    assert best_mask is not None
    tau = stopping_time_from_tail(space, 0, best_mask)
    return WeightConstant(name, best_val, EXACT, _tau_witness(tau))


def rh_constant(
    space: FilteredSpace,
    omega1: Fn,
    omega2: Fn,
    exps: Exponents,
    mode: str = EXACT,
    budget: int | None = None,
) -> WeightConstant:
    """Reverse-Hölder constant of (sigma1, sigma2):

        sup over tails E of  sigma1(E)^(p/p1) sigma2(E)^(p/p2)
                             / integral over E of sigma1^(p/p1) sigma2^(p/p2).

    Always >= 1 (Hölder with exponents p1/p, p2/p gives the reverse bound),
    with equality when sigma1 is proportional to sigma2.
    """
    sigma1 = sigma_from_omega(_positive(space, omega1, "omega1"), exps.p1)
    sigma2 = sigma_from_omega(_positive(space, omega2, "omega2"), exps.p2)
    a1, a2 = exps.p / exps.p1, exps.p / exps.p2
    w1 = sigma1 * space.masses
    w2 = sigma2 * space.masses
    mix = sigma1**a1 * sigma2**a2 * space.masses

    def block_objective(chi: np.ndarray, cond: _RowCond) -> np.ndarray:
        return (chi @ w1) ** a1 * (chi @ w2) ** a2 / (chi @ mix)

    return _sup_over_tails(space, "RH", block_objective, (sigma1, sigma2), mode, budget)


def s_p_constant(
    space: FilteredSpace,
    v: Fn,
    omega1: Fn,
    omega2: Fn,
    exps: Exponents,
    mode: str = EXACT,
    budget: int | None = None,
) -> WeightConstant:
    """Testing constant over indicator inputs localized to stopping tails:

        sup over tails E of
        ( integral over E of M(sigma1 1_E, sigma2 1_E)^p v dmu
          / [ sigma1(E)^(p/p1) sigma2(E)^(p/p2) ] )^(1/p).
    """
    v = _positive(space, v, "v")
    sigma1 = sigma_from_omega(_positive(space, omega1, "omega1"), exps.p1)
    sigma2 = sigma_from_omega(_positive(space, omega2, "omega2"), exps.p2)
    p = exps.p
    a1, a2 = p / exps.p1, p / exps.p2
    w1 = sigma1 * space.masses
    w2 = sigma2 * space.masses
    v_mass = v * space.masses

    def block_objective(chi: np.ndarray, cond: _RowCond) -> np.ndarray:
        m = _level_max(space, cond, 0, chi * sigma1, chi * sigma2)
        num = (m**p * chi) @ v_mass
        den = (chi @ w1) ** a1 * (chi @ w2) ** a2
        return (num / den) ** (1.0 / p)

    return _sup_over_tails(space, "S", block_objective, (sigma1, sigma2), mode, budget)


def w_infty_constant(
    space: FilteredSpace,
    omega1: Fn,
    omega2: Fn,
    exps: Exponents,
    mode: str = EXACT,
    budget: int | None = None,
) -> WeightConstant:
    """Two-weight maximal-product constant:

        sup over tails E of  integral over E of M(sigma1 1_E)^(p/p1) M(sigma2 1_E)^(p/p2) dmu
                             / integral over E of sigma1^(p/p1) sigma2^(p/p2) dmu.

    At least 1 whenever the finest level separates points.
    """
    sigma1 = sigma_from_omega(_positive(space, omega1, "omega1"), exps.p1)
    sigma2 = sigma_from_omega(_positive(space, omega2, "omega2"), exps.p2)
    a1, a2 = exps.p / exps.p1, exps.p / exps.p2
    mix = sigma1**a1 * sigma2**a2 * space.masses

    def block_objective(chi: np.ndarray, cond: _RowCond) -> np.ndarray:
        m1 = _level_max(space, cond, 0, chi * sigma1)
        m2 = _level_max(space, cond, 0, chi * sigma2)
        return (m1**a1 * m2**a2 * chi) @ space.masses / (chi @ mix)

    return _sup_over_tails(space, "Winf", block_objective, (sigma1, sigma2), mode, budget)


ALL_CONSTANTS = ("a", "rh", "s", "b", "winf")


def compute_constant(
    name: str,
    space: FilteredSpace,
    v: Fn,
    omega1: Fn,
    omega2: Fn,
    exps: Exponents,
    mode: str = EXACT,
    budget: int | None = None,
) -> WeightConstant:
    """Dispatch by short name ("a", "rh", "s", "b", "winf")."""
    key = name.lower()
    if key == "a":
        return a_p_constant(space, v, omega1, omega2, exps)
    if key == "b":
        return b_p_constant(space, v, omega1, omega2, exps)
    if key == "rh":
        return rh_constant(space, omega1, omega2, exps, mode=mode, budget=budget)
    if key == "s":
        return s_p_constant(space, v, omega1, omega2, exps, mode=mode, budget=budget)
    if key == "winf":
        return w_infty_constant(space, omega1, omega2, exps, mode=mode, budget=budget)
    raise ValueError(f"unknown constant {name!r}; expected one of {ALL_CONSTANTS}")
