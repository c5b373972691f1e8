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
Each tail constant has one objective of a block of tails and its level
means; the mode picks only the means and the maximizer.  Both means take
every level from a start level down in one call (`operators._level_max`'s
contract).  Exact mode evaluates the objective on every union of finest
atoms through `stopping._sweep_tails` on the matmul means `_row_cond_exp`
(one product per level; refused past the atom budget); heuristic mode on
the stopping-time search's candidates on the one-bincount means
`space._level_means`, which yields a certified lower bound.  A and B take
each weight's means of every level from one `_level_means` call too.  The
dual weights must come out finite and strictly positive, else ValueError
naming sigma1 or sigma2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .operators import _level_max
from .space import Exponents, FilteredSpace, Fn, _level_means, _positive, as_fn
from .space import cond_exp  # noqa: F401  (bench/tests expects this module to bind it)
from .stopping import _block_max, _check_budget, _sweep_tails, heuristic_sup_over_tau, stopping_time_from_tail

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


def _duals(space: FilteredSpace, omega1: Fn, omega2: Fn, exps: Exponents) -> tuple[Fn, Fn]:
    """(sigma1, sigma2) of strictly positive omegas, checked finite and strictly
    positive: p_s near 1 overflows them or underflows them to 0."""
    sigma1 = sigma_from_omega(_positive(space, omega1, "omega1"), exps.p1)
    sigma2 = sigma_from_omega(_positive(space, omega2, "omega2"), exps.p2)
    return _positive(space, sigma1, "sigma1"), _positive(space, sigma2, "sigma2")


def _tau_witness(tau) -> dict:
    # stop levels as ints with None for "never" keeps the record JSON-clean
    levels = [int(x) if np.isfinite(x) else None for x in tau.levels]
    return {"origin": tau.origin, "tail": tau.tail_set().tolist(), "tau": levels}


def _atom_max(space: FilteredSpace, density: Callable[[int], np.ndarray], name: str) -> WeightConstant:
    """The first maximum over levels 0..L of density(level), one value per atom."""
    best_val, found = _block_max((level, density(level)) for level in range(space.n_levels))
    level, a_idx = found or (0, 0)
    witness = {"level": level, "atom": space.atoms[level][a_idx].tolist()}
    return WeightConstant(name, best_val, EXACT, witness)


def a_p_constant(space: FilteredSpace, v: Fn, omega1: Fn, omega2: Fn, exps: Exponents) -> WeightConstant:
    """max over levels and atoms of E(v) E(sigma1)^(p/p1') E(sigma2)^(p/p2')."""
    v = _positive(space, v, "v")
    sigma1, sigma2 = _duals(space, omega1, omega2, exps)
    p = exps.p
    e1, e2 = p / exps.p1_prime, p / exps.p2_prime

    mv, m1, m2 = (_level_means(space, w) for w in (v, sigma1, sigma2))

    def density(level: int) -> np.ndarray:
        return mv[level] * m1[level] ** e1 * m2[level] ** e2

    return _atom_max(space, density, "A")


def b_p_constant(space: FilteredSpace, v: Fn, omega1: Fn, omega2: Fn, exps: Exponents) -> WeightConstant:
    """max over levels and atoms of
    E(v) E(sigma1)^p E(sigma2)^p / exp E(log(sigma1^(p/p1) sigma2^(p/p2)))."""
    v = _positive(space, v, "v")
    sigma1, sigma2 = _duals(space, omega1, omega2, exps)
    p = exps.p
    log_mix = as_fn(space, np.log(sigma1 ** (p / exps.p1) * sigma2 ** (p / exps.p2)))

    mv, m1, m2, mlog = (_level_means(space, w) for w in (v, sigma1, sigma2, log_mix))

    def density(level: int) -> np.ndarray:
        return mv[level] * m1[level] ** p * m2[level] ** p / np.exp(mlog[level])

    return _atom_max(space, density, "B")


def _row_cond_exp(space: FilteredSpace, density: Fn) -> Callable[[FilteredSpace, np.ndarray, int], list[np.ndarray]]:
    """The exact sweeps' means, called like `_level_means`: per level j >= start,
    (rows @ matrix_j) / atom masses, the level's points x atoms matrix holding
    density[x] at (x, atom of x); one product per level, since BLAS may round a
    wider product differently.  On a 0/1 block and density sigma * masses, BLAS
    forms exactly the products of (block sigma masses) @ 0/1 matrix (elsewhere it
    may fuse a product into a sum)."""
    mats = []
    for labels, atom_mass in zip(space.atom_of, space.atom_mass):
        mat = np.zeros((space.n, atom_mass.size))
        mat[np.arange(space.n), labels] = density
        mats.append(mat)

    def means(_: FilteredSpace, rows: np.ndarray, start: int) -> list[np.ndarray]:
        return [(rows @ mat) / mass for mat, mass in zip(mats[start:], space.atom_mass[start:])]

    return means


def _sup_over_tails(
    space: FilteredSpace, name: str, block_objective: Callable, guide: tuple[Fn, Fn] | None, mode: str, densities=()
) -> WeightConstant:
    """Maximize an objective of the tail point set over T_0 tails.

    block_objective(chi, means) scores a rows x n 0/1 block of nonempty tails,
    one value per row: means[s](space, chi, start) lists the (k, atoms_j) level-j
    means of chi times densities[s] over mu for j = start..L (sigma_s * masses
    gives E(chi sigma_s | F_j)), the contract of `_level_max`'s means.  The mode picks only the means and the maximizer: `_sweep_tails` on the
    matmul means, or the `heuristic_sup_over_tau` candidates on the bincount
    means, which hold no points x atoms matrix, so the search stays linear in
    the points past the atom budget.  The witness is the first maximizing tail
    (nan skipped): in ascending mask order, or in candidate order.
    """
    if mode not in (EXACT, HEURISTIC):
        raise ValueError(f"mode must be 'exact' or 'heuristic', got {mode!r}")
    if mode == EXACT:
        # the matrices grow with the square of the points past the budget: refuse before building them
        _check_budget(space, 0)
        means = tuple(_row_cond_exp(space, d) for d in densities)
    else:
        means = tuple(lambda s, rows, start, d=d: _level_means(s, rows, start, d) for d in densities)

    def objective(inside: np.ndarray) -> np.ndarray:
        return block_objective(inside.astype(float), means)

    if mode == HEURISTIC:
        value, tau = heuristic_sup_over_tau(space, 0, objective, guide=guide)
        return WeightConstant(name, value, "lower-bound", _tau_witness(tau))
    value, mask = _sweep_tails(space, 0, objective)
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
    sigma1, sigma2 = _duals(space, omega1, omega2, exps)
    a1, a2 = exps.p / exps.p1, exps.p / exps.p2
    w1 = sigma1 * space.masses
    w2 = sigma2 * space.masses
    mix = sigma1**a1 * sigma2**a2 * space.masses

    def block_objective(chi: np.ndarray, means: tuple) -> np.ndarray:
        return (chi @ w1) ** a1 * (chi @ w2) ** a2 / (chi @ mix)

    return _sup_over_tails(space, "RH", block_objective, (sigma1, sigma2), mode)


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
    sigma1, sigma2 = _duals(space, omega1, omega2, exps)
    p = exps.p
    a1, a2 = p / exps.p1, p / exps.p2
    w1 = sigma1 * space.masses
    w2 = sigma2 * space.masses
    v_mass = v * space.masses

    def block_objective(chi: np.ndarray, means: tuple) -> np.ndarray:
        mean1, mean2 = means

        def product(s: FilteredSpace, h: np.ndarray, start: int) -> list[np.ndarray]:
            return [a * b for a, b in zip(mean1(s, h, start), mean2(s, h, start))]

        m = _level_max(space, 0, chi, means=product)
        num = (m**p * chi) @ v_mass
        den = (chi @ w1) ** a1 * (chi @ w2) ** a2
        return (num / den) ** (1.0 / p)

    return _sup_over_tails(space, "S", block_objective, (sigma1, sigma2), mode, (w1, w2))


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
    sigma1, sigma2 = _duals(space, omega1, omega2, exps)
    a1, a2 = exps.p / exps.p1, exps.p / exps.p2
    mix = sigma1**a1 * sigma2**a2 * space.masses

    def block_objective(chi: np.ndarray, means: tuple) -> np.ndarray:
        mean1, mean2 = means
        m1 = _level_max(space, 0, chi, means=mean1)
        m2 = _level_max(space, 0, chi, means=mean2)
        return (m1**a1 * m2**a2 * chi) @ space.masses / (chi @ mix)

    densities = (sigma1 * space.masses, sigma2 * space.masses)
    return _sup_over_tails(space, "Winf", block_objective, (sigma1, sigma2), mode, densities)


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
