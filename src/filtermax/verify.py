"""End-to-end numerical verification of the weighted bounds.

Ties the pieces together: deterministic random instances (space + weight
triple + Hölder pair), evaluation families of test functions, one checker
per theorem-shaped inequality, and flat result rows suitable for CSV/JSON
reports.

Every check is framed as lhs <= rhs with slack = rhs - lhs.  Rows whose
right-hand side uses a heuristic (lower-bound) tail supremum cannot
falsify anything: a pass is conclusive, a violation only means
"indeterminate" and is not counted as a hard failure.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from . import carleson as _carleson
from .operators import _level_max, bilinear_maximal, lp_norm, maximal, weighted_maximal
from .principal import (
    PrincipalForest,
    forest_cover,
    sparse_domination_report,
    verify_properties,
)
from .space import (
    Exponents,
    FilteredSpace,
    Fn,
    ValidationError,
    _cond,
    as_fn,
    cond_exp,
    read_json,
    space_from_dict,
    space_to_dict,
    write_json,
)
from .stopping import (
    EnumerationBudgetError,
    _check_budget,
    _tail_blocks,
    heuristic_sup_over_tau,
)
from .weights import WeightConstant, compute_constant, sigma_from_omega

SUITES = ("thm11", "thm12", "thm14", "thm15", "sparse", "carleson", "props", "all")
_TAIL_SUITES = ("thm11", "thm12", "thm15", "carleson", "all")  # suites with a tail sweep
DEFAULT_REL_TOL = 1e-9
IDENTITY_TOL = 1e-12
Pairs = Sequence[tuple[str, Fn, Fn]]  # named test pairs (name, f1, f2)


@dataclass(frozen=True)
class Instance:
    """A filtered space with a weight triple and Hölder data."""

    space: FilteredSpace
    v: Fn
    omega1: Fn
    omega2: Fn
    exps: Exponents
    product_weight: bool
    seed: int | None = None
    model: str = ""
    h1: Fn | None = None
    h2: Fn | None = None

    @cached_property
    def sigma1(self) -> Fn:
        return sigma_from_omega(self.omega1, self.exps.p1)

    @cached_property
    def sigma2(self) -> Fn:
        return sigma_from_omega(self.omega2, self.exps.p2)

    @cached_property
    def _constants(self) -> dict[tuple[str, str], WeightConstant]:
        return {}

    def constant(self, name: str, mode: str = "exact") -> WeightConstant:
        """The weight constant `name` ("a", "rh", "s", "b", "winf") of this
        instance, computed once per (name, mode)."""
        key = (name, mode)
        if key not in self._constants:
            self._constants[key] = compute_constant(
                name, self.space, self.v, self.omega1, self.omega2, self.exps, mode=mode
            )
        return self._constants[key]

    @cached_property
    def forest(self) -> PrincipalForest:
        """The default principal forest (see `default_forest`), built once."""
        return default_forest(self)


@dataclass(frozen=True, slots=True)
class CheckResult:
    """One verified inequality: lhs <= rhs up to tolerance.

    mode "exact" rows can falsify; "lower-bound" rows (heuristic constants
    on the rhs) are only conclusive when they pass.  Slotted, since an
    ensemble run holds every row in memory.
    """

    theorem: str
    lhs: float
    rhs: float
    mode: str = "exact"
    seed: int = -1
    rel_tol: float = DEFAULT_REL_TOL
    abs_tol: float = 1e-12
    detail: dict = field(default_factory=dict)

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs

    @property
    def passed(self) -> bool:
        return self.lhs <= self.rhs * (1.0 + self.rel_tol) + self.abs_tol

    @property
    def status(self) -> str:
        if self.passed:
            return "pass"
        return "fail" if self.mode == "exact" else "indeterminate"

    @property
    def hard_failure(self) -> bool:
        return self.status == "fail"


# ---- instance generation ----------------------------------------------------


def _parse_model(model: str) -> tuple[str, float | None]:
    name, _, param = model.partition(":")
    name = name.strip().lower()
    if name not in ("lognormal", "power", "product"):
        raise ValueError(f"unknown weight model {model!r}; expected lognormal | power | product")
    return name, (float(param) if param else None)


def gen_space(seed: int, depth: int, branching: int, max_points: int = 65536) -> FilteredSpace:
    """Regular branching tower over [0, 1): branching^depth points in
    contiguous blocks, masses drawn positive and normalized to total 1."""
    if depth < 1 or branching < 2:
        raise ValueError("need depth >= 1 and branching >= 2")
    n = branching**depth
    if n > max_points:
        raise ValueError(
            f"atom budget exceeded: branching^depth = {n} points (limit {max_points})"
        )
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
    masses = rng.uniform(0.5, 1.5, size=n)
    masses /= masses.sum()
    levels = []
    for t in range(depth + 1):
        block = branching ** (depth - t)
        levels.append([list(range(a * block, (a + 1) * block)) for a in range(branching**t)])
    return FilteredSpace(masses, levels)


def gen_instance(
    seed: int,
    depth: int = 2,
    branching: int = 2,
    model: str = "lognormal",
    p1: float = 2.0,
    p2: float = 2.0,
    max_points: int = 65536,
) -> Instance:
    """Deterministic-in-seed random instance.

    Models: "lognormal[:s]" — v, omega1, omega2 iid exp(s N(0,1));
    "product[:s]" — lognormal omegas with v = omega1^(p/p1) omega2^(p/p2);
    "power[:a]" — uniform masses on [0,1), omega1 = x^a, omega2 = (1-x)^a,
    v = (x(1-x))^(a/2).
    """
    name, param = _parse_model(model)
    exps = Exponents(p1, p2)
    space = gen_space(seed, depth, branching, max_points=max_points)
    n = space.n
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
    # extreme parameters overflow or underflow; the check below reports it
    with np.errstate(all="ignore"):
        if name == "power":
            a = 1.0 if param is None else param
            masses = np.full(n, 1.0 / n)
            space = FilteredSpace(masses, [[atom.tolist() for atom in lv] for lv in space.atoms])
            x = (np.arange(n) + 0.5) / n
            omega1 = x**a
            omega2 = (1.0 - x) ** a
            v = (x * (1.0 - x)) ** (a / 2.0)
        else:
            s = 0.6 if param is None else param
            omega1 = np.exp(s * rng.standard_normal(n))
            omega2 = np.exp(s * rng.standard_normal(n))
            v = _product_v(omega1, omega2, exps) if name == "product" else np.exp(s * rng.standard_normal(n))
    for key, arr in (("v", v), ("omega1", omega1), ("omega2", omega2)):
        if not np.all(np.isfinite(arr) & (arr > 0)):
            raise ValueError(
                f"model {model!r} at seed {seed}: field {key!r} is not finite and strictly positive"
            )
    bad = _bad_dual_weight(omega1, omega2, exps)
    if bad is not None:
        raise ValueError(f"model {model!r} at seed {seed}: {bad}")
    return Instance(
        space=space,
        v=v,
        omega1=omega1,
        omega2=omega2,
        exps=exps,
        product_weight=name == "product",
        seed=seed,
        model=model,
    )


def _bad_dual_weight(omega1: Fn, omega2: Fn, exps: Exponents) -> str | None:
    """Where a dual weight sigma_s = omega_s^(-1/(p_s - 1)) is not finite and
    strictly positive (p_s near 1 overflows or underflows it), else None."""
    for s, omega, p_s in ((1, omega1, exps.p1), (2, omega2, exps.p2)):
        with np.errstate(all="ignore"):
            sigma = sigma_from_omega(omega, p_s)
        bad = np.flatnonzero(~(np.isfinite(sigma) & (sigma > 0)))
        if bad.size:
            x = int(bad[0])
            return (
                f"field 'sigma{s}' = omega{s}^(-1/(p{s} - 1)) with p{s} = {p_s!r} is "
                f"{float(sigma[x])!r} at point {x}, not finite and strictly positive"
            )
    return None


def _product_v(omega1: Fn, omega2: Fn, exps: Exponents) -> Fn:
    """The product weight omega1^(p/p1) omega2^(p/p2)."""
    return omega1 ** (exps.p / exps.p1) * omega2 ** (exps.p / exps.p2)


def instance_to_dict(inst: Instance) -> dict:
    data = space_to_dict(inst.space)
    data.update(
        {
            "v": inst.v.tolist(),
            "omega1": inst.omega1.tolist(),
            "omega2": inst.omega2.tolist(),
            "p1": inst.exps.p1,
            "p2": inst.exps.p2,
            "product_weight": inst.product_weight,
            "model": inst.model,
        }
    )
    if inst.seed is not None:
        data["seed"] = inst.seed
    if inst.h1 is not None:
        data["h1"] = inst.h1.tolist()
    if inst.h2 is not None:
        data["h2"] = inst.h2.tolist()
    return data


def instance_from_dict(data: dict, where: str = "instance") -> Instance:
    space = space_from_dict(data, where=where)
    try:
        exps = Exponents(float(data["p1"]), float(data["p2"]))
    except KeyError as exc:
        raise ValidationError(f"{where}: missing exponent field {exc}") from exc
    except ValueError as exc:
        raise ValidationError(f"{where}: {exc}") from exc
    arrays = {}
    for key in ("v", "omega1", "omega2", "h1", "h2"):
        weight = key[0] != "h"  # weights are required and positive, h1/h2 optional
        if key not in data:
            if weight:
                raise ValidationError(f"{where}: missing weight field {key!r}")
            continue
        try:
            arrays[key] = as_fn(space, data[key])
        except ValueError as exc:
            raise ValidationError(f"{where}: field {key!r}: {exc}") from exc
        if weight and np.any(arrays[key] <= 0):
            raise ValidationError(f"{where}: field {key!r} must be strictly positive")
        if not weight and np.any(arrays[key] < 0):
            raise ValidationError(f"{where}: field {key!r} must be nonnegative")
    if ("h1" in arrays) != ("h2" in arrays):
        given, missing = ("h1", "h2") if "h1" in arrays else ("h2", "h1")
        raise ValidationError(f"{where}: field {given!r} needs field {missing!r} too")
    bad = _bad_dual_weight(arrays["omega1"], arrays["omega2"], exps)
    if bad is not None:
        raise ValidationError(f"{where}: {bad}")
    seed = data.get("seed")
    if seed is not None and (type(seed) is not int or seed < 0):
        raise ValidationError(f"{where}: field 'seed' must be a non-negative integer, got {seed!r}")
    product = data.get("product_weight", False)
    if type(product) is not bool:
        raise ValidationError(f"{where}: field 'product_weight' must be true or false, got {product!r}")
    if product:
        v = arrays["v"]
        expected = _product_v(arrays["omega1"], arrays["omega2"], exps)
        bad = np.flatnonzero(np.abs(v - expected) > DEFAULT_REL_TOL * expected)
        if bad.size:
            x = int(bad[0])
            raise ValidationError(
                f"{where}: product_weight is true but v[{x}] = {float(v[x])!r} differs from "
                f"omega1^(p/p1) omega2^(p/p2) = {float(expected[x])!r}"
            )
    return Instance(
        space=space,
        v=arrays["v"],
        omega1=arrays["omega1"],
        omega2=arrays["omega2"],
        exps=exps,
        product_weight=product,
        seed=seed,
        model=data.get("model", ""),
        h1=arrays.get("h1"),
        h2=arrays.get("h2"),
    )


def load_instance(path: str) -> Instance:
    return instance_from_dict(read_json(path), where=path)


def dump_instance(inst: Instance, path: str) -> None:
    write_json(path, instance_to_dict(inst))


# ---- evaluation family -------------------------------------------------------


def _pair_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(2, index)))


def evaluation_pairs(inst: Instance, count: int, seed: int | None = None) -> list[tuple[str, Fn, Fn]]:
    """Deterministic lognormal test pairs; draw t depends only on (seed, t)."""
    base = inst.seed if seed is None else seed
    if base is None:
        base = 0
    out = []
    n = inst.space.n
    for t in range(count):
        rng = _pair_rng(base, t)
        f1 = np.exp(0.5 * rng.standard_normal(n))
        f2 = np.exp(0.5 * rng.standard_normal(n))
        out.append((f"rand{t}", f1, f2))
    return out


def _pair_norms(
    inst: Instance, F1: np.ndarray, F2: np.ndarray, inside: np.ndarray | None = None
) -> tuple[list[float], list[float], list[float]]:
    """Unchecked lists, per row pair (f1, f2) of two (k, n) blocks, of ||M(f1 sigma1,
    f2 sigma2)||_{L^p(v)}, of ||f1||_{p1,sigma1} ||f2||_{p2,sigma2}, and of the first
    over the row of a boolean block `inside` only (all points without it), bit for
    bit as `bilinear_maximal` and `lp_norm`: a norm is a 1-d sum of one row
    (`sum(axis=1)` adds short rows in another order), rooted as a Python float."""
    exps, masses = inst.exps, inst.space.masses

    def norms(rows, p: float) -> list[float]:
        return [float(row.sum()) ** (1.0 / p) for row in rows]

    m = _level_max(inst.space, _cond, 0, F1 * inst.sigma1, F2 * inst.sigma2)
    dens_m = m**exps.p * inst.v * masses
    nums = norms(dens_m, exps.p)
    n1 = norms(np.abs(F1) ** exps.p1 * inst.sigma1 * masses, exps.p1)
    n2 = norms(np.abs(F2) ** exps.p2 * inst.sigma2 * masses, exps.p2)
    dens = [a * b for a, b in zip(n1, n2)]
    return nums, dens, nums if inside is None else norms((dm[r] for dm, r in zip(dens_m, inside)), exps.p)


def _pair_block(inst: Instance, pairs: Pairs) -> tuple[np.ndarray, np.ndarray]:
    """The pairs' f1s and f2s as two (k, n) blocks, checked one pair at a time."""
    F1 = np.empty((len(pairs), inst.space.n))
    F2 = np.empty_like(F1)
    for r, (_, f1, f2) in enumerate(pairs):
        F1[r], F2[r] = as_fn(inst.space, f1), as_fn(inst.space, f2)
    return F1, F2


def norm_ratio(inst: Instance, f1: Fn, f2: Fn) -> float | None:
    """||M(f1 sigma1, f2 sigma2)||_{L^p(v)} / (||f1||_{p1,sigma1} ||f2||_{p2,sigma2})."""
    (num,), (den,), _ = _pair_norms(inst, *_pair_block(inst, [("", f1, f2)]))
    return None if den == 0.0 else num / den


def _indicator_ratio(inst: Instance, pts) -> float:
    """norm_ratio of the indicator pair (1_E, 1_E) of a nonempty point set E."""
    chi = inst.space.indicator(pts)[None]
    (num,), (den,), _ = _pair_norms(inst, chi, chi)
    return num / den


def _worst_pair(inst: Instance, pairs: Pairs, const: float, check: str) -> tuple[str, float, float]:
    """The pair with the largest lhs / rhs for the bound lhs <= const * den,
    as (name, lhs, rhs); the first such pair wins ties.  Raises ValueError
    naming the check when no pair has a nonvanishing denominator."""
    nums, dens, _ = _pair_norms(inst, *_pair_block(inst, pairs))
    worst: tuple[float, str, float, float] | None = None
    for (name, _, _), num, den in zip(pairs, nums, dens):
        if den == 0.0:
            continue
        rhs = const * den
        if worst is None or num / rhs > worst[0]:
            worst = (num / rhs, name, num, rhs)
    if worst is None:
        raise ValueError(f"{check}: no test pair has ||f1|| ||f2|| > 0 ({len(pairs)} pairs given)")
    return worst[1:]


def _row_seed(inst: Instance) -> int:
    """The seed column of a result row: -1 for a hand-written instance."""
    return -1 if inst.seed is None else inst.seed


# ---- theorem checks ----------------------------------------------------------


def check_thm11_forward(inst: Instance, pairs: Pairs | None = None) -> CheckResult:
    """Product-weight bound: for every test pair,

        ||M(f1 sigma1, f2 sigma2)||_{L^p(v)}
            <= 16 * 4^(q'-1) p1' p2' [A]^(q'/p) ||f1||_{p1,sigma1} ||f2||_{p2,sigma2}.

    Reports the pair with the worst lhs/rhs ratio.
    """
    if not inst.product_weight:
        raise ValueError("forward bound requires the product weight v = omega1^(p/p1) omega2^(p/p2)")
    exps = inst.exps
    a_const = inst.constant("a")
    const = (
        16.0
        * 4.0 ** (exps.q_prime - 1.0)
        * exps.p1_prime
        * exps.p2_prime
        * a_const.value ** (exps.q_prime / exps.p)
    )
    pairs = evaluation_pairs(inst, 5) if pairs is None else pairs
    name, lhs, rhs = _worst_pair(inst, pairs, const, "thm11_forward")
    return CheckResult(
        theorem="thm11_forward",
        lhs=lhs,
        rhs=rhs,
        seed=_row_seed(inst),
        detail={"pair": name, "A": a_const.value, "const": const},
    )


def check_thm11_converse(inst: Instance, mode: str = "exact") -> CheckResult:
    """Indicator-test converse: at the atom attaining [A],

        [A]^(1/p) <= r_B * [RH]^(1/p),

    where r_B is the norm ratio of the pair (1_B, 1_B).  Holds in
    heuristic mode too: the single-atom tail {B} is in the search family.
    """
    exps = inst.exps
    a_const = inst.constant("a")
    rh = inst.constant("rh", mode)
    r_b = _indicator_ratio(inst, a_const.witness["atom"])
    lhs = a_const.value ** (1.0 / exps.p)
    rhs = r_b * rh.value ** (1.0 / exps.p)
    return CheckResult(
        theorem="thm11_converse",
        lhs=lhs,
        rhs=rhs,
        mode=rh.mode,
        seed=_row_seed(inst),
        detail={"A": a_const.value, "RH": rh.value, "atom_level": a_const.witness["level"], "r_B": r_b},
    )


def _tail_ratios(inst: Instance) -> tuple[float, float, int | None]:
    """Per nonempty T_0 tail E: restricted and full norm ratios of the pair
    (sigma1 1_E, sigma2 1_E).  Returns both maxima and the first mask
    attaining the full one; raises EnumerationBudgetError when the tails
    cannot be swept exactly.

    Sweeps `_tail_blocks` through `_pair_norms`.  The S sweep sums in
    another order, which keeps thm12_attain an independent check of it.
    """
    best_restricted = -np.inf
    best_full = -np.inf
    arg_f: int | None = None
    for tails, inside in _tail_blocks(inst.space, 0, None):
        chi = inside.astype(float)
        nums, dens, restricted = _pair_norms(inst, chi, chi, inside)
        best_restricted = max(best_restricted, *(num / den for num, den in zip(restricted, dens)))
        for mask, num, den in zip(tails, nums, dens):
            if num / den > best_full:
                best_full, arg_f = num / den, int(mask)
    return best_restricted, best_full, arg_f


def check_thm12(inst: Instance, pairs: Pairs | None = None, mode: str = "exact") -> list[CheckResult]:
    """Testing-constant characterization.

    thm12_attain (exact mode): the tail-indicator family, swept in blocks
    by `_tail_ratios` (bit for bit the operator/norm code path, not the S
    sweep's objective), reproduces [S] to 1e-12.
    thm12_lower: [S] <= estimated norm (the witness tail is evaluated as a
    full-norm pair, so this holds by construction).
    thm12_upper: every evaluated ratio <= 32 p1' p2' [S] [RH]^(1/p).
    """
    exps = inst.exps
    seed = _row_seed(inst)
    s_const = inst.constant("s", mode)
    rh = inst.constant("rh", mode)
    out: list[CheckResult] = []

    pairs = evaluation_pairs(inst, 5) if pairs is None else pairs
    nums, dens, _ = _pair_norms(inst, *_pair_block(inst, pairs))
    ratios = [(name, num / den) for (name, _, _), num, den in zip(pairs, nums, dens) if den != 0.0]

    ratios.append(("s_witness_tail", _indicator_ratio(inst, s_const.witness["tail"])))

    if mode == "exact":
        best_restricted, best_full, _ = _tail_ratios(inst)
        scale = max(abs(s_const.value), abs(best_restricted), 1.0)
        out.append(
            CheckResult(
                theorem="thm12_attain",
                lhs=abs(s_const.value - best_restricted) / scale,
                rhs=0.0,
                abs_tol=IDENTITY_TOL,
                seed=seed,
                detail={"S": s_const.value, "indicator_max": best_restricted},
            )
        )
        ratios.append(("best_tail_indicator", best_full))

    est = max(r for _, r in ratios)
    out.append(
        CheckResult(
            theorem="thm12_lower",
            lhs=s_const.value,
            rhs=est,
            mode=s_const.mode,
            seed=seed,
            detail={"S": s_const.value, "estimate": est},
        )
    )
    const = 32.0 * exps.p1_prime * exps.p2_prime * s_const.value * rh.value ** (1.0 / exps.p)
    worst_name, worst = max(ratios, key=lambda item: item[1])
    out.append(
        CheckResult(
            theorem="thm12_upper",
            lhs=worst,
            rhs=const,
            mode=s_const.mode,
            seed=seed,
            detail={"pair": worst_name, "S": s_const.value, "RH": rh.value, "const": const},
        )
    )
    return out


def check_thm14(inst: Instance, pairs: Pairs | None = None) -> list[CheckResult]:
    """Exp-log bound 32 (2e)^(1/p) p1' p2' [B]^(1/p), plus the substitution
    identity ||f_s sigma_s||_{p_s, omega_s} = ||f_s||_{p_s, sigma_s}."""
    exps = inst.exps
    seed = _row_seed(inst)
    b_const = inst.constant("b")
    const = (
        32.0 * (2.0 * math.e) ** (1.0 / exps.p) * exps.p1_prime * exps.p2_prime * b_const.value ** (1.0 / exps.p)
    )
    pairs = evaluation_pairs(inst, 5) if pairs is None else pairs
    ident = 0.0
    for _, f1, f2 in pairs:
        n1_sigma = lp_norm(inst.space, f1, inst.sigma1, exps.p1)
        n2_sigma = lp_norm(inst.space, f2, inst.sigma2, exps.p2)
        n1_omega = lp_norm(inst.space, f1 * inst.sigma1, inst.omega1, exps.p1)
        n2_omega = lp_norm(inst.space, f2 * inst.sigma2, inst.omega2, exps.p2)
        for a, b in ((n1_sigma, n1_omega), (n2_sigma, n2_omega)):
            ident = max(ident, abs(a - b) / max(a, b, 1e-300))
    name, lhs, rhs = _worst_pair(inst, pairs, const, "thm14_bound")
    return [
        CheckResult(
            theorem="thm14_bound",
            lhs=lhs,
            rhs=rhs,
            seed=seed,
            detail={"pair": name, "B": b_const.value, "const": const},
        ),
        CheckResult(
            theorem="thm14_subst",
            lhs=ident,
            rhs=0.0,
            abs_tol=IDENTITY_TOL,
            seed=seed,
            detail={"pairs": len(pairs)},
        ),
    ]


def check_thm15(inst: Instance, pairs: Pairs | None = None, mode: str = "exact") -> CheckResult:
    """Mixed bound 32 * 2^(1/p) p1' p2' [A]^(1/p) [Winf]^(1/p) on every pair."""
    exps = inst.exps
    seed = _row_seed(inst)
    a_const = inst.constant("a")
    winf = inst.constant("winf", mode)
    const = (
        32.0
        * 2.0 ** (1.0 / exps.p)
        * exps.p1_prime
        * exps.p2_prime
        * (a_const.value * winf.value) ** (1.0 / exps.p)
    )
    pairs = evaluation_pairs(inst, 5) if pairs is None else pairs
    name, lhs, rhs = _worst_pair(inst, pairs, const, "thm15_bound")
    return CheckResult(
        theorem="thm15_bound",
        lhs=lhs,
        rhs=rhs,
        mode=winf.mode,
        seed=seed,
        detail={"pair": name, "A": a_const.value, "Winf": winf.value, "const": const},
    )


# ---- sparse / Carleson per-instance checks -----------------------------------


def default_forest(inst: Instance) -> PrincipalForest:
    """Forest at base level 0 over the full space, at the heaviest occupied
    shell, of the instance's (h1, h2), or of a seeded lognormal pair."""
    space = inst.space
    h1, h2 = inst.h1, inst.h2
    if h1 is None or h2 is None:
        rng = np.random.default_rng(np.random.SeedSequence(inst.seed or 0, spawn_key=(3,)))
        h1, h2 = np.exp(0.7 * rng.standard_normal(space.n)), np.exp(0.7 * rng.standard_normal(space.n))
    forests = forest_cover(space, 0, np.arange(space.n), h1, h2)
    if not forests:
        raise ValueError("no occupied shell: E_0(h1) E_0(h2) vanishes everywhere")
    # max keeps the first of equally heavy forests, i.e. the lowest shell
    return max(forests, key=lambda forest: space.measure(forest.root.points))


def check_sparse(inst: Instance) -> list[CheckResult]:
    """Sparse domination and P.1–P.5 on the instance's default forest."""
    seed = _row_seed(inst)
    forest = inst.forest
    report = sparse_domination_report(forest)
    props = verify_properties(forest)
    tight = report.tightest_point
    bool_violation = 0.0 if (props.p1_ok and props.p2_ok and props.p4_ok) else 1.0
    prop_violation = max(
        0.0, -props.p3_margin, -props.p5_margin, -props.doubling_margin
    ) + bool_violation
    return [
        CheckResult(
            theorem="sparse_domination",
            lhs=float(report.operator[tight]),
            rhs=float(report.bound[tight]),
            abs_tol=1e-12 * report.scale,
            seed=seed,
            detail={
                "tightest_point": tight,
                "min_slack": report.min_slack,
                "localization_gap": report.localization_gap,
                "nodes": forest.n_nodes,
                "base_k": forest.base_k,
            },
        ),
        CheckResult(
            theorem="sparse_properties",
            lhs=prop_violation,
            rhs=0.0,
            abs_tol=IDENTITY_TOL,
            seed=seed,
            detail={
                "p3_margin": props.p3_margin,
                "p5_margin": props.p5_margin,
                "doubling_margin": props.doubling_margin,
                "max_doubling_ratio": props.max_doubling_ratio,
                "nodes": props.n_nodes,
            },
        ),
    ]


def check_carleson(inst: Instance) -> list[CheckResult]:
    """Embedding with proof-style coefficients and an exhaustively
    certified Carleson constant, in both shell variants."""
    seed = _row_seed(inst)
    forest = inst.forest
    out = []
    for variant in ("node", "exit"):
        family = _carleson.build_level_sets(forest, inst.sigma1, inst.sigma2, variant=variant)
        family = _carleson.proof_coefficients(
            inst.space, family, inst.sigma1, inst.sigma2, inst.v, inst.exps
        )
        family, worst_tau = _carleson.certify_carleson_constant(
            inst.space, family, inst.sigma1, inst.sigma2, inst.exps
        )
        report = _carleson.verify_embedding(
            forest, family, forest.h1, forest.h2, inst.omega1, inst.omega2, inst.exps
        )
        out.append(
            CheckResult(
                theorem=f"carleson_{variant}",
                lhs=report.lhs,
                rhs=report.rhs,
                seed=seed,
                detail={
                    "A": report.carleson_A,
                    "entries": len(family.entries),
                    "worst_tail_size": int(worst_tau.tail_set().size),
                },
            )
        )
    return out


# ---- kernel property checks --------------------------------------------------


def check_properties(inst: Instance, draws: int = 20, seed: int | None = None) -> list[CheckResult]:
    """Structural identities behind the theorems, on random draws:

    tower rule, conditional Hölder, conditional Jensen (log), the Doob
    bound for the weighted maximal operator, the squaring identity for the
    bilinear operator, and [RH] >= 1.
    """
    space = inst.space
    exps = inst.exps
    base = inst.seed if seed is None else seed
    rng = np.random.default_rng(np.random.SeedSequence(base or 0, spawn_key=(4,)))
    n = space.n
    tower = holder = jensen = doob = square = 0.0
    for _ in range(draws):
        f = rng.standard_normal(n) * np.exp(rng.standard_normal(n))
        g = np.exp(0.8 * rng.standard_normal(n))
        h = np.exp(0.8 * rng.standard_normal(n))
        i = int(rng.integers(0, space.n_levels))
        j = int(rng.integers(0, space.n_levels))
        lhs = cond_exp(space, cond_exp(space, f, j), i)
        rhs = cond_exp(space, f, min(i, j))
        scale = float(np.max(np.abs(rhs))) or 1.0
        tower = max(tower, float(np.max(np.abs(lhs - rhs))) / scale)

        a1, a2 = exps.p / exps.p1, exps.p / exps.p2
        mix = cond_exp(space, g**a1 * h**a2, i)
        split = cond_exp(space, g, i) ** a1 * cond_exp(space, h, i) ** a2
        holder = max(holder, float(np.max((mix - split) / split)))

        jl = np.exp(cond_exp(space, np.log(g), i))
        je = cond_exp(space, g, i)
        jensen = max(jensen, float(np.max((jl - je) / je)))

        p_doob = float(rng.uniform(1.1, 4.0))
        mw = weighted_maximal(space, f, g)
        num = lp_norm(space, mw, g, p_doob)
        den = (p_doob / (p_doob - 1.0)) * lp_norm(space, f, g, p_doob)
        doob = max(doob, num / den - 1.0)

        m1 = maximal(space, f)
        mbil = bilinear_maximal(space, f, f)
        sq_scale = float(np.max(mbil)) or 1.0
        square = max(square, float(np.max(np.abs(m1 * m1 - mbil))) / sq_scale)

    rh = inst.constant("rh", "heuristic")
    seed_out = _row_seed(inst)

    def mk(name: str, val: float, tol: float) -> CheckResult:
        return CheckResult(
            theorem=name, lhs=val, rhs=0.0, abs_tol=tol, seed=seed_out, detail={"draws": draws}
        )

    return [
        mk("prop_tower", tower, DEFAULT_REL_TOL),
        mk("prop_cond_holder", holder, DEFAULT_REL_TOL),
        mk("prop_jensen_log", jensen, DEFAULT_REL_TOL),
        mk("prop_doob", doob, DEFAULT_REL_TOL),
        mk("prop_square", square, IDENTITY_TOL),
        CheckResult(
            theorem="prop_rh_ge1",
            lhs=1.0,
            rhs=rh.value,
            seed=seed_out,
            detail={"RH_lower_bound": rh.value},
        ),
    ]


# ---- norm estimate -----------------------------------------------------------


def estimate_norm(inst: Instance, budget: int = 16, seed: int = 0) -> tuple[float, dict]:
    """Certified lower bound for the operator norm: max ratio over atom
    indicator pairs, tail indicator pairs (exhaustive when enumerable,
    heuristic search otherwise), and `budget` random lognormal pairs with
    per-draw seeds — so the estimate is monotone in the budget and
    bit-stable for fixed seeds."""
    space = inst.space
    best = -np.inf
    witness: dict = {}

    def consider(value: float | None, info: dict) -> None:
        nonlocal best, witness
        if value is not None and value > best:
            best = value
            witness = info

    for level in range(space.n_levels):
        for a_idx, atom in enumerate(space.atoms[level]):
            consider(_indicator_ratio(inst, atom), {"kind": "atom", "level": level, "atom": a_idx})
    try:
        _, best_tail, arg_tail = _tail_ratios(inst)
        consider(best_tail, {"kind": "tail", "mask": arg_tail})
    except EnumerationBudgetError:
        # the search skips empty tails, so every candidate's indicator pair has a ratio
        def tail_ratios(inside: np.ndarray) -> list[float]:
            nums, dens, _ = _pair_norms(inst, inside.astype(float), inside.astype(float))
            return [num / den for num, den in zip(nums, dens)]

        val, tau = heuristic_sup_over_tau(space, 0, tail_ratios, guide=(inst.sigma1, inst.sigma2))
        consider(val, {"kind": "tail_heuristic", "tail": tau.tail_set().tolist()})
    nums, dens, _ = _pair_norms(inst, *_pair_block(inst, evaluation_pairs(inst, budget, seed=seed)))
    for t, (num, den) in enumerate(zip(nums, dens)):
        consider(None if den == 0.0 else num / den, {"kind": "random", "draw": t})
    return best, witness


# ---- suite runner ------------------------------------------------------------


def _check_suite_args(suite: str, pair_count: int) -> None:
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; expected one of {SUITES}")
    if pair_count < 1:
        raise ValueError(f"pair_count must be at least 1, got {pair_count}")


def run_instance_suite(
    inst: Instance, suite: str = "all", pair_count: int = 5, fallback: bool = False
) -> list[CheckResult]:
    """All rows for one instance.

    The tail mode is decided once, for suites with a tail check: exact
    when the atom budget allows the sweep, else, with fallback=True,
    heuristic (lower-bound) rows and no carleson rows, since certification
    is exhaustive-only; without fallback EnumerationBudgetError is raised.
    The run starts from a fresh copy of `inst`, so each weight constant
    and the default forest are computed once per call, whatever earlier
    calls computed.
    """
    _check_suite_args(suite, pair_count)
    inst = replace(inst)
    mode = "exact"
    if suite in _TAIL_SUITES:
        try:
            _check_budget(inst.space, 0, None)
        except EnumerationBudgetError:
            if not fallback:
                raise
            mode = "heuristic"
    pairs = evaluation_pairs(inst, pair_count)
    rows: list[CheckResult] = []
    if suite in ("thm11", "all"):
        if inst.product_weight:
            rows.append(check_thm11_forward(inst, pairs))
        rows.append(check_thm11_converse(inst, mode))
    if suite in ("thm12", "all"):
        rows.extend(check_thm12(inst, pairs, mode))
    if suite in ("thm14", "all"):
        rows.extend(check_thm14(inst, pairs))
    if suite in ("thm15", "all"):
        rows.append(check_thm15(inst, pairs, mode))
    if suite in ("sparse", "all"):
        rows.extend(check_sparse(inst))
    if suite in ("carleson", "all") and mode == "exact":
        rows.extend(check_carleson(inst))
    if suite in ("props", "all"):
        rows.extend(check_properties(inst))
    return rows


def run_ensemble(
    master_seed: int,
    count: int,
    suite: str = "all",
    depth: int = 2,
    branching: int = 2,
    model: str = "lognormal",
    p1: float = 2.0,
    p2: float = 2.0,
    pair_count: int = 5,
    fallback: bool = False,
    jobs: int = 1,
) -> list[CheckResult]:
    """Run a suite over `count` instances with seeds master_seed + t.

    Rows come back sorted by (seed, theorem); with jobs > 1 the instances
    are processed in a process pool, which cannot change the output.
    """
    _check_suite_args(suite, pair_count)
    args = [
        (master_seed + t, suite, depth, branching, model, p1, p2, pair_count, fallback)
        for t in range(count)
    ]
    if jobs > 1 and count > 1:
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            chunks = list(pool.map(_ensemble_worker, args, chunksize=max(1, count // (4 * jobs))))
    else:
        chunks = [_ensemble_worker(a) for a in args]
    rows = [row for chunk in chunks for row in chunk]
    rows.sort(key=lambda r: (r.seed, r.theorem))
    return rows


def _ensemble_worker(args: tuple) -> list[CheckResult]:
    seed, suite, depth, branching, model, p1, p2, pair_count, fallback = args
    inst = gen_instance(seed, depth=depth, branching=branching, model=model, p1=p1, p2=p2)
    return run_instance_suite(inst, suite, pair_count=pair_count, fallback=fallback)


# ---- reports -----------------------------------------------------------------

CSV_HEADER = "theorem,seed,lhs,rhs,slack,mode"


def rows_to_csv(rows: Sequence[CheckResult]) -> str:
    """Stable CSV: sorted by (seed, theorem), floats via repr (shortest
    round-trip), one row per check."""
    lines = [CSV_HEADER]
    for r in sorted(rows, key=lambda r: (r.seed, r.theorem)):
        lines.append(f"{r.theorem},{r.seed},{r.lhs!r},{r.rhs!r},{r.slack!r},{r.mode}")
    return "\n".join(lines) + "\n"


def rows_to_json(rows: Sequence[CheckResult]) -> str:
    payload = [
        {
            "theorem": r.theorem,
            "seed": r.seed,
            "lhs": r.lhs,
            "rhs": r.rhs,
            "slack": r.slack,
            "mode": r.mode,
            "status": r.status,
            "detail": r.detail,
        }
        for r in sorted(rows, key=lambda r: (r.seed, r.theorem))
    ]
    return json.dumps(payload, indent=2) + "\n"
