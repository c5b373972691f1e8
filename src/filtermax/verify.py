"""End-to-end numerical verification of the weighted bounds.

Ties the pieces together: deterministic random instances (space + weight
triple + Hölder pair), evaluation families of test functions, one checker
per theorem-shaped inequality, and flat result rows suitable for CSV/JSON
reports.

Every check is framed as lhs <= rhs with slack = rhs - lhs.  Rows whose
right-hand side uses a heuristic (lower-bound) tail supremum cannot
falsify anything: a pass is conclusive, a violation only means
"indeterminate" and is not counted as a hard failure.

Generated instances pay their fixed costs once: `_tower` builds each
regular tower once per shape and process, valid by construction, so no
generated space goes through the raw reader, and its spaces share the
tower's lookup tables; the test pairs are checked as two stacked blocks.
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from . import carleson as _carleson
from .operators import _leaf_max, _level_max, _power, _ratio_means
from .principal import (
    MAX_K2,
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
    _as_block,
    _Tower,
    _is_number,
    _level_means,
    _non_number,
    _to_points,
    as_fn,
    cond_exp,
    level_products,
    space_from_dict,
    space_to_dict,
)
from .stopping import EnumerationBudgetError, _check_budget, _sweep_tails
from .weights import WeightConstant, _duals, _mix, compute_constant

SUITES = ("thm11", "thm12", "thm14", "thm15", "sparse", "carleson", "props", "all")
DEFAULT_REL_TOL = 1e-9
IDENTITY_TOL = 1e-12
MAX_POINTS = 65536  # points in the largest space `gen_space` builds
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
        return _duals(self.space, self.omega1, self.omega2, self.exps)[0]

    @cached_property
    def sigma2(self) -> Fn:
        return _duals(self.space, self.omega1, self.omega2, self.exps)[1]

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

    @cached_property
    def _scores(self) -> dict[tuple, tuple[list[float], list[float]]]:
        return {}

    def pair_scores(self, pairs: Pairs) -> tuple[list[float], list[float]]:
        """Per test pair, ||M(f1 sigma1, f2 sigma2)||_{L^p(v)} and
        ||f1||_{p1,sigma1} ||f2||_{p2,sigma2} (see `_pair_norms`), computed once
        per family, keyed by the pairs' names and array bytes."""
        F1, F2 = _pair_block(self, pairs)
        key = (tuple(name for name, _, _ in pairs), F1.tobytes(), F2.tobytes())
        if key not in self._scores:
            self._scores[key] = _pair_norms(self, F1, F2)[:2]
        return self._scores[key]


@dataclass(frozen=True, slots=True)
class CheckResult:
    """One verified inequality: lhs <= rhs up to tolerance.

    mode "exact" rows can falsify; "lower-bound" rows (heuristic constants
    on the rhs) are only conclusive when they pass.  A side that is not finite
    (past float range) proves nothing, so it raises a ValueError naming the
    row.  Slotted, since an ensemble run holds every row in memory.
    """

    theorem: str
    lhs: float
    rhs: float
    mode: str = "exact"
    seed: int = -1
    rel_tol: float = DEFAULT_REL_TOL
    abs_tol: float = 0.0
    detail: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (math.isfinite(self.lhs) and math.isfinite(self.rhs)):
            raise ValueError(f"{self.theorem}: lhs {self.lhs!r} and rhs {self.rhs!r} are not both finite")

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


def _decimal(k: int) -> str:
    """k in decimal, or its bit length where Python refuses to print it (past its
    int-to-string digit limit)."""
    try:
        return str(k)
    except ValueError:
        return f"of {k.bit_length()} bits"


@functools.cache  # one per shape a process generates; each holds at most MAX_POINTS points
def _tower(depth: int, branching: int) -> _Tower:
    """The regular branching tower on branching^depth points, each atom a
    contiguous block, built once per shape: its spaces share its arrays and
    lookup tables.  Refuses a shape past MAX_POINTS before building anything."""
    if depth < 1 or branching < 2:
        raise ValueError("need depth >= 1 and branching >= 2")
    n = 1
    for _ in range(depth):
        n *= branching
        if n > MAX_POINTS:
            raise ValueError(
                f"point limit exceeded: branching {_decimal(branching)} at depth {_decimal(depth)}"
                f" gives more than {MAX_POINTS} points"
            )
    points = np.arange(n, dtype=np.int64)
    points.setflags(write=False)  # first, so that the atoms, its views, are read-only too
    atom_of = [points // branching ** (depth - t) for t in range(depth + 1)]
    parents = [np.empty(0, dtype=np.int64), *(np.arange(branching**t) // branching for t in range(1, depth + 1))]
    for arr in (*atom_of, *parents):
        arr.setflags(write=False)
    return _Tower([points.reshape(branching**t, -1) for t in range(depth + 1)], atom_of, parents)


def gen_space(seed: int, depth: int, branching: int) -> FilteredSpace:
    """Regular branching tower over [0, 1): branching^depth points in
    contiguous blocks, masses drawn positive and normalized to total 1."""
    tower = _tower(depth, branching)
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
    masses = rng.uniform(0.5, 1.5, size=tower.atom_of[0].size)  # one point per finest atom
    masses /= masses.sum()
    return FilteredSpace._on_tower(masses, tower)


def gen_instance(
    seed: int,
    depth: int = 2,
    branching: int = 2,
    model: str = "lognormal",
    p1: float = 2.0,
    p2: float = 2.0,
) -> Instance:
    """Deterministic-in-seed random instance.

    Models: "lognormal[:s]" — v, omega1, omega2 iid exp(s N(0,1));
    "product[:s]" — lognormal omegas with v = omega1^(p/p1) omega2^(p/p2);
    "power[:a]" — uniform masses on [0,1), omega1 = x^a, omega2 = (1-x)^a,
    v = (x(1-x))^(a/2).
    """
    name, param = _parse_model(model)
    exps = Exponents(p1, p2)
    if name == "power":  # uniform masses on the same tower
        tower = _tower(depth, branching)
        n = tower.atom_of[0].size
        space = FilteredSpace._on_tower(np.full(n, 1.0 / n), tower)
    else:
        space = gen_space(seed, depth, branching)
    n = space.n
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
    # extreme parameters overflow or underflow; the check below reports it
    with np.errstate(all="ignore"):
        if name == "power":
            a = 1.0 if param is None else param
            x = (np.arange(n) + 0.5) / n
            omega1 = x**a
            omega2 = (1.0 - x) ** a
            v = (x * (1.0 - x)) ** (a / 2.0)
        else:
            s = 0.6 if param is None else param
            omega1 = np.exp(s * rng.standard_normal(n))
            omega2 = np.exp(s * rng.standard_normal(n))
            v = _mix(omega1, omega2, exps) if name == "product" else np.exp(s * rng.standard_normal(n))
    for key, arr in (("v", v), ("omega1", omega1), ("omega2", omega2)):
        if not (np.isfinite(arr) & (arr > 0)).all():
            raise ValueError(
                f"model {model!r} at seed {seed}: field {key!r} is not finite and strictly positive"
            )
    try:
        _duals(space, omega1, omega2, exps)
    except ValueError as exc:
        raise ValueError(f"model {model!r} at seed {seed}: {exc}") from None
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


_FIELDS = {  # instance file fields past the space: name -> kind, in the order files list them
    "v": "weight",
    "omega1": "weight",
    "omega2": "weight",
    "p1": "exponent",
    "p2": "exponent",
    "product_weight": "bookkeeping",
    "model": "bookkeeping",
    "seed": "bookkeeping",
    "h1": "test",
    "h2": "test",
}
_BOOKKEEPING = {  # name -> (value when absent, test of a value, what the test asks)
    "seed": (None, lambda x: x is None or (type(x) is int and x >= 0), "a non-negative integer"),
    "product_weight": (False, lambda x: type(x) is bool, "true or false"),
    "model": ("", lambda x: type(x) is str, "a string"),
}


def instance_to_dict(inst: Instance) -> dict:
    data = space_to_dict(inst.space)
    for key, kind in _FIELDS.items():
        value = getattr(inst.exps if kind == "exponent" else inst, key)
        if value is not None:  # no seed, or no test functions
            data[key] = value.tolist() if isinstance(value, np.ndarray) else value
    return data


def _load_field(space: FilteredSpace, data: dict, key: str, where: str):
    """Field `key` of instance file data, read and checked as its kind asks:
    test functions and bookkeeping fields may be absent."""
    kind = _FIELDS[key]
    if kind == "bookkeeping":
        default, ok, wanted = _BOOKKEEPING[key]
        value = data.get(key, default)
        if not ok(value):
            raise ValidationError(f"{where}: field {key!r} must be {wanted}, got {value!r}")
        return value
    if key not in data:
        if kind == "test":
            return None
        raise ValidationError(f"{where}: missing {kind} field {key!r}")
    if kind == "exponent" and not _is_number(data[key]):
        raise ValidationError(f"{where}: field {key!r} must be a number, got {data[key]!r}")
    wrong = None if kind == "exponent" else _non_number(data[key])
    if wrong is not None:
        raise ValidationError(f"{where}: field {key!r}[{wrong[0]}]: {wrong[1]!r} is not a number")
    try:
        value = float(data[key]) if kind == "exponent" else as_fn(space, data[key])
    except (TypeError, ValueError, OverflowError) as exc:  # TypeError: an object, not a list
        raise ValidationError(f"{where}: field {key!r}: {exc}") from exc
    if kind == "weight" and (value <= 0).any():
        raise ValidationError(f"{where}: field {key!r} must be strictly positive")
    if kind == "test" and (value < 0).any():
        raise ValidationError(f"{where}: field {key!r} must be nonnegative")
    return value


def instance_from_dict(data: dict, where: str = "instance") -> Instance:
    """An instance from file data, each fault reported as a ValidationError
    naming `where`: the first in the order read below."""
    space = space_from_dict(data, where=where)
    p12 = [_load_field(space, data, key, where) for key in ("p1", "p2")]
    try:
        exps = Exponents(*p12)
    except ValueError as exc:
        raise ValidationError(f"{where}: {exc}") from exc
    fns = {key: _load_field(space, data, key, where) for key in ("v", "omega1", "omega2", "h1", "h2")}
    h1, h2 = fns["h1"], fns["h2"]
    if (h1 is None) != (h2 is None):
        given, missing = ("h1", "h2") if h1 is not None else ("h2", "h1")
        raise ValidationError(f"{where}: field {given!r} needs field {missing!r} too")
    if h1 is not None:
        prods = np.array(level_products(space, h1, h2))
        if not np.isfinite(prods).all():
            j, x = np.argwhere(~np.isfinite(prods))[0].tolist()  # the first level, then the first point
            raise ValidationError(f"{where}: fields 'h1' and 'h2': E_{j}(h1) E_{j}(h2) overflows at point {x}")
        if (prods > 4.0**MAX_K2).any():  # a principal set of shell K2 > MAX_K2 has an infinite sparse bound
            j, x = np.argwhere(prods > 4.0**MAX_K2)[0].tolist()
            raise ValidationError(
                f"{where}: fields 'h1' and 'h2': E_{j}(h1) E_{j}(h2) exceeds 4^{MAX_K2} at point {x}, "
                "so its sparse bound 16 * 4^(K2-1) overflows a float"
            )
        if not (prods[0] > 0).any():
            raise ValidationError(
                f"{where}: fields 'h1' and 'h2': E_0(h1) E_0(h2) vanishes everywhere, so no principal forest exists"
            )
    try:
        _duals(space, fns["omega1"], fns["omega2"], exps)
    except ValueError as exc:
        raise ValidationError(f"{where}: {exc}") from exc
    seed, product = (_load_field(space, data, key, where) for key in ("seed", "product_weight"))
    if product:
        v = fns["v"]
        expected = _mix(fns["omega1"], fns["omega2"], exps)
        bad = np.flatnonzero(np.abs(v - expected) > DEFAULT_REL_TOL * expected)
        if bad.size:
            x = int(bad[0])
            raise ValidationError(
                f"{where}: product_weight is true but v[{x}] = {float(v[x])!r} differs from "
                f"omega1^(p/p1) omega2^(p/p2) = {float(expected[x])!r}"
            )
    model = _load_field(space, data, "model", where)
    return Instance(space=space, exps=exps, product_weight=product, seed=seed, model=model, **fns)


def load_instance(path: str) -> Instance:
    """Load an instance file; a file that is not JSON (or not UTF-8) raises
    ValidationError naming the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}:{exc.lineno}: invalid JSON ({exc.msg})") from exc
    except (ValueError, RecursionError) as exc:  # not UTF-8, too long an integer, or too deeply nested
        raise ValidationError(f"{path}: invalid JSON ({exc})") from exc
    return instance_from_dict(data, where=path)


def dump_instance(inst: Instance, path: str) -> None:
    """Write the instance as one JSON document followed by a newline."""
    with open(path, "w") as fh:
        json.dump(instance_to_dict(inst), fh)
        fh.write("\n")


# ---- evaluation family -------------------------------------------------------


def evaluation_pairs(inst: Instance, count: int) -> list[tuple[str, Fn, Fn]]:
    """Deterministic lognormal test pairs; draw t depends only on the instance's seed and t."""
    base = 0 if inst.seed is None else inst.seed
    out = []
    n = inst.space.n
    for t in range(count):
        rng = np.random.default_rng(np.random.SeedSequence(base, spawn_key=(2, t)))
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
    bit as `bilinear_maximal` and `lp_norm`, each norm rooted as a Python float.
    A full row sums as `sum(axis=1)`, which on a C-contiguous block adds each row
    as its 1-d `.sum()` does; a restricted sum compresses its row first, since
    zeros in place of the points outside would change the pairwise grouping.  One
    stable sort of the rows by their counts inside and one boolean gather put the
    rows with as many points inside side by side, each run one C-contiguous block,
    whose row totals go back to their rows."""
    exps, masses = inst.exps, inst.space.masses
    with np.errstate(over="ignore"):  # a norm past float range is inf, which its row refuses
        m = _level_max(inst.space, 0, F1 * inst.sigma1, F2 * inst.sigma2)
        dens_m = m**exps.p * inst.v * masses
    nums = _roots(dens_m.sum(axis=1), exps.p, "||M(f1 sigma1, f2 sigma2)||_{L^p(v)}")
    n1 = _row_norms(inst.space, F1, inst.sigma1, exps.p1)
    n2 = _row_norms(inst.space, F2, inst.sigma2, exps.p2)
    dens = [a * b for a, b in zip(n1, n2)]
    if inside is None:
        return nums, dens, nums
    counts = inside.sum(axis=1)
    order = np.argsort(counts, kind="stable")
    sizes = counts[order]
    values = dens_m[order][inside[order]]  # each row's points inside, the rows by count
    starts = np.flatnonzero(np.diff(sizes, prepend=-1)).tolist()  # the first row of each count
    totals = np.empty(len(counts))
    offset = 0
    for lo, hi in zip(starts, [*starts[1:], len(sizes)]):
        rows, count = order[lo:hi], int(sizes[lo])
        totals[rows] = values[offset : offset + rows.size * count].reshape(rows.size, count).sum(axis=1)
        offset += rows.size * count
    return nums, dens, _roots(totals, exps.p, "||1_E M(f1 sigma1, f2 sigma2)||_{L^p(v)}")


def _roots(totals: np.ndarray, p: float, what: str = "an L^p norm") -> list[float]:
    """total ** (1/p) per total of an array, as `lp_norm` roots its sum: a Python
    float power, with 1/p computed once; a root past float range (p < 1) raises
    the checked power's ValueError naming `what`."""
    inv = 1.0 / p
    try:
        return [t**inv for t in totals.tolist()]
    except OverflowError:
        return [_power(t, inv, what) for t in totals.tolist()]  # raises at the first root past range


def _row_norms(space: FilteredSpace, block: np.ndarray, weight: Fn, p: float) -> list[float]:
    """lp_norm(space, row, weight, p) of each row of a (k, n) block, unchecked, bit for bit."""
    return _roots((np.abs(block) ** p * weight * space.masses).sum(axis=1), p)


def _pair_block(inst: Instance, pairs: Pairs) -> tuple[np.ndarray, np.ndarray]:
    """The pairs' f1s and f2s as two (k, n) blocks, each function checked by
    `as_fn` in order, so the error is the first it raises."""
    space = inst.space
    F1 = np.empty((len(pairs), space.n))
    F2 = np.empty_like(F1)
    for r, (_, f1, f2) in enumerate(pairs):
        F1[r], F2[r] = as_fn(space, f1), as_fn(space, f2)
    return F1, F2


def norm_ratio(inst: Instance, f1: Fn, f2: Fn) -> float | None:
    """||M(f1 sigma1, f2 sigma2)||_{L^p(v)} / (||f1||_{p1,sigma1} ||f2||_{p2,sigma2})."""
    (num,), (den,), _ = _pair_norms(inst, *_pair_block(inst, [("", f1, f2)]))
    return None if den == 0.0 else num / den


def _bound_row(
    inst: Instance, pairs: Pairs, theorem: str, const: float, constants: dict, mode: str = "exact"
) -> CheckResult:
    """The row of the bound ||M(f1 sigma1, f2 sigma2)|| <= const ||f1|| ||f2|| at
    the pair with the largest lhs / rhs (the first such pair wins ties), with
    detail pair, `constants` and const.  Raises ValueError naming the check
    when no pair has a nonvanishing denominator, or naming the pair whose rhs
    const ||f1|| ||f2|| underflows to 0."""
    nums, dens = inst.pair_scores(pairs)
    sides = [(name, num, const * den) for (name, _, _), num, den in zip(pairs, nums, dens) if den != 0.0]
    if not sides:
        raise ValueError(f"{theorem}: no test pair has ||f1|| ||f2|| > 0 ({len(pairs)} pairs given)")
    for name, _, rhs in sides:
        if rhs == 0.0:
            raise ValueError(f"{theorem}: rhs const ||f1|| ||f2|| underflows to 0 at pair {name!r} (const {const!r})")
    name, lhs, rhs = max(sides, key=lambda side: side[1] / side[2])
    return CheckResult(theorem, lhs, rhs, mode, _row_seed(inst), detail={"pair": name, **constants, "const": const})


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
        * _power(4.0, exps.q_prime - 1.0, "thm11_forward's 4^(q'-1)")
        * exps.p1_prime
        * exps.p2_prime
        * _power(a_const.value, exps.q_prime / exps.p, "thm11_forward's [A]^(q'/p)")
    )
    pairs = evaluation_pairs(inst, 5) if pairs is None else pairs
    return _bound_row(inst, pairs, "thm11_forward", const, {"A": a_const.value})


def check_thm11_converse(inst: Instance, mode: str = "exact") -> CheckResult:
    """Indicator-test converse: at the atom attaining [A],

        [A]^(1/p) <= r_B * [RH]^(1/p),

    where r_B is the norm ratio of the pair (1_B, 1_B).  Holds in
    heuristic mode too: the single-atom tail {B} is in the search family.
    The rhs is positive ([RH] >= 1), so a rhs of 0 (its M norm underflows)
    is refused.
    """
    exps = inst.exps
    a_const = inst.constant("a")
    rh = inst.constant("rh", mode)
    lhs = _power(a_const.value, 1.0 / exps.p, "thm11_converse's [A]^(1/p)")
    chi = inst.space.indicator(a_const.witness["atom"])
    r_b = norm_ratio(inst, chi, chi)
    if r_b is None:  # the sigma_s masses of B underflow
        raise ValueError("thm11_converse: the [A] witness atom B has ||1_B||_{p1,sigma1} ||1_B||_{p2,sigma2} = 0")
    rhs = r_b * _power(rh.value, 1.0 / exps.p, "thm11_converse's [RH]^(1/p)")
    if rhs == 0.0:
        raise ValueError(f"thm11_converse: rhs r_B [RH]^(1/p) underflows to 0 at the [A] witness atom B (r_B {r_b!r})")
    return CheckResult(
        theorem="thm11_converse",
        lhs=lhs,
        rhs=rhs,
        mode=rh.mode,
        seed=_row_seed(inst),
        detail={"A": a_const.value, "RH": rh.value, "atom_level": a_const.witness["level"], "r_B": r_b},
    )


def _tail_ratios(inst: Instance) -> tuple[float, float, int]:
    """Per nonempty T_0 tail E: restricted and full norm ratios of the pair
    (sigma1 1_E, sigma2 1_E).  Returns both maxima and the first mask
    attaining the full one; raises EnumerationBudgetError when the tails
    cannot be swept exactly.

    `_sweep_tails` scores each block through `_pair_norms` and keeps the
    full maximum; the restricted maximum is taken per block, as one array
    division and `.max()`.
    The S sweep sums in another order, which keeps thm12_attain an
    independent check of it.
    """
    best_restricted = -np.inf

    def full_ratios(inside: np.ndarray) -> np.ndarray:
        nonlocal best_restricted
        chi = inside.astype(float)
        nums, dens, restricted = _pair_norms(inst, chi, chi, inside)
        dens = np.array(dens)
        best_restricted = max(best_restricted, float((np.array(restricted) / dens).max()))
        return np.array(nums) / dens

    best_full, arg_f = _sweep_tails(inst.space, 0, full_ratios)
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
    nums, dens = inst.pair_scores(pairs)
    ratios = [(name, num / den) for (name, _, _), num, den in zip(pairs, nums, dens) if den != 0.0]

    chi = inst.space.indicator(s_const.witness["tail"])
    ratios.append(("s_witness_tail", norm_ratio(inst, chi, chi)))
    if ratios[-1][1] is None:  # the sigma_s masses of E underflow
        raise ValueError("thm12: the [S] witness tail E has ||1_E||_{p1,sigma1} ||1_E||_{p2,sigma2} = 0")

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
    root_rh = _power(rh.value, 1.0 / exps.p, "thm12_upper's [RH]^(1/p)")
    const = 32.0 * exps.p1_prime * exps.p2_prime * s_const.value * root_rh
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
    b_const = inst.constant("b")
    root_b = _power(b_const.value, 1.0 / exps.p, "thm14_bound's [B]^(1/p)")
    const = 32.0 * (2.0 * math.e) ** (1.0 / exps.p) * exps.p1_prime * exps.p2_prime * root_b
    pairs = evaluation_pairs(inst, 5) if pairs is None else pairs
    ident = 0.0
    sigmas, omegas = (inst.sigma1, inst.sigma2), (inst.omega1, inst.omega2)
    for F, sigma, omega, p_s in zip(_pair_block(inst, pairs), sigmas, omegas, (exps.p1, exps.p2)):
        n_sigma = _row_norms(inst.space, F, sigma, p_s)
        n_omega = _row_norms(inst.space, _as_block(inst.space, F * sigma), omega, p_s)
        for a, b in zip(n_sigma, n_omega):
            ident = max(ident, abs(a - b) / max(a, b, 1e-300))
    return [
        _bound_row(inst, pairs, "thm14_bound", const, {"B": b_const.value}),
        CheckResult(
            theorem="thm14_subst",
            lhs=ident,
            rhs=0.0,
            abs_tol=IDENTITY_TOL,
            seed=_row_seed(inst),
            detail={"pairs": len(pairs)},
        ),
    ]


def check_thm15(inst: Instance, pairs: Pairs | None = None, mode: str = "exact") -> CheckResult:
    """Mixed bound 32 * 2^(1/p) p1' p2' [A]^(1/p) [Winf]^(1/p) on every pair."""
    exps = inst.exps
    a_const = inst.constant("a")
    winf = inst.constant("winf", mode)
    const = (
        32.0
        * 2.0 ** (1.0 / exps.p)
        * exps.p1_prime
        * exps.p2_prime
        * _power(a_const.value * winf.value, 1.0 / exps.p, "thm15_bound's ([A] [Winf])^(1/p)")
    )
    pairs = evaluation_pairs(inst, 5) if pairs is None else pairs
    return _bound_row(inst, pairs, "thm15_bound", const, {"A": a_const.value, "Winf": winf.value}, winf.mode)


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
    """Sparse domination and P.1–P.5 on the instance's default forest, by the
    rule of `DominationReport.ok`: no relative tolerance, and the gap counts."""
    seed = _row_seed(inst)
    forest = inst.forest
    report = sparse_domination_report(forest)
    props = verify_properties(forest)
    tight = report.tightest_point
    bool_violation = 0.0 if (props.p1_ok and props.p2_ok and props.p4_ok) else 1.0
    prop_violation = max(
        0.0, -props.p3_margin, -props.p5_margin, -props.doubling_margin
    ) + bool_violation + report.localization_gap / report.scale
    return [
        CheckResult(
            theorem="sparse_domination",
            lhs=float(report.operator[tight]),
            rhs=float(report.bound[tight]),
            rel_tol=0.0,
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
    """Embedding with proof-style coefficients and an exactly certified
    Carleson constant, in both shell variants."""
    seed = _row_seed(inst)
    forest = inst.forest
    out = []
    for variant in ("node", "exit"):
        family = _carleson.build_level_sets(forest, inst.sigma1, inst.sigma2, variant)
        family = _carleson.proof_coefficients(inst.space, family, inst.sigma1, inst.sigma2, inst.v, inst.exps)
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


_PROPERTY_TOLS = {
    "prop_tower": DEFAULT_REL_TOL,
    "prop_cond_holder": DEFAULT_REL_TOL,
    "prop_jensen_log": DEFAULT_REL_TOL,
    "prop_doob": DEFAULT_REL_TOL,
    "prop_square": IDENTITY_TOL,
}


def _property_residuals(inst: Instance, draws: int = 20, seed: int | None = None) -> dict[str, np.ndarray]:
    """Per-draw residuals of the identities of `check_properties`, one (draws,)
    array per row name, before the clip at 0.

    Draw r is (f, g, h, i, j, p) = row r of (F, G, H, I, J, P), drawn in one
    loop in the order a per-draw loop draws them: its four normal rows as one
    `standard_normal(4 n)`, the same stream, then F, G and H on whole blocks.
    Each identity then runs once on the whole block: one public `cond_exp` per
    level of the stacked blocks (F at j and at min(i, j); G, `_mix(G, H)`, H,
    log G at i) and one per level of the tower's inner block, each on the rows
    at that level only; the weighted maximum on `_level_max`, the plain and
    squared maxima of F from one `_level_means`.  Row maxima and sums are a
    1-d call's.
    """
    space = inst.space
    exps = inst.exps
    base = inst.seed if seed is None else seed
    rng = np.random.default_rng(np.random.SeedSequence(base or 0, spawn_key=(4,)))
    n = space.n
    Z = np.empty((draws, 4, n))
    I, J = np.empty(draws, dtype=np.int64), np.empty(draws, dtype=np.int64)
    P = [0.0] * draws
    for r in range(draws):
        rng.standard_normal(out=Z[r].reshape(-1))  # the stream of four standard_normal(n) calls
        I[r] = rng.integers(0, space.n_levels)
        J[r] = rng.integers(0, space.n_levels)
        P[r] = float(rng.uniform(1.1, 4.0))
    F = Z[:, 0] * np.exp(Z[:, 1])
    G, H = np.exp(0.8 * Z[:, 2]), np.exp(0.8 * Z[:, 3])

    def at(block: np.ndarray, lv: np.ndarray) -> np.ndarray:
        """Row r of block conditioned on F_{lv[r]}: one public `cond_exp` per level,
        of the rows at that level only (an empty block where none is)."""
        out = np.empty_like(block)
        for t in range(space.n_levels):
            sel = lv == t
            out[sel] = cond_exp(space, block[sel], t)
        return out

    def scaled(diff: np.ndarray, scale: np.ndarray) -> np.ndarray:
        """Row maxima of diff over the row maxima of scale, a zero scale read as 1."""
        scale = scale.max(axis=1)
        return diff.max(axis=1) / np.where(scale == 0.0, 1.0, scale)

    block = np.concatenate([F, F, G, _mix(G, H, exps), H, np.log(G)])
    levels = np.concatenate([J, np.minimum(I, J), *[I] * 4])
    cond_fj, tower_rhs, cond_g, mix, cond_h, log_g = at(block, levels).reshape(6, draws, n)
    tower_lhs = at(cond_fj, I)
    split = _mix(cond_g, cond_h, exps)

    def lp_norms(block: np.ndarray) -> list[float]:
        """lp_norm(space, row, g, p) of each row with its own (g, p) = (G[r], P[r])."""
        totals = (np.abs(block) ** np.array(P)[:, None] * G * space.masses).sum(axis=1)
        return [float(t) ** (1.0 / p) for t, p in zip(totals, P)]

    mw = _level_max(space, 0, np.abs(F) * G, means=_ratio_means(G))
    doob = [num / ((p / (p - 1.0)) * den) - 1.0 for num, den, p in zip(lp_norms(mw), lp_norms(F), P)]

    terms = _level_means(space, F)
    mbil = _to_points(space, _leaf_max(space, 0, [t * t for t in terms]), space.last_level)
    m1 = _to_points(space, _leaf_max(space, 0, [np.abs(t, out=t) for t in terms]), space.last_level)
    return {
        "prop_tower": scaled(np.abs(tower_lhs - tower_rhs), np.abs(tower_rhs)),
        "prop_cond_holder": ((mix - split) / split).max(axis=1),
        "prop_jensen_log": ((np.exp(log_g) - cond_g) / cond_g).max(axis=1),
        "prop_doob": np.array(doob, dtype=float),
        "prop_square": scaled(np.abs(m1 * m1 - mbil), mbil),
    }


def check_properties(inst: Instance, draws: int = 20, seed: int | None = None) -> list[CheckResult]:
    """Structural identities behind the theorems, on random draws:

    tower rule, conditional Hölder, conditional Jensen (log), the Doob
    bound for the weighted maximal operator, the squaring identity for the
    bilinear operator, and [RH] >= 1.  Each identity row reports its
    largest residual over the draws, or 0.0 (also with no draws); `nan`
    residuals are skipped.
    """
    seed_out = _row_seed(inst)
    rows = [
        CheckResult(name, max([0.0, *res.tolist()]), 0.0, abs_tol=_PROPERTY_TOLS[name], seed=seed_out,
                    detail={"draws": draws})
        for name, res in _property_residuals(inst, draws, seed).items()
    ]
    rh = inst.constant("rh", "heuristic")
    return [*rows, CheckResult("prop_rh_ge1", 1.0, rh.value, seed=seed_out, detail={"RH_lower_bound": rh.value})]


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

    The tail mode is exact unless fallback=True and the atom budget refuses
    the sweep: then the tail checks give heuristic (lower-bound) rows.
    Without fallback the first exact sweep raises EnumerationBudgetError.
    The carleson rows need no sweep, so they run on any space, as the
    thm14, sparse and props rows do.
    The run starts from a fresh copy of `inst`, so each weight constant
    and the default forest are computed once per call, whatever earlier
    calls computed.
    """
    _check_suite_args(suite, pair_count)
    inst = replace(inst)
    mode = "exact"
    if fallback:  # without it the exact sweeps raise EnumerationBudgetError themselves
        try:
            _check_budget(inst.space, 0)
        except EnumerationBudgetError:
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
    if suite in ("carleson", "all"):
        rows.extend(check_carleson(inst))
    if suite in ("props", "all"):
        rows.extend(check_properties(inst))
    return rows


def run_ensemble(
    master_seed: int,
    count: int,
    suite: str = "all",
    pair_count: int = 5,
    fallback: bool = False,
    jobs: int = 1,
    **gen,
) -> list[CheckResult]:
    """Run a suite over `count` instances with seeds master_seed + t.

    `gen` holds the keywords forwarded to `gen_instance` (depth, branching,
    model, p1, p2), which supplies the defaults of those left out.  Rows
    come back sorted by (seed, theorem); with jobs > 1 the instances are
    processed in a process pool of at most min(jobs, count, CPUs) workers,
    which cannot change the output.
    """
    _check_suite_args(suite, pair_count)
    args = [(master_seed + t, gen, suite, pair_count, fallback) for t in range(count)]
    workers = min(jobs, count, os.cpu_count() or 1)
    if workers > 1:
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_ensemble_worker, args, chunksize=max(1, count // (4 * workers))))
    else:
        chunks = [_ensemble_worker(a) for a in args]
    rows = [row for chunk in chunks for row in chunk]
    rows.sort(key=lambda r: (r.seed, r.theorem))
    return rows


def _ensemble_worker(args: tuple) -> list[CheckResult]:
    seed, gen, suite, pair_count, fallback = args
    return run_instance_suite(gen_instance(seed, **gen), suite, pair_count=pair_count, fallback=fallback)


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
