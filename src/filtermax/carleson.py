"""Carleson embedding over a principal forest.

The level sets of a forest slice each node P by the dyadic size of the
weighted product at the node's stopping level:

    A_P^l = B(P) intersect { 2^l < E_K1(sigma1) E_K1(sigma2) <= 2^(l+1) },

where the base set B(P) is either the node itself ("node" variant) or its
exit set ("exit" variant); both carry the same embedding theorem.  A
nonnegative coefficient a_Q is attached to each nonempty A_P^l.

The Carleson condition with constant A demands, for every stopping time
tau in T_i (i = the forest's base level):

    sum of a_Q over Q contained in {tau < inf}
        <= A * integral over {tau < inf} of sigma1^(p/p1) sigma2^(p/p2) dmu.

`certify_carleson_constant` computes the smallest such A exhaustively:
the tails {tau < inf} are exactly the unions of finest atoms, and it
sweeps all of them in blocks (budgeted) — the embedding verifier refuses
to run with an uncertified constant unless one is supplied explicitly.
Under the condition, for f_s = h_s with finite L^(p_s)(omega_s) norms,

    sum over Q of essinf_Q( E^sigma1(h1 sigma1^-1 | F_K1)
                            E^sigma2(h2 sigma2^-1 | F_K1) )^p a_Q
        <= A (p1' p2')^p ||h1||_{L^p1(omega1)}^p/p1... (norms over P0)

with the product of the two restricted norms on the right; the weighted
Doob inequality supplies the (p1' p2')^p factor.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .principal import PrincipalForest, _shells
from .space import Exponents, FilteredSpace, Fn, _weighted_cond, _weighted_pair, as_fn, level_products
from .stopping import StoppingTime, _tail_blocks, finest_mask, stopping_time_from_tail
from .weights import sigma_from_omega

VARIANTS = ("node", "exit")


@dataclass(frozen=True)
class CarlesonEntry:
    node_index: int  # preorder index into forest.nodes()
    k1: int
    level_exp: int   # l: the dyadic shell (2^l, 2^(l+1)]
    points: np.ndarray
    coefficient: float


@dataclass(frozen=True)
class CarlesonFamily:
    variant: str
    base_level: int
    entries: tuple[CarlesonEntry, ...]
    carleson_A: float | None = None
    certified: bool = False

    def coefficients(self) -> np.ndarray:
        return np.array([e.coefficient for e in self.entries])

    def with_coefficients(self, coeffs: Sequence[float]) -> "CarlesonFamily":
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (len(self.entries),):
            raise ValueError(f"need {len(self.entries)} coefficients")
        if np.any(coeffs < 0) or not np.all(np.isfinite(coeffs)):
            raise ValueError("coefficients must be finite and nonnegative")
        entries = tuple(replace(e, coefficient=float(c)) for e, c in zip(self.entries, coeffs))
        return CarlesonFamily(self.variant, self.base_level, entries, None, False)

    def with_constant(self, value: float, certified: bool) -> "CarlesonFamily":
        return CarlesonFamily(self.variant, self.base_level, self.entries, float(value), certified)


def build_level_sets(
    forest: PrincipalForest, sigma1: Fn, sigma2: Fn, variant: str = "node"
) -> CarlesonFamily:
    """Slice each node into dyadic shells of E_K1(sigma1) E_K1(sigma2).

    Only nonempty shells are materialized; coefficients start at zero.
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    space = forest.space
    sigma1 = as_fn(space, sigma1)
    sigma2 = as_fn(space, sigma2)
    if np.any(sigma1 <= 0) or np.any(sigma2 <= 0):
        raise ValueError("sigma weights must be strictly positive")
    entries: list[CarlesonEntry] = []
    prods = level_products(space, sigma1, sigma2)
    for node_index, node in enumerate(forest.nodes()):
        base = node.points if variant == "node" else node.exit_points
        if base.size == 0:
            continue
        # 2^l < w <= 2^(l+1), i.e. l + 1 is the base-2 shell of w
        exps = _shells(prods[node.k1][base], 1) - 1
        for l in np.unique(exps).tolist():
            pts = base[exps == l]
            entries.append(CarlesonEntry(node_index, node.k1, l, pts, 0.0))
    return CarlesonFamily(variant, forest.base_level, tuple(entries))


def proof_coefficients(
    space: FilteredSpace, family: CarlesonFamily, sigma1: Fn, sigma2: Fn, v: Fn, exps: Exponents
) -> CarlesonFamily:
    """a_Q = integral over Q of (E_K1(sigma1) E_K1(sigma2))^p v dmu."""
    prods = level_products(space, sigma1, sigma2)
    v = as_fn(space, v)
    coeffs = []
    for entry in family.entries:
        w = prods[entry.k1][entry.points]
        coeffs.append(float((w**exps.p * v[entry.points] * space.masses[entry.points]).sum()))
    return family.with_coefficients(coeffs)


def _mix_density(space: FilteredSpace, sigma1: Fn, sigma2: Fn, exps: Exponents) -> Fn:
    return sigma1 ** (exps.p / exps.p1) * sigma2 ** (exps.p / exps.p2) * space.masses


def certify_carleson_constant(
    space: FilteredSpace,
    family: CarlesonFamily,
    sigma1: Fn,
    sigma2: Fn,
    exps: Exponents,
    budget: int | None = None,
) -> tuple[CarlesonFamily, StoppingTime]:
    """Smallest A valid for every tau in T_i, by exhaustive tail enumeration.

    Every nonempty tail (union of finest atoms) is evaluated, a block of
    tails at a time.  Numerators add entry coefficients in entry order and
    denominators add per-leaf mix integrals in leaf order, the order of a
    per-tail sum, so A is the same float; the worst tail is the first
    maximizer in ascending mask order.  Returns the certified family and
    the worst-case stopping time.
    """
    sigma1 = as_fn(space, sigma1)
    sigma2 = as_fn(space, sigma2)
    blocks = _tail_blocks(space, family.base_level, budget)
    mix = _mix_density(space, sigma1, sigma2, exps)
    entry_masks = [finest_mask(space, e.points) for e in family.entries]
    coeffs = family.coefficients()
    # per-finest-atom mix integrals for fast tail sums
    atom_mix = np.array(
        [mix[atom].sum() for atom in space.atoms[space.last_level]]
    )
    best = 0.0
    best_mask: int | None = None
    for tails, _ in blocks:
        num = np.zeros(tails.size)
        for c, em in zip(coeffs, entry_masks):
            num += np.where((tails & em) == em, c, 0.0)
        den = np.zeros(tails.size)
        for a, am in enumerate(atom_mix):
            den += np.where(tails >> a & 1, am, 0.0)
        ratio = num / den
        k = int(np.argmax(ratio))
        if ratio[k] > best or best_mask is None:
            best = float(ratio[k])
            best_mask = int(tails[k])
    assert best_mask is not None
    tau = stopping_time_from_tail(space, family.base_level, best_mask)
    return family.with_constant(best, certified=True), tau


@dataclass(frozen=True)
class CarlesonCheck:
    lhs: float
    rhs: float
    constant: float

    @property
    def ok(self) -> bool:
        return self.lhs <= self.rhs * (1.0 + 1e-9) + 1e-12


def check_carleson_condition(
    space: FilteredSpace,
    family: CarlesonFamily,
    sigma1: Fn,
    sigma2: Fn,
    exps: Exponents,
    tau: StoppingTime,
) -> CarlesonCheck:
    """Evaluate the condition for one stopping time with the family's A."""
    if family.carleson_A is None:
        raise ValueError("A not certified: certify_carleson_constant or with_constant first")
    if tau.origin > family.base_level:
        raise ValueError(
            f"tau must come from T_{family.base_level} or coarser, got origin {tau.origin}"
        )
    sigma1 = as_fn(space, sigma1)
    sigma2 = as_fn(space, sigma2)
    tail = tau.tail_mask()
    lhs = 0.0
    for entry in family.entries:
        if tail[entry.points].all():
            lhs += entry.coefficient
    mix = _mix_density(space, sigma1, sigma2, exps)
    rhs = family.carleson_A * float(mix[tail].sum())
    return CarlesonCheck(lhs=lhs, rhs=rhs, constant=family.carleson_A)


@dataclass(frozen=True)
class EmbeddingReport:
    lhs: float
    rhs: float
    carleson_A: float
    certified: bool
    variant: str

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs

    @property
    def ok(self) -> bool:
        return self.lhs <= self.rhs * (1.0 + 1e-9) + 1e-12


def verify_embedding(
    forest: PrincipalForest,
    family: CarlesonFamily,
    h1: Fn,
    h2: Fn,
    omega1: Fn,
    omega2: Fn,
    exps: Exponents,
) -> EmbeddingReport:
    """Check the embedding conclusion for the given data.

    lhs: sum over entries of essinf_Q(E^s1(h1/sigma1|F_K1) E^s2(h2/sigma2|F_K1))^p a_Q.
    rhs: A (p1' p2')^p (int_P0 h1^p1 omega1)^(p/p1) (int_P0 h2^p2 omega2)^(p/p2).

    The sigma_s here are derived from the omega_s; the family must have
    been built and certified against those same dual weights.  Requires a
    certified (or explicitly supplied) Carleson constant.
    """
    if family.carleson_A is None:
        raise ValueError("A not certified: certify_carleson_constant or with_constant first")
    space = forest.space
    h1 = as_fn(space, h1)
    h2 = as_fn(space, h2)
    omega1 = as_fn(space, omega1)
    omega2 = as_fn(space, omega2)
    sigma1 = sigma_from_omega(omega1, exps.p1)
    sigma2 = sigma_from_omega(omega2, exps.p2)
    pair1 = _weighted_pair(space, h1 / sigma1, sigma1)
    pair2 = _weighted_pair(space, h2 / sigma2, sigma2)
    wprods = [
        _weighted_cond(space, *pair1, j) * _weighted_cond(space, *pair2, j) for j in range(space.n_levels)
    ]
    lhs = 0.0
    for entry in family.entries:
        essinf = float(wprods[entry.k1][entry.points].min())
        lhs += essinf**exps.p * entry.coefficient
    p0 = forest.root.points
    n1 = float((h1[p0] ** exps.p1 * omega1[p0] * space.masses[p0]).sum())
    n2 = float((h2[p0] ** exps.p2 * omega2[p0] * space.masses[p0]).sum())
    rhs = (
        family.carleson_A
        * (exps.p1_prime * exps.p2_prime) ** exps.p
        * n1 ** (exps.p / exps.p1)
        * n2 ** (exps.p / exps.p2)
    )
    return EmbeddingReport(
        lhs=lhs, rhs=rhs, carleson_A=family.carleson_A, certified=family.certified, variant=family.variant
    )
