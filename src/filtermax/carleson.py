"""Carleson embedding over a principal forest.

The level sets of a forest slice each node P by the dyadic size of the
weighted product at the node's stopping level:

    A_P^l = B(P) intersect { 2^l < E_K1(sigma1) E_K1(sigma2) <= 2^(l+1) },

where the base set B(P) is either the node itself ("node" variant) or its
exit set ("exit" variant); both carry the same embedding theorem.  A
nonnegative coefficient a_Q is attached to each nonempty A_P^l.  The space
keeps the products (`level_products`), so both variants share one computation.

The Carleson condition with constant A demands, for every stopping time
tau in T_i (i = the forest's base level):

    sum of a_Q over Q contained in {tau < inf}
        <= A * integral over {tau < inf} of sigma1^(p/p1) sigma2^(p/p2) dmu.

`certify_carleson_constant` computes the smallest such A exactly on any
space: the tails {tau < inf} are the unions of finest atoms, and shrinking
one to the union of the entries inside it keeps the left side and can only
lower the right, so it scores the unions of entries only, keyed by their
finest atoms as Python ints (the search's tail keys), with no atom budget.
A family with more than _MAX_UNIONS distinct unions is refused.  The
embedding verifier refuses to run with an uncertified constant unless one
is supplied explicitly.
Under the condition, for f_s = h_s with finite L^(p_s)(omega_s) norms,

    sum over Q of essinf_Q( E^sigma1(h1 sigma1^-1 | F_K1)
                            E^sigma2(h2 sigma2^-1 | F_K1) )^p a_Q
        <= A (p1' p2')^p ||h1||_{L^p1(omega1)}^p/p1... (norms over P0)

with the product of the two restricted norms on the right; the weighted
Doob inequality supplies the (p1' p2')^p factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .operators import _power, _ratio_means
from .principal import PrincipalForest, _shells
from .space import Exponents, FilteredSpace, Fn, _atom_sums, _positive, _weighted_pair, as_fn, level_products
from .stopping import StoppingTime, _block_max, _key_bits, finest_mask, stopping_time_from_tail
from .weights import _duals, _mix

VARIANTS = ("node", "exit")
_MAX_UNIONS = 4096  # distinct unions of entries, the empty one too: the tails x leaves floats are 32 MiB on 1024 leaves


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
        if (coeffs < 0).any() or not np.isfinite(coeffs).all():
            raise ValueError("coefficients must be finite and nonnegative")
        entries = tuple(replace(e, coefficient=float(c)) for e, c in zip(self.entries, coeffs))
        return CarlesonFamily(self.variant, self.base_level, entries, None, False)

    def with_constant(self, value: float, certified: bool) -> "CarlesonFamily":
        return CarlesonFamily(self.variant, self.base_level, self.entries, float(value), certified)


def build_level_sets(
    forest: PrincipalForest, sigma1: Fn, sigma2: Fn, variant: str = "node"
) -> CarlesonFamily:
    """Slice each node into dyadic shells of E_K1(sigma1) E_K1(sigma2).

    Only nonempty shells are materialized; coefficients start at zero.  A
    product at a node's points that is not a positive finite float (the sigmas'
    means underflow or overflow) raises a ValueError naming its level and point.
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    space = forest.space
    prods = level_products(space, _positive(space, sigma1, "sigma1"), _positive(space, sigma2, "sigma2"))
    entries: list[CarlesonEntry] = []
    for node_index, node in enumerate(forest.nodes()):
        base = node.points if variant == "node" else node.exit_points
        if base.size == 0:
            continue
        w = prods[node.k1][base]
        ok = (w > 0) & (w < np.inf)  # neither underflowed to 0 nor overflowed
        if not ok.all():
            x = int(np.argmin(ok))
            where = f"E_{node.k1}(sigma1) E_{node.k1}(sigma2) = {float(w[x])!r} at point {int(base[x])}"
            raise ValueError(f"{where}, not positive finite")
        # 2^l < w <= 2^(l+1), i.e. l + 1 is the base-2 shell of w
        exps = _shells(w, 1) - 1
        for l in np.unique(exps).tolist():
            pts = base[exps == l]
            entries.append(CarlesonEntry(node_index, node.k1, l, pts, 0.0))
    return CarlesonFamily(variant, forest.base_level, tuple(entries))


def proof_coefficients(
    space: FilteredSpace, family: CarlesonFamily, sigma1: Fn, sigma2: Fn, v: Fn, exps: Exponents
) -> CarlesonFamily:
    """a_Q = integral over Q of (E_K1(sigma1) E_K1(sigma2))^p v dmu.  A coefficient
    past float range raises a ValueError naming its entry's level and its first
    point past range (the entry's first point if only the sum overflows)."""
    prods = level_products(space, sigma1, sigma2)
    v = as_fn(space, v)
    coeffs = []
    with np.errstate(over="ignore"):
        for e in family.entries:
            dens = prods[e.k1][e.points] ** exps.p * v[e.points] * space.masses[e.points]
            coeffs.append(float(dens.sum()))
            if not math.isfinite(coeffs[-1]):
                x = int(e.points[np.argmin(np.isfinite(dens))])
                what = f"coefficient of (E_{e.k1}(sigma1) E_{e.k1}(sigma2))^p v at level {e.k1}, point {x}"
                raise ValueError(f"{what}, is {coeffs[-1]!r}")
    return family.with_coefficients(coeffs)


def certify_carleson_constant(
    space: FilteredSpace,
    family: CarlesonFamily,
    sigma1: Fn,
    sigma2: Fn,
    exps: Exponents,
) -> tuple[CarlesonFamily, StoppingTime]:
    """Smallest A valid for every tau in T_i: the largest ratio over the nonempty
    tails (unions of finest atoms).  Shrinking a tail to the union of the entries
    inside it (to one of its leaves if none) keeps the numerator's float and can
    only lower the denominator's, a sum of nonnegative per-leaf mix integrals
    (float addition is monotone), so with nonnegative coefficients the first
    maximizer in ascending mask order is such a union or leaf.  Those are scored
    by their finest-atom keys in ascending order, numerators in entry order and
    denominators in leaf order as a per-tail sum adds them (the denominators as
    the last column of one cumulative sum along each row of a tails x leaves
    block: every term is >= +0, so each sum is the float of 0.0 plus its terms
    in turn), so A and the worst tail are an exhaustive sweep's (a 0/0 tail is
    skipped: it imposes no condition).  ValueError past _MAX_UNIONS distinct
    unions of entries, and for an A past float range (a positive coefficient
    over a tail whose mix integral underflowed to 0), naming the tail.  Returns
    the certified family and the worst-case stopping time."""
    mix = _mix(_positive(space, sigma1, "sigma1"), _positive(space, sigma2, "sigma2"), exps) * space.masses
    entry_keys = [finest_mask(space, e.points) for e in family.entries]
    coeffs = family.coefficients()
    if not (coeffs >= 0).all():
        raise ValueError("coefficients must be nonnegative")
    unions = {0}  # then every union of entries
    for key in entry_keys:
        unions |= {u | key for u in unions}
        if len(unions) > _MAX_UNIONS:
            raise ValueError(f"{len(entry_keys)} entries have more than {_MAX_UNIONS} distinct unions to certify")
    leaves = len(space.atoms[space.last_level])
    tails = sorted(unions.union(1 << a for a in range(leaves)) - {0})  # and single leaves
    num = np.zeros(len(tails))
    for c, key in zip(coeffs, entry_keys):
        num += np.where([(tail & key) == key for tail in tails], c, 0.0)
    den = np.where(_key_bits(space, tails), _atom_sums(space._tower, mix, space.last_level), 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):  # a tail whose mix underflowed to 0 is refused below
        best, found = _block_max([(0, num / np.cumsum(den, axis=1, out=den)[:, -1])])
    if found is None:  # every leaf's mix underflowed to 0; worded as the sweep words it
        raise ValueError(f"tail objective is nan (or -inf) on all {2**leaves - 1} nonempty T_{family.base_level} tails")
    tau = stopping_time_from_tail(space, family.base_level, tails[found[1]])
    if not math.isfinite(best):  # a positive coefficient over a tail whose mix underflowed to 0
        raise ValueError(f"Carleson constant A is {best!r} at tail {tau.tail_set().tolist()}, past float range")
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
    mix = _mix(_positive(space, sigma1, "sigma1"), _positive(space, sigma2, "sigma2"), exps) * space.masses
    tail = tau.tail_mask()
    lhs = 0.0
    for entry in family.entries:
        if tail[entry.points].all():
            lhs += entry.coefficient
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
    certified (or explicitly supplied) Carleson constant.  An entry whose
    essinf, its p-th power or the lhs up to it is not finite (the weighted
    means' product overflows) raises a ValueError naming its level and point;
    an rhs past float range raises one too.
    """
    if family.carleson_A is None:
        raise ValueError("A not certified: certify_carleson_constant or with_constant first")
    space = forest.space
    h1, h2 = as_fn(space, h1), as_fn(space, h2)
    sigma1, sigma2, _ = _duals(space, omega1, omega2, exps)
    omega1, omega2 = as_fn(space, omega1), as_fn(space, omega2)
    p0 = forest.root.points
    with np.errstate(over="ignore", invalid="ignore"):  # a value past float range is refused below
        f_sigma, sigma = map(np.stack, zip(*(_weighted_pair(space, h / s, s) for h, s in ((h1, sigma1), (h2, sigma2)))))
        # the product of the E^sigma_s(h_s / sigma_s | F_j) on the level-j atoms, both s in one block
        wprods = [r[0] * r[1] for r in _ratio_means(sigma)(space, f_sigma, 0)]
        n1 = float((h1[p0] ** exps.p1 * omega1[p0] * space.masses[p0]).sum())
        n2 = float((h2[p0] ** exps.p2 * omega2[p0] * space.masses[p0]).sum())

    def where(entry: CarlesonEntry, values: np.ndarray) -> str:
        """The entry's essinf and its first point, named only for a refusal."""
        x = int(entry.points[np.argmin(values)])
        return f"essinf of E^sigma1(h1/sigma1) E^sigma2(h2/sigma2) at level {entry.k1}, point {x}"

    lhs = 0.0
    for entry in family.entries:
        values = wprods[entry.k1][space.atom_of[entry.k1][entry.points]]
        essinf = float(values.min())
        if not math.isfinite(essinf):  # the weighted means' product overflowed
            raise ValueError(f"{where(entry, values)}, is {essinf!r}")
        try:
            term = essinf**exps.p
        except OverflowError:
            term = _power(essinf, exps.p, where(entry, values))  # raises, naming the entry
        lhs += term * entry.coefficient
        if lhs == math.inf:  # this entry's term, or the sum up to it, passed float range
            raise ValueError(f"{where(entry, values)}: the lhs passes float range at this entry")
    doob = (exps.p1_prime * exps.p2_prime) ** exps.p  # the weighted Doob inequality's factor
    rhs = family.carleson_A * doob * n1 ** (exps.p / exps.p1) * n2 ** (exps.p / exps.p2)
    if not math.isfinite(rhs):
        raise ValueError(f"rhs A (p1' p2')^p ||h1||^p ||h2||^p over the root is {rhs!r}, past float range")
    return EmbeddingReport(
        lhs=lhs, rhs=rhs, carleson_A=family.carleson_A, certified=family.certified, variant=family.variant
    )
