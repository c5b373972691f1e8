"""Finite filtered measure spaces.

A space is a finite point set {0, ..., n-1} carrying strictly positive
masses mu(x) together with a tower of partitions (levels 0..L), each level
refining the previous one.  Level 0 is the coarsest partition, level L the
finest.  Every sigma-algebra on a finite set is generated by a partition,
so this models a filtered measure space exactly; conditional expectation
at level t is the mass-weighted average over the atom containing each
point.

Functions on the space ("Fn") are plain numpy arrays of length n.  Sets
are unions of points, passed around as sorted integer index arrays or
boolean masks.

Public functions check their inputs once, on entry (`as_fn`, the level).
The loops inside the package then take conditional expectations on the
unchecked kernel `_cond`, which averages one function or every row of a
(k, n) block, bit for bit as `cond_exp` does; `_weighted_cond` is its
weighted form and `_row_cond_exp` the matmul kernel of the exact sweeps.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

Fn = np.ndarray


class ValidationError(ValueError):
    """Raised when masses/levels do not describe a filtered measure space."""


@dataclass(frozen=True)
class Violation:
    where: str
    message: str

    def __str__(self) -> str:
        return f"{self.where}: {self.message}"


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok:
            return "ok"
        return "; ".join(str(v) for v in self.violations)


def _as_atom(atom: Iterable[int]) -> np.ndarray:
    arr = np.asarray(sorted(int(i) for i in atom), dtype=np.int64)
    return arr


def validate(masses: Sequence[float], levels: Sequence[Sequence[Iterable[int]]]) -> ValidationReport:
    """Check raw (masses, levels) data; returns a report, never raises.

    Violations name the first offending mass / level / atom so loader
    errors can point at the culprit.
    """
    out: list[Violation] = []
    masses_arr = np.asarray(masses, dtype=float)
    if masses_arr.ndim != 1 or masses_arr.size == 0:
        return ValidationReport((Violation("masses", "need a non-empty 1-d list of point masses"),))
    n = masses_arr.size
    if not np.all(np.isfinite(masses_arr)):
        i = int(np.flatnonzero(~np.isfinite(masses_arr))[0])
        out.append(Violation(f"masses[{i}]", "mass is not finite"))
    elif np.any(masses_arr <= 0):
        i = int(np.flatnonzero(masses_arr <= 0)[0])
        out.append(Violation(f"masses[{i}]", f"mass {float(masses_arr[i])!r} is not strictly positive"))

    if len(levels) == 0:
        out.append(Violation("levels", "need at least one partition level"))
        return ValidationReport(tuple(out))

    parsed: list[list[np.ndarray]] = []
    for t, level in enumerate(levels):
        atoms = [_as_atom(a) for a in level]
        parsed.append(atoms)
        seen = np.zeros(n, dtype=np.int64)
        bad = False
        for a_idx, atom in enumerate(atoms):
            if atom.size == 0:
                out.append(Violation(f"level {t}, atom {a_idx}", "empty atom"))
                bad = True
                continue
            if atom[0] < 0 or atom[-1] >= n:
                out.append(Violation(f"level {t}, atom {a_idx}", f"point index out of range 0..{n - 1}"))
                bad = True
                continue
            if np.unique(atom).size != atom.size:
                out.append(Violation(f"level {t}, atom {a_idx}", "repeated point inside atom"))
                bad = True
                continue
            seen[atom] += 1
        if bad:
            continue
        if np.any(seen != 1):
            i = int(np.flatnonzero(seen != 1)[0])
            kind = "missing from" if seen[i] == 0 else "covered twice by"
            out.append(Violation(f"level {t}", f"point {i} is {kind} the partition"))

    if out:
        return ValidationReport(tuple(out))

    # refinement: each atom of level t must sit inside one atom of level t-1
    for t in range(1, len(parsed)):
        parent_of = np.empty(n, dtype=np.int64)
        for a_idx, atom in enumerate(parsed[t - 1]):
            parent_of[atom] = a_idx
        for a_idx, atom in enumerate(parsed[t]):
            if np.unique(parent_of[atom]).size > 1:
                out.append(
                    Violation(
                        f"level {t}, atom {a_idx}",
                        f"atom {atom.tolist()} straddles more than one atom of level {t - 1}",
                    )
                )
    return ValidationReport(tuple(out))


class FilteredSpace:
    """Point masses plus a refining tower of partitions.

    Immutable after construction; all derived lookup tables (atom labels,
    atom masses, parent/child links) are precomputed.  Raises
    ValidationError when the raw data fails `validate`.
    """

    def __init__(self, masses: Sequence[float], levels: Sequence[Sequence[Iterable[int]]]):
        report = validate(masses, levels)
        if not report.ok:
            raise ValidationError(str(report))
        self.masses: np.ndarray = np.asarray(masses, dtype=float).copy()
        self.masses.setflags(write=False)
        self.n: int = self.masses.size
        self.atoms: list[list[np.ndarray]] = [[_as_atom(a) for a in level] for level in levels]
        self.last_level: int = len(self.atoms) - 1
        self.atom_of: list[np.ndarray] = []
        self.atom_mass: list[np.ndarray] = []
        for level_atoms in self.atoms:
            labels = np.empty(self.n, dtype=np.int64)
            for a_idx, atom in enumerate(level_atoms):
                labels[atom] = a_idx
                atom.setflags(write=False)
            labels.setflags(write=False)
            self.atom_of.append(labels)
            am = np.array([self.masses[a].sum() for a in level_atoms])
            am.setflags(write=False)
            self.atom_mass.append(am)
        self.total_mass: float = float(self.masses.sum())

    # ---- basic structure -------------------------------------------------

    @property
    def n_levels(self) -> int:
        return self.last_level + 1

    def level_atoms(self, level: int) -> list[np.ndarray]:
        self._check_level(level)
        return self.atoms[level]

    def atom_containing(self, level: int, point: int) -> np.ndarray:
        self._check_level(level)
        return self.atoms[level][int(self.atom_of[level][point])]

    def children(self, level: int, atom_index: int) -> list[int]:
        """Indices of the level+1 atoms contained in the given atom."""
        self._check_level(level)
        if level == self.last_level:
            return []
        atom = self.atoms[level][atom_index]
        return sorted(set(int(i) for i in self.atom_of[level + 1][atom]))

    def atom_count(self, from_level: int = 0) -> int:
        """Number of (level, atom) pairs at levels from_level..L."""
        self._check_level(from_level)
        return sum(len(self.atoms[t]) for t in range(from_level, self.n_levels))

    def _check_level(self, level: int) -> None:
        if not 0 <= level <= self.last_level:
            raise ValueError(f"level {level} outside 0..{self.last_level}")

    def __repr__(self) -> str:
        return f"FilteredSpace(n={self.n}, levels={self.n_levels})"

    # ---- sets ------------------------------------------------------------

    def as_subset(self, subset) -> np.ndarray:
        """Normalize a point set (index iterable or boolean mask) to sorted indices."""
        arr = np.asarray(subset)
        if arr.dtype == bool:
            if arr.shape != (self.n,):
                raise ValueError(f"boolean mask must have shape ({self.n},)")
            return np.flatnonzero(arr)
        arr = np.unique(arr.astype(np.int64, copy=False).ravel())
        if arr.size and (arr[0] < 0 or arr[-1] >= self.n):
            raise ValueError(f"point index out of range 0..{self.n - 1}")
        return arr

    def indicator(self, subset) -> Fn:
        out = np.zeros(self.n)
        out[self.as_subset(subset)] = 1.0
        return out

    def is_level_measurable(self, level: int, subset) -> bool:
        """True when the set is a union of level-`level` atoms."""
        idx = self.as_subset(subset)
        mask = np.zeros(self.n, dtype=bool)
        mask[idx] = True
        labels = self.atom_of[level]
        for a_idx in np.unique(labels[idx]):
            if not mask[self.atoms[level][a_idx]].all():
                return False
        return True

    # ---- measure ---------------------------------------------------------

    def measure(self, subset) -> float:
        return float(self.masses[self.as_subset(subset)].sum())


def as_fn(space: FilteredSpace, values) -> Fn:
    """Coerce to a function on the space (finite real array of length n)."""
    arr = np.asarray(values, dtype=float)
    if arr.shape != (space.n,):
        raise ValueError(f"function must have shape ({space.n},), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("function values must be finite")
    return arr


def _positive(space: FilteredSpace, w, name: str) -> Fn:
    arr = as_fn(space, w)
    if np.any(arr <= 0):
        raise ValueError(f"{name} must be strictly positive")
    return arr


def integrate(space: FilteredSpace, f: Fn, subset=None) -> float:
    """Integral of f dmu, optionally restricted to a point set."""
    f = as_fn(space, f)
    if subset is None:
        return float(np.dot(f, space.masses))
    idx = space.as_subset(subset)
    return float(np.dot(f[idx], space.masses[idx]))


def cond_exp(space: FilteredSpace, f: Fn, level: int) -> Fn:
    """Conditional expectation E(f | F_level): atom-wise mass average."""
    space._check_level(level)
    return _cond(space, as_fn(space, f), level)


def _cond(space: FilteredSpace, f: np.ndarray, level: int) -> np.ndarray:
    """`cond_exp` of one function or of every row of a (k, n) block, unchecked:
    adds each point's mass-weighted value into its atom in point order, divides
    by the atom mass and reads every point's atom back.  Row r of a block adds
    into its own atoms r*atoms .. (r+1)*atoms - 1, so it sums as a 1-d call does."""
    mass = space.atom_mass[level]
    labels = space.atom_of[level]
    if f.ndim == 2:
        labels = (labels + mass.size * np.arange(f.shape[0])[:, None]).ravel()
        mass = np.tile(mass, f.shape[0])
    sums = np.bincount(labels, weights=(f * space.masses).ravel(), minlength=mass.size)
    return (sums / mass)[labels].reshape(f.shape)


def level_products(space: FilteredSpace, f: Fn, g: Fn) -> list[Fn]:
    """E(f | F_j) E(g | F_j) for j = 0..L: principal sets, Carleson level sets
    and the heuristic first-hit guides are all cut from these products."""
    f, g = as_fn(space, f), as_fn(space, g)
    return [_cond(space, f, j) * _cond(space, g, j) for j in range(space.n_levels)]


def _row_cond_exp(space: FilteredSpace) -> Callable[[FilteredSpace, np.ndarray, int], np.ndarray]:
    """Row-batched conditional expectation for the exact tail sweeps.

    Builds one points x atoms aggregation matrix per level and returns
    cond(space, rows, level), called like `cond_exp`, on every row of a (k, n) block.
    The matrices live only as long as the returned function: the caller's
    sweep builds them, nothing is cached on the space.
    """
    onehots = []
    for labels, atom_mass in zip(space.atom_of, space.atom_mass):
        onehot = np.zeros((space.n, atom_mass.size))
        onehot[np.arange(space.n), labels] = 1.0
        onehots.append(onehot)

    def cond(_: FilteredSpace, rows: np.ndarray, level: int) -> np.ndarray:
        sums = (rows * space.masses) @ onehots[level]
        return (sums / space.atom_mass[level])[:, space.atom_of[level]]

    return cond


def weighted_cond_exp(space: FilteredSpace, f: Fn, sigma: Fn, level: int) -> Fn:
    """E^sigma(f | F_level) = E(f sigma | F_level) / E(sigma | F_level).

    sigma must be strictly positive, so the denominator never vanishes and
    E(f sigma | F_level) = E^sigma(f | F_level) E(sigma | F_level) holds
    identically.
    """
    return _weighted_cond(space, *_weighted_pair(space, f, sigma, level), level)


def _weighted_pair(space: FilteredSpace, f: Fn, sigma: Fn, level: int = 0) -> tuple[Fn, Fn]:
    """(f sigma, sigma) for `_weighted_cond`, checked once in `weighted_cond_exp`'s
    order: sigma finite and strictly positive, f finite, the level, f sigma finite."""
    sigma = _positive(space, sigma, "sigma")
    f = as_fn(space, f)
    space._check_level(level)
    return as_fn(space, f * sigma), sigma


def _weighted_cond(space: FilteredSpace, f_sigma: Fn, sigma: Fn, level: int) -> Fn:
    """E^sigma(f | F_level) from f sigma and sigma, unchecked."""
    return _cond(space, f_sigma, level) / _cond(space, sigma, level)


@dataclass(frozen=True)
class Exponents:
    """A Hölder pair (p1, p2) with 1/p = 1/p1 + 1/p2 and its duals.

    Requires 1 < p1, p2 < infinity.  q is the smaller of the pair, and
    q' = max(p1', p2') is the dual of q.
    """

    p1: float
    p2: float

    def __post_init__(self):
        for name in ("p1", "p2"):
            val = getattr(self, name)
            if not (1.0 < val < float("inf")):
                raise ValueError(f"{name} must lie in (1, inf), got {val!r}")

    @property
    def p(self) -> float:
        return 1.0 / (1.0 / self.p1 + 1.0 / self.p2)

    @property
    def p1_prime(self) -> float:
        return self.p1 / (self.p1 - 1.0)

    @property
    def p2_prime(self) -> float:
        return self.p2 / (self.p2 - 1.0)

    @property
    def q(self) -> float:
        return min(self.p1, self.p2)

    @property
    def q_prime(self) -> float:
        return max(self.p1_prime, self.p2_prime)


# ---- JSON instance format ----------------------------------------------
#
# {"masses": [m0, ...], "levels": [[[i, ...], ...], ...]}  coarsest first.


def space_to_dict(space: FilteredSpace) -> dict:
    return {
        "masses": [float(m) for m in space.masses],
        "levels": [[atom.tolist() for atom in level] for level in space.atoms],
    }


def space_from_dict(data: dict, where: str = "space") -> FilteredSpace:
    if not isinstance(data, dict) or "masses" not in data or "levels" not in data:
        raise ValidationError(f"{where}: expected an object with 'masses' and 'levels'")
    try:
        return FilteredSpace(data["masses"], data["levels"])
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from exc


def read_json(path: str):
    """Parse a JSON file; malformed JSON raises ValidationError naming the path."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}:{exc.lineno}: invalid JSON ({exc.msg})") from exc


def write_json(path: str, data) -> None:
    """Write one JSON document followed by a newline."""
    with open(path, "w") as fh:
        json.dump(data, fh)
        fh.write("\n")


def load_space(path: str) -> FilteredSpace:
    """Load a space from a JSON file; errors carry the file path."""
    return space_from_dict(read_json(path), where=path)


def dump_space(space: FilteredSpace, path: str) -> None:
    write_json(path, space_to_dict(space))
