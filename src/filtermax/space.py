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

`_read` (behind `validate` and `FilteredSpace(masses, levels)`) is the one
reader of raw or file towers.  A space is its masses on a `_Tower`: the
atoms, point labels and parent links, plus the lookup tables that depend on
them only.  Generated regular towers are built directly, once per shape
(`verify._tower`), and every space on one shares it (`FilteredSpace._on_tower`).

Public functions check their inputs once, on entry (`as_fn`, the level).
`cond_exp` also takes a (k, n) block of functions, checked once.  The
loops inside the package then take conditional expectations on the
unchecked kernel `_cond`, which averages one function or every row of a
(k, n) block, bit for bit as `cond_exp` does, from the atom means of
`_atom_cond`, (atoms,) or (k, atoms); `_to_points` reads atom values at
the points in C order.  A loop over levels takes them all from
`_level_means`: the atom means of every level from a start level down,
in one list, bit for bit as `_atom_cond` gives them level by level, from
one bincount per run of rows (each level and each row has its own bins),
whose sums `_level_sums` gives side by side.  That list is the means
contract of the level maxima in `operators`; the exact sweeps in
`weights` take their means from subset-sum tables on the finest atoms
instead.  A space keeps the last `level_products` pair and `weights._duals`
(`_remember`, keyed by the inputs' bytes), so no caller passes them around.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

Fn = np.ndarray
_TINY = float(np.finfo(float).tiny)  # the smallest normal float64
# Bins per bincount of `_level_means` (rows x levels x points), so that its
# temporaries stay at 64 KiB: one bincount over a whole 16-row search slice of a
# 1024-point, 11-level tower (180224 bins, 1.4 MiB temporaries) made heuristic
# `constants` about 45% slower than per-level bincounts, in fresh pages.
_MEANS_BINS = 8192


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


def _is_number(x, integral: bool = False) -> bool:
    """Whether a raw mass is a real number, or (integral=True) a point index an
    integer-valued one; booleans and strings are neither."""
    if type(x) is int:  # the common case first: a tower lists every point at every level
        return True
    if type(x) is float and not integral:  # then masses and weights read from JSON
        return True
    if isinstance(x, (bool, np.bool_)) or not isinstance(x, (int, float, np.integer, np.floating)):
        return False
    return not integral or float(x).is_integer()


def _first_overflow(values, convert) -> int:
    """Index of the first value that `convert` raises OverflowError on (one must)."""
    for i, x in enumerate(values):
        try:
            convert(x)
        except OverflowError:
            return i
    raise AssertionError("no value overflows")


def _non_number(values) -> tuple[int, object] | None:
    """(index, entry) of the first entry of a raw 1-d list that is not a real
    number, else None; other shapes are left to the shape checks."""
    raw = values if isinstance(values, np.ndarray) else np.asarray(values, dtype=object)
    if raw.ndim != 1 or raw.dtype.kind in "iuf":
        return None
    return next(((i, x) for i, x in enumerate(raw.tolist()) if not _is_number(x)), None)


def _read_level(level, t: int, n: int) -> list[Violation] | tuple[list[np.ndarray], np.ndarray]:
    """Violations of raw level t of a space of n points, else (its atoms, sorted
    and read-only, and each point's atom).  A level stops at its first entry
    that is not a list or not an integer; else every faulty atom is reported."""
    points: list = []
    ends: list[int] = []
    try:
        for a_idx, atom in enumerate(level):
            try:
                points.extend(atom)
            except TypeError:
                return [Violation(f"level {t}, atom {a_idx}", f"need a list of point indices, got {atom!r}")]
            ends.append(len(points))
    except TypeError:
        return [Violation(f"level {t}", f"need a list of atoms, got {level!r}")]
    if not all(type(x) is int for x in points):  # JSON towers hold ints; check and convert the rest
        wrong = next(((i, x) for i, x in enumerate(points) if not _is_number(x, integral=True)), None)
        if wrong is not None:
            a_idx = int(np.searchsorted(ends, wrong[0], side="right"))
            return [Violation(f"level {t}, atom {a_idx}", f"point index {wrong[1]!r} is not an integer")]
        points = [int(x) for x in points]
    try:
        flat = np.array(points, dtype=np.int64)
    except OverflowError:  # an index beyond int64
        a_idx = int(np.searchsorted(ends, _first_overflow(points, np.int64), side="right"))
        return [Violation(f"level {t}, atom {a_idx}", f"point index out of range 0..{n - 1}")]
    sizes = np.diff([0, *ends])
    ids = np.repeat(np.arange(sizes.size), sizes)
    flat = flat[np.lexsort((flat, ids))]  # each atom's points in ascending order; ids stays as it was
    # each atom's first fault of: empty, an index out of range, a repeated point
    fault = np.full(sizes.size, "", dtype=object)
    fault[ids[1:][(flat[1:] == flat[:-1]) & (ids[1:] == ids[:-1])]] = "repeated point inside atom"
    fault[ids[(flat < 0) | (flat >= n)]] = f"point index out of range 0..{n - 1}"
    fault[sizes == 0] = "empty atom"
    faults = [Violation(f"level {t}, atom {a_idx}", m) for a_idx, m in enumerate(fault.tolist()) if m]
    if faults:
        return faults
    seen = np.bincount(flat, minlength=n)
    if (seen != 1).any():
        i = int(np.flatnonzero(seen != 1)[0])
        kind = "missing from" if seen[i] == 0 else "covered twice by"
        return [Violation(f"level {t}", f"point {i} is {kind} the partition")]
    labels = np.empty(n, dtype=np.int64)
    labels[flat] = ids
    flat.setflags(write=False)
    return [flat[s:e] for s, e in zip([0, *ends], ends)], labels


def _read(masses, levels) -> tuple[list[Violation], tuple[Fn, list[list[np.ndarray]], list[np.ndarray], list[np.ndarray]] | None]:
    """The one reader of raw (masses, levels): its violations and, if none, the
    float masses and per level the sorted atoms, point labels and parent atoms."""
    raw = masses if isinstance(masses, np.ndarray) else np.asarray(masses, dtype=object)
    if raw.ndim != 1 or raw.size == 0:
        return [Violation("masses", "need a non-empty 1-d list of point masses")], None
    wrong = _non_number(raw)
    if wrong is not None:
        return [Violation(f"masses[{wrong[0]}]", f"mass {wrong[1]!r} is not a number")], None
    try:
        masses_arr = raw.astype(float)
    except OverflowError:  # an integer beyond float range
        i = _first_overflow(raw.tolist(), float)
        return [Violation(f"masses[{i}]", "mass does not fit in a float")], None
    out: list[Violation] = []
    n = masses_arr.size
    if not np.isfinite(masses_arr).all():
        i = int(np.flatnonzero(~np.isfinite(masses_arr))[0])
        out.append(Violation(f"masses[{i}]", "mass is not finite"))
    elif (masses_arr <= 0).any():
        i = int(np.flatnonzero(masses_arr <= 0)[0])
        out.append(Violation(f"masses[{i}]", f"mass {float(masses_arr[i])!r} is not strictly positive"))
    elif (masses_arr < _TINY).any():  # a subnormal mass loses bits in every average it enters
        i = int(np.flatnonzero(masses_arr < _TINY)[0])
        out.append(Violation(f"masses[{i}]", f"mass {float(masses_arr[i])!r} is subnormal (below {_TINY!r})"))
    else:
        with np.errstate(over="ignore"):
            if not np.isfinite(masses_arr.sum()):
                out.append(Violation("masses", "total mass overflows a float"))

    try:
        levels = list(levels)
    except TypeError:
        return [*out, Violation("levels", f"need a list of partition levels, got {levels!r}")], None
    if not levels:
        return [*out, Violation("levels", "need at least one partition level")], None
    read = [_read_level(level, t, n) for t, level in enumerate(levels)]
    out += [v for level in read if isinstance(level, list) for v in level]
    if out:
        return out, None

    # refinement: each atom of level t must sit inside one atom of level t-1
    atoms, labels = [level[0] for level in read], [level[1] for level in read]
    parents = [np.empty(0, dtype=np.int64)]
    for t in range(1, len(read)):
        parents.append(np.empty(len(atoms[t]), dtype=np.int64))
        parents[t][labels[t]] = labels[t - 1]
        for a_idx in np.unique(labels[t][labels[t - 1] != parents[t][labels[t]]]).tolist():
            message = f"atom {atoms[t][a_idx].tolist()} straddles more than one atom of level {t - 1}"
            out.append(Violation(f"level {t}, atom {a_idx}", message))
    for arr in (masses_arr, *labels, *parents):
        arr.setflags(write=False)
    return out, (None if out else (masses_arr, atoms, labels, parents))


def validate(masses: Sequence[float], levels: Sequence[Sequence[Iterable[int]]]) -> ValidationReport:
    """Check raw (masses, levels) data; returns a report, never raises.

    Violations name the first offending mass / level / atom so loader
    errors can point at the culprit.
    """
    return ValidationReport(tuple(_read(masses, levels)[0]))


class _Tower:
    """The mass-free half of a space, shared by every space on it, in tuples of
    read-only arrays: per level the sorted atoms, the point -> atom labels and
    the atom -> parent links (none at level 0).  Also the levels whose atoms
    are the single points in order, and per level the common size of its atoms
    when they are runs of consecutive points in order (else None).  The lookup
    tables that depend on the tower only are built on it at first use:
    `_level_bins` by start level, `weights._tail_layout` by low bits and
    `stopping._atom_keys`."""

    __slots__ = ("atoms", "atom_of", "parents", "point_levels", "runs", "bins", "layouts", "keys")

    def __init__(self, atoms: Sequence[Iterable[np.ndarray]], atom_of: list[np.ndarray], parents: list[np.ndarray]):
        self.atoms = tuple(map(tuple, atoms))
        self.atom_of, self.parents = tuple(atom_of), tuple(parents)
        points = np.arange(atom_of[0].size)
        self.point_levels = frozenset(t for t, lab in enumerate(atom_of) if np.array_equal(lab, points))
        self.runs = tuple(
            points.size // len(level) if np.array_equal(lab, points // (points.size // len(level))) else None
            for level, lab in zip(self.atoms, atom_of)
        )
        self.bins: dict = {}
        self.layouts: dict = {}
        self.keys: tuple | None = None


class FilteredSpace:
    """Point masses plus a refining tower of partitions.

    Immutable after construction; all derived lookup tables (atom labels,
    atom masses, parent/child links) are precomputed.  Raises
    ValidationError when the raw data fails `validate`.
    """

    def __init__(self, masses: Sequence[float], levels: Sequence[Sequence[Iterable[int]]]):
        violations, read = _read(masses, levels)
        if violations:
            raise ValidationError(str(ValidationReport(tuple(violations))))
        self._place(read[0], _Tower(*read[1:]))

    @classmethod
    def _on_tower(cls, masses: Fn, tower: _Tower) -> FilteredSpace:
        """A space of float masses on a built tower, unchecked: the caller makes
        both valid (finite, normal, strictly positive masses of a finite total,
        one per point).  The masses become read-only."""
        masses.setflags(write=False)
        space = cls.__new__(cls)
        space._place(masses, tower)
        return space

    def _place(self, masses: Fn, tower: _Tower) -> None:
        # parents[t][a]: the level t-1 atom holding atom a of level t (none at level 0)
        self.masses, self._tower = masses, tower
        self.atoms, self.atom_of, self.parents = tower.atoms, tower.atom_of, tower.parents
        self.n: int = masses.size
        self.last_level: int = len(self.atoms) - 1
        self.atom_mass: list[np.ndarray] = [_atom_sums(tower, masses, t) for t in range(len(tower.atoms))]
        for am in self.atom_mass:
            am.setflags(write=False)
        self.total_mass: float = float(masses.sum())
        # levels whose atoms are the single points in order, which `_to_points` reads as they are
        self._point_levels = tower.point_levels
        self._kept: dict = {}  # `_remember`'s last (key, result) of each kind

    # ---- basic structure -------------------------------------------------

    @property
    def n_levels(self) -> int:
        return self.last_level + 1

    def level_atoms(self, level: int) -> tuple[np.ndarray, ...]:
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
        return np.flatnonzero(self.parents[level + 1] == atom_index).tolist()

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
        self._check_level(level)
        return not _cut_atoms(self, level, self.indicator(subset)).size

    # ---- measure ---------------------------------------------------------

    def measure(self, subset) -> float:
        return float(self.masses[self.as_subset(subset)].sum())


def _atom_sums(tower: _Tower, f: Fn, level: int) -> np.ndarray:
    """Each level atom's sum of f, as its 1-d `.sum()` adds it: a run level's
    atoms sum as the rows of one reshape, which adds each row so."""
    run = tower.runs[level]
    return np.array([f[a].sum() for a in tower.atoms[level]]) if run is None else f.reshape(-1, run).sum(axis=1)


def _cut_atoms(space: FilteredSpace, level: int, inside: np.ndarray) -> np.ndarray:
    """Ascending indices of the level atoms that the point set `inside` (a
    boolean or 0/1 mask) meets without holding all of their points."""
    labels = space.atom_of[level]
    hits = np.bincount(labels, weights=inside, minlength=len(space.atoms[level]))
    return np.flatnonzero((hits != 0) & (hits != np.bincount(labels)))


def as_fn(space: FilteredSpace, values) -> Fn:
    """Coerce to a function on the space (finite real array of length n)."""
    arr = np.asarray(values, dtype=float)
    if arr.shape != (space.n,):
        raise ValueError(f"function must have shape ({space.n},), got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("function values must be finite")
    return arr


def _positive(space: FilteredSpace, w, name: str) -> Fn:
    arr = as_fn(space, w)
    if (arr <= 0).any():
        raise ValueError(f"{name} must be strictly positive")
    return arr


def integrate(space: FilteredSpace, f: Fn, subset=None) -> float:
    """Integral of f dmu, optionally restricted to a point set: numpy's sum of
    the products, in its fixed order (not a BLAS dot)."""
    f = as_fn(space, f)
    idx = slice(None) if subset is None else space.as_subset(subset)
    return float((f[idx] * space.masses[idx]).sum())


def _as_block(space: FilteredSpace, values: np.ndarray) -> np.ndarray:
    """Check a (k, n) block of functions once: its width, then finiteness."""
    if values.shape[1] != space.n:
        raise ValueError(f"block must have shape (k, {space.n}), got {values.shape}")
    if not np.isfinite(values).all():
        raise ValueError("function values must be finite")
    return values


def cond_exp(space: FilteredSpace, f: Fn, level: int) -> Fn:
    """Conditional expectation E(f | F_level): atom-wise mass average, of one
    function or of every row of a (k, n) block (row r bit for bit as `cond_exp`
    of row r).  A block is checked once, as a whole."""
    space._check_level(level)
    arr = np.asarray(f, dtype=float)
    return _cond(space, _as_block(space, arr) if arr.ndim == 2 else as_fn(space, arr), level)


def _atom_cond(space: FilteredSpace, f: np.ndarray, level: int, density: Fn | None = None) -> np.ndarray:
    """Atom means of one function, (atoms,), or of every row of a (k, n) block,
    (k, atoms), unchecked: adds each point's value times its mass (or `density`)
    into its atom in point order and divides by the atom mass.  Row r of a block
    adds into its own bins r*atoms .. (r+1)*atoms - 1, so it sums as a 1-d call
    does.  A 0/1 block with density sigma * masses gives E(block sigma) bit for bit."""
    mass = space.atom_mass[level]
    labels = space.atom_of[level]
    weights = f * (space.masses if density is None else density)
    if f.ndim == 1:
        return np.bincount(labels, weights=weights, minlength=mass.size) / mass
    labels = (labels + mass.size * np.arange(len(f))[:, None]).ravel()
    sums = np.bincount(labels, weights=weights.ravel(), minlength=mass.size * len(f))
    return sums.reshape(len(f), mass.size) / mass


def _level_bins(space: FilteredSpace, start: int) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """`_level_means`' bins from `start`, cached: bins[r, j - start, x] is row r's
    bin for point x at level j, r * A + (atoms of levels start..j-1) + its atom,
    A the atoms of levels start..L, for as many rows as fit _MEANS_BINS (or one);
    and level j's bins in row 0, (lo, hi)."""
    cached = space._tower.bins.get(start)
    if cached is None:
        ends = np.cumsum([0, *(mass.size for mass in space.atom_mass[start:])])
        labels = np.stack(space.atom_of[start:]) + ends[:-1, None]
        bins = labels + (np.arange(max(1, _MEANS_BINS // labels.size)) * ends[-1])[:, None, None]
        bins.setflags(write=False)
        cached = space._tower.bins[start] = bins, list(zip(ends[:-1].tolist(), ends[1:].tolist()))
    return cached


def _level_sums(
    space: FilteredSpace, f: np.ndarray, start: int = 0, density: Fn | None = None
) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """The atom sums of `_level_means`, unchecked, every level from `start` side by
    side, (A,) or (k, A), and level j's columns, (lo, hi).  One bincount sums every
    level of a run of rows (`_level_bins`): row r of level j adds into its own
    bins, each bin its points' products in point order."""
    bins, bounds = _level_bins(space, start)
    block = (f * (space.masses if density is None else density)).reshape(-1, space.n)
    rows, levels = bins.shape[:2]
    parts = [block[lo : lo + rows] for lo in range(0, max(len(block), 1), rows)]  # a 0-row block is one run
    sums = [np.bincount(bins[: len(part)].ravel(), weights=np.repeat(part, levels, axis=0).ravel()) for part in parts]
    sums = sums[0] if len(sums) == 1 else np.concatenate(sums)
    if f.ndim == 2:
        sums = sums.reshape(len(block), bounds[-1][1])
    return sums, bounds


def _level_means(space: FilteredSpace, f: np.ndarray, start: int = 0, density: Fn | None = None) -> list[np.ndarray]:
    """`_atom_cond` of levels start..L at once, unchecked: element j - start holds
    the level-j atom means, (atoms_j,) or (k, atoms_j), fresh, each `_level_sums`
    column divided by its atom mass, so every mean is `_atom_cond`'s bit for bit."""
    sums, bounds = _level_sums(space, f, start, density)
    return [sums[..., lo:hi] / mass for (lo, hi), mass in zip(bounds, space.atom_mass[start:])]


def _to_points(space: FilteredSpace, values: np.ndarray, level: int) -> np.ndarray:
    """Fresh C-ordered atom values, (atoms,) or (k, atoms), read at every point in
    C order, on which `sum(axis=1)` adds each row as its 1-d sum does."""
    if level in space._point_levels:  # single points in order: a gather would copy them unchanged
        return values
    labels = space.atom_of[level]
    return values[labels] if values.ndim == 1 else values.take(labels, axis=1)


def _cond(space: FilteredSpace, f: np.ndarray, level: int) -> np.ndarray:
    """`cond_exp` of one function or of every row of a (k, n) block, unchecked."""
    return _to_points(space, _atom_cond(space, f, level), level)


def _remember(space: FilteredSpace, kind: str, key, compute) -> tuple[np.ndarray, ...]:
    """`compute()`, a tuple of arrays made read-only, kept on the space as the last
    result of its kind with `key` (the inputs' bytes): the same key gets it back."""
    kept = space._kept.get(kind)
    if kept is None or kept[0] != key:
        kept = space._kept[kind] = key, compute()
        for arr in kept[1]:
            arr.setflags(write=False)
    return kept[1]


def level_products(space: FilteredSpace, f: Fn, g: Fn) -> tuple[Fn, ...]:
    """E(f | F_j) E(g | F_j) for j = 0..L, read-only: principal sets, Carleson
    level sets and the heuristic first-hit guides are all cut from these
    products.  The last pair's are kept on the space.  A product that overflows
    is not finite, without a warning, for the caller to refuse."""
    f, g = as_fn(space, f), as_fn(space, g)

    def compute() -> tuple[Fn, ...]:
        with np.errstate(over="ignore", invalid="ignore"):
            means = enumerate(zip(_level_means(space, f), _level_means(space, g)))
            return tuple(_to_points(space, mf, j) * _to_points(space, mg, j) for j, (mf, mg) in means)

    return _remember(space, "products", (f.tobytes(), g.tobytes()), compute)


def weighted_cond_exp(space: FilteredSpace, f: Fn, sigma: Fn, level: int) -> Fn:
    """E^sigma(f | F_level) = E(f sigma | F_level) / E(sigma | F_level).

    sigma must be strictly positive, so the denominator never vanishes and
    E(f sigma | F_level) = E^sigma(f | F_level) E(sigma | F_level) holds
    identically.
    """
    f_sigma, sigma = _weighted_pair(space, f, sigma, level)
    return _cond(space, f_sigma, level) / _cond(space, sigma, level)


def _weighted_pair(space: FilteredSpace, f: Fn, sigma: Fn, level: int = 0) -> tuple[Fn, Fn]:
    """(f sigma, sigma) for a weighted mean, checked once in `weighted_cond_exp`'s
    order: sigma finite and strictly positive, f finite, the level, f sigma finite."""
    sigma = _positive(space, sigma, "sigma")
    f = as_fn(space, f)
    space._check_level(level)
    return as_fn(space, f * sigma), sigma


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

