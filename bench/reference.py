"""Frozen reference work that measures how fast the host runs right now.

The host's speed drifts by tens of percent over seconds to minutes
(other tenants share its cores), which swamps the differences the
benchmark must resolve.  The harness therefore times this reference work
between the program's own timed calls and scales every timing by the
host's slowdown: the median reference time over the nominal one.  The
reference never changes with the program, so a faster program still
reads faster; only the host's drift cancels.

kernel_seconds() is shaped like the package's hot paths: averages over
the cells of small partition towers with bincount, elementwise maxima
across levels and input validation (the operators), then candidate
stopping times built from random cells with set operations and a small
dataclass each (the heuristic search).  probe_seconds() starts a fresh
interpreter that imports numpy, the part of set-up that is not the
program.
"""

from __future__ import annotations

import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

# Medians on the machine the benchmark was defined on (Intel Xeon, 2.0 GHz, 2 vCPUs).
KERNEL_NOMINAL_S = 0.037
PROBE_NOMINAL_S = 0.20


@dataclass(frozen=True)
class _Tower:
    labels: list
    masses: np.ndarray
    cell_mass: list

    @classmethod
    def binary(cls, depth: int) -> "_Tower":
        labels = [np.repeat(np.arange(2**t), 2 ** (depth - t)) for t in range(depth + 1)]
        masses = np.linspace(0.5, 1.5, 2**depth)
        masses /= masses.sum()
        return cls(labels, masses, [np.bincount(lab, weights=masses) for lab in labels])

    def average(self, f: np.ndarray, level: int) -> np.ndarray:
        f = np.asarray(f, dtype=float)
        if f.shape != self.masses.shape or not np.all(np.isfinite(f)):
            raise ValueError("reference input must be finite and of the tower's size")
        labels = self.labels[level]
        sums = np.bincount(labels, weights=f * self.masses, minlength=self.cell_mass[level].size)
        return (sums / self.cell_mass[level])[labels]

    def bilinear_max(self, f: np.ndarray, g: np.ndarray) -> np.ndarray:
        out = np.abs(self.average(f, 0) * self.average(g, 0))
        for level in range(1, len(self.labels)):
            np.maximum(out, np.abs(self.average(f, level) * self.average(g, level)), out=out)
        return out


@dataclass(frozen=True)
class _Candidate:
    levels: np.ndarray
    value: float


_SMALL = _Tower.binary(3)
_LARGE = _Tower.binary(5)


def kernel_seconds(rounds: int = 200, searches: int = 20) -> float:
    """Wall time of a fixed amount of reference work."""
    rng = np.random.default_rng(0)
    t0 = time.perf_counter()
    f, g = rng.random(8), rng.random(8)
    for _ in range(rounds):
        out = _SMALL.bilinear_max(f, g)
        _Candidate(out, float((out**2).sum() ** 0.5))
    f, g = rng.random(32), rng.random(32)
    best: dict[tuple, float] = {}
    for _ in range(searches):
        cells = {(int(t), int(a)) for t, a in zip(rng.integers(0, 6, 4), rng.integers(0, 32, 4))}
        for level, a in sorted(cells):
            points = np.flatnonzero(_LARGE.labels[level] == a % _LARGE.cell_mass[level].size)
            levels = np.full(32, np.inf)
            levels[points] = level
            inside = np.isfinite(levels)
            chi = inside.astype(float)
            out = _LARGE.bilinear_max(f * chi, g * chi)
            key = tuple(np.unique(_LARGE.labels[-1][points]).tolist())
            cand = _Candidate(levels, float((out[inside] ** 2 * _LARGE.masses[inside]).sum()))
            best[key] = max(best.get(key, -np.inf), cand.value)
            np.isin(points, np.sort(np.concatenate([points, points[:1]])))
    return time.perf_counter() - t0


def probe_seconds() -> float:
    """Wall time of a fresh interpreter importing numpy."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, capture_output=True, timeout=120)
    return time.perf_counter() - t0
