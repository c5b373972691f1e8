"""Independent reference values for the exact tail-supremum constants.

Every union of finest atoms is a stopping-time tail at origin 0 (stop at
the finest level on exactly those atoms), and every tail is such a union,
so the supremum over stopping times is a maximum over the power set of
the finest atoms.  This module evaluates RH, S and Winf on that power set
in blocks of tails with plain numpy, straight from an instance's JSON
fields, without importing filtermax.
"""

from __future__ import annotations

import numpy as np

BLOCK = 4096  # tails per block: keeps each block array under 1 MiB at 16 leaves


def exact_constants(data: dict) -> dict[str, float]:
    """{"rh", "s", "winf"} of an instance given as its JSON dict."""
    masses = np.asarray(data["masses"], dtype=float)
    n = masses.size
    p1, p2 = float(data["p1"]), float(data["p2"])
    p = 1.0 / (1.0 / p1 + 1.0 / p2)
    a1, a2 = p / p1, p / p2
    v = np.asarray(data["v"], dtype=float)
    sigma1 = np.asarray(data["omega1"], dtype=float) ** (-1.0 / (p1 - 1.0))
    sigma2 = np.asarray(data["omega2"], dtype=float) ** (-1.0 / (p2 - 1.0))
    mix = sigma1**a1 * sigma2**a2 * masses

    # one-hot point -> atom matrix per level, and atom masses
    onehots = []
    for level in data["levels"]:
        onehot = np.zeros((n, len(level)))
        for a, atom in enumerate(level):
            onehot[atom, a] = 1.0
        onehots.append((onehot, masses @ onehot, onehot.argmax(axis=1)))
    leaf_of = onehots[-1][2]
    n_leaves = len(data["levels"][-1])

    def cond(f: np.ndarray, level: tuple) -> np.ndarray:
        onehot, atom_mass, atom_of = level
        return ((f * masses) @ onehot / atom_mass)[:, atom_of]

    best = {"rh": -np.inf, "s": -np.inf, "winf": -np.inf}
    for lo in range(1, 2**n_leaves, BLOCK):
        tails = np.arange(lo, min(lo + BLOCK, 2**n_leaves), dtype=np.int64)
        chi = ((tails[:, None] >> leaf_of[None, :]) & 1).astype(float)
        s1 = (chi * sigma1 * masses).sum(axis=1)
        s2 = (chi * sigma2 * masses).sum(axis=1)
        mix_e = (chi * mix).sum(axis=1)
        bil = np.zeros_like(chi)
        m1 = np.zeros_like(chi)
        m2 = np.zeros_like(chi)
        for level in onehots:
            e1 = np.abs(cond(sigma1 * chi, level))
            e2 = np.abs(cond(sigma2 * chi, level))
            np.maximum(bil, e1 * e2, out=bil)
            np.maximum(m1, e1, out=m1)
            np.maximum(m2, e2, out=m2)
        rh = s1**a1 * s2**a2 / mix_e
        s = ((chi * bil**p * v * masses).sum(axis=1) / (s1**a1 * s2**a2)) ** (1.0 / p)
        winf = (chi * m1**a1 * m2**a2 * masses).sum(axis=1) / mix_e
        for key, vals in (("rh", rh), ("s", s), ("winf", winf)):
            best[key] = max(best[key], float(vals.max()))
    return best
