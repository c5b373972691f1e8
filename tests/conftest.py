"""Shared fixtures: small hand-checkable spaces and an independent
stopping-time oracle used to cross-validate the enumerator."""

import itertools
import sys

import numpy as np
import pytest

import filtermax.weights
from filtermax import FilteredSpace, StoppingTime


@pytest.fixture
def dual_calls(monkeypatch):
    """The exponent of every `sigma_from_omega` call, counted through every
    filtermax module that binds the name."""
    calls = []
    real = filtermax.weights.sigma_from_omega

    def counting(omega, p_s):
        calls.append(p_s)
        return real(omega, p_s)

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "filtermax" and hasattr(module, "sigma_from_omega"):
            monkeypatch.setattr(module, "sigma_from_omega", counting)
    return calls


@pytest.fixture
def quad():
    """Four equal points, three levels: root -> halves -> singletons."""
    return FilteredSpace(
        [0.25, 0.25, 0.25, 0.25],
        [[[0, 1, 2, 3]], [[0, 1], [2, 3]], [[0], [1], [2], [3]]],
    )


@pytest.fixture
def pair():
    """Two equal points, two levels."""
    return FilteredSpace([0.5, 0.5], [[[0, 1]], [[0], [1]]])


@pytest.fixture
def chain():
    """A level that refines nothing: root repeated, then the split."""
    return FilteredSpace([1.0, 2.0], [[[0, 1]], [[0, 1]], [[0], [1]]])


@pytest.fixture
def mixed6():
    """Six points with uneven masses and irregular branching."""
    return FilteredSpace(
        [0.1, 0.2, 0.3, 0.15, 0.15, 0.1],
        [
            [[0, 1, 2, 3, 4, 5]],
            [[0, 1], [2, 3, 4], [5]],
            [[0], [1], [2], [3], [4], [5]],
        ],
    )


@pytest.fixture
def lumpy5():
    """Five points whose finest atoms are not all singletons; the atom
    {3, 4} repeats from level 1 to level 2."""
    return FilteredSpace(
        [0.3, 0.1, 0.25, 0.2, 0.15],
        [[[0, 1, 2, 3, 4]], [[0, 1, 2], [3, 4]], [[0, 1], [2], [3, 4]]],
    )


def brute_force_stopping_times(space: FilteredSpace, i: int) -> set[StoppingTime]:
    """Independent oracle: try every per-point level assignment in
    {i..L, inf}^n and keep the adapted ones ({tau = j} a union of
    level-j atoms for every finite j >= i)."""
    options = [float(j) for j in range(i, space.n_levels)] + [np.inf]
    out = set()
    for combo in itertools.product(options, repeat=space.n):
        levels = np.array(combo)
        ok = True
        for j in range(i, space.n_levels):
            stopped = levels == float(j)
            for atom in space.atoms[j]:
                hits = stopped[atom]
                if hits.any() and not hits.all():
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.add(StoppingTime(levels, origin=i))
    return out
