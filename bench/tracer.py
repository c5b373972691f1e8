"""In-memory span tracer for the benchmark.

A span is one call of a wrapped function: its name, start, end, the span
that was open when it began (its parent) and whether it raised.  Spans
live in flat typed arrays so that millions of them stay small, and are
only summarised or written out after the traced work has finished.

Functions are wrapped where callers look them up: `install` replaces the
function in every loaded module of the package that holds a reference
to it (`from .space import cond_exp` makes a second reference), and
`restore` puts every original back.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from typing import Callable

import numpy as np


class Tracer:
    """Records nested spans; use as a context manager to restore on exit."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name_id = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._raised = array("b")
        self._stack = [-1]
        self.counters: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(
        self,
        fn: Callable,
        name: str,
        mode_arg: str | None = None,
        count: tuple[str, Callable[[object], int]] | None = None,
    ) -> Callable:
        """Wrapper recording one span per call of `fn`.

        mode_arg: append the value of this argument of `fn` to the span
        name (`weights.rh` + mode "exact" gives `weights.rh.exact`).
        count: (counter, f) adds f(result) to the counter after each call.
        """
        static_id = self._id(name) if mode_arg is None else -1
        sig = inspect.signature(fn) if mode_arg is not None else None
        if count is not None:
            self.counters.setdefault(count[0], 0)
        clock = self._clock
        stack = self._stack
        name_id, parent, start, end, raised = (
            self._name_id, self._parent, self._start, self._end, self._raised
        )

        def traced(*args, **kwargs):
            if sig is None:
                nid = static_id
            else:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                nid = self._id(f"{name}.{bound.arguments[mode_arg]}")
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            raised.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised[idx] = 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if count is not None:
                self.counters[count[0]] += count[1](result)
            return result

        return functools.update_wrapper(traced, fn)

    def install(self, package: str, fn: Callable, name: str, **wrap_kwargs) -> None:
        """Replace every reference to `fn` held by a loaded module of `package`."""
        traced = self.wrap(fn, name, **wrap_kwargs)
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == package or modname.startswith(package + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, traced)
                    self._patches.append((module, attr, fn))

    def restore(self) -> None:
        """Put back every function `install` replaced."""
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # ---- read-out ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._start)

    def arrays(self) -> dict[str, np.ndarray]:
        """Spans as numpy arrays; every span must have ended."""
        if len(self._stack) != 1:
            raise RuntimeError("spans are still open")
        return {
            "name_id": np.frombuffer(self._name_id, dtype=np.intc).copy(),
            "parent": np.frombuffer(self._parent, dtype=np.intc).copy(),
            "start": np.frombuffer(self._start, dtype=np.float64).copy(),
            "end": np.frombuffer(self._end, dtype=np.float64).copy(),
            "raised": np.frombuffer(self._raised, dtype=np.int8).copy(),
        }

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds, self seconds (duration
        minus the time covered by child spans), raised count and the list
        of inclusive durations."""
        a = self.arrays()
        n = a["start"].size
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=n)
        own = dur - child
        k = len(self.names)
        calls = np.bincount(a["name_id"], minlength=k)
        total = np.bincount(a["name_id"], weights=dur, minlength=k)
        self_s = np.bincount(a["name_id"], weights=own, minlength=k)
        raised = np.bincount(a["name_id"], weights=a["raised"], minlength=k)
        return {
            name: {
                "calls": int(calls[i]),
                "s": float(total[i]),
                "self_s": float(self_s[i]),
                "raised": int(raised[i]),
                "durations": dur[a["name_id"] == i],
            }
            for i, name in enumerate(self.names)
        }

    def save(self, path) -> None:
        """Write every span to an .npz file (names indexed by name_id)."""
        np.savez(path, names=np.array(self.names), **self.arrays())
