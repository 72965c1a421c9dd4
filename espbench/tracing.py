"""Spans around calls into espkit's public functions.

The tracer replaces a function by a timing wrapper under every name that
refers to it inside the package (``from .x import f`` makes several), so
calls between modules are seen no matter which alias they go through.
Spans nest: a span's self time is its duration minus the time of the spans
it contains.  A call into a group that is already open (``states.initial``
calling ``bell_ket`` say) joins the open span instead of opening another.
Everything is kept in memory and read out once the workload has finished.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    units: int = 0  # rows, samples or events, depending on the span


class _Frame:
    __slots__ = ("key", "child_s")

    def __init__(self, key: str):
        self.key = key
        self.child_s = 0.0


class Tracer:
    def __init__(self):
        self.stats: dict[str, SpanStats] = {}
        self.enabled = True
        self.wrapped_calls = 0
        self._stack: list[_Frame] = []
        self._undo: list[tuple[object, str, object]] = []

    def span(self, key: str, fn, units=None, observe=None):
        """Wrap ``fn`` so that each call is one span under ``key``.

        ``units(args, result)`` adds to the span's unit count;
        ``observe(args)`` sees the arguments of every traced call.
        """
        stats = self.stats.setdefault(key, SpanStats())
        stack = self._stack

        def traced(*args, **kwargs):
            if not self.enabled or (stack and stack[-1].key == key):
                return fn(*args, **kwargs)
            self.wrapped_calls += 1
            if observe is not None:
                observe(args)
            frame = _Frame(key)
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                stats.calls += 1
                stats.total_s += dt
                stats.self_s += dt - frame.child_s
                if stack:
                    stack[-1].child_s += dt
            if units is not None:
                stats.units += units(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch_function(self, key: str, fn, units=None, observe=None) -> None:
        """Route every package-level name bound to ``fn`` through one span."""
        traced = self.span(key, fn, units, observe)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "espkit" or name.startswith("espkit.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, traced)

    def patch_method(self, key: str, cls, attr: str, units=None, observe=None) -> None:
        fn = getattr(cls, attr)
        self._undo.append((cls, attr, fn))
        setattr(cls, attr, self.span(key, fn, units, observe))

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def wrapper_cost_s(repeats: int = 20000) -> float:
    """Measured extra time one traced call costs over a plain call (best of five)."""
    def noop():
        return None

    traced = Tracer().span("probe", noop)
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(repeats):
            noop()
        plain = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(repeats):
            traced()
        best = min(best, (time.perf_counter() - t0 - plain) / repeats)
    return max(best, 0.0)
