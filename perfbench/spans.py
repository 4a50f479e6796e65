"""Spans recorded from outside the package, at the names its callers bound.

A :class:`Tracer` replaces a module attribute (for example
``myerson_airnet.sim.pile_similarity``) with a wrapper that records one
span per call: name, start, end, parent span and pass id.  Spans live in
flat typed arrays so a pass with hundreds of thousands of calls stays
small, and are written out once the run ends.  :class:`UnitClock` is the
untraced counterpart: it stamps only the calls that mark one unit of
work, so end-to-end latency needs no full trace.
"""

from __future__ import annotations

import functools
from array import array
from time import perf_counter

import numpy as np

from benchstats import self_times


class Patcher:
    """Swap module or class attributes and put the originals back."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, make_wrapper) -> None:
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class Tracer:
    """In-memory span recorder; one instance per run.

    Passes run one after another, so each pass owns a contiguous range of
    span indices; the pass id of a span is looked up from those ranges
    instead of being stored per span.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.passes: dict[int, tuple[int, int]] = {}
        self.counters: dict[str, int] = {}
        self._stack = [-1]
        self._pass = -1
        self._patcher = Patcher()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, name: str, amount: int = 1) -> None:
        key = f"{self._pass}:{name}"
        self.counters[key] = self.counters.get(key, 0) + amount

    def counter(self, pass_id: int, name: str) -> int:
        return self.counters.get(f"{pass_id}:{name}", 0)

    def run(self, name: str, fn, *args, pass_id: int | None = None, **kwargs):
        """Call ``fn`` inside a span; a given ``pass_id`` makes it a pass's root span."""
        if pass_id is not None:
            self._pass = pass_id
        first = len(self.name_id)
        try:
            return self.wrap(name)(fn)(*args, **kwargs)
        finally:
            if pass_id is not None:
                self.passes[pass_id] = (first, len(self.name_id))

    def wrap(self, name: str, on_result=None):
        """Wrapper factory for :meth:`Patcher.replace` that records a span per call."""
        nid = self._id(name)
        name_append, parent_append = self.name_id.append, self.parent.append
        start_append, end_append, end = self.start.append, self.end.append, self.end
        stack = self._stack
        push, pop = stack.append, stack.pop

        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                index = len(end)
                name_append(nid)
                parent_append(stack[-1])
                end_append(0.0)
                push(index)
                start_append(perf_counter())
                try:
                    result = fn(*args, **kwargs)
                except BaseException as exc:
                    self.count(f"{name}.raised.{type(exc).__name__}")
                    raise
                finally:
                    end[index] = perf_counter()
                    pop()
                if on_result is not None:
                    on_result(self, result)
                return result
            return traced
        return make

    def install(self, targets) -> None:
        """``targets``: ``(owner, attr, span name, on_result or None)`` tuples."""
        for owner, attr, name, on_result in targets:
            self._patcher.replace(owner, attr, self.wrap(name, on_result))

    def uninstall(self) -> None:
        self._patcher.restore()

    def table(self) -> dict[str, np.ndarray]:
        """Spans as numpy columns plus each span's self time."""
        start = np.frombuffer(self.start, dtype=float).copy()
        end = np.frombuffer(self.end, dtype=float).copy()
        parent = np.frombuffer(self.parent, dtype=np.int32).astype(np.int64)
        pass_id = np.full(start.size, -1, dtype=np.int32)
        for pid, (first, stop) in self.passes.items():
            pass_id[first:stop] = pid
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": parent,
            "pass_id": pass_id,
            "start": start,
            "end": end,
            "self": self_times(start, end, parent),
        }

    def save(self, path) -> None:
        columns = self.table()
        np.savez(path, names=np.array(self.names), **columns)


class PassSummary:
    """Per-name totals of one pass, read out of a :class:`Tracer` table."""

    def __init__(self, tracer: Tracer, table: dict[str, np.ndarray], pass_id: int):
        self.pass_id = pass_id
        mask = table["pass_id"] == pass_id
        names = table["name_id"][mask]
        width = len(tracer.names)
        duration = (table["end"] - table["start"])[mask]
        self._ids = {name: i for i, name in enumerate(tracer.names)}
        self._calls = np.bincount(names, minlength=width)
        self._total = np.bincount(names, weights=duration, minlength=width)
        self._self = np.bincount(names, weights=table["self"][mask], minlength=width)
        self.spans = int(mask.sum())

    def _get(self, column: np.ndarray, name: str) -> float:
        index = self._ids.get(name)
        return 0.0 if index is None else float(column[index])

    def calls(self, name: str) -> int:
        return int(self._get(self._calls, name))

    def total(self, name: str) -> float:
        return self._get(self._total, name)

    def self_time(self, name: str) -> float:
        return self._get(self._self, name)


class UnitClock:
    """Untraced timing: entry stamps of a unit-boundary call, plus work windows.

    A *unit* is one step of the workload's loop (a gradient step, a
    profile, a round).  Its latency is the interval between successive
    entries of the call that starts each unit, within one command and,
    when a window call is given, within that call.  When a
    :class:`~gauge.Gauge` is given, it may run its kernel at a unit
    boundary; the kernel's time is taken out of the unit it fell in.
    """

    def __init__(self, gauge=None):
        self.stamps = array("d")
        self.paused = array("d")
        self.windows: list[tuple[float, float]] = []
        self.gauge = gauge
        self._patcher = Patcher()

    def install(self, unit_target, window_target=None) -> None:
        stamps, paused, gauge = self.stamps, self.paused, self.gauge

        def stamp(fn):
            @functools.wraps(fn)
            def stamped(*args, **kwargs):
                now = perf_counter()
                stamps.append(now)
                paused.append(gauge.tick(now) if gauge is not None else 0.0)
                return fn(*args, **kwargs)
            return stamped

        def window(fn):
            @functools.wraps(fn)
            def windowed(*args, **kwargs):
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.windows.append((t0, perf_counter()))
            return windowed

        self._patcher.replace(*unit_target, stamp)
        if window_target is not None:
            self._patcher.replace(*window_target, window)

    def uninstall(self) -> None:
        self._patcher.restore()

    def take(self, commands: list[tuple[float, float]]) -> tuple[np.ndarray, np.ndarray, list[float]]:
        """Drain the stamps: ``(unit intervals in s, unit starts, window durations in s)``.

        ``commands`` are the ``(start, end)`` times of each CLI command of
        the pass.  Intervals never cross a command or window edge; inside a
        window the last unit ends when the window call returns, while the
        last unit of a bare command is dropped because the command's own
        output writing follows it.  Gauge time is left out of both.
        """
        stamps = np.frombuffer(self.stamps, dtype=float).copy()
        paused = np.frombuffer(self.paused, dtype=float).copy()
        intervals, starts, windows = [], [], []
        for lo, hi in self.windows or commands:
            inside = (stamps >= lo) & (stamps <= hi)
            edges, gaps = stamps[inside], paused[inside]
            if self.windows:
                edges = np.append(edges, hi)
                windows.append(hi - lo - gaps.sum())
            else:
                gaps = gaps[:-1]
            intervals.append(np.diff(edges) - gaps)
            starts.append(edges[:-1])
        del self.stamps[:]
        del self.paused[:]
        self.windows.clear()
        empty = np.empty(0)
        return (np.concatenate(intervals) if intervals else empty,
                np.concatenate(starts) if starts else empty, windows)
