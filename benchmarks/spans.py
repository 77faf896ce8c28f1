"""In-memory call spans recorded around drpsim's public functions.

A Tracer wraps functions from outside the program: every name in a
drpsim module namespace that is bound to the wrapped function object is
rebound to the wrapper, so each call site that looks the function up at
run time (``drpsim.online.stage_cost``, ``drpsim.experiments.build_scenario``,
...) records a span. A span is (name, start, end, parent); spans live in
flat arrays while the run lasts and are written out once at the end.

A Probe uses the same rebinding to time only the outermost call of a
few coarse functions, with O(1) cost per call, for the untraced runs.
"""

from __future__ import annotations

import math
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

__all__ = ["Tracer", "Probe", "Patcher", "self_times", "aggregate"]


class Patcher:
    """Rebind a function everywhere drpsim looks it up; undo on restore().

    Targets are given as ``(module_name, attr)`` with ``attr`` either a
    function name or ``Class.method`` for a classmethod. A target that no
    longer exists is skipped, so a refactor that deletes a function
    leaves its per-layer counts at 0 instead of breaking the run.
    """

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def patch(self, module_name: str, attr: str, make: Callable[[Callable], Callable]) -> bool:
        module = sys.modules.get(module_name)
        if module is None:
            return False
        if "." in attr:
            cls_name, meth = attr.split(".", 1)
            cls = getattr(module, cls_name, None)
            raw = None if cls is None else cls.__dict__.get(meth)
            if not isinstance(raw, classmethod):
                return False
            self._undo.append((cls, meth, raw))
            setattr(cls, meth, classmethod(make(raw.__func__)))
            return True
        original = getattr(module, attr, None)
        if not callable(original):
            return False
        wrapper = make(original)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "drpsim" or name.startswith("drpsim.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, original))
                    setattr(mod, key, wrapper)
        return True

    def restore(self) -> None:
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()


class Tracer:
    """Records one span per call of each wrapped function.

    Spans are stored column-wise (name id, start, end, parent index) so
    that a few hundred thousand calls cost a few megabytes.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[int] = []

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(math.nan)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str) -> Callable[[Callable], Callable]:
        """Return a decorator factory usable with Patcher.patch."""
        nid = self._intern(name)
        name_id, parent, start, end, stack = self.name_id, self.parent, self.start, self.end, self._stack
        clock, nan = time.perf_counter, math.nan

        def make(fn: Callable) -> Callable:
            # _open/_close inlined: this runs once per call of a hot function
            def traced(*args, **kwargs):
                idx = len(start)
                name_id.append(nid)
                parent.append(stack[-1] if stack else -1)
                end.append(nan)
                stack.append(idx)
                start.append(clock())
                try:
                    return fn(*args, **kwargs)
                finally:
                    end[idx] = clock()
                    stack.pop()

            return traced

        return make

    def span(self, name: str):
        """Context manager recording a span around a block of bench code."""
        tracer = self
        nid = self._intern(name)

        class _Span:
            def __enter__(self):
                self.idx = tracer._open(nid)

            def __exit__(self, *exc):
                tracer._close(self.idx)
                return False

        return _Span()

    def __len__(self) -> int:
        return len(self.start)

    def write(self, path: Path) -> None:
        """Write every span recorded so far as a compressed .npz file."""
        np.savez_compressed(
            path,
            names=np.array(self.names, dtype=str),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
        )


def self_times(start: Iterable[float], end: Iterable[float], parent: Iterable[int]) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    Children are clipped to the parent's interval and overlapping
    children are merged, so a covered instant is subtracted once.
    """
    start = list(start)
    end = list(end)
    parent = list(parent)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append((start[i], end[i]))
    result = []
    for i in range(len(start)):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, start[i]), min(hi, end[i])
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        result.append((end[i] - start[i]) - covered)
    return result


def aggregate(tracer: Tracer, first_span: int = 0) -> dict[str, dict[str, float]]:
    """Calls, total seconds and self seconds per span name.

    Only spans from index first_span on are counted, so one tracer can
    serve several traced iterations.
    """
    idx = range(first_span, len(tracer))
    start = [tracer.start[i] for i in idx]
    end = [tracer.end[i] for i in idx]
    parent = [tracer.parent[i] - first_span if tracer.parent[i] >= first_span else -1 for i in idx]
    selfs = self_times(start, end, parent)
    out: dict[str, dict[str, float]] = {
        name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in tracer.names
    }
    for k, i in enumerate(idx):
        rec = out[tracer.names[tracer.name_id[i]]]
        rec["calls"] += 1
        rec["s"] += end[k] - start[k]
        rec["self_s"] += selfs[k]
    return out


class Probe:
    """Times the outermost call of a few coarse functions, and nothing else.

    ``seconds[name]`` accumulates wall time and ``calls[name]`` counts
    outermost calls; ``on_result[name]`` (optional) sees each outermost
    result, e.g. to keep the replication matrices for the reference check.
    """

    def __init__(self):
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.on_result: dict[str, Callable[[object], None]] = {}
        self._depth: dict[str, int] = defaultdict(int)

    def reset(self) -> None:
        self.seconds.clear()
        self.calls.clear()

    def wrap(self, name: str) -> Callable[[Callable], Callable]:
        def make(fn: Callable) -> Callable:
            def probed(*args, **kwargs):
                if self._depth[name]:
                    return fn(*args, **kwargs)
                self._depth[name] += 1
                t0 = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.seconds[name] += time.perf_counter() - t0
                    self._depth[name] -= 1
                self.calls[name] += 1
                hook = self.on_result.get(name)
                if hook is not None:
                    hook(result)
                return result

            return probed

        return make
