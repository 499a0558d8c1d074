"""Span tracing of btcrs from outside: wrap every public function, restore after.

`Tracer.install` replaces each public function, method and property defined
in the traced modules with a wrapper that records, per span name, the call
count, total seconds and self seconds (total minus the time of wrapped calls
made inside it).  The engine's event heap is counted at its `heapq`
boundary, and every `RunResult` that `Simulation.run` returns is kept so its
counters can be read.  `restore` puts every original object back; nothing in
`src/` is edited.
"""

from __future__ import annotations

import heapq
import inspect
import time

from btcrs import adversary, engine, metrics, planner, protocol, topology, wire

MODULES = (wire, protocol, topology, planner, adversary, engine, metrics)

# spans whose truthy results are counted, for the *_ratio metrics
TRUTHY = {"topology.Coverage.diverted", "adversary.DelayAttacker.intercepts",
          "adversary.PartitionAttacker.tick"}
CAPTURE = "engine.Simulation.run"


class _CountingHeapq:
    """Stands in for the `heapq` module inside `engine`, counting pops."""

    def __init__(self):
        self.pops = 0

    def heappop(self, heap):
        self.pops += 1
        return heapq.heappop(heap)

    def __getattr__(self, name):
        return getattr(heapq, name)


class Tracer:
    def __init__(self):
        self.spans: dict[str, list] = {}  # name -> [calls, total_s, self_s, truthy]
        self.results: list = []  # RunResults returned by Simulation.run
        self.heap = _CountingHeapq()
        self._stack = [0.0]  # child seconds of each open span; [0] is the root
        self._patches: list[tuple[object, str, object]] = []

    # ---- wrapping ----

    def _wrap(self, name: str, fn):
        rec = self.spans.setdefault(name, [0, 0.0, 0.0, 0])
        stack, clock = self._stack, time.perf_counter
        truthy, keep = name in TRUTHY, self.results.append if name == CAPTURE else None

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - child
                stack[-1] += dt
            if truthy and out:
                rec[3] += 1
            if keep is not None:
                keep(out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _wrapped_attr(self, name: str, raw):
        """The traced replacement for a raw class or module attribute, or None."""
        if isinstance(raw, property):
            return property(self._wrap(name, raw.fget), raw.fset, raw.fdel, raw.__doc__)
        if isinstance(raw, (staticmethod, classmethod)):
            return type(raw)(self._wrap(name, raw.__func__))
        if inspect.isfunction(raw):
            return self._wrap(name, raw)
        return None

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        for mod in MODULES:
            short = mod.__name__.rsplit(".", 1)[-1]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    for attr, raw in list(vars(obj).items()):
                        if attr.startswith("_"):
                            continue
                        new = self._wrapped_attr(f"{short}.{name}.{attr}", raw)
                        if new is not None:
                            self._patch(obj, attr, new)
                else:
                    new = self._wrapped_attr(f"{short}.{name}", obj)
                    if new is not None:
                        self._patch(mod, name, new)
        self._patch(engine, "heapq", self.heap)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)

    def unrestored(self) -> list[str]:
        """Patched attributes that are not, by identity, the original object."""
        return [f"{getattr(owner, '__name__', owner)}.{attr}"
                for owner, attr, original in self._patches if vars(owner)[attr] is not original]
