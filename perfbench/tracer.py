"""Spans around the public calls of `fastflock`, recorded from outside it.

`Tracer.install` wraps every public function of the traced modules, every
public method of the classes they define, and a few private callables that
mark a layer boundary. It then rebinds each module-level reference to a
wrapped function, including the copies that `from .x import f` made, so
nothing under `src/` changes. Each call records one span: its name, start
and end (`time.perf_counter_ns`) and the span that was open when it began.
Spans stay in memory in flat arrays until the benchmark writes them out.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

# Private callables that are layer boundaries all the same: a measurement's
# construction (it validates H and R), the simulation's set-up, and one
# agent's stage within a tick.
BOUNDARIES = {
    "kalman.Measurement.__init__",
    "engine.Simulation.__init__",
    "engine.Simulation._stage",
}


class Tracer:
    def __init__(self):
        self.labels: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._open = [-1]

    def wrap(self, label: str, fn, hook=None):
        """`fn` recording a span per call; `hook(args, kwargs, result)` runs
        after the span closes, so its cost stays out of the span."""
        label_id = len(self.labels)
        self.labels.append(label)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self._open
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def span(*args, **kwargs):
            index = len(starts)
            names.append(label_id)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return span

    def install(self, package: str, modules: list[str], hooks: dict) -> None:
        """Wrap the callables of `package.<module>` for each module listed;
        `hooks` maps span labels to callbacks for `wrap`."""
        wrapped = {}
        for short in modules:
            module = sys.modules[f"{package}.{short}"]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    label = f"{short}.{attr}"
                    wrapped[obj] = self.wrap(label, obj, hooks.get(label))
                elif inspect.isclass(obj):
                    for name, method in list(vars(obj).items()):
                        label = f"{short}.{attr}.{name}"
                        if inspect.isfunction(method) and (
                            not name.startswith("_") or label in BOUNDARIES
                        ):
                            setattr(obj, name, self.wrap(label, method, hooks.get(label)))
        missing = set(hooks) - set(self.labels)
        if missing:
            raise ValueError(f"hooks for callables not traced: {sorted(missing)}")
        for name, module in list(sys.modules.items()):
            if name == package or name.startswith(package + "."):
                for attr, obj in list(vars(module).items()):
                    if inspect.isfunction(obj) and obj in wrapped:
                        setattr(module, attr, wrapped[obj])

    def arrays(self) -> dict[str, np.ndarray]:
        """The spans so far: label index, parent span (-1 at the top), start
        and end in nanoseconds, and self time (duration less the time of
        the spans it opened)."""
        name = np.frombuffer(self.name, dtype=np.int32).copy()
        parent = np.frombuffer(self.parent, dtype=np.int32).copy()
        start = np.frombuffer(self.start, dtype=np.int64).copy()
        end = np.frombuffer(self.end, dtype=np.int64).copy()
        duration = end - start
        children = np.zeros(len(name), dtype=np.int64)
        nested = parent >= 0
        np.add.at(children, parent[nested], duration[nested])
        return {"name": name, "parent": parent, "start": start, "end": end,
                "self": duration - children}

    def totals(self, spans: dict[str, np.ndarray], mask=None) -> dict[str, dict]:
        """Per label: calls, total and self time in nanoseconds."""
        keep = np.ones(len(spans["name"]), dtype=bool) if mask is None else mask
        name = spans["name"][keep]
        size = len(self.labels)
        calls = np.bincount(name, minlength=size)
        total = np.bincount(name, weights=(spans["end"] - spans["start"])[keep],
                            minlength=size)
        own = np.bincount(name, weights=spans["self"][keep], minlength=size)
        return {
            label: {"calls": int(calls[i]), "total_ns": float(total[i]),
                    "self_ns": float(own[i])}
            for i, label in enumerate(self.labels)
        }

    @staticmethod
    def span_cost_ns(calls: int = 100_000) -> float:
        """What one span adds to a call: a traced no-op against a bare one,
        timed back to back so that both see the same machine speed."""

        def noop():
            return None

        traced = Tracer().wrap("noop", noop)
        clock = time.perf_counter_ns
        costs = []
        for _ in range(5):
            start = clock()
            for _ in range(calls):
                noop()
            bare = clock() - start
            start = clock()
            for _ in range(calls):
                traced()
            costs.append((clock() - start - bare) / calls)
        return sorted(costs)[len(costs) // 2]

    def save(self, path) -> None:
        spans = self.arrays()
        np.savez_compressed(path, labels=np.array(self.labels), **spans)
