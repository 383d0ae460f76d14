"""Per-layer spans for the traced benchmark run.

A span wraps one entry point of a ``repro`` layer: every function a
layer's module defines, and every method its classes define (which
includes the callbacks the event kernel dispatches into, such as
``Port._finish_tx`` or ``DelayArbiter._release_head``).  The wrappers
replace the originals *on the class or module* before any simulator
object exists, so bound methods cached at construction time go through
them too, and fork-started pool workers inherit them.

Each span adds its duration to its parent's child time, so a span's
self time is its duration minus the time its child spans cover.  Spans
are aggregated in memory per entry point (calls, total, self) and the
first ``RAW_CAP`` spans are also kept raw, with their parent, for
:meth:`Spans.dump`.

The wrappers only observe: arguments, return values and exceptions pass
through unchanged, so a traced run simulates exactly what an untraced
one does (the benchmark checks this through the run digest).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from typing import Callable, Dict, List, Tuple

#: Layer name -> the ``repro`` modules whose code it owns.  A module's
#: layer owns the functions it defines and the methods of the classes
#: it defines; subclasses inherit the wrapped method unless they
#: override it, in which case their own module's layer owns the override.
LAYER_MODULES: Dict[str, Tuple[str, ...]] = {
    "sim": (
        "repro.sim.engine",
        "repro.sim.timers",
        "repro.sim.core",
        "repro.sim.sched.base",
        "repro.sim.sched.heap",
        "repro.sim.sched.calendar",
        "repro.sim.sched.wheel",
    ),
    "net.port": ("repro.net.port", "repro.net.queues"),
    "net.node": ("repro.net.node", "repro.net.host"),
    "net.fabric": ("repro.net.bfc", "repro.net.fairq", "repro.net.pfc"),
    "net.build": ("repro.net.network", "repro.net.topology"),
    "core": ("repro.core.switch_agent", "repro.core.delay"),
    "routing": ("repro.routing.base", "repro.routing.policies"),
    "transport": (
        "repro.transport.base",
        "repro.transport.newreno",
        "repro.transport.dctcp",
        "repro.transport.tbtcp",
        "repro.transport.tracks",
        "repro.transport.bfc",
        "repro.transport.fairq",
        "repro.transport.registry",
        # TFC's end-host half (window-obeying sender, marking receiver)
        # is transport work, not switch-agent work.
        "repro.core.sender",
    ),
    "workloads": (
        "repro.workloads.bulk",
        "repro.workloads.collective",
        "repro.workloads.distributions",
        "repro.workloads.empirical",
        "repro.workloads.incast",
        "repro.workloads.mixer",
        "repro.workloads.onoff",
        "repro.workloads.storage",
    ),
    "metrics": ("repro.metrics.fct", "repro.metrics.stats", "repro.metrics.samplers"),
    "faults": ("repro.faults.invariants", "repro.faults.engine"),
    "obs": (
        "repro.sim.trace",
        "repro.obs.registry",
        "repro.obs.session",
        "repro.obs.slots",
        "repro.obs.flight",
    ),
    "scenario": ("repro.scenario.run", "repro.scenario.loader", "repro.scenario.schema"),
    "experiments": (
        "repro.experiments.runner",
        "repro.experiments.common",
        "repro.experiments.scenario_cells",
    ),
}

#: Raw spans kept per process (name, parent, start, duration).
RAW_CAP = 50_000

#: Span index of the synthetic root (time no layer claimed).
ROOT = 0


class Spans:
    """Aggregated span accounting shared by every installed wrapper."""

    def __init__(self) -> None:
        self.names: List[str] = ["<root>"]
        self.layers: List[str] = ["other"]
        self.calls: List[int] = [0]
        self.total: List[float] = [0.0]
        self.self_s: List[float] = [0.0]
        # Child-time accumulators and span ids of the open spans; the
        # bottom entries belong to the root.
        self._child: List[float] = [0.0]
        self._ids: List[int] = [ROOT]
        self.raw: List[Tuple[int, int, float, float]] = []

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every entry point of every layer.

        Must run before the topology is built.  Module-level functions
        are also replaced wherever another ``repro`` module imported
        them by name.
        """
        modules = {
            layer: [importlib.import_module(name) for name in names]
            for layer, names in LAYER_MODULES.items()
        }
        # Every module-level binding of a function, across the package.
        bindings: Dict[int, List[Tuple[object, str]]] = {}
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("repro"):
                for attr, value in vars(module).items():
                    if inspect.isfunction(value):
                        bindings.setdefault(id(value), []).append((module, attr))
        for layer, layer_modules in modules.items():
            for module in layer_modules:
                self._install_module(layer, module, bindings)

    def _install_module(self, layer: str, module, bindings) -> None:
        for attr, value in list(vars(module).items()):
            if inspect.isclass(value) and value.__module__ == module.__name__:
                for name, member in list(vars(value).items()):
                    if not _wrappable(name, member):
                        continue
                    label = f"{module.__name__}.{value.__qualname__}.{name}"
                    setattr(value, name, self._wrap(member, label, layer))
            elif _wrappable(attr, value) and value.__module__ == module.__name__:
                wrapper = self._wrap(value, f"{module.__name__}.{attr}", layer)
                for owner, owner_attr in bindings.get(id(value), ()):
                    setattr(owner, owner_attr, wrapper)

    def _wrap(self, fn: Callable, label: str, layer: str) -> Callable:
        index = len(self.names)
        self.names.append(label)
        self.layers.append(layer)
        self.calls.append(0)
        self.total.append(0.0)
        self.self_s.append(0.0)
        calls = self.calls
        total = self.total
        self_s = self.self_s
        child = self._child
        ids = self._ids
        raw = self.raw
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            parent = ids[-1]
            ids.append(index)
            child.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                ids.pop()
                covered = child.pop()
                child[-1] += elapsed
                calls[index] += 1
                total[index] += elapsed
                self_s[index] += elapsed - covered
                if len(raw) < RAW_CAP:
                    raw.append((index, parent, start, elapsed))

        return span

    # ------------------------------------------------------------------
    # Measurement windows
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Zero every accumulator in place (wrappers keep their lists).

        Open spans stay open: a fork-started pool worker inherits the
        parent's stack, and the benchmark resets inside a running cell
        span.  Only spans that close after the reset are counted.
        """
        for i in range(len(self.names)):
            self.calls[i] = 0
            self.total[i] = 0.0
            self.self_s[i] = 0.0
        del self.raw[:]

    def open_child_time(self) -> float:
        """Child time charged so far to the innermost open span."""
        return self._child[-1]

    def close_root(self, elapsed: float, covered_before: float) -> None:
        """Charge a measured window's uncovered time to the root span.

        ``covered_before`` is :meth:`open_child_time` at the window's
        start; spans closed inside the window added to it since.
        """
        self.calls[ROOT] = 1
        self.total[ROOT] = elapsed
        self.self_s[ROOT] = elapsed - (self._child[-1] - covered_before)

    def snapshot(self) -> Dict[str, List[float]]:
        """Spans that ran, as ``label -> [layer, calls, total_s, self_s]``."""
        return {
            self.names[i]: [self.layers[i], self.calls[i], self.total[i], self.self_s[i]]
            for i in range(len(self.names))
            if self.calls[i]
        }

    def dump(self, path: str, table: Dict[str, List[float]]) -> None:
        """Write an aggregated table and this process's raw spans as JSON."""
        payload = {
            "span_fields": ["layer", "calls", "total_s", "self_s"],
            "spans": table,
            "raw_fields": ["name", "parent", "start_s", "duration_s"],
            "raw": [
                [self.names[i], self.names[p], start, elapsed]
                for i, p, start, elapsed in self.raw
            ],
        }
        with open(path, "w") as handle:
            json.dump(payload, handle)


def merge_snapshots(snapshots: List[Dict[str, List[float]]]) -> Dict[str, List[float]]:
    """Sum several :meth:`Spans.snapshot` tables (sweep cells)."""
    merged: Dict[str, List[float]] = {}
    for snapshot in snapshots:
        for label, (layer, calls, total, self_s) in snapshot.items():
            row = merged.setdefault(label, [layer, 0, 0.0, 0.0])
            row[1] += calls
            row[2] += total
            row[3] += self_s
    return merged


def layer_self_s(snapshot: Dict[str, List[float]]) -> Dict[str, float]:
    """Self time per layer."""
    out: Dict[str, float] = {}
    for layer, _calls, _total, self_s in snapshot.values():
        out[layer] = out.get(layer, 0.0) + self_s
    return out


def calls_of(snapshot: Dict[str, List[float]], suffix: str) -> int:
    """Calls summed over every span whose label ends with ``suffix``."""
    return sum(int(row[1]) for label, row in snapshot.items() if label.endswith(suffix))


def _wrappable(name: str, member) -> bool:
    """Plain functions only: no dunders (bar ``__init__``), no generators."""
    if not inspect.isfunction(member):
        return False
    if name.startswith("__") and name != "__init__":
        return False
    return not (inspect.isgeneratorfunction(member) or inspect.iscoroutinefunction(member))
