"""In-memory span tracer that times calls into the ``halo`` package from outside.

Every public function of every loaded ``halo.*`` module is wrapped at each
name that resolves to it -- ``halo.solver.select_halo`` as well as
``halo.selection.select_halo`` -- because callers look functions up in
their own module's globals.  Public methods of ``PartitionLedger`` and
``ObjectiveHandle`` are wrapped on the class, and the evaluator of every
``ObjectiveHandle`` built while the tracer is installed is wrapped as the
``objective`` span.  Nothing under ``src/`` is edited; ``uninstall``
puts every original object back.

A span is (name, parent, start, end), kept in flat arrays.  A span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array
from collections import defaultdict
from typing import Callable, Optional

import numpy as np

TRACED_CLASSES = ("PartitionLedger", "ObjectiveHandle")
OBJECTIVE_SPAN = "objective"

# Counters taken at span exit: (counters, args, kwargs, result) -> None.
CounterHook = Callable[[dict, tuple, dict, object], None]


def _selection_counts(counters, args, kwargs, result):
    # select_hlo delegates to select_halo, so an hlo selection counts twice
    # with the same ledger; the per-call averages are unaffected.
    counters["selection.calls"] += 1
    counters["selection.rows"] += len(args[0])
    chosen = result if isinstance(result, list) else result.chosen
    counters["selection.chosen"] += len(chosen)


def _division_counts(counters, args, kwargs, result):
    counters["partitioning.children"] += len(result)


def _gate_counts(counters, args, kwargs, result):
    counters["local_search.gate_calls"] += 1
    counters["local_search.runs"] += result == "run"


def _local_search_counts(counters, args, kwargs, result):
    # only searches that return; one cut short by the solved signal never does
    counters["local_search.completed"] += 1
    f0 = kwargs.get("f0")
    counters["local_search.improved"] += f0 is not None and result.value < f0


COUNTER_HOOKS: dict[str, CounterHook] = {
    "selection.select_halo": _selection_counts,
    "selection.select_hlo": _selection_counts,
    "selection.select_potentially_optimal": _selection_counts,
    "partitioning.divide_partition": _division_counts,
    "local_search.gate_local_search": _gate_counts,
    "local_search.coordinate_descent_minimize": _local_search_counts,
}


class SpanTracer:
    """Wraps ``halo`` callables with span recorders; see the module docstring."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._name = array("l")
        self._parent = array("l")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn: Callable, hook: Optional[CounterHook] = None) -> Callable:
        """Return ``fn`` wrapped so each call records one span called ``name``."""
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        names, parents, starts, ends = self._name, self._parent, self._start, self._end
        stack, counters, clock = self._stack, self.counters, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _durations(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (np.asarray(self._name, dtype=np.int64), np.asarray(self._parent, dtype=np.int64),
                np.asarray(self._end) - np.asarray(self._start))

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``total_s`` and ``self_s``."""
        name, parent, dur = self._durations()
        nested = parent >= 0
        own = dur - np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        self_s = np.bincount(name, weights=own, minlength=k)
        return {
            n: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(self_s[i])}
            for i, n in enumerate(self.names)
        }

    def root_s(self) -> float:
        """Time covered by spans that have no parent; the self times add up to it."""
        _, parent, dur = self._durations()
        return float(dur[parent < 0].sum())

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every public ``halo`` function, traced method and evaluator."""
        modules = {n: m for n, m in sys.modules.items() if n == "halo" or n.startswith("halo.")}
        wrapped: dict[int, Callable] = {}
        for mod_name, mod in modules.items():
            short = mod_name[len("halo."):]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod_name:
                    continue
                span = f"{short}.{attr}"
                wrapped[id(obj)] = self.wrap(span, obj, COUNTER_HOOKS.get(span))
        # rebind every global name, in every halo module, that resolves to a target
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrapped:
                    self._patch(mod, attr, wrapped[id(obj)])

        geometry = modules["halo.geometry"]
        for cls_name in TRACED_CLASSES:
            cls = getattr(geometry, cls_name)
            for attr, obj in list(vars(cls).items()):
                if not attr.startswith("_") and inspect.isfunction(obj):
                    self._patch(cls, attr, self.wrap(f"geometry.{cls_name}.{attr}", obj))

        handle_cls = geometry.ObjectiveHandle
        init = vars(handle_cls)["__init__"]
        tracer = self

        def traced_init(handle, *args, **kwargs):
            init(handle, *args, **kwargs)
            if not hasattr(handle.evaluator, "__wrapped__"):
                handle.evaluator = tracer.wrap(OBJECTIVE_SPAN, handle.evaluator)

        self._patch(handle_cls, "__init__", traced_init)

    def uninstall(self) -> None:
        """Put back every object ``install`` replaced, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "SpanTracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()
