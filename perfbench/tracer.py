"""Spans recorded from outside the program, by wrapping its public functions.

``Tracer.install`` replaces each hooked function with a wrapper in every
``slimrnn`` module that holds a reference to it (``from .cells import
step`` copies the reference, so patching the defining module alone would
miss most calls). Each call becomes a span: name, start, end and the span
that was open when it began. Spans live in compact in-memory arrays and are
only reduced to per-name tables when the benchmark ends.

A hook whose target no longer exists is reported in ``missing`` and
skipped; the layers it would have measured read as not measured, and the
untraced run is unaffected.

Self time is a span's duration minus the durations of its direct
children. The program is single-threaded, so children never overlap and
the self times of all spans under a root add up to the root's duration.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

# (module, function, span name). The modules are the program's layers.
HOOKS: tuple[tuple[str, str, str], ...] = (
    ("slimrnn.data", "load_dataset", "data.load"),
    ("slimrnn.data", "batches", "data.batches"),
    ("slimrnn.cells", "init_params", "cells.init"),
    ("slimrnn.cells", "step", "cells.step"),
    ("slimrnn.cells", "predict", "cells.predict"),
    ("slimrnn.linalg", "matvec", "linalg.matvec"),
    ("slimrnn.linalg", "matvec_transposed", "linalg.matvec_transposed"),
    ("slimrnn.bptt", "forward_sequence", "bptt.forward"),
    ("slimrnn.bptt", "backward_sequence", "bptt.backward"),
    ("slimrnn.bptt", "softmax_xent", "bptt.loss"),
    ("slimrnn.bptt", "batch_loss_and_grads", "bptt.batch"),
    ("slimrnn.optim", "rmsprop_step", "optim.rmsprop"),
    ("slimrnn.harness", "train", "harness.train"),
    ("slimrnn.harness", "evaluate", "harness.evaluate"),
    ("slimrnn.harness", "run_grid", "harness.run_grid"),
    ("slimrnn.gradcheck", "check_gradients", "gradcheck.config"),
    ("slimrnn.gradcheck", "check_all", "gradcheck.check_all"),
)


@dataclass(frozen=True)
class Row:
    calls: int
    total_s: float
    self_s: float


class Tracer:
    """Span recorder; one instance per traced phase."""

    def __init__(self, hooks: tuple[tuple[str, str, str], ...] = HOOKS, package: str = "slimrnn"):
        self.hooks = hooks
        self.package = package
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        self._cache = None

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def __len__(self) -> int:
        return len(self._name)

    def _wrap(self, fn, name: str):
        name_id = self._id(name)
        names, parents, starts, ends, stack = self._name, self._parent, self._start, self._end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap every hook target that exists; record the ones that do not."""
        self.missing = []
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == self.package or n.startswith(self.package + "."))]
        for module_name, fn_name, span in self.hooks:
            fn = getattr(sys.modules.get(module_name), fn_name, None)
            if not callable(fn):
                self.missing.append(f"{module_name}.{fn_name}")
                continue
            wrapped = self._wrap(fn, span)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapped)
                        self._patched.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(name id, parent index, duration, self time) of every span recorded so far."""
        if self._cache is None or len(self._cache[0]) != len(self._name):
            name = np.frombuffer(self._name, dtype=np.int32).astype(np.int64)
            parent = np.frombuffer(self._parent, dtype=np.int32).astype(np.int64)
            dur = np.frombuffer(self._end, dtype=np.float64) - np.frombuffer(self._start, dtype=np.float64)
            self._cache = (name, parent, dur, self_times(parent, dur))
        return self._cache

    def table(self, lo: int = 0, hi: int | None = None) -> dict[str, Row]:
        """Per-name calls, total and self seconds over spans with index in [lo, hi)."""
        name, _, dur, own = self.arrays()
        sl = slice(lo, len(name) if hi is None else hi)
        name, dur, own = name[sl], dur[sl], own[sl]
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        selfs = np.bincount(name, weights=own, minlength=k)
        return {n: Row(int(calls[i]), float(total[i]), float(selfs[i]))
                for i, n in enumerate(self.names) if calls[i]}

    def self_by_context(self, name: str, contexts: tuple[str, ...]) -> dict[str, float]:
        """Self seconds of spans called ``name``, keyed by their nearest ancestor in ``contexts``."""
        if name not in self._ids:
            return {c: 0.0 for c in contexts}
        names, parent, _, own = self.arrays()
        ctx = nearest_context(names, parent, [self._ids.get(c, -1) for c in contexts])
        hit = names == self._ids[name]
        return {c: float(own[hit & (ctx == i)].sum()) for i, c in enumerate(contexts)}


def self_times(parent: np.ndarray, dur: np.ndarray) -> np.ndarray:
    """Duration minus the summed durations of direct children, per span."""
    has_parent = parent >= 0
    children = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    return dur - children


def nearest_context(names: np.ndarray, parent: np.ndarray, context_ids: list[int]) -> np.ndarray:
    """Index into ``context_ids`` of each span's nearest context ancestor (or itself), else -1.

    Parents are always recorded before their children, so walking up one
    level per pass settles every span within the trace's depth.
    """
    ctx = np.full(len(names), -1, dtype=np.int64)
    for i, cid in enumerate(context_ids):
        ctx[names == cid] = i
    while True:
        open_ = (ctx < 0) & (parent >= 0)
        inherited = np.where(open_, ctx[np.where(parent >= 0, parent, 0)], ctx)
        if np.array_equal(inherited, ctx):
            return ctx
        ctx = inherited
