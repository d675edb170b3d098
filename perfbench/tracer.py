"""Outside-in tracer for the embedmatch benchmark.

The tracer wraps public functions of the embedmatch modules from outside the
program: while it is installed, every module namespace that holds a traced
function (``from .model import predict`` binds a second name in ``attack``,
``metrics``, ``detector`` and ``train``) points at a wrapper that records one
span per call.  Spans stay in memory, each with the index of the span that was
open when it started, and are folded into per-name tables only when asked:
inclusive time, self time (inclusive time minus the time covered by child
spans) and call counts.
"""

from __future__ import annotations

import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._span_name = array("i")
        self._span_parent = array("i")
        self._span_start = array("d")
        self._span_end = array("d")
        self._open: list[int] = []
        self.counts: dict[str, int] = {}
        self._targets: list[tuple[object, str, str, str]] = []

    # -- what to trace ------------------------------------------------------

    def span(self, owner, attr: str, name: str) -> None:
        """Trace ``owner.attr`` under ``name``.

        For a module owner, every embedmatch namespace that binds the same
        function object is patched; for a class owner, the class attribute.
        """
        self._targets.append((owner, attr, "span", name))

    def span_by_op(self, cls, attr: str, prefix: str) -> None:
        """Trace a ``Tape.apply``-style method under ``prefix.<op>``."""
        self._targets.append((cls, attr, "by_op", prefix))

    def count(self, cls, attr: str, name: str) -> None:
        """Count calls of a method into ``counts[name]`` without spans."""
        self._targets.append((cls, attr, "count", name))

    # -- spans --------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, fn, name: str):
        nid = self._name_id(name)
        names, parents = self._span_name, self._span_parent
        starts, ends, open_ = self._span_start, self._span_end, self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(open_[-1] if open_ else -1)
            starts.append(0.0)
            ends.append(0.0)
            open_.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                open_.pop()

        return traced

    def _wrap_by_op(self, fn, prefix: str):
        wrappers: dict[str, object] = {}

        def traced(tape, op, *args, **kwargs):
            w = wrappers.get(op)
            if w is None:
                w = wrappers[op] = self._wrap(fn, f"{prefix}.{op}")
            return w(tape, op, *args, **kwargs)

        return traced

    def _wrap_counter(self, fn, name: str):
        counts = self.counts
        counts.setdefault(name, 0)

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    @contextmanager
    def installed(self):
        """Patch every target for the duration of the block, then restore."""
        wrap = {"span": self._wrap, "by_op": self._wrap_by_op, "count": self._wrap_counter}
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "embedmatch" or n.startswith("embedmatch."))]
        patches: list[tuple[object, str, object]] = []
        try:
            for owner, attr, kind, name in self._targets:
                original = owner.__dict__[attr]
                wrapper = wrap[kind](original, name)
                if isinstance(owner, type):
                    holders = [(owner, attr)]
                else:
                    holders = [(mod, key) for mod in modules
                               for key, value in vars(mod).items() if value is original]
                for holder, key in holders:
                    patches.append((holder, key, original))
                    setattr(holder, key, wrapper)
            yield self
        finally:
            for holder, key, original in reversed(patches):
                setattr(holder, key, original)

    # -- results ------------------------------------------------------------

    def table(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        if self._open:
            raise RuntimeError("table() called while spans are still open")
        name = np.array(self._span_name, dtype=np.int64)
        parent = np.array(self._span_parent, dtype=np.int64)
        dur = np.array(self._span_end) - np.array(self._span_start)
        n = len(dur)
        child = np.zeros(n)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        incl = np.bincount(name, weights=dur, minlength=k)
        self_s = np.bincount(name, weights=dur - child, minlength=k)
        return {nm: {"calls": int(calls[i]), "incl_s": float(incl[i]), "self_s": float(self_s[i])}
                for i, nm in enumerate(self.names)}
