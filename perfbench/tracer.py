"""Spans around hulldial's public functions, installed from outside the package.

`Tracer.install()` replaces each traced function by a wrapper in every
hulldial module that binds it by name (``code``, ``dial`` and ``grs`` import
``rref``, ``rank``, ``hull`` and ``null_space`` at import time, so patching
the defining module alone would miss those calls).  The scalar `Field`
methods and the array methods are patched on the class.  `uninstall()`
puts every original back.

Each wrapped call is one span: name, start, end and the id of the span that
was open when it began.  Self time is the span's duration minus the time
its child spans cover; a single thread runs the program, so children nest
strictly and their coverage is the sum of their durations.  Per-pass totals
live in `stats`; spans of the first recorded pass are kept in memory and
written out by the caller when the benchmark ends.  Field calls are too many
and too short to keep one span each (a bigfield pass makes over half a million), so the
field layer is aggregated into `stats` only.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

perf = time.perf_counter

#: Spans kept in memory per recorded pass; later spans are counted as dropped.
SPAN_LIMIT = 300_000


def _rref_cells(t, args, result):
    t.stats["matrix.rref.cells"] += args[0].data.size


def _rank_beneath(t, args, result):
    if t.active["code.dual_min_distance"]:
        t.stats["code.dual_min_distance.subsets"] += 1
    if t.active["dial.arrange_p1_nonsingular"]:
        t.stats["dial.arrange_p1_nonsingular.rank_calls"] += 1


def _hull_beneath(t, args, result):
    if t.active["dial.reduce_hull"]:
        t.stats["dial.reduce_hull.hull_calls"] += 1


def _messages(t, args, result):
    c = args[0]
    t.stats["code.min_distance.messages"] += c.field.order**c.k - 1


def _solver(t, args, result):
    t.stats["grs.solve_multipliers.attempts"] += result.attempts
    t.stats["grs.solve_multipliers.null_dim"] += result.null_dim
    t.stats["grs.solve_multipliers.found"] += int(result.found)


def _records(t, args, result):
    t.stats["eaqec.eaqec_sweep.records"] += len(result)


def _rows(t, args, result):
    t.stats["eaqec.enumerate_table1.rows"] += len(result)


def _add_elems(t, args, result):
    t.stats["field.add_array.elems"] += np.size(result)


def _mul_elems(t, args, result):
    t.stats["field.mul_array.elems"] += np.size(result)


#: (layer name, defining module, attribute, hook run on each result).
FUNCTIONS = (
    ("matrix.rref", "matrix", "rref", _rref_cells),
    ("matrix.rank", "matrix", "rank", _rank_beneath),
    ("matrix.null_space", "matrix", "null_space", None),
    ("matrix.intersect_row_spaces", "matrix", "intersect_row_spaces", None),
    ("matrix.matmul", "matrix", "matmul", None),
    ("code.dual_min_distance", "code", "dual_min_distance", None),
    ("code.min_distance", "code", "min_distance", _messages),
    ("code.hull", "code", "hull", _hull_beneath),
    ("code.is_hermitian_self_orthogonal", "code", "is_hermitian_self_orthogonal", None),
    ("dial.dial_hull", "dial", "dial_hull", None),
    ("dial.arrange_p1_nonsingular", "dial", "arrange_p1_nonsingular", None),
    ("dial.reduce_hull", "dial", "reduce_hull", None),
    ("grs.solve_multipliers", "grs", "solve_multipliers", _solver),
    ("eaqec.eaqec_from_code", "eaqec", "eaqec_from_code", None),
    ("eaqec.eaqec_sweep", "eaqec", "eaqec_sweep", _records),
    ("eaqec.enumerate_table1", "eaqec", "enumerate_table1", _rows),
    ("cli.main", "cli", "main", None),
)

#: (layer name, Field method, hook).  All scalar operations share one layer.
FIELD_METHODS = (
    ("field.add_array", "add_array", _add_elems),
    ("field.mul_array", "mul_array", _mul_elems),
    ("field.scalar", "add", None),
    ("field.scalar", "mul", None),
    ("field.scalar", "neg", None),
    ("field.scalar", "inv", None),
    ("field.scalar", "pow", None),
)


class Tracer:
    """Records spans and per-layer totals while installed."""

    def __init__(self):
        self.stats: defaultdict[str, float] = defaultdict(float)
        self.active: defaultdict[str, int] = defaultdict(int)
        self.stack: list[list] = []  # open frames: [child time, span id]
        self.spans: list[tuple] = []  # (id, name, start, end, parent id)
        self.dropped = 0
        self.recording = False
        self._next_id = 0
        self._patches: list[tuple] = []

    def reset_pass(self, record: bool) -> None:
        """Start a pass: zero the totals; keep spans only when `record`."""
        self.stats = defaultdict(float)
        self.recording = record

    def _open(self, keep: bool) -> list:
        if keep and self.recording:
            span_id = self._next_id
            self._next_id += 1
        else:
            span_id = -1
        frame = [0.0, span_id]
        self.stack.append(frame)
        return frame

    def _close(self, layer: str, frame: list, start: float, end: float) -> None:
        self.stack.pop()
        dur = end - start
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[0] += dur
        if frame[1] >= 0:
            if len(self.spans) < SPAN_LIMIT:
                self.spans.append(
                    (frame[1], layer, start, end, parent[1] if parent is not None else -1)
                )
            else:
                self.dropped += 1
        stats = self.stats
        stats[layer + ".calls"] += 1
        stats[layer + ".total_s"] += dur
        stats[layer + ".self_s"] += dur - frame[0]

    def _wrap(self, layer: str, fn, hook, keep: bool):
        tracer = self
        active = self.active

        def traced(*args, **kwargs):
            frame = tracer._open(keep)
            active[layer] += 1
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                active[layer] -= 1
                tracer._close(layer, frame, start, end)
            if hook is not None:
                hook(tracer, args, result)
            return result

        return traced

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        frame = self._open(True)
        start = perf()
        try:
            yield
        finally:
            self._close(name, frame, start, perf())

    def install(self) -> None:
        from hulldial.field import Field

        modules = [
            m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "hulldial" or n.startswith("hulldial."))
        ]
        for layer, modname, attr, hook in FUNCTIONS:
            original = getattr(sys.modules.get("hulldial." + modname), attr, None)
            if original is None:  # a layer the library no longer has reports 0 calls
                continue
            wrapper = self._wrap(layer, original, hook, keep=True)
            for module in modules:
                if module.__dict__.get(attr) is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)
        for layer, attr, hook in FIELD_METHODS:
            original = Field.__dict__.get(attr)
            if original is None:
                continue
            self._patches.append((Field, attr, original))
            setattr(Field, attr, self._wrap(layer, original, hook, keep=False))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
