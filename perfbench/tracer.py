"""Outside-in instrumentation: wrap module and class attributes of the
program at run time, so no program file changes.

``Patches`` installs and removes wrappers. ``Tracer`` records spans (name,
start, end, parent) in memory around calls into each layer and derives self
time, i.e. a span's duration minus the time its child spans cover. Calls are
single-threaded, so child spans nest strictly inside their parent.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict


class Patches:
    """Replace attributes and restore them in reverse order."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def wrap(self, owner, attr: str, make_wrapper) -> bool:
        """Replace ``owner.attr`` (defined on ``owner`` itself) by
        ``make_wrapper(original)``. A name that no longer exists is recorded
        in ``missing`` and left alone."""
        orig = vars(owner).get(attr)
        if orig is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return False
        setattr(owner, attr, functools.wraps(orig)(make_wrapper(orig)))
        self._undo.append((owner, attr, orig))
        return True

    def restore(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []      # [name, start, end, parent index or -1]
        self.counts: dict[str, int] = defaultdict(int)
        self._open: list[int] = []

    def enter(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, self.clock(), None, self._open[-1] if self._open else -1])
        self._open.append(idx)
        return idx

    def exit(self, idx: int) -> None:
        self.spans[idx][2] = self.clock()
        self._open.pop()

    def timed(self, name: str, fn, after=None):
        """``fn`` wrapped in a span; ``after(result)`` runs outside the span."""
        def call(*args, **kwargs):
            idx = self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(idx)
            if after is not None:
                after(result)
            return result
        return call

    def _closed(self, intervals):
        """Closed spans lying inside one of ``intervals`` (all if None)."""
        for i, s in enumerate(self.spans):
            if s[2] is not None and (intervals is None
                                     or any(a <= s[1] and s[2] <= b for a, b in intervals)):
                yield i, s

    def self_times(self, intervals=None) -> dict[str, float]:
        """Seconds of self time per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0 and end is not None:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _) in self._closed(intervals):
            out[name] += (end - start) - child[i]
        return out

    def totals(self, intervals=None) -> dict[str, tuple[float, int]]:
        """(inclusive seconds, call count) per span name."""
        out: dict[str, list] = defaultdict(lambda: [0.0, 0])
        for _, (name, start, end, _) in self._closed(intervals):
            out[name][0] += end - start
            out[name][1] += 1
        return {k: (v[0], v[1]) for k, v in out.items()}

    def coverage(self, intervals) -> float:
        """Share of the intervals' time covered by top-level spans."""
        span = sum(b - a for a, b in intervals)
        roots = sum(s[2] - s[1] for _, s in self._closed(intervals) if s[3] < 0)
        return roots / span if span > 0 else 0.0

    def dump(self) -> dict:
        names = sorted({s[0] for s in self.spans})
        code = {n: k for k, n in enumerate(names)}
        return {
            "names": names,
            "spans": [[code[n], s, e, p] for n, s, e, p in self.spans],
            "counts": dict(self.counts),
        }


BACKWARD_OPS = ("bilinear_flat", "matmul", "mul", "take_rows", "sum", "gelu", "layernorm",
                "add", "softmax", "weighted_values", "getitem", "stack")


def backward_op(fn) -> str:
    """Op that recorded a backward closure, from the closure's qualified
    name: ``_bilinear_flat.<locals>.bwd`` -> ``bilinear_flat``."""
    return fn.__qualname__.rsplit(".<locals>.", 1)[0].rsplit(".", 1)[-1].strip("_")


def trace_tape(patches: Patches, tracer: Tracer, tape_cls) -> None:
    """Count tape entries and time each backward closure, grouped by op."""
    def make(record):
        def traced_record(tape, out, fn):
            op = backward_op(fn)
            tracer.counts["tape_entries"] += 1
            if op == "getitem":
                tracer.counts["tape_getitem"] += 1
            group = op if op in BACKWARD_OPS else "other"
            record(tape, out, tracer.timed(f"diffcore.backward.{group}", fn))
        return traced_record
    patches.wrap(tape_cls, "record", make)
