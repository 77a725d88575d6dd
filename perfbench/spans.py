"""Book-keeping for one workload run: spans, counts, operations and streams.

A span is ``[name, start, end, parent, op]``: ``name`` is a layer (the
``jacobi_spectra`` module the benchmark called into) or a ``bench.*`` span of
the benchmark's own loop, ``parent`` the index of the enclosing span (-1 for
none) and ``op`` the operation the work belongs to. Spans are kept in memory
and handed to the caller when the run ends. This module imports no numerics,
so the parent process stays small.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

LAYERS = ("betarand", "ensemble", "trieig", "polyroots", "spectra", "fmatrix")

GOLDEN = 0x9E3779B97F4A7C15
MASK64 = (1 << 64) - 1


def stream_seed(stream) -> int:
    """Seed of an RngStream from its public fields, as the library documents it."""
    return (stream.base_seed ^ (stream.stream_id * GOLDEN)) & MASK64


class OpFailure(Exception):
    """An operation raised inside a layer or failed one of its output checks."""

    def __init__(self, layer: str, message: str):
        super().__init__(f"{layer}: {message}")
        self.layer = layer


class _Span:
    __slots__ = ("run", "name", "op", "index", "parent", "start")

    def __init__(self, run: "UnitRun", name: str, op: int):
        self.run, self.name, self.op = run, name, op

    def __enter__(self):
        run = self.run
        if run.traced:
            self.parent = run.open_span
            self.index = len(run.spans)
            run.spans.append(None)
            run.open_span = self.index
            self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        run = self.run
        if run.traced:
            run.spans[self.index] = [self.name, self.start, time.perf_counter(),
                                     self.parent, self.op]
            run.open_span = self.parent
        if isinstance(exc, Exception) and not isinstance(exc, OpFailure):
            layer = self.name if self.name in LAYERS else "bench"
            raise OpFailure(layer, f"{type(exc).__name__}: {exc}") from exc
        return False


class UnitRun:
    """State of one workload run in one interpreter.

    ``traced`` turns span recording on; counts, failures, realization
    latencies and stream seeds are kept either way, because they are cheap
    and the untraced run reports failures too.
    """

    def __init__(self, base_stream, first_stream: int, traced: bool):
        self.base_stream = base_stream
        self.next_stream = first_stream
        self.traced = traced
        self.spans: list = []
        self.open_span = -1
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()
        self.attempted = 0
        self.trial_s: list[float] = []
        self.seeds: list[int] = []

    def stream(self):
        """Next substream of the run's single stream level; its seed is logged."""
        s = self.base_stream.substream(self.next_stream)
        self.next_stream += 1
        self.seeds.append(stream_seed(s))
        return s

    def span(self, name: str, op: int) -> _Span:
        """Context manager timing a call into layer ``name`` when traced.

        An exception escaping the block is re-raised as an OpFailure of that
        layer, so failures are attributed with tracing on or off.
        """
        return _Span(self, name, op)

    def operation(self, op: int, fn, *args, trial: bool = False):
        """Run one operation; count it, and count it failed if it raises.

        ``trial`` marks a realization, whose latency is recorded. Returns the
        operation's result, or None when it failed.
        """
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            with self.span("bench.trial" if trial else "bench.op", op):
                result = fn(*args)
        except OpFailure as failure:
            self.errors[failure.layer] += 1
            print(f"operation {op} failed: {failure}", file=sys.stderr)
            return None
        if trial:
            self.trial_s.append(time.perf_counter() - t0)
        return result


def check(ok: bool, layer: str, message: str) -> None:
    """Output check: raise an OpFailure attributed to ``layer`` unless ``ok``."""
    if not ok:
        raise OpFailure(layer, message)


def self_times(spans: list) -> dict[str, float]:
    """Seconds of self time per span name.

    A span's self time is its duration minus the time its children cover.
    Spans of one run are recorded by one thread, so children never overlap
    and their durations add up.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: Counter = Counter()
    for i, (name, start, end, _, _) in enumerate(spans):
        out[name] += (end - start) - child[i]
    return dict(out)
