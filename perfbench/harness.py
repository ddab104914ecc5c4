"""Measurement helpers shared by the workloads.

* :class:`Tracer` — in-memory spans (name, start, end, parent, trace id)
  recorded around calls into the program's public functions, written
  out once at the end of a traced run;
* :func:`self_times` — a span's duration minus the part of its interval
  covered by its children (overlapping children are merged first);
* :func:`tail_percentile` — the highest percentile of a ladder that
  leaves at least ten samples beyond it;
* process-tree peak RSS from ``/proc``, seed derivation and quantiles.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

import numpy as np

#: Percentiles tried, highest first, by :func:`tail_percentile`.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 80.0, 75.0)
#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10


def derive_seed(seed: int, *keys: int) -> int:
    """A 32-bit seed owned by ``keys`` under the run seed ``seed``.

    Distinct keys give unrelated seeds, so no two operations of a run
    (or of two runs with different seeds) share a capture schedule.
    """
    sequence = np.random.SeedSequence(entropy=seed, spawn_key=tuple(keys))
    return int(sequence.generate_state(1)[0])


def usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) or 1


def beyond(n: int, p: float) -> int:
    """Samples lying beyond percentile ``p`` of ``n`` samples."""
    return int(np.floor(n * (1.0 - p / 100.0) + 1e-9))


def tail_percentile(n: int) -> tuple[float, int] | None:
    """Highest ``TAIL_LADDER`` percentile with at least ``MIN_BEYOND`` samples beyond it.

    Returns ``(percentile, samples beyond)`` or ``None`` when even the
    lowest rung leaves fewer than ``MIN_BEYOND`` samples.
    """
    for p in TAIL_LADDER:
        if beyond(n, p) >= MIN_BEYOND:
            return p, beyond(n, p)
    return None


def pct(values: Sequence[float], p: float) -> float:
    """Linear-interpolated percentile; 0.0 for an empty sample."""
    if not len(values):
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=float), p))


def f_score(tp: int, fp: int, fn: int) -> float:
    """Harmonic mean of precision and recall (1.0 when nothing to find)."""
    if tp == 0:
        return 1.0 if fp == 0 and fn == 0 else 0.0
    return 2.0 * tp / (2.0 * tp + fp + fn)


# ----------------------------------------------------------------------
# Process memory
# ----------------------------------------------------------------------

def _status_kb(pid: int, key: str) -> int:
    try:
        text = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0
    for line in text.splitlines():
        if line.startswith(key + ":"):
            return int(line.split()[1])
    return 0


def child_pids(pid: int) -> list[int]:
    """Direct children of ``pid`` (all threads' children lists)."""
    out: list[int] = []
    task_dir = Path(f"/proc/{pid}/task")
    try:
        tasks = list(task_dir.iterdir())
    except OSError:
        return out
    for task in tasks:
        try:
            out += [int(c) for c in (task / "children").read_text().split()]
        except OSError:
            continue
    return sorted(set(out))


def tree_peak_rss_mb(pid: int) -> float:
    """Sum of peak RSS (VmHWM) over ``pid`` and its living descendants.

    Shared pages (numpy, shared-memory segments) count once per process
    that touched them, so this bounds the tree's footprint from above.
    """
    total = 0
    stack = [pid]
    seen: set[int] = set()
    while stack:
        current = stack.pop()
        if current in seen:
            continue
        seen.add(current)
        total += _status_kb(current, "VmHWM")
        stack += child_pids(current)
    return total / 1024.0


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------

@dataclass
class Span:
    span_id: int
    parent: int | None
    trace: int
    name: str
    start: float
    end: float = 0.0
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Single-threaded span recorder; spans stay in memory until dumped."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.trace = 0

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """A span under the innermost open one, in the current ``trace``."""
        parent = self._stack[-1] if self._stack else None
        record = Span(
            span_id=len(self.spans),
            parent=None if parent is None else parent.span_id,
            trace=self.trace,
            name=name,
            start=time.perf_counter(),
        )
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, fn: Callable[..., Any], *args: Any,
             count: Callable[[Any], dict[str, float]] | None = None, **kwargs: Any) -> Any:
        """``fn(*args, **kwargs)`` inside a span; ``count`` maps the result to counts."""
        with self.span(name) as record:
            result = fn(*args, **kwargs)
        if count is not None:
            record.counts.update(count(result))
        return result

    @contextlib.contextmanager
    def wrap(self, owner: Any, attr: str, name: str,
             count: Callable[[Any], dict[str, float]] | None = None) -> Iterator[None]:
        """Record a span around every call of ``owner.attr`` while active.

        ``owner`` is an instance or a module; the original attribute is
        restored on exit.  Nothing in the program changes: the wrapper
        sits where the program looks the callable up.
        """
        original = getattr(owner, attr)
        raw = vars(owner).get(attr)  # the descriptor itself (classmethod, function)

        def traced(*args: Any, **kwargs: Any) -> Any:
            return self.call(name, original, *args, count=count, **kwargs)

        setattr(owner, attr, traced)
        try:
            yield
        finally:
            if raw is not None:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)

    def dump(self, path: Path) -> None:
        """Write every span, one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for s in self.spans:
                out.write(json.dumps({
                    "id": s.span_id, "parent": s.parent, "trace": s.trace,
                    "name": s.name, "start": s.start, "end": s.end,
                    "counts": s.counts,
                }) + "\n")


def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Per span: duration minus the union of its children's intervals.

    Children are clipped to the parent's interval and merged where they
    overlap, so concurrent children are not subtracted twice.
    """
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out: dict[int, float] = {}
    for s in spans:
        intervals = sorted(
            (max(c.start, s.start), min(c.end, s.end))
            for c in children.get(s.span_id, [])
        )
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in intervals:
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
        out[s.span_id] = s.duration - covered
    return out


@dataclass
class LayerTotals:
    """Per span name: self time, call count and summed counts."""

    self_s: float = 0.0
    calls: int = 0
    durations: list[float] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)


def layer_totals(spans: Sequence[Span]) -> dict[str, LayerTotals]:
    selfs = self_times(spans)
    out: dict[str, LayerTotals] = {}
    for s in spans:
        totals = out.setdefault(s.name, LayerTotals())
        totals.self_s += selfs[s.span_id]
        totals.calls += 1
        totals.durations.append(s.duration)
        for key, value in s.counts.items():
            totals.counts[key] = totals.counts.get(key, 0.0) + value
    return out
