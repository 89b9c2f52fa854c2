"""Shared pieces of the benchmark: statistics, spans, result records.

Everything here is measured from outside the program: the benchmark
calls the repository's public entry points and, in a traced run, wraps
the functions a layer exposes (looked up in the namespace of the module
that calls them) with spans recorded by :class:`Spans`. Nothing inside
``src/`` is changed or instrumented.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import json
import math
import pathlib
import resource
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
#: Where a run writes its full report (and, traced, its spans).
OUT_DIR = ROOT / ".perfbench"

clock = time.perf_counter
#: CPU seconds of this process (all its threads).
cpu_clock = time.process_time


# --- statistics ------------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 1]."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 0.5)


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def src_lines() -> int:
    """Non-blank source lines under ``src/repro``."""
    total = 0
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        with open(path, encoding="utf-8") as handle:
            total += sum(1 for line in handle if line.strip())
    return total


def hit_rate_since(stats: Any, hits: int, misses: int) -> float:
    """Plan-cache hit rate of the lookups since ``hits``/``misses``."""
    lookups = stats.hits - hits + stats.misses - misses
    return (stats.hits - hits) / lookups if lookups else 0.0


def timed_setup(
    setup: Callable[[], Any],
    repeats: int,
    speed: Any,
    discard: Optional[Callable[[Any], None]] = None,
) -> Tuple[Any, float]:
    """Run a cold ``setup`` ``repeats`` times; keep the last result
    (passing each earlier one to ``discard``) and return it with the
    median duration, each normalized by ``speed`` (a
    :class:`calibrate.HostSpeed` on :data:`clock`)."""
    durations = []
    result = None
    speed.mark()
    for index in range(repeats):
        start = clock()
        result = setup()
        elapsed = clock() - start
        speed.mark()
        durations.append(speed.normalize(elapsed))
        if discard is not None and index < repeats - 1:
            discard(result)
    return result, median(durations)


# --- results ---------------------------------------------------------------------


@dataclasses.dataclass
class Outcome:
    """What one workload run measured.

    ``metrics`` maps an end-to-end metric name to its value (units are
    declared once, in ``BENCHMARK.json``); ``report`` is the run's full
    detail (per-model rows, pool rows, samples), written to
    :data:`OUT_DIR` next to the spans.
    """

    attempted: int = 0
    failed: int = 0
    problems: List[str] = dataclasses.field(default_factory=list)
    metrics: Dict[str, float] = dataclasses.field(default_factory=dict)
    report: Dict[str, Any] = dataclasses.field(default_factory=dict)

    def check(self, ok: bool, what: str) -> None:
        """Count one checked operation; remember what failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)

    def put(self, name: str, value: float) -> None:
        self.metrics[name] = float(value)


# --- spans -----------------------------------------------------------------------


def maybe_span(spans: Optional["Spans"], name: str, op: Optional[int] = None):
    """``spans.span(name, op)``, or nothing in an untraced run."""
    return contextlib.nullcontext() if spans is None else spans.span(name, op)


@dataclasses.dataclass(frozen=True)
class Span:
    id: int
    parent: Optional[int]
    op: Optional[int]       # spans of one operation share this id
    name: str
    start: float
    end: float


class Spans:
    """In-memory span recorder with per-thread nesting.

    A span's parent is the innermost open span on the same thread; its
    operation id is inherited from the parent unless given. ``patch``
    wraps a function attribute so every call records a span; ``restore``
    undoes every patch. Spans are kept in memory and written by
    :meth:`dump` when the run ends.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any]] = []

    def _stack(self) -> List[Tuple[int, Optional[int]]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, op: Optional[int] = None) -> Iterator[int]:
        stack = self._stack()
        parent, parent_op = stack[-1] if stack else (None, None)
        span_id = next(self._ids)
        op = parent_op if op is None else op
        stack.append((span_id, op))
        start = clock()
        try:
            yield span_id
        finally:
            end = clock()
            stack.pop()
            self.spans.append(Span(span_id, parent, op, name, start, end))

    def add(
        self,
        name: str,
        start: float,
        end: float,
        op: Optional[int] = None,
        parent: Optional[int] = None,
    ) -> int:
        """Record a span measured elsewhere (e.g. request timestamps)."""
        span_id = next(self._ids)
        self.spans.append(Span(span_id, parent, op, name, start, end))
        return span_id

    def replace(
        self, owner: Any, attr: str, make: Callable[[Any], Any]
    ) -> None:
        """Set ``owner.attr`` to ``make(original)`` until :meth:`restore`."""
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def patch(
        self,
        owner: Any,
        attr: str,
        name: str,
        before: Optional[Callable[..., None]] = None,
        after: Optional[Callable[..., None]] = None,
    ) -> None:
        """Wrap ``owner.attr`` so every call records span ``name``.

        ``before(*args, **kwargs)`` runs ahead of the span and
        ``after(result, *args, **kwargs)`` after it, both untimed.
        """

        def make(original: Callable[..., Any]) -> Callable[..., Any]:
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                if before is not None:
                    before(*args, **kwargs)
                with self.span(name):
                    result = original(*args, **kwargs)
                if after is not None:
                    after(result, *args, **kwargs)
                return result

            return wrapper

        self.replace(owner, attr, make)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def self_times(self, ops: Optional[set] = None) -> Dict[str, float]:
        """Seconds per span name of time not covered by child spans,
        over the spans of ``ops`` (all spans when ``None``)."""
        chosen = [s for s in self.spans if ops is None or s.op in ops]
        covered: Dict[int, float] = {}
        for span in chosen:
            if span.parent is not None:
                covered[span.parent] = (
                    covered.get(span.parent, 0.0) + span.end - span.start
                )
        totals: Dict[str, float] = {}
        for span in chosen:
            own = span.end - span.start - covered.get(span.id, 0.0)
            totals[span.name] = totals.get(span.name, 0.0) + own
        return totals

    def op_figures(self, root: str, ops: int) -> Dict[str, float]:
        """Wall seconds per operation whose root span is ``root``, and
        the part of it no child span covers."""
        wall = sum(s.end - s.start for s in self.spans if s.name == root)
        return {
            "trace.op_s": wall / ops,
            "trace.unattributed_s": self.self_times().get(root, 0.0) / ops,
        }

    def dump(self, path: pathlib.Path) -> None:
        origin = min((s.start for s in self.spans), default=0.0)
        rows = [
            {
                "id": s.id,
                "parent": s.parent,
                "op": s.op,
                "name": s.name,
                "start_s": s.start - origin,
                "end_s": s.end - origin,
            }
            for s in self.spans
        ]
        path.write_text(json.dumps(rows) + "\n")
