"""Structured evaluation tracing: span trees over two clocks.

The engine's metrics answer *how much* work an evaluation did; they
cannot answer *where the time went*.  This module provides the span
tree behind the per-phase claims of the paper's evaluation (E1/E2
pruning, E5 layering): every phase of an evaluation —

    evaluate
      satisfiability          (building / simplifying the NFQs)
      layer
        round
          relevance_check     (evaluating the relevance queries)
          batch               (one concurrent dispatch, when the
                               scheduler is on — wraps its calls'
                               ``invocation`` spans, whose simulated
                               intervals legitimately overlap)
          invocation          (one service call, with attempt /
                               backoff / breaker / cache-hit events)
            push              (computing the pushed subquery)
      final_match             (conventional evaluation at the end)
        answer_maint          (serving the final match from the
                               maintained answer: dirty-subtree
                               re-matching + row splicing)

The serving layer (``repro.serve``) adds its own root above these:

    serve_round               (one QueryServer round: admission,
                               then the due refreshes)
      serve_refresh           (one subscription's refresh — wraps
                               the engine's ``evaluate`` tree when
                               the refresh actually ran the engine)
        group_pass            (one quiet probe — ``engine.is_quiet``,
                               the engine's layer loop stopped at the
                               first call it would invoke — taken by
                               the first due subscriber of a query
                               shape per document version; its twins
                               read the verdict.  The name is older
                               than the probe and stays because
                               ``benchmarks/e2e`` reads its own time)

— becomes a :class:`Span` carrying *wall-clock* timings (real CPU cost
of being lazy) and *simulated-clock* timings (the bus clock: service
latency, transfer, backoff), plus tags and point-in-time
:class:`SpanEvent` s (retry attempts, faults, breaker transitions).

Spans are delivered to a :class:`TraceSink` as they close (children
before parents, ids threading the tree back together).  Three sinks
ship with the system: :class:`InMemorySink` for tests and benchmarks,
:class:`JsonlSink` for offline analysis, and the implicit no-op path —
when no sink is configured the engine uses the shared
:data:`NULL_TRACER`, whose ``span()``/``event()`` do nothing, keeping
tracing near-zero-cost when disabled.
"""

from __future__ import annotations

import dataclasses
import json
import time
from typing import Any, Callable, Iterable, Optional, Protocol, TextIO, Union


# Canonical phase names, so the engine, the profile aggregation and the
# tests never drift on spelling.
EVALUATE = "evaluate"
SATISFIABILITY = "satisfiability"
LAYER = "layer"
ROUND = "round"
RELEVANCE_CHECK = "relevance_check"
GROUP_PASS = "group_pass"
COLUMN_PASS = "column_pass"
BATCH = "batch"
INVOCATION = "invocation"
PUSH = "push"
FINAL_MATCH = "final_match"
ANSWER_MAINT = "answer_maint"
SERVE_ROUND = "serve_round"
SERVE_REFRESH = "serve_refresh"

# Event names emitted by the service bus inside an ``invocation`` span.
EVENT_ATTEMPT = "attempt"
EVENT_FAULT = "fault"
EVENT_BACKOFF = "backoff"
EVENT_BREAKER_TRIP = "breaker_trip"
EVENT_SHORT_CIRCUIT = "breaker_short_circuit"
EVENT_CACHE_HIT = "cache_hit"


@dataclasses.dataclass
class SpanEvent:
    """A point-in-time annotation on a span (a retry, a breaker trip...)."""

    name: str
    wall_s: float
    sim_s: float
    tags: dict[str, Any] = dataclasses.field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "wall_s": self.wall_s,
            "sim_s": self.sim_s,
            "tags": dict(self.tags),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "SpanEvent":
        return cls(
            name=data["name"],
            wall_s=data["wall_s"],
            sim_s=data["sim_s"],
            tags=dict(data.get("tags") or {}),
        )


@dataclasses.dataclass
class Span:
    """One timed phase of an evaluation.

    Wall times are seconds relative to the tracer's epoch (so traces
    are small numbers and comparable across exports); simulated times
    are readings of the bus clock.
    """

    span_id: int
    parent_id: Optional[int]
    name: str
    start_wall_s: float
    start_sim_s: float
    end_wall_s: Optional[float] = None
    end_sim_s: Optional[float] = None
    tags: dict[str, Any] = dataclasses.field(default_factory=dict)
    events: list[SpanEvent] = dataclasses.field(default_factory=list)
    children: list["Span"] = dataclasses.field(default_factory=list)

    @property
    def wall_s(self) -> float:
        """Inclusive wall duration (0.0 while still open)."""
        if self.end_wall_s is None:
            return 0.0
        return self.end_wall_s - self.start_wall_s

    @property
    def sim_s(self) -> float:
        """Inclusive simulated duration (0.0 while still open)."""
        if self.end_sim_s is None:
            return 0.0
        return self.end_sim_s - self.start_sim_s

    def iter_subtree(self) -> Iterable["Span"]:
        yield self
        for child in self.children:
            yield from child.iter_subtree()

    def find_all(self, name: str) -> list["Span"]:
        """Every span named ``name`` in this subtree."""
        return [span for span in self.iter_subtree() if span.name == name]

    def event_names(self) -> list[str]:
        return [event.name for event in self.events]

    def to_dict(self) -> dict[str, Any]:
        """The flat (childless) JSONL representation of this span."""
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_wall_s": self.start_wall_s,
            "end_wall_s": self.end_wall_s,
            "start_sim_s": self.start_sim_s,
            "end_sim_s": self.end_sim_s,
            "tags": dict(self.tags),
            "events": [event.to_dict() for event in self.events],
        }

    def to_tree_dict(self) -> dict[str, Any]:
        """The nested representation (for round-trip comparisons)."""
        data = self.to_dict()
        data["children"] = [child.to_tree_dict() for child in self.children]
        return data

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Span":
        return cls(
            span_id=data["span_id"],
            parent_id=data.get("parent_id"),
            name=data["name"],
            start_wall_s=data["start_wall_s"],
            end_wall_s=data.get("end_wall_s"),
            start_sim_s=data["start_sim_s"],
            end_sim_s=data.get("end_sim_s"),
            tags=dict(data.get("tags") or {}),
            events=[SpanEvent.from_dict(e) for e in data.get("events") or []],
        )


class TraceSink(Protocol):
    """Receives every span as it closes (children close before parents)."""

    def on_span_end(self, span: Span) -> None:  # pragma: no cover - protocol
        ...


class InMemorySink:
    """Collects spans in memory — the sink for tests and benchmarks."""

    def __init__(self) -> None:
        self.spans: list[Span] = []

    def on_span_end(self, span: Span) -> None:
        self.spans.append(span)

    @property
    def roots(self) -> list[Span]:
        """Completed root spans (one per ``evaluate``), children attached."""
        return [span for span in self.spans if span.parent_id is None]

    def find_all(self, name: str) -> list[Span]:
        return [span for span in self.spans if span.name == name]

    def clear(self) -> None:
        self.spans.clear()


class JsonlSink:
    """Writes one JSON object per closed span to a line-oriented stream.

    Accepts a path (opened and owned, close with :meth:`close` or use
    as a context manager) or an already-open text stream (borrowed).
    """

    def __init__(self, target: Union[str, TextIO]) -> None:
        if isinstance(target, str):
            self._handle: TextIO = open(target, "w", encoding="utf-8")
            self._owns_handle = True
        else:
            self._handle = target
            self._owns_handle = False

    def on_span_end(self, span: Span) -> None:
        self._handle.write(json.dumps(span.to_dict(), sort_keys=True) + "\n")

    def close(self) -> None:
        self._handle.flush()
        if self._owns_handle:
            self._handle.close()

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class TeeSink:
    """Fans every span out to several sinks (e.g. memory + JSONL)."""

    def __init__(self, *sinks: TraceSink) -> None:
        self.sinks = list(sinks)

    def on_span_end(self, span: Span) -> None:
        for sink in self.sinks:
            sink.on_span_end(span)


def load_jsonl_spans(lines: Iterable[str]) -> list[Span]:
    """Rebuild the span trees from JSONL lines; returns the roots.

    The inverse of exporting through :class:`JsonlSink`:
    ``load_jsonl_spans(open(path))`` reconstructs exactly the trees an
    :class:`InMemorySink` would have held for the same run.
    """
    spans: dict[int, Span] = {}
    order: list[Span] = []
    for line in lines:
        line = line.strip()
        if not line:
            continue
        span = Span.from_dict(json.loads(line))
        spans[span.span_id] = span
        order.append(span)
    roots: list[Span] = []
    for span in order:
        if span.parent_id is None:
            roots.append(span)
        else:
            parent = spans.get(span.parent_id)
            if parent is None:
                roots.append(span)  # orphan: parent line missing/truncated
            else:
                parent.children.append(span)
    return roots


class _NullSpanContext:
    """The shared do-nothing context manager behind :data:`NULL_TRACER`."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_CONTEXT = _NullSpanContext()


class NullTracer:
    """The disabled tracer: every operation is a near-free no-op."""

    __slots__ = ()
    enabled = False

    def span(self, name: str, **tags: Any) -> _NullSpanContext:
        return _NULL_CONTEXT

    def event(self, name: str, **tags: Any) -> None:
        return None


NULL_TRACER = NullTracer()
"""Module-wide singleton used whenever tracing is off."""


class _SpanContext:
    """Context manager closing one span on exit."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, *exc: object) -> bool:
        self._tracer._end_span(self._span)
        return False


class Tracer:
    """Builds the span tree for one component (engine and bus share one).

    ``sim_clock`` supplies the simulated-seconds reading for span
    boundaries and events — the engine binds it to the bus clock so
    spans measure simulated service time alongside wall time.
    """

    enabled = True

    def __init__(
        self,
        sink: TraceSink,
        sim_clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.sink = sink
        self.sim_clock = sim_clock or (lambda: 0.0)
        self._epoch = time.perf_counter()
        self._next_id = 1
        self._stack: list[Span] = []

    def _now_wall(self) -> float:
        return time.perf_counter() - self._epoch

    def span(self, name: str, **tags: Any) -> _SpanContext:
        """Open a child of the current span (or a new root)."""
        parent = self._stack[-1] if self._stack else None
        span = Span(
            span_id=self._next_id,
            parent_id=parent.span_id if parent is not None else None,
            name=name,
            start_wall_s=self._now_wall(),
            start_sim_s=self.sim_clock(),
            tags=tags,
        )
        self._next_id += 1
        self._stack.append(span)
        return _SpanContext(self, span)

    def _end_span(self, span: Span) -> None:
        span.end_wall_s = self._now_wall()
        span.end_sim_s = self.sim_clock()
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        else:  # pragma: no cover - misuse guard (out-of-order exit)
            self._stack = [s for s in self._stack if s is not span]
        if self._stack:
            self._stack[-1].children.append(span)
        self.sink.on_span_end(span)

    def event(self, name: str, **tags: Any) -> None:
        """Attach a point event to the innermost open span (if any)."""
        if not self._stack:
            return
        self._stack[-1].events.append(
            SpanEvent(
                name=name,
                wall_s=self._now_wall(),
                sim_s=self.sim_clock(),
                tags=tags,
            )
        )

    @property
    def current(self) -> Optional[Span]:
        return self._stack[-1] if self._stack else None


AnyTracer = Union[Tracer, NullTracer]


def tracer_for(
    trace: Union[TraceSink, Tracer, NullTracer, None],
    sim_clock: Optional[Callable[[], float]] = None,
) -> AnyTracer:
    """Normalise a user-facing ``trace=`` argument into a tracer.

    Accepts ``None`` (tracing off), an existing tracer (reused so bus
    spans nest under engine spans), or a bare :class:`TraceSink` (a
    fresh :class:`Tracer` is wrapped around it).
    """
    if trace is None:
        return NULL_TRACER
    if isinstance(trace, (Tracer, NullTracer)):
        return trace
    return Tracer(trace, sim_clock=sim_clock)


def verify_nesting(root: Span) -> list[str]:
    """Structural soundness check used by tests and the CLI.

    Returns a list of violations (empty = sound): every span closed,
    every child's wall/simulated interval within its parent's, and
    every event within its span.
    """
    problems: list[str] = []
    eps = 1e-9
    for span in root.iter_subtree():
        if span.end_wall_s is None or span.end_sim_s is None:
            problems.append(f"span {span.span_id} ({span.name}) never closed")
            continue
        for child in span.children:
            if child.end_wall_s is None or child.end_sim_s is None:
                continue  # reported on its own visit
            if (
                child.start_wall_s < span.start_wall_s - eps
                or child.end_wall_s > span.end_wall_s + eps
            ):
                problems.append(
                    f"child {child.span_id} ({child.name}) wall interval "
                    f"escapes parent {span.span_id} ({span.name})"
                )
            if (
                child.start_sim_s < span.start_sim_s - eps
                or child.end_sim_s > span.end_sim_s + eps
            ):
                problems.append(
                    f"child {child.span_id} ({child.name}) simulated "
                    f"interval escapes parent {span.span_id} ({span.name})"
                )
        for event in span.events:
            if (
                event.wall_s < span.start_wall_s - eps
                or event.wall_s > span.end_wall_s + eps
            ):
                problems.append(
                    f"event {event.name!r} outside span "
                    f"{span.span_id} ({span.name})"
                )
    return problems
