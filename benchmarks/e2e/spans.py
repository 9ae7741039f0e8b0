"""The benchmark's own span recorder.

The traced run wraps every call the benchmark makes into a layer of the
program in a span (name, start, end, parent, one id per operation) and
adopts the spans the program's tracer emits underneath them, so one tree
covers an operation from the bench's call down to the engine's phases.
Spans stay in memory; :meth:`SpanRecorder.write_jsonl` dumps them at exit.

A span's *self time* is its duration minus the part its children cover,
so self times of all spans sum to the roots' durations with nothing
counted twice.  The recorder owns no program code: it is the measuring
instrument and must keep working when the program's own tracer changes.
"""

from __future__ import annotations

import json
import time


class _Open:
    """Context manager closing one recorder span on exit."""

    __slots__ = ("_recorder", "_span")

    def __init__(self, recorder, span):
        self._recorder = recorder
        self._span = span

    def __enter__(self):
        return self._span

    def __exit__(self, *exc):
        self._span["end"] = time.perf_counter()
        self._recorder._stack.pop()
        return False


class SpanRecorder:
    """Flat list of spans with parent links; ``op`` groups an operation."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.op = 0

    def span(self, name):
        parent = self._stack[-1]["id"] if self._stack else None
        span = {
            "id": len(self.spans),
            "parent": parent,
            "op": self.op,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(span)
        self._stack.append(span)
        return _Open(self, span)

    def adopt(self, roots, epoch, parent):
        """Graft the program tracer's span trees under bench span ``parent``.

        ``roots`` are objects with ``name``, ``start_wall_s``,
        ``end_wall_s`` and ``children`` (times relative to ``epoch``, the
        ``perf_counter`` reading when their tracer was created).
        """
        todo = [(root, parent["id"]) for root in roots]
        while todo:
            source, parent_id = todo.pop()
            span = {
                "id": len(self.spans),
                "parent": parent_id,
                "op": parent["op"],
                "name": source.name,
                "start": epoch + source.start_wall_s,
                "end": epoch + source.end_wall_s,
            }
            self.spans.append(span)
            todo.extend((child, span["id"]) for child in source.children)

    def self_times(self):
        """Exclusive seconds per span name, and the span count per name."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                covered[span["parent"]] += span["end"] - span["start"]
        seconds, counts = {}, {}
        for span, child_s in zip(self.spans, covered):
            own = max(span["end"] - span["start"] - child_s, 0.0)
            seconds[span["name"]] = seconds.get(span["name"], 0.0) + own
            counts[span["name"]] = counts.get(span["name"], 0) + 1
        return seconds, counts

    def nesting_problems(self, slack_s=1e-4):
        """Violations of the tree shape (empty list = sound): every span
        closed, every child inside its parent's interval and operation.

        Adopted spans are placed from a separately read epoch, so the
        interval check allows ``slack_s`` of misalignment."""
        problems = []
        for span in self.spans:
            if span["end"] is None:
                problems.append(f"span {span['id']} ({span['name']}) never closed")
                continue
            if span["end"] < span["start"]:
                problems.append(f"span {span['id']} ({span['name']}) ends before it starts")
            if span["parent"] is None:
                continue
            parent = self.spans[span["parent"]]
            if parent["end"] is None:
                continue
            if (
                span["start"] < parent["start"] - slack_s
                or span["end"] > parent["end"] + slack_s
            ):
                problems.append(
                    f"span {span['id']} ({span['name']}) escapes parent "
                    f"{parent['id']} ({parent['name']})"
                )
            if span["op"] != parent["op"]:
                problems.append(
                    f"span {span['id']} ({span['name']}) changes operation id"
                )
        return problems

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, sort_keys=True) + "\n")
