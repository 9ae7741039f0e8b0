"""Shared harness for the experiment benchmarks.

Every ``bench_e*.py`` file regenerates one table/figure of the paper's
evaluation (reconstructed — see DESIGN.md §4 and EXPERIMENTS.md): it
prints the series the paper reports, asserts the qualitative claim
(who wins, how the gap moves), and exposes pytest-benchmark timings.
Run with::

    pytest benchmarks/ --benchmark-only -s

Besides the printed tables, every experiment emits a machine-readable
``BENCH_<name>.json`` at the repository root (``print_table`` routes
through :func:`emit_bench_json`; the experiment tag is read off the
table title).  CI and the benches themselves assert against these
files via :func:`read_bench_json`.
"""

from __future__ import annotations

import json
import re
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

try:  # stdlib on POSIX; absent on some platforms
    import resource
except ImportError:  # pragma: no cover - non-POSIX fallback
    resource = None

from repro.axml.document import Document
from repro.lazy.config import EngineConfig
from repro.lazy.engine import LazyQueryEvaluator, _EvaluationState
from repro.lazy.incremental import RelevanceStore

#: Repository root — the ``BENCH_<name>.json`` files land here.
REPO_ROOT = Path(__file__).resolve().parent.parent

# Profile mode (see conftest.py): when a sink is installed here, every
# evaluate_workload() call is traced into it and the conftest prints an
# aggregate per-phase breakdown at session end.
_trace_state = {"sink": None, "collector": None}


def enable_trace(sink, collector):
    """Route every ``evaluate_workload()`` through *sink* (profile mode)."""
    _trace_state["sink"] = sink
    _trace_state["collector"] = collector


def trace_collector():
    """The shared in-memory collector, or None when profiling is off."""
    return _trace_state["collector"]


def object_walk():
    """Context manager: engines built inside run on the reference
    object walk (no document hands out an arena) — the oracle the
    matrices pin invocation logs to.  Not a configuration: the program
    has no switch for it."""
    return mock.patch.object(Document, "arena", None)


def full_relevance():
    """Context manager: every relevance retrieval re-matches the whole
    document — the reference per-scope upkeep is held to (the store
    judges every entry "only a whole pass will do").  A patch, like
    :func:`object_walk`: relevance upkeep has no switch."""
    return mock.patch.object(
        RelevanceStore, "_stale_scopes", lambda self, entry, most, outer: None
    )


def isolated_relevance():
    """Context manager: every ``RelevanceStore.of`` hands out a private
    store, so each engine run seeds its own and drops it and nothing
    crosses consumers — relevance state as it was before the document
    owned it.  A patch, like :func:`full_relevance`."""
    return mock.patch.object(
        RelevanceStore, "of", classmethod(lambda cls, document: cls(document))
    )


def just_in_case():
    """Context manager: every round fires every relevant call — Section
    4.4's closing remark ("calling functions in parallel just in case"),
    the bet E8 prices against the exact rounds.  A patch on the engine's
    one round decision, like :func:`full_relevance`: the program has no
    switch for it.  Under ``use_layers=False`` a run is one pseudo-layer
    fired whole each round."""
    return mock.patch.object(
        _EvaluationState,
        "_choose",
        lambda self, layer, relevant: (set(relevant), "just-in-case", None),
    )


def stand_downs(reason_counts):
    """``{"result-in-or": 3}`` -> ``"result-in-or:3"`` (``"-"`` when
    empty), for a table cell."""
    return ",".join(
        f"{reason}:{count}" for reason, count in sorted(reason_counts.items())
    ) or "-"


def expect_stand_downs(regime_name, reason_counts):
    """The matrices' bar: no evaluation stands down, in any regime.
    (The one reason an NFQ family can have, an interior data wildcard,
    needs a ``*[...]`` step; the factory's query mix has none.)"""
    assert reason_counts == {}, (regime_name, reason_counts)


def bindings_replies(bus):
    """How many replies on the bus log came back as binding tuples."""
    return sum(1 for record in bus.log.records if record.returned_bindings)


def evaluate_workload(workload, query=None, network=None, **config_kwargs):
    """One full evaluation over a fresh document; returns (outcome, bus)."""
    bus = workload.make_bus(network=network)
    if _trace_state["sink"] is not None:
        config_kwargs.setdefault("trace", _trace_state["sink"])
    engine = LazyQueryEvaluator(
        bus, schema=workload.schema, config=EngineConfig(**config_kwargs)
    )
    outcome = engine.evaluate(query or workload.query, workload.make_document())
    return outcome, bus


def run_once(benchmark, fn):
    """Run an expensive sweep exactly once under the benchmark fixture."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)


def print_table(title, headers, rows, note=None, bench=None):
    """Aligned plain-text experiment table.

    Also records the table into ``BENCH_<bench>.json`` (see
    :func:`emit_bench_json`).  *bench* defaults to the experiment tag
    parsed from the title (``"E11: ..."`` → ``e11``).
    """
    widths = [len(h) for h in headers]
    text_rows = [[_fmt(cell) for cell in row] for row in rows]
    for row in text_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    print()
    print(f"== {title} ==")
    print(line)
    print("-" * len(line))
    for row in text_rows:
        print("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
    if note:
        print(f"({note})")
    if bench is None:
        tag = re.match(r"E(\d+)", title)
        bench = f"e{tag.group(1)}" if tag else None
    if bench is not None:
        emit_bench_json(bench, title, headers, rows, note=note)


def bench_json_path(bench):
    """Where ``BENCH_<bench>.json`` lives (repo root)."""
    return REPO_ROOT / f"BENCH_{bench}.json"


def peak_memory_kb():
    """This process's peak memory so far, in KiB (always >= 1).

    Prefers the OS high-water mark (``ru_maxrss``: KiB on Linux, bytes
    on macOS); falls back to tracemalloc's traced peak when the
    ``resource`` module is unavailable, so every ``BENCH_<name>.json``
    carries the figure on every platform.
    """
    if resource is not None:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if sys.platform == "darwin":  # pragma: no cover - linux CI
            peak //= 1024
        if peak > 0:
            return int(peak)
    if tracemalloc.is_tracing():  # pragma: no cover - resource exists on CI
        _, traced_peak = tracemalloc.get_traced_memory()
        return max(1, traced_peak // 1024)
    return 1  # pragma: no cover - no measurement source at all


def emit_bench_json(bench, table, headers, rows, note=None):
    """Merge one table into ``BENCH_<bench>.json`` at the repo root.

    The file maps table titles to ``{headers, rows, note}`` so every
    test of a bench module contributes to the same document; existing
    titles are overwritten, unknown ones kept.  Rows are JSON-native
    (numbers stay numbers) so downstream assertions — each bench's
    own re-read, the CI perf-smoke job — can consume them without
    re-parsing text.
    """
    path = bench_json_path(bench)
    payload = {"bench": bench, "tables": {}}
    if path.exists():
        try:
            existing = json.loads(path.read_text())
            if isinstance(existing.get("tables"), dict):
                payload["tables"] = existing["tables"]
        except (ValueError, OSError):
            pass  # corrupt or unreadable: rewrite from scratch
    payload["tables"][table] = {
        "headers": list(headers),
        "rows": [list(row) for row in rows],
        "note": note,
    }
    payload["peak_rss_kb"] = peak_memory_kb()
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def read_bench_json(bench):
    """Load ``BENCH_<bench>.json``; raises if missing or malformed."""
    payload = json.loads(bench_json_path(bench).read_text())
    if payload.get("bench") != bench or "tables" not in payload:
        raise ValueError(f"malformed BENCH_{bench}.json")
    peak = payload.get("peak_rss_kb")
    if not isinstance(peak, int) or peak <= 0:
        raise ValueError(f"BENCH_{bench}.json lacks a peak_rss_kb figure")
    return payload


def _fmt(cell):
    if isinstance(cell, float):
        return f"{cell:.3f}"
    return str(cell)
