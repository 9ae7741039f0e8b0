"""E16 — the arena document store: columns vs objects at the million scale.

The arena (:mod:`repro.axml.arena`) stores the document a second time
as struct-of-arrays int columns; the group pass's descendant-candidate
enumeration, projection walk and index rebuild become tight loops over
those arrays.  The variant timed here is the *arena-scan rung* — the
object matcher with column scans under it (``PatternGroup(arena=...)``
without ``column_match``), which is what answers the evaluations the
column plan stands down on; E17 times the plan against it.  This experiment
holds the rewrite to its two claims:

* **Throughput** (the headline): on the ``large-document`` regime the
  arena-backed group pass must sustain >= 3x the object walk's
  node-throughput at the full 1M-node size (>= 2x at smoke sizes,
  where fixed costs weigh more) — with *identical* rows, which the
  sweep asserts per query before timing means anything.

* **Memory**: the seven columns plus the label table must cost <= 25%
  of the object graph's per-node bytes (``sys.getsizeof`` accounting
  on both sides).

The engine-level differential matrix (every lazy configuration
matches through the document's arena; rows against the naive oracle,
invocation logs against the object walk, every regime) lives in E17.

Tables land in ``BENCH_e16.json``; headline assertions are re-checked
against the emitted file so a broken emitter fails the bench.

Set ``E16_N`` (default 1000000) to shrink the scale regime for smoke
runs — the >= 3x claim and the 1M-node floor only arm at full size.
"""

import os
import sys
import time

from bench_harness import print_table, read_bench_json, run_once
from repro.axml.index import LabelIndex
from repro.pattern.match import MatchSet
from repro.pattern.multimatch import PatternGroup
from repro.pattern.parse import parse_pattern
from repro.workloads.factory import regime

E16_N = int(os.environ.get("E16_N", "1000000"))
FULL_SIZE = E16_N >= 1_000_000  # the 1M-node / >=3x claims arm here
MIN_SPEEDUP = 3.0 if FULL_SIZE else 2.0

# The large-document regime generates child-edge queries only
# (descendant steps at 1M nodes are this bench's own, so the column
# scans are exercised deliberately, not by the luck of a sample).
# Labels come from the factory's fixed alphabet; svc1 is one of its
# service names.
E16_QUERY_TEXTS = (
    "/root//alpha/beta/$x",
    '/root//gamma/"2"',
    "/root//svc1()",
)


def scale_workload():
    return regime("large-document", min_nodes=E16_N)


def row_keys(match_set):
    return sorted(MatchSet.row_key(row) for row in match_set)


# ---------------------------------------------------------------------------
# Headline: group-pass node-throughput, arena vs the object walk
# ---------------------------------------------------------------------------


def throughput_sweep():
    gen = scale_workload()
    document = gen.make_document(0)
    arena = document.arena
    assert arena is not None, "the scale regime builds on the arena path"
    nodes = arena.live_nodes
    index = LabelIndex(document, arena=arena)
    members = {
        text: parse_pattern(text, name=f"e16-{i}")
        for i, text in enumerate(E16_QUERY_TEXTS)
    }
    variants = (
        ("object-walk", PatternGroup(members)),
        ("indexed-walk", PatternGroup(members, index=index)),
        ("arena", PatternGroup(members, index=index, arena=arena)),
    )
    rows = []
    reference = None
    timings = {}
    for label, group in variants:
        started = time.perf_counter()
        result = group.evaluate(document)
        elapsed = time.perf_counter() - started
        keys = {text: row_keys(result.match_sets[text]) for text in members}
        if reference is None:
            reference = keys
        else:
            assert keys == reference, f"{label} changed the rows"
        timings[label] = elapsed
        rows.append(
            (
                label,
                nodes,
                len(members),
                sum(len(k) for k in keys.values()),
                round(elapsed, 3),
                round(nodes * len(members) / elapsed / 1000, 1),
                round(timings["object-walk"] / elapsed, 2),
            )
        )
    index.detach()
    return rows


def test_e16_throughput(benchmark, capsys):
    rows = run_once(benchmark, throughput_sweep)
    with capsys.disabled():
        print_table(
            "E16: group-pass node-throughput — arena vs object walk"
            f" (large-document, N={E16_N})",
            [
                "variant",
                "nodes",
                "queries",
                "rows",
                "s",
                "knodes_per_s",
                "speedup",
            ],
            rows,
            note=(
                "identical rows per query asserted before timing; "
                f"arena must clear {MIN_SPEEDUP}x over the object walk"
            ),
        )
    by_variant = {row[0]: row for row in rows}
    if FULL_SIZE:
        assert by_variant["arena"][1] >= 1_000_000
    # Every variant returned the same number of rows (full equality is
    # asserted inside the sweep, per query).
    assert len({row[3] for row in rows}) == 1
    assert by_variant["arena"][6] >= MIN_SPEEDUP, rows
    # The emitted file must carry the same verdict.
    data = read_bench_json("e16")
    table = next(
        body
        for title, body in data["tables"].items()
        if title.startswith("E16: group-pass")
    )
    emitted = {r[0]: r for r in table["rows"]}
    assert emitted["arena"][6] >= MIN_SPEEDUP


# ---------------------------------------------------------------------------
# Memory: columns vs the object graph
# ---------------------------------------------------------------------------


def object_graph_bytes(document):
    """``sys.getsizeof`` accounting of the object tree's per-node cost:
    the ``Node`` itself plus its children list (labels excluded on both
    sides' shared strings; the arena side *includes* its label table,
    which is its whole per-label cost)."""
    total = 0
    for node in document.iter_nodes():
        total += sys.getsizeof(node)
        total += sys.getsizeof(node.children)
    return total


def memory_sweep():
    gen = regime("large-document", min_nodes=min(E16_N, 200_000))
    document = gen.make_document(0)
    arena = document.arena
    nodes = arena.live_nodes
    arena_bytes = arena.column_bytes()
    object_bytes = object_graph_bytes(document)
    return [
        (
            nodes,
            object_bytes,
            round(object_bytes / nodes, 1),
            arena_bytes,
            round(arena_bytes / nodes, 1),
            round(arena_bytes / object_bytes, 4),
        )
    ]


def test_e16_memory(benchmark, capsys):
    rows = run_once(benchmark, memory_sweep)
    with capsys.disabled():
        print_table(
            "E16: arena memory — column bytes vs the object graph",
            [
                "nodes",
                "object_bytes",
                "obj_b_per_node",
                "arena_bytes",
                "arena_b_per_node",
                "ratio",
            ],
            rows,
            note="the columns must cost <= 25% of the object graph",
        )
    assert rows[0][5] <= 0.25, rows
    data = read_bench_json("e16")
    table = next(
        body
        for title, body in data["tables"].items()
        if title.startswith("E16: arena memory")
    )
    assert table["rows"][0][5] <= 0.25

