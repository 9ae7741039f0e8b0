"""E16 — the arena document store: what the column mirror costs.

The arena (:mod:`repro.axml.arena`) stores the document a second time
as struct-of-arrays int columns, which compiled column plans
(:mod:`repro.pattern.columnmatch`) evaluate over; E17 times the plan
against the object walk and pins the engine-level differential matrix.
This experiment holds the mirror itself to its memory claim:

* **Memory**: the seven columns plus the label table must cost <= 25%
  of the object graph's per-node bytes (``sys.getsizeof`` accounting
  on both sides).

The mirror's *consistency* bar — columns equal to the tree after every
splice of a factory mutation trace — is the twin-document property of
``tests/test_arena.py`` and the end-to-end benchmark's
``arena.consistency_errors`` probe.

The throughput arm this bench used to carry timed the *arena-scan
rung* (the object matcher with column scans under it) against the
object walk; the rung was measured once and removed (EXPERIMENTS.md,
E16/E17), and its bar retired with it.

The table lands in ``BENCH_e16.json``; the headline assertion is
re-checked against the emitted file so a broken emitter fails the
bench.

Set ``E16_N`` (default 1000000) to shrink the regime for smoke runs
(the memory sweep caps at 200k nodes either way).
"""

import os
import sys

from bench_harness import print_table, read_bench_json, run_once
from repro.workloads.factory import regime

E16_N = int(os.environ.get("E16_N", "1000000"))


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

