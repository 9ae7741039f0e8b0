"""E17 — column-native pattern matching: whole plans over arena columns.

The object walk judges every candidate as a ``Node``.  The column
matcher (:mod:`repro.pattern.columnmatch`) compiles each pattern into a
slot-level plan and runs the entire match — boolean phase, existence
semijoins, enumeration — over the arena's int columns, touching
``Node`` objects only for the final rows.  The plan is the program's
one evaluator and the walk the tests' oracle (``WalkMatcher``); this
experiment holds the plan to its claims against the walk:

* **Throughput** (the headline): on the ``large-document`` regime the
  compiled plan must sustain >= 8x the plain object walk's
  node-throughput at the full 1M-node size (>= 4x at smoke sizes,
  where fixed costs weigh more) — with *identical* rows per query,
  asserted before any timing.  The plan is a plain ``Matcher`` and
  the walk a ``WalkMatcher``; ``EngineConfig`` has no switch between
  them — every strategy matches through the document's arena, on the
  plan.  (The arena-scan
  rung this bench used to time between them was measured once and
  removed: EXPERIMENTS.md, E17.)

* **Differential matrix**: across every factory regime and query, the
  default engine must reproduce the naive oracle's rows (matched on
  the object walk) and the object walk's invocation log call site by
  call site — the column plan is an
  access path, never a semantics change — and the plan must answer in
  every regime: every pattern compiles, so the NFQ families run whole
  on the plan, and a pushed-bindings reply is spliced like any other.

Tables land in ``BENCH_e17.json`` (with the harness's ``peak_rss_kb``
memory figure); headline assertions are re-checked against the emitted
file so a broken emitter fails the bench.

Set ``E17_N`` (default 1000000) to shrink the scale regime for smoke
runs — the >= 8x claim and the 1M-node floor only arm at full size.
"""

import os
import time

from bench_harness import (
    WalkMatcher,
    object_walk,
    print_table,
    read_bench_json,
    run_once,
)
from repro.lazy.config import Strategy
from repro.pattern.match import MatchCounter, Matcher, MatchSet
from repro.pattern.parse import parse_pattern
from repro.workloads.factory import REGIMES, regime

E17_N = int(os.environ.get("E17_N", "1000000"))
FULL_SIZE = E17_N >= 1_000_000  # the 1M-node / >=8x claims arm here
MIN_SPEEDUP = 8.0 if FULL_SIZE else 4.0  # the plan over the object walk
MATRIX_N = min(E17_N, 100_000)  # the differential matrix's scale cap

# A descendant spine with a variable leaf, a value test, and a function
# test (svc1 is a factory service name).
E17_QUERY_TEXTS = (
    "/root//alpha/beta/$x",
    '/root//gamma/"2"',
    "/root//svc1()",
)


def scale_workload():
    return regime("large-document", min_nodes=E17_N)


def row_keys(match_set):
    return sorted(MatchSet.row_key(row) for row in match_set)


# ---------------------------------------------------------------------------
# Headline: group-pass node-throughput, column plans vs the object walk
# ---------------------------------------------------------------------------


def throughput_sweep():
    gen = scale_workload()
    document = gen.make_document(0)
    arena = document.arena
    assert arena is not None, "the scale regime builds on the arena path"
    nodes = arena.live_nodes
    members = {
        text: parse_pattern(text, name=f"e17-{i}")
        for i, text in enumerate(E17_QUERY_TEXTS)
    }
    variants = (("object-walk", WalkMatcher), ("column-plan", Matcher))
    rows = []
    reference = None
    timings = {}
    counters = {}
    for label, matcher_class in variants:
        counter = MatchCounter()
        group = {
            text: matcher_class(pattern, counter=counter)
            for text, pattern in members.items()
        }
        started = time.perf_counter()
        result = {
            text: matcher.evaluate(document) for text, matcher in group.items()
        }
        elapsed = time.perf_counter() - started
        keys = {text: row_keys(result[text]) for text in members}
        if reference is None:
            reference = keys
        else:
            assert keys == reference, f"{label} changed the rows"
        timings[label] = elapsed
        counters[label] = counter
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
    # The column pass must have answered every member itself: rows came
    # out of slot space.
    plan = counters["column-plan"]
    assert plan.column_rows == rows[0][3], plan.column_rows
    assert counters["object-walk"].column_rows == 0  # the walk's own
    return rows


def test_e17_throughput(benchmark, capsys):
    rows = run_once(benchmark, throughput_sweep)
    with capsys.disabled():
        print_table(
            "E17: group-pass node-throughput — column plan vs object walk"
            f" (large-document, N={E17_N})",
            [
                "variant",
                "nodes",
                "queries",
                "rows",
                "s",
                "knodes_per_s",
                "vs_object",
            ],
            rows,
            note=(
                "identical rows per query asserted before timing; the plan "
                f"must clear {MIN_SPEEDUP}x over the object walk"
            ),
        )
    by_variant = {row[0]: row for row in rows}
    if FULL_SIZE:
        assert by_variant["column-plan"][1] >= 1_000_000
    # Every variant returned the same number of rows (full equality is
    # asserted inside the sweep, per query).
    assert len({row[3] for row in rows}) == 1
    assert by_variant["column-plan"][6] >= MIN_SPEEDUP, rows
    # The emitted file must carry the same verdict.
    data = read_bench_json("e17")
    table = next(
        body
        for title, body in data["tables"].items()
        if title.startswith("E17: group-pass")
    )
    emitted = {r[0]: r for r in table["rows"]}
    assert emitted["column-plan"][6] >= MIN_SPEEDUP
    assert data["peak_rss_kb"] > 0


# ---------------------------------------------------------------------------
# Differential matrix: the default path vs oracle rows and the walk's logs
# ---------------------------------------------------------------------------


def matrix_workload(name):
    if name.startswith("large-document"):
        return regime(name, min_nodes=MATRIX_N)
    return regime(name)


def matrix_sweep():
    rows = []
    for name in REGIMES:
        gen = matrix_workload(name)
        total_rows = 0
        arena_nodes = 0
        column_rows = 0
        started = time.perf_counter()
        for qi in range(gen.spec.n_queries):
            query = gen.query_for(qi)
            doc = gen.document_for_query(qi)
            with object_walk():
                reference = gen.oracle(query, doc).value_rows()
                walk_out, walk_log = gen.evaluate(
                    query, doc, strategy=Strategy.LAZY_NFQ
                )
            total_rows += len(reference)
            assert walk_out.value_rows() == reference, (name, qi, "walk")
            assert walk_out.metrics.column_rows == 0  # the walk ran
            out, log = gen.evaluate(query, doc, strategy=Strategy.LAZY_NFQ)
            assert out.value_rows() == reference, (name, qi)
            assert log == walk_log, (name, qi)
            arena_nodes = max(arena_nodes, out.metrics.arena_nodes)
            column_rows += out.metrics.column_rows
        elapsed_ms = (time.perf_counter() - started) * 1000
        rows.append(
            (
                name,
                gen.spec.n_queries,
                3,  # the default engine, the walk, the naive oracle
                total_rows,
                arena_nodes,
                column_rows,
                round(elapsed_ms, 1),
            )
        )
    return rows


def test_e17_differential_matrix(benchmark, capsys):
    rows = run_once(benchmark, matrix_sweep)
    with capsys.disabled():
        print_table(
            "E17: arena differential matrix — every regime, rows and"
            f" logs pinned (large N={MATRIX_N})",
            [
                "regime",
                "queries",
                "configs",
                "rows",
                "arena_nodes",
                "column_rows",
                "ms",
            ],
            rows,
            note=(
                "the default engine pinned to the naive oracle's rows AND "
                "the object walk's invocation log, call site by call site"
            ),
        )
    assert len(rows) >= 8, "the matrix must cover >= 8 named regimes"
    # The arena must actually mirror documents in every regime...
    assert all(row[4] > 0 for row in rows), rows
    # ...and the column plan must answer everywhere.
    assert all(row[5] > 0 for row in rows), rows
    data = read_bench_json("e17")
    table = next(
        body
        for title, body in data["tables"].items()
        if title.startswith("E17: arena differential")
    )
    assert len(table["rows"]) >= 8

