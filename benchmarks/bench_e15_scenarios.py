"""E15 — the adversarial scenario matrix: every regime vs the oracle.

The workload factory (:mod:`repro.workloads.factory`) generates seeded
hostile regimes the hand-built benches never hit: deep recursion with
cold subtrees, BINDINGS pushing, distinct-key cache floods,
multi-child-root standing queries, bursty multi-tenant arrival traces,
and a >=100k-node document.  This experiment drives the full engine
configuration matrix over *every* named regime and holds it to the
differential bar:

* **Static matrix** (the headline): for every regime and every query in
  its set, naive materialisation and each optimized configuration
  (lazy, +concurrency, +cache) must produce identical value rows; the
  configuration that promises invocation-invisibility (plain lazy on
  its column plans, with per-scope relevance upkeep) must also
  reproduce the invocation log of the object walk re-matching the
  whole document every round, call site by call site; and no matcher
  may stand down from its column plan, in any regime.

* **Evolution**: regimes with a mutation trace replay it on twin
  documents under a maintained and an unmaintained standing query —
  identical rows and identical cumulative logs per step.  The
  multi-child-root regime must take the store's unanchored fallback
  (``scoped`` false, ``full_matches > 0``) while staying invisible.

* **Serving**: the bursty-tenants regime drives a
  :class:`~repro.serve.QueryServer` through its jittered arrival trace
  against independent refresh loops — per subscriber, per round,
  identical rows and logs, with most rounds touching only *some*
  documents (the non-lockstep case).

* **Diagnostics**: per-regime signature counters proving each regime
  exercises what it claims — replies shipped as tuples under BINDINGS,
  cache hits starved by the distinct-key flood.

Tables land in ``BENCH_e15.json``; headline assertions are re-checked
against the emitted file so a broken emitter fails the bench.

Set ``E15_N`` (default 100000) to shrink the large-document regime for
smoke runs — the >=100k-node claim only arms at full size.
"""

import os
import time

from bench_harness import (
    bindings_replies,
    expect_stand_downs,
    full_relevance,
    object_walk,
    print_table,
    read_bench_json,
    run_once,
    stand_downs,
)
from repro.lazy.config import EngineConfig, Strategy
from repro.lazy.continuous import ContinuousQuery
from repro.lazy.engine import LazyQueryEvaluator
from repro.serve import QueryServer
from repro.workloads.factory import REGIMES, regime

LARGE_N = int(os.environ.get("E15_N", "100000"))
FULL_SIZE = LARGE_N >= 100_000  # the >=100k-node claim arms at full size

# The optimized configurations under differential test, and (for the
# log-pinned subset) the invisibility contract each one carries.
CONFIGS = {
    "lazy": dict(strategy=Strategy.LAZY_NFQ),
    "lazy+concurrent": dict(strategy=Strategy.LAZY_NFQ, max_concurrency=8),
    "lazy+cache": dict(strategy=Strategy.LAZY_NFQ, call_cache=True),
}
# Concurrency batches calls (order may legally differ inside a round)
# and the cache elides duplicate invocations, so only this one pins the
# exact invocation log — against the object walk's under whole-
# document relevance passes, since every lazy config here matches
# through the document's arena and keeps its relevance sets per scope.
LOG_PINNED = ("lazy",)


def regime_workload(name):
    if name.startswith("large-document"):
        # Both scale regimes (arena-built 1M and the 100k object-graph
        # compatibility twin) shrink to E15_N here; E16 owns full scale.
        return regime(name, min_nodes=LARGE_N)
    return regime(name)


def invocations(bus):
    return [
        (r.service_name, r.call_node_id, r.fault) for r in bus.log.records
    ]


# ---------------------------------------------------------------------------
# Headline: the static differential matrix over every regime
# ---------------------------------------------------------------------------


def scenario_matrix():
    rows = []
    for name in REGIMES:
        gen = regime_workload(name)
        stats = gen.describe()
        total_rows = 0
        shipped_as_tuples = 0
        reasons = {}
        started = time.perf_counter()
        for qi in range(gen.spec.n_queries):
            query = gen.query_for(qi)
            doc = gen.document_for_query(qi)
            reference = gen.oracle(query, doc).value_rows()
            total_rows += len(reference)
            # The object walk on whole passes: the log oracle.
            with object_walk(), full_relevance():
                walk_out, walk_log = gen.evaluate(
                    query, doc, **CONFIGS["lazy"]
                )
            assert walk_out.value_rows() == reference, (name, qi, "walk")
            for label, kwargs in CONFIGS.items():
                bus = gen.make_bus()
                engine = LazyQueryEvaluator(
                    bus, config=gen.engine_config(**kwargs)
                )
                out = engine.evaluate(query, gen.make_document(doc))
                assert out.value_rows() == reference, (name, qi, label)
                if label in LOG_PINNED:
                    assert invocations(bus) == walk_log, (name, qi, label)
                if label == "lazy":
                    shipped_as_tuples += bindings_replies(bus)
                for reason, n in out.metrics.column_fallback_reasons.items():
                    reasons[reason] = reasons.get(reason, 0) + n
        expect_stand_downs(name, reasons)
        elapsed_ms = (time.perf_counter() - started) * 1000
        rows.append(
            (
                name,
                stats["nodes"],
                stats["calls"],
                gen.spec.n_queries,
                len(CONFIGS) + 1,  # + the naive oracle
                total_rows,
                shipped_as_tuples,
                stand_downs(reasons),
                gen.spec.fault_plan,
                round(elapsed_ms, 1),
            )
        )
    return rows


def test_e15_scenario_matrix(benchmark, capsys):
    rows = run_once(benchmark, scenario_matrix)
    with capsys.disabled():
        print_table(
            "E15: adversarial scenario matrix — naive vs optimized configs"
            f" ({len(REGIMES)} regimes, large N={LARGE_N})",
            [
                "regime",
                "nodes",
                "calls",
                "queries",
                "configs",
                "rows",
                "bindings_replies",
                "stand_downs",
                "faults",
                "ms",
            ],
            rows,
            note=(
                "every config pinned to the naive oracle's rows; lazy "
                "also pinned to the whole-pass object walk's invocation "
                "log; stand_downs are the column plan's (all configs, by "
                "reason)"
            ),
        )
    by_regime = {row[0]: row for row in rows}
    assert len(rows) >= 8, "the matrix must cover >= 8 named regimes"
    # The BINDINGS regime must actually get replies as tuples, and no
    # matcher stands down anywhere (scenario_matrix held every regime
    # to zero).
    assert by_regime["bindings-push"][6] > 0
    assert all(row[7] == "-" for row in rows), rows
    if FULL_SIZE:
        assert by_regime["large-document"][1] >= 100_000
    # The emitted file must carry the same verdicts.
    data = read_bench_json("e15")
    table = next(
        body
        for title, body in data["tables"].items()
        if title.startswith("E15: adversarial")
    )
    emitted = {r[0]: r for r in table["rows"]}
    assert len(emitted) >= 8
    assert emitted["bindings-push"][6] > 0
    assert emitted["bindings-push"][7] == "-"


# ---------------------------------------------------------------------------
# Evolution: maintained vs full standing queries over mutation traces
# ---------------------------------------------------------------------------


def evolution_sweep():
    rows = []
    for name in REGIMES:
        gen = regime_workload(name)
        if gen.spec.n_mutations == 0:
            continue
        query = gen.query_for(0)

        def standing(maintain):
            bus = gen.make_bus()
            config = gen.engine_config(
                strategy=Strategy.LAZY_NFQ, maintain_answers=maintain
            )
            engine = LazyQueryEvaluator(bus, config=config)
            return ContinuousQuery(engine, query, gen.make_document(0)), bus

        kept, kept_bus = standing(True)
        full, full_bus = standing(False)
        steps = 0
        for step in gen.mutation_trace():
            gen.apply_mutation(step, (kept.document, full.document))
            a = kept.refresh()
            b = full.refresh()
            assert a.value_rows() == b.value_rows(), (name, step)
            assert invocations(kept_bus) == invocations(full_bus), (
                name,
                step,
            )
            steps += 1
        counters = (
            kept.answer_cache.counters() if kept.answer_cache else {}
        )
        scoped = kept.answer_cache.scoped if kept.answer_cache else None
        kept.close()
        full.close()
        rows.append(
            (
                name,
                steps,
                "yes",
                scoped,
                counters.get("full_matches", 0),
                counters.get("screens", 0),
                counters.get("scope_rematches", 0),
            )
        )
    return rows


def test_e15_evolution(benchmark, capsys):
    rows = run_once(benchmark, evolution_sweep)
    with capsys.disabled():
        print_table(
            "E15: evolution differential — maintained vs full re-evaluation",
            [
                "regime",
                "steps",
                "agree",
                "scoped",
                "full_matches",
                "screens",
                "scope_rematches",
            ],
            rows,
            note="identical rows and cumulative invocation logs per step",
        )
    by_regime = {row[0]: row for row in rows}
    # Multi-child-root standing queries must take (and survive) the
    # store's unanchored fallback: whole passes whenever touched.
    multi = by_regime["multi-root-standing"]
    assert multi[3] is False and multi[4] > 0, multi


# ---------------------------------------------------------------------------
# Serving: the bursty multi-tenant arrival trace vs independent loops
# ---------------------------------------------------------------------------


def serving_sweep():
    gen = regime_workload("bursty-tenants")
    spec = gen.spec
    config = EngineConfig.serving(strategy=Strategy.LAZY_NFQ)

    oracle_bus = gen.make_bus()
    oracle_engine = LazyQueryEvaluator(oracle_bus, config=config)
    oracle_docs = [gen.make_document(i) for i in range(spec.n_documents)]
    server_bus = gen.make_bus()
    server = QueryServer(server_bus, config=config)
    server_docs = [gen.make_document(i) for i in range(spec.n_documents)]

    loops = []
    subs = []
    for i in range(spec.n_queries):
        query = gen.query_for(i)
        doc = gen.document_for_query(i)
        loops.append((doc, ContinuousQuery(oracle_engine, query, oracle_docs[doc])))
        subs.append(
            server.subscribe(
                gen.query_for(i),
                server_docs[doc],
                tenant=gen.tenant_for(i),
                name=f"sub-{i}",
            )
        )
    assert invocations(oracle_bus) == invocations(server_bus)

    rows = []
    for rnd, due_docs in enumerate(gen.arrival_trace()):
        for doc in due_docs:
            gen.apply_mutation(
                f"round{rnd}|doc{doc}", (oracle_docs[doc], server_docs[doc])
            )
        refreshed = 0
        for doc, loop in loops:
            if doc in due_docs:
                loop.refresh()
                refreshed += 1
        report = server.run_round()
        expected = [set(loop.peek().value_rows()) for _, loop in loops]
        assert [set(sub.rows) for sub in subs] == expected, rnd
        assert invocations(oracle_bus) == invocations(server_bus), rnd
        rows.append(
            (
                rnd,
                len(due_docs),
                refreshed,
                len(report.outcomes),
                "yes",
            )
        )
    for _, loop in loops:
        loop.close()
    server.close()
    return rows


def test_e15_bursty_serving(benchmark, capsys):
    rows = run_once(benchmark, serving_sweep)
    with capsys.disabled():
        print_table(
            "E15: bursty multi-tenant serving — server rounds vs loops",
            ["round", "due_docs", "loop_refreshes", "served", "agree"],
            rows,
            note=(
                "non-lockstep: only documents in the arrival trace move "
                "each round; rows and logs pinned per subscriber"
            ),
        )
    # The trace must actually be non-lockstep: some round leaves at
    # least one document untouched, and some round moves more than one.
    due_counts = [row[1] for row in rows]
    assert any(c < REGIMES["bursty-tenants"].n_documents for c in due_counts)
    assert any(c > 0 for c in due_counts)


# ---------------------------------------------------------------------------
# Diagnostics: cache-adversarial argument streams
# ---------------------------------------------------------------------------


def cache_sweep():
    rows = []
    for name in ("baseline", "cache-flood"):
        gen = regime_workload(name)
        out, _ = gen.evaluate(
            gen.query_for(0), 0, **CONFIGS["lazy+cache"]
        )
        rows.append(
            (
                name,
                gen.spec.argument_pool or "distinct",
                out.metrics.calls_invoked,
                out.metrics.cache_hits,
            )
        )
    return rows


def test_e15_cache_adversary(benchmark, capsys):
    rows = run_once(benchmark, cache_sweep)
    with capsys.disabled():
        print_table(
            "E15: cache-adversarial argument streams (CallCache hit rates)",
            ["regime", "key_pool", "calls_invoked", "cache_hits"],
            rows,
            note="the distinct-key flood must starve the cache",
        )
    by_regime = {row[0]: row for row in rows}
    # A shared key pool produces hits; the distinct-key flood must not
    # beat it (and should produce none at all).
    assert by_regime["baseline"][3] > by_regime["cache-flood"][3], rows
