"""E14 — multi-tenant serving: batched rounds vs independent loops.

E13 made a *single* standing query cheap to refresh.  This experiment
measures what sharing adds when many subscribers stand on one document
— in two steps, because derived query state now belongs to the
document and is keyed by pattern shape, so plain loops share it too.

* **Refresh latency under a traffic trace** (the headline sweep): a
  hotels document carries N standing queries through the E13 evolution
  trace — quiet insertions, periodically an extensional qualifying
  hotel or a fresh relevant service call.  Three twin worlds replay the
  same trace: N *isolated* :class:`ContinuousQuery` loops (every engine
  run on a private relevance store — ``isolated_relevance()``, a patch:
  what independent loops were before the state was shared), the same N
  loops on the document's *shared* store, and one :class:`QueryServer`
  driven by :meth:`run_round` (which asks the engine's quiet probe,
  once per text per document version, before any engine run — through
  that same store).  Latency is measured on a simulated serving clock
  (service latency from the bus plus measured compute): every subscriber goes
  due at the start of the round and is charged until its serve
  completes, so the p99 captures the subscriber at the back of the
  queue.  Every round all three must produce identical value rows per
  subscriber and identical cumulative invocation logs; at 64
  subscribers and full size the server's p99 must be >= 3x better than
  the isolated loops', and never worse than the same server's on
  isolated stores.  The loops on the shared store are about as fast as
  the server, so the quiet verdicts earn their place less by latency
  than by *admission*: the server knows a refresh is free before the
  tenant is charged an engine run for it.

* **One analysis per text, one seed per shape** (deterministic,
  re-checked against the emitted file): over the server's session the
  engine keeps one query analysis per distinct text and the document
  store seeds one entry per distinct shape — relevance queries and the
  texts' answers alike — and a repeat subscriber of a text adds
  neither.  Whole passes beyond the seeds are
  the count switch's (an entry finds most of the root's children
  touched since it last looked — here by a subscriber that invoked a
  call in every hotel) and are reported next to them.

* **Noisy neighbour isolation**: a ``noisy`` tenant (registered first,
  so FIFO would serve it first — budgets, not priority, must do the
  isolating) hammers its own small document with a relevant call every
  round under a 1-invocation budget.  Victim tenants share the big
  document.  The noisy tenant must see typed ``DEFERRED(budget)``
  outcomes; the victims must see none, and their p99 must stay within
  10% of a run without the noisy tenant at all.

The tables land in ``BENCH_e14.json`` (see ``bench_harness``); the
headline assertions are re-checked *against the emitted file* so a
broken emitter fails the bench, not just downstream consumers.

Set ``E14_N`` (default 2000) to shrink the document for smoke runs —
the >= 3x and 10% assertions only arm at full size.
"""

import contextlib
import os
import random
import time

from bench_harness import (
    isolated_relevance,
    print_table,
    read_bench_json,
    run_once,
)
from bench_e13_answers import (
    QUERY_TEXTS,
    mutate_round,
    qualifying_nearby,
)
from repro.axml.builder import C, V
from repro.lazy.config import EngineConfig, Strategy
from repro.lazy.continuous import ContinuousQuery
from repro.lazy.engine import LazyQueryEvaluator
from repro.pattern.parse import parse_pattern
from repro.serve import QueryServer, RefreshStatus, TenantPolicy, quantile
from repro.workloads.hotels import HotelsWorkloadParams, build_hotels_workload

N_HOTELS = int(os.environ.get("E14_N", "2000"))
FULL_SIZE = N_HOTELS >= 2000  # the >= 3x / 10% claims arm at full size
SUB_COUNTS = [16, 64]
TRACE_ROUNDS = 12


def serving_config():
    return EngineConfig.serving(strategy=Strategy.LAZY_NFQ)


def workload_of(n):
    return build_hotels_workload(
        HotelsWorkloadParams(
            n_hotels=n,
            extra_hotels_via_service=0,
            target_hotel_count=12,
            seed=13,
        )
    )


def queries_of(k):
    texts = [QUERY_TEXTS[i % len(QUERY_TEXTS)] for i in range(k)]
    return [
        parse_pattern(text, name=f"sub-{i}") for i, text in enumerate(texts)
    ]


def invocations(bus):
    return [
        (r.service_name, r.call_node_id, r.fault) for r in bus.log.records
    ]


def ms(seconds):
    return seconds * 1000


# -- headline: batched rounds vs independent refresh loops -------------------


class LoopWorld:
    """The oracle deployment: independent standing queries on one
    shared engine, refreshed in registration order, timed on the same
    hybrid serving clock the server uses (bus clock + compute).
    ``isolated`` runs everything it does under
    :func:`isolated_relevance`."""

    def __init__(self, workload, queries, isolated=False):
        self.relevance = (
            isolated_relevance if isolated else contextlib.nullcontext
        )
        self.bus = workload.make_bus()
        self.engine = LazyQueryEvaluator(
            self.bus, schema=workload.schema, config=serving_config()
        )
        self.document = workload.make_document()
        with self.relevance():
            self.loops = [
                ContinuousQuery(self.engine, query, self.document)
                for query in queries
            ]
        self.compute_s = 0.0

    def clock(self):
        return self.bus.clock_s + self.compute_s

    def refresh_round(self):
        """Refresh every loop once; all go due at the round start."""
        due = self.clock()
        latencies, rows = [], []
        with self.relevance():
            for loop in self.loops:
                started = time.perf_counter()
                outcome = loop.refresh()
                self.compute_s += time.perf_counter() - started
                latencies.append(self.clock() - due)
                rows.append(set(outcome.value_rows()))
        return latencies, rows

    def close(self):
        for loop in self.loops:
            loop.close()


class ServerWorld:
    """One :class:`QueryServer` carrying every query; ``isolated`` as
    for :class:`LoopWorld` (the server before the document owned its
    relevance state).  Counts what a repeat subscriber of a text adds
    to the document store: entries (none, ever) and whole passes."""

    def __init__(self, workload, queries, isolated=False):
        self.relevance = (
            isolated_relevance if isolated else contextlib.nullcontext
        )
        self.bus = workload.make_bus()
        self.server = QueryServer(
            self.bus, schema=workload.schema, config=serving_config()
        )
        self.document = workload.make_document()
        self.subs = []
        self.repeat_seeds = self.repeat_whole_passes = 0
        seen_texts = set()
        with self.relevance():
            for query in queries:
                shapes, passes = self.shapes(), self.whole_passes()
                self.subs.append(
                    self.server.subscribe(query, self.document, name=query.name)
                )
                if query.to_string() in seen_texts:
                    self.repeat_seeds += self.shapes() - shapes
                    self.repeat_whole_passes += self.whole_passes() - passes
                seen_texts.add(query.to_string())

    def whole_passes(self):
        store = self.document.relevance
        return 0 if store is None else store.whole_passes

    def shapes(self):
        store = self.document.relevance
        return 0 if store is None else len(store._entries)

    def run_round(self):
        with self.relevance():
            return self.server.run_round()

    def close(self):
        self.server.close()


#: (shapes seeded, whole passes, whole passes by repeat subscribers) per
#: serving session, at CI's size and at the full one.  All three count
#: the document store's entries of every kind: the 48 distinct relevance
#: shapes some engine run reads — 44 NFQs and the 4 stripped forms the
#: definite-call rule asks for, which are seeded inside their NFQ's
#: scopes and take no whole pass — *and* the 8 texts' answers; the 38
#: whole passes beyond the 52 whole-pass seeds are the count switch's,
#: 34 of them taken by repeat subscribers of a text.  (79 / 117 / 34
#: while the server's quiet map read the *initial* family of every
#: standing shape and so seeded 27 shapes no engine run evaluates.)
PINNED_PASSES = {200: (56, 90, 34), 2000: (56, 90, 34)}


def latency_sweep():
    rows, pass_rows = [], []
    for k in SUB_COUNTS:
        workload = workload_of(N_HOTELS)
        queries = queries_of(k)
        isolated = LoopWorld(workload, queries, isolated=True)
        shared = LoopWorld(workload, queries)
        old_server = ServerWorld(workload, queries, isolated=True)
        server = ServerWorld(workload, queries)
        worlds = (isolated, shared, old_server, server)
        # Eager materialisation (untimed) must already agree.
        for world in worlds[1:]:
            assert invocations(world.bus) == invocations(isolated.bus)

        rng = random.Random(7)
        latencies = {world: [] for world in worlds}
        statuses = {status: 0 for status in RefreshStatus}
        for rnd in range(TRACE_ROUNDS):
            mutate_round(rnd, rng, [world.document for world in worlds])
            took, expected = isolated.refresh_round()
            latencies[isolated].extend(took)
            took, rows_shared = shared.refresh_round()
            latencies[shared].extend(took)
            assert rows_shared == expected, (k, rnd)
            for world in (old_server, server):
                report = world.run_round()
                for outcome in report.outcomes:
                    if world is server:
                        statuses[outcome.status] += 1
                    if outcome.served:
                        latencies[world].append(outcome.latency_s)
                # Identical answers per subscriber, identical cumulative
                # invocation logs — sharing must be unobservable.
                assert [set(sub.rows) for sub in world.subs] == expected, (
                    k,
                    rnd,
                )
            for world in worlds[1:]:
                assert invocations(world.bus) == invocations(isolated.bus), (
                    k,
                    rnd,
                )
        for world in worlds:
            assert len(latencies[world]) == k * TRACE_ROUNDS, (
                "every sub served per round"
            )
        p99 = {world: quantile(latencies[world], 0.99) for world in worlds}
        rows.append(
            (
                k,
                TRACE_ROUNDS,
                statuses[RefreshStatus.EVALUATED],
                statuses[RefreshStatus.MAINTAINED]
                + statuses[RefreshStatus.SKIPPED],
                ms(quantile(latencies[isolated], 0.5)),
                ms(p99[isolated]),
                ms(quantile(latencies[shared], 0.5)),
                ms(p99[shared]),
                ms(quantile(latencies[server], 0.5)),
                ms(p99[server]),
                ms(p99[old_server]),
                round(p99[isolated] / max(p99[server], 1e-9), 2),
            )
        )
        pass_rows.append(
            (
                k,
                len({query.to_string() for query in queries}),
                len(server.server.engine._analyses),
                server.shapes(),
                server.repeat_seeds,
                server.whole_passes(),
                server.repeat_whole_passes,
            )
        )
        for world in worlds:
            world.close()
    return rows, pass_rows


# -- noisy neighbour isolation ----------------------------------------------

VICTIM_TENANTS = ["team-a", "team-b", "team-c"]
VICTIM_SUBS_EACH = 16
NOISY_SUBS = 8


def noisy_workload():
    return build_hotels_workload(
        HotelsWorkloadParams(
            n_hotels=8,
            extra_hotels_via_service=0,
            target_hotel_count=4,
            seed=14,
        )
    )


def noisy_run(with_noisy):
    """One serving run over the victim trace; optionally a noisy tenant
    on its own documents, registered and subscribed *first*."""
    workload = workload_of(N_HOTELS)
    server = QueryServer(
        workload.make_bus(), schema=workload.schema, config=serving_config()
    )
    noisy_docs = []
    if with_noisy:
        server.register_tenant(
            "noisy", TenantPolicy(invocation_budget=1)
        )
        # One small document per noisy subscription: each round every
        # one of them grows a relevant call, so the tenant genuinely
        # wants NOISY_SUBS engine runs per round against a budget of 1
        # invocation — a run for one document cannot quiet the others.
        noisy_wl = noisy_workload()
        for i in range(NOISY_SUBS):
            doc = noisy_wl.make_document()
            noisy_docs.append(doc)
            server.subscribe(
                parse_pattern(
                    QUERY_TEXTS[i % len(QUERY_TEXTS)], name=f"noisy-{i}"
                ),
                doc,
                tenant="noisy",
            )
    victim_doc = workload.make_document()
    queries = queries_of(VICTIM_SUBS_EACH * len(VICTIM_TENANTS))
    for i, query in enumerate(queries):
        server.subscribe(
            query,
            victim_doc,
            tenant=VICTIM_TENANTS[i % len(VICTIM_TENANTS)],
            name=f"victim-{i}",
        )

    rng = random.Random(7)
    victim_lat = []
    deferred = {"noisy": 0, "victims": 0}
    for rnd in range(TRACE_ROUNDS):
        mutate_round(rnd, rng, (victim_doc,))
        for doc in noisy_docs:
            # The noisy tenant wants an engine run per document per round.
            spot = qualifying_nearby(doc)
            if spot is not None:
                doc.insert_subtree(
                    spot, C("getNearbyRestos", V("1 Madison Av."))
                )
        report = server.run_round()
        for outcome in report.outcomes:
            if outcome.tenant == "noisy":
                if outcome.status is RefreshStatus.DEFERRED:
                    deferred["noisy"] += 1
            else:
                if outcome.status is RefreshStatus.DEFERRED:
                    deferred["victims"] += 1
                elif outcome.served:
                    victim_lat.append(outcome.latency_s)
    server.close()
    return victim_lat, deferred


def isolation_sweep():
    baseline_lat, baseline_deferred = noisy_run(with_noisy=False)
    noisy_lat, noisy_deferred = noisy_run(with_noisy=True)
    rows = [
        (
            "victims-only",
            len(baseline_lat),
            ms(quantile(baseline_lat, 0.5)),
            ms(quantile(baseline_lat, 0.99)),
            baseline_deferred["victims"],
            0,
        ),
        (
            "with-noisy",
            len(noisy_lat),
            ms(quantile(noisy_lat, 0.5)),
            ms(quantile(noisy_lat, 0.99)),
            noisy_deferred["victims"],
            noisy_deferred["noisy"],
        ),
    ]
    return rows


# -- the bench ---------------------------------------------------------------


def test_e14_serving_latency(benchmark, capsys):
    (latency_rows, pass_rows), isolation_rows = run_once(
        benchmark, lambda: (latency_sweep(), isolation_sweep())
    )
    with capsys.disabled():
        print_table(
            "E14: batched serving rounds vs independent refresh loops"
            f" (hotels({N_HOTELS}))",
            [
                "subs",
                "rounds",
                "evaluated",
                "served_cheap",
                "isolated_p50_ms",
                "isolated_p99_ms",
                "shared_p50_ms",
                "shared_p99_ms",
                "server_p50_ms",
                "server_p99_ms",
                "isolated_server_p99_ms",
                "p99_speedup",
            ],
            latency_rows,
            note="isolated = loops on private stores, shared = loops on the"
            " document's store; p99_speedup = isolated / server; identical"
            " rows and invocation order asserted per sub per round",
            bench="e14",
        )
        print_table(
            "E14: derived state per serving session"
            f" (hotels({N_HOTELS}))",
            [
                "subs",
                "texts",
                "analyses",
                "shapes",
                "repeat_subscriber_seeds",
                "whole_passes",
                "repeat_subscriber_passes",
            ],
            pass_rows,
            note="one analysis per text, one seed per distinct shape (relevance"
            " queries and answers); whole passes beyond the seeds are the"
            " count switch's",
            bench="e14",
        )
        print_table(
            "E14: noisy-neighbour isolation under per-tenant budgets"
            f" (hotels({N_HOTELS}))",
            [
                "run",
                "victim_serves",
                "victim_p50_ms",
                "victim_p99_ms",
                "victim_deferred",
                "noisy_deferred",
            ],
            isolation_rows,
            note="noisy tenant registered first; budget=1 engine run per round",
            bench="e14",
        )
    # The shared pass must actually fire: most serves on the big
    # document avoid the engine entirely.
    for row in latency_rows:
        assert row[3] > 0, "rounds should serve maintained answers"

    # The headline, re-checked against the *emitted* JSON so a broken
    # emitter fails here and not in some downstream consumer.
    payload = read_bench_json("e14")

    def table(fragment):
        # This run's table: the file keeps other sizes' beside it.
        return next(
            t
            for name, t in payload["tables"].items()
            if fragment in name and f"hotels({N_HOTELS})" in name
        )

    latency_table = table("refresh loops")
    column = latency_table["headers"].index
    k64 = next(r for r in latency_table["rows"] if r[0] == 64)
    if FULL_SIZE:
        assert k64[column("p99_speedup")] >= 3.0, k64
        # Sharing must not cost the server anything: its tail is no
        # worse than the same server's on isolated stores.
        assert (
            k64[column("server_p99_ms")] <= k64[column("isolated_server_p99_ms")]
        ), k64
    else:
        # Smoke sizes still require the server to beat isolated loops.
        assert k64[column("p99_speedup")] > 1.0, k64

    # Deterministic at every size: one analysis per text, one seed per
    # shape, and a twin adds neither — however many subscribe.
    state_table = table("derived state")
    for row in state_table["rows"]:
        _, texts, analyses, shapes, repeat_seeds, *passes = row
        assert analyses == texts <= shapes, row
        assert repeat_seeds == 0, row
        # ISSUE 18 expected ``shapes`` whole passes and none by repeat
        # subscribers; the count switch takes more (not met — see
        # EXPERIMENTS.md).  Pinned where they stand, so growth fails.
        if N_HOTELS in PINNED_PASSES:
            assert (shapes, *passes) == PINNED_PASSES[N_HOTELS], row
    assert len({tuple(row[1:]) for row in state_table["rows"]}) == 1, (
        "64 subscribers derive what 16 do"
    )

    isolation_table = table("noisy-neighbour")
    headers = isolation_table["headers"]
    by_run = {r[0]: r for r in isolation_table["rows"]}
    p99 = headers.index("victim_p99_ms")
    assert by_run["with-noisy"][headers.index("noisy_deferred")] > 0
    assert by_run["with-noisy"][headers.index("victim_deferred")] == 0
    assert by_run["victims-only"][headers.index("victim_deferred")] == 0
    if FULL_SIZE:
        # Budget exhaustion degrades only the noisy tenant: the
        # victims' tail stays within 10% of the undisturbed run.
        assert (
            by_run["with-noisy"][p99] <= by_run["victims-only"][p99] * 1.10
        ), (by_run["victims-only"][p99], by_run["with-noisy"][p99])
