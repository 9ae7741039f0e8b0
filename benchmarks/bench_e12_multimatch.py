"""E12 — shared multi-query matching with guide-driven projection.

Paper claim (Section 5, Figure 5): one user query spawns a whole
*family* of relevance queries — one NFQ per function-reachable node —
and the engine re-runs the family every round.  Evaluating the members
one by one repeats almost all boolean work ``|family|`` times, because
the NFQs share the spine and most condition branches.  This experiment
regenerates the case for :class:`repro.pattern.multimatch.PatternGroup`:
the family compiled once into a merged canonical-class structure and
answered in **one shared pass** per round, with a document projection
set (merged label footprint + ancestors) pruning subtrees no member
can match.

* **Analysis under evolution** (the headline sweep, E11's protocol): a
  hotels document receives a stream of updates — mostly insertions
  disjoint from the family's footprint, periodically one genuinely
  relevant call result.  The per-query path runs a fresh matcher per
  NFQ per round; the shared path keeps the family in a
  :class:`RelevanceStore` (retrieved calls per depth-1 scope) and
  resolves what a round dirtied in ``PatternGroup`` passes, whole or
  inside one scope.  Both paths must
  detect the *same* relevant-call set every round; at 16 concurrent
  relevance queries and full size the shared path must cut analysis
  time and matcher work >= 5x.

* **Single shared pass** (no cache effects): one group pass vs. 16
  fresh per-query evaluations on a static document.  The win here is
  bounded by how much of the family is genuinely shared (the NFQs do
  differ around their focused nodes) — reported honestly, asserted
  only to be a win, not the headline multiple.

* **Engine equivalence** (the honest control): end-to-end runs with
  ``shared_matching`` off vs. on must produce identical answers and an
  identical invocation *sequence*; the shared runs must actually take
  group passes.

The tables land in ``BENCH_e12.json`` (see ``bench_harness``); the
headline assertions are re-checked *against the emitted file* so a
broken emitter fails the bench, not just downstream consumers.

Set ``E12_N`` (default 2000) to shrink the document for smoke runs —
the >= 5x assertion only arms at full size.
"""

import os
import random
import time

from bench_harness import (
    evaluate_workload,
    print_table,
    read_bench_json,
    run_once,
)
from repro.axml import LabelIndex
from repro.axml.builder import E, V
from repro.lazy.config import Strategy
from repro.lazy.incremental import RelevanceStore
from repro.lazy.relevance import NFQBuilder
from repro.pattern.match import Matcher, MatchCounter
from repro.pattern.multimatch import PatternGroup
from repro.pattern.parse import parse_pattern
from repro.services.registry import ServiceCall
from repro.workloads.chains import build_chain_workload
from repro.workloads.hotels import HotelsWorkloadParams, build_hotels_workload

N_HOTELS = int(os.environ.get("E12_N", "2000"))
FULL_SIZE = N_HOTELS >= 2000  # the >= 5x claim is asserted at full size
QUERY_COUNTS = [2, 4, 8, 16]

# A wide, variable-free query: 16 function-reachable positions, so
# NFQBuilder yields (at least) 16 NFQs sharing the spine and most
# conditions.  Variable-free keeps every footprint selective and the
# projection summary wildcard-free — the regime shared matching and
# projection are built for.
FAMILY_QUERY_TEXT = (
    '/hotels/hotel[name="Best Western"][address][rating="5"]'
    "/nearby[museum[name][address]]"
    '//restaurant[name][address][rating="5"]/name'
)

EVOLUTION_ROUNDS = 24
RELEVANT_EVERY = 8  # one relevant splice every K rounds
QUIET_BATCH = 2  # footprint-disjoint insertions per quiet round


def workload_of(n):
    return build_hotels_workload(
        HotelsWorkloadParams(
            n_hotels=n,
            extra_hotels_via_service=0,
            target_hotel_count=12,
            seed=13,
        )
    )


def family_of(k):
    """The first *k* NFQs of the family, undeduplicated (the engine's
    layer view can hold structurally-equal queries for distinct
    targets; the group must cope, and canonicalization makes the
    duplicates nearly free)."""
    nfqs = NFQBuilder(parse_pattern(FAMILY_QUERY_TEXT)).build_all(dedupe=False)
    assert len(nfqs) >= QUERY_COUNTS[-1], len(nfqs)
    return nfqs[:k]


def parking_tree(k):
    """An update every member footprint provably ignores: neither
    ``parking`` nor ``spot`` is a query label (``museum``/``name``/
    ``address`` would be projection sources here, unlike E11)."""
    return E("parking", E("spot", V(f"Level {k}")))


def detect_per_query(nfqs, document, counter):
    """The engine's pre-shared analysis path: fresh matcher per query
    per round, full-document evaluation, no cache, no index."""
    found = set()
    for rq in nfqs:
        matcher = Matcher(rq.pattern, counter=counter)
        for node in matcher.evaluate(document).distinct_nodes():
            found.add(node.node_id)
    return found


def detect_shared(nfqs, document, store, group):
    """The shared path as the engine composes it: the per-scope store
    in front, whatever the round dirtied resolved by group passes (the
    whole document, or one scope at a time), liveness filtered at read
    time."""

    def match(keys, scope):
        result = group.evaluate(document, keys=keys, scope=scope)
        return {key: result.match_sets[key].distinct_nodes() for key in keys}

    calls_by_target = store.retrieve(
        {rq.target_uid: rq.pattern for rq in nfqs}, match
    )
    found = set()
    for calls in calls_by_target.values():
        for call in calls:
            if document.contains(call):
                found.add(call.node_id)
    return found


def splice_relevant(document, bus, node_ids):
    """Invoke the lowest-id detected call and splice its result."""
    target = min(node_ids)
    call = next(c for c in document.function_nodes() if c.node_id == target)
    outcome = bus.invoke(
        ServiceCall(
            service=call.label,
            parameters=call.children,
            call_node_id=call.node_id,
        )
    )
    assert outcome.reply is not None
    document.replace_call(call, outcome.reply.forest)


def evolution_sweep():
    rows = []
    for k in QUERY_COUNTS:
        wl = workload_of(N_HOTELS)
        document = wl.make_document()
        bus = wl.make_bus()
        nfqs = family_of(k)

        index = LabelIndex(document)
        store = RelevanceStore(document)
        counter_pq = MatchCounter()
        counter_sh = MatchCounter()
        group = PatternGroup(
            {rq.target_uid: rq.pattern for rq in nfqs},
            counter=counter_sh,
            index=index,
        )

        rng = random.Random(7)
        pq_time = sh_time = 0.0
        projected_passes = skipped = 0
        for rnd in range(EVOLUTION_ROUNDS):
            start = time.perf_counter()
            per_query = detect_per_query(nfqs, document, counter_pq)
            pq_time += time.perf_counter() - start

            start = time.perf_counter()
            shared = detect_shared(nfqs, document, store, group)
            sh_time += time.perf_counter() - start

            # Identical answers, every round, on the same document state.
            assert shared == per_query

            if rnd % RELEVANT_EVERY == 0 and per_query:
                splice_relevant(document, bus, per_query)
            else:
                nearbys = sorted(
                    index.data_nodes("nearby"), key=lambda node: node.node_id
                )
                for j in range(QUIET_BATCH):
                    document.insert_subtree(
                        rng.choice(nearbys), parking_tree(f"{rnd}.{j}")
                    )

        pq_work = counter_pq.can_checks + counter_pq.candidates_visited
        sh_work = (
            counter_sh.can_checks
            + counter_sh.candidates_visited
            + counter_sh.index_candidates
        )
        family_nodes = sum(len(list(rq.pattern.nodes())) for rq in nfqs)
        rows.append(
            (
                k,
                family_nodes,
                group.canonical_classes,
                store.hits,
                store.reevaluations,
                store.scope_rematches,
                pq_time * 1000,
                sh_time * 1000,
                round(pq_time / max(sh_time, 1e-9), 2),
                round(pq_work / max(sh_work, 1), 2),
            )
        )
        store.detach()
        index.detach()
    return rows


def test_e12_evolution(benchmark, capsys):
    rows = run_once(benchmark, evolution_sweep)
    with capsys.disabled():
        print_table(
            "E12: shared vs per-query relevance analysis under evolution"
            f" (hotels({N_HOTELS}))",
            [
                "queries",
                "nodes",
                "classes",
                "cache_hits",
                "group_evals",
                "scope_rematches",
                "per_query_ms",
                "shared_ms",
                "speedup",
                "work_cut",
            ],
            rows,
            note="same detected call set asserted on every round",
        )
    # Canonicalization must actually collapse the family: at k=16 the
    # ~200 member nodes must intern into at most half as many classes.
    by_k = {row[0]: row for row in rows}
    assert by_k[16][2] * 2 <= by_k[16][1], by_k[16]
    # Quiet rounds are hits; relevant ones re-match single scopes.
    for row in rows:
        assert row[3] > row[4], "hits should dominate re-evaluations"
    assert by_k[16][5] > 0, "relevant rounds should re-match by scope"
    # The headline, re-checked against the *emitted* JSON so a broken
    # emitter fails here and not in some downstream consumer.
    payload = read_bench_json("e12")
    table = next(
        t for name, t in payload["tables"].items() if "under evolution" in name
    )
    speedup_col = table["headers"].index("speedup")
    work_col = table["headers"].index("work_cut")
    k16 = next(r for r in table["rows"] if r[0] == 16)
    if FULL_SIZE:
        assert k16[speedup_col] >= 5.0, k16
        assert k16[work_col] >= 5.0, k16
        # The gap widens with family size: sharing pays more at k=16
        # than at k=2.
        k2 = next(r for r in table["rows"] if r[0] == 2)
        assert k16[speedup_col] > k2[speedup_col]
    else:
        # Smoke sizes still require the shared path to win on work.
        assert k16[work_col] > 1.0, k16


def single_pass_sweep():
    wl = workload_of(N_HOTELS)
    document = wl.make_document()
    rows = []
    for k in QUERY_COUNTS:
        nfqs = family_of(k)
        counter_pq = MatchCounter()
        start = time.perf_counter()
        for rq in nfqs:
            Matcher(rq.pattern, counter=counter_pq).evaluate(document)
        pq_time = time.perf_counter() - start

        index = LabelIndex(document)
        group = PatternGroup(
            {rq.target_uid: rq.pattern for rq in nfqs}, index=index
        )
        start = time.perf_counter()
        result = group.evaluate(document)
        sh_time = time.perf_counter() - start
        index.detach()

        # Oracle parity: the shared pass returns exactly the per-query
        # walker's answers, member by member.
        for rq in nfqs:
            oracle = Matcher(rq.pattern).evaluate(document)
            shared_rows = {
                (tuple(n.node_id for n in row.nodes), row.bindings)
                for row in result.match_sets[rq.target_uid].rows
            }
            oracle_rows = {
                (tuple(n.node_id for n in row.nodes), row.bindings)
                for row in oracle.rows
            }
            assert shared_rows == oracle_rows, rq.target_uid

        rows.append(
            (
                k,
                group.canonical_classes,
                result.projected,
                result.projection_size,
                result.skipped_subtrees,
                result.candidate_reuses,
                pq_time * 1000,
                sh_time * 1000,
                round(pq_time / max(sh_time, 1e-9), 2),
            )
        )
    return rows


def test_e12_single_pass(benchmark, capsys):
    rows = run_once(benchmark, single_pass_sweep)
    with capsys.disabled():
        print_table(
            f"E12: one shared pass vs per-query (static hotels({N_HOTELS}))",
            [
                "queries",
                "classes",
                "projected",
                "proj_nodes",
                "pruned",
                "cand_reuse",
                "per_query_ms",
                "one_pass_ms",
                "speedup",
            ],
            rows,
            note="per-member rows asserted identical to the oracle walker",
        )
    by_k = {row[0]: row for row in rows}
    # The family is variable-free, so projection must be in force.
    assert all(row[2] for row in rows)
    if FULL_SIZE:
        # Without any cache effects the win is the sharing itself —
        # bounded by the family's genuine per-member differences.
        assert by_k[16][8] >= 1.5, by_k[16]


# ---------------------------------------------------------------------------
# Engine equivalence: answers, invocation set *and order*
# ---------------------------------------------------------------------------

CHAIN_SHAPES = [(4, 8), (6, 16)]


def _invocations(bus):
    return [(r.service_name, r.call_node_id) for r in bus.log.records]


def engine_sweep():
    rows = []
    wl = build_hotels_workload(
        HotelsWorkloadParams(n_hotels=200, extra_hotels_via_service=40, seed=13)
    )
    cases = [
        ("hotels(200)", wl, dict(strategy=Strategy.LAZY_NFQ)),
        (
            "hotels+guide",
            wl,
            dict(strategy=Strategy.LAZY_NFQ, use_fguide=True),
        ),
    ] + [
        (
            f"chains({d}x{w})",
            build_chain_workload(depth=d, width=w, latency_s=0.0),
            dict(strategy=Strategy.LAZY_NFQ, use_layers=False, parallel=False),
        )
        for d, w in CHAIN_SHAPES
    ]
    for name, workload, kwargs in cases:
        base, base_bus = evaluate_workload(workload, **kwargs)
        shared, shared_bus = evaluate_workload(
            workload, shared_matching=True, **kwargs
        )
        assert shared.value_rows() == base.value_rows()
        assert _invocations(shared_bus) == _invocations(base_bus)
        metrics = shared.metrics
        assert metrics.group_passes > 0, name
        rows.append(
            (
                name,
                metrics.calls_invoked,
                metrics.relevance_evaluations,
                metrics.group_passes,
                metrics.group_pass_nodes_visited,
                metrics.projection_skipped_subtrees,
            )
        )
    return rows


def test_e12_engine_equivalence(benchmark, capsys):
    rows = run_once(benchmark, engine_sweep)
    with capsys.disabled():
        print_table(
            "E12: engine end-to-end, shared matching off vs on",
            [
                "workload",
                "invoked",
                "rel-evals",
                "group_passes",
                "group_visited",
                "proj_pruned",
            ],
            rows,
            note="identical rows and invocation order asserted per workload",
        )
    # The emitted JSON must exist and parse with all three tables.
    payload = read_bench_json("e12")
    assert any("under evolution" in name for name in payload["tables"])
    assert any("one shared pass" in name for name in payload["tables"])
    assert any("end-to-end" in name for name in payload["tables"])
