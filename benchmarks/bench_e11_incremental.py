"""E11 — relevance under splices: retrieved calls kept per depth-1 scope.

Paper claim (Section 6.2): relevance detection "must be maintained as
the document evolves"; the paper's answer is to keep detection work
proportional to what changed, not to the document.  This experiment
regenerates that claim for ``repro.lazy.incremental.RelevanceStore``:

* **Detection under evolution** (the headline sweep): a hotels document
  of growing size receives a stream of updates — mostly insertions
  *disjoint* from the query's label footprint, periodically one
  genuinely relevant call result.  The reference re-matches every NFQ
  over the whole document each round (``full_relevance()``: the same
  store, judged "only a whole pass will do" every time); the store as
  shipped answers footprint-disjoint rounds as hits and re-matches only
  the one hotel a relevant reply fell in.  Both run the same compiled
  plans and must detect the *same* relevant-call set every round; the
  per-scope side must cut analysis time >= 5x at the largest size.

* **Engine equivalence** (the honest control): full end-to-end runs on
  the hotels and chains workloads, whole passes vs per-scope upkeep,
  must produce identical answers and an identical invocation *sequence*
  (service names and call sites, in order).  There is no engine switch
  to flip: upkeep has no knob, the reference is the test seam.
"""

import random
import time

from bench_harness import (
    evaluate_workload,
    full_relevance,
    print_table,
    run_once,
)
from repro.axml.builder import E, V
from repro.lazy.config import Strategy
from repro.lazy.incremental import RelevanceStore
from repro.lazy.relevance import build_nfqs
from repro.pattern.match import Matcher, MatchCounter, MatchOptions
from repro.pattern.parse import parse_pattern
from repro.services.registry import ServiceCall
from repro.workloads.chains import build_chain_workload
from repro.workloads.hotels import HotelsWorkloadParams, build_hotels_workload

SIZES = [100, 400, 1000, 2000]

# The paper query minus its value-join variables: $X/$Y match *any*
# value under a name/address, which would put a wildcard in every
# footprint and (correctly) mark every update as relevant.  Dropping
# the output variables keeps the footprint selective — the regime the
# incremental analysis is built for — without changing the spine.
DETECTION_QUERY_TEXT = (
    '/hotels/hotel[name="Best Western"][rating="5"]'
    '/nearby//restaurant[rating="5"]/name'
)

EVOLUTION_ROUNDS = 32
RELEVANT_EVERY = 8  # one relevant splice every K rounds
MUSEUM_BATCH = 2  # footprint-disjoint insertions per quiet round


def workload_of(n):
    return build_hotels_workload(
        HotelsWorkloadParams(
            n_hotels=n,
            extra_hotels_via_service=0,
            target_hotel_count=12,
            seed=13,
        )
    )


def museum_tree(k):
    """An update the query's footprint provably ignores: ``museum`` is
    not a query label, and its ``name`` child fails the parent-label
    constraints (the query only tests names under hotel/restaurant)."""
    return E(
        "museum",
        E("name", V(f"Museum extra {k}")),
        E("address", V(f"{k} Evolution St.")),
    )


class Detector:
    """One store over the document, driven the way ``_retrieve`` drives
    it: one query at a time, compiled matchers reused across rounds,
    liveness filtered at read time."""

    def __init__(self, nfqs, document):
        self.nfqs = nfqs
        self.document = document
        self.counter = MatchCounter()
        self.store = RelevanceStore(document)
        self.store.hold(self, MatchOptions())
        self.matchers = {
            rq.target_uid: Matcher(
                rq.pattern,
                counter=self.counter,
                arena=document.arena,
                column_match=True,
            )
            for rq in nfqs
        }

    def _match(self, keys, scope):
        (key,) = keys
        matcher = self.matchers[key]
        rows = (
            matcher.evaluate(self.document)
            if scope is None
            else matcher.evaluate_scoped(self.document, scope)
        )
        return {key: rows.rows}

    def detect(self):
        found = set()
        for rq in self.nfqs:
            members = {rq.target_uid: rq.pattern}
            for row in self.store.retrieve(members, self._match, self)[
                rq.target_uid
            ]:
                (call,) = row.nodes  # one output node: a row is a call
                if self.document.contains(call):
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


def sweep():
    rows = []
    times = {}
    works = {}
    for n in SIZES:
        wl = workload_of(n)
        document = wl.make_document()
        bus = wl.make_bus()
        nfqs = build_nfqs(parse_pattern(DETECTION_QUERY_TEXT))
        whole = Detector(nfqs, document)
        scoped = Detector(nfqs, document)

        rng = random.Random(7)
        full_time = inc_time = 0.0
        for rnd in range(EVOLUTION_ROUNDS):
            with full_relevance():
                start = time.perf_counter()
                full = whole.detect()
                full_time += time.perf_counter() - start

            start = time.perf_counter()
            inc = scoped.detect()
            inc_time += time.perf_counter() - start

            assert inc == full  # every round, on the same document state

            if rnd % RELEVANT_EVERY == 0 and full:
                splice_relevant(document, bus, full)
            else:
                nearbys = sorted(
                    (
                        node
                        for node in document.iter_nodes()
                        if node.is_element and node.label == "nearby"
                    ),
                    key=lambda node: node.node_id,
                )
                for k in range(MUSEUM_BATCH):
                    document.insert_subtree(
                        rng.choice(nearbys), museum_tree(f"{rnd}.{k}")
                    )

        store = scoped.store
        assert whole.store.scope_rematches == whole.store.hits == 0
        rows.append(
            (
                n,
                document.stats().total_nodes,
                EVOLUTION_ROUNDS * len(nfqs),
                store.hits,
                store.reevaluations,
                store.whole_passes,
                store.scope_rematches,
                full_time * 1000,
                inc_time * 1000,
                f"{full_time / max(inc_time, 1e-9):.1f}x",
            )
        )
        times[n] = (full_time, inc_time)
        works[n] = (
            whole.counter.column_pass_nodes,
            scoped.counter.column_pass_nodes,
        )
        whole.store.detach()
        store.detach()
    return rows, times, works


def test_e11_report(benchmark, capsys):
    rows, times, works = run_once(benchmark, sweep)
    with capsys.disabled():
        print_table(
            "E11: relevance detection under document evolution",
            [
                "n_hotels",
                "doc_nodes",
                "retrievals",
                "hits",
                "reevals",
                "whole_passes",
                "scope_rematches",
                "full_ms",
                "scoped_ms",
                "speedup",
            ],
            rows,
            note="same detected call set asserted on every round",
        )
    for row in rows:
        # Most rounds are footprint-disjoint: hits absorb them, and the
        # only whole passes are the seeds (one per NFQ).
        assert row[3] > row[4], "hits should dominate re-evaluations"
        assert row[5] * EVOLUTION_ROUNDS == row[2]
    # The headline: >= 5x analysis-time cut at the largest size, and the
    # (deterministic) slots scanned shrink at least as much.
    full_time, inc_time = times[SIZES[-1]]
    assert full_time / max(inc_time, 1e-9) >= 5.0
    full_work, inc_work = works[SIZES[-1]]
    assert full_work / max(inc_work, 1) >= 5.0
    # The gap grows with document size (a whole pass is O(n), a scoped
    # one follows the delta).
    assert times[SIZES[-1]][0] / max(times[SIZES[-1]][1], 1e-9) > times[
        SIZES[0]
    ][0] / max(times[SIZES[0]][1], 1e-9)


# ---------------------------------------------------------------------------
# Engine equivalence: answers, invocation set *and order*
# ---------------------------------------------------------------------------

CHAIN_SHAPES = [(4, 8), (6, 16), (8, 24)]


def _invocations(bus):
    return [(r.service_name, r.call_node_id) for r in bus.log.records]


def _assert_identical(full, full_bus, inc, inc_bus):
    assert inc.value_rows() == full.value_rows()
    assert _invocations(inc_bus) == _invocations(full_bus)
    for metrics in (inc.metrics, full.metrics):
        assert (
            metrics.relevance_cache_hits + metrics.queries_reevaluated
            == metrics.relevance_evaluations
        )
    assert full.metrics.relevance_scope_rematches == 0


def engine_sweep():
    rows = []
    # Hotels, layered NFQA — the paper's engine, reported as the honest
    # control: invoked results overlap the query's footprint, so hits
    # are rare and the win is what scoped re-matches save.
    wl = build_hotels_workload(
        HotelsWorkloadParams(n_hotels=200, extra_hotels_via_service=40, seed=13)
    )
    for name, workload, kwargs in [
        ("hotels(200)", wl, dict(strategy=Strategy.LAZY_NFQ)),
    ] + [
        (
            f"chains({d}x{w})",
            build_chain_workload(depth=d, width=w, latency_s=0.0),
            dict(strategy=Strategy.LAZY_NFQ, use_layers=False, parallel=False),
        )
        for d, w in CHAIN_SHAPES
    ]:
        with full_relevance():
            start = time.perf_counter()
            full, full_bus = evaluate_workload(workload, **kwargs)
            full_s = time.perf_counter() - start
        start = time.perf_counter()
        inc, inc_bus = evaluate_workload(workload, **kwargs)
        inc_s = time.perf_counter() - start
        _assert_identical(full, full_bus, inc, inc_bus)
        rows.append(
            (
                name,
                inc.metrics.calls_invoked,
                inc.metrics.relevance_evaluations,
                inc.metrics.relevance_cache_hits,
                inc.metrics.queries_reevaluated,
                inc.metrics.relevance_scope_rematches,
                full_s * 1000,
                inc_s * 1000,
            )
        )
    return rows


def test_e11_engine_equivalence(benchmark, capsys):
    rows = run_once(benchmark, engine_sweep)
    with capsys.disabled():
        print_table(
            "E11: engine end-to-end, whole passes vs per-scope upkeep",
            [
                "workload",
                "invoked",
                "rel-evals",
                "hits",
                "reevals",
                "scope_rematches",
                "full_ms",
                "scoped_ms",
            ],
            rows,
            note="identical rows and invocation order asserted per workload",
        )
    # Plain NFQA re-checks every query every round: hits must show.
    chain_rows = [row for row in rows if row[0].startswith("chains")]
    assert chain_rows and all(row[3] > 0 for row in chain_rows)
