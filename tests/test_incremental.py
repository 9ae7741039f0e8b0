"""Incremental relevance analysis: footprints, cache, index-assisted
matching, and engine-level equivalence."""

from __future__ import annotations

from repro.axml import LabelIndex, build_document
from repro.axml.builder import C, E, V
from repro.lazy import (
    EngineConfig,
    FaultPolicy,
    LabelFootprint,
    LazyQueryEvaluator,
    RelevanceCache,
    Strategy,
    build_nfqs,
)
from repro.pattern.match import MatchCounter, Matcher
from repro.pattern.nodes import EdgeKind, pelem, pfunc, por, pstar, pvar
from repro.pattern.parse import parse_pattern
from repro.pattern.pattern import TreePattern
from repro.services.catalog import FailingService, TableService
from repro.services.registry import ServiceBus, ServiceRegistry
from repro.services.resilience import RetryPolicy
from repro.workloads.chains import build_chain_workload
from repro.workloads.hotels import (
    HotelsWorkloadParams,
    build_hotels_workload,
    paper_query,
)

from .conftest import object_walk


# ---------------------------------------------------------------------------
# LabelFootprint
# ---------------------------------------------------------------------------


def test_footprint_collects_labels_and_parent_constraints():
    pattern = parse_pattern('/hotels/hotel[rating="5"]/name')
    fp = LabelFootprint.from_pattern(pattern)
    assert fp.data_labels == {"hotel", "rating", "5", "name"}
    assert not fp.matches_any_data
    assert not fp.matches_any_function

    doc = build_document(
        E("hotels", E("hotel", E("rating", V("5")), E("name", V("Ritz"))))
    )
    nodes = {n.label: n for n in doc.iter_nodes()}
    assert fp.touches_node(nodes["rating"], nodes["rating"].parent)
    assert fp.touches_node(nodes["5"], nodes["5"].parent)
    assert not fp.touches_node(nodes["Ritz"], nodes["Ritz"].parent)
    # Same label under the wrong parent: the child-edge constraint
    # rejects it.
    stray = build_document(E("r", E("other", E("rating", V("1")))))
    stray_rating = next(
        n for n in stray.iter_nodes() if n.label == "rating"
    )
    assert not fp.touches_node(stray_rating, stray_rating.parent)


def test_footprint_descendant_edges_drop_the_parent_constraint():
    pattern = parse_pattern("/hotels//rating")
    fp = LabelFootprint.from_pattern(pattern)
    doc = build_document(E("r", E("anything", E("rating", V("1")))))
    rating = next(n for n in doc.iter_nodes() if n.label == "rating")
    assert fp.touches_node(rating, rating.parent)


def test_footprint_wildcards_and_functions():
    root = pelem(
        "chain",
        pelem(
            "branch",
            por(
                pelem("l1", pvar("LEAF")),
                pfunc(["level1"]),
            ),
        ),
    )
    fp = LabelFootprint.from_pattern(TreePattern(root))
    assert fp.data_labels == {"branch", "l1"}
    assert fp.matches_any_data  # the $LEAF variable
    assert fp.function_names == {"level1"}
    assert not fp.matches_any_function

    starred = TreePattern(pelem("a", pfunc(None, edge=EdgeKind.DESCENDANT)))
    star_fp = LabelFootprint.from_pattern(starred)
    assert star_fp.matches_any_function
    doc = build_document(E("a", E("b", C("anything", V("k")))))
    call = doc.function_nodes()[0]
    assert star_fp.touches_node(call, call.parent)


def test_footprint_or_alternatives_inherit_edge_and_parent():
    # (l1 | level1()) under branch by a child edge: both alternatives
    # carry the "branch" parent constraint.
    root = pelem("chain", pelem("branch", por(pelem("l1"), pfunc(["level1"]))))
    fp = LabelFootprint.from_pattern(TreePattern(root))
    doc = build_document(
        E("chain", E("branch", E("l1")), E("other", E("l1")))
    )
    below_branch, below_other = [
        n for n in doc.iter_nodes() if n.label == "l1"
    ]
    assert fp.touches_node(below_branch, below_branch.parent)
    assert not fp.touches_node(below_other, below_other.parent)


def test_footprint_screens_whole_deltas():
    pattern = parse_pattern("/chain/branch/l1")
    fp = LabelFootprint.from_pattern(pattern)
    doc = build_document(
        E("chain", E("branch", C("level1", V("0"))), E("noise", E("x")))
    )
    index = LabelIndex(doc)  # convenient splice recorder
    deltas = []
    index.splice = lambda document, delta: deltas.append(delta)  # type: ignore

    call = doc.function_nodes()[0]
    doc.replace_call(call, [E("l1", V("leaf"))])
    assert fp.touches(deltas[-1])  # adds an l1 under branch

    noise = next(n for n in doc.iter_nodes() if n.label == "noise")
    doc.insert_subtree(noise, E("x", V("y")))
    assert not fp.touches(deltas[-1])  # disjoint labels: provably clean


# ---------------------------------------------------------------------------
# RelevanceCache
# ---------------------------------------------------------------------------


def _chain_setup():
    doc = build_document(
        E(
            "chain",
            E("branch", C("level1", V("0"))),
            E("side", C("other", V("1"))),
        )
    )
    query = parse_pattern("/chain/branch/l1/$LEAF")
    (rquery,) = [
        q for q in build_nfqs(query) if q.target.label == "LEAF"
    ]
    return doc, rquery


def test_cache_hits_until_a_touching_splice():
    doc, rquery = _chain_setup()
    cache = RelevanceCache(doc)
    evaluations = []

    def evaluate(rq):
        evaluations.append(rq)
        return []

    assert cache.retrieve(rquery, evaluate) == []
    assert cache.retrieve(rquery, evaluate) == []
    assert (cache.hits, cache.reevaluations) == (1, 1)
    assert len(evaluations) == 1

    # A splice outside the footprint leaves the entry valid...
    side_call = next(
        c for c in doc.function_nodes() if c.label == "other"
    )
    doc.replace_call(side_call, [V("done")])
    assert cache.retrieve(rquery, evaluate) == []
    assert cache.hits == 2 and cache.invalidations == 0

    # ...a splice inside it drops the entry.
    branch_call = next(
        c for c in doc.function_nodes() if c.label == "level1"
    )
    doc.replace_call(branch_call, [E("l1", V("leaf"))])
    assert cache.retrieve(rquery, evaluate) == []
    assert cache.invalidations == 1
    assert cache.reevaluations == 2
    cache.detach()


def test_cache_misses_when_the_pattern_object_changes():
    """Query rebuilds (refinement, layer simplification) produce fresh
    pattern objects — the cache must not serve the stale entry."""
    doc, rquery = _chain_setup()
    cache = RelevanceCache(doc)
    cache.retrieve(rquery, lambda rq: [])
    rebuilt_doc, rebuilt = _chain_setup()
    assert rebuilt.target_uid != rquery.target_uid or True
    # Simulate a rebuild for the *same* target: same uid, new pattern.
    rebuilt.target_uid = rquery.target_uid
    calls = []
    cache.retrieve(rebuilt, lambda rq: calls.append(rq) or [])
    assert calls, "fresh pattern object must force a re-evaluation"
    cache.detach()


def test_pattern_mismatch_evicts_the_stale_entry():
    """Regression: a pattern-identity miss used to leave the dead entry
    in place, so the merged footprint (and per-splice screening) kept
    consulting a footprint no live entry owned."""
    doc, rquery = _chain_setup()
    cache = RelevanceCache(doc)
    cache.retrieve(rquery, lambda rq: [])
    assert len(cache._entries) == 1

    # Rebuild the family with a *disjoint* pattern for the same target:
    # the lookup must evict the old entry, not just miss.
    rebuilt = parse_pattern("/zz/yy/$Q")
    (fresh,) = [
        q for q in build_nfqs(rebuilt) if q.target.label == "Q"
    ]
    fresh.target_uid = rquery.target_uid
    assert cache.lookup(fresh) is None
    assert not cache._entries, "stale entry must be evicted on mismatch"

    cache.store(fresh, [])
    # The merged footprint was rebuilt from the live entries only: a
    # splice touching only the *old* footprint is now screened out in
    # one group check instead of dirtying anything.
    branch_call = next(
        c for c in doc.function_nodes() if c.label == "level1"
    )
    screens_before = cache.group_screens
    doc.replace_call(branch_call, [E("l1", V("leaf"))])
    assert cache.group_screens == screens_before + 1
    assert cache.invalidations == 0
    assert cache.lookup(fresh) is not None
    cache.detach()


# ---------------------------------------------------------------------------
# Index-assisted matching == exhaustive walk
# ---------------------------------------------------------------------------


def _hotels_doc():
    wl = build_hotels_workload(HotelsWorkloadParams(n_hotels=12))
    return wl.make_document()


def _match_rows(pattern, doc, index):
    """Rows and work with ``index`` attached — or, given ``None``, by
    the exhaustive walk (the oracle)."""
    counter = MatchCounter()
    matcher = Matcher(pattern, counter=counter, index=index)
    rows = matcher.evaluate(doc)
    return {
        tuple(id(n) for n in row.nodes) for row in rows
    }, counter


def test_index_and_walk_agree_on_hotels_patterns():
    doc = _hotels_doc()
    index = LabelIndex(doc)
    patterns = [
        paper_query(),
        parse_pattern("/hotels//rating"),
        parse_pattern('/hotels/hotel[rating="5"]//name'),
        parse_pattern("/hotels//restaurant[name=$X]"),
        TreePattern(
            pelem("hotels", pfunc(None, edge=EdgeKind.DESCENDANT, result=True))
        ),
        TreePattern(
            pelem(
                "hotels",
                por(
                    pelem("restaurant", result=False),
                    pfunc(["getRating"]),
                    edge=EdgeKind.DESCENDANT,
                ),
                pstar(edge=EdgeKind.DESCENDANT, result=True),
            )
        ),
    ]
    for pattern in patterns:
        with_index, ic = _match_rows(pattern, doc, index)
        without, wc = _match_rows(pattern, doc, None)
        assert with_index == without, pattern.to_string()
        assert wc.index_candidates == 0
    index.detach()


def test_index_agreement_survives_splices():
    wl = build_hotels_workload(HotelsWorkloadParams(n_hotels=8))
    doc = wl.make_document()
    bus = wl.make_bus()
    index = LabelIndex(doc)
    pattern = parse_pattern('/hotels//restaurant[rating="5"]/name')
    for _ in range(4):
        calls = [c for c in doc.function_nodes()]
        if not calls:
            break
        from repro.services.registry import ServiceCall

        outcome = bus.invoke(
            ServiceCall(
                service=calls[0].label,
                parameters=calls[0].children,
                call_node_id=calls[0].node_id,
            )
        )
        assert outcome.reply is not None
        doc.replace_call(calls[0], outcome.reply.forest)
        with_index, _ = _match_rows(pattern, doc, index)
        without, _ = _match_rows(pattern, doc, None)
        assert with_index == without
    index.detach()


def test_matcher_falls_back_on_detached_forests():
    """evaluate_forest runs over nodes outside the indexed document —
    the index must not answer for them."""
    doc = build_document(E("r", E("a", E("b"))))
    index = LabelIndex(doc)
    pattern = parse_pattern("/a//b")
    forest = [E("a", E("c", E("b")))]
    matcher = Matcher(pattern, index=index)
    rows = matcher.evaluate_forest(forest)
    assert len(rows.rows) == 1
    assert matcher.counter.index_candidates == 0
    index.detach()


def test_child_fast_path_counts_candidates():
    """The CHILD enumeration counts visited candidates too, so the
    metric is comparable across edge kinds."""
    doc = build_document(E("r", E("a", V("1")), E("a", V("2")), E("b")))
    matcher = Matcher(parse_pattern("/r/a/$X"))
    matcher.evaluate(doc)
    assert matcher.counter.candidates_visited > 0


# ---------------------------------------------------------------------------
# Engine integration
# ---------------------------------------------------------------------------


def _run_engine(workload, query, **config_kwargs):
    bus = workload.make_bus()
    engine = LazyQueryEvaluator(
        bus,
        schema=workload.schema,
        config=EngineConfig(**config_kwargs),
    )
    outcome = engine.evaluate(query, workload.make_document())
    log = [(r.service_name, r.call_node_id) for r in bus.log.records]
    return outcome, log


def test_engine_incremental_equals_full_on_hotels():
    wl = build_hotels_workload(HotelsWorkloadParams(n_hotels=16))
    full, full_log = _run_engine(
        wl, paper_query(), strategy=Strategy.LAZY_NFQ
    )
    inc, inc_log = _run_engine(
        wl, paper_query(), strategy=Strategy.LAZY_NFQ, incremental=True
    )
    assert inc.value_rows() == full.value_rows()
    assert inc_log == full_log
    m = inc.metrics
    assert m.queries_reevaluated > 0
    assert (
        m.relevance_cache_hits + m.queries_reevaluated
        == m.relevance_evaluations
    )
    # Compiled plans scan the columns; the label index serves the
    # object walk's descendant steps.
    assert m.index_candidates == 0 and m.column_pass_nodes > 0
    with object_walk():
        walked, walked_log = _run_engine(
            wl, paper_query(), strategy=Strategy.LAZY_NFQ, incremental=True
        )
    assert walked_log == full_log
    assert walked.metrics.index_candidates > 0
    assert full.metrics.relevance_cache_hits == 0
    assert full.metrics.queries_reevaluated == 0


def test_engine_incremental_caches_under_plain_nfqa():
    """Un-layered NFQA re-evaluates every query each round — the regime
    where footprint screening visibly pays."""
    wl = build_chain_workload(depth=5, width=4)
    full, full_log = _run_engine(
        wl, wl.query, strategy=Strategy.LAZY_NFQ,
        use_layers=False, parallel=False,
    )
    inc, inc_log = _run_engine(
        wl, wl.query, strategy=Strategy.LAZY_NFQ,
        use_layers=False, parallel=False, incremental=True,
    )
    assert inc.value_rows() == full.value_rows()
    assert inc_log == full_log
    assert inc.metrics.relevance_cache_hits > 0
    assert (
        inc.metrics.queries_reevaluated
        < full.metrics.relevance_evaluations
    )


def test_engine_incremental_with_frozen_calls():
    """FREEZE mutates activation without a document event; the engine
    filters at read time, so results still match the full engine."""
    wl = build_hotels_workload(HotelsWorkloadParams(n_hotels=10))
    base = wl.registry
    flaky = ServiceRegistry(
        FailingService(name, base.resolve(name), failures=10_000)
        if name == "getRating"
        else base.resolve(name)
        for name in base.names()
    )

    def run(incremental):
        bus = ServiceBus(flaky)
        engine = LazyQueryEvaluator(
            bus,
            schema=wl.schema,
            config=EngineConfig(
                strategy=Strategy.LAZY_NFQ,
                fault_policy=FaultPolicy.FREEZE,
                incremental=incremental,
            ),
        )
        outcome = engine.evaluate(paper_query(), wl.make_document())
        return outcome, [
            (r.service_name, r.call_node_id, r.fault)
            for r in bus.log.records
        ]

    full, full_log = run(False)
    inc, inc_log = run(True)
    assert full.metrics.calls_frozen > 0
    assert inc.metrics.calls_frozen == full.metrics.calls_frozen
    assert inc.value_rows() == full.value_rows()
    assert inc_log == full_log


def test_engine_incremental_with_fguide_composes():
    wl = build_hotels_workload(HotelsWorkloadParams(n_hotels=12))
    full, full_log = _run_engine(
        wl, paper_query(), strategy=Strategy.LAZY_NFQ, use_fguide=True
    )
    inc, inc_log = _run_engine(
        wl, paper_query(),
        strategy=Strategy.LAZY_NFQ, use_fguide=True, incremental=True,
    )
    assert inc.value_rows() == full.value_rows()
    assert inc_log == full_log


def test_engine_match_candidates_metric_counts_child_steps():
    """Regression for the CHILD fast path: a child-only query must
    report visited candidates in the engine metrics."""
    registry = ServiceRegistry(
        [TableService("get", {}, default=[V("leaf")])]
    )
    doc_query = parse_pattern("/r/a/$X")

    def workload_doc():
        return build_document(
            E("r", E("a", C("get", V("k"))), E("a", V("x")))
        )

    engine = LazyQueryEvaluator(
        ServiceBus(registry), config=EngineConfig(strategy=Strategy.LAZY_NFQ)
    )
    with object_walk():
        outcome = engine.evaluate(doc_query, workload_doc())
    assert outcome.metrics.match_candidates_visited > 0
    # On the default path the same effort lands in the column counter.
    outcome = engine.evaluate(doc_query, workload_doc())
    assert outcome.metrics.match_candidates_visited == 0
    assert outcome.metrics.column_pass_nodes > 0


def test_incremental_trace_tags_cache_activity():
    from repro.obs.trace import InMemorySink, RELEVANCE_CHECK

    wl = build_chain_workload(depth=4, width=3)
    sink = InMemorySink()
    bus = wl.make_bus()
    engine = LazyQueryEvaluator(
        bus,
        schema=wl.schema,
        config=EngineConfig(
            strategy=Strategy.LAZY_NFQ,
            use_layers=False,
            parallel=False,
            incremental=True,
            trace=sink,
        ),
    )
    engine.evaluate(wl.query, wl.make_document())
    checks = [s for s in sink.spans if s.name == RELEVANCE_CHECK]
    assert checks
    assert all("cache_hits" in s.tags and "reevaluated" in s.tags
               for s in checks)
    assert sum(s.tags["cache_hits"] for s in checks) > 0
