"""Relevance under splices: footprints, the per-scope store, and
engine-level equivalence."""

from __future__ import annotations

import pytest

from repro.axml import build_document
from repro.axml.builder import C, E, V
from repro.lazy import (
    ContinuousQuery,
    EngineConfig,
    FaultPolicy,
    LabelFootprint,
    LazyQueryEvaluator,
    RelevanceStore,
    Strategy,
    build_nfqs,
)
from repro.lazy.incremental import SpliceSignature, Verdict
from repro.pattern.match import Matcher
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

from .conftest import SpliceRecorder
from .references import WalkMatcher, full_relevance, object_walk


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
    deltas = SpliceRecorder(doc).deltas

    call = doc.function_nodes()[0]
    doc.replace_call(call, [E("l1", V("leaf"))])
    signature = SpliceSignature(deltas[-1])
    # The reply under branch, and the removed call with its parameter.
    assert signature.data == {"l1": {"branch"}, "leaf": {"l1"}, "0": {"level1"}}
    assert signature.functions == {"level1": {"branch"}}
    assert fp.touches(signature)  # adds an l1 under branch

    noise = next(n for n in doc.iter_nodes() if n.label == "noise")
    doc.insert_subtree(noise, E("x", V("y")))
    assert not fp.touches(SpliceSignature(deltas[-1]))  # provably clean


# ---------------------------------------------------------------------------
# RelevanceStore
# ---------------------------------------------------------------------------


def _chain_setup():
    doc = build_document(
        E(
            "chain",
            E("branch", C("level1", V("0"))),
            E("branch", C("level1", V("2"))),
            E("side", C("other", V("1"))),
        )
    )
    query = parse_pattern("/chain/branch/l1/$LEAF")
    # /chain[branch[()!]]: the calls directly under a branch.
    (rquery,) = [q for q in build_nfqs(query) if q.target.label == "l1"]
    return doc, rquery


class _Probe:
    """A ``match`` callback over one matcher that records its runs."""

    def __init__(self, doc, pattern):
        self.doc = doc
        self.matcher = Matcher(pattern)
        self.runs = []

    def __call__(self, scope):
        self.runs.append(None if scope is None else scope.node_id)
        rows = (
            self.matcher.evaluate(self.doc)
            if scope is None
            else self.matcher.evaluate_scoped(self.doc, scope)
        )
        return rows.rows


def _private_store(doc):
    """A store of the test's own, the test its one holder."""
    store = RelevanceStore(doc)
    store.hold("test")
    return store


def _retrieve(store, rquery, probe):
    """The retrieved calls: each kept row's one output node."""
    read = store.retrieve(rquery.pattern, probe, "test")
    return [row.nodes[0] for row in read.rows]


def test_cache_hits_until_a_touching_splice():
    doc, rquery = _chain_setup()
    store = _private_store(doc)
    probe = _Probe(doc, rquery.pattern)
    first, second = doc.root.children[:2]

    assert len(_retrieve(store, rquery, probe)) == 2
    assert len(_retrieve(store, rquery, probe)) == 2
    assert (store.hits, store.reevaluations) == (1, 1)
    assert probe.runs == [None]  # the seed: one whole pass

    # A splice outside the footprint leaves the entry a hit...
    side_call = next(
        c for c in doc.function_nodes() if c.label == "other"
    )
    doc.replace_call(side_call, [V("done")])
    assert len(_retrieve(store, rquery, probe)) == 2
    assert store.hits == 2 and probe.runs == [None]

    # ...a splice inside it re-matches the scope it fell in, only.
    doc.replace_call(first.children[0], [C("level2", V("0"))])
    (kept, moved) = sorted(
        _retrieve(store, rquery, probe), key=lambda c: c.label
    )
    assert (kept.label, moved.label) == ("level1", "level2")
    assert probe.runs == [None, first.node_id]
    assert (store.reevaluations, store.scope_rematches) == (2, 1)
    assert store.whole_passes == 1

    # A reply that empties its scope leaves no calls behind there.
    doc.replace_call(moved, [E("l1", V("leaf"))])
    assert _retrieve(store, rquery, probe) == [kept]
    assert probe.runs[-1] == first.node_id
    assert second.node_id not in probe.runs
    store.detach()


def test_an_equal_shape_hits_whatever_object_or_key_carries_it():
    """Query rebuilds (a refresh, a twin, layer simplification landing
    on the same family) produce fresh pattern objects of the same shape
    — they stand on the same entry, whichever object is read."""
    doc, rquery = _chain_setup()
    store = _private_store(doc)
    first = _Probe(doc, rquery.pattern)
    assert len(_retrieve(store, rquery, first)) == 2
    _, rebuilt = _chain_setup()
    assert rebuilt.pattern is not rquery.pattern
    assert rebuilt.pattern.shape == rquery.pattern.shape
    probe = _Probe(doc, rebuilt.pattern)
    found = store.retrieve(rebuilt.pattern, probe, "test")
    assert len(found.rows) == 2 and found.verdict is Verdict.HIT
    assert probe.runs == [], "an equal shape must not re-seed"
    assert (store.hits, store.whole_passes, len(store._entries)) == (1, 1, 1)
    # The shared entry keeps judging splices for both of them.
    branch = doc.root.children[0]
    doc.replace_call(branch.children[0], [E("l1", V("leaf"))])
    assert len(_retrieve(store, rquery, first)) == 1
    assert first.runs == [None, branch.node_id]
    assert len(store.retrieve(rebuilt.pattern, probe, "test").rows) == 1
    assert probe.runs == []
    store.detach()


def test_a_changed_shape_seeds_its_own_entry():
    """A rebuilt pattern of another shape gets an entry of its own: the
    old shape's footprint does not dirty it, and the old entry stays
    for whoever still stands on it."""
    doc, rquery = _chain_setup()
    store = _private_store(doc)
    old = _Probe(doc, rquery.pattern)
    _retrieve(store, rquery, old)

    rebuilt = parse_pattern("/zz/yy/$Q")
    (fresh,) = [
        q for q in build_nfqs(rebuilt) if q.target.label == "Q"
    ]
    fresh.target_uid = rquery.target_uid  # same caller key, other shape
    probe = _Probe(doc, fresh.pattern)
    assert _retrieve(store, fresh, probe) == []
    assert probe.runs == [None] and len(store._entries) == 2

    # A splice touching only the *old* footprint is screened clean.
    branch_call = next(
        c for c in doc.function_nodes() if c.label == "level1"
    )
    doc.replace_call(branch_call, [E("l1", V("leaf"))])
    hits = store.hits
    assert _retrieve(store, fresh, probe) == []
    assert store.hits == hits + 1 and probe.runs == [None]
    assert len(_retrieve(store, rquery, old)) == 1
    assert len(old.runs) == 2  # the old shape re-matched its scope
    store.detach()


def test_a_lagging_entry_is_dropped_without_clearing_its_neighbours(monkeypatch):
    """An entry ``LOG_LIMIT`` splices behind re-seeds; one that kept up
    keeps its sets, and the log keeps only what that one still needs."""
    monkeypatch.setattr(RelevanceStore, "LOG_LIMIT", 4)
    doc, rquery = _chain_setup()
    store = _private_store(doc)
    current = _Probe(doc, rquery.pattern)
    lagging_pattern = parse_pattern("/chain/side/other()!")
    lagging = _Probe(doc, lagging_pattern)
    store.retrieve(rquery.pattern, current, "test")
    store.retrieve(lagging_pattern, lagging, "test")
    side = doc.root.children[2]
    for step in range(6):
        doc.insert_subtree(side, E("pad", V(str(step))))
        store.retrieve(rquery.pattern, current, "test")
        assert len(store._log) <= 4
    assert current.runs == [None], "the neighbour never re-seeded"
    assert len(store.retrieve(lagging_pattern, lagging, "test").rows) == 1
    assert lagging.runs == [None, None]
    # Trimmed to what an entry still needed, not cleared wholesale.
    assert store._base > 0 and len(store._log) <= 4
    store.detach()


def test_root_level_splices_and_the_whole_pass_switch():
    """Replies landing directly under the root dirty the removed and
    added roots' own ids; once most of the root's children are dirty
    one whole pass replaces the scoped runs."""
    doc = build_document(
        E("chain", *(E("branch", C("level1", V(str(i)))) for i in range(6)),
          C("more", V("x")))
    )
    query = parse_pattern("/chain/branch/l1/$LEAF")
    (rquery,) = [q for q in build_nfqs(query) if q.target.label == "l1"]
    store = _private_store(doc)
    probe = _Probe(doc, rquery.pattern)
    assert len(_retrieve(store, rquery, probe)) == 6

    # The root-level call is replaced by two new scopes.
    more = doc.root.children[-1]
    added = [E("branch", C("level1", V("new"))), E("branch", E("l1", V("v")))]
    doc.replace_call(more, added)
    assert len(_retrieve(store, rquery, probe)) == 7
    assert sorted(probe.runs[1:]) == sorted(n.node_id for n in added)

    # Three of eight scopes dirty: scoped runs.  Five: one whole pass.
    runs = len(probe.runs)
    for branch in doc.root.children[:3]:
        doc.replace_call(branch.children[0], [E("l1", V("leaf"))])
    assert len(_retrieve(store, rquery, probe)) == 4
    assert None not in probe.runs[runs:] and len(probe.runs) == runs + 3
    runs = len(probe.runs)
    for branch in doc.root.children[3:7]:
        doc.insert_subtree(branch, E("l1", V("extra")))
    doc.remove_subtree(doc.root.children[7])
    assert len(_retrieve(store, rquery, probe)) == 4
    assert probe.runs[runs:] == [None]
    store.detach()


def test_multi_child_pattern_roots_take_whole_passes():
    doc, _ = _chain_setup()
    pattern = TreePattern(
        pelem(
            "chain",
            pelem("side"),
            pelem("branch", pfunc(["level1"], result=True)),
        )
    )
    store = _private_store(doc)
    probe = _Probe(doc, pattern)
    assert len(store.retrieve(pattern, probe, "test").rows) == 2
    first = doc.root.children[0]
    doc.insert_subtree(first, E("unrelated"))
    assert len(store.retrieve(pattern, probe, "test").rows) == 2
    assert store.hits == 1  # screened by the footprint, still
    doc.replace_call(first.children[0], [V("gone")])
    assert len(store.retrieve(pattern, probe, "test").rows) == 1
    assert probe.runs == [None, None] and store.scope_rematches == 0
    store.detach()


# ---------------------------------------------------------------------------
# Detached forests and counters
# ---------------------------------------------------------------------------


def test_detached_forests_run_the_plan_on_a_throwaway_arena():
    """evaluate_forest runs over nodes outside any document: the plan
    answers over a throwaway document of clones, rows name the caller's
    own nodes, and the forest is neither attached nor numbered."""
    pattern = parse_pattern("/a//b")
    forest = [E("a", E("c", E("b")))]
    matcher = Matcher(pattern)
    rows = matcher.evaluate_forest(forest)
    assert len(rows.rows) == 1
    assert rows.rows[0].nodes[0] is forest[0].children[0].children[0]
    assert matcher.counter.column_pass_nodes > 0
    assert forest[0].parent is None
    assert all(node.node_id is None for node in forest[0].iter_subtree())
    walked = WalkMatcher(pattern).evaluate_forest(forest)
    assert [r.nodes for r in rows] == [r.nodes for r in walked]


def test_child_fast_path_counts_candidates():
    """The CHILD enumeration counts visited candidates too, so the
    metric is comparable across edge kinds."""
    doc = build_document(E("r", E("a", V("1")), E("a", V("2")), E("b")))
    matcher = WalkMatcher(parse_pattern("/r/a/$X"))
    matcher.evaluate(doc)
    assert matcher.candidates_visited > 0


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
    with full_relevance():
        full, full_log = _run_engine(
            wl, paper_query(), strategy=Strategy.LAZY_NFQ
        )
    inc, inc_log = _run_engine(wl, paper_query(), strategy=Strategy.LAZY_NFQ)
    assert inc.value_rows() == full.value_rows()
    assert inc_log == full_log
    for m in (inc.metrics, full.metrics):
        assert m.queries_reevaluated > 0
        assert (
            m.relevance_cache_hits + m.queries_reevaluated
            == m.relevance_evaluations
        )
    assert inc.metrics.relevance_scope_rematches > 0
    assert full.metrics.relevance_scope_rematches == 0
    assert full.metrics.relevance_cache_hits == 0
    # Scoped runs scan fewer slots than whole passes.
    assert 0 < inc.metrics.column_pass_nodes < full.metrics.column_pass_nodes
    # Compiled plans scan the columns; on the object walk the same
    # evaluation is made call for call.
    assert inc.metrics.column_rows > 0
    with object_walk():
        walked, walked_log = _run_engine(
            wl, paper_query(), strategy=Strategy.LAZY_NFQ
        )
    assert walked_log == full_log
    assert walked.metrics.column_pass_nodes == 0
    assert walked.metrics.column_rows == 0


def test_evaluators_meet_in_the_store_by_shape_and_options():
    """Standing queries of separate evaluators over one document read
    one analysis — the process keeps one per shape, options and
    schema — and the document's one store: entries are keyed by
    pattern shape alone, so the second stands on the first one's
    entries and matches nothing again."""
    wl = build_hotels_workload(HotelsWorkloadParams(n_hotels=8))
    doc = wl.make_document()

    def standing():
        engine = LazyQueryEvaluator(
            wl.make_bus(), schema=wl.schema, config=EngineConfig()
        )
        return ContinuousQuery(engine, paper_query(), doc)

    first = standing()
    store = doc.relevance
    seeded = set(store._entries._slots)
    assert first.analysis.query.shape in seeded  # the answer's entry
    twin = standing()
    assert twin.analysis is first.analysis
    # (Not every retrieval: entries seeded before the first one's last
    # invocations find most scopes touched and take a whole pass.)
    assert twin.peek().metrics.relevance_cache_hits > 0
    assert set(store._entries._slots) == seeded, "no entry of its own"
    with pytest.raises(KeyError):  # nobody reads without holding
        store.retrieve(first.analysis.query, lambda scope: [], "a stranger")
    for query in (first, twin):
        query.close()
    assert doc.relevance is None and len(store._entries) == 0


def test_engine_incremental_caches_under_plain_nfqa():
    """Un-layered NFQA re-evaluates every query each round — the regime
    where footprint screening visibly pays."""
    wl = build_chain_workload(depth=5, width=4)
    kwargs = dict(strategy=Strategy.LAZY_NFQ, use_layers=False, parallel=False)
    with full_relevance():
        full, full_log = _run_engine(wl, wl.query, **kwargs)
    inc, inc_log = _run_engine(wl, wl.query, **kwargs)
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

    def run():
        bus = ServiceBus(flaky)
        engine = LazyQueryEvaluator(
            bus,
            schema=wl.schema,
            config=EngineConfig(
                strategy=Strategy.LAZY_NFQ,
                fault_policy=FaultPolicy.FREEZE,
            ),
        )
        outcome = engine.evaluate(paper_query(), wl.make_document())
        return outcome, [
            (r.service_name, r.call_node_id, r.fault)
            for r in bus.log.records
        ]

    with full_relevance():
        full, full_log = run()
    inc, inc_log = run()
    assert full.metrics.calls_frozen > 0
    assert inc.metrics.calls_frozen == full.metrics.calls_frozen
    assert inc.value_rows() == full.value_rows()
    assert inc_log == full_log


def test_engine_match_candidates_metric_counts_child_steps():
    """Regression for the CHILD fast path: a child-only query must
    report its match work in the engine metrics — the slots the plan
    scanned (``column_pass_nodes``), the walk's own candidate counter
    having left the metrics with the walk."""
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
        walked = engine.evaluate(doc_query, workload_doc())
    assert walked.metrics.column_pass_nodes == 0
    outcome = engine.evaluate(doc_query, workload_doc())
    assert outcome.metrics.column_pass_nodes > 0
    assert outcome.value_rows() == walked.value_rows()


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
            trace=sink,
        ),
    )
    engine.evaluate(wl.query, wl.make_document())
    checks = [s for s in sink.spans if s.name == RELEVANCE_CHECK]
    assert checks
    assert all(
        {"cache_hits", "reevaluated", "scope_rematches"} <= set(s.tags)
        for s in checks
    )
    assert sum(s.tags["cache_hits"] for s in checks) > 0
    assert sum(s.tags["scope_rematches"] for s in checks) > 0


def test_an_unread_log_is_bounded(monkeypatch):
    """Nobody retrieving for a long time must not grow the log without
    bound: past the limit the store forgets its entries, which re-seed."""
    monkeypatch.setattr(RelevanceStore, "LOG_LIMIT", 3)
    doc, rquery = _chain_setup()
    store = _private_store(doc)
    probe = _Probe(doc, rquery.pattern)
    _retrieve(store, rquery, probe)
    side = doc.root.children[2]
    for step in range(5):
        doc.insert_subtree(side, E("pad", V(str(step))))
        assert len(store._log) <= 3
    assert len(_retrieve(store, rquery, probe)) == 2
    assert probe.runs == [None, None]
    store.detach()
