"""The workload factory itself: determinism, regime invariants, and the
fallback paths the regimes exist to reach.

The factory's contract is that every artefact is a pure function of the
spec — two `GeneratedWorkload`s over equal specs must agree
byte-for-byte on documents, service results, queries, and traces.  On
top of that, each named regime must actually *be* what its description
claims (the distinct-key flood must starve the cache, multi-child
roots must defeat AnswerCache scoping, BINDINGS pushing must come back
as tuples), and the fallback
paths those shapes trigger must stay invisible next to the naive
oracle.
"""

from __future__ import annotations

import pytest

from repro.axml.builder import E
from repro.lazy.config import EngineConfig, Strategy
from repro.lazy.continuous import ContinuousQuery
from repro.lazy.engine import LazyQueryEvaluator
from repro.services.service import PushMode
from repro.workloads.factory import (
    REGIMES,
    GeneratedWorkload,
    WorkloadSpec,
    fuzz_spec,
    generate,
    regime,
)

# ---------------------------------------------------------------------------
# Determinism and spec plumbing
# ---------------------------------------------------------------------------


def _structure(node):
    return (node.kind, node.label, tuple(_structure(c) for c in node.children))


def test_generation_is_a_pure_function_of_the_spec():
    """Two workloads over equal specs agree on every artefact."""
    spec = REGIMES["baseline"]
    a, b = generate(spec), generate(spec)
    assert _structure(a.make_document(0).root) == _structure(
        b.make_document(0).root
    )
    assert [q.to_string() for q in a.queries()] == [
        q.to_string() for q in b.queries()
    ]
    assert a.result_forest("svc0", "1:x") is not None
    assert [_structure(n) for n in a.result_forest("svc0", "1:x")] == [
        _structure(n) for n in b.result_forest("svc0", "1:x")
    ]
    assert a.arrival_trace() == b.arrival_trace()
    # And documents rebuild identically across calls (the twin idiom).
    assert _structure(a.make_document(0).root) == _structure(
        a.make_document(0).root
    )


def test_different_seeds_change_the_world():
    base = generate(REGIMES["baseline"])
    other = regime("baseline", seed=REGIMES["baseline"].seed + 1)
    assert _structure(base.make_document(0).root) != _structure(
        other.make_document(0).root
    )


def test_spec_round_trips_through_json():
    for spec in REGIMES.values():
        assert WorkloadSpec.from_json(spec.to_json()) == spec
    with pytest.raises(ValueError):
        WorkloadSpec.from_json({"name": "x", "no_such_field": 1})


def test_fuzz_specs_stay_small():
    for name in REGIMES:
        spec = fuzz_spec(name, seed=7)
        gen = generate(spec)
        assert gen.make_document(0).root.subtree_size() < 5_000
        assert spec.seed == 7


# ---------------------------------------------------------------------------
# Regime invariants: each regime is what it claims to be
# ---------------------------------------------------------------------------


def test_regimes_cover_the_required_adversaries():
    names = set(REGIMES)
    assert len(names) >= 8
    assert {
        "deep-recursion",
        "bindings-push",
        "cache-flood",
        "multi-root-standing",
        "bursty-tenants",
        "large-document",
    } <= names
    for name, spec in REGIMES.items():
        assert spec.name == name
        assert spec.description


def test_large_document_regime_is_pinned_to_a_million_nodes():
    """Spec invariants of the 1M-node arena regime, asserted without
    building it (the full-scale build belongs to the E16 bench)."""
    spec = REGIMES["large-document"]
    assert spec.min_nodes >= 1_000_000
    assert spec.arena_build is True
    assert spec.descendant_probability == 0.0


def test_large_document_compat_regime_reaches_100k_nodes():
    """The pre-arena 100k object-graph twin still builds at full size."""
    gen = regime("large-document-100k")
    assert gen.spec.arena_build is False
    assert gen.make_document(0).root.subtree_size() >= 100_000


def test_arena_build_regimes_attach_a_consistent_mirror():
    """A downsized build of the arena regime must carry a column mirror
    that agrees with the object graph node for node."""
    gen = regime("large-document", min_nodes=2_000)
    document = gen.make_document(0)
    arena = document.arena
    assert arena is not None and arena.document is document
    assert arena.live_nodes == document.root.subtree_size()
    assert arena.consistency_errors() == []


def test_cache_flood_keys_are_distinct():
    gen = regime("cache-flood")
    document = gen.make_document(0)
    keys = [
        (call.label, call.children[0].label)
        for call in document.function_nodes()
    ]
    assert len(keys) > 50
    assert len(set(keys)) == len(keys), "flood keys must not repeat"


def test_multi_root_regime_queries_have_multi_child_roots():
    gen = regime("multi-root-standing")
    for i in range(gen.spec.n_queries):
        assert len(gen.query_for(i).root.children) >= 2


def test_bursty_trace_is_jittered_not_lockstep():
    gen = regime("bursty-tenants")
    trace = gen.arrival_trace()
    assert len(trace) == gen.spec.n_rounds
    n_docs = gen.spec.n_documents
    assert any(len(due) < n_docs for due in trace), "never jitters"
    assert any(due for due in trace), "nothing ever arrives"


# ---------------------------------------------------------------------------
# Fallback path: multi-child-root answer maintenance (AnswerCache)
# ---------------------------------------------------------------------------


def test_multi_child_root_maintenance_takes_the_fallback():
    """A standing query with a multi-child root defeats AnswerCache
    scoping: every relevant splice dirties the whole cache and forces a
    full re-match — which must stay invisible next to the naive oracle
    and the unmaintained twin."""
    gen = regime("multi-root-standing")
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
    cache = kept.answer_cache
    assert cache is not None
    assert cache.scoped is False, "multi-child root must defeat scoping"

    for step in gen.mutation_trace():
        gen.apply_mutation(step, (kept.document, full.document))
        assert kept.refresh().value_rows() == full.refresh().value_rows()
        assert [
            (r.service_name, r.call_node_id) for r in kept_bus.log.records
        ] == [(r.service_name, r.call_node_id) for r in full_bus.log.records]

    counters = cache.counters()
    assert counters["full_matches"] > 0, "the fallback never fired"
    # The final maintained rows equal the from-scratch naive answer.
    assert set(kept.refresh().value_rows()) == gen.oracle_rows(query)
    kept.close()
    full.close()


# ---------------------------------------------------------------------------
# BINDINGS pushing: replies are document data, so no path is a fallback
# (three test names below date from the side table they used to hold)
# ---------------------------------------------------------------------------


def _bindings_replies(log) -> int:
    return sum(1 for record in log.records if record.returned_bindings)


def test_bindings_regime_records_overlay_rows_and_matches_naive():
    """BINDINGS pushing must engage (replies come back as tuples, on at
    least one query of the regime's set) while returning exactly the
    naive oracle's rows on the column plan — including rows whose
    replies land at call positions *deep* in the document, visible only
    to descendant steps."""
    gen = regime("bindings-push")
    assert gen.engine_config().push_mode is PushMode.BINDINGS
    bindings_replies = 0
    for i in range(gen.spec.n_queries):
        query = gen.query_for(i)
        bus = gen.make_bus()
        engine = LazyQueryEvaluator(
            bus, config=gen.engine_config(strategy=Strategy.LAZY_NFQ)
        )
        out = engine.evaluate(query, gen.make_document(0))
        bindings_replies += _bindings_replies(bus.log)
        assert set(out.value_rows()) == gen.oracle_rows(query), i
        assert out.metrics.column_fallback_reasons == {}, i
    assert bindings_replies > 0, "pushing never engaged"


def test_bindings_overlay_disables_the_store_and_maintenance():
    """What it says no longer: under BINDINGS the engine runs the column
    plan over the relevance store like any other mode, and a standing
    query gets its maintained answer — and both stay correct."""
    gen = regime("bindings-push")
    query = gen.query_for(1)  # a query known to get bindings replies
    reference = gen.oracle_rows(query)

    def standing(**overrides):
        bus = gen.make_bus()
        config = gen.engine_config(strategy=Strategy.LAZY_NFQ, **overrides)
        engine = LazyQueryEvaluator(bus, config=config)
        return ContinuousQuery(engine, query, gen.make_document(0)), bus

    def touch(loop):
        """A mutation no query of the regime can see."""
        loop.document.insert_subtree(loop.document.root, E("unseen"))
        return loop.refresh()

    loop, bus = standing()
    pushed = loop.refresh()
    assert _bindings_replies(bus.log) > 0
    assert set(pushed.value_rows()) == reference
    assert pushed.metrics.column_fallback_reasons == {}
    assert pushed.metrics.column_rows > 0
    # The refresh reads the relevance sets the first run left behind.
    invoked = len(bus.log.records)
    again = touch(loop)
    assert again is not pushed
    assert set(again.value_rows()) == reference
    assert len(bus.log.records) == invoked
    assert again.metrics.relevance_cache_hits > 0
    loop.close()

    loop, _ = standing(maintain_answers=True)
    assert loop.answer_cache is not None
    assert set(loop.refresh().value_rows()) == reference
    assert set(touch(loop).value_rows()) == reference
    assert loop.engine_skips == 1, "the maintained answer never served"
    loop.close()


def test_overlay_rows_at_deep_positions_reach_descendant_steps():
    """Regression for the visibility bug the bindings regime flushed
    out of the side table that used to hold bindings replies: a reply
    received at a call position deep in the document stands for
    embeddings a *descendant* step from any ancestor would have found
    in the spliced forest.  BINDINGS must agree with naive
    materialisation even when the pushed call sits levels below the
    node the descendant step is consulted at."""
    spec = WorkloadSpec(
        name="deep-overlay",
        seed=10,
        push_bindings=True,
        variable_probability=1.0,
        call_probability=0.5,
        root_subtrees=(2, 4),
    )
    gen = GeneratedWorkload(spec)
    checked = 0
    for doc_index in range(3):
        for qi in range(3):
            query = gen.query_for(qi)
            out, _ = gen.evaluate(
                query, doc_index, strategy=Strategy.LAZY_NFQ
            )
            naive = gen.oracle_rows(query, doc_index)
            assert set(out.value_rows()) == naive, (doc_index, qi)
            checked += 1
    assert checked == 9


# ---------------------------------------------------------------------------
# Interop
# ---------------------------------------------------------------------------


def test_as_workload_view_evaluates():
    gen = regime("baseline")
    workload = gen.as_workload()
    bus = workload.make_bus()
    engine = LazyQueryEvaluator(
        bus, config=EngineConfig(strategy=Strategy.LAZY_NFQ)
    )
    outcome = engine.evaluate(workload.query, workload.make_document())
    assert set(outcome.value_rows()) == gen.oracle_rows(workload.query)


def test_fault_regimes_wrap_the_registry():
    transient = regime("flaky-retry").registry()
    names = sorted(transient.names())
    assert names == [f"svc{k}" for k in range(REGIMES["flaky-retry"].n_services)]
    # Fresh registries carry fresh fault state: two evaluations of the
    # same faulty regime must not contaminate each other.
    gen = regime("flaky-retry")
    first = gen.oracle_rows()
    second = gen.oracle_rows()
    assert first == second


# ---------------------------------------------------------------------------
# New service names: only a refining family is rebuilt for them
# ---------------------------------------------------------------------------


def _satisfiability_reasons(sink):
    from collections import Counter

    from repro.obs.trace import SATISFIABILITY

    return Counter(
        span.tags["reason"] for span in sink.spans if span.name == SATISFIABILITY
    )


def test_untyped_families_are_not_rebuilt_when_replies_bring_new_names():
    """``baseline/0``'s replies embed calls to services the document
    never named.  An untyped NFQ family has star function nodes — it
    never reads the name universe — so nothing is rebuilt for them:
    one build, one simplification per layer, no ``new_names`` span
    (each used to hand the store an identical family as fresh
    objects: whole passes and recompiled matchers for nothing)."""
    from repro.obs.trace import InMemorySink

    gen = generate(fuzz_spec("baseline", 0))
    named = {c.label for c in gen.make_document(0).function_nodes()}
    sink = InMemorySink()
    outcome, log = gen.evaluate(trace=sink)
    assert {service for service, _, _ in log} - named, "no new name arrived"
    reasons = _satisfiability_reasons(sink)
    assert reasons == {"build": 1, "layer_done": outcome.metrics.layers}
    assert outcome.value_rows() == gen.oracle_rows()


def test_a_refining_family_is_rebuilt_for_a_name_outside_its_universe():
    """Under typing the function alternatives list service names, so a
    reply that brings a service neither bus nor schema knows refines
    the remaining NFQs — once, in the round it arrived."""
    from repro.axml.builder import C, E, V, build_document
    from repro.lazy.config import TypingMode
    from repro.obs.trace import InMemorySink
    from repro.pattern.parse import parse_pattern
    from repro.services.catalog import StaticService
    from repro.services.registry import ServiceBus, ServiceRegistry

    def forest():
        # The unknown call sits where no NFQ of the query looks.
        return [E("junk", C("ghost", V("x")))]

    reasons = {}
    for typing in (TypingMode.NONE, TypingMode.LENIENT):
        sink = InMemorySink()
        engine = LazyQueryEvaluator(
            ServiceBus(ServiceRegistry([StaticService("list", forest())])),
            config=EngineConfig(typing=typing, trace=sink),
        )
        document = build_document(E("r", E("a", C("list", V("k")))))
        outcome = engine.evaluate(parse_pattern("/r/a/$X"), document)
        assert outcome.value_rows() == {("junk",)}
        reasons[typing] = _satisfiability_reasons(sink)
    assert reasons[TypingMode.NONE]["new_names"] == 0
    assert reasons[TypingMode.LENIENT]["new_names"] == 1
