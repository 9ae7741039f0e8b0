"""Typed analyses on the shared path (Section 5).

A refining :class:`~repro.lazy.analysis.QueryAnalysis` is held once per
query shape, like an untyped one: its name universe starts from the
schema's names and learns the bus's and each document's service names
before a family is read.  The premise that makes one analysis
serve every document: a name no node of the document carries retrieves
nothing there, so a larger universe changes no retrieval, no invocation
and no row.
"""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import given, strategies as st

import repro
from repro import kept
from repro.axml.builder import C, E, V
from repro.lazy import analysis as analyses
from repro.lazy.config import EngineConfig
from repro.lazy.engine import LazyQueryEvaluator, _EvaluationState
from repro.schema.schema import Schema
from repro.services.catalog import StaticService, TableService
from repro.services.registry import (
    ServiceBus,
    ServiceRegistry,
    UnknownServiceError,
)
from repro.workloads.factory import fuzz_spec, generate
from repro.workloads.hotels import (
    HOTELS_SCHEMA_TEXT,
    HotelsWorkloadParams,
    build_hotels_workload,
)

from .references import object_walk

REGIMES = ("baseline", "deep-recursion", "wide-flat", "cache-flood")
#: Names no world's document carries: one the schema types narrowly,
#: one it leaves untyped (it may return anything, so it satisfies
#: every target), one typed like a data-returning service.
EXTRA_NAMES = ("zeta", "mystery", "eta")


def _schema(base=None) -> Schema:
    schema = (
        repro.parse_schema(HOTELS_SCHEMA_TEXT) if base == "hotels" else Schema()
    )
    schema.declare_function("zeta", "data", "zzz*")
    schema.declare_function("eta", "data", "data")
    return schema


def _fuzz_world(name, seed, query_index):
    gen = generate(fuzz_spec(name, seed))
    document_index = gen.document_for_query(query_index)
    return (
        gen.query_for(query_index),
        lambda: gen.make_document(document_index),
        gen.make_bus,
        _schema(),
        gen.engine_config(typing="lenient"),
    )


def _hotels_world(seed, query_index):
    workload = build_hotels_workload(HotelsWorkloadParams(n_hotels=6, seed=seed))
    texts = (
        None,
        "/hotels/hotel/nearby//name/$N",
        '/hotels/hotel[rating="5"]/name/$N',
    )
    text = texts[query_index % len(texts)]
    return (
        repro.parse_pattern(text) if text else workload.query,
        workload.make_document,
        workload.make_bus,
        _schema("hotels"),
        EngineConfig(typing="lenient"),
    )


def _run(world, extra):
    """Retrieved call ids per invoking round, the invocation log and
    the rows, with ``extra`` names grown into a fresh analysis first
    (the kept ones are forgotten: a kept analysis may carry the names
    of an earlier run)."""
    query, make_document, make_bus, schema, config = world
    kept.forget()
    bus = make_bus()
    engine = LazyQueryEvaluator(bus, schema=schema, config=config)
    analysis = engine.acquire(query)
    analysis.add_function_names(extra)
    retrieved = []
    collect = _EvaluationState._collect_relevant

    def spy(state, layer):
        found = collect(state, layer)
        if found:
            retrieved.append(sorted(found))
        return found

    with mock.patch.object(_EvaluationState, "_collect_relevant", spy):
        outcome = engine.evaluate(query, make_document(), analysis=analysis)
    engine.release(analysis)
    log = [(r.service_name, r.call_node_id, r.fault) for r in bus.log.records]
    return retrieved, log, outcome.value_rows()


@given(
    world=st.one_of(
        st.builds(
            _fuzz_world,
            st.sampled_from(REGIMES),
            st.integers(min_value=0, max_value=5_000),
            st.integers(min_value=0, max_value=1),
        ),
        st.builds(
            _hotels_world,
            st.integers(min_value=0, max_value=5_000),
            st.integers(min_value=0, max_value=2),
        ),
    ),
    extra=st.sets(st.sampled_from(EXTRA_NAMES), min_size=1),
)
def test_a_larger_name_universe_changes_no_retrieval(world, extra):
    """The premise of one typed analysis per shape: any universe that
    contains the document's names retrieves what a fresh one does, round
    by round, and so invokes the same calls in the same order."""
    assert _run(world, extra) == _run(world, set())


def test_extra_names_do_reach_the_family():
    """Not vacuous: an untyped extra name gives targets the fresh
    universe prunes a query of their own (the layers widen), and still
    nothing retrieved or invoked changes."""
    world = _hotels_world(1, 0)
    query, _, make_bus, schema, config = world
    sizes = []
    for extra in (set(), {"mystery"}):
        kept.forget()  # each universe measured on a fresh analysis
        engine = LazyQueryEvaluator(make_bus(), schema=schema, config=config)
        analysis = engine.acquire(query)
        analysis.add_function_names(extra)
        sizes.append(len(analysis.family()))
        engine.release(analysis)
    assert sizes[0] < sizes[1]
    assert _run(world, {"mystery"}) == _run(world, set())


# -- the shared typed analysis under serving ---------------------------------


def _hotels_document():
    return repro.build_document(
        E(
            "hotels",
            E(
                "hotel",
                E("name", V("Ritz")),
                E("address", V("1 Madison Av.")),
                E("rating", V("5")),
                E(
                    "nearby",
                    C("getNearbyRestos", V("1 Madison Av.")),
                    C("getNearbyMuseums", V("1 Madison Av.")),
                ),
            ),
        )
    )


def _restos():
    return TableService(
        "getNearbyRestos",
        {"1 Madison Av.": [E("restaurant", E("name", V("Nobu")))]},
    )


RESTAURANTS = "/hotels/hotel/nearby/restaurant/name/$R"


def _typed_server(registry):
    return repro.QueryServer(
        registry,
        config=EngineConfig.serving(typing="lenient"),
        schema=repro.parse_schema(HOTELS_SCHEMA_TEXT),
    )


def test_typed_twins_share_one_analysis_and_its_store_entries():
    server = _typed_server(
        ServiceRegistry([_restos(), StaticService("getNearbyMuseums", [])])
    )
    document = _hotels_document()
    first = server.subscribe(RESTAURANTS, document)
    entries = len(document.relevance._entries)
    second = server.subscribe(RESTAURANTS, document)
    assert first._core.analysis is second._core.analysis
    assert first._core.analysis.refining
    assert len(analyses._analyses) == 1
    # The twin reads the first one's store entries and seeds none.
    assert len(document.relevance._entries) == entries
    assert second.result.metrics.relevance_cache_hits > 0
    # Typed pruning: the museums call is never invoked.
    assert [r.service_name for r in server.bus.log.records] == [
        "getNearbyRestos"
    ]
    assert first.rows == second.rows == {("Nobu",)}
    server.close()
    assert document.relevance is None and len(analyses._analyses) == 0


@pytest.mark.parametrize(
    "text, before, after",
    [
        (RESTAURANTS, {("Nobu",)}, {("Nobu",), ("Katz",)}),
        # No known service can produce a bar: the typed family has no
        # query for it until the new name arrives (the layers widen).
        ("/hotels/hotel/nearby/bar/name/$B", set(), {("Joe's",)}),
    ],
)
def test_a_name_nobody_knew_is_learned_from_the_document(text, before, after):
    """A call of a service neither the registry nor the schema knew when
    the typed subscription was made, inserted by an author later: the
    analysis learns its name from the document before it reads a family,
    so the call is retrieved — the rows are the naive oracle's."""
    registry = ServiceRegistry(
        [_restos(), StaticService("getNearbyMuseums", [])]
    )
    server = _typed_server(registry)
    document = _hotels_document()
    sub = server.subscribe(text, document)
    assert sub.rows == before
    registry.register(
        StaticService(
            "zagat",
            [
                E("restaurant", E("name", V("Katz"))),
                E("bar", E("name", V("Joe's"))),
            ],
        )
    )
    nearby = document.root.children[0].children[3]
    document.insert_subtree(nearby, C("zagat", V("x")))
    report = server.run_round()
    assert report.counts() == {"evaluated": 1}
    assert "zagat" in {r.service_name for r in server.bus.log.records}
    with object_walk():
        naive = repro.evaluate(
            text,
            repro.serialize_document(document),
            services=registry,
            strategy="naive",
        )
    assert sub.rows == naive.value_rows() == after
    server.close()


def test_a_name_only_the_document_carries_is_retrieved():
    """No registry or schema knows ``ghost``: the name comes from the
    document's labels alone, and the typed probe retrieves the call —
    a run then tries to invoke it, as the naive oracle does."""
    registry = ServiceRegistry(
        [_restos(), StaticService("getNearbyMuseums", [])]
    )
    engine = LazyQueryEvaluator(
        ServiceBus(registry),
        schema=repro.parse_schema(HOTELS_SCHEMA_TEXT),
        config=EngineConfig(typing="lenient"),
    )
    query = repro.parse_pattern(RESTAURANTS)
    document = _hotels_document()
    engine.evaluate(query, document)
    analysis = engine.acquire(query)
    # The museums call is still live, and typing rules it out.
    assert engine.is_quiet(query, document, analysis)
    nearby = document.root.children[0].children[3]
    document.insert_subtree(nearby, C("ghost", V("x")))
    assert not engine.is_quiet(query, document, analysis)
    for run in (
        lambda: engine.evaluate(query, document, analysis=analysis),
        lambda: repro.evaluate(
            query, document.copy(), services=registry, strategy="naive"
        ),
    ):
        with pytest.raises(UnknownServiceError, match="ghost"):
            run()
    engine.release(analysis)


BARS_SCHEMA = """
functions:
  getBars = [in: data, out: bar*]
elements:
  hotels = hotel*
  hotel  = name.nearby
  nearby = getBars*.bar*
  bar    = name | zagat
  name   = data
"""


def test_a_registered_name_a_reply_brings_is_in_the_layout():
    """``zagat`` is registered but untyped.  Under the schema's names
    alone no service can produce the query's ``name``, so that target
    has no query; the run learns the bus's names before it lays out
    its layers, so the ``zagat`` call a ``getBars`` reply brings to
    that position is retrieved in the same run."""
    registry = ServiceRegistry(
        [
            StaticService("getBars", [E("bar", C("zagat", V("x")))]),
            StaticService("zagat", [E("name", V("Joe's"))]),
        ]
    )
    rows = {}
    for name, config in (
        ("naive", EngineConfig(strategy="naive")),
        ("untyped", EngineConfig()),
        ("lenient", EngineConfig(typing="lenient")),
    ):
        document = E(
            "hotels",
            E("hotel", E("name", V("Ritz")), E("nearby", C("getBars", V("k")))),
        )
        rows[name] = repro.evaluate(
            "/hotels/hotel/nearby/bar/name/$B",
            document,
            services=registry,
            schema=repro.parse_schema(BARS_SCHEMA),
            config=config,
        ).value_rows()
    assert rows["lenient"] == rows["untyped"] == rows["naive"] == {("Joe's",)}


# -- function pattern nodes under typing ---------------------------------------


@pytest.mark.parametrize("typing", ["lenient", "exact"])
@pytest.mark.parametrize(
    "text",
    [
        "/hotels/hotel/nearby/()",
        "/hotels/hotel/nearby/(getNearbyRestos|getNearbyMuseums)()",
        "/hotels/hotel[nearby/(getNearbyRestos)()]/name/$N",
    ],
)
def test_typed_queries_with_function_nodes(text, typing):
    """``sub_q_v`` holding a function node is not a plain pattern: the
    target keeps every name instead of failing the satisfiability
    test."""
    workload = build_hotels_workload(HotelsWorkloadParams(n_hotels=6))
    runs = {}
    for mode in ("none", typing):
        bus = ServiceBus(workload.registry)
        outcome = repro.evaluate(
            text,
            workload.make_document(),
            services=bus,
            schema=workload.schema,
            config=EngineConfig(typing=mode),
        )
        runs[mode] = outcome
    assert runs[typing].value_rows() == runs["none"].value_rows()
    assert runs[typing].metrics.calls_invoked <= runs["none"].metrics.calls_invoked


@pytest.mark.parametrize("typing", ["lenient", "exact"])
def test_typed_query_for_the_calls_themselves(typing):
    gen = generate(fuzz_spec("baseline", 3))
    runs = {
        mode: gen.evaluate(repro.parse_pattern("/root//svc1()"), typing=mode)
        for mode in ("none", typing)
    }
    (typed, typed_log), (plain, plain_log) = runs[typing], runs["none"]
    assert typed.value_rows() == plain.value_rows()
    assert len(typed_log) <= len(plain_log)
