"""Tests for the one-shot ``repro.evaluate`` facade."""

import pytest

import repro
from repro.axml.builder import C, E, V
from repro.axml.xmlio import serialize_document
from repro.lazy.config import EngineConfig, FaultPolicy, Strategy
from repro.obs.trace import EVALUATE, InMemorySink
from repro.services.catalog import StaticService
from repro.services.registry import ServiceBus, ServiceRegistry
from repro.workloads.hotels import (
    HotelsWorkloadParams,
    build_hotels_workload,
    figure_1_document,
    figure_1_registry,
    figure_1_schema,
    paper_query,
)

QUERY = "/r/x/$V"
EXPECTED_FIG1_ROWS = {
    ("Jo Mama", "75, 2nd Av."),
    ("In Delis", "2nd Ave."),
    ("Liberty Diner", "2 Liberty Pl."),
}


def services():
    return [
        StaticService("f", [E("x", V("1"))]),
        StaticService("g", [E("x", V("2"))]),
    ]


def root():
    return E("r", C("f"), C("g"), E("x", V("0")))


def test_facade_is_exported_at_top_level():
    assert repro.evaluate is not None
    outcome = repro.evaluate(
        paper_query(), figure_1_document(), services=figure_1_registry()
    )
    assert outcome.value_rows() == EXPECTED_FIG1_ROWS


def test_default_path_matches_through_the_arena():
    """The front door with no config must not silently fall off the
    column evaluator: the paper query's OR-bearing NFQ family runs on
    compiled plans over the document's own arena."""
    text = serialize_document(figure_1_document())
    outcome = repro.evaluate(
        "/hotels/hotel[name=\"Best Western\"][rating=\"5\"]/nearby"
        "//restaurant[name=$X][address=$Y][rating=\"5\"]",
        text,
        services=figure_1_registry(),
    )
    assert outcome.metrics.arena_nodes > 0
    assert outcome.metrics.arena_nodes == outcome.document.live_nodes
    assert outcome.metrics.column_rows > 0
    assert outcome.metrics.column_fallbacks == 0
    assert outcome.document.arena.consistency_errors() == []


def test_accepts_string_query_and_node_document():
    outcome = repro.evaluate(QUERY, root(), services=services())
    assert outcome.value_rows() == {("0",), ("1",), ("2",)}


def test_accepts_xml_text_document():
    text = serialize_document(figure_1_document())
    outcome = repro.evaluate(
        paper_query(), text, services=figure_1_registry()
    )
    assert outcome.value_rows() == EXPECTED_FIG1_ROWS


def test_accepts_service_list_registry_and_bus():
    by_list = repro.evaluate(QUERY, root(), services=services())
    by_registry = repro.evaluate(
        QUERY, root(), services=ServiceRegistry(services())
    )
    bus = ServiceBus(ServiceRegistry(services()))
    by_bus = repro.evaluate(QUERY, root(), services=bus)
    assert (
        by_list.value_rows() == by_registry.value_rows() == by_bus.value_rows()
    )
    assert bus.log.call_count == by_bus.metrics.calls_invoked  # bus reused


def test_strategy_shorthand_and_string_coercion():
    lazy = repro.evaluate(QUERY, root(), services=services())
    naive = repro.evaluate(
        QUERY, root(), services=services(), strategy="naive"
    )
    assert naive.metrics.strategy == "naive"
    assert naive.value_rows() == lazy.value_rows()


def test_config_passes_through():
    outcome = repro.evaluate(
        QUERY,
        root(),
        services=services(),
        config=EngineConfig(
            strategy=Strategy.NAIVE, fault_policy=FaultPolicy.FREEZE
        ),
    )
    assert outcome.metrics.strategy == "naive"


def test_conflicting_strategy_and_config_raise():
    with pytest.raises(ValueError, match="conflicting strategies"):
        repro.evaluate(
            QUERY,
            root(),
            services=services(),
            strategy=Strategy.NAIVE,
            config=EngineConfig(strategy=Strategy.TOP_DOWN),
        )


def test_trace_kwarg_collects_spans():
    sink = InMemorySink()
    repro.evaluate(QUERY, root(), services=services(), trace=sink)
    assert len(sink.roots) == 1
    assert sink.roots[0].name == EVALUATE


def _log(bus):
    return [(r.service_name, r.call_node_id) for r in bus.log.records]


def _hotels():
    w = build_hotels_workload(HotelsWorkloadParams(n_hotels=12))
    return w.query, w.make_document, w.registry, w.schema


def _figure_1():
    return paper_query(), figure_1_document, figure_1_registry(), figure_1_schema()


@pytest.mark.parametrize(
    "world", [_figure_1, _hotels], ids=["figure-1", "hotels"]
)
def test_a_given_schema_is_used(world):
    """Without a config, ``schema=`` runs lenient typing: the rows and
    invocation log of ``config=EngineConfig(typing="lenient")``, and
    fewer calls than the untyped run the caller can still write."""
    query, make_document, registry, schema = world()
    runs = {}
    for name, config in (
        ("default", None),
        ("lenient", EngineConfig(typing="lenient")),
        ("untyped", EngineConfig()),
    ):
        bus = ServiceBus(registry)
        outcome = repro.evaluate(
            query, make_document(), services=bus, schema=schema, config=config
        )
        runs[name] = (outcome, _log(bus))
    default, lenient, untyped = runs["default"], runs["lenient"], runs["untyped"]
    assert default[0].metrics.strategy == "lazy-nfq+lenient"
    assert default[0].value_rows() == lenient[0].value_rows()
    assert default[1] == lenient[1]
    # An explicit config is obeyed as written.
    assert untyped[0].metrics.strategy == "lazy-nfq"
    assert untyped[0].value_rows() == default[0].value_rows()
    assert len(default[1]) < len(untyped[1])


def test_no_schema_or_no_nfq_means_untyped():
    outcome = repro.evaluate(
        paper_query(), figure_1_document(), services=figure_1_registry()
    )
    assert outcome.metrics.strategy == "lazy-nfq"
    for strategy in ("naive", "top-down", "lazy-lpq"):
        outcome = repro.evaluate(
            paper_query(),
            figure_1_document(),
            services=figure_1_registry(),
            schema=figure_1_schema(),
            strategy=strategy,
        )
        assert outcome.metrics.strategy == strategy
        assert outcome.value_rows() == EXPECTED_FIG1_ROWS


def test_trace_kwarg_does_not_mutate_the_given_config():
    sink = InMemorySink()
    config = EngineConfig()
    repro.evaluate(
        QUERY, root(), services=services(), config=config, trace=sink
    )
    assert config.trace is None
    assert sink.roots
