"""Tests for the workload generators themselves."""

from repro.lazy.config import EngineConfig, Strategy
from repro.lazy.engine import LazyQueryEvaluator
from repro.schema.schema import parse_schema
from repro.workloads.hotels import (
    HotelsWorkloadParams,
    build_hotels_workload,
    figure_1_document,
    figure_1_registry,
    figure_1_schema,
)
from repro.workloads.nightlife import NightlifeParams, build_nightlife_workload
from repro.workloads.queries import ALL_HOTELS_QUERIES
from repro.workloads.synthetic import SyntheticWorld, materialize


def test_figure_1_document_is_schema_valid():
    assert figure_1_schema().validate_document(figure_1_document()) == []


def test_figure_1_services_produce_schema_valid_outputs():
    schema = figure_1_schema()
    registry = figure_1_registry()
    from repro.axml.builder import V

    for name, key in [
        ("getNearbyRestos", "75, 2nd Av."),
        ("getNearbyMuseums", "any"),
        ("getRating", "22 Madison Av."),
        ("getHotels", "NY"),
    ]:
        forest = registry.resolve(name).produce([V(key)])
        assert schema.validate_output(name, forest) == [], name


def test_hotels_workload_documents_are_deterministic():
    wl = build_hotels_workload(HotelsWorkloadParams(n_hotels=8, seed=5))
    a, b = wl.make_document(), wl.make_document()
    assert a.root.structurally_equal(b.root)


def test_hotels_workload_is_schema_valid():
    wl = build_hotels_workload(HotelsWorkloadParams(n_hotels=8, seed=5))
    assert wl.schema.validate_document(wl.make_document()) == []


def test_hotels_workload_scales():
    small = build_hotels_workload(HotelsWorkloadParams(n_hotels=5, seed=1))
    large = build_hotels_workload(HotelsWorkloadParams(n_hotels=40, seed=1))
    assert (
        large.make_document().stats().total_nodes
        > small.make_document().stats().total_nodes * 4
    )


def test_hotels_queries_parse_against_workload():
    wl = build_hotels_workload(HotelsWorkloadParams(n_hotels=6, seed=2))
    bus = wl.make_bus()
    for name, factory in ALL_HOTELS_QUERIES.items():
        q = factory()
        out = LazyQueryEvaluator(
            bus, schema=wl.schema, config=EngineConfig(strategy=Strategy.LAZY_NFQ)
        ).evaluate(q, wl.make_document())
        assert out.metrics.completed, name


def test_nightlife_lazy_never_touches_restaurants():
    wl = build_nightlife_workload(NightlifeParams(n_theaters=4, n_restaurants=6))
    bus = wl.make_bus()
    out = LazyQueryEvaluator(
        bus, schema=wl.schema, config=EngineConfig(strategy=Strategy.LAZY_NFQ)
    ).evaluate(wl.query, wl.make_document())
    services = bus.log.calls_by_service()
    assert "getRestaurantList" not in services
    assert "getMenu" not in services
    assert out.metrics.completed


def test_nightlife_typed_also_skips_reviews():
    wl = build_nightlife_workload(NightlifeParams(n_theaters=4, n_restaurants=6))
    bus = wl.make_bus()
    out = LazyQueryEvaluator(
        bus,
        schema=wl.schema,
        config=EngineConfig(typing="lenient"),
    ).evaluate(wl.query, wl.make_document())
    services = bus.log.calls_by_service()
    assert set(services) == {"getShows"}


def test_nightlife_results_mention_target_schedule():
    wl = build_nightlife_workload(NightlifeParams(seed=1))
    bus = wl.make_bus()
    out = LazyQueryEvaluator(
        bus, schema=wl.schema, config=EngineConfig(strategy=Strategy.NAIVE)
    ).evaluate(wl.query, wl.make_document())
    assert out.rows
    for row in out.rows:
        assert row.nodes[0].label == "schedule"


def test_synthetic_world_is_deterministic():
    w1, w2 = SyntheticWorld(seed=5), SyntheticWorld(seed=5)
    d1, d2 = w1.make_document(3), w2.make_document(3)
    assert d1.root.structurally_equal(d2.root)
    f1 = w1.result_forest("svc0", "1:x")
    f2 = w2.result_forest("svc0", "1:x")
    assert len(f1) == len(f2)
    assert all(a.structurally_equal(b) for a, b in zip(f1, f2))


def test_synthetic_budget_bounds_nesting():
    world = SyntheticWorld(seed=6)
    doc = world.make_document(0, call_budget=1)
    # Materialise fully: must terminate well within the guard.
    materialize(doc, world.bus(), max_calls=400)
    assert not doc.function_nodes()


def test_synthetic_queries_are_well_formed():
    world = SyntheticWorld(seed=7)
    for i in range(5):
        doc = world.make_document(i)
        q = world.sample_query(doc, i)
        q.validate()
        assert q.root.label == "root"
        assert q.result_nodes()
