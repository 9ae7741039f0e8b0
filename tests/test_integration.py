"""Integration tests: full pipelines across workloads and configs."""

import itertools

import pytest

from repro.lazy.config import EngineConfig, Strategy, TypingMode
from repro.lazy.engine import LazyQueryEvaluator
from repro.services.service import PushMode
from repro.workloads.hotels import HotelsWorkloadParams, build_hotels_workload
from repro.workloads.nightlife import NightlifeParams, build_nightlife_workload
from repro.workloads.queries import ALL_HOTELS_QUERIES


def evaluate(workload, query, **config_kwargs):
    bus = workload.make_bus()
    engine = LazyQueryEvaluator(
        bus, schema=workload.schema, config=EngineConfig(**config_kwargs)
    )
    return engine.evaluate(query, workload.make_document()), bus


CONFIG_GRID = [
    dict(strategy=Strategy.NAIVE),
    dict(strategy=Strategy.TOP_DOWN),
    dict(strategy=Strategy.LAZY_LPQ),
    dict(strategy=Strategy.LAZY_NFQ),
    dict(strategy=Strategy.LAZY_NFQ, use_layers=False),
    dict(strategy=Strategy.LAZY_NFQ, parallel=False),
    dict(strategy=Strategy.LAZY_NFQ, use_layers=False, parallel=False),
    dict(strategy=Strategy.LAZY_NFQ, push_mode=PushMode.FILTERED),
    dict(strategy=Strategy.LAZY_NFQ, push_mode=PushMode.BINDINGS),
    dict(strategy=Strategy.LAZY_NFQ, dedupe_relevance_queries=False),
    dict(strategy=Strategy.LAZY_NFQ_TYPED),
    dict(strategy=Strategy.LAZY_NFQ_TYPED, typing=TypingMode.EXACT),
    dict(strategy=Strategy.LAZY_NFQ_TYPED, use_layers=False),
    dict(strategy=Strategy.LAZY_NFQ_TYPED, push_mode=PushMode.BINDINGS),
]


@pytest.mark.parametrize("config_kwargs", CONFIG_GRID)
def test_hotels_all_configs_agree_with_naive(config_kwargs):
    wl = build_hotels_workload(HotelsWorkloadParams(n_hotels=12, seed=21))
    baseline, _ = evaluate(wl, wl.query, strategy=Strategy.NAIVE)
    outcome, _ = evaluate(wl, wl.query, **config_kwargs)
    assert outcome.value_rows() == baseline.value_rows(), config_kwargs
    assert outcome.metrics.completed


@pytest.mark.parametrize("query_name", sorted(ALL_HOTELS_QUERIES))
def test_hotels_query_variants_agree(query_name):
    wl = build_hotels_workload(HotelsWorkloadParams(n_hotels=10, seed=31))
    query = ALL_HOTELS_QUERIES[query_name]()
    baseline, _ = evaluate(wl, query, strategy=Strategy.NAIVE)
    for strategy in (Strategy.LAZY_LPQ, Strategy.LAZY_NFQ, Strategy.LAZY_NFQ_TYPED):
        outcome, _ = evaluate(wl, query, strategy=strategy)
        assert outcome.value_rows() == baseline.value_rows(), (
            query_name,
            strategy,
        )


def test_lazy_strictly_cheaper_on_selective_queries():
    wl = build_hotels_workload(HotelsWorkloadParams(n_hotels=30, seed=41))
    naive, _ = evaluate(wl, wl.query, strategy=Strategy.NAIVE)
    nfq, _ = evaluate(wl, wl.query, strategy=Strategy.LAZY_NFQ)
    typed, _ = evaluate(wl, wl.query, strategy=Strategy.LAZY_NFQ_TYPED)
    assert typed.metrics.calls_invoked <= nfq.metrics.calls_invoked
    assert nfq.metrics.calls_invoked < naive.metrics.calls_invoked
    assert typed.metrics.total_bytes < naive.metrics.total_bytes


def test_call_count_hierarchy_lpq_nfq_typed():
    """Prop. 1 + Section 5: typed ⊆ NFQ ⊆ LPQ ⊆ naive invocations."""
    wl = build_hotels_workload(HotelsWorkloadParams(n_hotels=20, seed=51))
    counts = {}
    for strategy in (
        Strategy.NAIVE,
        Strategy.LAZY_LPQ,
        Strategy.LAZY_NFQ,
        Strategy.LAZY_NFQ_TYPED,
    ):
        outcome, _ = evaluate(wl, wl.query, strategy=strategy)
        counts[strategy] = outcome.metrics.calls_invoked
    assert (
        counts[Strategy.LAZY_NFQ_TYPED]
        <= counts[Strategy.LAZY_NFQ]
        <= counts[Strategy.LAZY_LPQ]
        <= counts[Strategy.NAIVE]
    )


def test_nightlife_typed_push_combined():
    wl = build_nightlife_workload(NightlifeParams(n_theaters=6, n_restaurants=8))
    baseline, _ = evaluate(wl, wl.query, strategy=Strategy.NAIVE)
    combo, bus = evaluate(
        wl,
        wl.query,
        strategy=Strategy.LAZY_NFQ_TYPED,
        push_mode=PushMode.BINDINGS,
    )
    assert combo.value_rows() == baseline.value_rows()
    assert set(bus.log.calls_by_service()) == {"getShows"}


def test_repeated_evaluation_on_materialised_document_is_free():
    wl = build_hotels_workload(HotelsWorkloadParams(n_hotels=8, seed=61))
    bus = wl.make_bus()
    doc = wl.make_document()
    engine = LazyQueryEvaluator(
        bus, schema=wl.schema, config=EngineConfig(strategy=Strategy.LAZY_NFQ)
    )
    first = engine.evaluate(wl.query, doc)
    second = engine.evaluate(wl.query, doc)
    assert second.value_rows() == first.value_rows()
    assert second.metrics.calls_invoked == 0  # document already complete


def test_simulated_times_are_consistent():
    wl = build_hotels_workload(HotelsWorkloadParams(n_hotels=10, seed=71))
    outcome, _ = evaluate(wl, wl.query, strategy=Strategy.LAZY_NFQ)
    m = outcome.metrics
    assert 0 <= m.simulated_parallel_s <= m.simulated_sequential_s
    assert m.total_time_s >= m.analysis_wall_s
    assert m.total_time_parallel_s <= m.total_time_s
