"""Speculative parallelism (Section 4.4's closing remark), measured.

"Just in case" is a reference, not an engine rule: ``just_in_case()``
patches the round decision to fire every relevant call, and
``use_layers=False`` makes the run one pseudo-layer, so each round fires
everything the family retrieves.
"""

from repro.axml.builder import C, E, V, build_document
from repro.lazy.config import EngineConfig, Strategy
from repro.lazy.engine import LazyQueryEvaluator
from repro.pattern.parse import parse_pattern
from repro.services.catalog import StaticService, TableService
from repro.services.registry import ServiceBus, ServiceRegistry
from repro.workloads.hotels import (
    HotelsWorkloadParams,
    build_hotels_workload,
)

from .conftest import just_in_case


def dependent_scenario():
    """getRating and getNearbyRestos under one hotel: not independent
    (a low rating kills the restaurants call's relevance)."""
    document = build_document(
        E(
            "hotels",
            E(
                "hotel",
                E("name", V("Best Western")),
                E("address", V("a")),
                E("rating", C("getRating", V("a"))),
                E("nearby", C("getNearbyRestos", V("a"))),
            ),
        )
    )
    registry = ServiceRegistry(
        [
            TableService("getRating", {"a": [V("2")]}),  # low rating!
            StaticService(
                "getNearbyRestos",
                [
                    E(
                        "restaurant",
                        E("name", V("r")),
                        E("address", V("x")),
                        E("rating", V("5")),
                    )
                ],
            ),
        ]
    )
    query = parse_pattern(
        '/hotels/hotel[name="Best Western"][rating="5"]'
        '/nearby//restaurant[name=$X][address=$Y][rating="5"]'
    )
    return document, registry, query


def run(document, registry, query, **kw):
    bus = ServiceBus(registry)
    outcome = LazyQueryEvaluator(
        bus, config=EngineConfig(strategy=Strategy.LAZY_NFQ, **kw)
    ).evaluate(query, document)
    return outcome, bus


def test_careful_mode_spares_the_wasted_call():
    document, registry, query = dependent_scenario()
    outcome, bus = run(document, registry, query)
    # getRating fires first, returns 2, getNearbyRestos becomes
    # irrelevant: exactly one invocation.
    assert outcome.metrics.calls_invoked == 1
    assert bus.log.calls_by_service() == {"getRating": 1}
    assert outcome.value_rows() == set()


def test_speculative_mode_trades_a_call_for_a_round():
    document, registry, query = dependent_scenario()
    with just_in_case():
        outcome, bus = run(document, registry, query, use_layers=False)
    # Both calls fire in one round; the restaurants call was wasted.
    assert outcome.metrics.calls_invoked == 2
    assert outcome.metrics.invocation_rounds == 1
    assert outcome.value_rows() == set()  # the answer is unchanged


def test_speculation_never_changes_results():
    wl = build_hotels_workload(HotelsWorkloadParams(n_hotels=15, seed=23))

    def evaluate(**kw):
        bus = wl.make_bus()
        return LazyQueryEvaluator(
            bus, schema=wl.schema, config=EngineConfig(**kw)
        ).evaluate(wl.query, wl.make_document())

    careful = evaluate(strategy=Strategy.LAZY_NFQ)
    with just_in_case():
        speculative = evaluate(strategy=Strategy.LAZY_NFQ, use_layers=False)
    assert speculative.value_rows() == careful.value_rows()
    assert speculative.metrics.calls_invoked >= careful.metrics.calls_invoked
    assert (
        speculative.metrics.invocation_rounds
        <= careful.metrics.invocation_rounds
    )
    assert (
        speculative.metrics.simulated_parallel_s
        <= careful.metrics.simulated_parallel_s + 1e-9
    )

