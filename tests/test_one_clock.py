"""One simulated clock: what the engine charges is what the bus advanced.

A round costs its list schedule's makespan on the bus clock, and that
same number is what the engine adds to ``simulated_parallel_s`` and
stores on the ``RoundRecord`` — at every ``max_concurrency``, for every
strategy of the differential matrix, with faults and backoff waits in
the mix.  (Before the round was the bus's unit of invocation the
default charged ``max`` per round while the bus clock — the one breaker
cool-downs, cache TTLs and trace timestamps read — advanced by the sum.)

CI runs this module with ``--hypothesis-profile=ci``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.axml.builder import C, E, V, build_document
from repro.lazy.config import EngineConfig, FaultPolicy
from repro.lazy.engine import LazyQueryEvaluator
from repro.pattern.parse import parse_pattern
from repro.services.catalog import FailingService, ServiceFault, StaticService
from repro.services.registry import ServiceBus, ServiceRegistry
from repro.workloads.synthetic import SyntheticWorld

from .test_differential import (
    CONFIGS,
    FAULT_PLANS,
    _plan_config,
    _wrapped_registry,
)

WIDTHS = (None, 1, 2, 8)
EPS = 1e-9


@given(
    world_seed=st.integers(min_value=0, max_value=10_000),
    doc_seed=st.integers(min_value=0, max_value=50),
    plan=st.sampled_from(FAULT_PLANS),
)
def test_engine_and_bus_read_one_clock(world_seed, doc_seed, plan):
    world = SyntheticWorld(seed=world_seed)
    query = world.sample_query(world.make_document(doc_seed), doc_seed)
    for label, kwargs in CONFIGS.items():
        for width in WIDTHS:
            bus = ServiceBus(_wrapped_registry(world, plan))
            config = EngineConfig(
                **{**_plan_config(plan), **kwargs, "max_concurrency": width}
            )
            outcome = LazyQueryEvaluator(bus, config=config).evaluate(
                query, world.make_document(doc_seed)
            )
            metrics, rounds = outcome.metrics, outcome.rounds
            where = f"{label} at max_concurrency={width}, plan {plan!r}"
            charged = metrics.simulated_parallel_s
            assert abs(bus.clock_s - charged) <= EPS, where
            assert (
                abs(sum(r.simulated_time_s for r in rounds) - charged) <= EPS
            ), where
            if width == 1:
                assert (
                    abs(charged - metrics.simulated_sequential_s) <= EPS
                ), where
            if width is None:
                # ``RoundRecord.calls`` prints each call's time to four
                # decimals, hence the per-round tolerance.
                for record in rounds:
                    slowest = max(float(t) for t in record.calls)
                    assert (
                        abs(record.simulated_time_s - slowest) <= 5.1e-5
                    ), where


@pytest.mark.parametrize("width", WIDTHS)
def test_raise_stops_the_round_at_the_first_fault(width):
    """``RAISE`` must not let later calls of a wide round run: calls
    are handed to the round one at a time, each reply absorbed (or its
    fault raised) before the next is submitted."""
    registry = ServiceRegistry(
        [
            StaticService("a", [E("x", V("1"))]),
            FailingService("b", StaticService("b", [E("x", V("2"))]), failures=9),
            StaticService("c", [E("x", V("3"))]),
        ]
    )
    bus = ServiceBus(registry)
    engine = LazyQueryEvaluator(
        bus,
        config=EngineConfig(
            fault_policy=FaultPolicy.RAISE, max_concurrency=width
        ),
    )
    document = build_document(E("r", C("a"), C("b"), C("c")))
    with pytest.raises(ServiceFault):
        engine.evaluate(parse_pattern("/r/x/$V"), document)
    assert [(r.service_name, r.fault) for r in bus.log.records] == [
        ("a", False),
        ("b", True),
    ]
    # The clock still closed on the round's schedule.
    a, b = (r.simulated_time_s for r in bus.log.records)
    assert bus.clock_s == pytest.approx(a + b if width == 1 else max(a, b))
