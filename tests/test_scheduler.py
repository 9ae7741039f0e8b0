"""The invocation round: list scheduling, degeneracy, determinism, faults.

Three families of guarantees:

* **List scheduling** is online and in submission order, with the
  classic bounds: makespan between ``max`` and ``sum`` of the
  durations, offsets non-decreasing.  Checked against the round's own
  schedule (``InvocationRound.offsets`` / ``makespan_s``) through
  services whose simulated durations are known.
* **Degeneracy**: a round on one worker is *exactly* the serial loop —
  same clock, same log, same outcomes — and the whole engine at any
  width is deterministic run-to-run (same batches, same clock, same
  span tree).
* **Faults under concurrency**: FREEZE/RETRY behave identically at any
  width; a service tripping its breaker inside a round cannot reject
  the sibling calls dispatched alongside it; breaker backoff charges
  the clock only for admitted attempts.
"""

from __future__ import annotations

import types

import pytest

from repro.axml.builder import E, V
from repro.lazy.config import EngineConfig, FaultPolicy, Strategy
from repro.lazy.engine import LazyQueryEvaluator
from repro.obs.trace import BATCH, INVOCATION, InMemorySink, verify_nesting
from repro.services.catalog import (
    FailingService,
    FlakyService,
    ServiceFault,
    StaticService,
)
from repro.services.registry import ServiceBus, ServiceCall, ServiceRegistry
from repro.services.resilience import (
    CircuitBreakerPolicy,
    InvocationPolicy,
    RetryPolicy,
)
from repro.workloads.chains import build_chain_workload

# ------------------------------------------------- the round's list schedule


def invoke_batch(bus, calls, *, policy=None, max_concurrency=None):
    """One round over ``calls``: outcomes plus what the round reports."""
    with bus.round(
        len(calls), policy=policy, max_concurrency=max_concurrency
    ) as round_:
        outcomes = [round_.invoke(call) for call in calls]
    return types.SimpleNamespace(
        outcomes=outcomes,
        width=len(round_.offsets),
        offsets=round_.offsets,
        parallel_s=round_.makespan_s,
        serial_s=sum(o.simulated_time_s for o in outcomes),
    )


def assign_workers(durations, max_concurrency):
    """The round's schedule for calls of the given simulated durations:
    ``(start offsets, makespan)`` read off a real round, whose services
    answer nothing and take exactly ``durations[i]``."""
    bus = ServiceBus(
        ServiceRegistry(
            StaticService(f"s{i}", [], latency_s=duration)
            for i, duration in enumerate(durations)
        )
    )
    calls = [ServiceCall(service=f"s{i}") for i in range(len(durations))]
    result = invoke_batch(bus, calls, max_concurrency=max_concurrency)
    assert bus.clock_s == result.parallel_s  # the clock started at zero
    return result.offsets, result.parallel_s


def test_assign_workers_empty_and_single():
    assert assign_workers([], 4) == ([], 0.0)
    assert assign_workers([2.5], 4) == ([0.0], 2.5)


def test_assign_workers_serial_is_prefix_sums():
    offsets, makespan = assign_workers([1.0, 2.0, 3.0], 1)
    assert offsets == [0.0, 1.0, 3.0]
    assert makespan == 6.0


def test_assign_workers_two_workers():
    # Worker A takes the 3s call; worker B chews through the 1s ones.
    offsets, makespan = assign_workers([3.0, 1.0, 1.0, 1.0], 2)
    assert offsets == [0.0, 0.0, 1.0, 2.0]
    assert makespan == 3.0


def test_assign_workers_unbounded_width_runs_all_at_zero():
    durations = [0.5, 1.5, 0.25, 1.0]
    for width in (16, None):  # None: one worker per call
        offsets, makespan = assign_workers(durations, width)
        assert offsets == [0.0] * len(durations)
        assert makespan == 1.5


@pytest.mark.parametrize("width", [1, 2, 3, 7])
def test_assign_workers_bounds_and_monotone_offsets(width):
    durations = [0.3, 1.1, 0.7, 0.7, 2.0, 0.1, 0.9, 0.4]
    offsets, makespan = assign_workers(durations, width)
    assert max(durations) - 1e-12 <= makespan <= sum(durations) + 1e-12
    assert offsets == sorted(offsets)  # submission order, no reordering
    assert makespan == max(o + d for o, d in zip(offsets, durations))
    # Online and deterministic: identical inputs, identical schedule.
    assert assign_workers(durations, width) == (offsets, makespan)


# ------------------------------------------------- serial degeneracy (C == 1)


def chain_calls(workload):
    document = workload.make_document()
    return [
        ServiceCall(service=node.label, parameters=node.children)
        for node in document.function_nodes()
    ]


def log_view(bus):
    return [
        (r.service_name, r.simulated_time_s, r.fault, r.fault_kind, r.attempt)
        for r in bus.log.records
    ]


def test_invoke_batch_width_one_is_exactly_the_serial_loop():
    workload = build_chain_workload(depth=2, width=6)
    calls = chain_calls(workload)

    serial_bus = ServiceBus(workload.registry)
    serial = [serial_bus.invoke(call) for call in calls]

    batch_bus = ServiceBus(workload.registry)
    batch = invoke_batch(batch_bus, calls, max_concurrency=1)

    assert batch.width == len(calls)
    assert batch_bus.clock_s == serial_bus.clock_s
    assert log_view(batch_bus) == log_view(serial_bus)
    for got, want in zip(batch.outcomes, serial):
        assert got.succeeded == want.succeeded
        assert got.reply.forest and want.reply.forest
        assert [n.label for n in got.reply.forest] == [
            n.label for n in want.reply.forest
        ]


def test_invoke_batch_concurrent_clock_is_the_makespan():
    workload = build_chain_workload(depth=2, width=8, latency_s=0.05)
    calls = chain_calls(workload)
    bus = ServiceBus(workload.registry)
    result = invoke_batch(bus, calls, max_concurrency=8)
    assert result.width == 8
    assert 0.0 < result.parallel_s < result.serial_s
    assert bus.clock_s == pytest.approx(result.parallel_s)
    # Every call still individually accounted in the log.
    assert len(bus.log.records) == len(calls)


# ---------------------------------------------------------------- determinism


def span_shape(span):
    """A span tree reduced to comparable structure (names + key tags)."""
    keep = ("service", "width", "concurrency", "layer")
    return (
        span.name,
        tuple((k, str(span.tags[k])) for k in keep if k in span.tags),
        tuple(e.name for e in span.events),
        tuple(span_shape(child) for child in span.children),
    )


def run_traced(max_concurrency: int):
    workload = build_chain_workload(depth=4, width=6)
    sink = InMemorySink()
    config = EngineConfig(
        strategy=Strategy.LAZY_NFQ,
        max_concurrency=max_concurrency,
        trace=sink,
    )
    engine = LazyQueryEvaluator(
        ServiceBus(workload.registry), schema=workload.schema, config=config
    )
    outcome = engine.evaluate(workload.query, workload.make_document())
    return outcome, sink


@pytest.mark.parametrize("width", [2, 4, 8])
def test_engine_runs_are_deterministic(width):
    first, first_sink = run_traced(width)
    second, second_sink = run_traced(width)
    assert first.value_rows() == second.value_rows()
    assert first.metrics.parallel_time_s == second.metrics.parallel_time_s
    assert first.metrics.batch_count == second.metrics.batch_count
    assert first.metrics.max_batch_width == second.metrics.max_batch_width
    assert [span_shape(r) for r in first_sink.roots] == [
        span_shape(r) for r in second_sink.roots
    ]


def test_concurrent_trace_nests_and_batches_carry_invocations():
    outcome, sink = run_traced(4)
    (root,) = sink.roots
    assert verify_nesting(root) == []
    batches = root.find_all(BATCH)
    assert len(batches) == outcome.metrics.batch_count > 0
    for batch in batches:
        assert int(batch.tags["width"]) >= 2
        assert len(batch.find_all(INVOCATION)) == int(batch.tags["width"])


# ------------------------------------------------------- fault x concurrency


def flaky_chain_registry(rate: float, fault_kind: str = "fault"):
    workload = build_chain_workload(depth=3, width=6)
    base = workload.registry
    registry = ServiceRegistry(
        FlakyService(base.resolve(name), fault_rate=rate, seed=7, fault_kind=fault_kind)
        for name in base.names()
    )
    return workload, registry


@pytest.mark.parametrize("policy", [FaultPolicy.FREEZE, FaultPolicy.RETRY])
@pytest.mark.parametrize("width", [2, 4, 8])
def test_fault_policies_match_serial_at_every_width(policy, width):
    def run(max_concurrency):
        workload, registry = flaky_chain_registry(rate=0.4)
        config = EngineConfig(
            strategy=Strategy.LAZY_NFQ,
            fault_policy=policy,
            retry=RetryPolicy(max_attempts=3, base_backoff_s=0.01),
            max_concurrency=max_concurrency,
        )
        engine = LazyQueryEvaluator(
            ServiceBus(registry), schema=workload.schema, config=config
        )
        return engine.evaluate(workload.query, workload.make_document())

    reference = run(1)
    outcome = run(width)
    assert outcome.value_rows() == reference.value_rows()
    assert outcome.metrics.faults == reference.metrics.faults
    assert outcome.metrics.calls_invoked == reference.metrics.calls_invoked


def test_sibling_trip_does_not_reject_in_flight_batch_members():
    """One service melting down inside a batch trips *its* breaker, but
    the siblings dispatched in the same batch already passed the gate
    and must complete normally."""
    bad = FlakyService(
        StaticService("bad", [E("x", V("1"))]), fault_rate=1.0, seed=3
    )
    good = StaticService("good", [E("y", V("2"))])
    bus = ServiceBus(ServiceRegistry([bad, good]))
    policy = InvocationPolicy(
        retry=RetryPolicy(max_attempts=1),
        breaker=CircuitBreakerPolicy(failure_threshold=2, reset_after_s=None),
    )
    calls = [ServiceCall(service="bad")] * 3 + [ServiceCall(service="good")] * 3
    result = invoke_batch(bus, calls, policy=policy, max_concurrency=6)
    bad_outcomes = result.outcomes[:3]
    good_outcomes = result.outcomes[3:]
    # All bad calls were admitted on the dispatch-time (closed) snapshot:
    # they fault for real, none is short-circuited mid-batch.
    assert all(isinstance(o.fault, ServiceFault) for o in bad_outcomes)
    assert not any(o.short_circuited for o in bad_outcomes)
    # Siblings on the healthy service are untouched by the meltdown.
    assert all(o.succeeded for o in good_outcomes)
    # The merged marks still tripped the breaker for *after* the batch...
    after = bus.invoke(ServiceCall(service="bad"), policy=policy)
    assert after.short_circuited
    # ...while the healthy service stays open for business.
    assert bus.invoke(ServiceCall(service="good"), policy=policy).succeeded


# --------------------------------------------- breaker + backoff clock rules


def breaker_bus():
    """A bus whose only service fails once, then heals."""
    svc = FailingService("f", StaticService("f", [E("ok")]), failures=1)
    return ServiceBus(ServiceRegistry([svc]))


def test_rejected_attempt_charges_no_clock_and_no_backoff():
    """Regression: a short-circuited invocation must not advance the
    simulated clock — the waiting was never going to buy admission."""
    bus = breaker_bus()
    trip = InvocationPolicy(
        retry=RetryPolicy(max_attempts=1),
        breaker=CircuitBreakerPolicy(failure_threshold=1, reset_after_s=None),
    )
    first = bus.invoke(ServiceCall(service="f"), policy=trip)
    assert first.fault is not None and not first.short_circuited
    assert bus.breakers["f"].opened_at_s is not None

    before = bus.clock_s
    outcome = bus.invoke(
        ServiceCall(service="f"),
        policy=InvocationPolicy(
            retry=RetryPolicy(max_attempts=5, base_backoff_s=100.0),
            breaker=CircuitBreakerPolicy(
                failure_threshold=1, reset_after_s=None
            ),
        ),
    )
    assert outcome.short_circuited
    assert outcome.backoff_s == 0.0
    assert bus.clock_s == before
    assert bus.log.call_count == 1  # only the original tripping attempt


def test_backoff_too_short_for_cooldown_is_not_charged():
    """Regression: when a retry's backoff would end while the breaker
    is still cooling down, the attempt is rejected *and the wait is not
    charged* — the old code moved the clock first, then rejected."""
    bus = breaker_bus()
    policy = InvocationPolicy(
        retry=RetryPolicy(
            max_attempts=2, base_backoff_s=2.0, jitter_fraction=0.0
        ),
        breaker=CircuitBreakerPolicy(failure_threshold=1, reset_after_s=5.0),
    )
    outcome = bus.invoke(ServiceCall(service="f"), policy=policy)
    # Attempt 1 faults and trips the breaker; attempt 2's 2s backoff
    # falls short of the 5s cooldown, so it short-circuits uncharged.
    assert outcome.short_circuited
    assert outcome.backoff_s == 0.0
    attempt_cost = bus.log.records[0].simulated_time_s
    assert bus.clock_s == pytest.approx(attempt_cost)


def test_cooldown_elapsing_during_backoff_admits_the_probe():
    """The flip side: when waiting out the backoff *does* carry the
    clock past the breaker cooldown, the retry is the half-open probe —
    it is admitted and charged, not short-circuited."""
    bus = breaker_bus()
    policy = InvocationPolicy(
        retry=RetryPolicy(
            max_attempts=2,
            base_backoff_s=10.0,
            max_backoff_s=10.0,
            jitter_fraction=0.0,
        ),
        breaker=CircuitBreakerPolicy(failure_threshold=1, reset_after_s=5.0),
    )
    outcome = bus.invoke(ServiceCall(service="f"), policy=policy)
    # Attempt 1 faults and trips the breaker; attempt 2's 10s backoff
    # crosses the 5s cooldown, so the probe goes through and the
    # now-healed service answers.
    assert outcome.succeeded and not outcome.short_circuited
    assert outcome.backoff_s == 10.0
    assert bus.breakers["f"].opened_at_s is None  # probe success closed it
