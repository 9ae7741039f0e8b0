"""Resilience layer: retry, backoff, breaker, fault injection, accounting.

Covers the fault-handling subsystem end to end — the policy objects in
``repro.services.resilience``, the bus's resilient invocation loop, the
engine's RAISE/FREEZE fault policies with the retry both obey, and the
three regression fixes:
schema mutation through ``schema_with_signatures``, fault-only rounds
escaping the round count, and faulted attempts missing from the log.
"""

import pytest

from repro.axml.builder import C, E, V, build_document
from repro.axml.node import Activation
from repro.lazy.config import EngineConfig, FaultPolicy, Strategy, TypingMode
from repro.lazy.engine import LazyQueryEvaluator
from repro.pattern.parse import parse_pattern
from repro.schema.schema import Schema
from repro.services.catalog import (
    FailingService,
    FlakyService,
    ServiceFault,
    SlowService,
    StaticService,
    TimeoutFault,
)
from repro.services.registry import ServiceBus, ServiceCall, ServiceRegistry
from repro.services.resilience import (
    BreakerState,
    CircuitBreaker,
    CircuitBreakerPolicy,
    CircuitOpenFault,
    InvocationPolicy,
    RetryPolicy,
    deterministic_jitter,
)

QUERY = parse_pattern("/r/x/$V")


def failing_registry(failures=2, extra=()):
    services = [
        FailingService(
            "f", StaticService("inner", [E("x", V("1"))]), failures=failures
        )
    ]
    services.extend(extra)
    return ServiceRegistry(services)


def engine_for(registry, **config_kwargs):
    config = EngineConfig(strategy=Strategy.LAZY_NFQ, **config_kwargs)
    return LazyQueryEvaluator(ServiceBus(registry), config=config)


# -- policy objects ----------------------------------------------------------


def test_retry_policy_backoff_grows_and_caps():
    policy = RetryPolicy(
        max_attempts=5,
        base_backoff_s=1.0,
        backoff_multiplier=2.0,
        max_backoff_s=3.0,
        jitter_fraction=0.0,
    )
    assert policy.backoff_before(1) == 0.0
    assert policy.backoff_before(2) == 1.0
    assert policy.backoff_before(3) == 2.0
    assert policy.backoff_before(4) == 3.0  # capped
    assert policy.backoff_before(5) == 3.0


def test_retry_policy_jitter_is_deterministic_and_bounded():
    policy = RetryPolicy(jitter_fraction=0.5, jitter_seed=7)
    first = policy.backoff_before(2, key="svc")
    again = policy.backoff_before(2, key="svc")
    other = policy.backoff_before(2, key="other")
    assert first == again
    assert first != other
    assert policy.base_backoff_s <= first <= policy.base_backoff_s * 1.5
    assert 0.0 <= deterministic_jitter(1, "a", 2) < 1.0


def test_retry_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(backoff_multiplier=0.5)
    with pytest.raises(ValueError):
        CircuitBreakerPolicy(failure_threshold=0)


@pytest.mark.parametrize(
    "kwargs,field",
    [
        (dict(base_backoff_s=-1.0), "base_backoff_s"),
        (dict(max_backoff_s=-0.5), "max_backoff_s"),
        (dict(jitter_fraction=-0.1), "jitter_fraction"),
        (dict(timeout_s=-1.0), "timeout_s"),
        (dict(timeout_s=0.0), "timeout_s"),
    ],
)
def test_retry_policy_refuses_negative_simulated_times(kwargs, field):
    """A wait or a deadline below zero would run the simulated clock
    backwards (a healthy service frozen as a ``timeout`` charged -1 s)."""
    with pytest.raises(ValueError, match=field):
        RetryPolicy(**kwargs)
    # Zero waits stay expressible.
    RetryPolicy(base_backoff_s=0.0, max_backoff_s=0.0, jitter_fraction=0.0)


def test_breaker_state_machine():
    breaker = CircuitBreaker(
        CircuitBreakerPolicy(failure_threshold=2, reset_after_s=10.0)
    )
    assert breaker.allow(0.0)
    assert not breaker.record_failure(0.0)
    assert breaker.record_failure(1.0)  # trips
    assert breaker.state is BreakerState.OPEN
    assert not breaker.allow(5.0)
    assert breaker.allow(11.5)  # cool-down elapsed: half-open probe
    assert breaker.state is BreakerState.HALF_OPEN
    assert breaker.record_failure(12.0)  # probe failed: re-open
    assert breaker.state is BreakerState.OPEN
    assert breaker.trips == 2
    assert breaker.allow(30.0)
    breaker.record_success()
    assert breaker.state is BreakerState.CLOSED
    assert breaker.consecutive_faults == 0


# -- fault-injection services -------------------------------------------------


def test_flaky_service_is_seeded_deterministic():
    def pattern(seed):
        svc = FlakyService(
            StaticService("s", [E("ok")]), fault_rate=0.5, seed=seed
        )
        out = []
        for _ in range(20):
            try:
                svc.produce([])
                out.append(True)
            except ServiceFault:
                out.append(False)
        return out

    assert pattern(42) == pattern(42)
    assert pattern(42) != pattern(43)


def test_flaky_service_rate_one_always_fails_with_chosen_kind():
    svc = FlakyService(
        StaticService("s", [E("ok")]),
        fault_rate=1.0,
        fault_kind="timeout",
    )
    with pytest.raises(TimeoutFault):
        svc.produce([])
    assert svc.injected_faults == 1
    with pytest.raises(ValueError):
        FlakyService(StaticService("s", []), fault_rate=1.5)


def test_slow_service_trips_the_bus_timeout():
    slow = SlowService(StaticService("s", [E("x", V("1"))]), extra_latency_s=2.0)
    bus = ServiceBus(ServiceRegistry([slow]))
    outcome = bus.invoke(
        ServiceCall(service="s"),
        policy=InvocationPolicy(
            retry=RetryPolicy(max_attempts=1, timeout_s=1.0)
        ),
    )
    assert isinstance(outcome.fault, TimeoutFault)
    record = bus.log.records[-1]
    assert record.fault and record.fault_kind == "timeout"
    assert record.simulated_time_s == 1.0  # charged exactly the deadline
    # Without the deadline the same service answers fine.
    outcome = bus.invoke(ServiceCall(service="s"))
    assert outcome.reply.forest and not outcome.record.fault


# -- the bus's resilient loop --------------------------------------------------


def test_bus_logs_faulted_attempts_with_bytes_and_time():
    bus = ServiceBus(failing_registry(failures=1))
    outcome = bus.invoke(
        ServiceCall(service="f", parameters=[V("key")]),
        policy=InvocationPolicy(retry=RetryPolicy(max_attempts=1)),
    )
    assert isinstance(outcome.fault, ServiceFault)
    assert bus.log.call_count == 1
    record = bus.log.records[0]
    assert record.fault and record.fault_kind == "fault"
    assert record.request_bytes > 0
    assert record.response_bytes == 0
    assert record.simulated_time_s > 0
    assert bus.log.fault_count == 1 and bus.log.successful_count == 0
    assert bus.log.faults_by_service() == {"f": 1}


def test_invoke_retries_to_success():
    bus = ServiceBus(failing_registry(failures=2))
    outcome = bus.invoke(
        ServiceCall(service="f"),
        policy=InvocationPolicy(
            retry=RetryPolicy(max_attempts=3, base_backoff_s=0.5)
        ),
    )
    assert outcome.succeeded
    assert outcome.records == bus.log.records
    assert [r.attempt for r in outcome.records] == [1, 2, 3]
    assert [r.fault for r in outcome.records] == [True, True, False]
    assert [r.backoff_s > 0 for r in outcome.records] == [False, True, True]
    assert outcome.record is outcome.records[-1]
    assert outcome.simulated_time_s > outcome.record.simulated_time_s


def test_invoke_exhaustion_returns_fault_not_raises():
    bus = ServiceBus(failing_registry(failures=5))
    outcome = bus.invoke(
        ServiceCall(service="f"),
        policy=InvocationPolicy(retry=RetryPolicy(max_attempts=2)),
    )
    assert not outcome.succeeded
    assert isinstance(outcome.fault, ServiceFault)
    assert [(r.attempt, r.fault) for r in outcome.records] == [
        (1, True),
        (2, True),
    ]
    assert outcome.record is None


def test_invoke_breaker_opens_and_short_circuits():
    flaky = FlakyService(StaticService("s", [E("ok")]), fault_rate=1.0)
    bus = ServiceBus(ServiceRegistry([flaky]))
    policy = CircuitBreakerPolicy(failure_threshold=3, reset_after_s=None)
    outcome = bus.invoke(
        ServiceCall(service="s"),
        policy=InvocationPolicy(
            retry=RetryPolicy(max_attempts=10, base_backoff_s=0.01),
            breaker=policy,
        ),
    )
    assert not outcome.succeeded
    assert outcome.breaker_trips == 1
    assert outcome.short_circuited
    # Stopped at the threshold, not at 10.
    assert [r.attempt for r in outcome.records] == [1, 2, 3]
    assert bus.log.call_count == 3
    # Subsequent invocations are answered by the breaker alone.
    again = bus.invoke(
        ServiceCall(service="s"), policy=InvocationPolicy(breaker=policy)
    )
    assert again.short_circuited and again.records == []
    assert isinstance(again.fault, CircuitOpenFault)
    assert bus.log.call_count == 3


def test_breaker_half_open_probe_recovers_service():
    svc = FailingService("s", StaticService("inner", [E("ok")]), failures=2)
    bus = ServiceBus(ServiceRegistry([svc]))
    policy = CircuitBreakerPolicy(failure_threshold=2, reset_after_s=0.0)
    first = bus.invoke(
        ServiceCall(service="s"),
        policy=InvocationPolicy(
            retry=RetryPolicy(max_attempts=2, base_backoff_s=0.01),
            breaker=policy,
        ),
    )
    assert not first.succeeded and first.breaker_trips == 1
    # reset_after 0 simulated seconds: next call is the half-open probe,
    # the delegate has recovered, and the breaker closes again.
    second = bus.invoke(
        ServiceCall(service="s"), policy=InvocationPolicy(breaker=policy)
    )
    assert second.succeeded
    assert bus.breakers["s"].state is BreakerState.CLOSED


# -- engine fault policies -----------------------------------------------------


def test_retry_policy_recovers_full_answer():
    registry = failing_registry(
        failures=2, extra=[StaticService("g", [E("x", V("2"))])]
    )
    engine = engine_for(
        registry,
        fault_policy=FaultPolicy.FREEZE,
        retry=RetryPolicy(max_attempts=3),
    )
    doc = build_document(E("r", C("f"), C("g")))
    out = engine.evaluate(QUERY, doc)
    assert out.value_rows() == {("1",), ("2",)}
    assert out.metrics.retries == 2
    assert out.metrics.faults == 2
    assert out.metrics.backoff_s > 0
    records = [r for r in engine.bus.log.records if r.service_name == "f"]
    assert len(records) == 3
    assert [r.fault for r in records] == [True, True, False]


@pytest.mark.parametrize("policy", list(FaultPolicy), ids=lambda p: p.value)
def test_retry_is_obeyed_under_every_fault_policy(policy):
    """The service fails once, then answers: three attempts log two,
    and the answer is the fault-free one, whatever follows a last
    failed attempt."""
    engine = engine_for(
        failing_registry(failures=1),
        fault_policy=policy,
        retry=RetryPolicy(max_attempts=3),
    )
    out = engine.evaluate(QUERY, build_document(E("r", C("f"))))
    assert out.value_rows() == {("1",)}
    assert [r.fault for r in engine.bus.log.records] == [True, False]
    assert [r.attempt for r in engine.bus.log.records] == [1, 2]
    assert out.metrics.calls_frozen == 0


def test_the_default_configs_make_one_attempt_per_call():
    engine = engine_for(failing_registry(failures=1))
    with pytest.raises(ServiceFault):
        engine.evaluate(QUERY, build_document(E("r", C("f"))))
    assert engine.bus.log.call_count == 1
    serving = LazyQueryEvaluator(
        ServiceBus(failing_registry(failures=1)), config=EngineConfig.serving()
    )
    out = serving.evaluate(QUERY, build_document(E("r", C("f"))))
    assert serving.bus.log.call_count == 1
    assert out.metrics.calls_frozen == 1 and out.metrics.retries == 0


def test_freeze_policy_preserves_the_document():
    registry = failing_registry(
        failures=99, extra=[StaticService("g", [E("x", V("2"))])]
    )
    engine = engine_for(registry, fault_policy=FaultPolicy.FREEZE)
    doc = build_document(E("r", C("f"), C("g")))
    out = engine.evaluate(QUERY, doc)
    assert out.value_rows() == {("2",)}
    frozen = [c for c in doc.function_nodes() if c.label == "f"]
    assert len(frozen) == 1
    assert frozen[0].activation is Activation.FROZEN
    assert out.metrics.calls_frozen == 1
    assert out.metrics.completed


def test_no_policy_deletes_a_faulted_call():
    """``FREEZE`` keeps the faulted call, frozen, after one attempt or
    after retries, and ``"skip"`` names no policy."""
    assert [p.value for p in FaultPolicy] == ["raise", "freeze"]
    with pytest.raises(ValueError, match="fault_policy"):
        EngineConfig(fault_policy="skip")
    for retry in (RetryPolicy(max_attempts=1), RetryPolicy()):
        registry = failing_registry(
            failures=99, extra=[StaticService("g", [E("x", V("2"))])]
        )
        engine = engine_for(
            registry, fault_policy=FaultPolicy.FREEZE, retry=retry
        )
        doc = build_document(E("r", C("f"), C("g")))
        out = engine.evaluate(QUERY, doc)
        assert out.value_rows() == {("2",)}
        (frozen,) = [c for c in doc.function_nodes() if c.label == "f"]
        assert frozen.activation is Activation.FROZEN
        assert out.metrics.calls_frozen == 1


def test_retry_exhaustion_freezes_instead_of_deleting():
    registry = failing_registry(failures=99)
    engine = engine_for(
        registry,
        fault_policy=FaultPolicy.FREEZE,
        retry=RetryPolicy(max_attempts=2),
    )
    doc = build_document(E("r", C("f")))
    out = engine.evaluate(QUERY, doc)
    assert out.metrics.calls_frozen == 1
    assert [c.label for c in doc.function_nodes()] == ["f"]
    assert out.metrics.faults == 2 and out.metrics.retries == 1


def test_engine_breaker_opens_and_stops_logging():
    def run(**kwargs):
        flaky = FlakyService(
            StaticService("h", [E("x", V("3"))]), fault_rate=1.0
        )
        bus = ServiceBus(ServiceRegistry([flaky]))
        config = EngineConfig(
            strategy=Strategy.LAZY_NFQ,
            fault_policy=FaultPolicy.FREEZE,
            retry=RetryPolicy(max_attempts=10, base_backoff_s=0.01),
            breaker=CircuitBreakerPolicy(
                failure_threshold=4, reset_after_s=None
            ),
            **kwargs,
        )
        engine = LazyQueryEvaluator(bus, config=config)
        doc = build_document(E("r", C("h"), C("h")))
        return engine.evaluate(QUERY, doc), bus

    # On one worker nothing overlaps: the second call meets the breaker
    # the first one tripped.
    out, bus = run(max_concurrency=1)
    assert bus.log.call_count == 4  # exactly the threshold, ever
    assert out.metrics.breaker_trips == 1
    assert out.metrics.breaker_short_circuits >= 1
    assert out.metrics.calls_frozen == 2

    # The default round charges both calls as in flight together, so it
    # gates them that way too: each passed the (closed) breaker the
    # round found, attempts for real and trips its own copy.  Whoever
    # comes after the round finds the shared breaker open.
    out, bus = run()
    assert bus.log.call_count == 8  # the threshold, per call in flight
    assert out.metrics.breaker_trips == 2
    assert out.metrics.breaker_short_circuits == 2  # one per call, on retry
    assert out.metrics.calls_frozen == 2
    assert not bus.breakers["h"].allow(bus.clock_s)


def test_timeout_deadline_with_retry_policy():
    slow = SlowService(StaticService("s", [E("x", V("9"))]), extra_latency_s=5.0)
    engine = engine_for(
        ServiceRegistry([slow]),
        fault_policy=FaultPolicy.FREEZE,
        retry=RetryPolicy(max_attempts=2, timeout_s=0.5),
    )
    doc = build_document(E("r", C("s")))
    out = engine.evaluate(QUERY, doc)
    assert out.metrics.faults == 2
    assert out.metrics.calls_frozen == 1
    assert all(r.fault_kind == "timeout" for r in engine.bus.log.records)
    # Each attempt is charged exactly the missed deadline.
    assert all(r.simulated_time_s == 0.5 for r in engine.bus.log.records)


# -- regression fixes ---------------------------------------------------------


def test_schema_with_signatures_does_not_mutate_base():
    from repro.services.catalog import make_signature

    base = Schema()
    base.declare_element("r", "x*")
    registry = ServiceRegistry(
        [
            StaticService(
                "svc", [E("x")], signature=make_signature("svc", "data", "x*")
            )
        ]
    )
    merged = registry.schema_with_signatures(base=base)
    assert "svc" in merged.functions
    assert base.functions == {}  # the caller's schema is untouched
    assert merged.elements == base.elements


def test_shared_evaluator_schema_stays_clean_across_evaluations():
    from repro.services.catalog import make_signature

    user_schema = Schema()
    registry = ServiceRegistry(
        [
            StaticService(
                "svc",
                [E("x", V("1"))],
                signature=make_signature("svc", "data", "x*"),
            )
        ]
    )
    engine = LazyQueryEvaluator(
        ServiceBus(registry),
        schema=user_schema,
        config=EngineConfig(typing=TypingMode.LENIENT),
    )
    for _ in range(2):
        doc = build_document(E("r", C("svc", V("k"))))
        engine.evaluate(QUERY, doc)
        assert user_schema.functions == {}


def test_fault_only_rounds_respect_the_round_budget():
    """A fault-only round still counts: in ``invocation_rounds`` and
    against ``max_invocations`` — the one budget, which bounds the
    rounds too (every counted round holds a counted invocation)."""
    flaky = FlakyService(StaticService("h", [E("x", V("3"))]), fault_rate=1.0)
    engine = engine_for(
        ServiceRegistry([flaky]),
        fault_policy=FaultPolicy.FREEZE,
        breaker=None,
        max_invocations=2,
    )
    doc = build_document(E("r", C("h"), C("h"), C("h")))
    out = engine.evaluate(QUERY, doc)
    metrics = out.metrics
    # The only round was all-faults; it must still count, and its two
    # faulted invocations spent the budget before the third call.
    assert metrics.invocation_rounds == 1
    assert metrics.calls_invoked == metrics.calls_frozen == 2
    assert not metrics.completed
    assert metrics.invocation_rounds <= metrics.calls_invoked


def test_faulted_attempts_are_visible_to_accounting():
    registry = failing_registry(failures=99)
    engine = engine_for(registry, fault_policy=FaultPolicy.FREEZE, breaker=None)
    doc = build_document(E("r", C("f", V("param"))))
    out = engine.evaluate(QUERY, doc)
    bus = engine.bus
    assert out.metrics.calls_invoked == 1
    assert bus.log.call_count == 1  # the fault is in the log now
    assert out.metrics.bytes_sent == bus.log.records[0].request_bytes > 0
    assert out.metrics.failed_attempt_time_s > 0
    assert out.metrics.simulated_sequential_s > 0


def test_faults_count_toward_simulated_round_time():
    registry = failing_registry(failures=1)
    engine = engine_for(
        registry,
        fault_policy=FaultPolicy.FREEZE,
        retry=RetryPolicy(max_attempts=2, base_backoff_s=1.0),
    )
    doc = build_document(E("r", C("f")))
    out = engine.evaluate(QUERY, doc)
    # One failed attempt + one backoff + one success, all on the clock.
    assert out.metrics.simulated_sequential_s >= 1.0
    assert out.metrics.backoff_s >= 1.0


# -- config surface -----------------------------------------------------------


def test_tolerant_config_defaults_to_freeze():
    """The config that must degrade rather than raise is the serving
    preset; it freezes unless told otherwise.  A one-shot config writes
    ``fault_policy="freeze"`` out: there is no second spelling."""
    assert EngineConfig.serving().fault_policy is FaultPolicy.FREEZE
    explicit = EngineConfig.serving(fault_policy=FaultPolicy.RAISE)
    assert explicit.fault_policy is FaultPolicy.RAISE
    assert EngineConfig(fault_policy="freeze").fault_policy is FaultPolicy.FREEZE
    assert not hasattr(EngineConfig, "tolerant")

