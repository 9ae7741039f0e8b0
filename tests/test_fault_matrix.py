"""Fault-policy × strategy matrix: every combination behaves.

All three ``Strategy`` values, the top-down baseline written out, and
``lazy-nfq`` typed by Section 5's lenient oracle, crossed with RAISE and
FREEZE, each with one attempt per call or with retries, over a document
whose calls fail transiently (``FailingService``) or randomly
(``FlakyService``).  The headline invariant: with enough attempts the
answer equals the fault-free run for every strategy, under either
policy.
"""

import pytest

from repro.axml.builder import C, E, V, build_document
from repro.lazy.config import EngineConfig, FaultPolicy, Strategy, TypingMode
from repro.lazy.engine import LazyQueryEvaluator
from repro.pattern.parse import parse_pattern
from repro.services.catalog import (
    FailingService,
    FlakyService,
    ServiceFault,
    StaticService,
)
from repro.services.registry import ServiceBus, ServiceRegistry, bus_of
from repro.services.resilience import RetryPolicy

#: The matrix's strategy axis, by name: every strategy, Section 1's
#: top-down baseline (the LPQs un-layered and sequential), and the NFQs
#: typed — Section 5's refinement is a mode of ``LAZY_NFQ``.
ALL_STRATEGIES = {s.value: dict(strategy=s) for s in Strategy}
ALL_STRATEGIES["top-down"] = dict(
    strategy=Strategy.LAZY_LPQ, use_layers=False, parallel=False
)
ALL_STRATEGIES["lazy-nfq-typed"] = dict(
    strategy=Strategy.LAZY_NFQ, typing=TypingMode.LENIENT
)
ONE_ATTEMPT = RetryPolicy(max_attempts=1)
RETRY = RetryPolicy(max_attempts=4, base_backoff_s=0.01)
#: The tolerant arms, both under ``FREEZE``: what the last attempt left
#: faulted is frozen.
TOLERANT_ARMS = {"freeze": ONE_ATTEMPT, "retry": RETRY}

QUERY = parse_pattern("/r/x/$V")


def make_document():
    return build_document(E("r", C("f"), C("g"), E("x", V("0"))))


def transient_registry():
    """``f`` fails twice then recovers; ``g`` always works."""
    return ServiceRegistry(
        [
            FailingService(
                "f", StaticService("inner", [E("x", V("1"))]), failures=2
            ),
            StaticService("g", [E("x", V("2"))]),
        ]
    )


def flaky_registry(rate, seed=11):
    return ServiceRegistry(
        [
            FlakyService(
                StaticService("f", [E("x", V("1"))]), fault_rate=rate, seed=seed
            ),
            FlakyService(
                StaticService("g", [E("x", V("2"))]),
                fault_rate=rate,
                seed=seed + 1,
            ),
        ]
    )


def fault_free_registry():
    return ServiceRegistry(
        [
            StaticService("f", [E("x", V("1"))]),
            StaticService("g", [E("x", V("2"))]),
        ]
    )


def evaluate(services, strategy, policy, retry=ONE_ATTEMPT):
    """One evaluation over ``services``: a registry, or a bus whose log
    the caller reads afterwards."""
    config = EngineConfig(
        **ALL_STRATEGIES[strategy], fault_policy=policy, retry=retry
    )
    engine = LazyQueryEvaluator(bus_of(services), config=config)
    return engine.evaluate(QUERY, make_document())


@pytest.fixture(scope="module")
def fault_free_rows():
    rows = {}
    for strategy in ALL_STRATEGIES:
        out = evaluate(fault_free_registry(), strategy, FaultPolicy.RAISE)
        rows[strategy] = out.value_rows()
    # The core invariant first: every strategy agrees fault-free.
    assert len(set(map(frozenset, rows.values()))) == 1
    return rows


@pytest.mark.parametrize("strategy", ALL_STRATEGIES)
def test_raise_propagates_transient_faults(strategy):
    with pytest.raises(ServiceFault):
        evaluate(transient_registry(), strategy, FaultPolicy.RAISE)


@pytest.mark.parametrize("strategy", ALL_STRATEGIES)
def test_raise_retries_then_raises(strategy, fault_free_rows):
    """``retry`` is obeyed under ``RAISE``: enough attempts recover
    ``f`` (which fails twice), too few raise once the last one fails."""
    out = evaluate(
        transient_registry(),
        strategy,
        FaultPolicy.RAISE,
        retry=RetryPolicy(max_attempts=3, base_backoff_s=0.01),
    )
    assert out.value_rows() == fault_free_rows[strategy]
    assert out.metrics.faults == 2
    assert out.metrics.retries == 2

    bus = ServiceBus(transient_registry())
    with pytest.raises(ServiceFault):
        evaluate(
            bus,
            strategy,
            FaultPolicy.RAISE,
            retry=RetryPolicy(max_attempts=2, base_backoff_s=0.01),
        )
    faulted = [(r.service_name, r.attempt) for r in bus.log.records if r.fault]
    assert faulted == [("f", 1), ("f", 2)]


@pytest.mark.parametrize("strategy", ALL_STRATEGIES)
@pytest.mark.parametrize("arm", TOLERANT_ARMS)
def test_tolerant_policies_never_raise_on_transient_faults(strategy, arm):
    out = evaluate(
        transient_registry(), strategy, FaultPolicy.FREEZE, TOLERANT_ARMS[arm]
    )
    # The extensional row and g's row survive under every policy.
    assert ("0",) in out.value_rows()
    assert ("2",) in out.value_rows()
    if arm == "retry":
        assert ("1",) in out.value_rows()


@pytest.mark.parametrize("strategy", ALL_STRATEGIES)
def test_retry_matches_fault_free_answer(strategy, fault_free_rows):
    out = evaluate(transient_registry(), strategy, FaultPolicy.FREEZE, RETRY)
    assert out.value_rows() == fault_free_rows[strategy]
    assert out.metrics.faults == 2
    assert out.metrics.retries == 2


@pytest.mark.parametrize("strategy", ALL_STRATEGIES)
def test_retry_matches_fault_free_answer_under_flaky_services(
    strategy, fault_free_rows
):
    out = evaluate(flaky_registry(rate=0.5), strategy, FaultPolicy.FREEZE, RETRY)
    assert out.value_rows() == fault_free_rows[strategy]


@pytest.mark.parametrize("strategy", ALL_STRATEGIES)
def test_freeze_keeps_faulted_calls_intensional(strategy):
    out = evaluate(transient_registry(), strategy, FaultPolicy.FREEZE)
    m = out.metrics
    assert m.calls_frozen >= 1
    # Frozen calls are still in the document, intensional.
    frozen = [
        c for c in out.document.function_nodes() if c.label == "f"
    ]
    assert frozen


@pytest.mark.parametrize("strategy", ALL_STRATEGIES)
def test_fault_free_runs_are_untouched_by_the_new_default(strategy):
    """FREEZE (or any tolerant policy) never changes a fault-free run."""
    baseline = evaluate(fault_free_registry(), strategy, FaultPolicy.RAISE)
    tolerant = evaluate(fault_free_registry(), strategy, FaultPolicy.FREEZE)
    assert tolerant.value_rows() == baseline.value_rows()
    assert tolerant.metrics.calls_invoked == baseline.metrics.calls_invoked
    assert tolerant.metrics.faults == 0
    assert tolerant.metrics.calls_frozen == 0
