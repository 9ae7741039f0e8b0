"""Tests for the tracing subsystem (repro.obs) and its engine wiring.

Covers the tracer/span mechanics, the span-tree shape an evaluation
produces under each strategy and fault policy (retries, backoff and
breaker transitions must appear as span events), structural nesting
soundness, and the JSONL export round-trip.
"""

import io

import pytest

from repro.axml.builder import C, E, V, build_document
from repro.lazy.config import EngineConfig, FaultPolicy, Strategy
from repro.lazy.engine import LazyQueryEvaluator
from repro.lazy.report import format_trace_profile
from repro.obs.profile import format_phase_profile, phase_profile
from repro.obs.trace import (
    COLUMN_PASS,
    EVALUATE,
    EVENT_ATTEMPT,
    EVENT_BACKOFF,
    EVENT_BREAKER_TRIP,
    EVENT_FAULT,
    EVENT_SHORT_CIRCUIT,
    FINAL_MATCH,
    INVOCATION,
    LAYER,
    NULL_TRACER,
    RELEVANCE_CHECK,
    ROUND,
    SATISFIABILITY,
    InMemorySink,
    JsonlSink,
    TeeSink,
    Tracer,
    load_jsonl_spans,
    tracer_for,
    verify_nesting,
)
from repro.pattern.parse import parse_pattern
from repro.services.catalog import FailingService, StaticService
from repro.services.registry import ServiceBus, ServiceRegistry
from repro.services.resilience import CircuitBreakerPolicy, RetryPolicy
from repro.workloads.hotels import (
    figure_1_document,
    figure_1_registry,
    paper_query,
)

from .conftest import full_relevance

QUERY = parse_pattern("/r/x/$V")


def make_document():
    return build_document(E("r", C("f"), C("g"), E("x", V("0"))))


def transient_registry(failures=2):
    return ServiceRegistry(
        [
            FailingService(
                "f", StaticService("inner", [E("x", V("1"))]), failures=failures
            ),
            StaticService("g", [E("x", V("2"))]),
        ]
    )


def traced_evaluate(registry, document, query, **config_kwargs):
    sink = InMemorySink()
    config = EngineConfig(trace=sink, **config_kwargs)
    engine = LazyQueryEvaluator(ServiceBus(registry), config=config)
    outcome = engine.evaluate(query, document)
    return outcome, sink


# ---------------------------------------------------------------- tracer unit


def test_tracer_builds_nested_spans_and_events():
    sink = InMemorySink()
    clock = {"t": 0.0}
    tracer = Tracer(sink, sim_clock=lambda: clock["t"])
    with tracer.span("outer", kind="demo") as outer:
        clock["t"] = 1.0
        with tracer.span("inner") as inner:
            tracer.event("ping", detail=7)
            clock["t"] = 2.5
    assert [s.name for s in sink.spans] == ["inner", "outer"]  # children first
    assert outer.children == [inner]
    assert inner.parent_id == outer.span_id
    assert outer.tags == {"kind": "demo"}
    assert inner.event_names() == ["ping"]
    assert inner.events[0].tags == {"detail": 7}
    assert inner.start_sim_s == 1.0 and inner.end_sim_s == 2.5
    assert outer.sim_s == 2.5
    assert verify_nesting(outer) == []


def test_null_tracer_is_inert():
    with NULL_TRACER.span("anything", tag=1) as span:
        assert span is None
    NULL_TRACER.event("ignored")
    assert tracer_for(None) is NULL_TRACER


def test_tracer_for_wraps_sinks_and_passes_tracers_through():
    sink = InMemorySink()
    tracer = tracer_for(sink)
    assert isinstance(tracer, Tracer) and tracer.sink is sink
    assert tracer_for(tracer) is tracer


# ------------------------------------------------------------ span-tree shape


def test_lazy_evaluation_produces_one_well_formed_root():
    outcome, sink = traced_evaluate(
        figure_1_registry(), figure_1_document(), paper_query()
    )
    assert outcome.value_rows()  # sanity: the paper's answer exists
    roots = sink.roots
    assert len(roots) == 1
    (root,) = roots
    assert root.name == EVALUATE
    assert root.tags["strategy"] == "lazy-nfq"
    assert "hotels" in root.tags["query"]
    for phase in (SATISFIABILITY, LAYER, ROUND, RELEVANCE_CHECK, FINAL_MATCH):
        assert root.find_all(phase), f"no {phase} span"
    invocations = root.find_all(INVOCATION)
    assert len(invocations) == outcome.metrics.calls_invoked
    assert all(s.tags["service"] for s in invocations)
    assert verify_nesting(root) == []


def test_column_pass_spans_say_why_a_plan_stood_down():
    # With every retrieval a whole pass (the store's own hits and
    # per-scope re-matches make the count a matter of the document).
    with full_relevance():
        outcome, sink = traced_evaluate(
            figure_1_registry(), figure_1_document(), paper_query()
        )
    (root,) = sink.roots
    passes = root.find_all(COLUMN_PASS)
    # One per relevance retrieval — the definite-call rule's stripped
    # forms included — plus the final match, all on the plan.
    assert len(passes) == outcome.metrics.relevance_evaluations + 1
    assert any(
        s.tags.get("definite_calls") for s in root.find_all(RELEVANCE_CHECK)
    )
    assert all(s.tags["column_fallbacks"] == 0 for s in passes)
    assert all("fallback_reasons" not in s.tags for s in passes)
    assert sum(s.tags["column_rows"] for s in passes) == (
        outcome.metrics.column_rows
    )

    wild = build_document(E("r", E("a", E("x", V("0")))))
    outcome, sink = traced_evaluate(
        ServiceRegistry([]), wild, parse_pattern("/r/*//$V")
    )
    passes = sink.roots[0].find_all(COLUMN_PASS)
    final = sink.roots[0].find_all(FINAL_MATCH)[0].find_all(COLUMN_PASS)
    assert [s.tags["fallback_reasons"] for s in final] == [
        {"interior-wildcard": 1}
    ]
    assert outcome.metrics.column_fallback_reasons == {
        "interior-wildcard": sum(s.tags["column_fallbacks"] for s in passes)
    }


def test_each_evaluation_gets_its_own_root():
    sink = InMemorySink()
    config = EngineConfig(trace=sink)
    engine = LazyQueryEvaluator(
        ServiceBus(figure_1_registry()), config=config
    )
    engine.evaluate(paper_query(), figure_1_document())
    engine.evaluate(paper_query(), figure_1_document())
    assert len(sink.roots) == 2
    for root in sink.roots:
        assert root.name == EVALUATE
        assert verify_nesting(root) == []


def test_naive_strategy_traces_rounds_too():
    _, sink = traced_evaluate(
        transient_registry(failures=0),
        make_document(),
        QUERY,
        strategy=Strategy.NAIVE,
    )
    (root,) = sink.roots
    rounds = root.find_all(ROUND)
    assert rounds and all(s.tags.get("phase") == "naive" for s in rounds)
    assert root.find_all(INVOCATION)
    assert verify_nesting(root) == []


def test_invocation_spans_record_simulated_service_time():
    _, sink = traced_evaluate(
        figure_1_registry(), figure_1_document(), paper_query()
    )
    (root,) = sink.roots
    assert sum(s.sim_s for s in root.find_all(INVOCATION)) > 0.0


def test_untraced_run_default():
    config = EngineConfig()
    assert config.trace is None  # tracing is strictly opt-in


# ------------------------------------------------- fault policies as events


def test_retry_policy_emits_attempt_backoff_and_fault_events():
    outcome, sink = traced_evaluate(
        transient_registry(failures=2),
        make_document(),
        QUERY,
        fault_policy=FaultPolicy.RETRY,
        retry=RetryPolicy(max_attempts=4, base_backoff_s=0.01),
    )
    assert outcome.metrics.retries == 2
    (root,) = sink.roots
    f_span = next(
        s for s in root.find_all(INVOCATION) if s.tags["service"] == "f"
    )
    names = f_span.event_names()
    assert names.count(EVENT_ATTEMPT) == 3  # fail, fail, succeed
    assert names.count(EVENT_FAULT) == 2
    assert names.count(EVENT_BACKOFF) == 2
    assert all(
        e.tags["seconds"] > 0
        for e in f_span.events
        if e.name == EVENT_BACKOFF
    )
    assert "fault_kind" not in f_span.tags  # eventually succeeded
    assert verify_nesting(root) == []


@pytest.mark.parametrize(
    "policy", [FaultPolicy.FREEZE, FaultPolicy.SKIP], ids=lambda p: p.value
)
def test_single_attempt_policies_record_the_fault(policy):
    outcome, sink = traced_evaluate(
        transient_registry(failures=2),
        make_document(),
        QUERY,
        fault_policy=policy,
        retry=RetryPolicy(max_attempts=1),
    )
    (root,) = sink.roots
    f_span = next(
        s for s in root.find_all(INVOCATION) if s.tags["service"] == "f"
    )
    names = f_span.event_names()
    assert names.count(EVENT_ATTEMPT) == 1
    assert names.count(EVENT_FAULT) == 1
    assert EVENT_BACKOFF not in names
    # One vocabulary at every width: the log's own word, not the
    # exception's class name.
    assert f_span.tags["fault_kind"] == "fault"
    if policy is FaultPolicy.FREEZE:
        assert outcome.metrics.calls_frozen >= 1
    else:
        assert outcome.metrics.calls_skipped >= 1
    assert verify_nesting(root) == []


def test_breaker_trip_and_short_circuit_appear_as_events():
    _, sink = traced_evaluate(
        transient_registry(failures=10),  # never recovers in this run
        make_document(),
        QUERY,
        fault_policy=FaultPolicy.RETRY,
        retry=RetryPolicy(max_attempts=4, base_backoff_s=0.01),
        breaker=CircuitBreakerPolicy(failure_threshold=3, reset_after_s=None),
    )
    (root,) = sink.roots
    f_span = next(
        s for s in root.find_all(INVOCATION) if s.tags["service"] == "f"
    )
    names = f_span.event_names()
    assert EVENT_BREAKER_TRIP in names
    assert EVENT_SHORT_CIRCUIT in names  # attempt 4 found the circuit open
    assert f_span.tags["fault_kind"] == "short_circuit"
    assert verify_nesting(root) == []


# ------------------------------------------------------------ export and report


def test_jsonl_export_round_trips_to_in_memory_trees():
    buffer = io.StringIO()
    memory = InMemorySink()
    sink = TeeSink(memory, JsonlSink(buffer))
    config = EngineConfig(
        trace=sink,
        fault_policy=FaultPolicy.RETRY,
        retry=RetryPolicy(max_attempts=4, base_backoff_s=0.01),
    )
    engine = LazyQueryEvaluator(
        ServiceBus(transient_registry(failures=2)), config=config
    )
    engine.evaluate(QUERY, make_document())
    loaded = load_jsonl_spans(buffer.getvalue().splitlines())
    assert [r.to_tree_dict() for r in loaded] == [
        r.to_tree_dict() for r in memory.roots
    ]


def test_jsonl_loader_promotes_orphans_to_roots():
    buffer = io.StringIO()
    sink = JsonlSink(buffer)
    tracer = Tracer(sink)
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    lines = buffer.getvalue().splitlines()
    truncated = [l for l in lines if '"name": "inner"' in l]
    (orphan,) = load_jsonl_spans(truncated)
    assert orphan.name == "inner" and orphan.parent_id is not None


def test_phase_profile_uses_exclusive_time_and_formats():
    _, sink = traced_evaluate(
        figure_1_registry(), figure_1_document(), paper_query()
    )
    profile = phase_profile(sink.roots)
    assert profile[INVOCATION].count == len(sink.find_all(INVOCATION))
    (root,) = sink.roots
    # Exclusive times sum back to the root's inclusive wall time.
    total = sum(stats.wall_s for stats in profile.values())
    assert total == pytest.approx(root.wall_s, rel=1e-6, abs=1e-6)
    text = format_phase_profile(profile)
    for phase in (INVOCATION, RELEVANCE_CHECK, FINAL_MATCH):
        assert phase in text
    assert format_trace_profile(sink) == text
