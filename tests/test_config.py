"""Unit tests for EngineConfig and Metrics."""

import pytest

from repro.lazy.config import EngineConfig, FaultPolicy, Strategy, TypingMode
from repro.lazy.metrics import Metrics
from repro.services.service import PushMode


def test_defaults_are_the_papers_full_system():
    config = EngineConfig()
    assert config.strategy is Strategy.LAZY_NFQ
    assert config.use_layers and config.parallel
    assert config.push_mode is PushMode.NONE
    assert config.typing is TypingMode.NONE
    assert config.fault_policy is FaultPolicy.RAISE


def test_typed_strategy_defaults_to_lenient_oracle():
    config = EngineConfig(strategy=Strategy.LAZY_NFQ_TYPED)
    assert config.typing is TypingMode.LENIENT
    explicit = EngineConfig(
        strategy=Strategy.LAZY_NFQ_TYPED, typing=TypingMode.EXACT
    )
    assert explicit.typing is TypingMode.EXACT


def test_baselines_disable_layering():
    assert EngineConfig(strategy=Strategy.NAIVE).use_layers is False
    top_down = EngineConfig(strategy=Strategy.TOP_DOWN)
    assert top_down.use_layers is False
    assert top_down.parallel is False


@pytest.mark.parametrize(
    "kwargs,expected",
    [
        (dict(strategy=Strategy.LAZY_NFQ), "lazy-nfq"),
        (
            dict(strategy=Strategy.LAZY_NFQ_TYPED),
            "lazy-nfq-typed+lenient",
        ),
        (
            dict(strategy=Strategy.LAZY_NFQ, call_cache=True, maintain_answers=True),
            "lazy-nfq+cache+ans",
        ),
        (
            dict(strategy=Strategy.LAZY_NFQ, push_mode=PushMode.BINDINGS),
            "lazy-nfq+push-bindings",
        ),
    ],
)
def test_labels(kwargs, expected):
    assert EngineConfig(**kwargs).label == expected


def test_no_matching_knob_is_left():
    """Which evaluator runs is read off the document (a mirrored root
    with a compiled plan runs the plan), never off the config."""
    assert len(EngineConfig.field_names()) == 19
    with pytest.raises(TypeError, match="shared_matching"):
        EngineConfig(shared_matching=True)
    assert "shared" not in EngineConfig.serving().label
    # Nor is there a real-threads knob: services are in-process, and a
    # round's overlap is simulated on the one bus clock.
    with pytest.raises(TypeError, match="use_threads"):
        EngineConfig(use_threads=False)
    # Nor a retrieval or round-width knob: relevance is read through
    # the document's store, rounds are exact.
    for gone in ("use_fguide", "speculative"):
        with pytest.raises(TypeError, match=gone):
            EngineConfig(**{gone: True})


def test_max_concurrency_is_unset_by_default_and_labelled_when_set():
    assert EngineConfig().max_concurrency is None
    assert "conc" not in EngineConfig().label
    assert EngineConfig(max_concurrency=1).label.endswith("+conc1")
    assert "conc4" in EngineConfig.serving().label
    for bad in (0, -2, True, 1.5):
        with pytest.raises(ValueError, match="max_concurrency"):
            EngineConfig(max_concurrency=bad)


def test_fields_are_keyword_only():
    with pytest.raises(TypeError):
        EngineConfig(Strategy.NAIVE)


def test_enum_fields_accept_string_values():
    config = EngineConfig(strategy="naive", fault_policy="retry")
    assert config.strategy is Strategy.NAIVE
    assert config.fault_policy is FaultPolicy.RETRY


@pytest.mark.parametrize(
    "kwargs,field",
    [
        (dict(strategy="eager"), "strategy"),
        (dict(typing="psychic"), "typing"),
        (dict(push_mode="shove"), "push_mode"),
        (dict(fault_policy="panic"), "fault_policy"),
        (dict(max_invocations=0), "max_invocations"),
        (dict(max_rounds=-3), "max_rounds"),
        (dict(max_rounds=True), "max_rounds"),
    ],
)
def test_bad_values_fail_fast_naming_the_field(kwargs, field):
    with pytest.raises(ValueError, match=f"EngineConfig.{field}"):
        EngineConfig(**kwargs)


@pytest.mark.parametrize(
    "kwargs,field",
    [
        (dict(parallel="yes"), "parallel"),
        (dict(use_layers=1), "use_layers"),
        (dict(maintain_answers=1), "maintain_answers"),
        (dict(retry=3), "retry"),
        (dict(breaker="open"), "breaker"),
        (dict(trace="stdout"), "trace"),
    ],
)
def test_bad_types_fail_fast_naming_the_field(kwargs, field):
    with pytest.raises(TypeError, match=f"EngineConfig.{field}"):
        EngineConfig(**kwargs)


def test_call_cache_ttl_without_the_cache_is_rejected():
    with pytest.raises(ValueError) as raised:
        EngineConfig(call_cache_ttl_s=30.0)
    assert "EngineConfig.call_cache_ttl_s" in str(raised.value)
    assert "EngineConfig.call_cache=True" in str(raised.value)
    assert EngineConfig(call_cache=True, call_cache_ttl_s=30.0).call_cache
    # The serving preset switches the cache on, so a bare TTL is fine.
    assert EngineConfig.serving(call_cache_ttl_s=30.0).call_cache_ttl_s == 30.0


def test_trace_accepts_sink_and_tracer():
    from repro.obs.trace import InMemorySink, Tracer

    sink = InMemorySink()
    assert EngineConfig(trace=sink).trace is sink
    tracer = Tracer(sink)
    assert EngineConfig(trace=tracer).trace is tracer
    assert EngineConfig(trace=None).trace is None


def test_metrics_derived_quantities():
    metrics = Metrics(
        strategy="x",
        analysis_wall_s=0.5,
        simulated_sequential_s=2.0,
        simulated_parallel_s=0.75,
        bytes_sent=100,
        bytes_received=400,
    )
    assert metrics.total_time_s == 2.5
    assert metrics.total_time_parallel_s == 1.25
    assert metrics.total_bytes == 500


def test_metrics_summary_mentions_key_figures():
    metrics = Metrics(strategy="demo", calls_invoked=7, result_rows=3)
    text = metrics.summary()
    assert "demo" in text and "calls=7" in text and "rows=3" in text
