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
    """A typed evaluation — the one-shot default given a schema — runs
    the lenient oracle; an explicit ``EXACT`` is obeyed."""
    config = EngineConfig.one_shot(schema_given=True)
    assert config.strategy is Strategy.LAZY_NFQ
    assert config.typing is TypingMode.LENIENT
    explicit = EngineConfig.one_shot(schema_given=True, typing=TypingMode.EXACT)
    assert explicit.typing is TypingMode.EXACT


def test_typing_is_the_one_spelling_of_section_5():
    """Three strategies; Section 5's refinement is a mode of the NFQs,
    spelled ``typing`` and nothing else, and the top-down baseline is a
    written-out LPQ config, not a strategy."""
    assert [s.value for s in Strategy] == ["naive", "lazy-lpq", "lazy-nfq"]
    for mode in (TypingMode.LENIENT, TypingMode.EXACT):
        assert EngineConfig(typing=mode).typing is mode
    for gone in ("lazy-nfq-typed", "top-down"):
        with pytest.raises(ValueError) as raised:
            EngineConfig(strategy=gone)
        message = str(raised.value)
        assert "EngineConfig.strategy" in message
        for choice in ("'naive'", "'lazy-lpq'", "'lazy-nfq'"):
            assert choice in message


#: Section 1's top-down baseline, written out.
TOP_DOWN = dict(strategy="lazy-lpq", use_layers=False, parallel=False)


@pytest.mark.parametrize(
    "strategy",
    [dict(strategy="naive"), TOP_DOWN, dict(strategy="lazy-lpq")],
    ids=["naive", "top-down", "lazy-lpq"],
)
@pytest.mark.parametrize("typing", ["lenient", "exact"])
def test_typing_outside_the_nfqs_is_rejected(strategy, typing):
    """No strategy but ``LAZY_NFQ`` has an NFQ family to refine: the
    oracle would be built and never read."""
    with pytest.raises(ValueError, match="EngineConfig.typing"):
        EngineConfig(**strategy, typing=typing)
    written = EngineConfig(**strategy, typing="none")
    assert written == EngineConfig(**strategy)


def test_baselines_are_obeyed_as_written():
    """No field is rewritten: the top-down baseline writes its shape
    out, and its label says so."""
    top_down = EngineConfig(**TOP_DOWN)
    assert top_down.use_layers is False and top_down.parallel is False
    assert top_down.label == "lazy-lpq+unlayered+sequential"
    naive = EngineConfig(strategy=Strategy.NAIVE)
    assert naive.use_layers is True and naive.parallel is True
    assert naive.label == "naive"


#: A non-default value for each field some strategy never reads.
NON_DEFAULT = {
    "use_layers": False,
    "parallel": False,
    "push_mode": "filtered",
    "drop_value_joins": True,
    "typing": "lenient",
}
#: Every (strategy, field) pair a strategy never reads.
UNREAD = [("naive", field) for field in NON_DEFAULT] + [
    ("lazy-lpq", "drop_value_joins"),
    ("lazy-lpq", "typing"),
]


@pytest.mark.parametrize(
    "strategy,field", UNREAD, ids=[f"{s}-{f}" for s, f in UNREAD]
)
def test_a_field_the_strategy_never_reads_is_refused(strategy, field):
    with pytest.raises(ValueError, match=f"EngineConfig.{field}=") as raised:
        EngineConfig(strategy=strategy, **{field: NON_DEFAULT[field]})
    assert f"strategy={strategy!r}" in str(raised.value)


def test_the_refusal_table_is_the_configs_own():
    """The pairs above are the table the config applies, and every
    strategy takes a non-default value of a field the table does not
    name for it."""
    from repro.lazy.config import UNREAD_FIELDS

    assert sorted(
        (strategy.value, field)
        for strategy, fields in UNREAD_FIELDS.items()
        for field in fields
    ) == sorted(UNREAD)
    for strategy in Strategy:
        for field, value in NON_DEFAULT.items():
            if (strategy.value, field) not in UNREAD:
                EngineConfig(strategy=strategy, **{field: value})


@pytest.mark.parametrize("strategy", [s.value for s in Strategy])
def test_every_strategy_constructs_with_its_defaults(strategy):
    for config in (
        EngineConfig(strategy=strategy),
        EngineConfig.serving(strategy=strategy),
        EngineConfig.one_shot(schema_given=True, strategy=strategy),
        EngineConfig.one_shot(schema_given=False, strategy=strategy),
    ):
        assert config.strategy.value == strategy


def test_a_copy_does_not_inherit_a_rewrite():
    """A config is copied as written: a naive config's layering and
    round width are the defaults, so a copy under another strategy is
    layered and parallel."""
    import dataclasses

    copied = dataclasses.replace(EngineConfig(strategy="naive"), strategy="lazy-nfq")
    assert copied.use_layers is True and copied.parallel is True
    assert copied == EngineConfig()


@pytest.mark.parametrize(
    "kwargs,expected",
    [
        (dict(strategy=Strategy.LAZY_NFQ), "lazy-nfq"),
        (
            dict(strategy=Strategy.LAZY_NFQ, typing=TypingMode.LENIENT),
            "lazy-nfq+lenient",
        ),
        (
            dict(strategy=Strategy.LAZY_NFQ, call_cache=True),
            "lazy-nfq+cache",
        ),
        (
            dict(strategy=Strategy.LAZY_NFQ, push_mode=PushMode.BINDINGS),
            "lazy-nfq+push-bindings",
        ),
        (dict(use_layers=False), "lazy-nfq+unlayered"),
        (dict(parallel=False, max_concurrency=1), "lazy-nfq+sequential+conc1"),
        # Relaxed NFQs are another family, one that can retrieve calls
        # the exact NFQs do not: the label tells the runs apart.
        (dict(drop_value_joins=True), "lazy-nfq+relaxed"),
        (
            dict(drop_value_joins=True, typing=TypingMode.LENIENT),
            "lazy-nfq+lenient+relaxed",
        ),
    ],
)
def test_labels(kwargs, expected):
    assert EngineConfig(**kwargs).label == expected


def test_no_matching_knob_is_left():
    """Which evaluator runs is read off the document (a mirrored root
    with a compiled plan runs the plan), never off the config."""
    assert len(EngineConfig.field_names()) == 14
    # Nor an embedding-semantics knob: a call's parameters are opaque
    # (Section 2), always; nor a de-duplication switch: the families
    # are always de-duplicated (Section 4.1's ablation is a reference
    # seam, ``tests/references.py::undeduplicated``).
    for gone, value in (
        ("match_options", object()),
        ("dedupe_relevance_queries", False),
    ):
        with pytest.raises(TypeError, match=gone):
            EngineConfig(**{gone: value})
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
    # Nor a maintenance switch (it is how a standing query refreshes),
    # a second cache field, or a round budget the invocation budget
    # already implies.
    for gone in ("maintain_answers", "call_cache_ttl_s", "max_rounds"):
        with pytest.raises(TypeError, match=gone):
            EngineConfig(**{gone: 1})


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
    config = EngineConfig(strategy="naive", fault_policy="freeze")
    assert config.strategy is Strategy.NAIVE
    assert config.fault_policy is FaultPolicy.FREEZE


def test_a_fault_policy_says_what_follows_the_last_attempt():
    """Two policies; the attempts are ``retry``'s, one by default."""
    assert [p.value for p in FaultPolicy] == ["raise", "freeze"]
    with pytest.raises(ValueError, match="EngineConfig.fault_policy"):
        EngineConfig(fault_policy="retry")
    assert EngineConfig().retry.max_attempts == 1
    assert EngineConfig.serving().retry.max_attempts == 1


@pytest.mark.parametrize(
    "kwargs,field",
    [
        (dict(strategy="eager"), "strategy"),
        (dict(typing="psychic"), "typing"),
        (dict(push_mode="shove"), "push_mode"),
        (dict(fault_policy="panic"), "fault_policy"),
        (dict(max_invocations=0), "max_invocations"),
        (dict(call_cache=0), "call_cache"),
        (dict(call_cache=-1), "call_cache"),
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
        (dict(validate_io=1), "validate_io"),
        (dict(retry=3), "retry"),
        (dict(breaker="open"), "breaker"),
        (dict(trace="stdout"), "trace"),
    ],
)
def test_bad_types_fail_fast_naming_the_field(kwargs, field):
    with pytest.raises(TypeError, match=f"EngineConfig.{field}"):
        EngineConfig(**kwargs)


def test_call_cache_is_off_on_or_an_expiry():
    """One field: ``False`` off, ``True`` on with no expiry, a positive
    number on with that expiry in simulated seconds."""
    for setting in (False, True, 30.0, 5):
        assert EngineConfig(call_cache=setting).call_cache == setting
    assert EngineConfig.serving(call_cache=30.0).call_cache == 30.0
    for bad in (0, -1, "yes", 0.0, None):
        with pytest.raises(ValueError) as raised:
            EngineConfig(call_cache=bad)
        assert "EngineConfig.call_cache" in str(raised.value)


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
