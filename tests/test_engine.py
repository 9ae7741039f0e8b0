"""Engine tests: strategies, relevance semantics, limits, faults."""

import pytest

from repro.axml.builder import C, E, V, build_document
from repro.lazy.config import EngineConfig, FaultPolicy, Strategy, TypingMode
from repro.lazy.engine import LazyQueryEvaluator
from repro.pattern.parse import parse_pattern
from repro.services.catalog import (
    FailingService,
    StaticService,
    TableService,
)
from repro.services.registry import ServiceBus, ServiceRegistry, UnknownServiceError
from repro.services.catalog import ServiceFault
from repro.workloads.hotels import (
    figure_1_document,
    figure_1_registry,
    figure_1_schema,
    paper_query,
)

from .references import undeduplicated

EXPECTED_FIG1_ROWS = {
    ("Jo Mama", "75, 2nd Av."),
    ("In Delis", "2nd Ave."),
    ("Liberty Diner", "2 Liberty Pl."),
}


def run_fig1(**config_kwargs):
    doc = figure_1_document()
    bus = ServiceBus(figure_1_registry())
    engine = LazyQueryEvaluator(
        bus, schema=figure_1_schema(), config=EngineConfig(**config_kwargs)
    )
    return engine.evaluate(paper_query(), doc), bus


@pytest.mark.parametrize(
    "config",
    [
        pytest.param(dict(strategy=Strategy.NAIVE), id="Strategy.NAIVE"),
        # Section 1's top-down baseline: the LPQs un-layered and sequential.
        pytest.param(
            dict(strategy=Strategy.LAZY_LPQ, use_layers=False, parallel=False),
            id="Strategy.TOP_DOWN",
        ),
        pytest.param(dict(strategy=Strategy.LAZY_LPQ), id="Strategy.LAZY_LPQ"),
        pytest.param(dict(strategy=Strategy.LAZY_NFQ), id="Strategy.LAZY_NFQ"),
    ],
)
def test_all_strategies_compute_the_full_result(config):
    outcome, _ = run_fig1(**config)
    assert outcome.value_rows() == EXPECTED_FIG1_ROWS
    assert outcome.metrics.completed


def test_naive_materialises_everything():
    outcome, bus = run_fig1(strategy=Strategy.NAIVE)
    assert not outcome.document.function_nodes()
    assert outcome.metrics.calls_invoked == 11


def test_lazy_nfq_prunes_irrelevant_hotels():
    outcome, bus = run_fig1(strategy=Strategy.LAZY_NFQ)
    per_service = bus.log.calls_by_service()
    # The three non-matching hotels' getRating calls never fire.
    assert per_service.get("getRating", 0) == 1  # only the nested one
    assert outcome.metrics.calls_invoked == 4


def test_typed_mode_also_prunes_museums():
    untyped, _ = run_fig1(strategy=Strategy.LAZY_NFQ)
    typed, bus = run_fig1(typing=TypingMode.LENIENT)
    assert typed.metrics.calls_invoked < untyped.metrics.calls_invoked
    assert "getNearbyMuseums" not in bus.log.calls_by_service()


def test_exact_and_lenient_typing_agree_here():
    lenient, _ = run_fig1(typing=TypingMode.LENIENT)
    exact, _ = run_fig1(typing=TypingMode.EXACT)
    assert lenient.value_rows() == exact.value_rows() == EXPECTED_FIG1_ROWS
    assert lenient.metrics.completed and exact.metrics.completed
    assert lenient.metrics.calls_invoked == exact.metrics.calls_invoked


def test_invoked_calls_leave_no_relevant_calls_behind():
    outcome, _ = run_fig1(strategy=Strategy.LAZY_NFQ)
    # Completeness (Definition 3/4): after the rewriting, every NFQ
    # returns empty — i.e. the remaining calls are irrelevant.
    from repro.lazy.relevance import build_nfqs
    from repro.pattern.match import Matcher

    for rq in build_nfqs(paper_query()):
        assert not Matcher(rq.pattern).evaluate(outcome.document).distinct_nodes()


def test_document_keeps_irrelevant_calls():
    outcome, _ = run_fig1(strategy=Strategy.LAZY_NFQ)
    remaining = {n.label for n in outcome.document.function_nodes()}
    assert "getRating" in remaining  # the non-matching hotels keep theirs


def test_parallel_rounds_reduce_round_count():
    sequential, _ = run_fig1(strategy=Strategy.LAZY_NFQ, parallel=False)
    parallel, _ = run_fig1(strategy=Strategy.LAZY_NFQ, parallel=True)
    assert parallel.value_rows() == sequential.value_rows()
    assert parallel.metrics.invocation_rounds <= sequential.metrics.invocation_rounds
    assert (
        parallel.metrics.simulated_parallel_s
        <= sequential.metrics.simulated_sequential_s
    )


def test_plain_nfqa_without_layers_matches():
    layered, _ = run_fig1(strategy=Strategy.LAZY_NFQ)
    plain, _ = run_fig1(strategy=Strategy.LAZY_NFQ, use_layers=False)
    assert plain.value_rows() == layered.value_rows()


def test_top_down_restarts_are_counted():
    """Section 1's top-down baseline is the LPQs written out un-layered
    and sequential: one call per round."""
    outcome, _ = run_fig1(
        strategy=Strategy.LAZY_LPQ, use_layers=False, parallel=False
    )
    assert outcome.metrics.strategy == "lazy-lpq+unlayered+sequential"
    # One relevance sweep per invocation (the "restart" cost).
    assert outcome.metrics.invocation_rounds == outcome.metrics.calls_invoked
    assert outcome.metrics.relevance_evaluations >= outcome.metrics.calls_invoked


def test_max_invocations_guard_reports_incomplete():
    outcome, _ = run_fig1(strategy=Strategy.NAIVE, max_invocations=3)
    assert not outcome.metrics.completed
    assert outcome.metrics.calls_invoked == 3


def test_lazy_budget_guard():
    outcome, _ = run_fig1(strategy=Strategy.LAZY_NFQ, max_invocations=1)
    assert not outcome.metrics.completed
    assert outcome.metrics.calls_invoked == 1


def test_unknown_service_raises():
    doc = build_document(E("r", C("ghost")))
    bus = ServiceBus(ServiceRegistry([]))
    engine = LazyQueryEvaluator(bus, config=EngineConfig(strategy=Strategy.NAIVE))
    with pytest.raises(UnknownServiceError):
        engine.evaluate(parse_pattern("/r/x"), doc)


def test_fault_policy_raise():
    registry = ServiceRegistry(
        [FailingService("f", StaticService("inner", [E("x", V("1"))]))]
    )
    doc = build_document(E("r", C("f")))
    engine = LazyQueryEvaluator(
        ServiceBus(registry), config=EngineConfig(strategy=Strategy.LAZY_NFQ)
    )
    with pytest.raises(ServiceFault):
        engine.evaluate(parse_pattern("/r/x"), doc)


def test_fault_policy_freeze_continues():
    registry = ServiceRegistry(
        [
            FailingService("f", StaticService("inner", [E("x", V("1"))])),
            StaticService("g", [E("x", V("2"))]),
        ]
    )
    doc = build_document(E("r", C("f"), C("g")))
    engine = LazyQueryEvaluator(
        ServiceBus(registry),
        config=EngineConfig(
            strategy=Strategy.LAZY_NFQ, fault_policy=FaultPolicy.FREEZE
        ),
    )
    out = engine.evaluate(parse_pattern("/r/x/$V"), doc)
    assert out.value_rows() == {("2",)}
    assert out.metrics.faults == out.metrics.calls_frozen == 1


def test_snapshot_empty_document_short_circuits():
    doc = build_document(E("r"))
    bus = ServiceBus(ServiceRegistry([]))
    out = LazyQueryEvaluator(
        bus, config=EngineConfig(strategy=Strategy.LAZY_NFQ)
    ).evaluate(parse_pattern("/r/x"), doc)
    assert out.metrics.calls_invoked == 0
    assert len(out.rows) == 0


def test_dynamic_new_services_are_refined_in():
    """A call returns a call to a service unknown at analysis start;
    typed refinement must pick it up (Section 5's dynamic note)."""
    inner = StaticService(
        "lateService",
        [E("x", V("42"))],
        signature=None,
    )
    outer = StaticService("starter", [C("lateService", V("k"))])
    registry = ServiceRegistry([inner, outer])
    doc = build_document(E("r", C("starter", V("k"))))
    engine = LazyQueryEvaluator(
        ServiceBus(registry),
        config=EngineConfig(typing=TypingMode.LENIENT),
    )
    out = engine.evaluate(parse_pattern("/r/x/$V"), doc)
    assert out.value_rows() == {("42",)}


def test_metrics_summary_renders():
    outcome, _ = run_fig1(strategy=Strategy.LAZY_NFQ)
    text = outcome.metrics.summary()
    assert "lazy-nfq" in text
    assert "calls=4" in text
    # Relevance upkeep has no knob: its three counters print on every
    # lazy run (hits / re-evaluations / scope re-matches).
    m = outcome.metrics
    assert (
        f" rel-cache={m.relevance_cache_hits}/{m.queries_reevaluated}"
        f"/{m.relevance_scope_rematches} " in text
    )
    assert m.queries_reevaluated > 0


def test_rounds_are_recorded():
    outcome, _ = run_fig1(strategy=Strategy.LAZY_NFQ)
    assert outcome.rounds
    assert sum(len(r.calls) for r in outcome.rounds) == 4


def test_validate_io_accepts_conforming_services():
    outcome, _ = run_fig1(strategy=Strategy.LAZY_NFQ, validate_io=True)
    assert outcome.value_rows() == EXPECTED_FIG1_ROWS
    assert outcome.metrics.io_violations == 0


def test_validate_io_raises_on_bad_output():
    from repro.schema.schema import SchemaError
    from repro.services.catalog import make_signature

    bad = StaticService(
        "liar",
        [E("museum")],  # claims restaurant*, returns museums
        signature=make_signature("liar", "data", "restaurant*"),
    )
    registry = ServiceRegistry([bad])
    doc = build_document(E("r", C("liar", V("k"))))
    engine = LazyQueryEvaluator(
        ServiceBus(registry),
        config=EngineConfig(strategy=Strategy.NAIVE, validate_io=True),
    )
    with pytest.raises(SchemaError):
        engine.evaluate(parse_pattern("/r/x"), doc)


def test_validate_io_freeze_policy_counts_violations():
    from repro.services.catalog import make_signature

    bad = StaticService(
        "liar",
        [E("museum")],
        signature=make_signature("liar", "data", "restaurant*"),
    )
    registry = ServiceRegistry([bad])
    doc = build_document(E("r", C("liar", V("k"))))
    engine = LazyQueryEvaluator(
        ServiceBus(registry),
        config=EngineConfig(
            strategy=Strategy.NAIVE,
            validate_io=True,
            fault_policy=FaultPolicy.FREEZE,
        ),
    )
    outcome = engine.evaluate(parse_pattern("/r/x"), doc)
    assert outcome.metrics.io_violations == 1


def test_lpqs_read_dedupe_relevance_queries():
    """Under ``undeduplicated()`` the LPQ family is Section 3.1's
    verbatim, and the run invokes and returns what the de-duplicated
    family's does."""
    from repro.lazy.relevance import linear_path_queries

    query = paper_query()
    deduped, deduped_bus = run_fig1(strategy=Strategy.LAZY_LPQ)
    with undeduplicated():
        verbatim, verbatim_bus = run_fig1(strategy=Strategy.LAZY_LPQ)
    built = verbatim.metrics.relevance_queries_built
    assert built == len(linear_path_queries(query, dedupe=False))
    assert built > deduped.metrics.relevance_queries_built
    assert deduped.metrics.relevance_queries_built == len(
        linear_path_queries(query)
    )
    assert verbatim.value_rows() == deduped.value_rows() == EXPECTED_FIG1_ROWS
    assert verbatim.metrics.calls_invoked == deduped.metrics.calls_invoked
    assert sorted(verbatim_bus.log.calls_by_service().items()) == sorted(
        deduped_bus.log.calls_by_service().items()
    )
