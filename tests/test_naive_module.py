"""The naive fixpoint driver, through ``strategy="naive"``.

``naive_fixpoint`` only picks each sweep's calls; invoking them is the
engine's one dispatch, so its behaviours are observed on an evaluation.
"""

import pytest

from repro.axml.builder import C, E, V, build_document
from repro.lazy.config import EngineConfig
from repro.lazy.engine import LazyQueryEvaluator
from repro.pattern.parse import parse_pattern
from repro.services.catalog import StaticService
from repro.services.registry import ServiceBus, ServiceRegistry


def drive(document, results_by_service, max_invocations=100, **config):
    """``(invocations, completed, per-round call times, bus)`` of a
    naive run whose services answer ``results_by_service`` (anything
    else answers nothing), each taking 0.1 simulated seconds."""
    names = {c.label for c in document.function_nodes()}
    names.update(results_by_service)
    bus = ServiceBus(
        ServiceRegistry(
            StaticService(name, results_by_service.get(name, []), latency_s=0.1)
            for name in sorted(names)
        )
    )
    engine = LazyQueryEvaluator(
        bus,
        config=EngineConfig(
            strategy="naive", max_invocations=max_invocations, **config
        ),
    )
    outcome = engine.evaluate(parse_pattern("/r"), document)
    rounds = [[float(t) for t in r.calls] for r in outcome.rounds]
    metrics = outcome.metrics
    return metrics.calls_invoked, metrics.completed, rounds, bus


def test_fixpoint_on_extensional_document():
    doc = build_document(E("r", E("a", V("1"))))
    count, completed, rounds, _ = drive(doc, {})
    assert (count, completed) == (0, True)
    assert rounds == []


def test_fixpoint_cascades_through_result_calls():
    doc = build_document(E("r", C("outer")))
    count, completed, rounds, _ = drive(
        doc,
        {
            "outer": [E("mid", C("inner"))],
            "inner": [V("leaf")],
        },
    )
    assert (count, completed) == (2, True)
    assert len(rounds) == 2  # one sweep per nesting level
    assert not doc.function_nodes()


def test_budget_exhaustion_reports_incomplete():
    doc = build_document(E("r", C("a"), C("b"), C("c")))
    count, completed, rounds, _ = drive(doc, {}, max_invocations=2)
    assert count == 2
    assert not completed
    assert len(doc.function_nodes()) == 1
    assert [len(times) for times in rounds] == [2]  # the cut round counts


def test_calls_consumed_as_parameters_are_skipped():
    # `inner` is a parameter of `outer`; invoking outer (document order
    # puts it first) detaches inner before its turn comes — at every
    # width: the dispatch splices each reply before the next call.
    def run(max_concurrency):
        doc = build_document(
            E("r", C("outer", E("arg", C("inner"))), C("side"))
        )
        count, completed, _, bus = drive(
            doc,
            {"outer": [V("done")], "inner": [V("never")]},
            max_concurrency=max_concurrency,
        )
        log = [(r.service_name, r.call_node_id) for r in bus.log.records]
        return count, completed, log

    serial = run(1)
    assert serial[:2] == (2, True)
    assert [name for name, _ in serial[2]] == ["outer", "side"]  # no `inner`
    for width in (None, 2, 8):
        assert run(width) == serial


def test_round_times_are_reported():
    doc = build_document(E("r", C("a"), C("b")))
    _, _, rounds, bus = drive(doc, {})
    assert rounds == [[0.1, 0.1]]
    assert bus.clock_s == pytest.approx(0.1)  # one round, both in flight
