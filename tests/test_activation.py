"""Tests for call-activation modes (Section 1's AXML system features)."""

from repro.axml.builder import C, E, V, build_document
from repro.axml.node import Activation, call
from repro.axml.xmlio import parse, serialize
from repro.lazy.config import EngineConfig, Strategy
from repro.lazy.engine import LazyQueryEvaluator
from repro.pattern.parse import parse_pattern
from repro.services.catalog import StaticService
from repro.services.registry import ServiceBus, ServiceRegistry


def make_engine(strategy=Strategy.LAZY_NFQ, **services):
    registry = ServiceRegistry(
        [StaticService(name, forest) for name, forest in services.items()]
    )
    bus = ServiceBus(registry)
    return LazyQueryEvaluator(bus, config=EngineConfig(strategy=strategy)), bus


def test_default_activation_is_lazy():
    assert call("f").activation is Activation.LAZY
    assert C("f").activation is Activation.LAZY


def test_activation_survives_clone_and_xml_roundtrip():
    node = E("r", C("f", activation=Activation.FROZEN),
             C("g", activation=Activation.IMMEDIATE), C("h"))
    assert node.clone().children[0].activation is Activation.FROZEN
    xml = serialize(node)
    assert 'mode="frozen"' in xml
    assert 'mode="immediate"' in xml
    assert xml.count("mode=") == 2  # lazy stays implicit
    again = parse(xml)
    assert [c.activation for c in again.children] == [
        Activation.FROZEN,
        Activation.IMMEDIATE,
        Activation.LAZY,
    ]


def test_frozen_calls_are_never_invoked_lazily():
    doc = build_document(
        E("r", E("x", C("f", activation=Activation.FROZEN)))
    )
    engine, bus = make_engine(f=[V("1")])
    out = engine.evaluate(parse_pattern("/r/x/$V"), doc)
    assert bus.log.call_count == 0
    assert out.value_rows() == set()
    assert out.metrics.completed
    assert len(doc.function_nodes()) == 1  # still intensional


def test_frozen_calls_are_skipped_by_naive_too():
    doc = build_document(
        E("r", C("f", activation=Activation.FROZEN), C("g"))
    )
    engine, bus = make_engine(
        strategy=Strategy.NAIVE, f=[V("1")], g=[E("x", V("2"))]
    )
    out = engine.evaluate(parse_pattern("/r/x/$V"), doc)
    assert bus.log.calls_by_service() == {"g": 1}
    assert out.metrics.completed
    assert out.value_rows() == {("2",)}


def test_immediate_calls_fire_before_the_analysis():
    # The immediate call sits on a path the query never touches.
    doc = build_document(
        E(
            "r",
            E("queried", E("x", V("1"))),
            E("other", C("eager", activation=Activation.IMMEDIATE)),
            E("also", C("lazy_one")),
        )
    )
    engine, bus = make_engine(eager=[V("now")], lazy_one=[V("later")])
    out = engine.evaluate(parse_pattern("/r/queried/x/$V"), doc)
    # Eager fired despite being irrelevant; the lazy one did not.
    assert bus.log.calls_by_service() == {"eager": 1}
    assert out.value_rows() == {("1",)}


def test_immediate_results_cascade():
    doc = build_document(
        E("r", C("outer", activation=Activation.IMMEDIATE))
    )
    registry = ServiceRegistry(
        [
            StaticService(
                "outer",
                [E("wrap", C("inner", activation=Activation.IMMEDIATE))],
            ),
            StaticService("inner", [V("deep")]),
        ]
    )
    engine = LazyQueryEvaluator(
        ServiceBus(registry), config=EngineConfig(strategy=Strategy.LAZY_NFQ)
    )
    out = engine.evaluate(parse_pattern("/r/wrap/$V"), doc)
    assert out.value_rows() == {("deep",)}


def _frozen_condition_world():
    doc = build_document(
        E(
            "r",
            E("a", C("maybe", activation=Activation.FROZEN)),
            E("b", C("fetch")),
        )
    )
    registry = ServiceRegistry(
        [
            StaticService("maybe", [V("1")]),
            StaticService("fetch", [E("x", V("2"))]),
        ]
    )
    return doc, ServiceBus(registry), parse_pattern('/r[a="1"]/b/x/$V')


def test_layered_engine_proves_frozen_conditions_hopeless():
    """With layers, the a-position layer finishes without firing the
    frozen call, its () alternative is dropped, and the engine proves
    that a="1" can never hold — so fetch is never invoked at all."""
    doc, bus, query = _frozen_condition_world()
    engine = LazyQueryEvaluator(
        bus, config=EngineConfig(strategy=Strategy.LAZY_NFQ)
    )
    out = engine.evaluate(query, doc)
    assert bus.log.call_count == 0
    assert out.value_rows() == set()


def test_plain_nfqa_stays_optimistic_about_frozen_conditions():
    """Without the layer simplification the () branch keeps matching the
    frozen call, so the sibling call fires (safely, for nothing)."""
    doc, bus, query = _frozen_condition_world()
    engine = LazyQueryEvaluator(
        bus,
        config=EngineConfig(strategy=Strategy.LAZY_NFQ, use_layers=False),
    )
    out = engine.evaluate(query, doc)
    assert bus.log.calls_by_service() == {"fetch": 1}
    assert out.value_rows() == set()


def test_the_immediate_check_reads_the_arena_and_keeps_document_order():
    """Without an IMMEDIATE call the engine never walks the tree to
    learn so; with some, they fire in document order even after splices
    scrambled the arena's slot order."""
    from unittest import mock

    from repro.axml.document import Document

    engine, bus = make_engine(a=[V("1")], b=[V("2")], c=[V("3")])
    quiet = build_document(E("r", E("x", C("a")), E("y", V("0"))))
    with mock.patch.object(
        Document, "function_nodes", side_effect=AssertionError("walked")
    ):
        out = engine.evaluate(parse_pattern("/r/x/$V"), quiet)
    assert out.value_rows() == {("1",)}

    doc = build_document(E("r", E("x", V("0")), E("y", V("0")), E("z", V("0"))))
    x, y, z = doc.root.children
    doc.arena  # mirror first, so later inserts recycle and append slots
    doc.remove_subtree(x.children[0])
    doc.insert_subtree(z, C("c", activation=Activation.IMMEDIATE))
    doc.insert_subtree(y, C("b", activation=Activation.IMMEDIATE))
    doc.insert_subtree(x, C("a", activation=Activation.IMMEDIATE))
    assert [c.label for c in doc.arena.function_nodes()] != ["a", "b", "c"]
    engine.evaluate(parse_pattern("/r/x/$V"), doc)
    assert [r.service_name for r in bus.log.records[-3:]] == ["a", "b", "c"]
