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


def test_a_warm_load_keeps_its_immediate_calls_without_making_their_scopes():
    """The IMMEDIATE check reads the document's own set of such calls:
    on a warm load it is seeded from the kept text, so the check makes
    only the scopes that hold one; calls arriving IMMEDIATE in a reply
    join it and fire too, and an invoked or frozen call is no longer
    one of them."""
    from repro import kept
    from repro.axml.xmlio import parse_document, serialize_document

    text = serialize_document(
        build_document(
            E(
                "r",
                E("queried", E("x", V("1"))),
                E("quiet", E("y", C("lazy_one"))),
                E("other", E("z", C("eager", activation=Activation.IMMEDIATE))),
            )
        )
    )
    parse_document(text)  # the cold load keeps the text
    warm = parse_document(text)
    quiet, other = warm.root.children[1:]
    assert [c.label for c in warm.immediate_calls()] == ["eager"]
    assert warm.has_immediate_calls()
    assert type(quiet) is not type(warm.root)
    assert type(other) is type(warm.root)
    engine, bus = make_engine(
        eager=[C("inner", activation=Activation.IMMEDIATE)],
        inner=[V("deep")],
        lazy_one=[V("later")],
    )
    out = engine.evaluate(parse_pattern("/r/queried/x/$V"), warm)
    assert bus.log.calls_by_service() == {"eager": 1, "inner": 1}
    assert out.value_rows() == {("1",)}
    assert warm.immediate_calls() == [] and not warm._immediate
    assert not warm.has_immediate_calls()
    assert type(quiet) is not type(warm.root)
    assert kept.texts[text].immediate  # the kept text still says so
    frozen = parse_document(text)
    (eager,) = frozen.immediate_calls()
    eager.activation = Activation.FROZEN
    assert frozen.immediate_calls() == [] and not frozen.has_immediate_calls()
