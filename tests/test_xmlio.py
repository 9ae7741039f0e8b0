"""Unit tests for XML (de)serialisation of AXML trees."""

import pytest

from repro import kept
from repro.axml.builder import C, E, V, build_document
from repro.axml.node import value
from repro.axml.xmlio import (
    forest_size_bytes,
    parse,
    parse_document,
    serialize,
    serialize_document,
    serialize_forest,
    serialized_size,
)


def sample_tree():
    return E(
        "hotel",
        E("name", V("Best Western")),
        E("nearby", C("getNearbyRestos", V("2nd Av."))),
    )


def test_roundtrip_preserves_structure():
    tree = sample_tree()
    again = parse(serialize(tree))
    assert again.structurally_equal(tree)


def test_function_nodes_use_axml_call_convention():
    xml = serialize(sample_tree())
    assert 'service="getNearbyRestos"' in xml
    assert "call" in xml


def test_parse_rejects_call_without_service():
    with pytest.raises(ValueError):
        parse('<a xmlns:axml="http://activexml.net/2004/axml"><axml:call/></a>')


def test_the_loader_keeps_a_bounded_number_of_texts(monkeypatch):
    """``parse_document`` keeps at most ``kept.texts.bound`` texts: one
    more evicts the least recently parsed, a re-parse makes a text the
    most recent, and an evicted text is walked again on its next parse."""
    from repro.axml import xmlio

    kept.forget()
    bound = kept.texts.bound
    walks = []
    walk = xmlio._walk
    monkeypatch.setattr(xmlio, "_walk", lambda elem: walks.append(elem) or walk(elem))
    texts = [f"<r><a>{i}</a></r>" for i in range(bound + 1)]
    for text in texts[:-1]:
        parse_document(text)
    assert list(kept.texts) == texts[:-1]
    parse_document(texts[0])
    assert list(kept.texts) == texts[1:-1] + texts[:1]
    assert len(walks) == bound
    parse_document(texts[-1])
    assert list(kept.texts) == texts[2:-1] + [texts[0], texts[-1]]
    parse_document(texts[1])
    assert len(walks) == bound + 2
    assert list(kept.texts) == texts[3:-1] + [texts[0], texts[-1], texts[1]]
    assert len(kept.texts) == bound


def test_mixed_content_roundtrip():
    tree = E("p", V("before"), E("b", V("bold")), V("after"))
    again = parse(serialize(tree))
    assert [n.label for n in again.children] == ["before", "b", "after"]


def test_document_roundtrip(small_document):
    text = serialize_document(small_document)
    doc = parse_document(text, name="again")
    assert doc.root.structurally_equal(small_document.root)
    assert doc.name == "again"


def test_whitespace_only_text_is_dropped():
    tree = parse("<a>\n  <b>x</b>\n</a>")
    assert [n.label for n in tree.children] == ["b"]


def test_serialize_bare_value_is_an_error():
    with pytest.raises(ValueError):
        serialize(value("loose"))


def test_serialized_size_counts_utf8_bytes():
    assert serialized_size(value("abc")) == 3
    assert serialized_size(value("é")) == 2
    assert serialized_size(E("a")) >= len("<a />".encode())


def test_forest_sizes_are_additive():
    forest = [E("a", V("1")), E("b")]
    assert forest_size_bytes(forest) == sum(serialized_size(t) for t in forest)
    assert forest_size_bytes([]) == 0


def test_serialize_forest_wraps_trees():
    text = serialize_forest([E("a"), C("f")])
    assert "forest" in text
    assert "<a />" in text or "<a/>" in text


def test_nested_calls_roundtrip():
    tree = E("r", C("outer", E("arg", C("inner", V("x")))))
    again = parse(serialize(tree))
    assert again.structurally_equal(tree)


def test_activation_modes_roundtrip():
    from repro.axml.node import Activation

    tree = E(
        "r",
        C("a"),
        C("b", activation=Activation.IMMEDIATE),
        C("c", activation=Activation.FROZEN),
    )
    again = parse(serialize(tree))
    assert [child.activation for child in again.children] == [
        Activation.LAZY,
        Activation.IMMEDIATE,
        Activation.FROZEN,
    ]
