"""Robustness on very deep documents (no recursion-limit surprises)."""

import sys

import pytest

from repro.axml.builder import build_document
from repro.axml.node import call, element, value
from repro.pattern.match import snapshot_result
from repro.pattern.parse import parse_pattern
from repro.schema.schema import Schema

DEPTH = max(3000, sys.getrecursionlimit() * 2)


@pytest.fixture(scope="module")
def deep_document():
    root = element("root")
    cursor = root
    for _ in range(DEPTH):
        nxt = element("level")
        cursor.append(nxt)
        cursor = nxt
    cursor.append(value("leaf"))
    cursor.append(call("fetch", value("k")))
    return build_document(root)


def test_clone_is_depth_safe(deep_document):
    copy = deep_document.root.clone()
    assert copy.subtree_size() == deep_document.root.subtree_size()


def test_structural_equality_is_depth_safe(deep_document):
    copy = deep_document.root.clone()
    assert copy.structurally_equal(deep_document.root)
    # Perturb the leaf and re-check.
    node = copy
    while node.children and node.children[0].is_element:
        node = node.children[0]
    node.label = "changed"
    assert not copy.structurally_equal(deep_document.root)


def test_matching_is_depth_safe(deep_document):
    query = parse_pattern('/root//level/"leaf"')
    rows = snapshot_result(query, deep_document)
    assert len(rows) == 1  # the single leaf value


def test_validation_is_depth_safe(deep_document):
    schema = Schema()
    schema.declare_element("root", "level")
    schema.declare_element("level", "(level | data.fetch)")
    schema.declare_function("fetch", "data", "data")
    assert schema.validate_document(deep_document) == []


def test_stats_and_serialization_helpers_are_depth_safe(deep_document):
    stats = deep_document.stats()
    # leaf value sits at DEPTH+1; the call's parameter one deeper.
    assert stats.max_depth == DEPTH + 2
    assert stats.function_nodes == 1


def test_subtree_size_and_depth_are_depth_safe(deep_document):
    # root + DEPTH levels + leaf value + call + its parameter.
    assert deep_document.root.subtree_size() == DEPTH + 4
    node = deep_document.root
    while node.children and node.children[0].is_element:
        node = node.children[0]
    leaf = node.children[0]
    assert leaf.is_value and leaf.depth() == DEPTH + 1


def test_pretty_rendering_is_depth_safe(deep_document):
    text = deep_document.root.pretty()
    lines = text.splitlines()
    assert lines[0].startswith("<root>")
    assert len(lines) == deep_document.root.subtree_size()
    # Indentation tracks depth all the way down.
    assert lines[DEPTH].lstrip().startswith("<level>")


def test_etree_round_trip_is_depth_safe(deep_document):
    from repro.axml.xmlio import from_etree, to_etree

    back = from_etree(to_etree(deep_document.root))
    assert back.structurally_equal(deep_document.root)


def test_loading_text_is_depth_safe():
    from repro.axml.xmlio import parse_document

    text = "<root>" + "<level>" * DEPTH + "leaf" + "</level>" * DEPTH + "</root>"
    document = parse_document(text)
    assert document.live_nodes == DEPTH + 2
    assert document.stats().max_depth == DEPTH + 1
    assert document.arena.consistency_errors() == []


def test_arena_mirror_is_depth_safe(deep_document):
    from repro.axml.arena import DocumentArena

    arena = DocumentArena(deep_document)
    try:
        assert arena.live_nodes == deep_document.root.subtree_size()
        assert arena.consistency_errors() == []
    finally:
        arena.detach()
