"""Unit tests for function-call guides (Section 6.2)."""

import pytest

from repro.axml.builder import C, E, V, build_document
from repro.axml.node import element, call
from repro.lazy.fguide import FGuide
from repro.lazy.relevance import linear_path_queries
from repro.pattern.match import Matcher
from repro.pattern.parse import parse_pattern
from repro.workloads.hotels import (
    build_hotels_workload,
    HotelsWorkloadParams,
    figure_1_document,
    paper_query,
)


@pytest.fixture
def doc():
    return figure_1_document()


@pytest.fixture
def guide(doc):
    return FGuide(doc)


def test_guide_summarises_call_positions(doc, guide):
    assert guide.call_count() == len(doc.function_nodes())
    assert set(guide.paths()) == {
        ("hotels",),
        ("hotels", "hotel", "rating"),
        ("hotels", "hotel", "nearby"),
    }


def test_guide_is_compact(doc, guide):
    # One trie node per distinct path, not per call.
    assert guide.size() < doc.stats().total_nodes
    assert guide.size() == 4  # hotels, hotel, rating, nearby


def test_lpq_on_guide_equals_lpq_on_document(doc, guide):
    """The key Section 6.2 property, checked for every LPQ of the paper
    query."""
    for rq in linear_path_queries(paper_query(), dedupe=False):
        on_doc = {
            n.node_id
            for n in Matcher(rq.pattern).evaluate(doc).distinct_nodes()
        }
        on_guide = {
            n.node_id
            for n in guide.candidates(
                rq.linear_steps, descendant_tail=rq.descendant_tail
            )
        }
        assert on_doc == on_guide, rq.pattern.to_string()


def test_type_filter_restricts_names(doc, guide):
    q = parse_pattern("/hotels/hotel/nearby/()")
    steps = [
        s for s in linear_path_queries(paper_query(), dedupe=False)
        if s.pattern.to_string() == "/hotels[hotel[nearby[//()!]]]"
    ][0].linear_steps
    all_calls = guide.candidates(steps, descendant_tail=True)
    only_restos = guide.candidates(
        steps, frozenset({"getNearbyRestos"}), descendant_tail=True
    )
    assert {n.label for n in all_calls} == {
        "getNearbyRestos",
        "getNearbyMuseums",
    }
    assert {n.label for n in only_restos} == {"getNearbyRestos"}


def test_maintenance_on_invocation(doc, guide):
    f = [n for n in doc.function_nodes() if n.label == "getHotels"][0]
    doc.replace_call(
        f,
        [element("hotel", element("rating", call("getRating", element("p")))),],
    )
    assert ("hotels",) not in guide.paths()
    assert guide.call_count() == len(doc.function_nodes())
    # The fresh nested call is discoverable at its position.
    q = parse_pattern("/hotels/hotel/rating/()")
    steps = [
        rq
        for rq in linear_path_queries(paper_query(), dedupe=False)
        if rq.pattern.to_string() == "/hotels[hotel[rating[()!]]]"
    ][0].linear_steps
    names = {n.label for n in guide.candidates(steps)}
    assert "getRating" in names


def test_pruning_keeps_guide_minimal(doc, guide):
    size_before = guide.size()
    for f in list(doc.function_nodes()):
        doc.replace_call(f, [])
    assert guide.call_count() == 0
    assert guide.size() == 1  # only the root remains
    assert guide.size() < size_before


def test_rebuild_equals_incremental(doc, guide):
    f = doc.function_nodes()[0]
    doc.replace_call(f, [element("x", call("newCall"))])
    incremental = set(guide.paths())
    guide.rebuild()
    assert set(guide.paths()) == incremental


def test_detach_stops_maintenance(doc, guide):
    guide.detach()
    before = guide.call_count()
    doc.replace_call(doc.function_nodes()[0], [])
    assert guide.call_count() == before  # stale by design


def test_guide_scales_sublinearly():
    wl = build_hotels_workload(HotelsWorkloadParams(n_hotels=50, seed=3))
    doc = wl.make_document()
    guide = FGuide(doc)
    stats = doc.stats()
    assert guide.call_count() == stats.function_nodes
    # 50 hotels share a handful of positions.
    assert guide.size() <= 6


def test_calls_inside_call_parameters_are_not_indexed():
    """A call directly inside another's parameters has no element
    parent, and one under a parameter element leaves with its outer
    call: neither is indexed (Section 2: parameters are opaque)."""
    nested = build_document(E("r", C("f", C("g"))))
    assert FGuide(nested).paths() == [("r",)]
    doc = build_document(E("r", C("f", E("p", C("g"))), E("a", C("h"))))
    guide = FGuide(doc)
    assert guide.paths() == [("r",), ("r", "a")]
    f = doc.function_nodes()[0]
    doc.replace_call(f, [E("q", V("1"))])
    assert guide.paths() == [("r", "a")] == FGuide(doc).paths()
