"""Unit tests for the shared multi-query matching pass (PatternGroup).

The differential anchor is always the same: whatever the group
returns must be byte-identical, member by member, to a fresh
per-query :class:`Matcher` on the same document state.  On top of
that, these tests pin the structural claims — canonical classes
actually collapse the family, projection is sound and switches off
under wildcards, sources come from index/guide when available — and
the composition with the per-scope relevance store.
"""

from __future__ import annotations

import pytest

from repro.axml import LabelIndex
from repro.axml.builder import C, E, V, build_document
from repro.lazy.fguide import FGuide
from repro.lazy.incremental import RelevanceStore
from repro.lazy.relevance import NFQBuilder, build_nfqs
from repro.pattern.match import MatchCounter, Matcher
from repro.pattern.multimatch import LabelSummary, PatternGroup
from repro.pattern.parse import parse_pattern


def make_doc():
    return build_document(
        E(
            "hotels",
            E(
                "hotel",
                E("name", V("Best Western")),
                E("rating", V("5")),
                E("nearby", E("restaurant", E("name", V("Chez Doc")))),
            ),
            E(
                "hotel",
                E("name", V("Grand Budapest")),
                E("rating", V("3")),
                C("more_restaurants", V("k1")),
            ),
            E("park", E("tree", V("oak"))),
        )
    )


QUERY_TEXT = '/hotels/hotel[name="Best Western"][rating="5"]//restaurant/name'


def rows_of(match_set):
    return sorted(
        (tuple(n.node_id for n in row.nodes), row.bindings)
        for row in match_set.rows
    )


def family():
    nfqs = build_nfqs(parse_pattern(QUERY_TEXT))
    assert nfqs
    return nfqs


# -- oracle parity -----------------------------------------------------------


@pytest.mark.parametrize("with_index", [False, True])
def test_group_matches_per_query_oracle(with_index):
    document = make_doc()
    nfqs = family()
    index = LabelIndex(document) if with_index else None
    group = PatternGroup(
        {rq.target_uid: rq.pattern for rq in nfqs}, index=index
    )
    result = group.evaluate(document)
    for rq in nfqs:
        oracle = Matcher(rq.pattern, index=index).evaluate(document)
        assert rows_of(result.match_sets[rq.target_uid]) == rows_of(oracle)
    if index is not None:
        index.detach()


def test_group_parity_with_variables_disables_projection():
    """Variable tests put a data wildcard in the summary: projection
    must switch off, answers must still match the oracle."""
    document = make_doc()
    nfqs = build_nfqs(parse_pattern("/hotels/hotel[name=$X]//restaurant"))
    group = PatternGroup({rq.target_uid: rq.pattern for rq in nfqs})
    result = group.evaluate(document)
    assert not result.projected
    assert result.skipped_subtrees == 0
    for rq in nfqs:
        assert rows_of(result.match_sets[rq.target_uid]) == rows_of(
            Matcher(rq.pattern).evaluate(document)
        )


def test_group_evaluates_selected_keys_only():
    document = make_doc()
    nfqs = family()
    group = PatternGroup({rq.target_uid: rq.pattern for rq in nfqs})
    chosen = [nfqs[0].target_uid, nfqs[-1].target_uid]
    result = group.evaluate(document, keys=chosen)
    assert sorted(result.match_sets) == sorted(set(chosen))


@pytest.mark.parametrize("with_index", [False, True])
def test_cross_family_members_share_no_edge_confusion(with_index):
    """Mixing members from *different* queries must stay oracle-exact.

    Regression: the condition memo was keyed by (class id, document
    node) without the connecting edge.  A member testing a condition
    class through a CHILD edge would cache a negative that a sibling
    member testing the *same class* through a DESCENDANT edge then
    read back, in either evaluation order.  One query's NFQ family
    reuses each step with one consistent edge, so only cross-family
    groups — the serving layer's cross-tenant pass — ever collide.
    """
    document = build_document(
        E("root", E("branch", E("leaf", C("svc", V("k1")))))
    )
    # Same condition class `()` (any function), different edges: a
    # direct child test (no function child of root -> False) and a
    # descendant test (the call exists below -> True).
    members = {
        "child": parse_pattern("/root[()!]"),
        "descendant": parse_pattern("/root[//()!]"),
    }
    index = LabelIndex(document) if with_index else None
    for order in (["child", "descendant"], ["descendant", "child"]):
        group = PatternGroup(members, index=index)
        result = group.evaluate(document, keys=order)
        for key in order:
            oracle = Matcher(members[key], index=index).evaluate(document)
            assert rows_of(result.match_sets[key]) == rows_of(oracle), (
                order,
                key,
            )
    if index is not None:
        index.detach()


def test_group_tracks_document_mutation():
    """Memo tables are per-pass: after a mutation the next pass sees
    the new state, matching fresh matchers (the engine's reuse path)."""
    document = make_doc()
    nfqs = family()
    group = PatternGroup({rq.target_uid: rq.pattern for rq in nfqs})
    group.evaluate(document)
    target = next(
        n for n in document.iter_nodes() if n.label == "nearby"
    )
    document.insert_subtree(
        target, E("restaurant", E("name", V("New Place")))
    )
    result = group.evaluate(document)
    for rq in nfqs:
        assert rows_of(result.match_sets[rq.target_uid]) == rows_of(
            Matcher(rq.pattern).evaluate(document)
        )


# -- canonicalization --------------------------------------------------------


def test_identical_members_share_all_classes():
    pattern = parse_pattern(QUERY_TEXT)
    twin = parse_pattern(QUERY_TEXT)
    group = PatternGroup({"a": pattern, "b": twin})
    solo = PatternGroup({"a": parse_pattern(QUERY_TEXT)})
    assert group.canonical_classes == solo.canonical_classes


def test_family_classes_collapse():
    nfqs = NFQBuilder(parse_pattern(QUERY_TEXT)).build_all(dedupe=False)
    group = PatternGroup({rq.target_uid: rq.pattern for rq in nfqs})
    total_nodes = sum(len(list(rq.pattern.nodes())) for rq in nfqs)
    assert group.canonical_classes < total_nodes / 2


# -- label summaries and projection ------------------------------------------


def test_label_summary_collects_tests():
    summary = LabelSummary.from_pattern(parse_pattern(QUERY_TEXT))
    assert "hotel" in summary.data_labels
    assert "restaurant" in summary.data_labels
    assert "Best Western" in summary.data_labels  # value tests count
    assert not summary.any_data
    # The pattern root's own label is excluded: it only maps to the
    # document root.
    assert "hotels" not in summary.data_labels


def test_label_summary_wildcards():
    assert LabelSummary.from_pattern(parse_pattern("/r/*[a]")).any_data
    assert LabelSummary.from_pattern(parse_pattern("/r/x[$V]")).any_data
    nfq = build_nfqs(parse_pattern("/r//a"))[0]
    summary = LabelSummary.from_pattern(nfq.pattern)
    assert summary.any_function or summary.function_names


def test_projection_prunes_only_unreachable_subtrees():
    """The ``park`` subtree carries no family label: with projection in
    force it must be skipped, and answers must be unaffected (soundness
    is implied by the oracle parity above; here we pin the pruning)."""
    document = make_doc()
    nfqs = family()
    group = PatternGroup({rq.target_uid: rq.pattern for rq in nfqs})
    result = group.evaluate(document)
    assert result.projected
    assert result.projection_size > 0
    park = next(n for n in document.iter_nodes() if n.label == "park")
    assert park.node_id not in group._projected if group._projected else True
    # The pass never entered the park subtree: fewer nodes visited than
    # a full walk would touch, and at least one subtree pruned whenever
    # a descendant walk passed by it.
    assert result.nodes_visited < document.stats().total_nodes * len(nfqs)


def test_projection_sources_from_guide():
    """With no index, a live F-guide on the same document serves the
    function extents without a document walk."""
    document = make_doc()
    guide = FGuide(document)
    nfqs = family()
    group = PatternGroup(
        {rq.target_uid: rq.pattern for rq in nfqs}, call_source=guide
    )
    result = group.evaluate(document)
    for rq in nfqs:
        assert rows_of(result.match_sets[rq.target_uid]) == rows_of(
            Matcher(rq.pattern).evaluate(document)
        )
    guide.detach()


def test_guide_function_extents_filter():
    document = make_doc()
    guide = FGuide(document)
    all_calls = {n.node_id for n in guide.function_extents()}
    assert all_calls == {n.node_id for n in document.function_nodes()}
    named = guide.function_extents(["more_restaurants"])
    assert {n.node_id for n in named} == all_calls
    assert guide.function_extents(["absent_service"]) == []
    guide.detach()


# -- composition with the relevance store ------------------------------------


@pytest.mark.parametrize("arena", [False, True])
def test_store_drives_group_passes_by_scope(arena):
    """The store in front of a group: one whole pass seeds every
    member, a footprint-disjoint splice is a hit for all of them, and a
    touching one re-matches its scope alone — walking members (no
    arena) and plan-backed ones alike, each held to a fresh matcher."""
    document = make_doc()
    nfqs = family()
    members = {rq.target_uid: rq.pattern for rq in nfqs}
    group = PatternGroup(
        members, arena=document.arena if arena else None, column_match=True
    )
    store = RelevanceStore(document)
    passes = []

    def match(keys, scope):
        passes.append((sorted(keys), scope))
        result = group.evaluate(document, keys=keys, scope=scope)
        return {key: result.match_sets[key].distinct_nodes() for key in keys}

    def check():
        found = store.retrieve(members, match)
        for rq in nfqs:
            oracle = Matcher(rq.pattern).evaluate(document).distinct_nodes()
            assert sorted(c.node_id for c in found[rq.target_uid]) == sorted(
                c.node_id for c in oracle
            )

    check()
    assert passes == [(sorted(members), None)]

    park = next(n for n in document.iter_nodes() if n.label == "park")
    document.insert_subtree(park, E("bench", V("green")))
    check()
    assert len(passes) == 1 and store.hits == len(nfqs)

    # A qualifying hotel's new call: only that hotel is re-matched, for
    # the members whose footprint the insert touches.
    first = document.root.children[0]
    nearby = next(n for n in first.iter_subtree() if n.label == "nearby")
    document.insert_subtree(nearby, C("more_restaurants", V("k2")))
    check()
    (keys, scope), = passes[1:]
    assert scope is first and keys
    assert store.scope_rematches == len(keys)
    store.detach()


def test_counters_accumulate():
    document = make_doc()
    counter = MatchCounter()
    nfqs = family()
    group = PatternGroup(
        {rq.target_uid: rq.pattern for rq in nfqs}, counter=counter
    )
    group.evaluate(document)
    assert counter.can_checks > 0
    assert counter.evaluations == len(nfqs)
