"""Unit tests for keyed pattern families (PatternGroup).

The differential anchor is always the same: whatever the group
returns must be byte-identical, member by member, to a fresh
per-query :class:`Matcher` on the same document state — with and
without an arena, under interleaved ``extend`` / ``discard`` / splices
/ scoped and whole passes.  On top of that, these tests pin the shape
table (members of equal shape are evaluated once, and nothing is kept
for a member that left) and the composition with the per-scope
relevance store.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, strategies as st

from repro.axml.builder import C, E, V, build_document
from repro.lazy.incremental import RelevanceStore
from repro.lazy.relevance import build_nfqs
from repro.pattern.columnmatch import StandDown, plan_refusal
from repro.pattern.match import MatchCounter, Matcher, MatchSet
from repro.pattern.multimatch import PatternGroup
from repro.pattern.parse import parse_pattern
from repro.workloads.factory import fuzz_spec, generate


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


def arena_of(document, with_arena):
    return document.arena if with_arena else None


@pytest.mark.parametrize("with_arena", [False, True])
def test_group_matches_per_query_oracle(with_arena):
    document = make_doc()
    nfqs = family()
    group = PatternGroup(
        {rq.target_uid: rq.pattern for rq in nfqs},
        arena=arena_of(document, with_arena),
        column_match=True,
    )
    result = group.evaluate(document)
    for rq in nfqs:
        oracle = Matcher(rq.pattern).evaluate(document)
        assert rows_of(result.match_sets[rq.target_uid]) == rows_of(oracle)
    assert (group.counter.column_rows > 0) == with_arena


def test_group_evaluates_selected_keys_only():
    document = make_doc()
    nfqs = family()
    group = PatternGroup({rq.target_uid: rq.pattern for rq in nfqs})
    chosen = [nfqs[0].target_uid, nfqs[-1].target_uid]
    result = group.evaluate(document, keys=chosen)
    assert sorted(result.match_sets) == sorted(set(chosen))


CROSS_FAMILY = {
    "child": "/root[()!]",
    "descendant": "/root[//()!]",
}


@pytest.mark.parametrize("with_arena", [False, True])
def test_cross_family_members_share_no_edge_confusion(with_arena):
    """Mixing members from *different* queries must stay oracle-exact.

    Regression: a memo shared between members was keyed by (condition
    class, document node) without the connecting edge.  A member
    testing a condition class through a CHILD edge would cache a
    negative that a sibling member testing the *same class* through a
    DESCENDANT edge then read back, in either evaluation order.  One
    query's NFQ family reuses each step with one consistent edge, so
    only cross-family groups — the serving layer's cross-tenant pass —
    ever collided.  Members share no memo now; the pair stays pinned.
    """
    document = build_document(
        E("root", E("branch", E("leaf", C("svc", V("k1")))))
    )
    # Same condition class `()` (any function), different edges: a
    # direct child test (no function child of root -> False) and a
    # descendant test (the call exists below -> True).
    members = {
        key: parse_pattern(text) for key, text in CROSS_FAMILY.items()
    }
    for order in (["child", "descendant"], ["descendant", "child"]):
        group = PatternGroup(
            members, arena=arena_of(document, with_arena), column_match=True
        )
        result = group.evaluate(document, keys=order)
        for key in order:
            oracle = Matcher(members[key]).evaluate(document)
            assert rows_of(result.match_sets[key]) == rows_of(oracle), (
                order,
                key,
            )


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


# -- the property: churn, splices, scopes ------------------------------------

INTERIOR_WILDCARD = "/root/*//$v"


def member_pool(gen):
    """Members from several queries: each query's NFQ family twice over
    (twins), the cross-family pair, and a member no plan compiles."""
    pool = {key: parse_pattern(text) for key, text in CROSS_FAMILY.items()}
    pool["wildcard"] = parse_pattern(INTERIOR_WILDCARD)
    assert plan_refusal(pool["wildcard"]) is StandDown.INTERIOR_WILDCARD
    for qi in range(gen.spec.n_queries):
        for copy in ("first", "twin"):
            pool[qi, copy] = query = gen.query_for(qi)
            for rq in build_nfqs(query):
                pool[qi, copy, rq.target_uid] = rq.pattern
    return pool


def row_keys(match_set):
    return sorted(MatchSet.row_key(row) for row in match_set)


OPS = ("extend", "discard", "splice", "invoke", "scoped", "whole")


@example(
    name="baseline",
    seed=0,
    with_arena=True,
    steps=[("whole", 0), ("splice", 0), ("scoped", 0), ("discard", 1),
           ("invoke", 0), ("extend", 0), ("whole", 0)],
)
@given(
    name=st.sampled_from(
        ("baseline", "deep-recursion", "wide-flat", "multi-root-standing")
    ),
    seed=st.integers(min_value=0, max_value=5_000),
    with_arena=st.booleans(),
    steps=st.lists(
        st.tuples(st.sampled_from(OPS), st.integers(0, 1_000)),
        min_size=3,
        max_size=10,
    ),
)
def test_group_rows_equal_fresh_matchers_under_churn(
    name, seed, with_arena, steps
):
    """Whatever was extended, discarded or spliced before it, a pass —
    whole or scoped, over plans or over the walk — returns per member
    exactly the rows of a fresh ``Matcher`` on the document as it is."""
    gen = generate(fuzz_spec(name, seed))
    document = gen.make_document(0)
    services = gen.registry()
    pool = member_pool(gen)
    keys = list(pool)
    live = dict(list(pool.items())[::2])
    group = PatternGroup(
        live, arena=arena_of(document, with_arena), column_match=True
    )

    def check(scope):
        selected = list(live)[:: 1 if scope is None else 2]
        result = group.evaluate(document, keys=selected, scope=scope)
        assert list(result.match_sets) == selected
        for key in selected:
            fresh = Matcher(pool[key])
            oracle = (
                fresh.evaluate(document)
                if scope is None
                else fresh.evaluate_scoped(document, scope)
            )
            assert row_keys(result.match_sets[key]) == row_keys(oracle), key

    for op, draw in steps + [("whole", 0)]:
        if op == "extend":
            absent = [key for key in keys if key not in live]
            for key in absent[draw % 3 :: 3]:
                live[key] = pool[key]
                group.extend({key: pool[key]})
        elif op == "discard":
            gone = list(live)[draw % 3 :: 3]
            group.discard(gone)
            for key in gone:
                del live[key]
        elif op == "splice":
            gen.apply_mutation(str(draw), (document,))
        elif op == "invoke":
            calls = document.function_nodes()
            if calls:
                call = calls[draw % len(calls)]
                document.replace_call(
                    call, services.resolve(call.label).produce(call.children)
                )
        elif op == "scoped" and document.root.children:
            children = document.root.children
            check(children[draw % len(children)])
        else:
            check(None)
    assert sorted(group.keys(), key=str) == sorted(live, key=str)
    assert len(group._matchers) == len({p.shape for p in live.values()})
    if with_arena:
        assert document.arena.consistency_errors() == []
        assert set(group.counter.column_fallback_reasons) <= {
            StandDown.INTERIOR_WILDCARD.value
        }


# -- the shape table ---------------------------------------------------------


def test_identical_members_share_all_classes():
    """Members equal down to variable names and result marks share one
    matcher: one evaluation per pass serves them all, each under its
    own pattern object."""
    document = make_doc()
    counter = MatchCounter()
    members = {key: parse_pattern(QUERY_TEXT) for key in "abc"}
    members["other"] = parse_pattern("/hotels/hotel/name")
    group = PatternGroup(members, counter=counter)
    assert len(group._matchers) == 2
    result = group.evaluate(document)
    assert counter.evaluations == 2
    for key, pattern in members.items():
        assert result.match_sets[key].pattern is pattern
        assert rows_of(result.match_sets[key]) == rows_of(
            Matcher(pattern).evaluate(document)
        )
    # Twins hand out row lists of their own, never an alias.
    assert result.match_sets["a"].rows is not result.match_sets["b"].rows


def test_discard_leaves_nothing_behind():
    """The shape table is reference-counted: a matcher goes with its
    last member, unknown keys are ignored, and a departed key may
    rejoin."""
    pattern = parse_pattern(QUERY_TEXT)
    group = PatternGroup({"a": pattern, "b": parse_pattern(QUERY_TEXT)})
    group.discard(["a", "never-there"])
    assert group.keys() == ["b"] and len(group._matchers) == 1
    group.discard(["b"])
    assert len(group) == 0 and len(group._matchers) == 0
    group.extend({"a": pattern})
    assert "a" in group and len(group._matchers) == 1
    with pytest.raises(ValueError):
        group.extend({"a": pattern})


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
    store.hold("test", group.options)
    passes = []

    def match(keys, scope):
        passes.append((sorted(keys), scope))
        result = group.evaluate(document, keys=keys, scope=scope)
        return {key: result.match_sets[key].rows for key in keys}

    def check():
        found = store.retrieve(members, match, "test")
        for rq in nfqs:
            oracle = Matcher(rq.pattern).evaluate(document)
            assert sorted(map(MatchSet.row_key, found[rq.target_uid])) == (
                row_keys(oracle)
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
