"""The column matcher: slot-space plans pinned to the object walk.

Contract under test (:mod:`repro.pattern.columnmatch`): a compiled
plan, run entirely over the arena's int columns, must reproduce the
object walk's rows *and* first-witness bindings in the object walk's
order — candidate enumeration in sibling-chain order for child edges
and node-id order for descendant edges — across plain, scoped and
post-splice evaluations, OR steps included (alternatives tried in
declaration order at one slot).  The plan compiler must stand down
(return ``None``, with a named reason) on interior data wildcards and
on result nodes inside an OR alternative, and the dead-filter early
exit (an un-interned label) must yield an empty answer without touching
the columns.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.axml.arena import DocumentArena
from repro.axml.builder import C, E, V, build_document
from repro.lazy.relevance import build_nfqs
from repro.pattern.columnmatch import (
    ColumnMatcher,
    StandDown,
    compile_plan,
    plan_refusal,
)
from repro.pattern.match import Matcher, MatchCounter, MatchOptions, MatchSet
from repro.pattern.nodes import EdgeKind, pelem, pfunc, por, pvalue, pvar
from repro.pattern.parse import parse_pattern
from repro.pattern.pattern import TreePattern
from repro.workloads.factory import fuzz_spec, generate
from repro.workloads.hotels import paper_query


def sample_document():
    return build_document(
        E(
            "root",
            E(
                "hotel",
                E("name", V("Best Western")),
                E("rating", V("5")),
                E("nearby", C("getRestos", V("2nd Av."))),
            ),
            E("hotel", E("name", V("Ritz")), E("rating", V("5"))),
            E("hotel", E("name", V("Dive")), E("rating", V("1"))),
        )
    )


def row_ids(match_set):
    return [
        (tuple(id(n) for n in row.nodes), row.bindings) for row in match_set
    ]


def run_column(pattern, document, arena, counter=None):
    plan = compile_plan(pattern)
    assert plan is not None, pattern
    matcher = ColumnMatcher(
        plan, arena, MatchOptions(), counter or MatchCounter()
    )
    return matcher.run(arena.slot_for(document.root))


# ---------------------------------------------------------------------------
# Plan compilation
# ---------------------------------------------------------------------------


def test_compile_makes_an_or_node_one_step():
    pattern = TreePattern(
        pelem("root", por(pelem("a", pvalue("1")), pfunc(["f"])))
    )
    plan = compile_plan(pattern)
    assert plan is not None and plan_refusal(pattern) is None
    (or_step,) = plan.root.cond_children  # binds nothing: a condition
    assert or_step.children == ()
    assert [alt.label for alt in or_step.alternatives] == ["a", "()"]
    assert not or_step.filter_is_test  # the data branch has a child
    # No per-branch expansion: one step per pattern node.
    assert len(plan.steps) == len(list(pattern.nodes()))


def test_compile_refuses_interior_data_wildcards():
    star = pelem("root", pvar("x", result=True))
    assert compile_plan(TreePattern(star)) is not None  # leaf: supported
    interior = parse_pattern("/root/*//$v")
    assert compile_plan(interior) is None
    assert plan_refusal(interior) is StandDown.INTERIOR_WILDCARD


def test_compile_refuses_a_result_node_inside_an_or():
    hidden = TreePattern(
        pelem("root", por(pelem("a", result=True), pelem("b")))
    )
    assert compile_plan(hidden) is None
    assert plan_refusal(hidden) is StandDown.RESULT_IN_OR
    # A *variable* there is fine: it binds by label id when its
    # alternative is the one taken.
    bound = TreePattern(
        pelem(
            "root",
            por(pelem("a", pvar("x", result=False)), pelem("b")),
            result=True,
        )
    )
    assert compile_plan(bound) is not None


def test_compile_partitions_enum_and_condition_children():
    pattern = parse_pattern('/root/hotel[rating="5"]/name/$x')
    plan = compile_plan(pattern)
    assert plan is not None
    hotel = plan.root.enum_children[0]
    # The rating predicate carries no bindings: a pure condition.  The
    # name step continues the output spine: enumeration.
    assert [c.label for c in hotel.cond_children] == ["rating"]
    assert [c.label for c in hotel.enum_children] == ["name"]
    assert plan.result_uids == tuple(
        r.uid for r in pattern.result_nodes()
    )


def test_compile_keeps_variable_predicates_enumerable():
    # [rating=$r] binds a variable, so the predicate branch must be
    # enumerated, not merely existence-checked.
    pattern = parse_pattern("/root/hotel[rating=$r]/name/$x")
    plan = compile_plan(pattern)
    assert plan is not None
    hotel = plan.root.enum_children[0]
    assert {c.label for c in hotel.enum_children} == {"rating", "name"}
    assert hotel.cond_children == ()


# ---------------------------------------------------------------------------
# Equivalence against the object walk
# ---------------------------------------------------------------------------

EQUIVALENCE_QUERIES = [
    '/root/hotel/name/"Ritz"',
    "/root//name/$x",
    "/root//getRestos()",
    '/root/hotel[rating="5"]/name/$x',
    "/root//hotel[rating=$r]/name/$x",
    "/root/hotel[nearby//getRestos()]/name",
    "/root//hotel[name=$n][rating=$n]",  # a variable join (never true here)
]


@pytest.mark.parametrize("text", EQUIVALENCE_QUERIES)
def test_rows_and_bindings_match_the_object_walk(text):
    document = sample_document()
    arena = DocumentArena(document)
    pattern = parse_pattern(text)
    plain = Matcher(pattern).evaluate(document)
    column = Matcher(
        pattern, arena=arena, column_match=True
    ).evaluate(document)
    assert row_ids(column) == row_ids(plain), text


def test_variable_join_binds_by_label_identity():
    document = build_document(
        E(
            "root",
            E("pair", E("a", V("x")), E("b", V("x"))),
            E("pair", E("a", V("x")), E("b", V("y"))),
        )
    )
    arena = DocumentArena(document)
    pattern = parse_pattern("/root/pair[a/$v][b/$v]")
    plain = Matcher(pattern).evaluate(document)
    column = Matcher(
        pattern, arena=arena, column_match=True
    ).evaluate(document)
    assert row_ids(column) == row_ids(plain)
    assert len(column) == 1  # only the agreeing pair survives the join


# ---------------------------------------------------------------------------
# OR steps: alternatives in declaration order at one slot
# ---------------------------------------------------------------------------

DESC = EdgeKind.DESCENDANT


def or_document():
    return build_document(
        E(
            "root",
            E(
                "hotel",
                E("name", V("Best Western")),
                E("rating", V("5")),
                E(
                    "nearby",
                    C("getRestos", V("2nd Av.")),
                    E("restaurant", E("name", V("Jo")), E("rating", V("5"))),
                ),
            ),
            E(
                "hotel",
                E("name", V("Ritz")),
                C("getRating", V("Ritz")),
                E(
                    "nearby",
                    E("restaurant", E("name", V("Ritz")), C("getRating")),
                    E("restaurant", E("name", V("Chez")), E("rating", V("5"))),
                ),
            ),
            E(
                "hotel",
                C("getName"),
                E("rating", V("1")),
                E("nearby", E("restaurant", E("name", V("Solo")))),
            ),
            C("getHotels", V("NY")),
        )
    )


def nfq_condition(label, value, names=None, edge=EdgeKind.CHILD):
    """Section 3.2's shape for ``[label="value"]``: the data branch
    ORed with a call, and so is its value leaf."""
    return por(
        pelem(label, por(pvalue(value), pfunc(names))),
        pfunc(names),
        edge=edge,
    )


def unbound(name):
    return pvar(name, result=False)


OR_PATTERNS = {
    "or-under-a-child-edge": pelem(
        "root",
        pelem(
            "hotel",
            por(pelem("rating", pvalue("5")), pfunc(["getRating"])),
            pelem("name", pvar("x")),
        ),
    ),
    "or-under-a-descendant-edge": pelem(
        "root",
        pelem(
            "hotel",
            por(
                pelem("restaurant", pelem("rating")),
                pfunc(["getRestos"]),
                edge=DESC,
            ),
            result=True,
        ),
    ),
    "or-on-the-enumeration-spine": pelem(
        "root",
        por(
            pelem("restaurant", pelem("name", unbound("n"))),
            pfunc(None),
            edge=DESC,
        ),
        pelem("hotel", pelem("name", unbound("n")), result=True),
    ),
    "nested-ors": pelem(
        "root",
        pelem(
            "hotel",
            nfq_condition("rating", "5"),
            nfq_condition("name", "Ritz", ["getName"]),
            result=True,
        ),
    ),
    "variables-joined-across-an-or-data-branch": pelem(
        "root",
        pelem(
            "hotel",
            por(pelem("name", unbound("n")), pfunc(["getName"])),
            pelem(
                "nearby",
                pelem(
                    "restaurant",
                    por(pelem("name", unbound("n")), pfunc(None)),
                    result=True,
                ),
            ),
        ),
    ),
    "function-name-sets": pelem(
        "root",
        pelem(
            "hotel",
            por(pelem("rating"), pfunc(["getRating", "neverServed"])),
            por(pelem("name"), pfunc(["neverServed"])),
            result=True,
        ),
    ),
    "the-parameter-barrier": pelem(
        "root",
        pelem(
            "hotel",
            por(pvalue("2nd Av."), pfunc(["getRating"]), edge=DESC),
            result=True,
        ),
    ),
}


def or_pattern(name):
    # The constructors above build each tree once; matchers only read it.
    return TreePattern(OR_PATTERNS[name], name=name)


def both_paths(pattern, document, arena, options=None, scope=None):
    """``(walk, plan)`` match sets; the plan must not have stood down."""
    counter = MatchCounter()
    walk = Matcher(pattern, options=options)
    plan = Matcher(
        pattern, options=options, counter=counter, arena=arena,
        column_match=True,
    )
    if scope is None:
        results = walk.evaluate(document), plan.evaluate(document)
    else:
        results = (
            walk.evaluate_scoped(document, scope),
            plan.evaluate_scoped(document, scope),
        )
    assert counter.column_fallback_reasons == {}, pattern.name
    return results


@pytest.mark.parametrize("name", sorted(OR_PATTERNS))
def test_or_rows_and_bindings_match_the_object_walk(name):
    document = or_document()
    walk, plan = both_paths(or_pattern(name), document, document.arena)
    assert row_ids(plan) == row_ids(walk)


def test_or_cases_are_not_vacuous():
    document = or_document()
    sizes = {
        name: len(both_paths(or_pattern(name), document, document.arena)[1])
        for name in OR_PATTERNS
    }
    assert sizes == {
        "or-under-a-child-edge": 2,
        "or-under-a-descendant-edge": 2,
        "or-on-the-enumeration-spine": 2,
        "nested-ors": 2,
        "variables-joined-across-an-or-data-branch": 2,
        "function-name-sets": 2,
        "the-parameter-barrier": 1,
    }
    # The join really binds across the OR: the Ritz restaurant pairs
    # with the Ritz hotel, and under the nameless hotel the call
    # alternative leaves $n to the restaurant's branch.
    _, joined = both_paths(
        or_pattern("variables-joined-across-an-or-data-branch"),
        document,
        document.arena,
    )
    assert [row.bindings for row in joined] == [
        (("n", "Ritz"),),
        (("n", "Solo"),),
    ]


def test_or_alternatives_respect_the_parameter_barrier():
    document = or_document()
    pattern = or_pattern("the-parameter-barrier")
    opened = MatchOptions(descend_into_parameters=True)
    walk, plan = both_paths(pattern, document, document.arena, opened)
    assert row_ids(plan) == row_ids(walk)
    assert len(plan) == 2  # "2nd Av." is now visible below hotel 1


@pytest.mark.parametrize("name", sorted(OR_PATTERNS))
def test_scoped_or_runs_match_the_scoped_object_walk(name):
    document = or_document()
    pattern = or_pattern(name)
    for scope in document.root.children:
        walk, plan = both_paths(
            pattern, document, document.arena, scope=scope
        )
        assert row_ids(plan) == row_ids(walk), scope


def test_or_plan_stays_right_across_a_splice():
    document = or_document()
    pattern = or_pattern("nested-ors")
    matcher = Matcher(pattern, arena=document.arena, column_match=True)
    before = row_ids(matcher.evaluate(document))
    assert before == row_ids(Matcher(pattern).evaluate(document))
    # getName() answers "Ritz": hotel 3 now passes on the data branch
    # of its name condition and fails the rating one all the same;
    # getRating() on hotel 2 answers 5.
    calls = {c.label: c for c in document.function_nodes() if c.parent.label == "hotel"}
    document.replace_call(calls["getName"], [E("name", V("Ritz"))])
    document.replace_call(calls["getRating"], [E("rating", V("5"))])
    after = row_ids(matcher.evaluate(document))
    assert after == row_ids(Matcher(pattern).evaluate(document))
    assert len(after) == 1 and after != before
    assert matcher.counter.column_fallbacks == 0


def test_the_hotels_paper_family_compiles_whole():
    from repro.workloads.hotels import figure_1_document

    document = figure_1_document()
    family = [paper_query()] + [rq.pattern for rq in build_nfqs(paper_query())]
    assert sum(any(n.is_or for n in p.nodes()) for p in family) >= 12
    for pattern in family:
        walk, plan = both_paths(pattern, document, document.arena)
        assert row_ids(plan) == row_ids(walk), pattern.name


@settings(max_examples=25, deadline=None)
@given(
    name=st.sampled_from(
        ("baseline", "deep-recursion", "wide-flat", "cache-flood",
         "multi-root-standing")
    ),
    seed=st.integers(min_value=0, max_value=5_000),
)
def test_nfq_families_match_the_object_walk(name, seed):
    """Every NFQ of every query of a fuzz-sized factory regime: the
    plan's rows and first-witness bindings are the walk's, whole and
    scoped; after a mutation trace (node-id order and document order
    part ways there) the row identities still are."""
    gen = generate(fuzz_spec(name, seed))
    for qi in range(gen.spec.n_queries):
        query = gen.query_for(qi)
        document = gen.make_document(gen.document_for_query(qi))
        family = [query] + [rq.pattern for rq in build_nfqs(query)]
        compiled = [p for p in family if plan_refusal(p) is None]
        for pattern in family:
            if pattern not in compiled:
                assert plan_refusal(pattern) is StandDown.INTERIOR_WILDCARD
        for pattern in compiled:
            walk, plan = both_paths(pattern, document, document.arena)
            assert row_ids(plan) == row_ids(walk), (qi, pattern.name)
            scope = document.root.children[0]
            walk, plan = both_paths(
                pattern, document, document.arena, scope=scope
            )
            assert row_ids(plan) == row_ids(walk), (qi, pattern.name)
        for step in range(gen.spec.n_mutations):
            gen.apply_mutation(str(step), (document,))
        for pattern in compiled:
            walk, plan = both_paths(pattern, document, document.arena)
            assert sorted(map(MatchSet.row_key, plan)) == sorted(
                map(MatchSet.row_key, walk)
            ), (qi, pattern.name)
        assert document.arena.consistency_errors() == []


def test_slot_rows_render_bindings_from_the_label_table():
    document = sample_document()
    arena = DocumentArena(document)
    rows = run_column(parse_pattern("/root//name/$x"), document, arena)
    assert [bindings for _, bindings in rows] == [
        (("x", "Best Western"),),
        (("x", "Ritz"),),
        (("x", "Dive"),),
    ]


def test_descendant_candidates_come_in_node_id_order():
    document = sample_document()
    arena = DocumentArena(document)
    rows = run_column(parse_pattern("/root//name"), document, arena)
    slots = [slots[0] for slots, _ in rows]
    ids = [arena.node_id[s] for s in slots]
    assert ids == sorted(ids)


def test_function_name_sets_filter_by_interned_ids():
    document = sample_document()
    arena = DocumentArena(document)
    named = run_column(parse_pattern("/root//getRestos()"), document, arena)
    assert len(named) == 1
    star = run_column(
        TreePattern(
            pelem(
                "root", pfunc(None, edge=EdgeKind.DESCENDANT, result=True)
            )
        ),
        document,
        arena,
    )
    assert len(star) == 1  # the star function matches any call
    missing = run_column(
        parse_pattern("/root//neverServed()"), document, arena
    )
    assert missing == []


def test_uninterned_label_is_a_dead_filter_not_a_fallback():
    document = sample_document()
    arena = DocumentArena(document)
    counter = MatchCounter()
    rows = run_column(
        parse_pattern("/root//nosuchlabel/$x"), document, arena, counter
    )
    assert rows == []
    assert counter.column_fallbacks == 0
    assert counter.column_pass_nodes == 0  # dead exit: no scan ran


def test_function_parameters_are_a_barrier():
    document = sample_document()
    arena = DocumentArena(document)
    # "2nd Av." lives inside the getRestos call's parameters: invisible
    # to descendant steps unless options descend into parameters.
    pattern = parse_pattern('/root//"2nd Av."')
    rows = run_column(pattern, document, arena)
    assert rows == []
    plan = compile_plan(pattern)
    opened = ColumnMatcher(
        plan,
        arena,
        MatchOptions(descend_into_parameters=True),
        MatchCounter(),
    ).run(arena.slot_for(document.root))
    assert len(opened) == 1


def test_scoped_run_sees_only_the_scope_children():
    document = sample_document()
    arena = DocumentArena(document)
    pattern = parse_pattern("/root//name/$x")
    plan = compile_plan(pattern)
    scope = arena.slot_for(document.root.children[1])
    rows = ColumnMatcher(plan, arena, MatchOptions(), MatchCounter()).run(
        arena.slot_for(document.root), scope
    )
    assert [bindings for _, bindings in rows] == [(("x", "Ritz"),)]
    plain = Matcher(pattern).evaluate_scoped(
        document, document.root.children[1]
    )
    assert [r.bindings for r in plain] == [bindings for _, bindings in rows]


def test_run_resolves_labels_fresh_after_a_splice():
    document = sample_document()
    arena = DocumentArena(document)
    pattern = parse_pattern("/root//brandnew/$x")
    plan = compile_plan(pattern)
    matcher = ColumnMatcher(plan, arena, MatchOptions(), MatchCounter())
    assert matcher.run(arena.slot_for(document.root)) == []
    # The label interns only now — a run caching filters across calls
    # would keep answering "dead".
    document.replace_call(
        document.function_nodes()[0], [E("brandnew", V("fresh"))]
    )
    rows = matcher.run(arena.slot_for(document.root))
    assert [bindings for _, bindings in rows] == [(("x", "fresh"),)]


def test_counters_attribute_column_work_separately():
    document = sample_document()
    arena = DocumentArena(document)
    counter = MatchCounter()
    matcher = Matcher(
        parse_pattern("/root//name/$x"),
        counter=counter,
        arena=arena,
        column_match=True,
    )
    result = matcher.evaluate(document)
    assert counter.column_rows == len(result) == 3
    assert counter.column_pass_nodes > 0
    assert counter.embeddings_found == 3
    # The object walk's cost counters stay untouched: the column pass
    # never mixes its effort into them.
    assert counter.can_checks == 0
    assert counter.candidates_visited == 0
