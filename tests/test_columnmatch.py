"""The column matcher: slot-space plans pinned to the object walk.

Contract under test (:mod:`repro.pattern.columnmatch`): a compiled
plan, run entirely over the arena's int columns, must reproduce the
object walk's rows *and* first-witness bindings in the object walk's
order — candidate enumeration in sibling-chain order for child edges
and node-id order for descendant edges — across plain, scoped and
post-splice evaluations, OR steps included (alternatives tried in
declaration order at one slot).  Every pattern compiles — interior data
wildcards and result nodes inside an OR alternative too, where the rows
an alternative leaves with a hole are dropped as the walk drops them —
and the dead-filter early exit (an un-interned label) must yield an
empty answer without touching the columns.
"""

from __future__ import annotations

import contextlib
import itertools
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.axml.arena import DocumentArena
from repro.axml.builder import C, E, V, build_document
from repro.lazy.relevance import build_nfqs
from repro.pattern.columnmatch import (
    ColumnMatcher,
    SlotFilters,
    compile_plan,
)
from repro.pattern.match import Matcher, MatchCounter, MatchSet
from repro.pattern.nodes import (
    EdgeKind,
    PatternKind,
    pelem,
    pfunc,
    por,
    pstar,
    pvalue,
    pvar,
)
from repro.pattern.parse import parse_pattern
from repro.pattern.pattern import TreePattern
from repro.workloads.factory import fuzz_spec, generate
from repro.workloads.hotels import paper_query

from .references import WalkMatcher, unanchored


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
    matcher = ColumnMatcher(
        compile_plan(pattern), arena, counter or MatchCounter()
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
    (or_step,) = plan.root.cond_children  # binds nothing: a condition
    assert or_step.children == ()
    assert [alt.label for alt in or_step.alternatives] == ["a", "()"]
    assert not or_step.filter_is_test  # the data branch has a child
    # No per-branch expansion: one step per pattern node.
    assert len(plan.steps) == len(list(pattern.nodes()))


def test_compile_accepts_interior_data_wildcards():
    document = sample_document()
    interior = parse_pattern("/root/*//$v")
    (star,) = compile_plan(interior).root.enum_children
    assert star.kind is PatternKind.STAR and star.enum_children
    walk, plan = both_paths(interior, document)
    assert row_ids(plan) == row_ids(walk)
    assert len(plan) == 13  # every data node below a hotel, no parameter


def test_compile_accepts_a_result_node_inside_an_or():
    document = build_document(
        E("root", E("a", V("1")), E("b"), E("a"), E("c", V("2")))
    )
    hidden = TreePattern(
        pelem("root", por(pelem("a", result=True), pelem("b")))
    )
    assert compile_plan(hidden).result_uids == (hidden.result_nodes()[0].uid,)
    walk, plan = both_paths(hidden, document)
    assert row_ids(plan) == row_ids(walk)
    assert [row.values() for row in plan] == [("a",), ("a",)]  # b: a hole
    # Two result nodes, one of them behind an alternative: the rows the
    # other alternative leaves with a hole go, the rest keep both.
    pair = TreePattern(
        pelem(
            "root",
            pelem("c", unbound("x"), result=True),
            por(pelem("a", result=True), pelem("b")),
        )
    )
    walk, plan = both_paths(pair, document)
    assert row_ids(plan) == row_ids(walk)
    assert [(row.values(), row.bindings) for row in plan] == [
        (("c", "a"), (("x", "2"),)),
        (("c", "a"), (("x", "2"),)),
    ]


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
    pattern = parse_pattern(text)
    plain = WalkMatcher(pattern).evaluate(document)
    column = Matcher(pattern).evaluate(document)
    assert row_ids(column) == row_ids(plain), text


def test_variable_join_binds_by_label_identity():
    document = build_document(
        E(
            "root",
            E("pair", E("a", V("x")), E("b", V("x"))),
            E("pair", E("a", V("x")), E("b", V("y"))),
        )
    )
    pattern = parse_pattern("/root/pair[a/$v][b/$v]")
    plain = WalkMatcher(pattern).evaluate(document)
    column = Matcher(pattern).evaluate(document)
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


def both_paths(pattern, document, scope=None):
    """``(walk, plan)`` match sets; the plan's rows are its own."""
    counter = MatchCounter()
    walk = WalkMatcher(pattern)
    plan = Matcher(pattern, counter=counter)
    if scope is None:
        results = walk.evaluate(document), plan.evaluate(document)
    else:
        results = (
            walk.evaluate_scoped(document, scope),
            plan.evaluate_scoped(document, scope),
        )
    assert counter.column_rows == len(results[1]), pattern.name
    return results


@pytest.mark.parametrize("name", sorted(OR_PATTERNS))
def test_or_rows_and_bindings_match_the_object_walk(name):
    document = or_document()
    walk, plan = both_paths(or_pattern(name), document)
    assert row_ids(plan) == row_ids(walk)


def test_or_cases_are_not_vacuous():
    document = or_document()
    sizes = {
        name: len(both_paths(or_pattern(name), document)[1])
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
        or_pattern("variables-joined-across-an-or-data-branch"), document
    )
    assert [row.bindings for row in joined] == [
        (("n", "Ritz"),),
        (("n", "Solo"),),
    ]


def test_or_alternatives_respect_the_parameter_barrier():
    document = or_document()
    pattern = or_pattern("the-parameter-barrier")
    walk, plan = both_paths(pattern, document)
    assert row_ids(plan) == row_ids(walk)
    # "2nd Av." sits in a call's parameters below hotel 1: invisible to
    # the value alternative, so only the getRating hotel is a row.
    assert len(plan) == 1


@pytest.mark.parametrize("name", sorted(OR_PATTERNS))
def test_scoped_or_runs_match_the_scoped_object_walk(name):
    document = or_document()
    pattern = or_pattern(name)
    for scope in document.root.children:
        walk, plan = both_paths(
            pattern, document, scope=scope
        )
        assert row_ids(plan) == row_ids(walk), scope


def test_or_plan_stays_right_across_a_splice():
    document = or_document()
    pattern = or_pattern("nested-ors")
    matcher = Matcher(pattern)
    before = row_ids(matcher.evaluate(document))
    assert before == row_ids(WalkMatcher(pattern).evaluate(document))
    # getName() answers "Ritz": hotel 3 now passes on the data branch
    # of its name condition and fails the rating one all the same;
    # getRating() on hotel 2 answers 5.
    calls = {c.label: c for c in document.function_nodes() if c.parent.label == "hotel"}
    document.replace_call(calls["getName"], [E("name", V("Ritz"))])
    document.replace_call(calls["getRating"], [E("rating", V("5"))])
    after = row_ids(matcher.evaluate(document))
    assert after == row_ids(WalkMatcher(pattern).evaluate(document))
    assert len(after) == 1 and after != before
    assert matcher.counter.column_rows == len(before) + len(after)


def test_the_hotels_paper_family_compiles_whole():
    from repro.workloads.hotels import figure_1_document

    document = figure_1_document()
    family = [paper_query()] + [rq.pattern for rq in build_nfqs(paper_query())]
    assert sum(any(n.is_or for n in p.nodes()) for p in family) >= 12
    for pattern in family:
        walk, plan = both_paths(pattern, document)
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
        for pattern in family:
            walk, plan = both_paths(pattern, document)
            assert row_ids(plan) == row_ids(walk), (qi, pattern.name)
            scope = document.root.children[0]
            walk, plan = both_paths(
                pattern, document, scope=scope
            )
            assert row_ids(plan) == row_ids(walk), (qi, pattern.name)
        for step in range(gen.spec.n_mutations):
            gen.apply_mutation(str(step), (document,))
        for pattern in family:
            walk, plan = both_paths(pattern, document)
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
    assert counter.column_pass_nodes == 0  # dead exit: no scan ran


def test_function_parameters_are_a_barrier():
    document = sample_document()
    arena = DocumentArena(document)
    # "2nd Av." lives inside the getRestos call's parameters: invisible
    # to descendant steps, on the plan and on the walk alike.
    assert any(
        node.label == "2nd Av." for node in document.root.iter_subtree()
    )
    pattern = parse_pattern('/root//"2nd Av."')
    rows = run_column(pattern, document, arena)
    assert rows == []
    assert not WalkMatcher(pattern).evaluate(document)


def test_scoped_run_sees_only_the_scope_children():
    document = sample_document()
    arena = DocumentArena(document)
    pattern = parse_pattern("/root//name/$x")
    plan = compile_plan(pattern)
    scope = arena.slot_for(document.root.children[1])
    rows = ColumnMatcher(plan, arena, MatchCounter()).run(
        arena.slot_for(document.root), scope
    )
    assert [bindings for _, bindings in rows] == [(("x", "Ritz"),)]
    plain = WalkMatcher(pattern).evaluate_scoped(
        document, document.root.children[1]
    )
    assert [r.bindings for r in plain] == [bindings for _, bindings in rows]


def test_run_resolves_labels_fresh_after_a_splice():
    document = sample_document()
    arena = DocumentArena(document)
    pattern = parse_pattern("/root//brandnew/$x")
    plan = compile_plan(pattern)
    matcher = ColumnMatcher(plan, arena, MatchCounter())
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
    counter = MatchCounter()
    pattern = parse_pattern("/root//name/$x")
    result = Matcher(pattern, counter=counter).evaluate(document)
    assert counter.column_rows == len(result) == 3
    assert counter.column_pass_nodes > 0
    assert counter.embeddings_found == 3
    # The object walk's cost counters are its own, and the column
    # counters never take its effort.
    scanned = counter.column_pass_nodes
    walk = WalkMatcher(pattern, counter=counter)
    assert len(walk.evaluate(document)) == 3
    assert walk.can_checks > 0 and walk.candidates_visited > 0
    assert counter.column_rows == 3
    assert counter.column_pass_nodes == scanned


def test_filters_are_resolved_once_per_arena_and_again_for_the_plans_labels(
    monkeypatch,
):
    """Every matcher of a plan on one arena reads one set of slot
    filters; interning labels the plan does not name resolves nothing,
    and the moment its missing label arrives the dead step revives."""
    resolved = []
    init = SlotFilters.__init__
    monkeypatch.setattr(
        SlotFilters,
        "__init__",
        lambda self, plan, arena: resolved.append(arena) or init(self, plan, arena),
    )
    document = sample_document()
    arena = DocumentArena(document)
    plan = compile_plan(parse_pattern("/root//brandnew/$x"))
    root = arena.slot_for(document.root)
    first = ColumnMatcher(plan, arena, MatchCounter())
    second = ColumnMatcher(plan, arena, MatchCounter())
    assert first.run(root) == second.run(root) == []
    assert len(resolved) == 1
    labels = len(arena.labels)
    document.insert_subtree(document.root.children[1], E("unrelated", V("new")))
    assert len(arena.labels) == labels + 2
    assert first.run(root) == [] and len(resolved) == 1
    document.replace_call(document.function_nodes()[0], [E("brandnew", V("fresh"))])
    rows = second.run(root)
    assert [bindings for _, bindings in rows] == [(("x", "fresh"),)]
    assert first.run(root) == rows and len(resolved) == 2


def test_each_arena_keeps_its_own_filters_and_takes_them_along():
    """Two documents' arenas intern labels in their own order, so a
    plan keeps one table per arena; an arena that goes takes its table
    with it (weakly held, nothing keyed by identity)."""
    import gc

    pattern = parse_pattern("/root//name/$x")
    plan = compile_plan(pattern)
    documents = [
        sample_document(),
        build_document(E("root", E("misc", V("m")), E("name", V("Solo")))),
    ]
    answers = [
        sorted(b for _, b in run_column(pattern, d, d.arena)) for d in documents
    ]
    assert answers == [
        [(("x", "Best Western"),), (("x", "Dive"),), (("x", "Ritz"),)],
        [(("x", "Solo"),)],
    ]
    tables = [plan.filters(d.arena) for d in documents]
    assert len(plan._filters) == 2 and tables[0] is not tables[1]
    assert tables[0].by_uid != tables[1].by_uid  # different label ids
    documents[0].arena.detach()
    gc.collect()
    assert len(plan._filters) == 1
    assert plan.filters(documents[1].arena) is tables[1]


# ---------------------------------------------------------------------------
# Anchored runs, whole and scoped: a relevance read starts from the calls
# ---------------------------------------------------------------------------


def anchored_and_unanchored(pattern, document, scope=None):
    """``(anchored, unanchored)`` match sets of one run — whole, or
    scoped to the depth-1 subtree ``scope`` — with the counters'
    scanned slots beside each."""
    out = []
    for seam in (contextlib.nullcontext(), unanchored()):
        counter = MatchCounter()
        matcher = Matcher(pattern, counter=counter)
        with seam:
            rows = (
                matcher.evaluate(document)
                if scope is None
                else matcher.evaluate_scoped(document, scope)
            )
        out.append((rows, counter.column_pass_nodes))
    return out


def anchor_of(pattern, document, scope=None):
    """The slots of the anchor set a run of ``pattern`` on ``document``
    — whole, or scoped to ``scope`` — builds (``None`` when it builds
    none: a dead plan)."""
    arena = document.arena
    matcher = ColumnMatcher(compile_plan(pattern), arena, MatchCounter())
    built = []
    real = ColumnMatcher._anchor_set
    with mock.patch.object(
        ColumnMatcher,
        "_anchor_set",
        lambda self, root_slot, scope_slot: built.append(
            real(self, root_slot, scope_slot)
        )
        or built[0],
    ):
        matcher.run(
            arena.slot_for(document.root),
            None if scope is None else arena.slot_for(scope),
        )
    if not built:
        return None
    ((first, _),) = built
    return {slot for slot, child in enumerate(first) if child != -2}


def nested_document():
    """Calls everywhere the anchor must look: a call in another call's
    parameters, calls beside data, a call under the root."""
    return build_document(
        E(
            "root",
            E(
                "hotel",
                E("name", V("Best Western")),
                E(
                    "nearby",
                    C("getRestos", C("getHotels", V("NY")), V("2nd Av.")),
                    E(
                        "restaurant",
                        E("name", C("getName")),
                        E("rating", V("5")),
                    ),
                    E("museum", E("name", C("getName"))),
                ),
            ),
            E(
                "hotel",
                E("name", V("Ritz")),
                E("nearby", E("restaurant", E("rating", V("4")))),
            ),
            C("getHotels", V("LA")),
        )
    )


def anchored_patterns(root_label, names):
    """Function-result shapes an anchored run must read as the plain
    plan does: any-function results, a named result under a child-edge
    spine, the result under an OR alternative (the NFQ of a descendant
    condition), and two function results in one row."""
    named = sorted(names)
    return {
        "any-function": TreePattern(
            pelem(root_label, pfunc(None, edge=DESC, result=True))
        ),
        "named-under-a-spine": TreePattern(
            pelem(
                root_label,
                pstar(pelem("name", pfunc(named, result=True)), edge=DESC),
            )
        ),
        "result-under-an-or-alternative": TreePattern(
            pelem(
                root_label,
                pstar(
                    por(
                        pelem("restaurant", pelem("rating", pvalue("5"))),
                        pfunc(named[:2], result=True),
                        edge=DESC,
                    )
                ),
            )
        ),
        "two-function-results": TreePattern(
            pelem(
                root_label,
                pfunc(named[:1], edge=DESC, result=True),
                pstar(pfunc(None, result=True), edge=DESC),
            )
        ),
    }


def test_compile_anchors_only_plans_whose_results_are_calls():
    query = parse_pattern('/hotels/hotel[name="Best Western"]/nearby//$x')
    assert compile_plan(query).anchors is None
    assert compile_plan(parse_pattern("/root/hotel")).anchors is None
    # A named call right below the root: the root's label sweep already
    # yields exactly the hits.  Any function there still anchors.
    assert compile_plan(parse_pattern("/root//svc1()!")).anchors is None
    assert compile_plan(parse_pattern("/root//()!")).anchors is not None
    plan = compile_plan(
        parse_pattern('/hotels/hotel/nearby/restaurant[rating="4"]/name/f()!')
    )
    (only,) = plan.anchors
    labels = {step.uid: step.label for step in plan.steps}
    assert [labels[uid] for uid in only.climb] == [
        "name", "restaurant", "nearby", "hotel", "hotels",
    ]
    assert only.rooted
    # An OR is passed in place; the climb stops at its descendant edge.
    pattern = anchored_patterns("root", {"f", "g"})["result-under-an-or-alternative"]
    (cut,) = compile_plan(pattern).anchors
    assert cut.climb == () and not cut.rooted
    # Only the data alternative's steps hold no result.
    idle = {step.label for step in compile_plan(pattern).steps if not step.holds_result}
    assert idle == {"restaurant", "rating", "5"}


@pytest.mark.parametrize(
    "name",
    sorted(anchored_patterns("root", {"getRestos"})),
)
def test_anchored_runs_read_what_the_plain_plan_and_the_walk_read(name):
    document = nested_document()
    names = {call.label for call in document.function_nodes()}
    pattern = anchored_patterns("root", names)[name]
    (anchored, _), (plain, _) = anchored_and_unanchored(pattern, document)
    walk = WalkMatcher(pattern).evaluate(document)
    assert row_ids(anchored) == row_ids(plain) == row_ids(walk)
    assert len(anchored) > 0
    # After replies the plan's candidate order (node ids) parts from the
    # walk's (document order); the anchored run keeps the plan's order.
    calls = document.function_nodes()
    document.replace_call(calls[-1], [E("hotel", E("name", C("getName")))])
    document.replace_call(
        next(c for c in calls if c.label == "getRestos"),
        [E("restaurant", E("rating", V("5")), E("name", C("getRestos")))],
    )
    (anchored, _), (plain, _) = anchored_and_unanchored(pattern, document)
    walk = WalkMatcher(pattern).evaluate(document)
    assert row_ids(anchored) == row_ids(plain)
    assert sorted(map(MatchSet.row_key, anchored)) == sorted(
        map(MatchSet.row_key, walk)
    )


def test_a_call_in_another_calls_parameters_is_a_result_only_when_opened():
    document = nested_document()
    pattern = anchored_patterns("root", {"getHotels"})["any-function"]
    closed = Matcher(pattern)
    # Five calls; the inner getHotels sits in getRestos' parameters, so
    # it is no row: parameters are never opened.
    rows = closed.evaluate(document)
    assert len(document.function_nodes()) == 5
    assert len(rows) == 4
    inner = document.function_nodes()[0].children[0]
    assert inner.label == "getHotels"
    assert all(row.nodes[0] is not inner for row in rows)


def test_a_root_outside_the_anchor_set_answers_without_enumerating():
    document = nested_document()
    pattern = parse_pattern("/root/hotel/nearby/museum/rating/getName()!")
    assert anchor_of(pattern, document) == set()
    (anchored, scanned), (plain, walked) = anchored_and_unanchored(
        pattern, document
    )
    assert len(anchored) == len(plain) == 0
    # Two getName hits, each failing its first climb step ("rating").
    assert scanned == 2 + 2
    assert walked > scanned


def test_scoped_runs_start_from_the_scopes_calls(monkeypatch):
    """A scoped run of a call-result plan anchors on the calls the arena
    keeps for its scope (here: a hotel with calls, one without, and a
    call right below the root): its anchor set lies in the scope or is
    the root.  The any-function read scans the hits, the climb and
    closure, what enumeration visits and, once per scope, the derivation
    (the other shapes' child steps read whole sibling chains below the
    set's slots, as in a whole run)."""
    names = {call.label for call in nested_document().function_nodes()}
    shapes = anchored_patterns("root", names).items()
    for index, (name, pattern) in itertools.product(range(3), shapes):
        document = nested_document()  # a fresh arena: nothing derived
        arena = document.arena
        scope = document.root.children[index]
        inside = {arena.slot_for(node) for node in scope.iter_subtree()}
        (anchored, scanned), (plain, _) = anchored_and_unanchored(
            pattern, document, scope
        )
        walk = WalkMatcher(pattern).evaluate_scoped(document, scope)
        assert row_ids(anchored) == row_ids(plain) == row_ids(walk)
        anchor = anchor_of(pattern, document, scope)
        assert anchor <= inside | {arena.slot_for(document.root)}
        calls = sum(node.is_function for node in scope.iter_subtree())
        hits = len(compile_plan(pattern).anchors) * calls
        derivation = len(inside)
        if name == "any-function":
            assert scanned <= hits + 2 * len(anchor) + derivation
        # Derived once: a second run on the same arena saves exactly it.
        ((again, rescanned), _) = anchored_and_unanchored(
            pattern, document, scope
        )
        assert row_ids(again) == row_ids(anchored)
        assert rescanned == scanned - derivation
    built = []
    real = ColumnMatcher._anchor_set
    monkeypatch.setattr(
        ColumnMatcher,
        "_anchor_set",
        lambda self, root_slot, scope_slot: built.append(scope_slot)
        or real(self, root_slot, scope_slot),
    )
    document = nested_document()
    query = Matcher(parse_pattern("/root//name/$x"))
    query.evaluate_scoped(document, document.root.children[0])
    query.evaluate(document)
    assert built == []  # its result is not a call
    assert document.arena._scope_calls == {}


ANCHOR_STEPS = (
    "reply", "insert", "insert-nested", "remove",
    "reply-at-root", "remove-scope", "reuse",
)


def _anchor_step(gen, document, rng, step, number):
    calls = document.function_nodes()
    root = document.root
    if step == "reply" and calls:
        call = rng.choice(calls)
        key = call.children[0].label if call.children else "0:x"
        document.replace_call(call, gen.result_forest(call.label, key))
    elif step == "insert-nested":
        outer, inner = rng.choice(gen.service_names), rng.choice(gen.service_names)
        parent = rng.choice(
            [n for n in document.root.iter_subtree() if n.is_element]
        )
        document.insert_subtree(
            parent, C(outer, C(inner, V(f"1:nest-{number}")), V("0:x"))
        )
    elif step == "reply-at-root":
        # A call that is a depth-1 scope of its own: its reply drops the
        # scope and adds the forest's roots as new ones.
        at_root = [n for n in root.children if n.is_function]
        if not at_root:
            document.insert_subtree(
                root, C(rng.choice(gen.service_names), V("0:x"))
            )
            at_root = [n for n in root.children if n.is_function]
        call = rng.choice(at_root)
        key = call.children[0].label if call.children else "0:x"
        document.replace_call(call, gen.result_forest(call.label, key))
    elif step == "remove-scope" and len(root.children) > 1:
        document.remove_subtree(rng.choice(root.children))
    elif step == "reuse":
        # Free slots, then fill them (and fresh ones) with new calls.
        victims = [n for n in root.iter_subtree() if n is not root]
        if victims:
            document.remove_subtree(rng.choice(victims))
        parent = rng.choice([n for n in root.iter_subtree() if n.is_element])
        outer, inner = rng.choice(gen.service_names), rng.choice(gen.service_names)
        document.insert_subtree(
            parent,
            E(
                "reused",
                C(outer, C(inner, V(f"1:reuse-{number}")), V("0:x")),
                E("name", C(inner, V("0:x"))),
            ),
        )
    else:  # "insert" / "remove" (and a step with nothing to act on)
        gen.apply_mutation(f"anchor-{number}", (document,))


def _anchor_trace(name, seed, steps):
    """A fuzz-sized factory regime's document, its NFQs plus the
    hand-made function-result shapes, and a generator applying
    ``steps`` to the document one by one (``None`` first: no step)."""
    import random

    gen = generate(fuzz_spec(name, seed))
    query = gen.query_for(0)
    document = gen.make_document(gen.document_for_query(0))
    shapes = anchored_patterns(document.root.label, gen.service_names)
    assert all(compile_plan(p).anchors is not None for p in shapes.values())
    patterns = [rq.pattern for rq in build_nfqs(query)] + list(shapes.values())
    rng = random.Random(f"anchor|{name}|{seed}")

    def trace():
        for number, step in enumerate([None, *steps]):
            if step is not None:
                _anchor_step(gen, document, rng, step, number)
            yield step

    return document, patterns, trace()


ANCHOR_REGIMES = st.sampled_from(
    ("baseline", "deep-recursion", "wide-flat", "cache-flood",
     "multi-root-standing")
)


@settings(max_examples=25, deadline=None)
@given(
    name=ANCHOR_REGIMES,
    seed=st.integers(min_value=0, max_value=5_000),
    steps=st.lists(st.sampled_from(ANCHOR_STEPS), min_size=2, max_size=8),
)
def test_anchored_whole_runs_equal_the_plain_plan_under_interleaved_splices(
    name, seed, steps
):
    """Every NFQ of a fuzz-sized factory regime plus the hand-made
    function-result shapes, after each step of a trace of replies,
    inserts (nested calls among them) and removals — free-list reuse
    and fresh ids make node-id order part from document order there:
    the anchored whole run reads the plain plan's rows in its order with
    its bindings, and the walk's row identities."""
    document, patterns, trace = _anchor_trace(name, seed, steps)
    for step in trace:
        for pattern in patterns:
            (anchored, _), (plain, _) = anchored_and_unanchored(
                pattern, document
            )
            assert row_ids(anchored) == row_ids(plain), (step, pattern.name)
            walk = WalkMatcher(pattern).evaluate(document)
            assert sorted(map(MatchSet.row_key, anchored)) == sorted(
                map(MatchSet.row_key, walk)
            ), (step, pattern.name)
    assert document.arena.consistency_errors() == []


@settings(max_examples=25, deadline=None)
@given(
    name=ANCHOR_REGIMES,
    seed=st.integers(min_value=0, max_value=5_000),
    steps=st.lists(st.sampled_from(ANCHOR_STEPS), min_size=2, max_size=8),
)
def test_anchored_scoped_runs_equal_the_plain_plan_under_interleaved_splices(
    name, seed, steps
):
    """The same traces — replies to calls right below the root,
    removals of whole depth-1 subtrees and inserts into freed slots
    among them — read scope by scope: after each step, every live root
    child's anchored scoped run reads the plain scoped run's rows in its
    order with its bindings, and the walk's row identities; its anchor
    set is the whole run's restricted to the scope, plus the root; and
    the arena's kept call sets, derived by earlier steps' reads and
    carried through the splices since, equal fresh derivations."""
    document, patterns, trace = _anchor_trace(name, seed, steps)
    for step in trace:
        arena = document.arena
        root = arena.slot_for(document.root)
        for pattern in patterns:
            whole = anchor_of(pattern, document)
            for scope in document.root.children:
                (anchored, _), (plain, _) = anchored_and_unanchored(
                    pattern, document, scope
                )
                assert row_ids(anchored) == row_ids(plain), (step, pattern.name)
                walk = WalkMatcher(pattern).evaluate_scoped(document, scope)
                assert sorted(map(MatchSet.row_key, anchored)) == sorted(
                    map(MatchSet.row_key, walk)
                ), (step, pattern.name)
                scoped = anchor_of(pattern, document, scope)
                if whole is None:  # a dead plan builds no set at all
                    assert scoped is None
                    continue
                inside = {arena.slot_for(n) for n in scope.iter_subtree()}
                assert scoped - {root} == whole & inside, (step, pattern.name)
                assert (root in scoped) == bool(scoped - {root})
        assert arena.consistency_errors() == [], step
    # The upkeep had sets to keep.
    assert bool(document.arena._scope_calls) == bool(document.root.children)


# -- count pins (slots, not seconds) ----------------------------------------


def test_the_zero_row_read_of_the_pruning_mix_touches_hits_and_climb_steps():
    """The pruning workload's zero-row relevance read of
    ``/hotels/hotel/nearby/restaurant[rating="4"]/name/$X``: top-down it
    scans 6,901 slots; anchored, only every call of the four services
    and the parent reads that rule each one out."""
    import repro
    from repro.pattern import columnmatch
    from repro.workloads.hotels import (
        HOTELS_SCHEMA_TEXT,
        HotelsWorkloadParams,
        build_hotels_workload,
    )

    world = build_hotels_workload(
        HotelsWorkloadParams(
            n_hotels=300, extra_hotels_via_service=5, target_hotel_count=12,
            seed=95,
        )
    )
    schema = repro.parse_schema(HOTELS_SCHEMA_TEXT)
    services = ("getHotels", "getNearbyMuseums", "getNearbyRestos", "getRating")
    spine = ("name", "restaurant", "nearby", "hotel", "hotels")
    target = parse_pattern(
        '/hotels/hotel/nearby/restaurant[rating="4"]/name/'
        f'({"|".join(services)})()!'
    ).to_string()
    reads = []
    real = columnmatch.ColumnMatcher.run

    def spy(self, root_slot, scope_slot=None):
        before = self.counter.column_pass_nodes
        rows = real(self, root_slot, scope_slot)
        if self.plan.pattern.to_string() == target:
            expected = 0
            for call in self.arena.document.function_nodes():
                if call.label not in services:
                    continue
                expected += 1  # the sweep hit
                node = call
                for label in spine:  # climb until a filter fails
                    node = node.parent
                    if node is None:
                        break
                    expected += 1
                    if not (node.is_element and node.label == label):
                        break
            scanned = self.counter.column_pass_nodes - before
            reads.append((scope_slot, len(rows), scanned, expected))
        return rows

    query = '/hotels/hotel/nearby/restaurant[rating="4"]/name/$X'
    with mock.patch.object(columnmatch.ColumnMatcher, "run", spy):
        with unanchored():
            top_down = repro.evaluate(
                query, world.make_document(), services=world.registry,
                schema=schema,
            )
        assert [read[:3] for read in reads] == [(None, 0, 6_901)]
        reads.clear()
        anchored = repro.evaluate(
            query, world.make_document(), services=world.registry, schema=schema
        )
    ((scope, rows, scanned, expected),) = reads
    assert scope is None and rows == 0
    assert scanned == expected < 6_901 // 5
    assert anchored.value_rows() == top_down.value_rows()
    assert anchored.metrics.calls_invoked == top_down.metrics.calls_invoked


def test_the_pruning_worlds_scoped_rematches_start_from_the_scopes_calls():
    """One untyped engine run of the paper query on the pruning world:
    the relevance store re-matches the depth-1 scopes the replies
    dirtied.  Started from each scope's kept calls (every scope's
    one-off derivation included) those re-matches scan at most a fifth
    of the slots their top-down walks scan, with the same answer and
    the same calls invoked."""
    import repro
    from repro.pattern import columnmatch
    from repro.workloads.hotels import HotelsWorkloadParams, build_hotels_workload

    world = build_hotels_workload(
        HotelsWorkloadParams(
            n_hotels=300, extra_hotels_via_service=5, target_hotel_count=12,
            seed=95,
        )
    )
    real = columnmatch.ColumnMatcher.run

    def run(seam):
        scoped = []

        def spy(self, root_slot, scope_slot=None):
            before = self.counter.column_pass_nodes
            rows = real(self, root_slot, scope_slot)
            if scope_slot is not None:
                scoped.append(self.counter.column_pass_nodes - before)
            return rows

        with mock.patch.object(columnmatch.ColumnMatcher, "run", spy), seam:
            outcome = repro.evaluate(
                paper_query(), world.make_document(), services=world.registry
            )
        return outcome, scoped

    anchored, scoped = run(contextlib.nullcontext())
    top_down, walked = run(unanchored())
    assert len(scoped) == len(walked) > 0
    assert 5 * sum(scoped) <= sum(walked)
    assert anchored.value_rows() == top_down.value_rows() != set()
    assert anchored.metrics.calls_invoked == top_down.metrics.calls_invoked


@pytest.mark.parametrize(
    "name", ("large-document", "wide-flat", "baseline", "deep-recursion")
)
def test_an_any_function_read_touches_the_anchor_set_not_the_tree(name):
    """``/root//()!``: the sweep's hits, each anchor-set slot the closure
    adds, and each one enumeration visits — never the rest of the tree."""
    gen = generate(fuzz_spec(name, 7))
    document = gen.make_document(gen.document_for_query(0))
    pattern = parse_pattern(f"/{document.root.label}//()!")
    anchor = anchor_of(pattern, document)
    hits = len(document.function_nodes())
    (anchored, scanned), (plain, walked) = anchored_and_unanchored(
        pattern, document
    )
    assert row_ids(anchored) == row_ids(plain) and hits > 0
    assert scanned <= hits + 2 * len(anchor)
    assert len(anchor) < document.root.subtree_size()
    if name == "large-document":  # calls are sparse there
        assert 5 * scanned < walked
