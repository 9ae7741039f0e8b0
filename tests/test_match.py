"""Unit tests for the embedding engine (Definition 1 semantics)."""

import pytest

from repro.axml.builder import C, E, V, build_document
from repro.pattern.match import MatchCounter, Matcher, snapshot_result
from repro.pattern.parse import parse_pattern

from .references import WalkMatcher


@pytest.fixture
def doc():
    return build_document(
        E(
            "site",
            E(
                "person",
                E("name", V("alice")),
                E("age", V("30")),
                E("pet", E("name", V("rex"))),
            ),
            E(
                "person",
                E("name", V("bob")),
                E("age", V("30")),
            ),
            E("thing", E("deep", E("person", E("name", V("carol"))))),
        )
    )


def rows(q, d):
    return snapshot_result(parse_pattern(q), d).value_rows()


def test_root_must_match_document_root(doc):
    assert rows("/site/person/name/$X", doc) == {("alice",), ("bob",)}
    assert rows("/other/person", doc) == set()


def test_child_vs_descendant(doc):
    assert rows("/site/person/name/$X", doc) == {("alice",), ("bob",)}
    assert rows("/site//person/name/$X", doc) == {
        ("alice",),
        ("bob",),
        ("carol",),
    }


def test_descendant_through_nested_elements(doc):
    assert rows("/site//name/$X", doc) == {
        ("alice",),
        ("bob",),
        ("carol",),
        ("rex",),
    }


def test_value_constant_filters(doc):
    assert rows('/site/person[age="30"]/name/$X', doc) == {
        ("alice",),
        ("bob",),
    }
    assert rows('/site/person[age="31"]/name/$X', doc) == set()


def test_predicates_are_existential(doc):
    assert rows("/site/person[pet]/name/$X", doc) == {("alice",)}


def test_result_defaults_to_last_step(doc):
    got = snapshot_result(parse_pattern("/site/person/age"), doc)
    # Two embeddings but homomorphic results dedup by target node.
    assert len(got) == 2
    assert got.value_rows() == {("age",)}


def test_variable_join_requires_equal_labels():
    d = build_document(
        E(
            "r",
            E("pair", E("l", V("1")), E("m", V("1"))),
            E("pair", E("l", V("1")), E("m", V("2"))),
        )
    )
    q = parse_pattern("/r/pair[l=$X][m=$X]", result_variables=["X"])
    assert snapshot_result(q, d).value_rows() == {("1",)}


def test_variable_can_bind_element_labels(doc):
    q = parse_pattern("/site/person/$T")
    labels = {row.values()[0] for row in snapshot_result(q, doc)}
    assert labels == {"name", "age", "pet"}


def test_star_matches_any_data_node(doc):
    assert rows("/site/*/name/$X", doc) == {("alice",), ("bob",)}


def test_patterns_do_not_match_function_nodes_as_data():
    d = build_document(E("r", C("f", E("arg", V("x")))))
    assert rows("/r/arg/$X", d) == set()
    assert rows("/r//arg", d) == set()  # no descent into parameters


def test_function_pattern_nodes_match_calls():
    d = build_document(E("r", C("f"), C("g"), E("a", C("f"))))
    q = parse_pattern("/r/()")
    got = snapshot_result(q, d)
    assert sorted(n.label for n in got.distinct_nodes()) == ["f", "g"]
    q2 = parse_pattern("/r//f()")
    assert len(snapshot_result(q2, d).distinct_nodes()) == 2


def test_named_function_pattern_filters():
    d = build_document(E("r", C("f"), C("g")))
    q = parse_pattern("/r/g()")
    assert [n.label for n in snapshot_result(q, d).distinct_nodes()] == ["g"]


def test_homomorphism_children_may_overlap(doc):
    # Both predicate branches can map to the same 'name' node.
    assert rows("/site/person[name][name]/age", doc) == {("age",)}


def test_counter_tracks_work(doc):
    counter = MatchCounter()
    q = parse_pattern("/site//person/name/$X")
    Matcher(q, counter=counter).evaluate(doc)
    assert counter.evaluations == 1
    assert counter.column_pass_nodes > 0


def test_evaluate_forest_child_anchor():
    q = parse_pattern('/restaurant[rating="5"]/name/$X')
    forest = [
        E("restaurant", E("name", V("good")), E("rating", V("5"))),
        E("restaurant", E("name", V("bad")), E("rating", V("2"))),
        E("wrapper", E("restaurant", E("name", V("nested")), E("rating", V("5")))),
    ]
    m = Matcher(q)
    from repro.pattern.nodes import EdgeKind

    child_rows = m.evaluate_forest(forest, anchor_edge=EdgeKind.CHILD)
    assert child_rows.value_rows() == {("good",)}
    desc_rows = m.evaluate_forest(forest, anchor_edge=EdgeKind.DESCENDANT)
    assert desc_rows.value_rows() == {("good",), ("nested",)}


def test_has_embedding_short_circuits(doc):
    q = parse_pattern("/site/person")
    assert WalkMatcher(q).has_embedding(doc.root)
    q2 = parse_pattern("/site/alien")
    assert not WalkMatcher(q2).has_embedding(doc.root)


def test_snapshot_of_paper_query_before_invocation(fig1_query, fig1_document):
    # Figure 1: no embedding until getNearbyRestos is invoked.
    assert snapshot_result(fig1_query, fig1_document).value_rows() == set()
