"""Unit tests for query pushing (Section 7)."""

import pytest

from repro.axml.builder import C, E, V, build_document
from repro.lazy.config import EngineConfig, Strategy
from repro.lazy.engine import LazyQueryEvaluator
from repro.lazy.pushing import pushed_subquery_for, witness_forest
from repro.pattern.match import Matcher
from repro.pattern.nodes import EdgeKind, PatternKind
from repro.pattern.parse import parse_pattern
from repro.services.registry import ServiceBus, ServiceRegistry
from repro.services.catalog import StaticService
from repro.services.service import BindingRow, PushMode
from repro.workloads.hotels import (
    HotelsWorkloadParams,
    build_hotels_workload,
    figure_1_document,
    figure_1_registry,
    figure_1_schema,
    paper_query,
)


def test_pushed_subquery_is_the_query_subtree():
    query = paper_query()
    restaurant = [n for n in query.nodes() if n.label == "restaurant"][0]
    pushed = pushed_subquery_for(query, restaurant)
    assert pushed.pattern.root.label == "restaurant"
    assert pushed.anchor_edge is EdgeKind.DESCENDANT
    # Section 7's example: //restaurant[rating="5",name=X,address=Y].
    assert pushed.pattern.to_string() == (
        '/restaurant[name[$X!]][address[$Y!]][rating["5"]]'
    )


def test_all_variables_become_result_nodes():
    query = parse_pattern("/a/b[c=$X][d=$Y]", result_variables=["X"])
    b = [n for n in query.nodes() if n.label == "b"][0]
    pushed = pushed_subquery_for(query, b)
    marked = {n.label for n in pushed.pattern.result_nodes()}
    assert marked == {"X", "Y"}
    assert pushed.bindable


def test_non_variable_results_disable_bindings():
    query = parse_pattern("/a/b/c")  # result is the element c
    b = [n for n in query.nodes() if n.label == "b"][0]
    pushed = pushed_subquery_for(query, b)
    assert not pushed.bindable


def test_pure_filter_subquery_is_bindable():
    query = parse_pattern('/a/b[c="1"]/d')
    c = [n for n in query.nodes() if n.label == "c"][0]
    pushed = pushed_subquery_for(query, c)
    assert pushed.bindable
    assert pushed.pattern.result_nodes() == []


def _splice_witnesses(doc, parent, pushed, rows):
    """What the engine does with a bindings reply, minus the call."""
    for tree in witness_forest(pushed, rows):
        doc.insert_subtree(parent, tree)


def test_witness_rows_join_with_an_outer_variable():
    query = parse_pattern("/a[key=$X]/b[name=$X]")
    b = [n for n in query.nodes() if n.label == "b"][0]
    pushed = pushed_subquery_for(query, b)
    doc = build_document(E("a", E("key", V("v1"))))
    _splice_witnesses(
        doc,
        doc.root,
        pushed,
        [BindingRow((("X", "v1"),)), BindingRow((("X", "other"),))],
    )
    assert [t.label for t in doc.root.children] == ["key", "b", "b"]
    assert Matcher(query).evaluate(doc).value_rows() == {("v1",)}


def test_witness_supplies_result_nodes():
    query = parse_pattern("/a/b[name=$X]")
    b = [n for n in query.nodes() if n.label == "b"][0]
    pushed = pushed_subquery_for(query, b)
    (tree,) = witness_forest(pushed, [BindingRow((("X", "v1"),))])
    assert tree.structurally_equal(E("b", E("name", V("v1"))))
    doc = build_document(E("a"))
    doc.insert_subtree(doc.root, tree)
    matched = Matcher(query).evaluate(doc)
    assert matched.value_rows() == {("v1",)}
    (row,) = matched.rows
    assert row.nodes[0].is_value and row.nodes[0].node_id is not None


def test_witness_satisfies_an_or_wrapped_condition():
    from repro.lazy.relevance import build_nfqs

    query = parse_pattern('/a[b="1"]/d/c')
    b = [n for n in query.nodes() if n.label == "b"][0]
    pushed = pushed_subquery_for(query, b)
    doc = build_document(E("a", E("d", C("getC"))))
    # The NFQ for c OR-wraps the b condition (b itself, or a call that
    # may bring one): a pure-filter reply — one empty tuple — must
    # satisfy it, and no reply must not.
    (c_nfq,) = [rq for rq in build_nfqs(query) if rq.target.label == "c"]
    assert c_nfq.pattern.to_string() == '/a[(b[("1" | ())] | ())][d[()!]]'
    assert not Matcher(c_nfq.pattern).evaluate(doc).distinct_nodes()
    _splice_witnesses(doc, doc.root, pushed, [BindingRow(())])
    assert len(Matcher(c_nfq.pattern).evaluate(doc).distinct_nodes()) == 1


@pytest.mark.parametrize(
    "text, label, bindable",
    [
        # The paper's pushed subquery (Section 7).
        ('/h/n//r[name=$X][address=$Y][rating="5"]', "r", True),
        ("/a/b[c//d=$X]", "b", False),  # an interior descendant edge
        ("/a/b[*/d=$X]", "b", False),  # a star
        ("/a/b[$Y/d=$X]", "b", False),  # an interior variable
        # A value constant that could land on a variable's witness.
        ('/a/b[c=$X][c="1"]', "b", False),
        ('/a/b[c=$X][d="1"]', "b", True),
    ],
)
def test_bindable_is_the_witness_rule(text, label, bindable):
    query = parse_pattern(text)
    target = [n for n in query.nodes() if n.label == label][0]
    assert pushed_subquery_for(query, target).bindable is bindable


def test_an_or_is_not_bindable():
    from repro.pattern.nodes import PatternNode

    query = parse_pattern("/a/b[c=$X]")
    b = [n for n in query.nodes() if n.label == "b"][0]
    b.add_child(
        PatternNode(
            PatternKind.OR,
            children=[
                PatternNode(PatternKind.ELEMENT, "d"),
                PatternNode(PatternKind.ELEMENT, "e"),
            ],
        )
    )
    assert not pushed_subquery_for(query, b).bindable


def _extensional_restaurants():
    """E3's world in small: every hotel qualifies, its restaurant list
    is one call, the replies are extensional — so a BINDINGS push comes
    back as tuples."""
    return build_hotels_workload(
        HotelsWorkloadParams(
            n_hotels=4,
            extra_hotels_via_service=0,
            target_name_fraction=1.0,
            hotel_five_star_fraction=1.0,
            intensional_rating_fraction=0.0,
            restaurants_per_hotel=5,
            intensional_restos_fraction=1.0,
            nested_rating_fraction=0.0,
            five_star_fraction=0.4,
            seed=77,
        )
    )


def _engine(workload, push_mode):
    config = EngineConfig(strategy=Strategy.LAZY_NFQ, push_mode=push_mode)
    bus = workload.make_bus()
    return LazyQueryEvaluator(bus, config=config), bus


def test_engine_bindings_push_records_overlay():
    """A bindings reply ends up as witness trees in the document (the
    name dates from the side table that used to hold it)."""
    workload = _extensional_restaurants()
    doc = workload.make_document()
    engine, bus = _engine(workload, PushMode.BINDINGS)
    outcome = engine.evaluate(workload.query, doc)
    restos = [
        r for r in bus.log.records if r.service_name == "getNearbyRestos"
    ]
    assert restos
    assert all(
        r.push_mode == "bindings" and r.returned_bindings for r in restos
    )
    assert outcome.rows
    assert outcome.metrics.column_fallback_reasons == {}
    # Every row is made of document nodes a pushed call produced.
    call_ids = {r.call_node_id for r in restos}
    for row in outcome.rows:
        assert all(
            doc.contains(n) and n.produced_by in call_ids for n in row.nodes
        )


PUSHING = [PushMode.FILTERED, PushMode.BINDINGS]


@pytest.mark.parametrize("push_mode", PUSHING)
def test_pushed_rows_survive_a_second_evaluation(push_mode):
    """The reply is in the document, so evaluating again finds it there
    (under BINDINGS the rows used to die with the first evaluation)."""
    workload = _extensional_restaurants()
    plain, _ = _engine(workload, PushMode.NONE)
    expected = plain.evaluate(
        workload.query, workload.make_document()
    ).value_rows()
    assert expected

    engine, bus = _engine(workload, push_mode)
    doc = workload.make_document()
    assert engine.evaluate(workload.query, doc).value_rows() == expected
    calls = len(bus.log.records)
    again = engine.evaluate(workload.query, doc)
    assert again.value_rows() == expected
    assert len(bus.log.records) == calls


@pytest.mark.parametrize("push_mode", PUSHING)
def test_standing_query_keeps_pushed_rows_across_mutations(push_mode):
    from repro.lazy.continuous import ContinuousQuery

    workload = _extensional_restaurants()

    def restaurant_calls(document):
        return [
            c for c in document.function_nodes() if c.label == "getNearbyRestos"
        ]

    def standing(mode):
        engine, _ = _engine(workload, mode)
        document = workload.make_document()
        # One hotel starts without its restaurant list.
        document.remove_subtree(restaurant_calls(document)[-1])
        return ContinuousQuery(engine, workload.query, document)

    late = restaurant_calls(workload.make_document())[-1]
    pushed, plain = standing(push_mode), standing(PushMode.NONE)
    assert pushed.refresh().value_rows() == plain.refresh().value_rows()

    # An unrelated insert at the root: nothing to invoke, nothing lost.
    for loop in (pushed, plain):
        loop.document.insert_subtree(loop.document.root, E("note", V("x")))
    assert pushed.refresh().value_rows() == plain.refresh().value_rows()
    assert pushed.refresh().value_rows()

    # A relevant insert: that hotel's call arrives; its rows appear.
    before = set(plain.refresh().value_rows())
    for loop in (pushed, plain):
        nearby = [
            n for n in loop.document.root.iter_subtree() if n.label == "nearby"
        ][-1]
        loop.document.insert_subtree(nearby, late.clone())
    assert pushed.refresh().value_rows() == plain.refresh().value_rows()
    assert set(plain.refresh().value_rows()) > before
    pushed.close()
    plain.close()


@pytest.mark.parametrize(
    "text, result",
    [
        # An interior descendant edge: collapsed to ``a[b/1][b/2]`` the
        # witness would also yield (2,1) and (2,2).
        (
            "/root/a[b=$X][//b=$Y]",
            lambda: E("a", E("b", V("1")), E("c", E("b", V("2")))),
        ),
        # A value constant that can land on a variable's witness: $X
        # bound the *element* foo, its witness is the value "foo", and
        # the second b's test would pass on the first — $Z could bind u.
        (
            '/root/a[b[$X][$Y]][b["foo"][$Z]]',
            lambda: E("a", E("b", E("foo"), V("u")), E("b", V("foo"), V("w"))),
        ),
    ],
    ids=["descendant-edge", "value-on-variable"],
)
def test_unwitnessable_subqueries_take_the_filtered_reply(text, result):
    """Where witness trees could not stand for the real result exactly,
    a BINDINGS push is shipped FILTERED — and agrees with NAIVE."""
    query = parse_pattern(text)

    def run(**config):
        bus = ServiceBus(ServiceRegistry([StaticService("f", [result()])]))
        doc = build_document(E("root", C("f", V("k"))))
        engine = LazyQueryEvaluator(bus, config=EngineConfig(**config))
        return engine.evaluate(query, doc).value_rows(), bus.log.records

    naive, _ = run(strategy=Strategy.NAIVE)
    pushed, (record,) = run(
        strategy=Strategy.LAZY_NFQ, push_mode=PushMode.BINDINGS
    )
    assert pushed == naive and naive
    assert record.push_mode == "filtered" and not record.returned_bindings


def test_push_reduces_received_bytes(fig1_schema):
    def run(push_mode):
        doc = figure_1_document()
        bus = ServiceBus(figure_1_registry())
        config = EngineConfig(strategy=Strategy.LAZY_NFQ, push_mode=push_mode)
        out = LazyQueryEvaluator(
            bus, schema=fig1_schema, config=config
        ).evaluate(paper_query(), doc)
        return out

    plain = run(PushMode.NONE)
    filtered = run(PushMode.FILTERED)
    bindings = run(PushMode.BINDINGS)
    assert plain.value_rows() == filtered.value_rows() == bindings.value_rows()
    assert filtered.metrics.bytes_received <= plain.metrics.bytes_received
    assert bindings.metrics.bytes_received <= filtered.metrics.bytes_received


def test_push_suppressed_when_positions_are_shared():
    """A call whose position several query nodes could use must be
    invoked un-pushed (the engine's safety rule)."""
    registry = ServiceRegistry(
        [StaticService("f", [E("x", V("1")), E("y", V("2"))])]
    )
    bus = ServiceBus(registry)
    doc = build_document(E("root", C("f")))
    query = parse_pattern("/root[x][y]")
    config = EngineConfig(strategy=Strategy.LAZY_NFQ, push_mode=PushMode.FILTERED)
    out = LazyQueryEvaluator(bus, config=config).evaluate(query, doc)
    assert len(out.rows) == 1
    # Both x and y NFQs sit at /root: no pushing happened.
    assert all(r.push_mode == "none" for r in bus.log.records)


def test_deep_position_bindings_reach_descendant_steps():
    """Regression: a bindings reply recorded at a call position *deep*
    in the document (here two levels down, under an ``epsilon``) stands
    for embeddings that a descendant step consulted at an ancestor
    would have found in the spliced forest.  The side table that used
    to hold such replies keyed rows by exact position only, so
    ``//beta`` evaluated at the root never saw them and the query
    silently lost rows; as spliced witness trees they are simply there."""

    def make_doc():
        return build_document(
            E(
                "root",
                E("beta", E("epsilon", C("getBeta", V("k")))),
                E("beta", V("1")),
            ),
            name="deep-push",
        )

    def make_bus():
        return ServiceBus(
            ServiceRegistry(
                [
                    StaticService(
                        "getBeta",
                        [E("beta", V("alpha")), E("beta", V("2"))],
                    )
                ]
            )
        )

    query = parse_pattern("/root[//beta=$X][beta]", result_variables=["X"])

    naive = LazyQueryEvaluator(
        make_bus(), config=EngineConfig(strategy=Strategy.NAIVE)
    ).evaluate(query, make_doc())

    config = EngineConfig(
        strategy=Strategy.LAZY_NFQ, push_mode=PushMode.BINDINGS
    )
    pushed_bus = make_bus()
    pushed = LazyQueryEvaluator(pushed_bus, config=config).evaluate(
        query, make_doc()
    )
    # The reply must actually have come back as tuples (spliced at the
    # epsilon position, below the node the descendant step starts from).
    assert any(r.returned_bindings for r in pushed_bus.log.records)
    assert pushed.value_rows() == naive.value_rows()
    assert ("alpha",) in pushed.value_rows()
    assert ("2",) in pushed.value_rows()
