"""Unit tests for query pushing (Section 7)."""

import dataclasses

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.axml.builder import C, E, V, build_document
from repro.axml.node import call, element, value
from repro.axml.xmlio import serialize_document
from repro.lazy.config import EngineConfig, Strategy
from repro.lazy.engine import LazyQueryEvaluator
from repro.lazy.pushing import pushed_subquery_for, witness_forest
from repro.pattern.match import Matcher
from repro.pattern.nodes import EdgeKind, PatternKind, PatternNode
from repro.pattern.parse import parse_pattern
from repro.pattern.pattern import TreePattern
from repro.services.registry import ServiceBus, ServiceRegistry
from repro.services.catalog import StaticService
from repro.services.service import BindingRow, PushMode, Service
from repro.workloads.hotels import (
    HotelsWorkloadParams,
    build_hotels_workload,
    figure_1_document,
    figure_1_registry,
    figure_1_schema,
    paper_query,
)

from .references import WalkMatcher, object_walk
from .test_prop_match import EXTENDED, LABELS, VALUES, VARIABLES, pattern_trees


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

    with object_walk():
        naive, _ = run(strategy=Strategy.NAIVE)
    pushed, (record,) = run(
        strategy=Strategy.LAZY_NFQ, push_mode=PushMode.BINDINGS
    )
    assert pushed == naive and naive
    assert record.push_mode == "filtered" and not record.returned_bindings


CROSS_QUERY = "/hotels/hotel/nearby//restaurant[name=$X]"


@pytest.mark.parametrize(
    "push_mode",
    [PushMode.NONE]
    + [
        pytest.param(
            mode, marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
        )
        for mode in PUSHING
    ],
    ids=lambda mode: mode.value,
)
def test_a_pushed_reply_does_not_change_a_later_querys_answer(push_mode):
    """Two queries on one document: the paper query, whose restaurant
    calls get pushed, then a wider one over the same calls.  Each must
    read what ``push_mode=none`` reads on a fresh document.  Today the
    pushed (pruned) reply replaces the call for every later reader, so
    the second query reads 19 rows where 60 are right."""
    workload = build_hotels_workload(
        HotelsWorkloadParams(
            n_hotels=12,
            extra_hotels_via_service=0,
            target_name_fraction=1.0,
            hotel_five_star_fraction=1.0,
            intensional_rating_fraction=0.0,
            restaurants_per_hotel=5,
            intensional_restos_fraction=1.0,
            nested_rating_fraction=0.0,
            five_star_fraction=0.2,
            seed=77,
        )
    )
    queries = [workload.query, parse_pattern(CROSS_QUERY)]

    def fresh(query):
        engine, _ = _engine(workload, PushMode.NONE)
        outcome = engine.evaluate(query, workload.make_document())
        return len(outcome.rows), outcome.value_rows()

    expected = [fresh(query) for query in queries]
    assert [n for n, _ in expected] == [19, 60]
    engine, _ = _engine(workload, push_mode)
    document = workload.make_document()
    for query, want in zip(queries, expected):
        outcome = engine.evaluate(query, document)
        assert (len(outcome.rows), outcome.value_rows()) == want, query


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

    with object_walk():
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


# -- ROADMAP item 1: the failing differential, written first ------------------
#
# A pushed (pruned) reply replaces its call for every later reader of the
# document.  Each sequence below runs queries one after another on one
# document under a push mode, and holds every answer to what
# ``push_mode=none`` reads on a fresh document.  Sequences the bug breaks
# today are strict xfails; the ``none`` ids pass.


def _e3_world():
    """E3's world (``bench_e3_pushing.workload_of(5)``)."""
    return build_hotels_workload(
        HotelsWorkloadParams(
            n_hotels=12,
            extra_hotels_via_service=0,
            target_name_fraction=1.0,
            hotel_five_star_fraction=1.0,
            intensional_rating_fraction=0.0,
            restaurants_per_hotel=5,
            intensional_restos_fraction=1.0,
            nested_rating_fraction=0.0,
            five_star_fraction=0.2,
            seed=77,
        )
    )


class _E3:
    """Queries by text on E3's world, evaluated by the plain engine."""

    def __init__(self):
        self.workload = _e3_world()

    def query(self, text):
        return self.workload.query if text == "paper" else parse_pattern(text)

    def session(self, push_mode):
        engine, _ = _engine(self.workload, push_mode)
        return engine, self.workload.make_document()

    def fresh(self, query):
        engine, document = self.session(PushMode.NONE)
        return engine.evaluate(query, document).value_rows()


class _BindingsPush:
    """Queries by index on the factory's ``bindings-push`` regime, under
    its own engine config."""

    def __init__(self):
        from repro.workloads.factory import regime

        self.workload = regime("bindings-push")

    def query(self, index):
        return self.workload.query_for(index)

    def session(self, push_mode):
        engine = LazyQueryEvaluator(
            self.workload.make_bus(),
            config=self.workload.engine_config(push_mode=push_mode),
        )
        return engine, self.workload.make_document(0)

    def fresh(self, query):
        outcome, _ = self.workload.evaluate(query, 0, push_mode=PushMode.NONE)
        return outcome.value_rows()


RESTAURANT_NAMES = "/hotels/hotel/nearby//restaurant[name=$X]"
RESTAURANT_ADDRESSES = "/hotels/hotel/nearby//restaurant[address=$Y]"

#: (world, query sequence, push modes under which the sequence fails today)
SEQUENCES = {
    "e3-paper-then-names": (_E3, ["paper", RESTAURANT_NAMES], PUSHING),
    # The names query's restaurant calls sit where more than one of its
    # relevance queries reaches, so they go unpushed: nothing is pruned.
    "e3-names-then-paper": (_E3, [RESTAURANT_NAMES, "paper"], ()),
    "e3-paper-names-addresses": (
        _E3,
        ["paper", RESTAURANT_NAMES, RESTAURANT_ADDRESSES],
        PUSHING,
    ),
    # The regime's queries reach disjoint calls: they hold today.
    "factory-0-1": (_BindingsPush, [0, 1], ()),
    "factory-1-2-3": (_BindingsPush, [1, 2, 3], ()),
}


def _sequence_cases():
    for name, (_, _, failing) in SEQUENCES.items():
        for mode in [PushMode.NONE] + PUSHING:
            marks = (
                [pytest.mark.xfail(strict=True, reason="ROADMAP item 1")]
                if mode in failing
                else []
            )
            yield pytest.param(name, mode, marks=marks, id=f"{name}-{mode.value}")


@pytest.mark.parametrize("sequence, push_mode", list(_sequence_cases()))
def test_a_query_sequence_reads_what_a_fresh_document_reads(sequence, push_mode):
    world_of, keys, _ = SEQUENCES[sequence]
    world = world_of()
    queries = [world.query(key) for key in keys]
    expected = [world.fresh(query) for query in queries]
    assert any(expected)
    engine, document = world.session(push_mode)
    got = [engine.evaluate(query, document).value_rows() for query in queries]
    assert got == expected


@pytest.mark.parametrize(
    "push_mode",
    [PushMode.NONE]
    + [
        pytest.param(
            mode, marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
        )
        for mode in PUSHING
    ],
    ids=lambda mode: mode.value,
)
def test_two_standing_shapes_on_one_document_read_what_fresh_ones_do(push_mode):
    """A ``QueryServer`` holding two shapes over the same restaurant
    calls: each subscription's rows are what ``push_mode=none`` reads
    on a fresh document."""
    from repro.serve import QueryServer

    world = _E3()
    queries = [world.query("paper"), world.query(RESTAURANT_NAMES)]
    expected = [world.fresh(query) for query in queries]
    server = QueryServer(
        world.workload.make_bus(),
        config=EngineConfig.serving(push_mode=push_mode),
    )
    document = world.workload.make_document()
    subscriptions = [server.subscribe(query, document) for query in queries]
    server.run_round()
    assert [set(sub.rows) for sub in subscriptions] == expected
    server.close()


# -- ROADMAP item 9: a fault is not a fact about the document -----------------
#
# Under ``FREEZE`` a failed call is marked ``FROZEN`` on the shared
# document, and nothing clears the mark: a service that blipped once
# loses its rows for every later reader.  The world the ROADMAP
# measured: ``/r[f(), g(), x/"0"]``, ``f`` fails once and then answers
# ``x/"1"``, ``g`` answers ``x/"2"``, one attempt per call.

ITEM_9 = pytest.mark.xfail(strict=True, reason="ROADMAP item 9")
BLIP_QUERY = "/r/x/$v"


def _blip_bus():
    from repro.services.catalog import FailingService

    return ServiceBus(
        ServiceRegistry(
            [
                FailingService("f", StaticService("f", [E("x", V("1"))])),
                StaticService("g", [E("x", V("2"))]),
            ]
        )
    )


def _blip_document():
    return build_document(E("r", C("f"), C("g"), E("x", V("0"))))


@ITEM_9
def test_a_second_evaluation_reads_what_a_fresh_document_reads():
    engine = LazyQueryEvaluator(
        _blip_bus(), config=EngineConfig(fault_policy="freeze")
    )
    query = parse_pattern(BLIP_QUERY)
    document = _blip_document()
    assert engine.evaluate(query, document).value_rows() == {("0",), ("2",)}
    fresh = engine.evaluate(query, _blip_document()).value_rows()
    assert fresh == {("0",), ("1",), ("2",)}
    assert engine.evaluate(query, document).value_rows() == fresh


@ITEM_9
def test_a_served_round_after_an_insert_reads_what_a_fresh_copy_reads():
    from repro.serve import QueryServer

    server = QueryServer(_blip_bus(), config=EngineConfig.serving())
    document = _blip_document()
    subscription = server.subscribe(BLIP_QUERY, document)
    assert subscription.rows == {("0",), ("2",)}

    def insert(into):
        into.insert_subtree(into.root, E("x", V("9")))

    insert(document)
    server.run_round()
    copy = _blip_document()
    insert(copy)
    fresh = server.subscribe(BLIP_QUERY, copy).rows
    assert fresh == {("0",), ("1",), ("2",), ("9",)}
    assert subscription.rows == fresh
    server.close()


# The property item 9's fix must turn green: over factory worlds (each
# fault plan) and the blip world, push modes and typing, a sequence of
# one-shot evaluations, subscriptions and served rounds on one document
# — parsed from a kept text, so its stores seed from the text's
# pristine rows — reads, once faults stop, what each query reads on a
# fresh document.  The pinned blip example fails today.

SEQUENCE_REGIMES = ("baseline", "deep-recursion", "bindings-push", "multi-root-standing")


class _FaultWorld:
    """A world as a text, its queries, a registry whose services fault
    under ``fault_plan`` and one whose services never do."""

    def __init__(self, name: str, seed: int, fault_plan: str) -> None:
        from repro.workloads.factory import GeneratedWorkload, fuzz_spec

        if name == "blip":
            self.text = serialize_document(_blip_document())
            self.queries = [parse_pattern(BLIP_QUERY)]
            self._faulty = _blip_bus().registry
            self._healthy = ServiceRegistry(
                [
                    StaticService("f", [E("x", V("1"))]),
                    StaticService("g", [E("x", V("2"))]),
                ]
            )
            return
        spec = dataclasses.replace(fuzz_spec(name, seed), fault_plan=fault_plan)
        workload = GeneratedWorkload(spec)
        self.text = serialize_document(workload.make_document(0))
        self.queries = workload.queries()
        self._faulty = workload.registry()
        self._healthy = GeneratedWorkload(
            dataclasses.replace(spec, fault_plan="none")
        ).registry()

    def faulty(self) -> ServiceBus:
        return ServiceBus(self._faulty)

    def healthy(self) -> ServiceBus:
        return ServiceBus(self._healthy)


_SEQUENCE_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("evaluate"), st.integers(0, 2)),
        st.tuples(st.just("subscribe"), st.integers(0, 2)),
        st.tuples(st.just("round"), st.just(0)),
    ),
    min_size=1,
    max_size=5,
)


@ITEM_9
@settings(max_examples=30, deadline=None)
@given(
    world=st.sampled_from(("blip",) + SEQUENCE_REGIMES),
    seed=st.integers(0, 50),
    fault_plan=st.sampled_from(("none", "transient", "permanent")),
    push_mode=st.sampled_from(list(PushMode)),
    typing=st.sampled_from(("none", "lenient")),
    steps=_SEQUENCE_STEPS,
)
@example(
    world="blip",
    seed=0,
    fault_plan="permanent",
    push_mode=PushMode.NONE,
    typing="none",
    steps=[("evaluate", 0)],
)
def test_a_sequence_on_one_document_reads_what_fresh_documents_read(
    world, seed, fault_plan, push_mode, typing, steps
):
    from repro.axml.xmlio import parse_document
    from repro.serve import QueryServer

    world = _FaultWorld(world, seed, fault_plan)
    parse_document(world.text)  # kept: every later parse is warm
    config = EngineConfig(
        push_mode=push_mode, typing=typing, fault_policy="freeze"
    )
    document = parse_document(world.text)
    queries = world.queries
    bus = world.faulty()
    engine = LazyQueryEvaluator(bus, config=config)
    server = QueryServer(bus, config=EngineConfig.serving(push_mode=push_mode, typing=typing))
    read = set()
    for kind, index in steps:
        query = queries[index % len(queries)]
        read.add(index % len(queries))
        if kind == "evaluate":
            engine.evaluate(query, document)
        elif kind == "subscribe":
            server.subscribe(query, document)
        else:
            server.run_round()
    server.close()
    # Faults stop: each query read again on the shared document, and on
    # a fresh one, by a fault-free engine that pushes nothing.
    plain = EngineConfig(typing=typing)
    for index in sorted(read):
        query = queries[index]
        fresh = LazyQueryEvaluator(world.healthy(), config=plain).evaluate(
            query, parse_document(world.text)
        )
        again = LazyQueryEvaluator(world.healthy(), config=plain).evaluate(
            query, document
        )
        assert again.value_rows() == fresh.value_rows()


# -- pushed replies on the plan equal the object walk --------------------------


class _Given(Service):
    """Answers with the very forest it was given (so verdicts compare by
    identity)."""

    def __init__(self, forest):
        super().__init__("given")
        self.forest = forest

    def produce(self, parameters):
        return self.forest


@st.composite
def _data_trees(draw, depth=3):
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        return value(draw(st.sampled_from(VALUES)))
    node = element(draw(st.sampled_from(LABELS)))
    for child in draw(st.lists(_data_trees(depth=depth - 1), max_size=3)):
        node.append(child)
    return node


@st.composite
def _pushed_patterns(draw):
    """A subquery as pushed over a call: a data root (an element, ``*``
    or a variable) over extended subtrees — ORs, wildcards, variables
    that must join, descendant conditions — with one or two results."""
    kind = draw(st.sampled_from(["element", "star", "variable"]))
    if kind == "element":
        root = PatternNode(PatternKind.ELEMENT, draw(st.sampled_from(LABELS)))
    elif kind == "star":
        root = PatternNode(PatternKind.STAR, "*")
    else:
        root = PatternNode(PatternKind.VARIABLE, draw(st.sampled_from(VARIABLES)))
    for child in draw(st.lists(pattern_trees(kinds=EXTENDED), max_size=2)):
        root.add_child(child)
    nodes = [n for n in root.iter_subtree() if not n.is_or and not n.is_function]
    for node in draw(
        st.lists(st.sampled_from(nodes), min_size=1, max_size=2, unique_by=id)
    ):
        node.is_result = True
    return TreePattern(root, name="pushed")


def _untouched(forest):
    return all(
        tree.parent is None
        and all(node.node_id is None for node in tree.iter_subtree())
        for tree in forest
    )


@settings(max_examples=150, deadline=None)
@given(
    forest=st.lists(_data_trees(), max_size=5),
    pushed=_pushed_patterns(),
    anchor_edge=st.sampled_from([EdgeKind.CHILD, EdgeKind.DESCENDANT]),
)
def test_pushed_replies_on_the_plan_equal_the_object_walk(
    forest, pushed, anchor_edge
):
    """A source answers a pushed subquery by the plan: ``FILTERED``
    keeps the trees the walk embeds in, ``BINDINGS`` ships the walk's
    binding rows, and neither attaches nor numbers a reply tree."""
    service = _Given(forest)
    walk = WalkMatcher(pushed)
    filtered = service.invoke([], pushed, PushMode.FILTERED, anchor_edge)
    assert [id(tree) for tree in filtered.forest] == [
        id(tree)
        for tree in forest
        if walk.evaluate_forest([tree], anchor_edge=anchor_edge)
    ]
    bindings = service.invoke([], pushed, PushMode.BINDINGS, anchor_edge)
    rows = walk.evaluate_forest(forest, anchor_edge=anchor_edge)
    assert [row.values for row in bindings.bindings] == list(
        {row.bindings: None for row in rows}
    )
    assert _untouched(forest)
    # A tree with a call in it cannot be ruled out yet: kept as is.
    intensional = element("a", call("f"))
    kept = _Given([*forest, intensional]).invoke(
        [], pushed, PushMode.FILTERED, anchor_edge
    )
    assert list(map(id, kept.forest)) == [*map(id, filtered.forest), id(intensional)]
    assert _untouched([*forest, intensional])
