"""The arena document store: columns, splices, scans, twins.

Contract under test: the struct-of-arrays mirror
(:class:`repro.axml.arena.DocumentArena`) is an *observer* of the
object tree — never the source of truth — so every column answer
(descendant scans, existence probes, whole plans) must be
indistinguishable from the object walk it replaces, across
construction, free-list splices, and whole factory mutation traces.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro import kept
from repro.axml.arena import (
    KIND_ELEMENT,
    KIND_FREE,
    KIND_FUNCTION,
    KIND_VALUE,
    DocumentArena,
)
from repro.axml.builder import C, E, V, build_document
from repro.axml.node import NodeKind
from repro.axml.xmlio import parse_document, serialize_document
from repro.lazy.config import EngineConfig, Strategy
from repro.lazy.continuous import ContinuousQuery
from repro.lazy.engine import LazyQueryEvaluator
from repro.pattern.columnmatch import ColumnMatcher, compile_plan
from repro.pattern.match import (
    MatchCounter,
    Matcher,
    MatchSet,
    snapshot_result,
)
from repro.pattern.parse import parse_pattern
from repro.services.catalog import TableService
from repro.services.registry import ServiceBus, ServiceRegistry
from repro.workloads.factory import REGIMES, fuzz_spec, generate, regime
from repro.workloads.hotels import (
    HotelsWorkloadParams,
    build_hotels_workload,
    paper_query,
)

from .references import WalkMatcher, object_walk


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
            C("getHotels", V("NY")),
        )
    )


# ---------------------------------------------------------------------------
# Columns and views
# ---------------------------------------------------------------------------


def test_build_mirrors_every_node():
    document = sample_document()
    arena = DocumentArena(document)
    assert arena.live_nodes == document.root.subtree_size()
    assert arena.capacity == arena.live_nodes
    assert arena.consistency_errors() == []
    for node in document.iter_nodes():
        slot = arena.slot_for(node)
        assert slot is not None
        assert arena.node_at(slot) is node
        assert arena.node_id[slot] == node.node_id
        children = [arena.node_at(c) for c in arena.child_slots(slot)]
        assert children == node.children


def test_node_at_a_free_slot_raises_key_error():
    """The one slot -> node reader refuses a free slot (an ``assert``
    would vanish under ``python -O``), on a built arena and on one a
    lazy load copied, whose unmade slots it makes instead."""
    text = serialize_document(sample_document())
    for document in (sample_document(), parse_document(text), parse_document(text)):
        arena = document.arena
        leaf = document.root.children[-1]
        while leaf.children:
            leaf = leaf.children[-1]
        slot = arena.slot_for(leaf)
        document.remove_subtree(leaf)
        assert arena.kind[slot] == KIND_FREE
        with pytest.raises(KeyError):
            arena.node_at(slot)
    warm = parse_document(text)
    arena = warm.arena
    unmade = [s for s, node in enumerate(arena._node_at) if node is None]
    assert unmade and arena.node_at(unmade[0]).node_id == arena.node_id[unmade[0]]


def test_a_lazily_loaded_arena_makes_its_calls_as_the_sweep_reaches_them():
    """An arena a lazy load copied lists the calls an eager document's
    arena lists; a sweep stopped at its first call makes only the scope
    that holds it."""
    text = serialize_document(sample_document())
    kept.texts.take(text)
    cold = parse_document(text)
    warm = parse_document(text)
    first = next(warm.arena.function_nodes())
    hotel = warm.root.children[0]
    assert first.label == "getRestos" and first.parent.parent is hotel
    made = [node for node in warm.arena._node_at if node is not None]
    assert len(made) == 1 + 3 + hotel.subtree_size() - 1
    assert [(c.node_id, c.label) for c in warm.arena.function_nodes()] == [
        (c.node_id, c.label) for c in cold.arena.function_nodes()
    ]


def test_kind_and_service_columns_screen_node_classes():
    document = sample_document()
    arena = DocumentArena(document)
    for node in document.iter_nodes():
        slot = arena.slot_for(node)
        expected = {
            NodeKind.ELEMENT: KIND_ELEMENT,
            NodeKind.VALUE: KIND_VALUE,
            NodeKind.FUNCTION: KIND_FUNCTION,
        }[node.kind]
        assert arena.kind[slot] == expected
        if node.is_function:
            assert arena.service[slot] == arena.label_id(node.label)
        else:
            assert arena.service[slot] == -1


def test_label_interning_is_append_only():
    document = sample_document()
    arena = DocumentArena(document)
    assert arena.label_id("no-such-label") is None
    lid = arena.label_id("hotel")
    assert lid is not None and arena.labels[lid] == "hotel"
    # Re-interning an existing label keeps its id.
    assert arena.intern("hotel") == lid
    # Removing the last carrier does not retire the id.
    hotel = document.root.children[0]
    document.remove_subtree(hotel)
    document.remove_subtree(document.root.children[0])
    assert arena.label_id("hotel") == lid


def test_slot_for_is_identity_checked():
    document = sample_document()
    twin = sample_document()
    arena = DocumentArena(document)
    # Same node ids, different document: never aliases a slot.
    for node in twin.iter_nodes():
        assert arena.slot_for(node) is None


# ---------------------------------------------------------------------------
# Splices and the free list
# ---------------------------------------------------------------------------


def test_remove_subtree_frees_slots_and_insert_recycles_them():
    document = sample_document()
    arena = DocumentArena(document)
    capacity = arena.capacity
    hotel = document.root.children[0]
    freed = hotel.subtree_size()
    document.remove_subtree(hotel)
    assert arena.live_nodes == document.root.subtree_size()
    assert arena.capacity == capacity  # slots freed, not dropped
    assert arena.slot_for(hotel) is None  # stale node no longer aliases
    assert arena.consistency_errors() == []

    # Re-inserting a smaller forest reuses freed slots: no growth.
    document.insert_subtree(document.root, E("hotel", E("name", V("Hilton"))))
    assert arena.capacity == capacity
    assert arena.consistency_errors() == []
    # A forest larger than the remaining free list grows the tail.
    big = E("annex", *[E("room", V(str(k))) for k in range(freed)])
    document.insert_subtree(document.root, big)
    assert arena.capacity > capacity
    assert arena.consistency_errors() == []


def test_replace_call_splices_through_the_free_list():
    document = sample_document()
    arena = DocumentArena(document)
    call_node = next(
        n for n in document.function_nodes() if n.label == "getHotels"
    )
    forest = [E("hotel", E("name", V("Plaza"))), C("getMore", V("NY"))]
    document.replace_call(call_node, forest)
    assert arena.splices_applied == 1
    assert arena.live_nodes == document.root.subtree_size()
    assert arena.consistency_errors() == []
    # Sibling chain reflects the post-splice child order.
    root_children = [
        arena.node_at(c) for c in arena.child_slots(arena.root_slot)
    ]
    assert root_children == document.root.children


def test_scope_call_sets_are_derived_on_first_read_and_kept_by_splices():
    document = sample_document()
    arena = DocumentArena(document)
    hotel, _, at_root = document.root.children
    slot = arena.slot_for
    assert arena._scope_calls == {}  # nothing derived at build
    calls, read = arena.scope_calls(slot(hotel))
    assert calls == {slot(document.function_nodes()[0])}
    assert read == hotel.subtree_size()
    assert arena.scope_calls(slot(hotel)) == (calls, 0)  # kept
    arena.scope_calls(slot(at_root))
    # A reply inside the scope: its call leaves, the forest's calls join
    # (parameters included), and the freed slot is reused.
    (restos,) = (c for c in document.function_nodes() if c.label == "getRestos")
    document.replace_call(
        restos, [E("restaurant", C("getRating", C("getName"))), C("more")]
    )
    assert calls == {
        slot(c) for c in hotel.iter_subtree() if c.is_function
    } and len(calls) == 3
    # A reply right below the root drops its scope's set with its slot.
    document.replace_call(at_root, [E("hotel", C("getRooms"))])
    assert slot(at_root) is None and len(arena._scope_calls) == 1
    assert arena.consistency_errors() == []
    # The self-check holds every kept set to a fresh derivation ...
    calls.add(slot(document.root.children[1]))
    assert arena.consistency_errors() == [
        f"slot {slot(hotel)}: call set differs from a fresh derivation"
    ]
    calls.clear()
    calls.update(arena._calls_below(slot(hotel))[0])
    # ... and reports a set kept for a slot that is no longer a scope.
    name = hotel.children[0]
    arena._scope_calls[slot(name)] = set()
    assert arena.consistency_errors() == [
        f"slot {slot(name)}: call set kept for a slot that is not a live "
        "child of the root"
    ]


def test_insert_at_position_relinks_the_sibling_chain():
    document = sample_document()
    arena = DocumentArena(document)
    document.insert_subtree(document.root, E("first"), position=0)
    children = [arena.node_at(c) for c in arena.child_slots(arena.root_slot)]
    assert children == document.root.children
    assert children[0].label == "first"
    assert arena.consistency_errors() == []


def test_detach_stops_mirroring():
    document = sample_document()
    arena = DocumentArena(document)
    arena.detach()
    document.remove_subtree(document.root.children[0])
    # The arena is stale by contract; the document must not notify it.
    assert arena.splices_applied == 0


# ---------------------------------------------------------------------------
# The bulk build: fresh loads and mutated documents
# ---------------------------------------------------------------------------


def test_a_fresh_load_puts_every_node_in_the_slot_of_its_id():
    document = parse_document(serialize_document(sample_document()))
    arena = document.arena
    assert arena.capacity == arena.live_nodes == document.live_nodes
    assert list(arena.node_id) == list(range(document.live_nodes))
    assert [arena.slot_for(n) for n in document.iter_nodes()] == [
        n.node_id for n in document.iter_nodes()
    ]
    assert arena.consistency_errors() == []


#: Compiled plans over any factory document: every call, every data
#: node, every value bound.
BULK_QUERIES = ["/root//()", "/root//*", "/root//$v"]


@settings(max_examples=12, deadline=None)
@given(
    name=st.sampled_from(sorted(REGIMES)),
    seed=st.integers(min_value=0, max_value=40),
)
def test_the_bulk_build_of_a_mutated_document_mirrors_it(name, seed):
    """An arena first built after replies, inserts and removals — ids
    no longer contiguous, id-map order no longer document order — is
    consistent, finds the document's calls, and its column plans return
    the object walk's rows (by identity: node-id order, in which the
    plan enumerates descendants, is no longer document order)."""
    gen = generate(fuzz_spec(name, seed=seed))
    document = gen.make_document(0)
    if document._arena is not None:
        document._arena.detach()
    rng = random.Random(seed)
    early = E("early", V("gone"))
    document.insert_subtree(document.root, early, position=0)
    for step in range(6):
        calls = document.function_nodes()
        if calls and step % 2 == 0:
            call = rng.choice(calls)
            reply = E("reply", V(str(step)), C(call.label, V("again")))
            document.replace_call(call, [reply, V("tail")])
        else:
            gen.apply_mutation(str(step), (document,))
    if document.contains(early):
        document.remove_subtree(early)
    assert document._arena is None
    assert document.live_nodes < document._next_id

    arena = document.arena
    assert arena.consistency_errors() == []
    assert arena.capacity == arena.live_nodes == document.live_nodes
    assert {id(n) for n in arena.function_nodes()} == {
        id(n) for n in document.function_nodes()
    }
    for text in BULK_QUERIES:
        query = parse_pattern(text)
        counter = MatchCounter()
        column = Matcher(query, counter=counter).evaluate(document)
        walked = WalkMatcher(query).evaluate(document)
        assert row_keys(column) == row_keys(walked), text
        assert counter.column_rows == len(column), text


def test_the_build_is_one_pass_over_the_id_map(monkeypatch):
    """The splice path is not the build path: the build neither walks
    the tree nor fills slots through ``_add_forest``."""

    def refuse(*args):
        raise AssertionError("the build walked the tree")

    document = sample_document()
    monkeypatch.setattr(DocumentArena, "_add_forest", refuse)
    monkeypatch.setattr(type(document.root), "iter_subtree", refuse)
    arena = DocumentArena(document)
    monkeypatch.undo()
    assert arena.consistency_errors() == []


# ---------------------------------------------------------------------------
# A splice that raised: the arena is dropped, never trusted
# ---------------------------------------------------------------------------

LOADED = "<r><a><b>1</b></a><c/></r>"


@pytest.fixture
def failing_splice(monkeypatch):
    """The arena's next ``_add_forest`` raises, once."""
    add_forest = DocumentArena._add_forest
    armed = [True]

    def add_forest_once(self, roots, parent_slot):
        if armed and armed.pop():
            raise RuntimeError("injected arena fault")
        return add_forest(self, roots, parent_slot)

    monkeypatch.setattr(DocumentArena, "_add_forest", add_forest_once)
    return armed


def naive_rows(text, document, services=()):
    """The naive oracle's rows on a copy, matched on the object walk."""
    with object_walk():
        return repro.evaluate(
            text, document.copy(), services=list(services), strategy="naive"
        ).value_rows()


def oracle_rows(gen, query):
    """The naive oracle's rows, matched on the object walk."""
    with object_walk():
        return gen.oracle_rows(query)


def test_an_arena_whose_splice_raised_is_dropped_and_rebuilt(failing_splice):
    document = parse_document(LOADED)
    arena = document.arena
    c = document.root.children[1]
    with pytest.raises(RuntimeError, match="injected"):
        document.insert_subtree(c, E("x", V("y")))
    assert not failing_splice
    assert arena not in document._observers
    fresh = document.arena
    assert fresh is not arena and fresh.consistency_errors() == []
    outcome = repro.evaluate("/r/c/x/$v", document, services=[])
    assert set(outcome.value_rows()) == {("y",)}


def test_a_failed_reply_splice_leaves_the_next_evaluation_right(failing_splice):
    """The fault hits the engine's own splice of a reply: the evaluation
    raises, and the next one reads a fresh arena."""
    document = parse_document(
        '<r xmlns:axml="http://activexml.net/2004/axml">'
        '<c><axml:call service="f">k</axml:call></c><d/></r>'
    )
    services = [TableService("f", {}, default=[E("x", V("y"))])]
    text = "/r/c/x/$v"
    with pytest.raises(RuntimeError, match="injected"):
        repro.evaluate(text, document, services=services)
    assert not failing_splice
    document.insert_subtree(document.root.children[1], E("x", V("z")))
    assert document.arena.consistency_errors() == []
    expected = naive_rows(text, document, services)
    assert expected == {("y",)}
    again = repro.evaluate(text, document, services=services)
    assert set(again.value_rows()) == expected


def test_a_standing_query_reads_the_fresh_arena_after_a_fault(failing_splice):
    document = parse_document(LOADED)
    engine = LazyQueryEvaluator(
        ServiceBus(ServiceRegistry([])),
        config=EngineConfig(),
    )
    standing = ContinuousQuery(engine, parse_pattern("/r/c/x/$v"), document)
    assert standing.value_rows() == set()
    with pytest.raises(RuntimeError, match="injected"):
        document.insert_subtree(document.root.children[1], E("x", V("y")))
    standing.refresh()
    assert standing.value_rows() == naive_rows("/r/c/x/$v", document)
    assert standing.value_rows() == {("y",)}
    standing.close()


def test_a_subscription_reads_the_fresh_arena_after_a_fault(failing_splice):
    document = parse_document(LOADED)
    sub = repro.subscribe("/r/c/x/$v", document, services=[])
    assert sub.rows == frozenset()
    with pytest.raises(RuntimeError, match="injected"):
        document.insert_subtree(document.root.children[1], E("x", V("y")))
    sub.refresh()
    assert sub.rows == naive_rows("/r/c/x/$v", document) == {("y",)}
    sub.cancel()


# ---------------------------------------------------------------------------
# Column scans vs the object-walk oracle
# ---------------------------------------------------------------------------


#: The oracle's own code for "element or value, never function".
ANY_DATA = -2


def walk_descendants(roots, want_kind, want_labels):
    out = []
    stack = list(roots)
    while stack:
        node = stack.pop()
        code = {
            NodeKind.ELEMENT: KIND_ELEMENT,
            NodeKind.VALUE: KIND_VALUE,
            NodeKind.FUNCTION: KIND_FUNCTION,
        }[node.kind]
        kind_ok = code == want_kind or (
            want_kind == ANY_DATA and code != KIND_FUNCTION
        )
        if kind_ok and (want_labels is None or node.label in want_labels):
            out.append(node.node_id)
        if not node.is_function:  # parameters are opaque
            stack.extend(node.children)
    return sorted(out)


def plan_descendants(document, arena, want_kind, labels):
    """Node ids the column plan's descendant scans find below the root
    for one node class: a ``/root//<test>`` plan per wanted label (any
    label: one wildcard test), run wholly in slot space."""
    if want_kind == KIND_FUNCTION:
        tests = ["()"] if labels is None else [f"{n}()" for n in labels]
    elif labels is None:
        tests = ["*"]
    elif want_kind == KIND_VALUE:
        tests = [f'"{label}"' for label in labels]
    else:
        tests = list(labels)
    assert document.arena is arena
    counter = MatchCounter()
    found = set()
    rows_seen = 0
    for test in tests:
        matcher = Matcher(parse_pattern(f"/root//{test}"), counter=counter)
        rows = matcher.evaluate(document)
        rows_seen += len(rows)
        found.update(key for (key,) in map(MatchSet.row_key, rows))
    assert counter.column_rows == rows_seen
    return sorted(found)


@pytest.mark.parametrize(
    "want_kind, labels",
    [
        (KIND_ELEMENT, {"hotel"}),
        (KIND_ELEMENT, {"name", "rating"}),
        (KIND_VALUE, {"5"}),
        (KIND_FUNCTION, None),
        (KIND_FUNCTION, {"getRestos"}),
        (ANY_DATA, None),
        (KIND_ELEMENT, {"absent"}),
    ],
)
def test_scan_descendants_agrees_with_the_object_walk(want_kind, labels):
    document = sample_document()
    arena = document.arena
    assert plan_descendants(
        document, arena, want_kind, labels
    ) == walk_descendants(document.root.children, want_kind, labels)


def test_scan_descendants_agrees_after_splices():
    document = sample_document()
    arena = document.arena  # mirrored before the splices
    call_node = document.function_nodes()[0]
    document.replace_call(call_node, [E("hotel", E("name", V("Plaza")))])
    document.remove_subtree(document.root.children[0])
    assert plan_descendants(
        document, arena, KIND_ELEMENT, {"hotel"}
    ) == walk_descendants(document.root.children, KIND_ELEMENT, {"hotel"})


# ---------------------------------------------------------------------------
# Matcher equivalence: arena fast paths vs the object walk
# ---------------------------------------------------------------------------

QUERIES = [
    '/root/hotel/name/"Ritz"',
    "/root//name/$x",
    "/root//getRestos()",
    "/root/*//$v",
]


def row_keys(match_set):
    return sorted(MatchSet.row_key(row) for row in match_set)


@pytest.mark.parametrize("text", QUERIES)
def test_group_pass_rows_match_with_and_without_the_arena(text):
    document = sample_document()
    query = parse_pattern(text)
    plain = WalkMatcher(query).evaluate(document)
    fast = Matcher(query).evaluate(document)
    assert row_keys(fast) == row_keys(plain)


def test_group_pass_rows_match_after_splices():
    document = sample_document()
    document.arena  # mirrored before the splices
    document.replace_call(
        document.function_nodes()[0],
        [E("hotel", E("name", V("Ritz")), E("rating", V("3")))],
    )
    document.remove_subtree(document.root.children[1])
    for text in QUERIES:
        query = parse_pattern(text)
        plain = WalkMatcher(query).evaluate(document)
        fast = Matcher(query).evaluate(document)
        assert row_keys(fast) == row_keys(plain), text


# ---------------------------------------------------------------------------
# Engine integration: config-level equivalence on factory regimes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "name", ["baseline", "deep-recursion", "multi-root-standing"]
)
def test_engine_rows_and_logs_match_under_arena(name):
    gen = regime(name)
    query = gen.query_for(0)
    with object_walk():
        base, base_log = gen.evaluate(query)
    assert base.metrics.column_rows == 0  # the walk ran
    out, log = gen.evaluate(query)
    assert out.metrics.arena_nodes > 0 and out.metrics.column_rows > 0
    assert set(out.value_rows()) == oracle_rows(gen, query)
    assert sorted(out.value_rows()) == sorted(base.value_rows())
    assert log == base_log


def test_engine_reports_arena_metrics():
    gen = regime("deep-recursion")
    out, _ = gen.evaluate(gen.query_for(0))
    assert out.metrics.arena_nodes > 0
    assert out.metrics.arena_bytes > 0


# ---------------------------------------------------------------------------
# Lifecycle: the arena is the document's, built once, never for NAIVE
# ---------------------------------------------------------------------------


@pytest.fixture
def arena_builds(monkeypatch):
    """Documents whose arena was built, one entry per build."""
    builds = []
    build = DocumentArena._build

    def counting(self):
        builds.append(self.document)
        build(self)

    monkeypatch.setattr(DocumentArena, "_build", counting)
    return builds


def test_document_builds_its_arena_once_and_keeps_it_spliced(arena_builds):
    document = sample_document()
    assert arena_builds == []  # nothing until somebody asks
    arena = document.arena
    assert document.arena is arena and arena_builds == [document]
    document.replace_call(
        document.function_nodes()[0], [E("restaurant", V("Jo Mama"))]
    )
    assert arena.consistency_errors() == []
    assert arena.live_nodes == document.live_nodes == document.stats().total_nodes
    assert document.copy().arena is not arena
    # Detaching the document's own mirror forgets it: the next reader
    # gets a fresh, current one instead of a stale one.
    arena.detach()
    document.remove_subtree(document.root.children[1])
    assert document.arena is not arena
    assert document.arena.consistency_errors() == []
    assert [d for d in arena_builds if d is document] == [document] * 2


def test_refresh_engines_neither_rebuild_nor_detach_the_arena(arena_builds):
    gen = regime("baseline")
    document = gen.make_document(0)
    engine = LazyQueryEvaluator(
        gen.make_bus(),
        config=gen.engine_config(),
    )
    standing = ContinuousQuery(engine, gen.query_for(0), document)
    arena = document.arena
    for step in range(4):
        gen.apply_mutation(str(step), (document,))
        standing.refresh()
        assert document.arena is arena
        assert arena in document._observers
        assert arena.consistency_errors() == []
    standing.close()
    assert arena_builds == [document]
    assert arena.live_nodes == document.live_nodes


def test_a_naive_standing_query_builds_its_arena_once(arena_builds):
    """``NAIVE`` matches on the plan too: a standing query's first read
    builds the document's arena, and splices keep it from then on."""
    gen = regime("baseline")
    document = gen.make_document(0)
    engine = LazyQueryEvaluator(
        gen.make_bus(),
        config=gen.engine_config(strategy=Strategy.NAIVE),
    )
    standing = ContinuousQuery(engine, gen.query_for(0), document)
    gen.apply_mutation("0", (document,))
    outcome = standing.refresh()
    standing.close()
    assert arena_builds == [document]
    assert outcome.metrics.arena_nodes == document.live_nodes
    assert document.arena.consistency_errors() == []


#: E1's world at ten hotels and E3's at five restaurants per hotel, with
#: what ``NAIVE`` read there when it matched on the object walk: rows,
#: calls invoked, bytes sent and received.
NAIVE_WORLDS = {
    "e1": (
        HotelsWorkloadParams(
            n_hotels=10, extra_hotels_via_service=2, target_hotel_count=3
        ),
        (3, 32, 430, 6099),
    ),
    "e3": (
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
        ),
        (19, 25, 318, 9016),
    ),
}


@pytest.mark.parametrize("world", sorted(NAIVE_WORLDS))
def test_a_naive_evaluation_builds_its_arena_once_on_the_completed_document(
    arena_builds, world
):
    """One-shot ``NAIVE`` materialises first and reads ``document.arena``
    only at its final match: one bulk build and no splice upkeep — and
    it reads, invokes and ships what it did on the object walk."""
    params, expected = NAIVE_WORLDS[world]
    workload = build_hotels_workload(params)

    def run():
        engine = LazyQueryEvaluator(
            workload.make_bus(),
            schema=workload.schema,
            config=EngineConfig(strategy=Strategy.NAIVE),
        )
        document = workload.make_document()
        return engine.evaluate(workload.query, document), document

    with object_walk():
        walked, _ = run()
    arena_builds.clear()
    outcome, document = run()
    assert arena_builds == [document]
    assert document.arena.splices_applied == 0
    metrics = outcome.metrics
    assert metrics.arena_nodes == document.live_nodes > 0
    assert metrics.column_rows == len(outcome.rows)
    assert outcome.value_rows() == walked.value_rows()
    for got in (outcome, walked):
        m = got.metrics
        assert (
            len(got.rows), m.calls_invoked, m.bytes_sent, m.bytes_received
        ) == expected


# ---------------------------------------------------------------------------
# Arena existence probes: the column screen is the whole leaf test
# ---------------------------------------------------------------------------


def existence_probe(text):
    """A compiled plan over the sample document, its first step below
    the root, and the root's slot — the pieces of one semijoin probe."""
    document = sample_document()
    arena = DocumentArena(document)
    plan = compile_plan(parse_pattern(text))
    matcher = ColumnMatcher(plan, arena, MatchCounter())
    matcher.run(arena.root_slot)  # binds the columns, resolves filters
    matcher._can_memo.clear()
    matcher._below_memo.clear()
    return matcher, plan.root.children[0], arena.root_slot


def test_arena_exists_below_skips_can_for_leaf_steps():
    """The slot filter is exactly the node test of a leaf step, so a
    *leaf* probe needs no per-survivor ``_can`` re-judgement — pinned
    by the can-memo staying empty."""
    matcher, name_step, root_slot = existence_probe("/root//name")
    assert not name_step.children  # a leaf condition
    assert matcher._exists_below(name_step, root_slot)
    assert matcher._can_memo == {}


def test_arena_exists_below_still_judges_interior_steps():
    """Interior probe targets carry child conditions the slot filter
    cannot see — those survivors must still go through ``_can``."""
    matcher, hotel_step, root_slot = existence_probe("/root//hotel/name")
    assert hotel_step.children  # interior: has the name condition
    assert matcher._exists_below(hotel_step, root_slot)
    assert matcher._can_memo


# ---------------------------------------------------------------------------
# Column matching: slot-space passes vs the object walk
# ---------------------------------------------------------------------------


def column_row_ids(match_set):
    return [
        (tuple(id(n) for n in row.nodes), row.bindings) for row in match_set
    ]


@pytest.mark.parametrize("text", QUERIES)
def test_column_match_rows_and_bindings_pin_to_the_object_walk(text):
    document = sample_document()
    query = parse_pattern(text)
    counter = MatchCounter()
    plain = WalkMatcher(query).evaluate(document)
    column = Matcher(query, counter=counter).evaluate(document)
    # Full row-by-row equality, order and first-witness bindings
    # included — not just the sorted key sets.
    assert column_row_ids(column) == column_row_ids(plain)
    assert counter.column_rows == len(plain)


def test_a_matcher_reads_each_documents_own_arena():
    """No document is foreign: one matcher runs its plan on whichever
    document it is handed, over that document's own arena, and follows
    an arena rebuilt after a detach."""
    query = parse_pattern("/root//name/$x")
    counter = MatchCounter()
    matcher = Matcher(query, counter=counter)
    first, other = sample_document(), sample_document()
    assert len(matcher.evaluate(first)) == len(matcher.evaluate(other)) == 2
    assert counter.column_rows == 4
    first.arena.detach()
    first.remove_subtree(first.root.children[1])
    rebuilt = matcher.evaluate(first)
    assert column_row_ids(rebuilt) == column_row_ids(
        WalkMatcher(query).evaluate(first)
    )
    assert counter.column_rows == 4 + len(rebuilt)


@pytest.mark.parametrize("text", QUERIES)
def test_scoped_column_match_pins_to_the_scoped_object_walk(text):
    document = sample_document()
    query = parse_pattern(text)
    for scope in document.root.children:
        counter = MatchCounter()
        plain = WalkMatcher(query).evaluate_scoped(document, scope)
        column = Matcher(query, counter=counter).evaluate_scoped(document, scope)
        assert column_row_ids(column) == column_row_ids(plain)


def test_column_match_survives_splices():
    document = sample_document()
    query = parse_pattern("/root//name/$x")
    matcher = Matcher(query)
    matcher.evaluate(document)  # the arena is built before the splices
    document.replace_call(
        document.function_nodes()[0],
        [E("hotel", E("name", V("Ritz")), E("rating", V("3")))],
    )
    document.remove_subtree(document.root.children[1])
    plain = WalkMatcher(query).evaluate(document)
    assert column_row_ids(matcher.evaluate(document)) == column_row_ids(plain)


def test_engine_rows_and_logs_match_under_column_matching():
    """No switch: the default engine runs every family on the plan —
    the OR-bearing ones (``baseline``, the hotels paper query) included
    — with nothing standing down; rows pinned to the naive oracle and
    invocation logs to the object walk."""
    for name in ("deep-recursion", "baseline"):
        gen = regime(name)
        query = gen.query_for(0)
        with object_walk():
            _, walk_log = gen.evaluate(query)
        out, log = gen.evaluate(query)
        assert set(out.value_rows()) == oracle_rows(gen, query), name
        assert log == walk_log, name
        assert out.metrics.column_rows > 0, name

    hotels = build_hotels_workload(HotelsWorkloadParams(n_hotels=16))

    def run(strategy):
        bus = hotels.make_bus()
        engine = LazyQueryEvaluator(
            bus, schema=hotels.schema, config=EngineConfig(strategy=strategy)
        )
        outcome = engine.evaluate(paper_query(), hotels.make_document())
        return outcome, [
            (r.service_name, r.call_node_id) for r in bus.log.records
        ]

    with object_walk():
        _, walk_log = run(Strategy.LAZY_NFQ)
        naive, _ = run(Strategy.NAIVE)
    out, log = run(Strategy.LAZY_NFQ)
    assert out.value_rows() == naive.value_rows()
    assert log == walk_log
    assert out.metrics.column_rows > 0


def test_engine_runs_an_interior_wildcard_on_the_plan():
    """``/root/*//$v`` has an interior wildcard; it compiles like every
    other shape, and its rows are the naive oracle's."""
    registry = regime("bindings-push").registry()

    def run(strategy):
        engine = LazyQueryEvaluator(
            ServiceBus(registry), config=EngineConfig(strategy=strategy)
        )
        document = build_document(E("root", E("a", E("b", V("1")))))
        return engine.evaluate(parse_pattern("/root/*//$v"), document)

    with object_walk():
        naive = run(Strategy.NAIVE)
    wild = run(Strategy.LAZY_NFQ)
    assert len(wild.rows) == 2
    assert wild.value_rows() == naive.value_rows()
    assert wild.metrics.column_rows == 2
    assert "col-rows=2" in wild.metrics.summary()


def test_engine_reports_column_metrics():
    gen = regime("deep-recursion")
    out, _ = gen.evaluate(gen.query_for(0))
    metrics = out.metrics
    assert metrics.column_rows > 0
    assert metrics.column_pass_nodes > 0
    assert "col-" in metrics.summary()


# ---------------------------------------------------------------------------
# The twin-document property (Hypothesis)
# ---------------------------------------------------------------------------


class DeltaRecorder:
    """Structural transcript of a document's splice stream."""

    def __init__(self, document):
        self.document = document
        self.deltas = []
        document.add_observer(self)

    def call_removed(self, document, node):
        pass

    def calls_added(self, document, nodes):
        pass

    def splice(self, document, delta):
        parent = delta.parent
        self.deltas.append(
            (
                tuple(_shape(root) for root in delta.removed),
                tuple(_shape(root) for root in delta.added),
                None if parent is None else parent.label,
            )
        )


def _shape(node):
    return (node.kind, node.label, tuple(_shape(c) for c in node.children))


@settings(max_examples=12, deadline=None)
@given(
    name=st.sampled_from(sorted(REGIMES)),
    seed=st.integers(min_value=0, max_value=40),
)
def test_twin_documents_stay_equal_under_shared_mutation_traces(name, seed):
    """An arena-mirrored document and its plain twin, driven by the same
    factory mutation trace, must stay structurally equal — with the
    arena consistent after every step."""
    gen = generate(fuzz_spec(name, seed=seed))
    mirrored = gen.make_document(0)
    plain = gen.make_document(0)
    arena = DocumentArena(mirrored)
    mirrored_log = DeltaRecorder(mirrored)
    plain_log = DeltaRecorder(plain)
    try:
        for step in range(6):
            gen.apply_mutation(str(step), (mirrored, plain))
            assert mirrored.root.structurally_equal(plain.root)
            assert arena.consistency_errors() == []
        assert mirrored_log.deltas == plain_log.deltas
        assert arena.splices_applied == len(mirrored_log.deltas)
    finally:
        arena.detach()
