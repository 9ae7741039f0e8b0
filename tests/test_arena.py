"""The arena document store: columns, splices, scans, twins.

Contract under test: the struct-of-arrays mirror
(:class:`repro.axml.arena.DocumentArena`) is an *observer* of the
object tree — never the source of truth — so every column answer
(descendant scans, existence probes, whole plans) must be
indistinguishable from the object walk it replaces, across
construction, free-list splices, and whole factory mutation traces.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.axml.arena import (
    KIND_ELEMENT,
    KIND_FUNCTION,
    KIND_VALUE,
    DocumentArena,
)
from repro.axml.builder import C, E, V, build_document
from repro.axml.node import NodeKind
from repro.lazy.config import EngineConfig, Strategy
from repro.lazy.continuous import ContinuousQuery
from repro.lazy.engine import LazyQueryEvaluator
from repro.pattern.columnmatch import ColumnMatcher, compile_plan
from repro.pattern.match import (
    MatchCounter,
    Matcher,
    MatchOptions,
    MatchSet,
    snapshot_result,
)
from repro.pattern.parse import parse_pattern
from repro.services.registry import ServiceBus
from repro.workloads.factory import REGIMES, fuzz_spec, generate, regime
from repro.workloads.hotels import (
    HotelsWorkloadParams,
    build_hotels_workload,
    paper_query,
)

from .conftest import object_walk


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
# Column scans vs the object-walk oracle
# ---------------------------------------------------------------------------


#: The oracle's own code for "element or value, never function".
ANY_DATA = -2


def walk_descendants(roots, want_kind, want_labels, descend_into_params):
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
        if node.is_function and not descend_into_params:
            continue
        stack.extend(node.children)
    return sorted(out)


def plan_descendants(document, arena, want_kind, labels, descend):
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
    counter = MatchCounter()
    options = MatchOptions(descend_into_parameters=descend)
    found = set()
    for test in tests:
        matcher = Matcher(
            parse_pattern(f"/root//{test}"),
            options=options,
            counter=counter,
            arena=arena,
            column_match=True,
        )
        rows = matcher.evaluate(document)
        found.update(key for (key,) in map(MatchSet.row_key, rows))
    assert counter.column_fallbacks == 0
    assert counter.candidates_visited == 0
    return sorted(found)


@pytest.mark.parametrize("descend", [True, False])
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
def test_scan_descendants_agrees_with_the_object_walk(
    want_kind, labels, descend
):
    document = sample_document()
    arena = DocumentArena(document)
    assert plan_descendants(
        document, arena, want_kind, labels, descend
    ) == walk_descendants(document.root.children, want_kind, labels, descend)


def test_scan_descendants_agrees_after_splices():
    document = sample_document()
    arena = DocumentArena(document)
    call_node = document.function_nodes()[0]
    document.replace_call(call_node, [E("hotel", E("name", V("Plaza")))])
    document.remove_subtree(document.root.children[0])
    assert plan_descendants(
        document, arena, KIND_ELEMENT, {"hotel"}, False
    ) == walk_descendants(
        document.root.children, KIND_ELEMENT, {"hotel"}, False
    )


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
    arena = DocumentArena(document)
    query = parse_pattern(text)
    plain = Matcher(query).evaluate(document)
    fast = Matcher(query, arena=arena, column_match=True).evaluate(document)
    assert row_keys(fast) == row_keys(plain)


def test_group_pass_rows_match_after_splices():
    document = sample_document()
    arena = DocumentArena(document)
    document.replace_call(
        document.function_nodes()[0],
        [E("hotel", E("name", V("Ritz")), E("rating", V("3")))],
    )
    document.remove_subtree(document.root.children[1])
    for text in QUERIES:
        query = parse_pattern(text)
        plain = Matcher(query).evaluate(document)
        fast = Matcher(query, arena=arena, column_match=True).evaluate(
            document
        )
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
    assert base.metrics.arena_nodes == 0
    out, log = gen.evaluate(query)
    assert out.metrics.arena_nodes > 0
    assert set(out.value_rows()) == gen.oracle_rows(query)
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


def test_naive_strategy_never_builds_an_arena(arena_builds):
    gen = regime("baseline")
    document = gen.make_document(0)
    engine = LazyQueryEvaluator(
        gen.make_bus(),
        config=gen.engine_config(
            strategy=Strategy.NAIVE, maintain_answers=True
        ),
    )
    standing = ContinuousQuery(engine, gen.query_for(0), document)
    gen.apply_mutation("0", (document,))
    outcome = standing.refresh()
    standing.close()
    assert arena_builds == []
    assert outcome.metrics.arena_nodes == 0
    assert outcome.metrics.column_rows == outcome.metrics.column_fallbacks == 0


# ---------------------------------------------------------------------------
# Arena existence probes: the column screen is the whole leaf test
# ---------------------------------------------------------------------------


def existence_probe(text):
    """A compiled plan over the sample document, its first step below
    the root, and the root's slot — the pieces of one semijoin probe."""
    document = sample_document()
    arena = DocumentArena(document)
    plan = compile_plan(parse_pattern(text))
    matcher = ColumnMatcher(plan, arena, MatchOptions(), MatchCounter())
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
    arena = DocumentArena(document)
    query = parse_pattern(text)
    counter = MatchCounter()
    plain = Matcher(query, arena=arena).evaluate(document)
    column = Matcher(
        query, counter=counter, arena=arena, column_match=True
    ).evaluate(document)
    # Full row-by-row equality, order and first-witness bindings
    # included — not just the sorted key sets.
    assert column_row_ids(column) == column_row_ids(plain)
    if text == "/root/*//$v":
        # Interior data wildcard: the plan compiler stands down and the
        # object walk answers.
        assert counter.column_fallbacks == 1
        assert counter.column_rows == 0
    else:
        assert counter.column_fallbacks == 0
        assert counter.column_rows == len(plain)


def test_column_match_auto_off_without_an_arena():
    query = parse_pattern("/root//name/$x")
    counter = MatchCounter()
    matcher = Matcher(query, counter=counter, column_match=True)
    assert not matcher.column_match
    result = matcher.evaluate(sample_document())
    assert len(result) == 2
    assert counter.column_rows == 0
    assert counter.column_fallbacks == 0  # never armed, never fell back


def test_column_match_falls_back_on_an_unmirrored_root():
    document = sample_document()
    arena = DocumentArena(document)
    other = sample_document()  # not mirrored by this arena
    query = parse_pattern("/root//name/$x")
    counter = MatchCounter()
    matcher = Matcher(query, counter=counter, arena=arena, column_match=True)
    result = matcher.evaluate(other)
    assert len(result) == 2
    assert counter.column_fallbacks == 1
    assert counter.column_rows == 0


@pytest.mark.parametrize("text", QUERIES)
def test_scoped_column_match_pins_to_the_scoped_object_walk(text):
    document = sample_document()
    arena = DocumentArena(document)
    query = parse_pattern(text)
    for scope in document.root.children:
        counter = MatchCounter()
        plain = Matcher(query, arena=arena).evaluate_scoped(document, scope)
        column = Matcher(
            query, counter=counter, arena=arena, column_match=True
        ).evaluate_scoped(document, scope)
        assert column_row_ids(column) == column_row_ids(plain)


def test_column_match_survives_splices():
    document = sample_document()
    arena = DocumentArena(document)
    query = parse_pattern("/root//name/$x")
    matcher = Matcher(query, arena=arena, column_match=True)
    document.replace_call(
        document.function_nodes()[0],
        [E("hotel", E("name", V("Ritz")), E("rating", V("3")))],
    )
    document.remove_subtree(document.root.children[1])
    plain = Matcher(query, arena=arena).evaluate(document)
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
        assert set(out.value_rows()) == gen.oracle_rows(query), name
        assert log == walk_log, name
        assert out.metrics.column_rows > 0, name
        assert out.metrics.column_fallback_reasons == {}, name

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
    out, log = run(Strategy.LAZY_NFQ)
    naive, _ = run(Strategy.NAIVE)
    assert out.value_rows() == naive.value_rows()
    assert log == walk_log
    assert out.metrics.column_rows > 0
    assert out.metrics.column_fallbacks == 0


def test_engine_names_the_reason_when_a_plan_stands_down():
    """``/root/*//$v`` has an interior wildcard: it walks, and the
    metrics say why.  ``bindings-push`` has no reason to: its replies
    are spliced like any other."""
    gen = regime("bindings-push")
    out, _ = gen.evaluate(gen.query_for(0))
    assert out.metrics.column_fallback_reasons == {}
    assert "col-fallbacks=0" in out.metrics.summary()

    engine = LazyQueryEvaluator(ServiceBus(gen.registry()))
    plain = build_document(E("root", E("a", E("b", V("1")))))
    wild = engine.evaluate(parse_pattern("/root/*//$v"), plain)
    assert len(wild.rows) == 2
    assert set(wild.metrics.column_fallback_reasons) == {"interior-wildcard"}
    assert wild.metrics.column_fallbacks > 0
    assert "(interior-wildcard:" in wild.metrics.summary()


def test_engine_reports_column_metrics():
    gen = regime("deep-recursion")
    out, _ = gen.evaluate(gen.query_for(0))
    metrics = out.metrics
    assert metrics.column_rows + metrics.column_fallbacks > 0
    if metrics.column_rows:
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
