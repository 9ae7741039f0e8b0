"""Unit tests for Document: identity, the rewrite step, observers."""

import pytest

from repro.axml.builder import C, E, V, build_document
from repro.axml.document import Document
from repro.axml.node import call, element, value

from .conftest import SpliceRecorder


def make_doc():
    return build_document(
        E("root", E("a", C("f", V("p"))), C("g")),
        name="t",
    )


def test_root_must_be_element():
    with pytest.raises(ValueError):
        Document(value("x"))
    with pytest.raises(ValueError):
        Document(call("f"))


def test_root_must_be_detached():
    parent = element("p", element("r"))
    with pytest.raises(ValueError):
        Document(parent.children[0])


def test_node_ids_are_assigned_in_document_order():
    doc = make_doc()
    ids = [n.node_id for n in doc.iter_nodes()]
    assert ids == sorted(ids)
    assert ids[0] == 0


def test_node_lookup_by_id():
    doc = make_doc()
    for node in doc.iter_nodes():
        assert doc.node(node.node_id) is node


def test_contains_tracks_membership():
    doc = make_doc()
    g = doc.function_nodes()[1]
    assert doc.contains(g)
    doc.replace_call(g, [])
    assert not doc.contains(g)


def test_function_nodes_in_document_order():
    doc = make_doc()
    assert [n.label for n in doc.function_nodes()] == ["f", "g"]


def test_stats_counts_kinds_and_depth():
    doc = make_doc()
    stats = doc.stats()
    assert stats.total_nodes == 5
    assert stats.element_nodes == 2
    assert stats.function_nodes == 2
    assert stats.value_nodes == 1
    assert stats.max_depth == 3
    assert 0 < stats.intensional_fraction < 1


def test_replace_call_splices_forest_in_position():
    doc = build_document(E("root", V("before"), C("f"), V("after")))
    f = doc.function_nodes()[0]
    doc.replace_call(f, [element("x"), element("y")])
    labels = [n.label for n in doc.root.children]
    assert labels == ["before", "x", "y", "after"]


def test_replace_call_with_empty_forest_just_removes():
    doc = make_doc()
    f = doc.function_nodes()[0]
    doc.replace_call(f, [])
    assert doc.function_nodes()[0].label == "g"
    assert doc.stats().total_nodes == 3


def test_replace_call_assigns_fresh_ids_and_provenance():
    doc = make_doc()
    f = doc.function_nodes()[0]
    f_id = f.node_id
    new_calls = doc.replace_call(f, [element("r", call("h"))])
    assert new_calls[0].label == "h"
    r = doc.root.children[0].children[0]
    assert r.label == "r"
    assert r.node_id is not None and r.node_id > 4
    assert r.produced_by == f_id


def test_transitively_produced_by_follows_chains():
    doc = build_document(E("root", C("f")))
    f = doc.function_nodes()[0]
    f_id = f.node_id
    (g,) = doc.replace_call(f, [element("mid", call("g"))])
    g_id = g.node_id
    doc.replace_call(g, [element("leaf")])
    leaf = [n for n in doc.iter_nodes() if n.label == "leaf"][0]
    assert doc.transitively_produced_by(leaf, g_id)
    assert doc.transitively_produced_by(leaf, f_id)
    assert not doc.transitively_produced_by(doc.root, f_id)


def test_replace_call_rejects_foreign_and_data_nodes():
    doc = make_doc()
    with pytest.raises(ValueError):
        doc.replace_call(call("loose"), [])
    with pytest.raises(ValueError):
        doc.replace_call(doc.root.children[0], [])


def test_replace_call_rejects_attached_forest():
    doc = make_doc()
    f = doc.function_nodes()[0]
    holder = element("h", element("x"))
    with pytest.raises(ValueError):
        doc.replace_call(f, [holder.children[0]])


class _Recorder:
    def __init__(self):
        self.removed = []
        self.added = []

    def call_removed(self, document, node):
        self.removed.append(node.label)

    def calls_added(self, document, nodes):
        self.added.extend(n.label for n in nodes)


def test_observers_see_removal_and_additions():
    doc = make_doc()
    rec = _Recorder()
    doc.add_observer(rec)
    f = doc.function_nodes()[0]
    doc.replace_call(f, [element("r", call("h"), call("k"))])
    assert rec.removed == ["f"]
    assert rec.added == ["h", "k"]
    doc.remove_observer(rec)
    doc.replace_call(doc.function_nodes()[0], [])
    assert rec.removed == ["f"]  # no longer notified


def test_observers_receive_exactly_the_hooks_they_define():
    """A splice-only observer and a call-level-only one side by side:
    each hook is optional, resolved when the observer attaches; one
    that defines all three still gets them in mutation order."""
    events = []

    class SpliceOnly:
        def splice(self, document, delta):
            events.append(("splice-only", "splice"))

    doc = make_doc()
    calls_only = _Recorder()
    doc.add_observer(SpliceOnly())
    doc.add_observer(calls_only)
    full = SpliceRecorder(doc)
    f = doc.function_nodes()[0]
    doc.replace_call(f, [element("r", call("h"))])
    assert calls_only.removed == ["f"] and calls_only.added == ["h"]
    assert full.events == ["removed", "added", "splice"]
    doc.insert_subtree(doc.root, call("k"))
    doc.remove_subtree(doc.root.children[-1])
    assert calls_only.removed == ["f", "k"] and calls_only.added == ["h", "k"]
    assert full.events[3:] == ["added", "splice", "removed", "splice"]
    assert events == [("splice-only", "splice")] * 3
    # Detaching one leaves the others' handlers in place.
    doc.remove_observer(calls_only)
    doc.replace_call(doc.function_nodes()[0], [])
    assert calls_only.removed == ["f", "k"] and len(events) == 4
    assert full.events[-2:] == ["removed", "splice"]


def test_a_failing_observer_leaves_the_others_whole():
    """Every handler of a mutation runs after the tree changed, and the
    first exception surfaces after the last: an observer attached ahead
    of the arena that raises on every hook neither skips the arena's
    splice (its mirror stays consistent) nor the store's log."""
    from repro.lazy.incremental import LabelFootprint, RelevanceStore
    from repro.pattern.match import MatchOptions
    from repro.pattern.parse import parse_pattern

    class Failing:
        def __init__(self):
            self.seen = []

        def fail(self, document, payload):
            # What a handler sees is the final tree: no half-done splice.
            self.seen.append(sorted(n.label for n in document.iter_nodes()))
            raise RuntimeError("observer failed")

        call_removed = calls_added = splice = fail

    doc = build_document(E("r", E("a", C("f", V("k"))), E("b", V("x"))))
    failing = Failing()
    doc.add_observer(failing)
    store = RelevanceStore(doc)
    guard = LabelFootprint.from_pattern(parse_pattern("/r/a"))
    store.hold("reader", MatchOptions(), guard)
    arena = doc.arena
    recorder = SpliceRecorder(doc)
    (f,) = doc.function_nodes()
    mutations = [
        lambda: doc.insert_subtree(doc.root.children[0], element("c", call("g"))),
        lambda: doc.replace_call(f, [element("y", call("h"))]),
        lambda: doc.remove_subtree(doc.root.children[0]),
    ]
    for mutate in mutations:
        position = store.position
        with pytest.raises(RuntimeError, match="observer failed"):
            mutate()
        assert arena.consistency_errors() == []
        assert store.position == position + 1
        final = sorted(n.label for n in doc.iter_nodes())
        assert failing.seen and all(seen == final for seen in failing.seen)
        failing.seen.clear()
    assert recorder.events == [
        "added", "splice",
        "removed", "added", "splice",
        "removed", "removed", "splice",
    ]


def test_splice_delta_iterates_whole_subtrees():
    doc = build_document(
        E("hotels", E("hotel", E("rating", C("getRating", V("Ritz")))))
    )
    recorder = SpliceRecorder(doc)
    (rating_call,) = doc.function_nodes()
    doc.replace_call(rating_call, [E("rated", V("5"))])
    (delta,) = recorder.deltas
    assert [n.label for n in delta.removed] == ["getRating"]
    # The removed root keeps the call's parameter subtree attached.
    (removed,) = delta.removed
    assert sorted(n.label for n in removed.iter_subtree()) == [
        "Ritz",
        "getRating",
    ]
    assert sorted(n.label for n in delta.iter_added()) == ["5", "rated"]
    assert delta.parent is not None and delta.parent.label == "rating"


def test_copy_is_independent():
    doc = make_doc()
    twin = doc.copy()
    twin.replace_call(twin.function_nodes()[0], [])
    assert len(doc.function_nodes()) == 2
    assert len(twin.function_nodes()) == 1
