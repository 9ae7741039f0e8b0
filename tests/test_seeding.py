"""A seeded relevance store reads what a store that never seeds reads.

A :class:`~repro.lazy.incremental.RelevanceStore` attached to a
warm-loaded document before its first change seeds an anchored entry's
first read from the rows its shape has on the text's pristine document
(``pristine_rows``), then catches it up through the footprint-screened
log from position 0.  Held here as a differential: two documents parsed
from one kept text, one whose stores seed and one whose stores never do
(``references.unseeded()``: every first read is a whole pass), driven
through the same interleaved steps — inserts and removals anywhere
below the root, one-shot evaluations splicing replies, ``QueryServer``
subscribes, rounds and cancels, splices an observer (or the store
itself) raises in, private stores attached after mutations and read
directly, and ``kept.forget()``.  After every step every store read so
far (rows as sets of node ids with first-witness bindings), the
invocation log in order, each evaluation's rows and ``calls_invoked``
and each subscription's rows agree.
"""

from __future__ import annotations

import contextlib
from unittest import mock

from hypothesis import example, given, strategies as st

import repro
from repro import kept
from repro.axml.builder import C, E, V, build_document
from repro.axml.document import SpliceDelta
from repro.axml.xmlio import parse_document, serialize_document
from repro.lazy.incremental import RelevanceStore
from repro.pattern.match import Matcher
from repro.pattern.parse import parse_pattern
from repro.serve import QueryServer
from repro.services.catalog import StaticService
from repro.services.registry import ServiceBus, ServiceRegistry

from .references import unseeded

#: Standing and one-shot queries: every relevance shape of each is
#: anchored (the pattern root has one child).
QUERIES = (
    "/r/s/x/$v",
    "/r/s/a/x/$v",
    "/r//x/$v",
    "/r/s[a/x]/x/$v",
    "/r/t/x/$v",
)
#: What an insert puts below a node: ``z`` no query tests (a splice no
#: footprint sees), data some query reads, calls every family retrieves.
INSERTS = (
    lambda: E("z", V("q")),
    lambda: E("x", V("9")),
    lambda: C("f"),
    lambda: E("a", E("x", V("8"))),
    lambda: E("a", C("g")),
)


def _services():
    return [
        StaticService("f", [E("x", V("1")), E("a", E("x", V("2")))]),
        StaticService("g", [E("x", V("3")), C("h")]),
        StaticService("h", [E("z", V("h"))]),
    ]


def _text() -> str:
    """Fifteen scopes below the root, so a few dirty ones leave a store
    seedable (it stops past half the root's children); the last is the
    only ``t``, whose query invokes its call alone."""
    scopes = []
    for i in range(14):
        kids = [E("a", E("x", V(str(i))))]
        if i % 2 == 0:
            kids.append(C("f"))
        if i % 3 == 0:
            kids.append(E("a", C("g")))
        if i % 4 == 1:
            kids.append(E("x", V("k")))
        scopes.append(E("s", *kids))
    scopes.append(E("t", C("f")))
    return serialize_document(build_document(E("r", *scopes)))


def _rows(rows) -> frozenset:
    return frozenset(
        (tuple(node.node_id for node in row.nodes), row.bindings) for row in rows
    )


class _Raising:
    """An observer whose splice raises once."""

    def splice(self, document, delta):
        document.remove_observer(self)
        raise RuntimeError("observer failed")


class _Side:
    """One document of the text, its bus, its server and its private
    store, every read of its stores recorded in ``reads``."""

    def __init__(self, text: str) -> None:
        self.document = parse_document(text)
        self.bus = ServiceBus(ServiceRegistry(_services()))
        self.server = QueryServer(self.bus)
        self.subscriptions: list = []
        self.store = None
        self.reads: list = []
        self.seen: list = []

    def step(self, step) -> None:
        kind = step[0]
        document = self.document
        scopes = document.root.children
        if kind == "insert":
            parent = document.root if step[1] < 0 else scopes[step[1] % len(scopes)]
            document.insert_subtree(parent, INSERTS[step[2]]())
        elif kind == "remove" and len(scopes) > 1:
            scope = scopes[step[1] % len(scopes)]
            if step[2] or not scope.children:
                document.remove_subtree(scope)
            else:
                document.remove_subtree(scope.children[-1])
        elif kind == "evaluate":
            outcome = repro.evaluate(QUERIES[step[1]], document, services=self.bus)
            self.seen.append(
                ("evaluate", _rows(outcome.rows), outcome.metrics.calls_invoked)
            )
        elif kind == "subscribe":
            self.subscriptions.append(
                self.server.subscribe(QUERIES[step[1]], document, eager=step[2])
            )
        elif kind == "cancel" and self.subscriptions:
            self.subscriptions.pop(step[1] % len(self.subscriptions)).cancel()
        elif kind == "round":
            self.server.run_round()
        elif kind == "raise":
            scope = scopes[step[1] % len(scopes)]
            if step[2]:  # the store's own splice fails to place it
                failing = mock.patch.object(
                    SpliceDelta,
                    "scope_ids_under",
                    side_effect=RuntimeError("store failed"),
                )
            else:
                document.add_observer(_Raising())
                failing = contextlib.nullcontext()
            with failing:
                try:
                    document.insert_subtree(scope, INSERTS[step[3]]())
                except RuntimeError:
                    pass
        elif kind == "store":
            if self.store is not None:
                self.store.drop(self)
            self.store = RelevanceStore(document)
            self.store.hold(self)
        elif kind == "read" and self.store is not None:
            pattern = _PATTERNS[step[1]]
            matcher = Matcher(pattern)

            def match(scope):
                found = (
                    matcher.evaluate(document)
                    if scope is None
                    else matcher.evaluate_scoped(document, scope)
                )
                return found.rows

            self.store.retrieve(pattern, match, self)
        elif kind == "forget":
            kept.forget()
        self.seen.append(
            (
                [sub.rows for sub in self.subscriptions],
                [
                    (r.service_name, r.call_node_id, r.fault)
                    for r in self.bus.log.records
                ],
            )
        )


#: The private store's patterns: each query, read as a standing answer.
_PATTERNS = tuple(parse_pattern(text) for text in QUERIES)

_INDEX = st.integers(0, 14)
_QUERY = st.integers(0, len(QUERIES) - 1)
_INSERT = st.integers(0, len(INSERTS) - 1)
STEPS = st.one_of(
    st.tuples(st.just("insert"), st.integers(-1, 14), _INSERT),
    st.tuples(st.just("remove"), _INDEX, st.booleans()),
    st.tuples(st.just("evaluate"), _QUERY),
    st.tuples(st.just("subscribe"), _QUERY, st.booleans()),
    st.tuples(st.just("cancel"), _INDEX),
    st.tuples(st.just("round")),
    st.tuples(st.just("raise"), _INDEX, st.booleans(), _INSERT),
    st.tuples(st.just("store")),
    st.tuples(st.just("read"), _QUERY),
    st.tuples(st.just("forget")),
)


def _recording(reads_of):
    """``RelevanceStore.retrieve``, each read's rows appended to the
    list ``reads_of`` names for its document."""
    retrieve = RelevanceStore.retrieve

    def recorded(self, pattern, match, holder):
        read = retrieve(self, pattern, match, holder)
        reads_of[id(self.document)].append((pattern.shape, _rows(read.rows)))
        return read

    return mock.patch.object(RelevanceStore, "retrieve", recorded)


@given(steps=st.lists(STEPS, min_size=1, max_size=14))
# A splice no footprint sees, in a scope with rows, before a shape's
# first read: a seed that drops the rows of every scope touched since
# the load loses that scope's calls.
@example(
    steps=[
        ("subscribe", 4, True),
        ("insert", 0, 0),
        ("evaluate", 0),
    ]
)
# A store attached after a mutation may not seed: the log it would
# catch up from starts at its attachment.
@example(steps=[("insert", 2, 2), ("evaluate", 0)])
@example(steps=[("insert", 1, 1), ("store",), ("read", 0)])
# Splices cut from the log while a standing store is seedable: a later
# seed would catch up from the wrong position.
@example(
    steps=[
        ("subscribe", 4, True),
        ("insert", 1, 2),
        *[("insert", 14, 1)] * 8,
        ("round",),
        *[("insert", 14, 1)] * 10,
        ("evaluate", 0),
    ]
)
def test_a_seeded_store_reads_what_an_unseeded_one_reads(steps):
    text = _text()
    parse_document(text)  # kept from here on: both sides load warm
    seeded, plain = _Side(text), _Side(text)
    reads_of = {id(seeded.document): seeded.reads, id(plain.document): plain.reads}
    with _recording(reads_of):
        for step in steps:
            seeded.step(step)
            with unseeded():
                plain.step(step)
            assert seeded.reads == plain.reads
            assert seeded.seen == plain.seen
    for side in (seeded, plain):
        side.server.close()
        if side.store is not None:
            side.store.drop(side)


def test_a_fresh_documents_first_reads_are_seeds():
    """On a warm load, an evaluation's anchored first reads are seeds,
    not whole passes, and the rows are matched once per text and shape."""
    text = _text()
    parse_document(text)
    counts = []
    detach = RelevanceStore.detach

    def counted(store):
        counts.append((store.seeds, store.whole_passes))
        detach(store)

    with mock.patch.object(RelevanceStore, "detach", counted):
        for _ in range(2):
            repro.evaluate(QUERIES[0], parse_document(text), services=_services())
    assert counts[0] == counts[1] and counts[0][0] > 0 and counts[0][1] == 0
    (entry,) = kept.texts.values()
    shapes = len(entry.rows)
    assert shapes == counts[0][0]
    kept.forget()
    assert len(entry.rows) == 0


def test_a_cold_load_and_a_changed_document_do_not_seed():
    """The first parse of a text, and a warm load changed before its
    store attached, take whole passes."""
    text = _text()
    stores = []
    detach = RelevanceStore.detach

    def counted(store):
        stores.append(store.seeds)
        detach(store)

    with mock.patch.object(RelevanceStore, "detach", counted):
        repro.evaluate(QUERIES[0], parse_document(text), services=_services())
        document = parse_document(text)
        document.insert_subtree(document.root, E("z"))
        repro.evaluate(QUERIES[0], document, services=_services())
    assert stores == [0, 0]


def test_label_filters_pass_from_the_kept_columns_to_their_copies():
    """A plan that ran over the kept columns (a seed) hands its label
    filters to an arena copied from them, until a label it lacked is
    interned there."""
    from repro.pattern.columnmatch import compile_plan

    text = _text()
    parse_document(text)
    plan = compile_plan(parse_pattern("/r/s[w]/x/$v"))  # no ``w`` in the text
    document = parse_document(text)
    columns = document.pristine.arena
    resolved = plan.filters(columns)
    assert resolved.missing == {"w"}
    arena = document.arena
    assert arena.copied_from is columns
    assert plan.filters(arena).by_uid is resolved.by_uid
    document.insert_subtree(document.root.children[0], E("w"))
    again = plan.filters(arena)
    assert again.by_uid is not resolved.by_uid and not again.missing
    # A copy that interned the label before its first run resolves afresh.
    other = parse_document(text)
    other.arena
    other.insert_subtree(other.root.children[1], E("w"))
    fresh = plan.filters(other.arena)
    assert fresh.by_uid is not resolved.by_uid and not fresh.missing
