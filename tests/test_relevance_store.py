"""The per-scope relevance store against full re-evaluation.

After every step of an interleaved mutation trace, every entry's kept
rows must equal a fresh whole-document match of its pattern — per
query through compiled matchers and a walking reader beside them, and on the one store a document owns with every consumer
(engine refreshes and quiet probes of two queries, answer readers,
twins coming and going) interleaved.
"""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.axml.builder import C, E, V, build_document
from repro.axml.node import Activation
from repro.lazy import analysis as analyses
from repro.lazy.incremental import (
    LabelFootprint,
    RelevanceStore,
    SpliceSignature,
    Verdict,
)
from repro.lazy.relevance import NFQBuilder
from repro.pattern.match import Matcher, MatchSet
from repro.pattern.nodes import EdgeKind, pelem, pfunc, pstar, pvar
from repro.pattern.pattern import TreePattern
from repro.workloads.factory import fuzz_spec, generate

from .conftest import SpliceRecorder
from .references import WalkMatcher, touches_by_walk

REGIMES = (
    "baseline",
    "deep-recursion",
    "wide-flat",
    "cache-flood",
    "multi-root-standing",  # multi-child pattern roots: whole passes
)
STEPS = (
    "reply",  # replace_call deep in a scope (or wherever a call sits)
    "reply-under-root",  # a reply landing directly under the root
    "empty-reply",  # a reply that empties its call's position
    "insert",
    "remove",
    "freeze",
    "rebuild",  # new names / layer simplification: fresh pattern objects
    "burst",  # several splices between retrievals: most scopes dirty
)


def _ids(rows):
    """Row identities (one result node: the retrieved calls' ids)."""
    return sorted(MatchSet.row_key(row) for row in rows)


class _World:
    """One document, one NFQ family, and the moves of the trace."""

    def __init__(self, name, seed, query_index):
        spec = dataclasses.replace(fuzz_spec(name, seed), root_subtrees=(4, 7))
        self.gen = generate(spec)
        self.rng = random.Random(f"{name}|{seed}|{query_index}")
        self.query = self.gen.query_for(query_index)
        self.document = self.gen.make_document(
            self.gen.document_for_query(query_index)
        )
        self.builder = NFQBuilder(self.query)
        self.done: set[int] = set()
        self.family = self.builder.build_all()
        self.steps = 0

    def members(self):
        return {rq.target_uid: rq.pattern for rq in self.family}

    def _reply(self, call, forest=None):
        if forest is None:
            key = call.children[0].label if call.children else "0:x"
            forest = self.gen.result_forest(call.label, key)
        self.document.replace_call(call, forest)

    def apply(self, step):
        self.steps += 1
        document, rng = self.document, self.rng
        calls = document.function_nodes()
        if step == "reply" and calls:
            self._reply(rng.choice(calls))
        elif step == "empty-reply" and calls:
            self._reply(rng.choice(calls), [])
        elif step == "reply-under-root":
            name = rng.choice(self.gen.service_names)
            call = C(name, V(f"1:root-{self.steps}"))
            document.insert_subtree(
                document.root, call, rng.randrange(len(document.root.children) + 1)
            )
            self._reply(call)
        elif step == "freeze" and calls:
            rng.choice(calls).activation = Activation.FROZEN
        elif step == "rebuild":
            if self.family:
                self.done.add(rng.choice(self.family).target_uid)
            self.builder.add_function_names([f"fresh{self.steps}"])
            self.family = self.builder.build_all(excluded_targets=self.done)
        elif step == "burst":
            for index in range(len(document.root.children)):
                self.gen.apply_mutation(f"{self.steps}.{index}", (document,))
        else:  # "insert" / "remove" (and the fallbacks of the above)
            self.gen.apply_mutation(str(self.steps), (document,))


def _walker(document):
    """Any call under any element child of the root — an interior data
    wildcard, read by the object walk (``WalkMatcher``), so the store
    sees the walk beside the plans."""
    return TreePattern(
        pelem(document.root.label, pstar(pfunc(None, result=True)))
    )


def _reader(pattern, document, walk):
    """The matcher a store read runs: the object walk, or the plan."""
    if walk:
        return WalkMatcher(pattern)
    return Matcher(pattern)


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(REGIMES),
    seed=st.integers(min_value=0, max_value=5_000),
    query_index=st.integers(min_value=0, max_value=1),
    steps=st.lists(st.sampled_from(STEPS), min_size=4, max_size=12),
)
def test_store_equals_a_fresh_match_after_every_step(
    name, seed, query_index, steps
):
    world = _World(name, seed, query_index)
    document = world.document
    store = RelevanceStore(document)
    store.hold("test")
    walker = _walker(document)
    matchers: dict = {}

    def match_for(key, pattern):
        def match(scope):
            matcher = matchers.get(key)
            if matcher is None or matcher.pattern is not pattern:
                matcher = matchers[key] = _reader(
                    pattern, document, walk=key == "walker"
                )
            return (
                matcher.evaluate(document)
                if scope is None
                else matcher.evaluate_scoped(document, scope)
            ).rows

        return match

    retrievals = 0
    for step in [None, *steps]:
        if step is not None:
            world.apply(step)
        # One query at a time, as ``_retrieve`` does; the walker too.
        for key, pattern in [*world.members().items(), ("walker", walker)]:
            found = store.retrieve(pattern, match_for(key, pattern), "test")
            retrievals += 1
            fresh = WalkMatcher(pattern).evaluate(document).rows
            assert _ids(found.rows) == _ids(fresh), (step, pattern.to_string())
    assert store.hits + store.reevaluations == retrievals
    assert document.arena.consistency_errors() == []
    store.detach()


def test_the_walker_and_both_regimes_of_the_switch_are_exercised():
    """Not vacuous: a walking pattern sees a whole pass, a scoped run,
    a hit, scoped runs and a switch-forced whole pass, each read equal
    to a fresh match and carrying its verdict."""
    document = build_document(
        E("root", *(E("part", C("svc", V(str(i)))) for i in range(6)))
    )
    store = RelevanceStore(document)
    store.hold("test")
    runs = []

    def read(pattern):
        matcher = _reader(pattern, document, walk=pattern is walker)

        def match(scope):
            runs.append(scope)
            return (
                matcher.evaluate(document)
                if scope is None
                else matcher.evaluate_scoped(document, scope)
            ).rows

        found = store.retrieve(pattern, match, "test")
        assert _ids(found.rows) == _ids(WalkMatcher(pattern).evaluate(document).rows)
        return len(found.rows), found.verdict, found.scopes

    walker = _walker(document)
    assert read(walker) == (6, Verdict.WHOLE, 0) and runs == [None]
    first = document.root.children[0]
    document.insert_subtree(first, C("svc-x", V("0:k")))
    assert read(walker) == (7, Verdict.SCOPED, 1) and runs == [None, first]
    assert read(walker) == (7, Verdict.HIT, 0) and store.hits == 1
    for child in document.root.children[:3]:
        document.insert_subtree(child, C("svc-y", V("0:k")))
    assert read(walker) == (10, Verdict.SCOPED, 3)
    assert runs[2:] == document.root.children[:3]
    for child in document.root.children[:4]:
        document.insert_subtree(child, C("svc-z", V("0:k")))
    assert read(walker) == (14, Verdict.WHOLE, 0)
    assert runs[5:] == [None], "most scopes dirty: one whole pass"
    assert (store.hits, store.reevaluations) == (1, 4)
    store.detach()


# -- one document-owned store, every consumer at once -------------------------

SERVE_STEPS = (
    "subscribe",  # an eager engine run; a repeat text is a twin
    "cancel",
    "round",  # the engine's quiet probes, then its refreshes
    "refresh",  # one subscription's on-demand engine refresh
    "mutate",
    "burst",  # more splices than LOG_LIMIT with nobody retrieving
    "freeze",
)


def _checked_retrievals(monkeypatch, checked):
    """Hold every retrieval of every consumer to a fresh match, at the
    moment it is made (mid-evaluation states included)."""
    retrieve = RelevanceStore.retrieve

    def checking(store, pattern, match, holder):
        found = retrieve(store, pattern, match, holder)
        fresh = WalkMatcher(pattern).evaluate(store.document)
        assert _ids(found.rows) == _ids(fresh.rows), pattern.to_string()
        checked.append(found.verdict)
        return found

    monkeypatch.setattr(RelevanceStore, "retrieve", checking)


def _serve_trace(name, seed, steps, monkeypatch):
    from repro.lazy.config import EngineConfig
    from repro.serve import QueryServer

    checked: list[Verdict] = []
    monkeypatch.setattr(RelevanceStore, "LOG_LIMIT", 5)
    _checked_retrievals(monkeypatch, checked)
    gen = generate(dataclasses.replace(fuzz_spec(name, seed), root_subtrees=(4, 7)))
    document = gen.make_document(0)
    server = QueryServer(gen.registry(), config=EngineConfig.serving())
    live = []
    stores = set()
    for index, (step, draw) in enumerate([("subscribe", 0), *steps, ("round", 0)]):
        calls = document.function_nodes()
        if step == "subscribe":
            # Two query texts, fresh pattern objects each time: twins.
            live.append(server.subscribe(gen.query_for(draw % 2), document))
        elif step == "cancel" and live:
            live.pop(draw % len(live)).cancel()
        elif step == "round":
            server.run_round()
        elif step == "refresh" and live:
            live[draw % len(live)].refresh()
        elif step == "freeze" and calls:
            calls[draw % len(calls)].activation = Activation.FROZEN
        elif step == "burst":
            for extra in range(7):
                gen.apply_mutation(f"{index}.{extra}", (document,))
        else:
            gen.apply_mutation(str(index), (document,))
        store = document.relevance
        assert (store is None) == (not live)
        if store is not None:
            stores.add(store)
            assert len(store._log) <= 2 * (5 + len(store._entries))
            assert len(store._holders) <= len(analyses._analyses) + 1
    assert len(stores) <= 1 + sum(step == "cancel" for step, _ in steps)
    assert document.arena.consistency_errors() == []
    counters = [
        (s.hits, s.whole_passes, s.scope_rematches, len(s._entries)) for s in stores
    ]
    server.close()
    assert document.relevance is None and len(analyses._analyses) == 0
    assert all(len(s._entries) == 0 and len(s._holders) == 0 for s in stores)
    return checked, counters


@settings(max_examples=30, deadline=None)
@given(
    name=st.sampled_from(REGIMES),
    seed=st.integers(min_value=0, max_value=5_000),
    steps=st.lists(
        st.tuples(st.sampled_from(SERVE_STEPS), st.integers(0, 1_000)),
        min_size=4,
        max_size=12,
    ),
)
def test_every_consumer_of_the_document_store_retrieves_a_fresh_match(
    name, seed, steps
):
    """Two queries' engine refreshes and quiet probes, twins
    subscribing and cancelling mid-trace, factory mutations, freezes
    and ``LOG_LIMIT`` overruns, interleaved on the one store the
    document owns: every retrieval any of them makes equals a fresh
    ``Matcher(pattern).evaluate(document)``, and nothing outlives its
    last holder."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        checked, _ = _serve_trace(name, seed, steps, monkeypatch)
    assert checked


def test_the_serve_trace_exercises_hits_scopes_seeds_and_an_overrun(monkeypatch):
    """Not vacuous: a fixed trace with twins, a cancel, rounds, a burst
    past ``LOG_LIMIT`` and a freeze sees every kind of retrieval."""
    steps = [
        ("subscribe", 1), ("subscribe", 0), ("round", 0), ("mutate", 0),
        ("round", 0), ("burst", 0), ("refresh", 1), ("freeze", 0),
        ("cancel", 0), ("mutate", 1), ("round", 0), ("subscribe", 1),
    ]
    checked, ((hits, whole, rematches, entries),) = _serve_trace(
        "baseline", 3, steps, monkeypatch
    )
    # Every retrieval is one pattern (an engine run, a probe or an
    # answer reader), and hits, scoped re-matches, seeds and the
    # ``LOG_LIMIT`` overrun all occur.
    assert len(checked) > 20
    assert {Verdict.HIT, Verdict.SCOPED, Verdict.WHOLE} <= set(checked)
    assert hits > 0 and rematches > 0
    assert whole > entries > 0  # re-seeds beyond the first: the overrun


# -- the shared answer: readers, twins, guards ---------------------------------

READER_STEPS = (
    "reply",
    "reply-under-root",
    "empty-reply",
    "insert",
    "remove",
    "burst",  # more splices than LOG_LIMIT: entries and guards overrun
    "open",  # one more reader of a drawn shape (a twin, if one stands)
    "close",
)


class _EagerScreen:
    """The rule answer readers followed when each was an observer of
    its own, kept here as the reference: every splice is judged against
    the reader's guard footprint as it arrives."""

    def __init__(self, document, guard):
        self.document, self.guard = document, guard
        self.touched = True  # nothing read yet
        document.add_observer(self)

    def splice(self, document, delta):
        self.touched = self.touched or touches_by_walk(self.guard, delta)


class _Reader:
    def __init__(self, query, document, analysis):
        from repro.lazy.answers import AnswerCache

        self.cache = AnswerCache(query, document, analysis=analysis)
        self.screen = _EagerScreen(document, self.cache.guard_footprint)
        self.last = None
        #: Reads whose rows differ from this reader's previous read.
        self.changes = 0

    def read(self, force):
        document, cache = self.cache.document, self.cache
        fresh = _ids(WalkMatcher(cache.query).evaluate(document).rows)
        if cache.is_current:
            assert not self.screen.touched, "the lazy guard outran the eager one"
            assert self.last == fresh
            if not force:
                return  # as a refresh does: the kept outcome stands
        rows = _ids(cache.rows().rows)
        assert rows == fresh, cache.query.to_string()
        self.changes += self.last is not None and rows != self.last
        self.last = rows
        self.screen.touched = False
        assert cache.is_current

    def close(self):
        self.cache.detach()
        self.cache.detach()  # idempotent
        self.screen.document.remove_observer(self.screen)


def _reader_trace(name, seed, steps, monkeypatch):
    from repro.lazy.analysis import QueryAnalysis
    from repro.pattern.nodes import EdgeKind

    monkeypatch.setattr(RelevanceStore, "LOG_LIMIT", 5)
    world = _World(name, seed, 0)
    document = world.document
    # The label of the deepest element (replies may bring it later).
    label = max(
        (sum(1 for _ in n.iter_ancestors()), n.label)
        for n in document.iter_nodes()
        if n.is_element
    )[1]
    queries = [
        world.gen.query_for(0),  # the regime's own (multi-child roots too)
        # Broad and anchored: any element's value child, anywhere.
        TreePattern(
            pelem(
                document.root.label,
                pstar(pvar("X"), edge=EdgeKind.DESCENDANT),
            )
        ),
        # Unanchored: the root is the only result node.
        TreePattern(
            pelem(
                document.root.label,
                pelem(label, edge=EdgeKind.DESCENDANT),
                result=True,
            )
        ),
    ]
    analyses = [QueryAnalysis(query) for query in queries]
    readers: list[_Reader] = []
    totals: dict[str, int] = {}

    def open_reader(draw):
        shape = draw % len(queries)
        # A fresh pattern object per reader, as subscribers parse theirs.
        readers.append(
            _Reader(queries[shape].clone(), document, analyses[shape])
        )

    def close_reader(reader):
        reader.close()
        for counter, count in reader.cache.counters().items():
            totals[counter] = totals.get(counter, 0) + count
        totals["changes"] = totals.get("changes", 0) + reader.changes

    open_reader(1)
    store = document.relevance
    for step, draw in [*steps, ("close", 0), ("open", 1)]:
        if step == "open":
            if len(readers) < 5:
                open_reader(draw)
        elif step == "close":
            if readers:
                close_reader(readers.pop(draw % len(readers)))
        else:
            world.apply(step)
        for index, reader in enumerate(readers):
            if draw >> index & 1:
                reader.read(force=bool(draw >> (index + 5) & 1))
        assert (document.relevance is None) == (not readers)
        if readers:
            assert document.relevance is store or not store._holders
            store = document.relevance
            shapes = {r.cache.query.shape for r in readers}
            assert len(store._guards) == len(store._holders) == len(shapes)
            assert len(store._entries) <= len(shapes)
            assert len(store._log) <= 2 * (5 + 2 * len(shapes))
    for reader in readers:
        reader.read(force=True)
        close_reader(reader)
    assert document.relevance is None
    assert not (len(store._entries) or len(store._holders) or store._guards)
    assert document.arena.consistency_errors() == []
    return totals


@settings(deadline=None)
@given(
    name=st.sampled_from(REGIMES),
    seed=st.integers(min_value=0, max_value=5_000),
    steps=st.lists(
        st.tuples(st.sampled_from(READER_STEPS), st.integers(0, 1_000)),
        min_size=6,
        max_size=16,
    ),
)
def test_shared_answer_readers_track_a_fresh_match_and_an_eager_screen(
    name, seed, steps
):
    """One document, three query shapes (one unanchored: its only
    result node is the root), readers and twins coming and going over
    root-level and deep inserts and removes, replies and ``LOG_LIMIT``
    overruns; after each step a drawn subset of the readers refreshes
    and the rest skip.  A reader that refreshes has the rows of a fresh
    ``Matcher(query).evaluate(document)``, and its ``is_current`` is
    never true where judging every splice eagerly, per reader, would
    have said touched."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        _reader_trace(name, seed, steps, monkeypatch)


def test_the_reader_trace_exercises_twins_scopes_screens_and_an_overrun(
    monkeypatch,
):
    """Not vacuous: a fixed trace sees twins reading each other's work
    (hits), scoped re-matches with row churn, re-seeds past the first
    (the overrun, the unanchored shape) and clean guard judgements."""
    steps = [
        ("open", 1), ("open", 2), ("insert", 3), ("reply", 7), ("open", 0),
        ("insert", 31), ("burst", 1), ("reply-under-root", 31),
        ("remove", 10), ("close", 1), ("insert", 15), ("remove", 15),
    ]
    totals = _reader_trace("baseline", 3, steps, monkeypatch)
    assert totals["hits"] > 0 and totals["screens"] > 0
    assert totals["scope_rematches"] > 0
    assert totals["changes"] > 0
    assert totals["full_matches"] > 3  # more than one seed per shape


# -- one signature per splice, held to the walk it replaced -------------------

SIGNATURE_STEPS = (
    "reply",
    "reply-under-root",
    "empty-reply",
    "insert",
    "remove",
    "burst",
    "reply-nested",  # answer a call the latest splice brought in
)


def _footprints(world):
    """What the store screens with: each NFQ's footprint, the answer's,
    the guard union of both, and that guard widened to any call."""
    from repro.lazy.analysis import QueryAnalysis

    from repro.lazy.config import EngineConfig

    naive = EngineConfig(strategy="naive")
    return [
        *(LabelFootprint.from_pattern(p) for p in world.members().values()),
        LabelFootprint.from_pattern(world.query),
        QueryAnalysis(world.query).guard(),
        QueryAnalysis(world.query, naive).guard(),
    ]


def _latest_from(touched):
    """Per log position ``s``: the latest position at or after ``s``
    whose splice touched (-1: none) — what a guard bookmarked at ``s``
    answers."""
    latest, out = -1, []
    for index in range(len(touched) - 1, -1, -1):
        if touched[index]:
            latest = max(latest, index)
        out.append(latest)
    return out[::-1]


def _check_guards(store, recorder, footprints, holders):
    """Every guard's verdict for every bookmark equals the walk of the
    whole log as the subtrees stand now."""
    for fp, holder in zip(footprints, holders):
        walked = _latest_from([touches_by_walk(fp, d) for d in recorder.deltas])
        for since, latest in enumerate(walked):
            assert store.untouched(holder, since) == (latest == -1), (holder, since)


@settings(deadline=None)
@given(
    name=st.sampled_from(REGIMES),
    seed=st.integers(min_value=0, max_value=5_000),
    query_index=st.integers(min_value=0, max_value=1),
    steps=st.lists(st.sampled_from(SIGNATURE_STEPS), min_size=3, max_size=10),
)
def test_splice_signatures_judge_as_the_walk(name, seed, query_index, steps):
    """A splice's signature, taken when the store first judges it,
    accepts what the node walk accepts at that moment — and at every
    later step, with the delta's subtrees changed since, each guard's
    latest touch after any bookmark is still the walk's."""
    world = _World(name, seed, query_index)
    document = world.document
    recorder = SpliceRecorder(document)
    footprints = _footprints(world)
    store = RelevanceStore(document)
    eager = [("eager", k) for k in range(len(footprints))]
    late = [("late", k) for k in range(len(footprints))]
    for holder, fp in zip(eager + late, footprints + footprints):
        store.hold(holder, fp)
    judged = 0
    for step in steps:
        added = recorder.deltas[-1].added if recorder.deltas else ()
        nested = [
            n for root in added for n in root.iter_subtree()
            if n.is_function and document.contains(n)
        ]
        if step == "reply-nested" and nested:
            world._reply(world.rng.choice(nested))
        else:
            world.apply("reply" if step == "reply-nested" else step)
        for delta in recorder.deltas[judged:]:
            signature = SpliceSignature(delta)
            for fp in footprints:
                assert fp.touches(signature) == touches_by_walk(fp, delta)
        judged = len(recorder.deltas)
        _check_guards(store, recorder, footprints, eager)
    _check_guards(store, recorder, footprints, late)  # memoized signatures
    store.detach()


def test_a_signature_taken_before_its_subtree_changed_judges_as_the_walk():
    """Not vacuous: a reply whose call is answered later stops touching
    by the walk, not by its signature — and the later splice, which
    every reader that has not seen the first has not seen either,
    touches by both."""
    document = build_document(E("r", E("a", C("f", V("k")))))
    recorder = SpliceRecorder(document)
    footprint = LabelFootprint.from_pattern(
        TreePattern(pelem("r", pfunc(["g"], edge=EdgeKind.DESCENDANT)))
    )
    store = RelevanceStore(document)
    for holder in ("eager", "late"):
        store.hold(holder, footprint)
    document.replace_call(document.function_nodes()[0], [E("b", C("g", V("1")))])
    assert not store.untouched("eager", 0)  # judged: its signature taken
    (logged,) = store._log
    document.replace_call(document.function_nodes()[0], [E("c")])
    first, second = recorder.deltas
    assert footprint.touches(logged._signature)
    assert not touches_by_walk(footprint, first)  # g left the reply
    assert touches_by_walk(footprint, second)  # ... by the second splice
    for holder in ("eager", "late"):
        assert [store.untouched(holder, since) for since in range(3)] == [
            False, False, True
        ]
    store.detach()


# -- a store whose own splice raised --------------------------------------------


def test_a_store_whose_own_splice_raised_is_not_trusted(monkeypatch):
    """The mutation still raises, but the splice is logged as unknown:
    the next read is a whole pass equal to a fresh match, the guard
    reports a touch, and the splices after it are screened again."""
    from repro.axml.document import SpliceDelta
    from repro.lazy.answers import AnswerCache

    document = build_document(
        E("root", *(E("part", C("svc", V(str(i)))) for i in range(4)))
    )
    query = TreePattern(pelem("root", pelem("part", pfunc(["svc"], result=True))))
    cache = AnswerCache(query, document)
    cache.read()
    assert cache.is_current
    scope_ids_under = SpliceDelta.scope_ids_under

    def raise_once(delta, root):
        monkeypatch.setattr(SpliceDelta, "scope_ids_under", scope_ids_under)
        raise RuntimeError("scope ids failed")

    monkeypatch.setattr(SpliceDelta, "scope_ids_under", raise_once)
    with pytest.raises(RuntimeError, match="scope ids failed"):
        document.insert_subtree(document.root.children[0], C("svc", V("new")))
    assert not cache.is_current
    read = cache.read()
    assert read.verdict is Verdict.WHOLE
    assert _ids(read.rows) == _ids(WalkMatcher(query).evaluate(document).rows)
    assert len(read.rows) == 5 and cache.is_current
    document.insert_subtree(document.root.children[1], C("svc", V("more")))
    assert not cache.is_current
    read = cache.read()
    assert (read.verdict, read.scopes, len(read.rows)) == (Verdict.SCOPED, 1, 6)
    cache.detach()


# -- one answer state, one rows object ------------------------------------------


def test_a_read_that_changed_nothing_hands_back_the_same_rows():
    """Hits — and re-matches that found what the scope had — hand every
    reader the entry's one rows object, value rows derived once; a read
    that changed the entry hands out a new one, equal to a fresh match."""
    document = build_document(
        E("root", *(E("part", C("svc", V(str(i)))) for i in range(4)))
    )
    pattern = TreePattern(pelem("root", pelem("part", pfunc(["svc"], result=True))))
    store = RelevanceStore(document)
    store.hold("test")
    matcher = Matcher(pattern)

    def match(scope):
        return (
            matcher.evaluate(document)
            if scope is None
            else matcher.evaluate_scoped(document, scope)
        ).rows

    first = store.retrieve(pattern, match, "test")
    again = store.retrieve(pattern, match, "test")
    assert again.verdict is Verdict.HIT and again.rows is first.rows
    assert again.rows.value_set() is first.rows.value_set()
    document.insert_subtree(document.root.children[0], E("noise"))
    assert store.retrieve(pattern, match, "test").rows is first.rows
    document.insert_subtree(document.root, E("part"))  # a scope, still empty
    empty = store.retrieve(pattern, match, "test")
    assert (empty.verdict, empty.scopes) == (Verdict.SCOPED, 1)
    assert empty.rows is first.rows
    document.insert_subtree(document.root.children[1], C("svc", V("9")))
    changed = store.retrieve(pattern, match, "test")
    assert changed.verdict is Verdict.SCOPED and changed.rows is not first.rows
    assert _ids(changed.rows) == _ids(WalkMatcher(pattern).evaluate(document).rows)
    assert len(changed.rows) == 5
    store.detach()
