"""Tests for delta-driven answer maintenance (``repro.lazy.answers``:
one reader of the document's store) and the scoped-matching primitives
it is built on."""

import pytest

from repro.axml.builder import E, V, build_document
from repro.axml.node import call, element, value
from repro.lazy.answers import AnswerCache
from repro.pattern.match import Matcher, MatchSet
from repro.pattern.nodes import pelem
from repro.pattern.parse import parse_pattern
from repro.pattern.pattern import TreePattern

from .references import WalkMatcher


def make_library():
    return build_document(
        E(
            "lib",
            E(
                "shelf",
                E("book", E("tag", V("x")), E("title", V("a"))),
                E("book", E("tag", V("y")), E("title", V("b"))),
            ),
            E("shelf", E("book", E("tag", V("x")), E("title", V("c")))),
            E("box", E("book", E("tag", V("x")), E("title", V("d")))),
        )
    )


def row_keys(match_set):
    return {MatchSet.row_key(row) for row in match_set.rows}


# -- scoped matching ---------------------------------------------------------


@pytest.mark.parametrize(
    "query_text",
    [
        '/lib/shelf/book[tag="x"]/title/$T',
        '/lib//book[tag="x"]/title/$T',
        "/lib//title/$T",
    ],
)
def test_scoped_results_compose_to_the_full_result(query_text):
    """What the scope-partitioned store stands on: the scoped results
    over all root children union to the full result, and — a result
    node sitting below the root — no row belongs to two scopes."""
    document = make_library()
    query = parse_pattern(query_text)
    full = WalkMatcher(query).evaluate(document)
    matcher = Matcher(query)
    scoped = [
        row_keys(matcher.evaluate_scoped(document, child))
        for child in document.root.children
    ]
    assert sum(len(keys) for keys in scoped) == len(full)  # disjoint
    assert set().union(*scoped) == row_keys(full)


def test_scoped_evaluation_rejects_non_root_children():
    document = make_library()
    matcher = Matcher(parse_pattern("/lib//title/$T"))
    deep = document.root.children[0].children[0]  # a book, depth 2
    with pytest.raises(ValueError):
        matcher.evaluate_scoped(document, deep)


def test_scope_does_not_leak_into_later_evaluations():
    document = make_library()
    query = parse_pattern("/lib//title/$T")
    matcher = Matcher(query)
    matcher.evaluate_scoped(document, document.root.children[0])
    # A later full evaluation sees the whole document again.
    assert (
        matcher.evaluate(document).value_rows()
        == WalkMatcher(query).evaluate(document).value_rows()
    )


# -- SpliceDelta geometry ----------------------------------------------------


class _DeltaLog:
    def __init__(self, document):
        self.deltas = []
        document.add_observer(self)

    def splice(self, document, delta):
        self.deltas.append(delta)


def test_scope_under_finds_the_depth_one_attachment():
    document = make_library()
    log = _DeltaLog(document)
    shelf = document.root.children[0]
    book = shelf.children[0]
    document.insert_subtree(book, element("note", value("fine")))
    assert log.deltas[-1].scope_under(document.root) is shelf
    # Directly under the root there is no depth-1 container.
    document.insert_subtree(document.root, element("shelf"))
    assert log.deltas[-1].scope_under(document.root) is None
    # Removing a depth-1 subtree: parent *is* the root.
    document.remove_subtree(document.root.children[-1])
    assert log.deltas[-1].scope_under(document.root) is None


# -- the document's touch map --------------------------------------------------


def test_tracker_records_external_call_insertions_only():
    """The tracker is the document's own ``authored_calls`` map."""
    document = make_library()
    document.insert_subtree(document.root, element("shelf"))
    assert document.authored_calls == {}  # data only
    document.insert_subtree(document.root, call("getBooks", value("k")))
    assert document.authored_calls == {"getBooks": document.version}
    # Invocation-produced splices are engine bookkeeping, not a signal
    # that the world behind a service changed: no touch for either the
    # invoked call leaving or the produced call arriving.
    call_node = document.root.children[-1]
    touched = dict(document.authored_calls)
    document.replace_call(call_node, [call("getMore", value("k2"))])
    assert document.authored_calls == touched
    # A produced call later *removed* is still not an external re-ask,
    # nor is putting it back: it stays some invocation's product.
    produced = document.remove_subtree(document.root.children[-1])
    document.insert_subtree(document.root, produced)
    assert document.authored_calls == touched


def test_tracker_drain_resets():
    """A standing query hands the bus the touches newer than its last
    refresh, once: what one refresh flushed the next does not."""
    from repro.lazy.config import EngineConfig
    from repro.lazy.continuous import ContinuousQuery
    from repro.lazy.engine import LazyQueryEvaluator
    from repro.services.catalog import TableService
    from repro.services.registry import ServiceBus, ServiceRegistry

    document = make_library()
    # Predates the first outcome: never handed over.
    document.insert_subtree(document.root, call("getOld", value("k")))
    bus = ServiceBus(
        ServiceRegistry(
            [TableService(name, {}, default=[]) for name in ("getOld", "getBooks")]
        )
    )
    handed = []
    bus.invalidate_cache_scoped = lambda doc, touched: handed.append(touched)
    standing = ContinuousQuery(
        LazyQueryEvaluator(bus, config=EngineConfig()),
        parse_pattern(QUERY),
        document,
    )
    assert handed == []
    document.insert_subtree(document.root, call("getBooks", value("k")))
    version = document.version
    standing.refresh()
    assert handed == [{"getBooks": version}]
    document.insert_subtree(document.root, element("shelf"))
    standing.refresh()
    assert handed[1:] == [{}]
    standing.close()


# -- AnswerCache -------------------------------------------------------------

QUERY = '/lib/shelf/book[tag="x"]/title/$T'


def oracle_rows(document, query):
    return WalkMatcher(query).evaluate(document).value_rows()


def test_cache_seeds_then_serves_hits():
    document = make_library()
    query = parse_pattern(QUERY)
    cache = AnswerCache(query, document)
    assert not cache.seeded
    rows = cache.rows()
    assert rows.value_rows() == {("a",), ("c",)}
    assert cache.full_matches == 1
    cache.rows()
    assert cache.full_matches == 1
    assert cache.hits == 1
    assert cache.is_current
    cache.detach()


def test_the_seed_is_one_whole_pass_partitioned_by_scope():
    """One plan run seeds every scope of the store's entry; a query
    whose sole result node is the pattern root — its one row straddles
    every scope with an embedding — has no anchor, and stays correct by
    whole passes as scopes leave."""
    document = make_library()
    cache = AnswerCache(parse_pattern(QUERY), document)
    assert cache.scoped
    seeded = cache.rows()
    assert cache.counter.evaluations == 1
    assert sorted(MatchSet.row_key(r) for r in seeded) == sorted(
        MatchSet.row_key(r)
        for child in document.root.children
        for r in cache.matcher.evaluate_scoped(document, child)
    )
    (entry,) = document.relevance._entries.values()
    assert len(entry.rows) == 2  # the two shelves with rows
    cache.detach()

    straddling = TreePattern(
        pelem("lib", pelem("shelf", pelem("book")), result=True)
    )
    cache = AnswerCache(straddling, document)
    assert not cache.scoped
    assert len(cache.rows()) == 1
    assert cache.counter.evaluations == 1
    for shelf in list(document.root.children[:2]):
        document.remove_subtree(shelf)
        expected = len(WalkMatcher(straddling).evaluate(document))
        assert len(cache.rows()) == expected
    assert cache.full_matches == 3 and cache.scope_rematches == 0
    cache.detach()


def test_guard_screen_dismisses_disjoint_splices():
    document = make_library()
    query = parse_pattern(QUERY)
    cache = AnswerCache(query, document)
    cache.rows()
    document.insert_subtree(
        document.root.children[2], element("misc", value("z"))
    )
    assert cache.is_current  # provably unchanged: no re-match needed
    assert cache.screens == 1
    cache.detach()


def test_twins_share_the_entry_the_guard_and_one_observer(monkeypatch):
    """Two readers behind one analysis: the second reads what the
    first matched, a splice is judged once between them, each keeps its
    own bookmark — and the document gains no observer per reader."""
    from repro.lazy.analysis import QueryAnalysis
    from repro.lazy.incremental import LabelFootprint

    document = make_library()
    analysis = QueryAnalysis(parse_pattern(QUERY))
    first = AnswerCache(parse_pattern(QUERY), document, analysis=analysis)
    observers = len(document._observers)
    second = AnswerCache(parse_pattern(QUERY), document, analysis=analysis)
    assert len(document._observers) == observers
    store = document.relevance
    assert first.rows().value_rows() == second.rows().value_rows()
    assert (first.full_matches, second.full_matches) == (1, 0)
    assert second.hits == 1 and second._matcher is None
    assert len(store._entries) == len(store._guards) == 1
    held = store._holders[analysis]
    assert list(held) == [analysis.query]  # one slot between the twins

    judged = []
    touches = LabelFootprint.touches
    monkeypatch.setattr(
        LabelFootprint,
        "touches",
        lambda self, delta: (
            judged.append(delta) if self is analysis.guard() else None
        )
        or touches(self, delta),
    )
    shelf = document.root.children[0]
    document.insert_subtree(
        shelf, element("book", element("tag", value("x")),
                       element("title", value("e")))
    )
    assert not first.is_current and not second.is_current
    assert len(judged) == 1
    assert ("e",) in first.rows().value_rows()
    assert first.is_current and not second.is_current  # own bookmarks
    assert (first.scope_rematches, second.scope_rematches) == (1, 0)
    assert ("e",) in second.rows().value_rows()
    assert second.is_current and second.scope_rematches == 0
    first.detach()
    assert document.relevance is store and len(store._entries) == 1
    second.detach()
    second.detach()  # idempotent
    assert document.relevance is None and len(store._entries) == 0
    assert len(store._guards) == 0


def test_a_lagging_guard_reports_a_touch(monkeypatch):
    """A guard ``LOG_LIMIT`` splices behind is not judged against a log
    that was cut: it reports a touch, and the engine runs."""
    from repro.lazy.incremental import RelevanceStore

    monkeypatch.setattr(RelevanceStore, "LOG_LIMIT", 3)
    document = make_library()
    cache = AnswerCache(parse_pattern(QUERY), document)
    cache.rows()
    box = document.root.children[2]
    for step in range(8):  # all disjoint from the guard
        document.insert_subtree(box, element("misc", value(str(step))))
    assert len(document.relevance._log) <= 3
    assert not cache.is_current
    assert cache.rows().value_rows() == {("a",), ("c",)}
    assert cache.is_current
    cache.detach()


def test_dirty_scope_rematch_tracks_the_oracle():
    document = make_library()
    query = parse_pattern(QUERY)
    cache = AnswerCache(query, document)
    cache.rows()
    shelf = document.root.children[1]
    document.insert_subtree(
        shelf, element("book", element("tag", value("x")),
                       element("title", value("e")))
    )
    assert not cache.is_current
    rows = cache.rows()
    assert rows.value_rows() == oracle_rows(document, query) == {
        ("a",), ("c",), ("e",)
    }
    assert cache.full_matches == 1  # only the seed was a full match
    assert cache.scope_rematches == 1
    cache.detach()


def test_root_level_splices_dirty_the_new_and_gone_scopes():
    document = make_library()
    query = parse_pattern(QUERY)
    cache = AnswerCache(query, document)
    cache.rows()
    document.insert_subtree(
        document.root,
        element("shelf", element("book", element("tag", value("x")),
                                 element("title", value("f")))),
    )
    assert cache.rows().value_rows() == oracle_rows(document, query)
    document.remove_subtree(document.root.children[0])  # drops a and b
    assert cache.rows().value_rows() == oracle_rows(document, query) == {
        ("c",), ("f",)
    }
    assert cache.full_matches == 1
    cache.detach()


def test_answer_screened_relevance_touch_is_still_a_row_hit():
    # A new call node defeats the guard (the engine must run) but not
    # the answer footprint (no row can have changed): the final match
    # is served from the cache untouched.
    document = make_library()
    query = parse_pattern(QUERY)
    cache = AnswerCache(query, document)
    cache.rows()
    document.insert_subtree(document.root, call("getBooks", value("k")))
    assert not cache.is_current  # the engine may now have work
    before = cache.hits
    rows = cache.rows()
    assert cache.hits == before + 1
    assert cache.scope_rematches == 0
    assert rows.value_rows() == {("a",), ("c",)}
    cache.detach()


def test_multi_child_roots_fall_back_to_full_rematches():
    document = make_library()
    query = parse_pattern("/lib[box]/shelf/book/title/$T")
    assert len(query.root.children) > 1
    cache = AnswerCache(query, document)
    cache.rows()
    shelf = document.root.children[0]
    document.insert_subtree(
        shelf, element("book", element("title", value("g")))
    )
    assert cache.rows().value_rows() == oracle_rows(document, query)
    assert cache.full_matches == 2  # honest full re-match, still screened
    cache.detach()


def test_any_call_relevant_widens_the_guard():
    """A reader reads what its guard screens off its analysis's config:
    under ``NAIVE`` every call is relevant."""
    from repro.lazy.analysis import QueryAnalysis
    from repro.lazy.config import EngineConfig

    document = make_library()
    query = parse_pattern(QUERY)
    naive = QueryAnalysis(query, EngineConfig(strategy="naive"))
    strict = AnswerCache(query, document, analysis=naive)
    strict.rows()
    # The tag="y" book query would never look at this call's position,
    # but under NAIVE every call is invoked: the guard must not screen.
    document.insert_subtree(
        document.root.children[2], call("getAnything")
    )
    assert not strict.is_current
    assert strict.screens == 0
    strict.detach()


def test_removal_and_reinsertion_round_trips():
    document = make_library()
    query = parse_pattern(QUERY)
    cache = AnswerCache(query, document)
    baseline = cache.rows().value_rows()
    shelf = document.root.children[0]
    book = shelf.children[0]  # the tag=x/title=a book
    removed = document.remove_subtree(book)
    assert cache.rows().value_rows() == oracle_rows(document, query)
    document.insert_subtree(shelf, removed, position=0)
    assert cache.rows().value_rows() == oracle_rows(document, query)
    assert cache.rows().value_rows() == baseline
    cache.detach()
