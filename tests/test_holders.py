"""No holder outlives its owner.

A standing query holds two things the process or the document keeps
beyond it: its shape's analysis, in the process-wide table
(``repro.lazy.analysis._analyses``), and a hold on the document's
relevance store, which is among the document's observers while anyone
holds it.  ``cancel()``, a server's ``close()`` and the collection of a
subscription nobody can reach any more all run one release path.

Held here over random sequences of ``QueryServer`` subscribes,
``repro.subscribe`` subscribes (each on a private server), refreshes,
rounds, cancels, server closes, dropped handles (then
``gc.collect()``) and one-shot ``repro.evaluate`` runs, all on one
document: after every step the document's observers, the store's
holders and the held analyses are exactly what the live subscriptions
need, and so are each reachable server's own tables (its subscriptions,
its entry for the document and the quiet verdicts kept there).  A
subscription is live while it is not cancelled and its server is
reachable — through a kept server reference, or through a kept
handle of any of the server's subscriptions (a handle reaches its
server).
"""

from __future__ import annotations

import collections
import dataclasses
import gc
import weakref
from typing import Optional

from hypothesis import example, given, strategies as st

import repro
from repro.axml.arena import DocumentArena
from repro.axml.builder import C, E, V, build_document
from repro.lazy import analysis as analyses
from repro.lazy.incremental import RelevanceStore
from repro.serve import QueryServer
from repro.services.catalog import StaticService

#: Four shapes: two twins of one text make the store count a holder
#: twice, and a one-shot run of any text acquires a held analysis or
#: a new one.
TEXTS = ("/r/a/x/$v", "/r//x/$v", "/r/b/x/$v", "/r/c[x]/x/$v")


def _services():
    return [
        StaticService("f", [E("x", V("1")), C("g")]),
        StaticService("g", [E("x", V("2"))]),
    ]


def _document():
    return build_document(
        E(
            "r",
            E("a", C("f")),
            E("b", C("g")),
            E("c", E("x", V("0"))),
        )
    )


@dataclasses.dataclass
class _Made:
    """One subscription and what the test still holds of it."""

    server: int  # which server hosts it
    ref: weakref.ref
    handle: Optional[object]
    cancelled: bool = False


class _Session:
    def __init__(self) -> None:
        self.document = _document()
        self.made: list[_Made] = []
        self.servers = 0
        self.shared: Optional[QueryServer] = None
        self.shared_id = -1

    def reachable(self) -> set[int]:
        held = {m.server for m in self.made if m.handle is not None}
        if self.shared is not None:
            held.add(self.shared_id)
        return held

    def live(self) -> list[_Made]:
        reachable = self.reachable()
        return [m for m in self.made if not m.cancelled and m.server in reachable]

    def subscribe(self, text: str, shared: bool, eager: bool) -> None:
        if shared:
            if self.shared is None:
                self.shared = QueryServer(_services())
                self.shared_id = self._server_id()
            sub = self.shared.subscribe(text, self.document, eager=eager)
            server = self.shared_id
        else:
            sub = repro.subscribe(
                text, self.document, services=_services(), eager=eager
            )
            server = self._server_id()
        self.made.append(_Made(server, weakref.ref(sub), sub))

    def _server_id(self) -> int:
        self.servers += 1
        return self.servers

    def held(self) -> list[_Made]:
        return [m for m in self.made if m.handle is not None]

    def check(self) -> None:
        live = self.live()
        # What the test holds no way to reach is collected.
        reachable = self.reachable()
        for made in self.made:
            if made.server not in reachable:
                assert made.ref() is None, "an unreachable subscription lives"
        observers = self.document._observers
        assert sum(type(o) is DocumentArena for o in observers) <= 1
        others = [type(o) for o in observers if type(o) is not DocumentArena]
        store = self.document.relevance
        if live:
            assert others == [RelevanceStore] and store in observers
            holders = {
                key: slot[1] for key, slot in store._holders._slots.items()
            }
            needed = collections.Counter(
                m.ref()._core.analysis for m in live
            )
            assert holders == dict(needed)
        else:
            assert others == [] and store is None
        assert len(analyses._analyses) == len(
            {m.ref()._core.analysis for m in live}
        )
        for server in self.servers_reachable():
            self.check_server(server, [m for m in live if m.ref()._server is server])

    def servers_reachable(self) -> list[QueryServer]:
        servers = {id(m.handle._server): m.handle._server for m in self.held()}
        if self.shared is not None:
            servers[id(self.shared)] = self.shared
        return list(servers.values())

    def check_server(self, server: QueryServer, live: list[_Made]) -> None:
        """The server's own tables hold what its live subscriptions on
        the document need: the document's entry while one stands, its
        subscriptions, and quiet verdicts of their analyses only."""
        subs = {m.ref().id for m in live}
        assert set(server._subs) == subs
        if not live:
            assert server._docs == {}
            return
        assert list(server._docs) == [id(self.document)]
        served = server._docs[id(self.document)]
        assert set(served.subs) == subs
        assert set(served.verdicts) <= {m.ref()._core.analysis for m in live}


SUBSCRIBE = st.tuples(
    st.just("subscribe"), st.sampled_from(TEXTS), st.booleans(), st.booleans()
)
#: Subscribes weigh double, so several subscriptions often stand at once.
STEPS = st.one_of(
    SUBSCRIBE,
    SUBSCRIBE,
    st.tuples(st.just("refresh"), st.integers(0, 15)),
    st.tuples(st.just("round"), st.integers(0, 15)),
    st.tuples(st.just("cancel"), st.integers(0, 15)),
    st.tuples(st.just("drop"), st.integers(0, 15)),
    st.tuples(st.just("evaluate"), st.sampled_from(TEXTS)),
    st.tuples(st.just("close"),),
    st.tuples(st.just("drop-server"),),
    st.tuples(st.just("insert"),),
)


@given(steps=st.lists(STEPS, min_size=1, max_size=16))
# Two shapes probed quiet in one round, then one cancelled: its verdict
# goes with it.
@example(
    steps=[
        ("subscribe", "/r/b/x/$v", True, True),
        ("subscribe", "/r/a/x/$v", True, True),
        ("insert",),
        ("round", 0),
        ("cancel", 0),
    ]
)
def test_holders_are_what_the_live_subscriptions_need(steps):
    session = _Session()
    for step in steps:
        kind = step[0]
        held = session.held()
        if kind == "subscribe":
            session.subscribe(*step[1:])
        elif kind in ("refresh", "round", "cancel", "drop") and held:
            made = held[step[1] % len(held)]
            if kind == "refresh" and not made.cancelled:
                made.handle.refresh()
            elif kind == "round":
                made.handle._server.run_round()
            elif kind == "cancel":
                made.handle.cancel()
                made.cancelled = True
            elif kind == "drop":
                made.handle = None
                gc.collect()
        elif kind == "evaluate":
            repro.evaluate(step[1], session.document, services=_services())
        elif kind == "close" and session.shared is not None:
            session.shared.close()
            for made in session.made:
                if made.server == session.shared_id:
                    made.cancelled = True
        elif kind == "drop-server":
            session.shared = None
            gc.collect()
        elif kind == "insert":
            document = session.document
            document.insert_subtree(
                document.root.children[0], E("x", C("g"))
            )
        session.check()
    # Every way out at once: what is left is cancelled or dropped.
    for made in session.held():
        if made.server % 2:
            made.handle.cancel()
            made.cancelled = True
        made.handle = None
    session.shared = None
    gc.collect()
    session.check()
    assert len(analyses._analyses) == 0
    assert session.document.relevance is None


def test_a_dropped_subscription_leaves_as_cancel_does():
    """``del`` plus a collection leaves the document as ``cancel()``
    does: only the arena observes it, and no analysis is held."""
    observers = []
    for leave in ("cancel", "del"):
        document = build_document(E("r", E("x", V("1")), E("x", V("2"))))
        sub = repro.subscribe("/r/x/$v", document, services={})
        assert {type(o) for o in document._observers} == {
            DocumentArena,
            RelevanceStore,
        }
        if leave == "cancel":
            sub.cancel()
        del sub
        gc.collect()
        observers.append([type(o) for o in document._observers])
        assert document.relevance is None and len(analyses._analyses) == 0
    assert observers == [[DocumentArena], [DocumentArena]]
