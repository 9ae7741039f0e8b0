"""Call-result memoization.

The simulated concurrency model — online list scheduling of a round's
calls onto its workers — lives with the one retry loop, on
:class:`~repro.services.registry.InvocationRound`.  What is left here
is the other half of cheap repeated invocation:

:class:`CallCache` memoizes call *results*, keyed by service name plus
a digest of the argument forest (and the pushed subquery, if any).
Duplicate calls across rounds and across pushed subqueries hit the
cache instead of the network model: zero simulated time, nothing
logged.  Entries carry an optional TTL on the *simulated* clock and
can be invalidated explicitly when the document (or the world behind
a service) changes.  The cache assumes services are functions of
their parameters — exactly the property the synthetic worlds and the
declarative catalogues guarantee — and is therefore opt-in.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Optional, Sequence

from ..axml.node import Node
from ..axml.xmlio import serialize
from ..kept import Bounded
from .service import CallReply

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .registry import ServiceCall


def forest_digest(parameters: Sequence[Node]) -> str:
    """A stable digest of an argument forest (order-sensitive)."""
    hasher = hashlib.sha256()
    for parameter in parameters:
        if parameter.is_value:
            hasher.update(b"v:")
            hasher.update(parameter.label.encode("utf-8"))
        else:
            hasher.update(b"t:")
            hasher.update(serialize(parameter).encode("utf-8"))
        hasher.update(b"\x00")
    return hasher.hexdigest()


def cache_key(call: "ServiceCall") -> str:
    """The memoization key: service + argument digest + push shape."""
    pushed = call.pushed.to_string() if call.pushed is not None else ""
    return "|".join(
        (
            call.service,
            forest_digest(call.parameters),
            pushed,
            call.push_mode.value,
            call.anchor_edge.name,
        )
    )


#: Replies one :class:`CallCache` keeps; the least recently stored
#: leaves first (inside a round, calls store out of clock order).
MAX_ENTRIES = 10_000


class CallCache:
    """Memoized call replies, keyed by :func:`cache_key`.

    Stored replies are cloned both on the way in and on the way out:
    the engine splices reply forests into live documents, so sharing
    trees between the cache and a document would corrupt later hits.

    ``ttl_s`` is measured on the simulated clock (``None`` = no
    expiry).  :meth:`invalidate` drops everything (or one service's
    entries) — the hook for document updates and changing worlds.
    """

    def __init__(self, ttl_s: Optional[float] = None) -> None:
        if ttl_s is not None and ttl_s <= 0:
            raise ValueError("ttl_s must be positive (or None)")
        self.ttl_s = ttl_s
        self._entries = Bounded(MAX_ENTRIES)
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.invalidations = 0

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key: str, now_s: float) -> Optional[CallReply]:
        """A fresh clone of the memoized reply, or None (miss/expired)."""
        reply, stored_at_s = self._entries.get(key, (None, None))
        if reply is None:
            self.misses += 1
            return None
        if self.ttl_s is not None and now_s - stored_at_s > self.ttl_s:
            del self._entries[key]
            self.misses += 1
            return None
        self.hits += 1
        return _clone_reply(reply)

    def store(self, key: str, reply: CallReply, now_s: float) -> None:
        self._entries.put(key, (_clone_reply(reply), now_s))
        self.stores += 1

    def invalidate(self, service: Optional[str] = None) -> int:
        """Drop all entries (or one service's); returns how many."""
        prefix = "" if service is None else f"{service}|"
        stale = [key for key in self._entries if key.startswith(prefix)]
        for key in stale:
            del self._entries[key]
        self.invalidations += len(stale)
        return len(stale)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CallCache(entries={len(self._entries)}, hits={self.hits}, "
            f"misses={self.misses})"
        )


def _clone_reply(reply: CallReply) -> CallReply:
    return CallReply(
        forest=[tree.clone() for tree in reply.forest],
        bindings=list(reply.bindings) if reply.bindings is not None else None,
        pushed=reply.pushed,
        push_mode=reply.push_mode,
        nodes=reply.nodes,
    )
