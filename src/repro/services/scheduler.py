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

import dataclasses
import hashlib
from typing import TYPE_CHECKING, Optional, Sequence

from ..axml.node import Node
from ..axml.xmlio import serialize
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


@dataclasses.dataclass
class _CacheEntry:
    reply: CallReply
    stored_at_s: float


class CallCache:
    """Memoized call replies, keyed by :func:`cache_key`.

    Stored replies are cloned both on the way in and on the way out:
    the engine splices reply forests into live documents, so sharing
    trees between the cache and a document would corrupt later hits.

    ``ttl_s`` is measured on the simulated clock (``None`` = no
    expiry).  :meth:`invalidate` drops everything (or one service's
    entries) — the hook for document updates and changing worlds.
    """

    def __init__(
        self, ttl_s: Optional[float] = None, max_entries: int = 10_000
    ) -> None:
        if ttl_s is not None and ttl_s <= 0:
            raise ValueError("ttl_s must be positive (or None)")
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.ttl_s = ttl_s
        self.max_entries = max_entries
        self._entries: dict[str, _CacheEntry] = {}
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.invalidations = 0

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key: str, now_s: float) -> Optional[CallReply]:
        """A fresh clone of the memoized reply, or None (miss/expired)."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        if self.ttl_s is not None and now_s - entry.stored_at_s > self.ttl_s:
            del self._entries[key]
            self.misses += 1
            return None
        self.hits += 1
        return _clone_reply(entry.reply)

    def store(self, key: str, reply: CallReply, now_s: float) -> None:
        if len(self._entries) >= self.max_entries and key not in self._entries:
            # Evict the stalest entry; a bounded cache must not grow
            # without limit under adversarial workloads.
            oldest = min(
                self._entries, key=lambda k: self._entries[k].stored_at_s
            )
            del self._entries[oldest]
        self._entries[key] = _CacheEntry(
            reply=_clone_reply(reply), stored_at_s=now_s
        )
        self.stores += 1

    def invalidate(self, service: Optional[str] = None) -> int:
        """Drop all entries (or one service's); returns how many."""
        if service is None:
            dropped = len(self._entries)
            self._entries.clear()
        else:
            prefix = f"{service}|"
            stale = [k for k in self._entries if k.startswith(prefix)]
            for key in stale:
                del self._entries[key]
            dropped = len(stale)
        self.invalidations += dropped
        return dropped

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
