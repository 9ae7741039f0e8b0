"""Label index: label -> live node sets, maintained through splices.

Relevance analysis re-runs tree patterns over the document every NFQA
round; on large documents the dominant cost is *finding* the few nodes a
pattern step can touch.  In the dataguide tradition (and like the
F-guide of Section 6.2, which does the same for call extents), this
module trades one linear build pass for constant-time label lookup:

* ``labels``    — element/value label -> the live data nodes carrying it;
* ``functions`` — service name -> the live function nodes calling it.

The index subscribes to the :class:`~repro.axml.document.Document`
splice events, so after the build pass each mutation costs time
proportional to the *delta* (the removed call plus the spliced-in
forest), never to the document.  The matcher consults it to enumerate
descendant-step candidates (``repro.pattern.match``), and the
relevance store (``repro.lazy.incremental``) uses the same deltas to
decide which depth-1 subtrees a query must re-match.
"""

from __future__ import annotations

from typing import Iterator, Optional

from .document import Document, SpliceDelta
from .node import Node


class LabelIndex:
    """Live node sets per label, kept in sync via the observer hook.

    ``arena`` (a :class:`~repro.axml.arena.DocumentArena` mirroring the
    same document) lets :meth:`rebuild` fill the buckets from one loop
    over the int columns instead of an object traversal — same buckets,
    built without touching node objects except to store them.
    """

    def __init__(self, document: Document, arena: Optional[object] = None) -> None:
        self.document = document
        self.arena = arena
        self.labels: dict[str, dict[int, Node]] = {}
        self.functions: dict[str, dict[int, Node]] = {}
        self.splices_applied = 0
        """Deltas absorbed since the last full build (maintenance work
        figure for the experiments)."""
        self.rebuild()
        document.add_observer(self)

    def detach(self) -> None:
        """Stop observing the document (the index goes stale)."""
        self.document.remove_observer(self)

    # -- construction / maintenance ----------------------------------------

    def rebuild(self) -> None:
        """One document-order traversal (linear time).

        With an arena attached (and still mirroring this document) the
        traversal is replaced by a column sweep.
        """
        self.splices_applied = 0
        arena = self.arena
        if (
            arena is not None
            and getattr(arena, "document", None) is self.document
            and arena.slot_for(self.document.root) is not None
        ):
            self.labels, self.functions = arena.rebuild_index_buckets()
            return
        self.labels = {}
        self.functions = {}
        for node in self.document.iter_nodes():
            self._add(node)

    def _add(self, node: Node) -> None:
        assert node.node_id is not None
        bucket = self.functions if node.is_function else self.labels
        bucket.setdefault(node.label, {})[node.node_id] = node

    def _remove(self, node: Node) -> None:
        if node.node_id is None:
            return
        bucket = self.functions if node.is_function else self.labels
        members = bucket.get(node.label)
        if members is not None:
            members.pop(node.node_id, None)
            if not members:
                del bucket[node.label]

    # DocumentObserver protocol ---------------------------------------------

    def call_removed(self, document: Document, node: Node) -> None:
        """Covered by :meth:`splice`; kept for protocol completeness."""

    def calls_added(self, document: Document, nodes: list[Node]) -> None:
        """Covered by :meth:`splice`; kept for protocol completeness."""

    def splice(self, document: Document, delta: SpliceDelta) -> None:
        self.splices_applied += 1
        for node in delta.iter_removed():
            self._remove(node)
        for node in delta.iter_added():
            self._add(node)

    # -- lookups -------------------------------------------------------------

    def data_nodes(self, label: str) -> list[Node]:
        """Live data (element/value) nodes carrying ``label``."""
        return list(self.labels.get(label, {}).values())

    def function_nodes(self, name: Optional[str] = None) -> list[Node]:
        """Live function nodes for one service (or all of them)."""
        if name is not None:
            return list(self.functions.get(name, {}).values())
        out: list[Node] = []
        for members in self.functions.values():
            out.extend(members.values())
        return out

    def iter_label(self, label: str) -> Iterator[Node]:
        return iter(self.labels.get(label, {}).values())

    # -- measurements --------------------------------------------------------

    def node_count(self) -> int:
        """Live nodes currently indexed (should equal the document's)."""
        return sum(len(m) for m in self.labels.values()) + sum(
            len(m) for m in self.functions.values()
        )

    def distinct_labels(self) -> int:
        return len(self.labels) + len(self.functions)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LabelIndex(nodes={self.node_count()}, "
            f"labels={self.distinct_labels()}, "
            f"splices={self.splices_applied})"
        )
