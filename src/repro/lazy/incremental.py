"""Relevance under splices: label footprints + scope-partitioned sets.

Every NFQA round re-evaluates the layer's relevance queries, yet a
round changes the document by one splice (or one batch): the invoked
call leaves, its result forest enters.  This module keeps that work
proportional to the change:

* :class:`LabelFootprint` — the set of node tests a pattern can apply:
  concrete element/value labels, service names and wildcard tests, each
  optionally narrowed by the label of the parent the test hangs under
  (child edges only — a descendant edge can land anywhere).  A splice
  whose nodes no test accepts changes no embedding of the pattern.

* :class:`RelevanceStore` — a :class:`~repro.axml.document.Document`
  observer keeping each relevance query's retrieved calls partitioned
  by depth-1 document subtree, so a retrieval re-matches only the
  subtrees its splices fell in.

``docs/internals.md`` ("Relevance under splices") has the soundness
argument for both.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, Mapping, Optional, TypeVar

from ..axml.document import Document, SpliceDelta
from ..axml.node import Node
from ..pattern.nodes import EdgeKind, PatternKind, PatternNode
from ..pattern.pattern import TreePattern

T = TypeVar("T")


class LabelFootprint:
    """The node tests a pattern can apply, keyed for delta screening.

    Two tables map a *test label* to the set of parent labels the test
    may fire under: ``None`` as a test label is a wildcard (star or
    variable nodes; the star function node), ``None`` as a parent set
    means "any parent" (descendant edges, or a child edge under a
    non-constant parent).
    """

    __slots__ = ("_data", "_functions")

    def __init__(self) -> None:
        self._data: dict[Optional[str], Optional[set[str]]] = {}
        self._functions: dict[Optional[str], Optional[set[str]]] = {}

    # -- construction --------------------------------------------------------

    @classmethod
    def from_pattern(cls, pattern: TreePattern) -> "LabelFootprint":
        footprint = cls()
        root = pattern.root
        # The pattern root maps only to the document root, which no
        # splice ever adds or removes — its own test needs no entry.
        root_label = (
            root.label if root.kind is PatternKind.ELEMENT else None
        )
        for child in root.children:
            footprint._add(child, child.edge, root_label)
        return footprint

    def _add(
        self,
        node: PatternNode,
        edge: EdgeKind,
        parent_label: Optional[str],
    ) -> None:
        if node.is_or:
            # Alternatives occupy the OR's position: same edge, same
            # effective parent.
            for alt in node.children:
                self._add(alt, edge, parent_label)
            return
        constraint = parent_label if edge is EdgeKind.CHILD else None
        if node.kind is PatternKind.FUNCTION:
            if node.function_names is None:
                self._note(self._functions, None, constraint)
            else:
                for name in node.function_names:
                    self._note(self._functions, name, constraint)
        elif node.kind in (PatternKind.ELEMENT, PatternKind.VALUE):
            self._note(self._data, node.label, constraint)
        else:  # STAR / VARIABLE match any data node
            self._note(self._data, None, constraint)
        own_label = node.label if node.kind is PatternKind.ELEMENT else None
        for child in node.children:
            self._add(child, child.edge, own_label)

    def update(self, other: "LabelFootprint") -> None:
        """Widen this footprint to also cover ``other`` (set union of
        tests, parent constraints merged per test — ``None`` absorbs).

        Builds the answer cache's guard: a splice disjoint from the
        union is disjoint from every member.
        """
        for mine, theirs in (
            (self._data, other._data),
            (self._functions, other._functions),
        ):
            for key, parents in theirs.items():
                if parents is None:
                    mine[key] = None
                else:
                    for constraint in parents:
                        self._note(mine, key, constraint)

    def note_any_function(self) -> None:
        """Widen: any function node, under any parent, now touches the
        footprint.  The answer-maintenance guard uses this for the
        strategies whose relevance criterion is "every call counts"
        (NAIVE materialises everything), where a screened splice must
        still never hide an added call."""
        self._functions[None] = None

    @staticmethod
    def _note(
        table: dict[Optional[str], Optional[set[str]]],
        key: Optional[str],
        constraint: Optional[str],
    ) -> None:
        if key in table:
            parents = table[key]
            if parents is not None:
                if constraint is None:
                    table[key] = None
                else:
                    parents.add(constraint)
        else:
            table[key] = None if constraint is None else {constraint}

    # -- screening ------------------------------------------------------------

    def touches(self, delta: SpliceDelta) -> bool:
        """Could this splice change the pattern's result? (May say yes
        spuriously; never says no wrongly — see the module docstring.)"""
        for root in delta.added:
            for node in root.iter_subtree():
                if self.touches_node(node, node.parent):
                    return True
        for root in delta.removed:
            # Detached roots lost their parent pointer; the delta
            # remembers where they hung.
            if self.touches_node(root, delta.parent):
                return True
            for node in root.iter_subtree():
                if node is not root and self.touches_node(
                    node, node.parent
                ):
                    return True
        return False

    def touches_node(self, node: Node, parent: Optional[Node]) -> bool:
        """Does any test of the footprint accept this document node?"""
        table = self._functions if node.is_function else self._data
        if not table:
            return False
        parent_label = parent.label if parent is not None else None
        for key in (node.label, None):
            if key not in table:
                continue
            parents = table[key]
            if parents is None:
                return True
            if parent_label is not None and parent_label in parents:
                return True
        return False

    # -- introspection (tests / reports) ---------------------------------------

    @property
    def data_labels(self) -> frozenset[str]:
        """Concrete element/value labels the pattern tests."""
        return frozenset(k for k in self._data if k is not None)

    @property
    def function_names(self) -> frozenset[str]:
        """Concrete service names the pattern tests."""
        return frozenset(k for k in self._functions if k is not None)

    @property
    def matches_any_data(self) -> bool:
        """Does a wildcard (star/variable) test appear?"""
        return None in self._data

    @property
    def matches_any_function(self) -> bool:
        """Does a star function test ``()`` appear?"""
        return None in self._functions

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LabelFootprint(data={sorted(self.data_labels)}"
            f"{'+*' if self.matches_any_data else ''}, "
            f"functions={sorted(self.function_names)}"
            f"{'+*' if self.matches_any_function else ''})"
        )


def partition_by_scope(
    root: Node, items: Iterable[T], anchor: Callable[[T], Node]
) -> dict[int, list[T]]:
    """Group ``items`` by the depth-1 subtree below ``root`` holding
    each item's ``anchor`` node (a strict descendant of ``root``)."""
    parts: dict[int, list[T]] = {}
    for item in items:
        node = anchor(item)
        while node.parent is not root:
            node = node.parent
        parts.setdefault(node.node_id, []).append(item)
    return parts


def _itself(node: Node) -> Node:
    return node


class _Entry:
    __slots__ = ("pattern", "footprint", "scoped", "calls", "seen")

    def __init__(self, pattern: TreePattern, seen: int) -> None:
        self.pattern = pattern
        self.footprint = LabelFootprint.from_pattern(pattern)
        #: One root child: every embedding lives in one depth-1 subtree.
        self.scoped = len(pattern.root.children) == 1
        self.calls: dict[int, list[Node]] = {}
        #: Log position this entry is current up to.
        self.seen = seen


class RelevanceStore:
    """Retrieved-call sets per relevance query, by depth-1 subtree.

    Attach one per evaluation (or per served document).  The observer
    only logs each splice with the scope ids it dirtied; all judging
    happens at :meth:`retrieve`, per entry, against the log suffix the
    entry has not seen.  Entries are pinned to the exact pattern object
    — layer simplification and refinement rebuild the family with fresh
    patterns, which re-seeds them.

    The sets may name calls that were frozen or invoked since (neither
    changes embeddings over surviving nodes): callers filter for
    liveness at read time.
    """

    def __init__(self, document: Document) -> None:
        self.document = document
        self._entries: dict[Hashable, _Entry] = {}
        self._log: list[tuple[tuple[int, ...], SpliceDelta]] = []
        self.hits = 0
        """Retrievals answered without running the query at all."""
        self.reevaluations = 0
        """Retrievals that ran the query, whole or on dirty scopes."""
        self.whole_passes = 0
        """Of those, the ones that matched the whole document: seeds,
        rebuilt patterns, multi-child pattern roots, most scopes dirty."""
        self.scope_rematches = 0
        """Depth-1 subtrees re-matched, summed over entries."""
        document.add_observer(self)

    def detach(self) -> None:
        self.document.remove_observer(self)

    def discard(self, keys: Iterable[Hashable]) -> None:
        for key in keys:
            self._entries.pop(key, None)

    # DocumentObserver protocol ---------------------------------------------

    def call_removed(self, document: Document, node: Node) -> None:
        """Covered by :meth:`splice`; kept for protocol completeness."""

    def calls_added(self, document: Document, nodes: list[Node]) -> None:
        """Covered by :meth:`splice`; kept for protocol completeness."""

    #: Splices a store remembers before it forgets its entries instead
    #: (they re-seed): bounds the log when nobody retrieves for long.
    LOG_LIMIT = 20_000

    def splice(self, document: Document, delta: SpliceDelta) -> None:
        if len(self._log) >= self.LOG_LIMIT:
            self._log.clear()
            self._entries.clear()
        self._log.append((delta.scope_ids_under(document.root), delta))

    # -- retrieval ---------------------------------------------------------------

    def _stale_scopes(self, entry: _Entry, most: int) -> Optional[set[int]]:
        """Scope ids the unseen log suffix dirtied for ``entry`` —
        ``None`` when only a whole pass will do."""
        suffix = self._log[entry.seen :]
        if not suffix:
            return set()
        touched = {sid for ids, _ in suffix for sid in ids}
        if entry.scoped and len(touched) > most:
            return None  # screening could only delay the whole pass
        touches = entry.footprint.touches
        dirty = {sid for ids, delta in suffix if touches(delta) for sid in ids}
        return dirty if entry.scoped or not dirty else None

    def retrieve(
        self,
        members: Mapping[Hashable, TreePattern],
        match: Callable[
            [list, Optional[Node]], Mapping[Hashable, list[Node]]
        ],
    ) -> dict[Hashable, list[Node]]:
        """Every member's retrieved calls on the current document.

        ``match(keys, scope)`` returns, by key, the calls those members
        retrieve inside the depth-1 subtree ``scope`` — over the whole
        document when ``scope`` is ``None``.  Each member is a hit
        (nothing it tests moved), a re-match of its live dirty scopes,
        or a whole pass — when it is new, its pattern object changed,
        its pattern root has several children, or most of the root's
        children are dirty (a whole pass sweeps the columns flat;
        scoped runs chase pointers).
        """
        document = self.document
        root = document.root
        entries = self._entries
        now = len(self._log)
        most = len(root.children) // 2
        fresh: list[Hashable] = []
        by_scope: dict[int, list[Hashable]] = {}
        for key, pattern in members.items():
            entry = entries.get(key)
            dirty = (
                self._stale_scopes(entry, most)
                if entry is not None and entry.pattern is pattern
                else None
            )
            if dirty is None:
                fresh.append(key)
                continue
            live = [sid for sid in dirty if document.child_of_root(sid)]
            for sid in dirty:
                if sid not in live:
                    entry.calls.pop(sid, None)
            if live:
                self.reevaluations += 1
                for sid in live:
                    by_scope.setdefault(sid, []).append(key)
            else:
                self.hits += 1
                entry.seen = now
        if fresh:
            self.reevaluations += len(fresh)
            self.whole_passes += len(fresh)
            found = match(fresh, None)
            for key in fresh:
                entry = entries[key] = _Entry(members[key], now)
                entry.calls = partition_by_scope(root, found[key], _itself)
        for sid, keys in by_scope.items():
            self.scope_rematches += len(keys)
            found = match(keys, document.child_of_root(sid))
            for key in keys:
                if found[key]:
                    entries[key].calls[sid] = found[key]
                else:
                    entries[key].calls.pop(sid, None)
        for keys in by_scope.values():
            for key in keys:
                entries[key].seen = now
        if len(members) == len(entries):
            # Every entry is current: nothing will read the log again.
            self._log.clear()
            for entry in entries.values():
                entry.seen = 0
        return {
            key: [c for part in entries[key].calls.values() for c in part]
            for key in members
        }
