"""Pattern results under splices: label footprints + scope-partitioned rows.

Every NFQA round re-evaluates the layer's relevance queries, and every
refresh of a standing query its answer, yet a round changes the
document by one splice (or one batch): the invoked call leaves, its
result forest enters.  This module keeps that work proportional to the
change:

* :class:`LabelFootprint` — the set of node tests a pattern can apply:
  concrete element/value labels, service names and wildcard tests, each
  optionally narrowed by the label of the parent the test hangs under
  (child edges only — a descendant edge can land anywhere).  A splice
  whose nodes no test accepts changes no embedding of the pattern.

* :class:`RelevanceStore` — the :class:`~repro.axml.document.Document`
  observer keeping each pattern shape's result rows partitioned by
  depth-1 document subtree, so a retrieval re-matches only the subtrees
  its splices fell in.  One per document, shared by every consumer and
  outliving each engine run: equal shape means the same entry, whether
  the shape is a relevance query (its rows name the retrieved calls)
  or a standing query whose answer :class:`~repro.lazy.answers.AnswerCache`
  reads.  It also judges each holder's *guard* footprint against the
  same splice log — the "may the engine be skipped" question.

``docs/internals.md`` ("Scope-partitioned results under splices") has
the soundness argument for all three.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, Mapping, Optional

from ..axml.document import Document, SpliceDelta
from ..axml.node import Node
from ..pattern.match import MatchOptions, ResultRow
from ..pattern.nodes import EdgeKind, PatternKind, PatternNode
from ..pattern.pattern import SharedTable, TreePattern


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


def scope_anchor(pattern: TreePattern) -> Optional[int]:
    """The position of a result node below the pattern root when that
    root has one child — every embedding then lives in one depth-1
    subtree, and the image at this position names it — else ``None``:
    several root children, or the root as the only result node, make a
    row straddle subtrees, and only whole passes keep such a result."""
    root = pattern.root
    if len(root.children) != 1:
        return None
    for position, node in enumerate(pattern.result_nodes()):
        if node is not root:
            return position
    return None


def partition_by_scope(
    root: Node, rows: Iterable[ResultRow], anchor: int
) -> dict[int, list[ResultRow]]:
    """Group ``rows`` by the depth-1 subtree below ``root`` holding each
    row's node at position ``anchor`` (a strict descendant of ``root``)."""
    parts: dict[int, list[ResultRow]] = {}
    for row in rows:
        node = row.nodes[anchor]
        while node.parent is not root:
            node = node.parent
        parts.setdefault(node.node_id, []).append(row)
    return parts


class _Entry:
    __slots__ = ("pattern", "footprint", "anchor", "rows", "seen")

    def __init__(self, pattern: TreePattern) -> None:
        self.pattern = pattern
        self.footprint = LabelFootprint.from_pattern(pattern)
        self.anchor = scope_anchor(pattern)
        #: Scope id -> the rows anchored there; rows of different scopes
        #: differ at the anchor, so the union is disjoint.  Without an
        #: anchor everything sits under ``None``.
        self.rows: dict[Optional[int], list[ResultRow]] = {}
        #: Log position this entry is current up to; ``None`` until its
        #: first whole pass, and again once it lags ``LOG_LIMIT`` behind.
        self.seen: Optional[int] = None


class _Guard:
    """One holder's guard footprint, judged against the log lazily."""

    __slots__ = ("footprint", "seen", "touched")

    def __init__(self, footprint: LabelFootprint, position: int) -> None:
        self.footprint = footprint
        #: Log position judged up to.
        self.seen = position
        #: Position of the latest splice that touched it (-1: none yet).
        self.touched = -1


class RelevanceStore:
    """Pattern results on one document, kept under its splices: the
    :class:`~repro.pattern.match.ResultRow` s of each pattern *shape*,
    by depth-1 subtree — one store per document (:meth:`of`), read by
    every engine run, quiet probe and standing query over it.  It
    keeps relevance patterns (a reader takes each row's one output
    node, a call) and standing queries' answers alike.

    An entry belongs to a pattern shape and its readers' match options,
    not to a caller's key or pattern object: twins, the next refresh
    and an engine run reading what a quiet probe just matched all land on
    the same entry.  Readers :meth:`hold` the store and :meth:`drop`
    it: an entry leaves with the last holder that read it, the store
    detaches with its last holder.  The plain constructor builds a
    private store (tests, benches).

    The observer only logs each splice with the scope ids it dirtied;
    all judging happens at :meth:`retrieve`, per entry, against the log
    suffix the entry has not seen — and at :meth:`untouched`, per
    holder's guard footprint.  Trims cut the log back to the oldest
    position an entry or guard still needs; one found ``LOG_LIMIT``
    splices behind is forgotten (the entry re-seeds, the guard reports
    a touch) rather than pinning it.

    Kept rows may name calls that were frozen or invoked since (neither
    changes embeddings over surviving nodes): relevance readers filter
    for liveness at read time.
    """

    #: Splices an entry or guard may lag behind before it is forgotten.
    LOG_LIMIT = 20_000

    def __init__(self, document: Document) -> None:
        self.document = document
        self._entries: SharedTable[_Entry] = SharedTable()
        #: holder -> (its match options, {its pattern objects: entry} —
        #: each resolved once, the identity-keyed table rounds read).
        self._holders: SharedTable[
            tuple[MatchOptions, dict[TreePattern, _Entry]]
        ] = SharedTable()
        self._guards: dict[Hashable, _Guard] = {}
        self._log: list[tuple[tuple[int, ...], SpliceDelta]] = []
        self._base = 0  # log position of ``_log[0]``
        self._kept = 0  # log length after the last trim
        self.hits = 0
        """Entries answered without running the query at all."""
        self.reevaluations = 0
        """Entries that ran the query, whole or on dirty scopes."""
        self.whole_passes = 0
        """Of those, the ones that matched the whole document: seeds,
        unanchored patterns, most scopes dirty."""
        self.scope_rematches = 0
        """Depth-1 subtrees re-matched, summed over entries."""
        self.rows_added = 0
        self.rows_retracted = 0
        """Rows a scope gained / lost where it was re-matched (or left
        the document) — whole passes replace, they do not diff."""
        document.add_observer(self)

    @classmethod
    def of(cls, document: Document) -> "RelevanceStore":
        """The document's own store, attached on first use."""
        if document.relevance is None:
            document.relevance = cls(document)
        return document.relevance

    def detach(self) -> None:
        self.document.remove_observer(self)
        if self.document.relevance is self:
            self.document.relevance = None

    @property
    def position(self) -> int:
        """The log position the next splice will take — what a reader
        bookmarks to ask :meth:`untouched` about everything after."""
        return self._base + len(self._log)

    def hold(
        self,
        holder: Hashable,
        options: MatchOptions,
        guard: Optional[LabelFootprint] = None,
    ) -> None:
        """Count ``holder`` in as a reader matching with ``options``;
        ``guard`` is the footprint :meth:`untouched` judges for it."""
        self._holders.acquire(holder, lambda: (options, {}))
        if guard is not None and holder not in self._guards:
            self._guards[holder] = _Guard(guard, self.position)

    def drop(self, holder: Hashable) -> None:
        """Undo one :meth:`hold`: ``holder``'s last releases everything
        it read and its guard, the store's last holder detaches it."""
        released = self._holders.release(holder)
        if released is None:
            return
        options, held = released
        self._guards.pop(holder, None)
        for entry in held.values():
            self._entries.release((entry.pattern.shape, options))
        if not self._holders:
            self.detach()

    def splice(self, document: Document, delta: SpliceDelta) -> None:
        if self._entries or self._guards:  # else: nobody to judge it for
            self._log.append((delta.scope_ids_under(document.root), delta))
            self._trim()

    def _trim(self) -> None:
        """Cut the log back to what an entry or guard still needs — one
        scan of them per as many splices, and not before the log doubled
        (a fan-out round is thousands of splices under one entry)."""
        readers = len(self._entries) + len(self._guards)
        if len(self._log) - self._kept < max(readers, self._kept):
            return
        now = self.position
        oldest = now
        for entry in self._entries.values():
            if entry.seen is None:
                continue
            if now - entry.seen >= self.LOG_LIMIT:
                entry.seen = None
                entry.rows = {}
            elif entry.seen < oldest:
                oldest = entry.seen
        for guard in self._guards.values():
            if now - guard.seen >= self.LOG_LIMIT:
                # Unjudged and about to be cut: report the latest splice
                # as a touch (the engine runs; sound).
                guard.seen = now
                guard.touched = now - 1
            elif guard.seen < oldest:
                oldest = guard.seen
        del self._log[: oldest - self._base]
        self._base = oldest
        self._kept = len(self._log)

    # -- the engine guard --------------------------------------------------------

    def untouched(self, holder: Hashable, since: int) -> bool:
        """Did every splice logged at or after position ``since`` miss
        ``holder``'s guard footprint?  The guard keeps one bookmark for
        all who ask through this holder: twins judge a splice once."""
        guard = self._guards[holder]
        now = self.position
        if guard.seen < now:
            touches = guard.footprint.touches
            log = self._log
            for index in range(len(log) - 1, guard.seen - self._base - 1, -1):
                if touches(log[index][1]):
                    guard.touched = self._base + index
                    break
            guard.seen = now
        return guard.touched < since

    # -- retrieval ---------------------------------------------------------------

    def _stale_scopes(
        self, entry: _Entry, most: int, outer: Optional[_Entry]
    ) -> Optional[set[int]]:
        """Scope ids to re-match to bring ``entry`` up to date — ``None``
        when only a whole pass will do.  ``outer``, an entry whose rows
        contain ``entry``'s, bounds a due whole pass to its own scopes."""
        dirty = None if entry.seen is None else self._dirtied(entry, most)
        if (
            dirty is None
            and outer is not None
            and outer.seen == self.position
            and len(outer.rows) <= most
            and None not in (entry.anchor, outer.anchor)
        ):
            dirty = set(outer.rows)
            for sid in entry.rows.keys() - dirty:
                self.rows_retracted += len(entry.rows.pop(sid))
        return dirty

    def _dirtied(self, entry: _Entry, most: int) -> Optional[set[int]]:
        """Scope ids the unseen log suffix dirtied for ``entry`` —
        ``None`` when only a whole pass will do."""
        suffix = self._log[entry.seen - self._base :]
        if not suffix:
            return set()
        anchored = entry.anchor is not None
        touched = {sid for ids, _ in suffix for sid in ids}
        if anchored and len(touched) > most:
            return None  # screening could only delay the whole pass
        touches = entry.footprint.touches
        dirty = {sid for ids, delta in suffix if touches(delta) for sid in ids}
        return dirty if anchored or not dirty else None

    def retrieve(
        self,
        members: Mapping[Hashable, TreePattern],
        match: Callable[
            [list, Optional[Node]], Mapping[Hashable, list[ResultRow]]
        ],
        holder: Hashable,
        within: Optional[Mapping[Hashable, TreePattern]] = None,
    ) -> dict[Hashable, list[ResultRow]]:
        """Every member's rows on the current document, read for
        ``holder`` (who must :meth:`hold` the store).

        ``within`` names, by key, a pattern ``holder`` has just read
        whose rows *contain* the member's (the member is that pattern
        with alternatives removed), so the member has no row in a scope
        where that one has none: when a whole pass would be due, it is
        matched only in the scopes that one has rows in.

        ``match(keys, scope)`` returns, by key, those members' rows
        inside the depth-1 subtree ``scope`` — over the whole document
        when ``scope`` is ``None`` — and is asked for one key per
        distinct entry.  Each entry is a hit (nothing it tests moved),
        a re-match of its live dirty scopes, or a whole pass — when it
        is unseeded, has no anchor (:func:`scope_anchor`), or most of
        the root's children are dirty (a whole pass sweeps the columns
        flat; scoped runs chase pointers).
        """
        document = self.document
        root = document.root
        options, held = self._holders[holder]
        now = self.position
        most = len(root.children) // 2
        first: dict[_Entry, Hashable] = {}
        fresh: list[_Entry] = []
        by_scope: dict[int, list[_Entry]] = {}
        for key, pattern in members.items():
            entry = held.get(pattern)
            if entry is None:
                entry = held[pattern] = self._entries.acquire(
                    (pattern.shape, options), lambda: _Entry(pattern)
                )
            if entry in first:
                continue  # a twin of a member judged above
            first[entry] = key
            dirty = self._stale_scopes(
                entry, most, held.get(within.get(key)) if within else None
            )
            if dirty is None:
                fresh.append(entry)
                continue
            live = [sid for sid in dirty if document.child_of_root(sid)]
            for sid in dirty:
                if sid not in live:
                    self.rows_retracted += len(entry.rows.pop(sid, ()))
            if live:
                self.reevaluations += 1
                for sid in live:
                    by_scope.setdefault(sid, []).append(entry)
            else:
                self.hits += 1
                entry.seen = now
        if fresh:
            self.reevaluations += len(fresh)
            self.whole_passes += len(fresh)
            found = match([first[entry] for entry in fresh], None)
            for entry in fresh:
                rows = found[first[entry]]
                if entry.anchor is not None:
                    entry.rows = partition_by_scope(root, rows, entry.anchor)
                else:
                    entry.rows = {None: rows} if rows else {}
                entry.seen = now
        for sid, entries in by_scope.items():
            self.scope_rematches += len(entries)
            found = match(
                [first[entry] for entry in entries], document.child_of_root(sid)
            )
            for entry in entries:
                self._replace_scope(entry, sid, found[first[entry]])
                entry.seen = now
        self._trim()  # the round's splices, now that they are judged
        return {
            key: [row for part in held[pattern].rows.values() for row in part]
            for key, pattern in members.items()
        }

    def _replace_scope(
        self, entry: _Entry, sid: int, rows: list[ResultRow]
    ) -> None:
        """A re-matched scope's rows take its old ones' place; the churn
        is compared only where the scope had rows and still has some."""
        old = entry.rows.get(sid, ())
        if rows:
            entry.rows[sid] = rows
        elif old:
            del entry.rows[sid]
        kept = 0
        if old and rows:
            kept = len(
                {row.nodes for row in old}.intersection(
                    [row.nodes for row in rows]
                )
            )
        self.rows_added += len(rows) - kept
        self.rows_retracted += len(old) - kept
