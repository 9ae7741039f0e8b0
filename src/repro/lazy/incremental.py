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
  Footprints test a :class:`SpliceSignature` — the (label, parent
  label) pairs of a splice, taken once, when it is first judged.

* :class:`RelevanceStore` — the :class:`~repro.axml.document.Document`
  observer keeping each pattern shape's result rows partitioned by
  depth-1 document subtree, so a retrieval re-matches only the subtrees
  its splices fell in.  One per document, shared by every consumer and
  outliving each engine run: equal shape means the same entry, whether
  the shape is a relevance query (its rows name the retrieved calls)
  or a standing query whose answer :class:`~repro.lazy.answers.AnswerCache`
  reads.  A read takes one pattern and returns a :class:`Read`: the
  rows — the entry's one rows object until a read changes it — and the
  :class:`Verdict` the store reached for them (a hit, a re-match of the
  dirty scopes, or a whole pass), which readers count from.  On a fresh
  warm-loaded document an entry's first read starts from its shape's
  rows on the text's pristine document, kept with the text
  (:func:`pristine_rows`), instead of a whole pass.  The store
  also judges each holder's *guard* footprint against the same splice
  log — the "may the engine be skipped" question.

``docs/internals.md`` ("Scope-partitioned results under splices") has
the soundness argument for all three, for a signature taken at first
judgement and for a seed.
"""

from __future__ import annotations

import enum
from typing import (
    TYPE_CHECKING,
    Callable,
    Hashable,
    Iterable,
    NamedTuple,
    Optional,
    Sequence,
)

from ..axml.document import Document, SpliceDelta
from ..axml.node import Node
from ..pattern.columnmatch import ColumnMatcher, SlotRow, compile_plan
from ..pattern.match import MatchCounter, ResultRow, Rows
from ..pattern.nodes import EdgeKind, PatternKind, PatternNode
from ..pattern.pattern import SharedTable, TreePattern

if TYPE_CHECKING:
    from ..axml.xmlio import _Kept


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

    def touches(self, signature: "SpliceSignature") -> bool:
        """Could the splice with this signature change the pattern's
        result? (May say yes spuriously; never says no wrongly — see the
        module docstring.)  Set operations, no walk: a node test
        :meth:`touches_node` would accept is a (label, parent label)
        pair the signature holds."""
        return _accepts(
            self._data, signature.data, signature.data_parents
        ) or _accepts(
            self._functions, signature.functions, signature.function_parents
        )

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


class SpliceSignature:
    """What one splice shows a footprint: the label of every data and
    function node it added or removed, each with the labels of the
    parents it hung under (a removed root under the delta's ``parent``).

    Taken by one walk of the delta's subtrees when the store first
    judges the splice, then tested by every footprint and guard with
    set operations.  A later splice that changes the delta's added
    subtree is itself logged after it, so it sits in every unseen
    suffix this one does (``docs/internals.md``)."""

    __slots__ = ("data", "functions", "data_parents", "function_parents")

    def __init__(self, delta: SpliceDelta) -> None:
        #: Label -> the (non-``None``) parent labels it appeared under.
        self.data: dict[str, set[str]] = {}
        self.functions: dict[str, set[str]] = {}
        for root in delta.added:
            for node in root.iter_subtree():
                self._note(node, node.parent)
        for root in delta.removed:
            # Detached roots lost their parent pointer; the delta
            # remembers where they hung.
            self._note(root, delta.parent)
            for node in root.iter_subtree():
                if node is not root:
                    self._note(node, node.parent)
        #: Every parent label per kind, for the wildcard tests.
        self.data_parents: set[str] = set().union(*self.data.values())
        self.function_parents: set[str] = set().union(*self.functions.values())

    def _note(self, node: Node, parent: Optional[Node]) -> None:
        table = self.functions if node.is_function else self.data
        parents = table.get(node.label)
        if parents is None:
            parents = table[node.label] = set()
        if parent is not None:
            parents.add(parent.label)


def _accepts(
    tests: dict[Optional[str], Optional[set[str]]],
    seen: dict[str, set[str]],
    seen_parents: set[str],
) -> bool:
    """Does a test of one kind accept a (label, parent label) pair a
    signature saw of that kind?  ``None`` keys and parent sets mean
    "any", as in :meth:`LabelFootprint.touches_node`."""
    if not tests or not seen:
        return False
    if None in tests:
        parents = tests[None]
        if parents is None or not parents.isdisjoint(seen_parents):
            return True
    for label, under in seen.items():
        if label in tests:
            parents = tests[label]
            if parents is None or not parents.isdisjoint(under):
                return True
    return False


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


def pristine_rows(
    kept: "_Kept", pattern: TreePattern, anchor: int
) -> dict[int, list[SlotRow]]:
    """``pattern``'s rows on the pristine document of the text ``kept``
    holds, grouped as :func:`partition_by_scope`
    groups them: by the depth-1 scope holding each row's node at
    position ``anchor``, scopes in the order of their first row.  Rows
    are slot rows, and a pristine slot is its node's id.  Matched once
    per shape by the compiled plan over the kept arena columns — no
    document, no node — and kept in ``kept.rows``."""
    shape = pattern.shape
    found = kept.rows.get(shape)
    if found is None:
        columns = kept.arena
        parent = columns.parent
        found = {}
        plan = compile_plan(pattern)
        for row in ColumnMatcher(plan, columns, MatchCounter()).run(0):
            slot = row[0][anchor]
            while parent[slot] != 0:  # the root's slot
                slot = parent[slot]
            found.setdefault(slot, []).append(row)
        kept.rows.put(shape, found)
    return found


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


class Verdict(enum.Enum):
    """How one :meth:`RelevanceStore.retrieve` brought its entry up to
    date, set where the store decides it."""

    HIT = "hit"
    """No query ran: nothing the entry tests moved, or only scopes that
    left the document (their rows dropped)."""
    SCOPED = "scoped"
    """The live dirty depth-1 subtrees were re-matched."""
    WHOLE = "whole"
    """One pass over the whole document: a seed, an unanchored pattern,
    most of the root's children dirty."""


class Read(NamedTuple):
    """What one :meth:`RelevanceStore.retrieve` found and did: the rows,
    the verdict and the depth-1 subtrees re-matched.  ``rows`` is the
    entry's state: every read that changed nothing hands back the same
    object."""

    rows: Rows
    verdict: Verdict
    scopes: int = 0


class _Entry:
    __slots__ = ("pattern", "footprint", "anchor", "rows", "flat", "seen")

    def __init__(self, pattern: TreePattern) -> None:
        self.pattern = pattern
        self.footprint = LabelFootprint.from_pattern(pattern)
        self.anchor = scope_anchor(pattern)
        #: Scope id -> the rows anchored there; rows of different scopes
        #: differ at the anchor, so the union is disjoint.  Without an
        #: anchor everything sits under ``None``.
        self.rows: dict[Optional[int], Sequence[ResultRow]] = {}
        #: ``rows`` flattened, as readers get them; ``None`` once a read
        #: changed ``rows``, rebuilt by that read.
        self.flat: Optional[Rows] = None
        #: Log position this entry is current up to; ``None`` until its
        #: seed or first whole pass, and again once it lags
        #: ``LOG_LIMIT`` behind.
        self.seen: Optional[int] = None


class _Logged:
    """One splice in the store's log: the depth-1 scope ids it dirtied
    — ``None`` when the store's own :meth:`RelevanceStore.splice`
    raised before it knew them, which every entry answers with a whole
    pass and every guard counts as a touch — and its signature, taken
    when it is first judged."""

    __slots__ = ("ids", "delta", "_signature")

    def __init__(self, delta: SpliceDelta) -> None:
        self.ids: Optional[tuple[int, ...]] = None
        self.delta = delta
        self._signature: Optional[SpliceSignature] = None

    def touches(self, footprint: LabelFootprint) -> bool:
        if self.ids is None:
            return True
        if self._signature is None:
            self._signature = SpliceSignature(self.delta)
        return footprint.touches(self._signature)


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

    An entry belongs to a pattern shape, not to a caller's key or
    pattern object: twins, the next refresh and an engine run reading
    what a quiet probe just matched all land on the same entry.
    Readers :meth:`hold` the store and :meth:`drop` it: an entry leaves
    with the last holder that read it, the store detaches with its last
    holder.  The plain constructor builds a private store (tests,
    benches).

    The observer only logs each splice with the scope ids it dirtied;
    all judging happens at :meth:`retrieve`, per read, against the log
    suffix the entry has not seen — and at :meth:`untouched`, per
    holder's guard footprint.  Trims cut the log back to the oldest
    position an entry or guard still needs; one found ``LOG_LIMIT``
    splices behind is forgotten (the entry re-seeds, the guard reports
    a touch) rather than pinning it.

    A store attached to a warm-loaded document before its first change
    (:attr:`~repro.axml.document.Document.pristine`) is *seedable*: an
    anchored entry's first read takes the rows its shape has on the
    text's pristine document (:func:`pristine_rows`, matched once per
    text and shape) as if read at position 0, and the log catches it up
    from there, as it catches up any entry.  While the store is
    seedable no trim cuts the log below position 0; it stops being
    seedable once more than half the root's children were dirtied
    since the load (a seeded entry would take a whole pass anyway), or
    ``LOG_LIMIT`` splices were logged.

    Kept rows may name calls that were frozen or invoked since (neither
    changes embeddings over surviving nodes): relevance readers filter
    for liveness at read time.
    """

    #: Splices an entry or guard may lag behind before it is forgotten.
    LOG_LIMIT = 20_000

    def __init__(self, document: Document) -> None:
        self.document = document
        self._entries: SharedTable[_Entry] = SharedTable()
        #: holder -> {its pattern objects: entry} — each resolved once,
        #: the identity-keyed table rounds read.
        self._holders: SharedTable[dict[TreePattern, _Entry]] = SharedTable()
        self._guards: dict[Hashable, _Guard] = {}
        self._log: list[_Logged] = []
        self._base = 0  # log position of ``_log[0]``
        self._kept = 0  # log length after the last trim
        #: The loader's entry of the document's text while this store
        #: may seed (see the class docstring), else ``None``.
        self._pristine = document.pristine
        if self._pristine is not None:
            # The mirror now, while it is a copy of the kept columns: a
            # catch-up's scoped re-match after a splice would build it.
            document.arena
        #: Depth-1 scope ids the log dirtied since the load, while
        #: seedable.
        self._since_load: set[int] = set()
        # Sums over every read's :class:`Read`, bumped in one place.
        self.hits = 0
        """Reads whose verdict is :attr:`Verdict.HIT`."""
        self.reevaluations = 0
        """The other reads (``hits + reevaluations`` is every read)."""
        self.whole_passes = 0
        """Of those, the :attr:`Verdict.WHOLE` ones."""
        self.seeds = 0
        """Entries whose first read took the text's pristine rows."""
        self.scope_rematches = 0
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
        self, holder: Hashable, guard: Optional[LabelFootprint] = None
    ) -> None:
        """Count ``holder`` in as a reader; ``guard`` is the footprint
        :meth:`untouched` judges for it."""
        self._holders.acquire(holder, dict)
        if guard is not None and holder not in self._guards:
            self._guards[holder] = _Guard(guard, self.position)

    def drop(self, holder: Hashable) -> None:
        """Undo one :meth:`hold`: ``holder``'s last releases everything
        it read and its guard, the store's last holder detaches it."""
        held = self._holders.release(holder)
        if held is None:
            return
        self._guards.pop(holder, None)
        for entry in held.values():
            self._entries.release(entry.pattern.shape)
        if not self._holders:
            self.detach()

    def splice(self, document: Document, delta: SpliceDelta) -> None:
        if not (self._entries or self._guards or self._pristine is not None):
            return  # nobody to judge it for, now or at a seed
        # Unknown until its scope ids are found and the log trimmed: a
        # failure in either leaves it logged as unknown, never lost (a
        # missing delta would read as a hit on stale rows).
        logged = _Logged(delta)
        self._log.append(logged)
        ids = delta.scope_ids_under(document.root)
        if self._pristine is not None:
            self._since_load.update(ids)
            if (
                len(self._since_load) > len(document.root.children) // 2
                or self.position >= self.LOG_LIMIT
            ):
                self._pristine = None  # a seed would take a whole pass
                self._since_load = set()
        self._trim()
        logged.ids = ids

    def _trim(self) -> None:
        """Cut the log back to what an entry or guard still needs — one
        scan of them per as many splices, and not before the log doubled
        (a fan-out round is thousands of splices under one entry)."""
        readers = len(self._entries) + len(self._guards)
        if len(self._log) - self._kept < max(readers, self._kept):
            return
        now = self.position
        oldest = now if self._pristine is None else 0
        for entry in self._entries.values():
            if entry.seen is None:
                continue
            if now - entry.seen >= self.LOG_LIMIT:
                entry.seen = None
                entry.rows = {}
                entry.flat = None
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
            footprint = guard.footprint
            log = self._log
            for index in range(len(log) - 1, guard.seen - self._base - 1, -1):
                if log[index].touches(footprint):
                    guard.touched = self._base + index
                    break
            guard.seen = now
        return guard.touched < since

    # -- retrieval ---------------------------------------------------------------

    def _judge(
        self, entry: _Entry, most: int
    ) -> tuple[Verdict, Optional[set[int]]]:
        """What bringing ``entry`` up to date takes: nothing (``HIT``),
        its dirty scope ids (``SCOPED`` — a hit after all when none of
        them is live), else a whole pass (``WHOLE``)."""
        if entry.seen is not None:
            dirty = self._dirtied(entry, most)
            if dirty is not None:
                return Verdict.SCOPED if dirty else Verdict.HIT, dirty
        return Verdict.WHOLE, None

    def _dirtied(self, entry: _Entry, most: int) -> Optional[set[int]]:
        """Scope ids the unseen log suffix dirtied for ``entry`` —
        ``None`` when only a whole pass will do."""
        suffix = self._log[entry.seen - self._base :]
        if not suffix:
            return set()
        touched: set[int] = set()
        for logged in suffix:
            if logged.ids is None:
                return None  # a splice the store could not place
            touched.update(logged.ids)
        anchored = entry.anchor is not None
        if anchored and len(touched) > most:
            return None  # screening could only delay the whole pass
        footprint = entry.footprint
        dirty = {
            sid
            for logged in suffix
            if logged.touches(footprint)
            for sid in logged.ids
        }
        return dirty if anchored or not dirty else None

    def retrieve(
        self,
        pattern: TreePattern,
        match: Callable[[Optional[Node]], list[ResultRow]],
        holder: Hashable,
    ) -> Read:
        """``pattern``'s rows on the current document, read for
        ``holder`` (who must :meth:`hold` the store), with the verdict
        that brought them up to date.

        ``match(scope)`` returns the pattern's rows inside the depth-1
        subtree ``scope`` — over the whole document when ``scope`` is
        ``None``.  A read is a hit (nothing the pattern tests moved), a
        re-match of its live dirty scopes, or a whole pass — when the
        entry is unseeded (a seedable store seeds an anchored one from
        the text's pristine rows first), has no anchor
        (:func:`scope_anchor`), or more than half the root's children
        are dirty.  Both kinds of run of
        a relevance query start from the calls (a whole pass from one
        sweep of the arena's call column, a scoped run from the calls
        the arena keeps for its scope), but each scoped run pays a
        run's set-up and its scope's row replacement: past about half
        the children one whole pass is as cheap.
        """
        document = self.document
        held = self._holders[holder]
        entry = held.get(pattern)
        if entry is None:
            entry = held[pattern] = self._entries.acquire(
                pattern.shape, lambda: _Entry(pattern)
            )
        if (
            entry.seen is None
            and self._pristine is not None
            and entry.anchor is not None
        ):
            self._seed(entry)
        verdict, dirty = self._judge(entry, len(document.root.children) // 2)
        scopes = 0
        if verdict is Verdict.WHOLE:
            rows = match(None)
            if entry.anchor is not None:
                entry.rows = partition_by_scope(document.root, rows, entry.anchor)
            else:
                entry.rows = {None: rows} if rows else {}
            entry.flat = None
        elif verdict is Verdict.SCOPED:
            # A live scope's rows are re-matched, a gone one's dropped.
            for sid in dirty:
                scope = document.child_of_root(sid)
                rows = () if scope is None else match(scope)
                scopes += scope is not None
                if rows:
                    entry.rows[sid] = rows
                elif entry.rows.pop(sid, None) is None:
                    continue
                entry.flat = None
            if not scopes:
                verdict = Verdict.HIT
        entry.seen = self.position
        if entry.flat is None:
            entry.flat = Rows(row for part in entry.rows.values() for row in part)
        read = Read(entry.flat, verdict, scopes)
        if verdict is Verdict.HIT:
            self.hits += 1
        else:
            self.reevaluations += 1
            self.whole_passes += verdict is Verdict.WHOLE
        self.scope_rematches += scopes
        self._trim()  # the splices this read judged
        return read

    def _seed(self, entry: _Entry) -> None:
        """``entry``'s rows as of position 0: its shape's pristine rows
        on the live nodes of their ids.  A row whose node left since
        the load is dropped: its scope is dirty, so the catch-up
        re-matches it (or drops it, gone)."""
        node = self.document.node
        rows: dict[Optional[int], Sequence[ResultRow]] = {}
        for sid, part in pristine_rows(
            self._pristine, entry.pattern, entry.anchor
        ).items():
            live = []
            for ids, bindings in part:
                try:
                    live.append(ResultRow(tuple([node(i) for i in ids]), bindings))
                except KeyError:
                    continue
            if live:
                rows[sid] = live
        entry.rows = rows
        entry.flat = None
        entry.seen = 0
        self.seeds += 1
