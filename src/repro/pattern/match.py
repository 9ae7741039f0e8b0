"""Query embeddings: evaluating tree patterns over AXML trees.

Implements Definition 1 of the paper — an embedding is a tree
homomorphism from the pattern to the document mapping the pattern root to
the document root, preserving parent-child (child edges) and
ancestor-descendant (descendant edges) relationships, with consistent
variable bindings.  The *snapshot result* of a query is the set of
restrictions of all embeddings to the result nodes.

Extended patterns (Section 2's "some useful machinery") are evaluated
natively: an OR node matches when one of its alternatives does, and
function pattern nodes map to function nodes of the document.

Performance notes — the matcher is exercised on tens of thousands of
document nodes by the benchmarks, so it works in two phases:

1. a memoised boolean ``can-match`` pass (ignoring variable consistency,
   a sound necessary condition), including a memoised
   ``exists-below`` relation so descendant edges cost ``O(|q|·|d|)``;
2. enumeration of embeddings, threaded through only the pattern branches
   that contain variables or result nodes — purely boolean branches are
   answered by phase 1.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Iterator, Optional, Protocol, Sequence

from ..axml.arena import (
    ANY_DATA,
    KIND_ELEMENT,
    KIND_FUNCTION,
    KIND_VALUE,
    DocumentArena,
)
from ..axml.document import Document
from ..axml.index import LabelIndex
from ..axml.node import Node
from .columnmatch import ColumnMatcher, StandDown, compile_plan, plan_refusal
from .nodes import EdgeKind, PatternKind, PatternNode
from .pattern import TreePattern


class OverlayLike(Protocol):
    """Duck type of :class:`repro.lazy.pushing.BindingsOverlay`.

    Pushed-bindings replies (Section 7) are embeddings that exist only
    as remote tuples; the matcher consults the overlay wherever a
    pattern child could be satisfied by such a reply instead of by
    document nodes.
    """

    def lookup(self, dnode: Node, pnode: PatternNode) -> list:
        ...

    def positions(self, pnode: PatternNode) -> list:
        ...


@dataclasses.dataclass(frozen=True)
class MatchOptions:
    """Tunables for the embedding semantics.

    Attributes:
        descend_into_parameters: whether descendant steps may traverse
            *into* the parameter subtrees of function nodes.  The paper
            treats parameters as arguments to be shipped to the service,
            not as document content, so the default is ``False`` (the
            function node itself is still visible, which is what the
            relevance queries need).
    """

    descend_into_parameters: bool = False


class MatchCounter:
    """Work counters, used by the experiments to report matcher effort.

    ``candidates_visited`` counts nodes enumerated by walking the tree
    (child steps and un-indexed descendant steps alike, so the figure
    is comparable across edge kinds); ``index_candidates`` counts nodes
    served by a label index instead of a walk.

    The column counters keep the slot path's effort separately
    attributable: ``column_pass_nodes`` counts slots the column
    matcher's scans touched, ``column_rows`` the rows it produced, and
    ``column_fallback_reasons`` the evaluations where the fast path was
    requested but stood down to the object walk, counted per
    :class:`~repro.pattern.columnmatch.StandDown` value.
    """

    __slots__ = (
        "can_checks",
        "candidates_visited",
        "column_fallback_reasons",
        "column_pass_nodes",
        "column_rows",
        "embeddings_found",
        "evaluations",
        "index_candidates",
    )

    def __init__(self) -> None:
        self.can_checks = 0
        self.candidates_visited = 0
        self.column_fallback_reasons: dict[str, int] = {}
        self.column_pass_nodes = 0
        self.column_rows = 0
        self.embeddings_found = 0
        self.evaluations = 0
        self.index_candidates = 0

    @property
    def column_fallbacks(self) -> int:
        return sum(self.column_fallback_reasons.values())

    def merge(self, other: "MatchCounter") -> None:
        self.can_checks += other.can_checks
        self.candidates_visited += other.candidates_visited
        reasons = self.column_fallback_reasons
        for reason, count in other.column_fallback_reasons.items():
            reasons[reason] = reasons.get(reason, 0) + count
        self.column_pass_nodes += other.column_pass_nodes
        self.column_rows += other.column_rows
        self.embeddings_found += other.embeddings_found
        self.evaluations += other.evaluations
        self.index_candidates += other.index_candidates


@dataclasses.dataclass(frozen=True)
class ResultRow:
    """One element of a snapshot result.

    ``nodes`` is aligned with ``pattern.result_nodes()`` order;
    ``bindings`` holds every variable binding of the witnessing
    embedding, sorted by variable name.
    """

    nodes: tuple[Node, ...]
    bindings: tuple[tuple[str, str], ...]

    def binding(self, variable: str) -> Optional[str]:
        for name, value in self.bindings:
            if name == variable:
                return value
        return None

    def values(self) -> tuple[str, ...]:
        """The labels of the result nodes (values for leaf matches)."""
        return tuple(node.label for node in self.nodes)


class MatchSet:
    """The snapshot result ``q(d)`` of a pattern over a tree."""

    def __init__(self, pattern: TreePattern, rows: list[ResultRow]) -> None:
        self.pattern = pattern
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[ResultRow]:
        return iter(self.rows)

    def __bool__(self) -> bool:
        return bool(self.rows)

    @staticmethod
    def row_key(row: ResultRow) -> tuple[int, ...]:
        """Stable identity of a row: the result nodes' document ids.

        Node ids are allocated monotonically and never reused, so the
        key survives removals — the answer-maintenance layer uses it to
        recognise rows across splices (bindings are tie-broken by the
        first witnessing embedding and are *not* part of identity).
        """
        return tuple(
            -1 if node.node_id is None else node.node_id
            for node in row.nodes
        )

    @classmethod
    def compose(
        cls, pattern: TreePattern, row_groups: Iterable[list[ResultRow]]
    ) -> "MatchSet":
        """Union of per-scope row groups, deduplicated by row identity.

        The decomposition answer maintenance relies on (see
        :meth:`Matcher.evaluate_scoped`): the full snapshot result is
        the composition of the scoped results over all depth-1 subtrees.
        First occurrence wins, preserving group order.
        """
        rows: list[ResultRow] = []
        seen: set[tuple[int, ...]] = set()
        for group in row_groups:
            for row in group:
                key = cls.row_key(row)
                if key not in seen:
                    seen.add(key)
                    rows.append(row)
        return cls(pattern, rows)

    def spliced(
        self,
        retracted: "set[tuple[int, ...]]",
        added: list[ResultRow],
    ) -> "MatchSet":
        """A new result with ``retracted`` row keys removed and ``added``
        rows appended — the splice primitive of answer maintenance."""
        if not retracted and not added:
            return self
        rows = [
            row for row in self.rows if self.row_key(row) not in retracted
        ]
        rows.extend(added)
        return MatchSet(self.pattern, rows)

    def distinct_nodes(self, position: int = 0) -> list[Node]:
        """Distinct document nodes bound at one result position."""
        seen: dict[int, Node] = {}
        for row in self.rows:
            node = row.nodes[position]
            seen.setdefault(id(node), node)
        return list(seen.values())

    def value_rows(self) -> set[tuple[str, ...]]:
        """Result rows as label tuples — handy for equality in tests."""
        return {row.values() for row in self.rows}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MatchSet({len(self.rows)} rows of {self.pattern.name!r})"


class Matcher:
    """Evaluates one pattern over trees; reusable across documents."""

    def __init__(
        self,
        pattern: TreePattern,
        options: Optional[MatchOptions] = None,
        counter: Optional[MatchCounter] = None,
        overlay: Optional["OverlayLike"] = None,
        index: Optional[LabelIndex] = None,
        arena: Optional[DocumentArena] = None,
        column_match: bool = False,
    ) -> None:
        self.pattern = pattern
        self.options = options or MatchOptions()
        self.counter = counter or MatchCounter()
        self.overlay = overlay
        self.index = index
        self.arena = arena
        #: Column fast path (``repro.pattern.columnmatch``): auto-off
        #: without an arena; an overlay or a refused shape leaves
        #: ``_column`` unset and ``_refusal`` naming why, so every
        #: evaluation stands down to the walk and records that reason.
        self.column_match = bool(column_match) and arena is not None
        self._column: Optional[ColumnMatcher] = None
        self._refusal: Optional[StandDown] = None
        if self.column_match:
            self._refusal = (
                StandDown.OVERLAY if overlay is not None else plan_refusal(pattern)
            )
            if self._refusal is None:
                self._column = ColumnMatcher(
                    compile_plan(pattern), arena, self.options, self.counter
                )
        self._result_nodes = pattern.result_nodes()
        self._needs_enum: dict[int, bool] = {}
        self._compute_needs_enum(pattern.root)
        self._can_memo: dict[tuple[int, int], bool] = {}
        self._below_memo: dict[tuple[int, int], bool] = {}
        #: When set to ``(root, child)``, the walk below ``root`` is
        #: restricted to the depth-1 subtree under ``child`` (answer
        #: maintenance's scoped re-match).
        self._scope: Optional[tuple[Node, Node]] = None

    # -- public API --------------------------------------------------------

    def evaluate(self, document: Document) -> MatchSet:
        """Snapshot result over a document (root maps to root)."""
        return self.evaluate_at(document.root)

    def evaluate_at(self, root: Node) -> MatchSet:
        """Snapshot result with the pattern root mapped to ``root``."""
        self._reset_memos()
        self.counter.evaluations += 1
        if self.column_match:
            column_rows = self._column_pass(root)
            if column_rows is not None:
                return MatchSet(self.pattern, column_rows)
        rows: dict[tuple[int, ...], ResultRow] = {}
        for env, assigns in self._embed(self.pattern.root, root, {}):
            self._record_row(rows, env, assigns)
        return MatchSet(self.pattern, list(rows.values()))

    def _column_pass(self, root: Node) -> Optional[list[ResultRow]]:
        """The column fast path: the whole pattern evaluated in slot
        space (:mod:`repro.pattern.columnmatch`), nodes materialised
        only for the final rows.  ``None`` means stand-down — no
        compiled plan (a refused shape, an overlay), an unmirrored
        root, or a scope child without a slot — recorded under its
        :class:`StandDown` reason; the caller runs the object walk."""
        column = self._column
        arena = self.arena
        reason = self._refusal
        root_slot = scope_slot = None
        if reason is None:
            root_slot = arena.slot_for(root)
            scope = self._scope
            if root_slot is None:
                reason = StandDown.UNMIRRORED_ROOT
            elif scope is not None:
                scope_slot = (
                    arena.slot_for(scope[1]) if scope[0] is root else None
                )
                if scope_slot is None:
                    reason = StandDown.SCOPE_WITHOUT_SLOT
        if reason is not None:
            reasons = self.counter.column_fallback_reasons
            reasons[reason.value] = reasons.get(reason.value, 0) + 1
            return None
        slot_rows = column.run(root_slot, scope_slot)
        node_at = arena._node_at
        return [
            ResultRow(
                nodes=tuple(node_at[s] for s in slots), bindings=bindings
            )
            for slots, bindings in slot_rows
        ]

    def evaluate_scoped(self, document: Document, scope: Node) -> MatchSet:
        """Snapshot result restricted to one depth-1 subtree.

        The pattern root still maps to the document root, but below the
        root the walk may only enter ``scope`` — a direct child of the
        root.  When the pattern root has exactly one child, every
        embedding's non-root images are confined to a single depth-1
        subtree, so the full snapshot result is exactly the composition
        (:meth:`MatchSet.compose`) of the scoped results over the root
        children — the invariant the answer-maintenance layer
        (``repro.lazy.answers``) splices over.
        """
        if scope.parent is not document.root:
            raise ValueError(
                "scope must be a direct child of the document root"
            )
        self._scope = (document.root, scope)
        try:
            return self.evaluate_at(document.root)
        finally:
            self._scope = None

    def evaluate_forest(
        self, forest: Iterable[Node], anchor_edge: EdgeKind = EdgeKind.CHILD
    ) -> MatchSet:
        """Snapshot result over a detached forest.

        The pattern root may map to any tree root of the forest (child
        anchoring) or to any node of the forest (descendant anchoring).
        This is how services evaluate pushed subqueries over their own
        results (Section 7): the result forest is spliced in at exactly
        the position the pushed pattern's root would occupy.
        """
        self._reset_memos()
        self.counter.evaluations += 1
        rows: dict[tuple[int, ...], ResultRow] = {}
        for tree in forest:
            anchors: Iterable[Node]
            if anchor_edge is EdgeKind.CHILD:
                anchors = (tree,)
            else:
                anchors = tree.iter_subtree()
            for anchor in anchors:
                for env, assigns in self._embed(self.pattern.root, anchor, {}):
                    self._record_row(rows, env, assigns)
        return MatchSet(self.pattern, list(rows.values()))

    def has_embedding(self, root: Node) -> bool:
        """Does at least one embedding exist? (phase-1 check + variables)."""
        self._reset_memos()
        self.counter.evaluations += 1
        for _ in self._embed(self.pattern.root, root, {}):
            return True
        return False

    # -- building-block queries (used by the F-guide residual filter) ----------

    def reset(self) -> None:
        """Drop memo tables (call between evaluations on a mutated doc)."""
        self._reset_memos()

    def node_test(self, pnode: PatternNode, dnode: Node) -> bool:
        """Does the node-level test of ``pnode`` accept ``dnode``?"""
        if pnode.is_or:
            return any(self.node_test(alt, dnode) for alt in pnode.children)
        return self._label_matches(pnode, dnode)

    def condition_holds(self, pnode: PatternNode, dnode: Node) -> bool:
        """Can the child condition ``pnode`` be satisfied under ``dnode``?

        Boolean semantics only (value joins across branches are ignored
        — the sound approximation Section 6 uses for residual NFQ
        filtering on guide candidates).
        """
        return self._child_possible(pnode, dnode)

    # -- bookkeeping ----------------------------------------------------------

    def _reset_memos(self) -> None:
        self._can_memo.clear()
        self._below_memo.clear()

    # -- subclass hooks (repro.pattern.multimatch) ---------------------------

    def _memo_key(self, pnode: PatternNode, dnode: Node) -> tuple[int, int]:
        """Memo key for boolean facts about ``(pnode, dnode)``.

        The group matcher overrides this with the pattern node's
        *canonical* id so structurally equal branches of different
        member patterns share one memo entry.  Sound because the
        boolean phase never looks at variable names or result marks.
        """
        return (pnode.uid, id(dnode))

    def _visit_ok(self, node: Node) -> bool:
        """May a subtree walk enter ``node``?

        The group matcher overrides this with a projection-set check:
        a subtree containing no node any member pattern tests can be
        skipped wholesale.  The plain matcher visits everything.
        """
        return True

    def _children_of(self, dnode: Node) -> "Sequence[Node]":
        """The children visible to the walk under the active scope.

        Everywhere the matcher steps from a node to its children it
        must go through this hook, so :meth:`evaluate_scoped` can
        narrow the scoped root to its one depth-1 subtree.
        """
        scope = self._scope
        if scope is not None and dnode is scope[0]:
            return (scope[1],)
        return dnode.children

    def _record_row(
        self,
        rows: dict[tuple[int, ...], ResultRow],
        env: dict[str, str],
        assigns: tuple[tuple[int, Node], ...],
    ) -> None:
        by_uid = dict(assigns)
        nodes = tuple(by_uid[r.uid] for r in self._result_nodes if r.uid in by_uid)
        if len(nodes) != len(self._result_nodes):
            # An OR branch hid some result node: skip incomplete rows.
            # (Relevance queries mark exactly one node, which is always
            # outside OR alternatives, so this never triggers for them.)
            return
        key = tuple(id(n) for n in nodes)
        if key not in rows:
            self.counter.embeddings_found += 1
            rows[key] = ResultRow(
                nodes=nodes, bindings=tuple(sorted(env.items()))
            )

    def _compute_needs_enum(self, node: PatternNode) -> bool:
        needed = node.is_result or node.is_variable
        for child in node.children:
            needed = self._compute_needs_enum(child) or needed
        self._needs_enum[node.uid] = needed
        return needed

    # -- phase 1: boolean reachability ---------------------------------------------

    def _label_matches(self, pnode: PatternNode, dnode: Node) -> bool:
        kind = pnode.kind
        if kind is PatternKind.ELEMENT:
            return dnode.is_element and dnode.label == pnode.label
        if kind is PatternKind.VALUE:
            return dnode.is_value and dnode.label == pnode.label
        if kind is PatternKind.VARIABLE or kind is PatternKind.STAR:
            return dnode.is_data
        if kind is PatternKind.FUNCTION:
            if not dnode.is_function:
                return False
            names = pnode.function_names
            return names is None or dnode.label in names
        raise AssertionError(f"unexpected pattern kind {kind}")

    def _can(self, pnode: PatternNode, dnode: Node) -> bool:
        key = self._memo_key(pnode, dnode)
        cached = self._can_memo.get(key)
        if cached is not None:
            return cached
        self.counter.can_checks += 1
        if pnode.is_or:
            outcome = any(self._can(alt, dnode) for alt in pnode.children)
        elif not self._label_matches(pnode, dnode):
            outcome = False
        else:
            outcome = all(
                self._child_possible(child, dnode) for child in pnode.children
            )
        self._can_memo[key] = outcome
        return outcome

    def _overlay_rows(self, child: PatternNode, dnode: Node) -> list:
        """Overlay rows standing for embeddings of ``child`` when its
        parent pattern node is matched at ``dnode``.

        A bindings reply is recorded at the call's parent.  For a child
        step that position must be ``dnode`` itself, but a descendant
        step from ``dnode`` would have walked into the spliced forest of
        any call position reachable below it — so those positions'
        rows count too (same reachability rules as the walk:
        scope and the function-parameter barrier).
        """
        overlay = self.overlay
        if overlay is None:
            return []
        rows = list(overlay.lookup(dnode, child))
        if child.edge is EdgeKind.DESCENDANT:
            descend = self.options.descend_into_parameters
            for position, extra in overlay.positions(child):
                if not extra or position is dnode:
                    continue
                if position.is_function and not descend:
                    continue  # a parameter forest: invisible to the walk
                if self._strictly_below(position, dnode):
                    rows.extend(extra)
        return rows

    def _child_possible(self, child: PatternNode, dnode: Node) -> bool:
        if self.overlay is not None and self._overlay_rows(child, dnode):
            return True
        if child.edge is EdgeKind.CHILD:
            return any(
                self._can(child, cand) for cand in self._children_of(dnode)
            )
        return self._exists_below(child, dnode)

    def _exists_below(self, pnode: PatternNode, dnode: Node) -> bool:
        """Is there a match for ``pnode`` strictly below ``dnode``?

        Iterative DFS (documents can be deeper than the recursion
        limit) with memoisation: on a negative outcome every fully
        explored interior node is negative too.
        """
        memo = self._below_memo
        key = self._memo_key(pnode, dnode)
        cached = memo.get(key)
        if cached is not None:
            return cached
        if self.arena is not None:
            scanned = self._exists_below_arena(pnode, dnode)
            if scanned is not None:
                memo[key] = scanned
                return scanned
        if self.index is not None and self.index.document.contains(dnode):
            indexed = self._exists_below_indexed(pnode, dnode)
            if indexed is not None:
                memo[key] = indexed
                return indexed
        descend_into_params = self.options.descend_into_parameters
        found = False
        explored: list[tuple[int, int]] = []
        stack = [c for c in self._children_of(dnode) if self._visit_ok(c)]
        while stack:
            node = stack.pop()
            if self._can(pnode, node):
                found = True
                break
            if node.is_function and not descend_into_params:
                continue
            node_key = self._memo_key(pnode, node)
            sub = memo.get(node_key)
            if sub is True:
                found = True
                break
            if sub is False:
                continue
            explored.append(node_key)
            stack.extend(c for c in node.children if self._visit_ok(c))
        if not found:
            for node_key in explored:
                memo[node_key] = False
        memo[key] = found
        return found

    #: Selectivity cutoff for index probes below interior nodes.  From
    #: the document root the bucket is never larger than the walk, but a
    #: big bucket probed for a *small* subtree is a pessimisation — the
    #: walk stops after |subtree| nodes, the bucket scan only after
    #: |bucket| ancestor checks.  Subtree sizes are not maintained, so
    #: below the root the index is used only for small (selective)
    #: buckets.
    SMALL_BUCKET = 64

    def _index_worthwhile(
        self, buckets: list[dict[int, Node]], dnode: Node
    ) -> bool:
        assert self.index is not None
        if dnode is self.index.document.root:
            return True
        return sum(len(members) for members in buckets) <= self.SMALL_BUCKET

    def _exists_below_indexed(
        self, pnode: PatternNode, dnode: Node
    ) -> Optional[bool]:
        """Index-served existence check, or ``None`` when the test is
        not index-answerable (wildcards) or the bucket is too big to
        beat the walk.  Probes only the label's bucket instead of
        walking the subtree."""
        buckets = self._index_buckets(pnode)
        if buckets is None or not self._index_worthwhile(buckets, dnode):
            return None
        for members in buckets:
            for node in members.values():
                self.counter.index_candidates += 1
                if self._strictly_below(node, dnode) and self._can(
                    pnode, node
                ):
                    return True
        return False

    # -- arena fast paths ------------------------------------------------------

    def _arena_filter(
        self, pnode: PatternNode
    ) -> Optional[tuple[int, Optional[frozenset[int]]]]:
        """Compile ``pnode``'s node test to an arena column filter
        ``(want_kind, want_label_ids)``, or ``None`` when the test is
        not column-answerable (OR nodes — alternatives can mix kinds;
        the index or the walk handles them).  ``want_label_ids`` of
        ``None`` means any label; an *empty* set means the label was
        never interned, so no live node can match.  Label-id sets are
        computed per call (two dict probes), never cached: interning is
        append-only and a later splice may introduce the label.
        """
        arena = self.arena
        assert arena is not None
        kind = pnode.kind
        if kind is PatternKind.ELEMENT or kind is PatternKind.VALUE:
            lid = arena.label_id(pnode.label)
            ids = frozenset() if lid is None else frozenset((lid,))
            want = KIND_ELEMENT if kind is PatternKind.ELEMENT else KIND_VALUE
            return (want, ids)
        if kind is PatternKind.STAR or kind is PatternKind.VARIABLE:
            return (ANY_DATA, None)
        if kind is PatternKind.FUNCTION:
            names = pnode.function_names
            if names is None:
                return (KIND_FUNCTION, None)
            ids = frozenset(
                lid
                for lid in (arena.label_id(name) for name in names)
                if lid is not None
            )
            return (KIND_FUNCTION, ids)
        return None

    def _arena_roots(self, dnode: Node) -> Optional[list[int]]:
        """Slots of the walk's entry points below ``dnode`` (its
        scope-visible children), or ``None`` when ``dnode`` is not
        mirrored by the arena (wrong document, stale node)."""
        arena = self.arena
        assert arena is not None
        if arena.slot_for(dnode) is None:
            return None
        slot_of = arena._slot_of
        roots = []
        for child in self._children_of(dnode):
            slot = slot_of.get(child.node_id)
            if slot is not None:
                roots.append(slot)
        return roots

    def _exists_below_arena(
        self, pnode: PatternNode, dnode: Node
    ) -> Optional[bool]:
        """Column-scan existence check: a tight int-loop DFS over the
        arena arrays, label-prefiltered.  For every non-OR pattern kind
        the column screen is *equivalent* to ``_label_matches`` (an
        un-interned label already returned ``False`` above; ``ANY_DATA``
        on a live slot is exactly ``is_data``; a function-name set is
        screened by interned ids), so a leaf ``pnode`` needs no per-node
        re-test at all — only interior pnodes still run ``_can``, for
        their child conditions.  ``None`` falls back to the index probe
        or the object walk.
        """
        spec = self._arena_filter(pnode)
        if spec is None:
            return None
        roots = self._arena_roots(dnode)
        if roots is None:
            return None
        want_kind, want_ids = spec
        if want_ids is not None and not want_ids:
            return False
        arena = self.arena
        assert arena is not None
        kind_col = arena.kind
        label_col = arena.label
        first_child = arena.first_child
        next_sibling = arena.next_sibling
        node_at = arena._node_at
        descend = self.options.descend_into_parameters
        leaf = not pnode.children
        stack = roots
        while stack:
            slot = stack.pop()
            k = kind_col[slot]
            if (
                (k == want_kind or (want_kind == ANY_DATA and k != KIND_FUNCTION))
                and (want_ids is None or label_col[slot] in want_ids)
                and (leaf or self._can(pnode, node_at[slot]))
            ):
                return True
            if k == KIND_FUNCTION and not descend:
                continue
            c = first_child[slot]
            while c != -1:
                stack.append(c)
                c = next_sibling[c]
        return False

    def _arena_candidates(
        self, pnode: PatternNode, dnode: Node
    ) -> Optional[list[Node]]:
        """Descendant candidates served from the columns, label-
        prefiltered, in node-id order (same deterministic order as the
        index path; skipped nodes cannot pass ``_quick_filter``).
        ``None`` falls back to the index or the walk.
        """
        spec = self._arena_filter(pnode)
        if spec is None:
            return None
        roots = self._arena_roots(dnode)
        if roots is None:
            return None
        want_kind, want_ids = spec
        if want_ids is not None and not want_ids:
            return []
        arena = self.arena
        assert arena is not None
        slots = arena.scan_descendants(
            roots, want_kind, want_ids, self.options.descend_into_parameters
        )
        slots.sort(key=arena.node_id.__getitem__)
        self.counter.candidates_visited += len(slots)
        node_at = arena._node_at
        return [node_at[slot] for slot in slots]

    # -- phase 2: enumeration ------------------------------------------------------------

    def _candidates(
        self, dnode: Node, edge: EdgeKind, pnode: Optional[PatternNode] = None
    ) -> Iterator[Node]:
        if edge is EdgeKind.CHILD:
            for child in self._children_of(dnode):
                self.counter.candidates_visited += 1
                yield child
            return
        if pnode is not None and self.arena is not None:
            served = self._arena_candidates(pnode, dnode)
            if served is not None:
                yield from served
                return
        if (
            pnode is not None
            and self.index is not None
            and self.index.document.contains(dnode)
        ):
            indexed = self._index_candidates(pnode, dnode)
            if indexed is not None:
                yield from indexed
                return
        stack = [
            c for c in reversed(self._children_of(dnode)) if self._visit_ok(c)
        ]
        while stack:
            node = stack.pop()
            self.counter.candidates_visited += 1
            yield node
            if node.is_function and not self.options.descend_into_parameters:
                continue
            stack.extend(
                c for c in reversed(node.children) if self._visit_ok(c)
            )

    def _index_candidates(
        self, pnode: PatternNode, dnode: Node
    ) -> Optional[list[Node]]:
        """Descendant candidates for ``pnode`` under ``dnode``, by label.

        Returns ``None`` when the step is not index-answerable (star
        and variable tests match any data node, so the index would just
        replay the walk) or when the bucket fails the selectivity
        cutoff.  Candidates come back in node-id order — a deterministic
        order; row sets are independent of it.
        """
        buckets = self._index_buckets(pnode)
        if buckets is None or not self._index_worthwhile(buckets, dnode):
            return None
        hits: dict[int, Node] = {}
        for members in buckets:
            hits.update(members)
        out = [
            (node_id, node)
            for node_id, node in hits.items()
            if self._strictly_below(node, dnode)
        ]
        out.sort(key=lambda pair: pair[0])
        self.counter.index_candidates += len(out)
        return [node for _, node in out]

    def _index_buckets(
        self, pnode: PatternNode
    ) -> Optional[list[dict[int, Node]]]:
        assert self.index is not None
        kind = pnode.kind
        if kind is PatternKind.ELEMENT or kind is PatternKind.VALUE:
            return [self.index.labels.get(pnode.label, {})]
        if kind is PatternKind.FUNCTION:
            names = pnode.function_names
            if names is None:
                return list(self.index.functions.values())
            return [self.index.functions.get(name, {}) for name in names]
        if pnode.is_or:
            buckets: list[dict[int, Node]] = []
            for alt in pnode.children:
                sub = self._index_buckets(alt)
                if sub is None:
                    return None
                buckets.extend(sub)
            return buckets
        return None  # STAR / VARIABLE: any data node qualifies

    def _strictly_below(self, node: Node, dnode: Node) -> bool:
        """Would the subtree walk from ``dnode`` reach ``node``?

        Mirrors the walk's function-parameter barrier: parameter
        subtrees are invisible to descendant steps unless the options
        say otherwise.  Under an active scope the walk leaves the
        scoped root through exactly one child, so an index-served
        candidate only counts when the path to it passes through that
        child — otherwise the index would smuggle in nodes the scoped
        walk cannot reach.
        """
        descend = self.options.descend_into_parameters
        scope = self._scope
        prev = node
        ancestor = node.parent
        while ancestor is not None:
            if ancestor is dnode:
                return (
                    scope is None
                    or ancestor is not scope[0]
                    or prev is scope[1]
                )
            if ancestor.is_function and not descend:
                return False
            prev = ancestor
            ancestor = ancestor.parent
        return False

    def _embed(
        self, pnode: PatternNode, dnode: Node, env: dict[str, str]
    ) -> Iterator[tuple[dict[str, str], tuple[tuple[int, Node], ...]]]:
        if pnode.is_or:
            for alt in pnode.children:
                yield from self._embed(alt, dnode, env)
            return
        if not self._can(pnode, dnode):
            return
        if pnode.is_variable:
            bound = env.get(pnode.label)
            if bound is not None:
                if bound != dnode.label:
                    return
            else:
                env = {**env, pnode.label: dnode.label}

        assigns: tuple[tuple[int, Node], ...] = ()
        if pnode.is_result:
            assigns = ((pnode.uid, dnode),)

        enum_children = [
            c for c in pnode.children if self._needs_enum[c.uid]
        ]
        # Purely boolean children were already verified by _can(pnode,.).
        yield from self._combine(enum_children, 0, dnode, env, assigns)

    def _combine(
        self,
        enum_children: list[PatternNode],
        index: int,
        dnode: Node,
        env: dict[str, str],
        assigns: tuple[tuple[int, Node], ...],
    ) -> Iterator[tuple[dict[str, str], tuple[tuple[int, Node], ...]]]:
        if index == len(enum_children):
            yield env, assigns
            return
        child = enum_children[index]
        for cand in self._candidates(dnode, child.edge, child):
            if not self._quick_filter(child, cand):
                continue
            for env2, a2 in self._embed(child, cand, env):
                yield from self._combine(
                    enum_children, index + 1, dnode, env2, assigns + a2
                )
        if self.overlay is not None:
            for row in self._overlay_rows(child, dnode):
                env2 = row.merge_env(env)
                if env2 is None:
                    continue
                extra = tuple(
                    (uid, node) for uid, node in row.nodes_by_uid.items()
                )
                yield from self._combine(
                    enum_children, index + 1, dnode, env2, assigns + extra
                )

    def _quick_filter(self, pnode: PatternNode, dnode: Node) -> bool:
        if pnode.is_or:
            return any(self._can(alt, dnode) for alt in pnode.children)
        return self._can(pnode, dnode)


# -- module-level conveniences ---------------------------------------------------


def snapshot_result(
    pattern: TreePattern,
    document: Document,
    options: Optional[MatchOptions] = None,
    counter: Optional[MatchCounter] = None,
) -> MatchSet:
    """Evaluate ``pattern`` over ``document`` in its current state."""
    return Matcher(pattern, options=options, counter=counter).evaluate(document)


def has_match(pattern: TreePattern, document: Document) -> bool:
    return Matcher(pattern).has_embedding(document.root)
