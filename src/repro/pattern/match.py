"""Query embeddings: evaluating tree patterns over AXML trees.

Implements Definition 1 of the paper — an embedding is a tree
homomorphism from the pattern to the document mapping the pattern root to
the document root, preserving parent-child (child edges) and
ancestor-descendant (descendant edges) relationships, with consistent
variable bindings.  The *snapshot result* of a query is the set of
restrictions of all embeddings to the result nodes.

Extended patterns (Section 2's "some useful machinery") are evaluated
natively: an OR node matches when one of its alternatives does, and
function pattern nodes map to function nodes of the document.  A call's
parameters are arguments shipped to its service, not document content
(Section 2): the function node itself is visible — it is what relevance
queries retrieve — but no step ever enters its parameters.

Two evaluators share these semantics, and one rule the matcher can
observe per evaluation picks between them:

* **a mirrored root runs the column plan** — a matcher built with
  ``arena=`` and ``column_match=True``, evaluated at a root the arena
  has a slot for, runs the pattern's compiled plan wholly in slot space
  (:mod:`repro.pattern.columnmatch`; every pattern compiles) and
  materialises nodes only for the final rows;
* **everything else runs the plain object walk** of this module:
  detached forests (:meth:`Matcher.evaluate_forest`, how services
  answer pushed subqueries), :meth:`Matcher.has_embedding`, the F-guide
  residual checks (:meth:`Matcher.node_test` /
  :meth:`Matcher.condition_holds`), a root the arena does not mirror,
  and any matcher built without an arena (the ``NAIVE`` strategy, the
  reference oracle of the tests).  Where a plan was requested and could
  not run, the evaluation records its
  :class:`~repro.pattern.columnmatch.StandDown` reason.

The walk works in two phases:

1. a memoised boolean ``can-match`` pass (ignoring variable consistency,
   a sound necessary condition), including a memoised
   ``exists-below`` relation so descendant edges cost ``O(|q|·|d|)``;
2. enumeration of embeddings, threaded through only the pattern branches
   that contain variables or result nodes — purely boolean branches are
   answered by phase 1.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Iterator, Optional, Sequence

from ..axml.arena import DocumentArena
from ..axml.document import Document
from ..axml.node import Node
from .columnmatch import ColumnMatcher, StandDown, compile_plan
from .nodes import EdgeKind, PatternKind, PatternNode
from .pattern import TreePattern


class MatchCounter:
    """Work counters, used by the experiments to report matcher effort.

    ``candidates_visited`` counts nodes enumerated by walking the tree
    (child and descendant steps alike, so the figure is comparable
    across edge kinds).

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
    )

    def __init__(self) -> None:
        self.can_checks = 0
        self.candidates_visited = 0
        self.column_fallback_reasons: dict[str, int] = {}
        self.column_pass_nodes = 0
        self.column_rows = 0
        self.embeddings_found = 0
        self.evaluations = 0

    @property
    def column_fallbacks(self) -> int:
        return sum(self.column_fallback_reasons.values())


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


class Rows(tuple):
    """Result rows, immutable, that derive their value rows once.

    What a kept store entry hands every reader of one state (twins, the
    engine's final read, the server's fan-out): they all hold this one
    object, so :meth:`value_set` is computed once per state however
    many read it, and goes when the last of them lets go."""

    def value_set(self) -> frozenset[tuple[str, ...]]:
        """The rows as label tuples, computed on first use."""
        try:
            return self._values
        except AttributeError:
            self._values = frozenset(row.values() for row in self)
            return self._values


class MatchSet:
    """The snapshot result ``q(d)`` of a pattern over a tree."""

    def __init__(self, pattern: TreePattern, rows: Sequence[ResultRow]) -> None:
        self.pattern = pattern
        self.rows = rows if type(rows) is Rows else Rows(rows)

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
        key survives removals and recognises a row across splices
        (bindings are tie-broken by the first witnessing embedding and
        are *not* part of identity).
        """
        return tuple(
            -1 if node.node_id is None else node.node_id
            for node in row.nodes
        )

    def distinct_nodes(self, position: int = 0) -> list[Node]:
        """Distinct document nodes bound at one result position."""
        seen: dict[int, Node] = {}
        for row in self.rows:
            node = row.nodes[position]
            seen.setdefault(id(node), node)
        return list(seen.values())

    def value_rows(self) -> set[tuple[str, ...]]:
        """Result rows as label tuples — handy for equality in tests."""
        return set(self.rows.value_set())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MatchSet({len(self.rows)} rows of {self.pattern.name!r})"


def needs_enum(pattern: TreePattern) -> dict[int, bool]:
    """Pattern node uid -> does it bind something (a variable, a result
    node) at or below it: the branches enumeration threads through.
    Computed once per pattern object (``pattern.needs_enum``), as its
    compiled plan is."""
    if pattern.needs_enum is None:
        table: dict[int, bool] = {}

        def visit(node: PatternNode) -> bool:
            needed = node.is_result or node.is_variable
            for child in node.children:
                needed = visit(child) or needed
            table[node.uid] = needed
            return needed

        visit(pattern.root)
        pattern.needs_enum = table
    return pattern.needs_enum


class Matcher:
    """Evaluates one pattern over trees; reusable across documents."""

    def __init__(
        self,
        pattern: TreePattern,
        counter: Optional[MatchCounter] = None,
        arena: Optional[DocumentArena] = None,
        column_match: bool = False,
    ) -> None:
        self.pattern = pattern
        self.counter = counter or MatchCounter()
        self.arena = arena
        #: Column fast path (``repro.pattern.columnmatch``): auto-off
        #: without an arena.
        self.column_match = bool(column_match) and arena is not None
        self._column: Optional[ColumnMatcher] = None
        if self.column_match:
            self._column = ColumnMatcher(
                compile_plan(pattern), arena, self.counter
            )
        self._result_nodes = pattern.result_nodes()
        self._needs_enum = needs_enum(pattern)
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
        only for the final rows.  ``None`` means stand-down — an
        unmirrored root, or a scope child without a slot — recorded
        under its :class:`StandDown` reason; the caller runs the object
        walk."""
        arena = self.arena
        reason = scope_slot = None
        root_slot = arena.slot_for(root)
        scope = self._scope
        if root_slot is None:
            reason = StandDown.UNMIRRORED_ROOT
        elif scope is not None:
            scope_slot = arena.slot_for(scope[1]) if scope[0] is root else None
            if scope_slot is None:
                reason = StandDown.SCOPE_WITHOUT_SLOT
        if reason is not None:
            reasons = self.counter.column_fallback_reasons
            reasons[reason.value] = reasons.get(reason.value, 0) + 1
            return None
        slot_rows = self._column.run(root_slot, scope_slot)
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
        subtree, so the full snapshot result is exactly the union of
        the scoped results over the root children — disjoint wherever
        a result node sits below the root — the invariant the
        scope-partitioned store (``repro.lazy.incremental``) stands on.
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
            # An OR branch hid some result node: the embedding took an
            # alternative that does not hold it, so it witnesses no row.
            # (A relevance query's one result node may sit in an
            # alternative — the NFQ of a descendant condition — and then
            # only the embeddings through that alternative are rows.)
            return
        key = tuple(id(n) for n in nodes)
        if key not in rows:
            self.counter.embeddings_found += 1
            rows[key] = ResultRow(
                nodes=nodes, bindings=tuple(sorted(env.items()))
            )

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
        key = (pnode.uid, id(dnode))
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

    def _child_possible(self, child: PatternNode, dnode: Node) -> bool:
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
        uid = pnode.uid
        key = (uid, id(dnode))
        cached = memo.get(key)
        if cached is not None:
            return cached
        found = False
        explored: list[tuple[int, int]] = []
        stack = list(self._children_of(dnode))
        while stack:
            node = stack.pop()
            if self._can(pnode, node):
                found = True
                break
            if node.is_function:
                continue  # parameters are opaque
            node_key = (uid, id(node))
            sub = memo.get(node_key)
            if sub is True:
                found = True
                break
            if sub is False:
                continue
            explored.append(node_key)
            stack.extend(node.children)
        if not found:
            for node_key in explored:
                memo[node_key] = False
        memo[key] = found
        return found

    # -- phase 2: enumeration ------------------------------------------------------------

    def _candidates(self, dnode: Node, edge: EdgeKind) -> Iterator[Node]:
        if edge is EdgeKind.CHILD:
            for child in self._children_of(dnode):
                self.counter.candidates_visited += 1
                yield child
            return
        stack = list(reversed(self._children_of(dnode)))
        while stack:
            node = stack.pop()
            self.counter.candidates_visited += 1
            yield node
            if not node.is_function:  # parameters are opaque
                stack.extend(reversed(node.children))

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
        for cand in self._candidates(dnode, child.edge):
            if not self._quick_filter(child, cand):
                continue
            for env2, a2 in self._embed(child, cand, env):
                yield from self._combine(
                    enum_children, index + 1, dnode, env2, assigns + a2
                )

    def _quick_filter(self, pnode: PatternNode, dnode: Node) -> bool:
        if pnode.is_or:
            return any(self._can(alt, dnode) for alt in pnode.children)
        return self._can(pnode, dnode)


# -- module-level conveniences ---------------------------------------------------


def snapshot_result(
    pattern: TreePattern,
    document: Document,
    counter: Optional[MatchCounter] = None,
) -> MatchSet:
    """Evaluate ``pattern`` over ``document`` in its current state."""
    return Matcher(pattern, counter=counter).evaluate(document)
