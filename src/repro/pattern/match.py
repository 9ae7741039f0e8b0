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

One evaluator computes this: :class:`Matcher` runs the pattern's
compiled plan (:mod:`repro.pattern.columnmatch`) over the document's
own column mirror, ``document.arena``, and materialises nodes only for
the final rows.  A detached forest — how a service answers a pushed
subquery (Section 7) — gets a throwaway document of its own, so a
source runs the same evaluator as the engine that pushed to it.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Iterable, Iterator, Optional, Sequence

from ..axml.document import Document
from ..axml.node import Node, element
from .columnmatch import ColumnMatcher, SlotRow, compile_plan
from .nodes import EdgeKind, PatternKind, PatternNode
from .pattern import TreePattern


class MatchCounter:
    """Work counters, used by the experiments to report matcher effort:
    ``column_pass_nodes`` counts slots the plan's scans touched and
    ``column_rows`` the rows it produced."""

    __slots__ = (
        "column_pass_nodes",
        "column_rows",
        "embeddings_found",
        "evaluations",
    )

    def __init__(self) -> None:
        self.column_pass_nodes = 0
        self.column_rows = 0
        self.embeddings_found = 0
        self.evaluations = 0


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


class Matcher:
    """Evaluates one pattern over trees by its compiled plan; reusable
    across documents."""

    def __init__(
        self, pattern: TreePattern, counter: Optional[MatchCounter] = None
    ) -> None:
        self.pattern = pattern
        self.counter = counter or MatchCounter()
        self._plan = compile_plan(pattern)
        #: The plan's matcher over the last arena read: a document whose
        #: arena was rebuilt (a raising splice drops it) gets a new one.
        self._column: Optional[ColumnMatcher] = None
        #: Anchor edge -> the matcher of this pattern hung below a
        #: forest's synthetic root (:meth:`_forest`).
        self._hung: dict[EdgeKind, Matcher] = {}

    # -- public API --------------------------------------------------------

    def evaluate(self, document: Document) -> MatchSet:
        """Snapshot result over a document (root maps to root)."""
        return self._run(document, None)

    def evaluate_scoped(self, document: Document, scope: Node) -> MatchSet:
        """Snapshot result restricted to one depth-1 subtree.

        The pattern root still maps to the document root, but below the
        root the run may only enter ``scope`` — a direct child of the
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
        return self._run(document, scope)

    def evaluate_forest(
        self, forest: Iterable[Node], anchor_edge: EdgeKind = EdgeKind.CHILD
    ) -> MatchSet:
        """Snapshot result over a detached forest.

        The pattern root may map to any tree root of the forest (child
        anchoring) or to any node of the forest outside call parameters
        (descendant anchoring).  This is how services evaluate pushed
        subqueries over their own results (Section 7): the result forest
        is spliced in at exactly the position the pushed pattern's root
        would occupy.  The trees are neither attached nor renumbered.
        """
        trees = list(forest)
        hung, document, nodes = self._forest(trees, anchor_edge)
        rows = hung._slot_rows(document, None)
        return MatchSet(self.pattern, _rows_at(nodes, nodes.__getitem__, rows))

    def embeds_in(
        self, forest: Iterable[Node], anchor_edge: EdgeKind = EdgeKind.CHILD
    ) -> list[bool]:
        """Per tree of the forest, does :meth:`evaluate_forest` over that
        tree alone have a row?  One run per tree, over one throwaway
        document holding them all."""
        trees = list(forest)
        hung, document, _ = self._forest(trees, anchor_edge)
        return [
            bool(hung._slot_rows(document, clone))
            for clone in document.root.children
        ]

    # -- the plan ----------------------------------------------------------

    def _run(self, document: Document, scope: Optional[Node]) -> MatchSet:
        rows = self._slot_rows(document, scope)
        arena = document.arena
        return MatchSet(self.pattern, _rows_at(arena._node_at, arena.node_at, rows))

    def _slot_rows(self, document: Document, scope: Optional[Node]) -> list[SlotRow]:
        """The plan's rows at the document root, in slots of
        ``document.arena`` (every live node has one)."""
        arena = document.arena
        column = self._column
        if column is None or column.arena is not arena:
            column = self._column = ColumnMatcher(self._plan, arena, self.counter)
        self.counter.evaluations += 1
        return column.run(
            arena.slot_for(document.root),
            None if scope is None else arena.slot_for(scope),
        )

    def _forest(
        self, trees: list[Node], anchor_edge: EdgeKind
    ) -> tuple["Matcher", Document, list[Optional[Node]]]:
        """A throwaway document over clones of ``trees`` under one
        synthetic root, the matcher of this pattern hung below that root
        by ``anchor_edge``, and the caller's nodes by slot: a fresh
        document's slots are its ids, and ids follow pre-order."""
        hung = self._hung.get(anchor_edge)
        if hung is None:
            root = self.pattern.root.clone()
            root.edge = anchor_edge
            top = PatternNode(PatternKind.STAR, children=(root,))
            hung = self._hung[anchor_edge] = Matcher(
                TreePattern(top, name=self.pattern.name), self.counter
            )
        document = Document(element("forest", *(tree.clone() for tree in trees)))
        nodes: list[Optional[Node]] = [None]
        for tree in trees:
            nodes.extend(tree.iter_subtree())
        return hung, document, nodes


def _rows_at(
    nodes: Sequence[Optional[Node]],
    node_at: Callable[[int], Node],
    rows: list[SlotRow],
) -> list[ResultRow]:
    """The rows' nodes by slot; a slot whose node is not made yet (a
    lazily loaded document's) is read through ``node_at``."""
    return [
        ResultRow(
            nodes=tuple([nodes[s] or node_at(s) for s in slots]), bindings=bindings
        )
        for slots, bindings in rows
    ]


# -- module-level conveniences ---------------------------------------------------


def snapshot_result(
    pattern: TreePattern,
    document: Document,
    counter: Optional[MatchCounter] = None,
) -> MatchSet:
    """Evaluate ``pattern`` over ``document`` in its current state."""
    return Matcher(pattern, counter=counter).evaluate(document)
