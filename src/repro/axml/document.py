"""AXML documents: identity, mutation, and observation.

A :class:`Document` owns a tree of :class:`~repro.axml.node.Node` objects,
assigns stable node ids, and funnels the one mutation that matters to the
paper — replacing a function node by the forest its invocation returned
(Definition 2's rewrite step ``d1 ->v d2``) — through a single method so
that access structures such as the F-guide (Section 6.2) can be maintained
incrementally via the observer hooks.  An observer defines the hooks it
needs — ``call_removed`` / ``calls_added`` for call extents, ``splice``
for the full delta — and :meth:`Document.add_observer` resolves them
once.  The document also keeps, itself, the one fact about its authors
every standing query used to re-derive: which services' calls were
inserted from outside, and when (:attr:`Document.authored_calls`).
"""

from __future__ import annotations

import dataclasses
from typing import (
    TYPE_CHECKING,
    Iterable,
    Iterator,
    Optional,
    Protocol,
    Sequence,
)

from .node import Node, NodeKind

if TYPE_CHECKING:
    from .arena import DocumentArena


class DocumentObserver(Protocol):
    """Incremental-maintenance hooks for document mutations — each one
    optional: an observer receives the events it defines a method for
    (:data:`OBSERVER_HOOKS`).  These two suffice for call-extent
    structures; ``splice(document, delta)`` carries the whole
    :class:`SpliceDelta`."""

    def call_removed(self, document: "Document", node: Node) -> None:
        """A function node was removed (it has just been invoked)."""

    def calls_added(self, document: "Document", nodes: list[Node]) -> None:
        """New function nodes appeared (inside an invocation result)."""


OBSERVER_HOOKS = ("call_removed", "calls_added", "splice")


@dataclasses.dataclass(frozen=True)
class SpliceDelta:
    """Exactly what one document mutation changed.

    The call-level events above are enough for call-extent structures
    (the F-guide); incremental structures over *all* nodes (the arena,
    the relevance store) need the full delta: every subtree that
    left the document and every subtree that was spliced in, plus where.
    Observers that define a ``splice(document, delta)`` method receive
    one delta per mutation, after the tree has reached its final state.

    Attributes:
        removed: roots of the subtrees that left the document (for a
            call invocation: the function node, parameters still
            attached underneath).
        added: roots of the subtrees spliced in (an invocation's result
            forest), already attached.
        parent: the node under which the splice happened.
    """

    removed: tuple[Node, ...]
    added: tuple[Node, ...]
    parent: Optional[Node]

    def iter_added(self) -> Iterator[Node]:
        """Every node (not just roots) that entered the document."""
        for root in self.added:
            yield from root.iter_subtree()

    def scope_under(self, root: Node) -> Optional[Node]:
        """The depth-1 attachment point of this splice below ``root``.

        Returns the child of ``root`` whose subtree contains the
        splice's parent — the one depth-1 subtree in which every added
        and removed node lives — or ``None`` when the splice happened
        directly under ``root`` itself (the removed and added roots are
        then depth-1 subtrees in their own right) or when the parent is
        detached from ``root`` entirely.  Answer maintenance keys its
        per-subtree dirtiness on this node.
        """
        cursor = self.parent
        if cursor is None or cursor is root:
            return None
        while cursor.parent is not None and cursor.parent is not root:
            cursor = cursor.parent
        return cursor if cursor.parent is root else None

    def scope_ids_under(self, root: Node) -> tuple[int, ...]:
        """Node ids of the depth-1 subtrees below ``root`` this splice
        could have changed: the one it happened in, or — for a splice
        directly under ``root`` — the removed roots (they *were*
        depth-1 subtrees; detached nodes keep their ids) and the added
        ones.  The dirtiness key of everything partitioned by depth-1
        subtree (maintained answers, relevance sets)."""
        scope = self.scope_under(root)
        nodes = (scope,) if scope is not None else self.removed + self.added
        return tuple(n.node_id for n in nodes if n.node_id is not None)


@dataclasses.dataclass(frozen=True)
class DocumentStats:
    """Size figures for a document, used by experiment reports."""

    total_nodes: int
    element_nodes: int
    value_nodes: int
    function_nodes: int
    max_depth: int

    @property
    def intensional_fraction(self) -> float:
        """Fraction of nodes that are (still) unevaluated service calls."""
        if self.total_nodes == 0:
            return 0.0
        return self.function_nodes / self.total_nodes


class Document:
    """An Active XML document.

    Args:
        root: the root node; it must be an element node (the paper's
            documents always have a data root — a function node cannot
            replace the document root).
        name: optional human-readable name used in reports.
    """

    def __init__(self, root: Node, name: str = "document") -> None:
        if not root.is_element:
            raise ValueError("document root must be an element node")
        if root.parent is not None:
            raise ValueError("document root must be detached")
        self.root = root
        self.name = name
        self.version = 0
        """Bumped on every mutation; cheap change detection for caches
        and continuous queries."""
        self._next_id = 0
        self._nodes_by_id: dict[int, Node] = {}
        self._observers: list[DocumentObserver] = []
        #: Hook name -> the bound handlers of the observers defining it.
        self._handlers: dict[str, list] = {hook: [] for hook in OBSERVER_HOOKS}
        self.authored_calls: dict[str, int] = {}
        """Service name -> the latest :attr:`version` at which an author
        inserted a call of it (:meth:`insert_subtree`; a call some
        invocation produced does not count, nor does a removal) — the
        one in-band signal that the world *behind* a service may have
        changed.  A standing query flushes the bus's memoized replies
        of the services re-asked since its last refresh, and no others:
        queries sharing a bus keep what each other just memoized."""
        self._arena: Optional["DocumentArena"] = None
        self.relevance = None
        """The document's :class:`~repro.lazy.incremental.RelevanceStore`
        while anything holds it (``RelevanceStore.of``)."""
        self._producer_of_call: dict[int, Optional[int]] = {}
        """Call id -> id of the call that produced *that* call node,
        recorded as calls leave (they are then gone from the id map)."""
        self.function_labels: set[str] = set()
        """Every service name a call of this document has carried —
        append-only (an invoked or removed call's name stays): what a
        typed analysis learns before it reads a family, in O(new names)
        rather than a sweep of the calls."""
        self._register((root,))

    # -- identity ------------------------------------------------------------

    def _register(
        self, forest: Sequence[Node], produced_by: Optional[int] = None
    ) -> list[Node]:
        """Assign ids to every node of a freshly attached forest, in
        document order, in one pre-order pass; a call's result forest is
        tagged ``produced_by`` that call on the way.  Returns the
        forest's function nodes (their names join
        :attr:`function_labels`)."""
        new_functions = []
        by_id = self._nodes_by_id
        labels = self.function_labels
        next_id = self._next_id
        stack = list(reversed(forest))
        while stack:
            node = stack.pop()
            node.node_id = next_id
            by_id[next_id] = node
            next_id += 1
            if produced_by is not None:
                node.produced_by = produced_by
            if node.kind is NodeKind.FUNCTION:
                new_functions.append(node)
                labels.add(node.label)
            if node.children:
                stack.extend(reversed(node.children))
        self._next_id = next_id
        return new_functions

    def node(self, node_id: int) -> Node:
        """The node with the given id (raises ``KeyError`` if gone)."""
        node = self._nodes_by_id[node_id]
        return node

    def contains(self, node: Node) -> bool:
        """Is this exact node currently part of the document?"""
        return (
            node.node_id is not None
            and self._nodes_by_id.get(node.node_id) is node
        )

    def child_of_root(self, node_id: int) -> Optional[Node]:
        """The direct child of the root with this id, or ``None`` when
        the id is gone or names a deeper node."""
        node = self._nodes_by_id.get(node_id)
        return node if node is not None and node.parent is self.root else None

    @property
    def live_nodes(self) -> int:
        """Nodes currently in the document, in O(1) (:meth:`stats`
        walks the tree for the per-kind figures)."""
        return len(self._nodes_by_id)

    @property
    def arena(self) -> "DocumentArena":
        """The document's own column mirror
        (:class:`~repro.axml.arena.DocumentArena`): built on first use,
        splice-maintained from then on, shared by every matcher that
        reads this document."""
        if self._arena is None:
            from .arena import DocumentArena  # arena.py imports this module

            self._arena = DocumentArena(self)
        return self._arena

    # -- observers -----------------------------------------------------------

    def add_observer(self, observer: DocumentObserver) -> None:
        self._observers.append(observer)
        self._resolve_handlers()

    def remove_observer(self, observer: DocumentObserver) -> None:
        self._observers.remove(observer)
        self._resolve_handlers()

    def _resolve_handlers(self) -> None:
        """Each observer's hooks, looked up once per change of the
        observer list, in attachment order.  Fresh lists: a handler
        that attaches or detaches an observer does not disturb the
        delivery it runs in."""
        for hook in OBSERVER_HOOKS:
            self._handlers[hook] = [
                getattr(observer, hook)
                for observer in self._observers
                if hasattr(observer, hook)
            ]

    def _notify(
        self, calls_removed: Sequence[Node], calls_added: list[Node], delta: SpliceDelta
    ) -> None:
        """Tell the observers what one mutation changed, once the tree
        has its final shape: each removed call, the added calls, the
        delta.  Every handler runs — one that raises stops neither the
        others nor a mirror half way — and the first exception is
        re-raised after the last."""
        failure = None
        for hook, payloads in (
            ("call_removed", calls_removed),
            ("calls_added", (calls_added,) if calls_added else ()),
            ("splice", (delta,)),
        ):
            handlers = self._handlers[hook]
            for payload in payloads:
                for handler in handlers:
                    try:
                        handler(self, payload)
                    except Exception as error:
                        failure = failure or error
        if failure is not None:
            raise failure

    # -- queries over the tree -------------------------------------------------

    def iter_nodes(self) -> Iterator[Node]:
        return self.root.iter_subtree()

    def function_nodes(self) -> list[Node]:
        """All function nodes currently embedded, in document order."""
        return [n for n in self.iter_nodes() if n.is_function]

    def stats(self) -> DocumentStats:
        counts = {NodeKind.ELEMENT: 0, NodeKind.VALUE: 0, NodeKind.FUNCTION: 0}
        max_depth = 0
        stack = [(self.root, 0)]
        while stack:
            node, depth = stack.pop()
            counts[node.kind] += 1
            max_depth = max(max_depth, depth)
            stack.extend((c, depth + 1) for c in node.children)
        return DocumentStats(
            total_nodes=sum(counts.values()),
            element_nodes=counts[NodeKind.ELEMENT],
            value_nodes=counts[NodeKind.VALUE],
            function_nodes=counts[NodeKind.FUNCTION],
            max_depth=max_depth,
        )

    # -- the rewrite step ------------------------------------------------------

    def replace_call(self, function_node: Node, result_forest: Iterable[Node]) -> list[Node]:
        """Definition 2's rewrite step: splice a call result into the tree.

        The function node (with its parameter subtrees) is deleted and the
        trees of ``result_forest`` are plugged in its place, preserving
        document order.  Every node of the result is tagged as produced by
        the invoked call, and observers are notified.

        Returns:
            The function nodes newly brought in by the result forest.
        """
        if not self.contains(function_node):
            raise ValueError(f"{function_node!r} is not part of this document")
        if not function_node.is_function:
            raise ValueError("replace_call expects a function node")
        parent = function_node.parent
        if parent is None:
            raise ValueError("cannot replace the document root")
        # Everything that can reject the forest happens before the first
        # mutation: a refused splice leaves document, version and
        # observers (the arena) untouched.
        forest = list(result_forest)
        for tree in forest:
            if tree.parent is not None or self.contains(tree):
                raise ValueError("result forest trees must be detached")
        if len({id(tree) for tree in forest}) != len(forest):
            raise ValueError("result forest names the same tree twice")

        self.version += 1
        self.record_call_provenance(function_node)
        siblings = parent.children
        position = siblings.index(function_node)
        self._unregister_subtree(function_node)
        del siblings[position]
        function_node.parent = None

        new_functions = self._register(forest, produced_by=function_node.node_id)
        for tree in forest:
            tree.parent = parent
        siblings[position:position] = forest
        delta = SpliceDelta((function_node,), tuple(forest), parent)
        self._notify(delta.removed, new_functions, delta)
        return new_functions

    def _unregister_subtree(self, subtree_root: Node) -> None:
        for node in subtree_root.iter_subtree():
            if node.node_id is not None:
                self._nodes_by_id.pop(node.node_id, None)

    # -- general updates -----------------------------------------------------

    def insert_subtree(
        self, parent: Node, subtree: Node, position: Optional[int] = None
    ) -> list[Node]:
        """Insert a detached subtree as a child of ``parent``.

        Section 6.2 notes that access structures "must be maintained as
        the document evolves ... if the document is updated" — not only
        through call invocations; this is the generic insertion, with
        observer notification for any calls the subtree brings.

        Returns the function nodes newly added to the document.
        """
        if not self.contains(parent):
            raise ValueError("insertion parent is not part of this document")
        if parent.is_value:
            raise ValueError("value leaves cannot have children")
        if subtree.parent is not None:
            raise ValueError("subtree must be detached")
        self.version += 1
        new_functions = self._register((subtree,))
        subtree.parent = parent
        if position is None:
            parent.children.append(subtree)
        else:
            parent.children.insert(position, subtree)
        for node in new_functions:
            if node.produced_by is None:
                self.authored_calls[node.label] = self.version
        self._notify((), new_functions, SpliceDelta((), (subtree,), parent))
        return new_functions

    def remove_subtree(self, node: Node) -> Node:
        """Remove (and return) a subtree, notifying observers of every
        call that disappears with it."""
        if not self.contains(node):
            raise ValueError("node is not part of this document")
        if node is self.root:
            raise ValueError("cannot remove the document root")
        self.version += 1
        parent = node.parent
        removed_calls = [n for n in node.iter_subtree() if n.is_function]
        for call in removed_calls:
            self.record_call_provenance(call)
        self._unregister_subtree(node)
        node.detach()
        self._notify(removed_calls, [], SpliceDelta((node,), (), parent))
        return node

    # -- provenance --------------------------------------------------------------

    def transitively_produced_by(self, node: Node, call_id: int) -> bool:
        """Was ``node`` (transitively) produced by the call with ``call_id``?

        Realises the paper's relation from Definition 2: a node is
        transitively produced by call ``v`` if it was produced by ``v`` or
        by some call that was itself transitively produced by ``v``.
        """
        producer = node.produced_by
        seen = set()
        while producer is not None and producer not in seen:
            if producer == call_id:
                return True
            seen.add(producer)
            producer = self._producer_of_call.get(producer)
        return False

    def record_call_provenance(self, call_node: Node) -> None:
        """Remember who produced a call before the call node is removed."""
        if call_node.node_id is not None:
            self._producer_of_call[call_node.node_id] = call_node.produced_by

    # -- copying -------------------------------------------------------------------

    def copy(self, name: Optional[str] = None) -> "Document":
        """An independent deep copy (fresh node ids, no observers)."""
        return Document(self.root.clone(), name=name or self.name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        stats = self.stats()
        return (
            f"Document({self.name!r}, nodes={stats.total_nodes}, "
            f"calls={stats.function_nodes})"
        )
