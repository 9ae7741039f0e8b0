"""Arena-backed document store: struct-of-arrays columns over a tree.

Every hot path of the reproduction — relevance analysis, group
passes, answer maintenance — ultimately walks a pointer-per-``Node``
Python object graph, paying an attribute lookup, a bound-method call and
a list iteration per visited node.  This module stores the same tree a
second time as parallel ``array`` columns (struct-of-arrays):

* ``kind``         — signed byte: element / value / function (``-1`` =
  free slot);
* ``label``        — interned label id (element name, leaf value, or
  service name);
* ``parent``       — parent slot (``-1`` for the root);
* ``first_child`` / ``next_sibling`` — the tree shape as an intrusive
  linked list, so child iteration is two int reads per step;
* ``service``      — the label id of the called service for function
  nodes, ``-1`` for data nodes (a one-column screen for "any call");
* ``node_id``      — the document's stable node id for the slot.

Traversals become tight loops over int arrays — no objects, no
attribute chasing — which is where matching spends its time on large
documents.  The existing :class:`~repro.axml.node.Node` /
:class:`~repro.axml.document.Document` API is preserved unchanged: the
arena is a :class:`~repro.axml.document.Document` *observer* (like
the F-guide and the relevance store), the live ``Node`` objects remain
the canonical views of the slots (``node_at``), and :class:`ArenaView` offers the
same reading surface reconstructed purely from the columns, so callers
in ``pattern/``, ``lazy/`` and ``serve/`` port incrementally without a
behaviour change.  The object walk stays available everywhere as the
differential oracle.

Splices recycle slots through a free list: a
:class:`~repro.axml.document.SpliceDelta` frees the removed subtree's
slots, fills them (or fresh tail slots) with the added forest, and
relinks the splice parent's sibling chain from the live children list —
O(|delta| + fanout(parent)), never O(document).

Load-time projection (:func:`project_tree`) is the companion move, in
the spirit of type-based XML projection: given a merged label footprint
(duck-typed — anything with ``touches_node`` and ``matches_any_data``,
e.g. :class:`repro.lazy.incremental.LabelFootprint`), subtrees no test
of the footprint can touch are pruned *before* the document is built,
so cold regions never materialise at all.  It stands down (prunes
nothing) when the footprint carries a data wildcard — every data node
is then hot — and it never prunes below a function node: parameter
subtrees are call arguments that must ship intact.
"""

from __future__ import annotations

import sys
from array import array
from typing import Iterator, Optional, Protocol, Sequence, runtime_checkable

from .document import Document, SpliceDelta
from .node import Node, NodeKind

KIND_ELEMENT = 0
KIND_VALUE = 1
KIND_FUNCTION = 2
KIND_FREE = -1

_KIND_CODE = {
    NodeKind.ELEMENT: KIND_ELEMENT,
    NodeKind.VALUE: KIND_VALUE,
    NodeKind.FUNCTION: KIND_FUNCTION,
}
_ELEMENT = NodeKind.ELEMENT
_VALUE = NodeKind.VALUE


@runtime_checkable
class FootprintLike(Protocol):
    """Duck type of :class:`repro.lazy.incremental.LabelFootprint` (the
    axml layer must not import the lazy layer)."""

    def touches_node(self, node: Node, parent: Optional[Node]) -> bool:
        ...

    @property
    def matches_any_data(self) -> bool:
        ...


class DocumentArena:
    """Column mirror of a live :class:`Document`, splice-maintained.

    Build once (one linear pass), attach as an observer, and every
    subsequent mutation costs time proportional to the delta.  The
    arena never owns the tree: ``Node`` objects stay canonical, slots
    map back to them through :meth:`node_at`, and detaching the arena
    leaves the document untouched.
    """

    def __init__(self, document: Document) -> None:
        self.document = document
        self.labels: list[str] = []
        self._label_ids: dict[str, int] = {}
        self._label_bytes = 0
        self.kind = array("b")
        self.label = array("i")
        self.parent = array("i")
        self.first_child = array("i")
        self.next_sibling = array("i")
        self.service = array("i")
        self.node_id = array("q")
        self._free: list[int] = []
        self._slot_of: dict[int, int] = {}
        self._node_at: list[Optional[Node]] = []
        self.splices_applied = 0
        self._build()
        document.add_observer(self)

    def detach(self) -> None:
        """Stop observing the document (the arena goes stale).  The
        document's own mirror is forgotten with it, so the next reader
        of ``document.arena`` gets a fresh one, never this stale one."""
        self.document.remove_observer(self)
        if self.document._arena is self:
            self.document._arena = None

    # -- label interning -----------------------------------------------------

    def intern(self, label: str) -> int:
        lid = self._label_ids.get(label)
        if lid is None:
            lid = len(self.labels)
            self.labels.append(label)
            self._label_ids[label] = lid
            self._label_bytes += sys.getsizeof(label)
        return lid

    def label_id(self, label: str) -> Optional[int]:
        """The id of an already-interned label, or ``None``.

        A missing label means no node currently (or ever) carried it —
        callers use that as a constant-time empty-scan answer.  Ids are
        append-only: once interned, a label keeps its id even after the
        last node carrying it leaves the document.
        """
        return self._label_ids.get(label)

    # -- construction --------------------------------------------------------

    def _build(self) -> None:
        self._add_forest((self.document.root,), -1)

    def _add_forest(self, roots: Sequence[Node], parent_slot: int) -> None:
        """Fill slots for a forest (recycling freed ones), every sibling
        list chained in order below its parent's slot — ``roots`` below
        ``parent_slot`` as if they were its only children, so a splice
        relinks that one chain from the live children list afterwards.
        One loop over local-bound columns, one slot-filling site."""
        kind, label, parent = self.kind, self.label, self.parent
        first_child, next_sibling = self.first_child, self.next_sibling
        service, node_id = self.service, self.node_id
        label_ids, free = self._label_ids, self._free
        slot_of, node_at = self._slot_of, self._node_at
        stack: list[tuple[Sequence[Node], int]] = [(roots, parent_slot)]
        while stack:
            siblings, pslot = stack.pop()
            prev = -1
            for node in siblings:
                lid = label_ids.get(node.label)
                if lid is None:
                    lid = self.intern(node.label)
                nkind = node.kind
                if nkind is _ELEMENT:
                    kcode, scode = KIND_ELEMENT, -1
                elif nkind is _VALUE:
                    kcode, scode = KIND_VALUE, -1
                else:
                    kcode, scode = KIND_FUNCTION, lid
                nid = node.node_id
                assert nid is not None, "arena mirrors attached nodes only"
                if free:
                    slot = free.pop()
                    kind[slot] = kcode
                    label[slot] = lid
                    parent[slot] = pslot
                    first_child[slot] = -1
                    next_sibling[slot] = -1
                    service[slot] = scode
                    node_id[slot] = nid
                    node_at[slot] = node
                else:
                    slot = len(node_at)
                    kind.append(kcode)
                    label.append(lid)
                    parent.append(pslot)
                    first_child.append(-1)
                    next_sibling.append(-1)
                    service.append(scode)
                    node_id.append(nid)
                    node_at.append(node)
                slot_of[nid] = slot
                if prev != -1:
                    next_sibling[prev] = slot
                elif pslot != -1:
                    first_child[pslot] = slot
                prev = slot
                if node.children:
                    stack.append((node.children, slot))

    def _remove_subtree(self, subtree_root: Node) -> None:
        for node in subtree_root.iter_subtree():
            nid = node.node_id
            slot = None if nid is None else self._slot_of.pop(nid, None)
            if slot is None:
                continue
            self.kind[slot] = KIND_FREE
            self.first_child[slot] = -1
            self.next_sibling[slot] = -1
            self.parent[slot] = -1
            self.service[slot] = -1
            self._node_at[slot] = None
            self._free.append(slot)

    # -- DocumentObserver protocol -------------------------------------------

    def splice(self, document: Document, delta: SpliceDelta) -> None:
        """Free-list splice protocol: free removed slots, fill slots for
        the added forest (recycling freed ones), relink the parent's
        sibling chain from its live (already final) children list."""
        self.splices_applied += 1
        for root in delta.removed:
            self._remove_subtree(root)
        parent = delta.parent
        if parent is None or parent.node_id is None:
            return
        pslot = self._slot_of.get(parent.node_id)
        if pslot is None:
            return
        self._add_forest(delta.added, pslot)
        prev = -1
        for child in parent.children:
            cslot = self._slot_of[child.node_id]
            self.next_sibling[cslot] = -1
            if prev == -1:
                self.first_child[pslot] = cslot
            else:
                self.next_sibling[prev] = cslot
            prev = cslot
        if prev == -1:
            self.first_child[pslot] = -1

    # -- slot <-> node -------------------------------------------------------

    def slot_for(self, node: Node) -> Optional[int]:
        """The slot mirroring exactly this node, or ``None``.

        Identity-checked: node ids are unique *per document*, so a node
        of some other document (or a detached stale node) never aliases
        a slot here.
        """
        nid = node.node_id
        if nid is None:
            return None
        slot = self._slot_of.get(nid)
        if slot is None or self._node_at[slot] is not node:
            return None
        return slot

    def node_at(self, slot: int) -> Node:
        node = self._node_at[slot]
        assert node is not None, "free slot has no node"
        return node

    def view(self, slot: int) -> "ArenaView":
        return ArenaView(self, slot)

    @property
    def root_slot(self) -> int:
        nid = self.document.root.node_id
        assert nid is not None
        slot = self._slot_of.get(nid)
        assert slot is not None
        return slot

    # -- tight-loop scans ----------------------------------------------------

    def child_slots(self, slot: int) -> list[int]:
        out = []
        ns = self.next_sibling
        c = self.first_child[slot]
        while c != -1:
            out.append(c)
            c = ns[c]
        return out

    def iter_subtree_slots(self, slot: int) -> Iterator[int]:
        """Slots of the subtree rooted at ``slot`` (pre-order-ish; the
        exact order is not part of the contract)."""
        fc = self.first_child
        ns = self.next_sibling
        stack = [slot]
        while stack:
            s = stack.pop()
            yield s
            c = fc[s]
            while c != -1:
                stack.append(c)
                c = ns[c]

    def function_nodes(self) -> list[Node]:
        """Every live function node, in slot (not document) order: one
        C-speed sweep of the kind column per call found."""
        kind = self.kind
        node_at = self._node_at
        out: list[Node] = []
        pos = 0
        try:
            while True:
                pos = kind.index(KIND_FUNCTION, pos) + 1
                out.append(node_at[pos - 1])  # type: ignore[arg-type]
        except ValueError:
            return out

    # -- measurements --------------------------------------------------------

    @property
    def live_nodes(self) -> int:
        return len(self._slot_of)

    @property
    def capacity(self) -> int:
        """Allocated slots, live and free."""
        return len(self.kind)

    def column_bytes(self) -> int:
        """``sys.getsizeof`` bytes of the arena store proper — the seven
        columns plus the interned label table.  The ``Node`` mirror maps
        are the compatibility view, not the store, and are excluded (a
        pure-arena port drops them)."""
        total = sum(
            sys.getsizeof(col)
            for col in (
                self.kind,
                self.label,
                self.parent,
                self.first_child,
                self.next_sibling,
                self.service,
                self.node_id,
            )
        )
        return total + sys.getsizeof(self.labels) + self._label_bytes

    def consistency_errors(self, limit: int = 10) -> list[str]:
        """Structural disagreements between columns and the live tree —
        the arena's self-check, used by tests and the twin property."""
        errors: list[str] = []
        seen = 0
        for node in self.document.iter_nodes():
            slot = self.slot_for(node)
            if slot is None:
                errors.append(f"node {node.node_id} has no slot")
            else:
                if self.kind[slot] != _KIND_CODE[node.kind]:
                    errors.append(f"slot {slot}: kind mismatch")
                if self.labels[self.label[slot]] != node.label:
                    errors.append(f"slot {slot}: label mismatch")
                pslot = self.parent[slot]
                if node.parent is None:
                    if pslot != -1:
                        errors.append(f"slot {slot}: root has a parent slot")
                elif pslot == -1 or self._node_at[pslot] is not node.parent:
                    errors.append(f"slot {slot}: parent mismatch")
                children = [
                    self._node_at[c] for c in self.child_slots(slot)
                ]
                if children != node.children:
                    errors.append(f"slot {slot}: child chain mismatch")
            seen += 1
            if len(errors) >= limit:
                break
        if seen != self.live_nodes and len(errors) < limit:
            errors.append(
                f"live slot count {self.live_nodes} != tree size {seen}"
            )
        return errors

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DocumentArena(live={self.live_nodes}, "
            f"capacity={self.capacity}, free={len(self._free)}, "
            f"labels={len(self.labels)})"
        )


class ArenaView:
    """A ``Node``-shaped read-only view reconstructed from the columns.

    Lifetime rule: a view is valid only while its slot is live — a
    splice that removes the underlying node recycles the slot, after
    which the view silently describes whatever moved in.  Views are
    therefore ephemeral cursors for traversal code, never stored across
    mutations; long-lived references use the canonical ``Node``
    (:meth:`DocumentArena.node_at`), whose identity the document
    preserves.
    """

    __slots__ = ("arena", "slot")

    def __init__(self, arena: DocumentArena, slot: int) -> None:
        self.arena = arena
        self.slot = slot

    @property
    def kind(self) -> NodeKind:
        code = self.arena.kind[self.slot]
        for nkind, ncode in _KIND_CODE.items():
            if ncode == code:
                return nkind
        raise ValueError(f"slot {self.slot} is free")

    @property
    def label(self) -> str:
        return self.arena.labels[self.arena.label[self.slot]]

    @property
    def node_id(self) -> int:
        return self.arena.node_id[self.slot]

    @property
    def parent(self) -> Optional["ArenaView"]:
        pslot = self.arena.parent[self.slot]
        return None if pslot == -1 else ArenaView(self.arena, pslot)

    @property
    def children(self) -> list["ArenaView"]:
        return [
            ArenaView(self.arena, c)
            for c in self.arena.child_slots(self.slot)
        ]

    @property
    def is_element(self) -> bool:
        return self.arena.kind[self.slot] == KIND_ELEMENT

    @property
    def is_value(self) -> bool:
        return self.arena.kind[self.slot] == KIND_VALUE

    @property
    def is_function(self) -> bool:
        return self.arena.kind[self.slot] == KIND_FUNCTION

    @property
    def is_data(self) -> bool:
        return self.arena.kind[self.slot] in (KIND_ELEMENT, KIND_VALUE)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ArenaView(slot={self.slot}, label={self.label!r})"


# -- load-time projection ----------------------------------------------------


def project_tree(
    root: Node, footprint: Optional[FootprintLike]
) -> tuple[Node, int]:
    """Prune (in place) every subtree the footprint cannot touch.

    A node is kept when some test of the footprint accepts it, or when
    any descendant is kept (ancestor chains stay intact — the pruned
    tree is a *projection*, never a re-shaping).  The root is always
    kept.  Function-node subtrees are atomic: a kept call keeps its
    whole parameter forest, because parameters are shipped to the
    service, not matched against.

    Stands down — returns ``(root, 0)`` — when ``footprint`` is ``None``
    or carries a data wildcard (``matches_any_data``): a star or
    variable test accepts every data node, so nothing is provably cold.

    Returns ``(root, pruned_node_count)``.  Must run on a *detached*
    tree, before :class:`~repro.axml.document.Document` registration.
    """
    if footprint is None or footprint.matches_any_data:
        return root, 0
    order: list[Node] = []
    stack = [root]
    while stack:
        node = stack.pop()
        order.append(node)
        stack.extend(node.children)
    keep: dict[int, bool] = {}
    for node in reversed(order):
        kept = footprint.touches_node(node, node.parent) or any(
            keep[id(child)] for child in node.children
        )
        keep[id(node)] = kept
    pruned = 0
    stack = [root]
    while stack:
        node = stack.pop()
        if node.is_function:
            continue  # parameters ride along with their call
        survivors = []
        for child in node.children:
            if keep[id(child)]:
                survivors.append(child)
                stack.append(child)
            else:
                pruned += child.subtree_size()
                child.parent = None
        if len(survivors) != len(node.children):
            node.children = survivors
    return root, pruned
