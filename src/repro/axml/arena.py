"""Arena-backed document store: struct-of-arrays columns over a tree.

Every hot path of the reproduction — relevance analysis, quiet
probes, answer maintenance — ultimately walks a pointer-per-``Node``
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
the canonical views of the slots (``node_at``), and the compiled plans
of :mod:`repro.pattern.columnmatch` read the columns directly.  The
object walk stays available everywhere as the differential oracle.

Splices recycle slots through a free list: a
:class:`~repro.axml.document.SpliceDelta` frees the removed subtree's
slots, fills them (or fresh tail slots) with the added forest, and
relinks the splice parent's sibling chain from the live children list —
O(|delta| + fanout(parent)), never O(document).
"""

from __future__ import annotations

import sys
from array import array
from typing import Optional, Sequence

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
