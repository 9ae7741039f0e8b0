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

The arena also keeps, per depth-1 scope (a child of the root), the
slots of every live call in that scope's subtree, parameters included:
where a scoped relevance re-match (:meth:`~repro.pattern.columnmatch.
ColumnMatcher.run` with a scope slot) starts from.  A scope's set is
derived the first time it is asked for (:meth:`scope_calls`, one pass
over the scope's slots) and never at build — a document whose scopes
are never read scoped pays nothing for it.  From then on every splice
keeps it current: removed calls leave their scope's set, added calls
join the set of the splice parent's scope, and a freed slot drops the
set it keyed (a splice directly under the root adds or drops whole
scopes; a new scope is derived when first read).
"""

from __future__ import annotations

import dataclasses
import sys
from array import array
from typing import ClassVar, Iterator, Optional, Sequence

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


@dataclasses.dataclass(frozen=True, eq=False)
class ArenaColumns:
    """A frozen copy of an arena's store — the seven columns and the
    interned label table — as :meth:`DocumentArena.columns` took it.

    The loader keeps one per parsed text, taken from the build over the
    text's first document; a later document of the same text adopts a
    copy instead of building (:class:`DocumentArena`).  Nobody writes
    these arrays: an arena only ever reads them to copy them, and a
    compiled plan reads them in place (it reads an arena's columns,
    ``labels`` and :meth:`label_id`) to match the text's pristine
    document without making one."""

    kind: array
    label: array
    parent: array
    first_child: array
    next_sibling: array
    service: array
    node_id: array
    #: The node ids as int objects, in slot order (slot == id): shared
    #: by every copy rather than made again for each.
    ids: tuple[int, ...]
    #: Label -> id, in id order, and the labels by id.
    label_ids: dict[str, int]
    labels: tuple[str, ...]
    label_bytes: int
    #: Read as an arena: the columns are no copy.
    copied_from: ClassVar[None] = None

    def label_id(self, label: str) -> Optional[int]:
        return self.label_ids.get(label)


class DocumentArena:
    """Column mirror of a live :class:`Document`, splice-maintained.

    Build once (one linear pass), attach as an observer, and every
    subsequent mutation costs time proportional to the delta.  The
    arena never owns the tree: ``Node`` objects stay canonical, slots
    map back to them through :meth:`node_at`, and detaching the arena
    leaves the document untouched.

    Given ``columns`` — what :meth:`columns` took from a build over a
    document of the same text, stamped the same way and never mutated
    since — the arena copies them instead of building: the same
    columns and label table, no pass over the nodes.
    """

    def __init__(
        self, document: Document, columns: Optional[ArenaColumns] = None
    ) -> None:
        self.document = document
        self.labels: list[str] = []
        self._label_ids: dict[str, int] = {}
        self._label_bytes = 0
        self._free: list[int] = []
        self.splices_applied = 0
        #: Depth-1 scope slot -> the live call slots of its subtree,
        #: for the scopes read so far (:meth:`scope_calls`).
        self._scope_calls: dict[int, set[int]] = {}
        #: The kept columns this arena copied (``None`` for a build): a
        #: plan's label filters resolved on them hold here too.
        self.copied_from = columns
        #: The build (or the copy) makes the columns, ``_slot_of`` and
        #: ``_node_at``.
        if columns is None:
            self._build()
        else:
            self._copy(columns)
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
        """Every column in one bulk pass over the document's id map (not
        a tree walk), allocated at its exact size and filled in place:
        slot = position in the map, so a fresh load has slot == node id."""
        by_id = self.document.nodes_by_id
        size = len(by_id)
        self._node_at = nodes = list(by_id.values())
        self._slot_of = slot_of = dict(zip(by_id, range(size)))
        self.node_id = array("q", by_id)
        self.kind = kind = array("b", (KIND_ELEMENT,)) * size
        self.label = label = array("i", (0,)) * size
        self.parent = parent = array("i", (-1,)) * size
        self.first_child = first_child = array("i", parent)
        self.next_sibling = next_sibling = array("i", parent)
        self.service = service = array("i", parent)
        label_ids, intern = self._label_ids, self.intern
        for slot, node in enumerate(nodes):
            text = node.label
            lid = label_ids.get(text)
            if lid is None:
                lid = intern(text)
            label[slot] = lid
            nkind = node.kind
            if nkind is _VALUE:
                kind[slot] = KIND_VALUE
            elif nkind is not _ELEMENT:
                kind[slot] = KIND_FUNCTION
                service[slot] = lid
            prev = -1
            for child in node.children:
                cslot = slot_of[child.node_id]
                parent[cslot] = slot
                if prev == -1:
                    first_child[slot] = cslot
                else:
                    next_sibling[prev] = cslot
                prev = cslot

    def _copy(self, columns: ArenaColumns) -> None:
        """The columns of a pristine document from its text's kept copy:
        the slot map from the kept ids (slot == id, as ``_build`` makes
        them on a fresh load), the slot -> node list from the nodes made
        so far (a lazily loaded document makes the rest into it, scope
        by scope: ``Document._made``), every column and the label table
        a copy — the arena splices its own arrays, never the kept
        ones."""
        ids = columns.ids
        self._slot_of = dict(zip(ids, ids))
        self._node_at = node_at = [None] * len(ids)
        for slot, node in self.document._nodes_by_id.items():
            node_at[slot] = node
        self.kind = columns.kind[:]
        self.label = columns.label[:]
        self.parent = columns.parent[:]
        self.first_child = columns.first_child[:]
        self.next_sibling = columns.next_sibling[:]
        self.service = columns.service[:]
        self.node_id = columns.node_id[:]
        self.labels = list(columns.label_ids)
        self._label_ids = dict(columns.label_ids)
        self._label_bytes = columns.label_bytes

    def columns(self) -> ArenaColumns:
        """A frozen copy of the store as a build left it (see
        :meth:`_copy`): the slot map's keys, in slot order after a
        build, are the ids."""
        return ArenaColumns(
            self.kind[:],
            self.label[:],
            self.parent[:],
            self.first_child[:],
            self.next_sibling[:],
            self.service[:],
            self.node_id[:],
            tuple(self._slot_of),
            dict(self._label_ids),
            tuple(self.labels),
            self._label_bytes,
        )

    def _add_forest(self, roots: Sequence[Node], parent_slot: int) -> None:
        """The splice path: fill slots for a forest (recycling freed
        ones), every sibling list chained in order below its parent's
        slot — ``roots`` below ``parent_slot`` as if they were its only
        children, so a splice relinks that one chain from the live
        children list afterwards.  One loop over local-bound columns,
        one slot-filling site."""
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
                else:
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
        sibling chain from its live (already final) children list.

        A splice that raises half way leaves columns nobody may trust:
        the arena detaches before the error propagates, so the next
        reader of ``document.arena`` gets a fresh build."""
        self.splices_applied += 1
        try:
            free = self._free
            mark = len(free)
            for root in delta.removed:
                self._remove_subtree(root)
            kept = self._scope_calls
            freed = free[mark:] if kept else ()
            for slot in freed:
                kept.pop(slot, None)
            parent = delta.parent
            if parent is None or parent.node_id is None:
                return
            pslot = self._slot_of.get(parent.node_id)
            if pslot is None:
                return
            self._add_forest(delta.added, pslot)
            if kept:
                self._keep_scope_calls(pslot, freed, delta.added)
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
        except BaseException:
            self.detach()
            raise

    def _keep_scope_calls(
        self, pslot: int, freed: Sequence[int], added: Sequence[Node]
    ) -> None:
        """Bring the derived set of the splice parent's scope past one
        splice: the freed slots leave it, the added forest's calls join.
        A splice directly under the root touches no kept set — its
        removed roots' sets went with their slots, and its added roots
        are scopes not yet read."""
        parent = self.parent
        if parent[pslot] == -1:
            return
        scope = pslot
        while parent[parent[scope]] != -1:
            scope = parent[scope]
        calls = self._scope_calls.get(scope)
        if calls is None:
            return
        calls.difference_update(freed)
        for root in added:
            calls |= self._calls_below(self._slot_of[root.node_id])[0]

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
        """The node of a live slot — the one slot -> node reader, made
        on first read on a lazily loaded document.  A free slot raises
        ``KeyError``."""
        node = self._node_at[slot]
        if node is None:
            if self.kind[slot] == KIND_FREE:
                raise KeyError(f"slot {slot} is free")
            node = self.document.node(self.node_id[slot])
        return node

    def _made(self, ids: Sequence[int], nodes: Sequence[Node]) -> None:
        """Nodes a lazy load made, with their ids (a run): their slots
        (slot == id, since only a copied arena meets unmade nodes)."""
        self._node_at[ids[0] : ids[-1] + 1] = nodes

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

    def function_nodes(self) -> Iterator[Node]:
        """Every live function node, in slot (not document) order, each
        read as the sweep reaches it: one C-speed sweep of the kind
        column per call found, so a reader that stops early makes no
        more nodes."""
        kind = self.kind
        nodes = self._node_at
        pos = 0
        while True:
            try:
                pos = kind.index(KIND_FUNCTION, pos) + 1
            except ValueError:
                return
            yield nodes[pos - 1] or self.node_at(pos - 1)

    def scope_calls(self, scope_slot: int) -> tuple[set[int], int]:
        """The live call slots of depth-1 scope ``scope_slot``'s subtree
        (parameters included), and the slots read to derive them: the
        whole scope the first time it is asked for, ``0`` after that —
        splices keep a derived set current.  The set is the arena's:
        read it, never change it."""
        calls = self._scope_calls.get(scope_slot)
        if calls is not None:
            return calls, 0
        calls, read = self._calls_below(scope_slot)
        self._scope_calls[scope_slot] = calls
        return calls, read

    def _calls_below(self, slot: int) -> tuple[set[int], int]:
        """One pass over the subtree at ``slot``: its call slots and the
        number of slots read."""
        kind, fc, ns = self.kind, self.first_child, self.next_sibling
        calls: set[int] = set()
        stack = [slot]
        read = 0
        while stack:
            s = stack.pop()
            read += 1
            if kind[s] == KIND_FUNCTION:
                calls.add(s)
            c = fc[s]
            while c != -1:
                stack.append(c)
                c = ns[c]
        return calls, read

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
                elif pslot == -1 or self.node_at(pslot) is not node.parent:
                    errors.append(f"slot {slot}: parent mismatch")
                children = [self.node_at(c) for c in self.child_slots(slot)]
                if children != node.children:
                    errors.append(f"slot {slot}: child chain mismatch")
            seen += 1
            if len(errors) >= limit:
                break
        if seen != self.live_nodes and len(errors) < limit:
            errors.append(
                f"live slot count {self.live_nodes} != tree size {seen}"
            )
        root = self.document.root
        for scope, calls in self._scope_calls.items():
            if len(errors) >= limit:
                break
            node = None if self.kind[scope] == KIND_FREE else self.node_at(scope)
            if node is None or node.parent is not root:
                errors.append(
                    f"slot {scope}: call set kept for a slot that is not "
                    "a live child of the root"
                )
            elif calls != self._calls_below(scope)[0]:
                errors.append(
                    f"slot {scope}: call set differs from a fresh derivation"
                )
        return errors

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DocumentArena(live={self.live_nodes}, "
            f"capacity={self.capacity}, free={len(self._free)}, "
            f"labels={len(self.labels)})"
        )
