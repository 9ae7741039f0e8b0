"""XML (de)serialisation of AXML trees.

Standards-compliant interchange (the paper's system is "compliant with XML
and Web services standards"): a function node is serialised as an
``axml:call`` element whose ``service`` attribute names the function and
whose children are the call parameters — the convention used by the
ActiveXML system.

Example::

    <hotel>
      <name>Best Western</name>
      <nearby>
        <axml:call service="getNearbyRestos"><param>2nd Av.</param></axml:call>
      </nearby>
    </hotel>

Loading is two steps: one ElementTree walk turns a tree into node
columns (kind, label, activation, parent position), and one loop stamps
``Node`` objects from them.  :func:`parse_document` keeps the columns of
the last few texts it parsed, with the arena columns of their first
document, so parsing a text again skips ElementTree and the arena build
— and makes only the root and its children: each depth-1 scope below is
stamped, in one run of the columns, when something first reads below
it.  What it keeps is never handed out: a returned document belongs to
the caller, and mutating it never reaches the kept columns.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from array import array
from bisect import bisect_left, bisect_right
from operator import itemgetter
from typing import Iterable, NamedTuple, Optional, Sequence

from ..kept import SHAPES_PER_TEXT, Bounded
from ..kept import texts as kept_texts
from .arena import ArenaColumns
from .document import Document
from .node import Activation, Node, NodeKind

AXML_NAMESPACE = "http://activexml.net/2004/axml"
_CALL_TAG = f"{{{AXML_NAMESPACE}}}call"
_SERVICE_ATTR = "service"
_MODE_ATTR = "mode"
_ELEMENT = NodeKind.ELEMENT
_VALUE = NodeKind.VALUE
_FUNCTION = NodeKind.FUNCTION
_LAZY = Activation.LAZY
_IMMEDIATE = Activation.IMMEDIATE
_POSITION = itemgetter(0)

ET.register_namespace("axml", AXML_NAMESPACE)


def _element_shell(node: Node) -> ET.Element:
    """An empty ElementTree element for one (non-value) AXML node."""
    if node.is_function:
        attributes = {_SERVICE_ATTR: node.label}
        if node.activation is not Activation.LAZY:
            attributes[_MODE_ATTR] = node.activation.value
        return ET.Element(_CALL_TAG, attributes)
    return ET.Element(node.label)


def to_etree(node: Node) -> ET.Element:
    """Convert an AXML node to an ElementTree element.

    Iterative, so arbitrarily deep documents serialise without hitting
    the interpreter's recursion limit.
    """
    if node.is_value:
        raise ValueError("a bare value node has no element representation")
    out = _element_shell(node)
    _fill_children(out, node.children)
    return out


def _fill_children(out: ET.Element, children: Iterable[Node]) -> None:
    stack: list[tuple[ET.Element, Iterable[Node]]] = [(out, children)]
    while stack:
        dst, kids = stack.pop()
        previous: ET.Element | None = None
        for child in kids:
            if child.is_value:
                if previous is None:
                    dst.text = (dst.text or "") + child.label
                else:
                    previous.tail = (previous.tail or "") + child.label
            else:
                sub = _element_shell(child)
                dst.append(sub)
                previous = sub
                stack.append((sub, child.children))


#: Node columns of one tree in document order: kind, label and the
#: parent's position (``-1`` for the root), then ``(position,
#: activation)`` for each call that is not lazy (every other node is).
_NodeColumns = tuple[
    tuple[NodeKind, ...], tuple[str, ...], array, tuple[tuple[int, Activation], ...]
]


class _Kept(NamedTuple):
    """What :func:`parse_document` keeps of one text.  Never handed out:
    every document is stamped from it."""

    #: The whole tree's node columns.
    columns: _NodeColumns
    #: The arena columns of the text's first document; their ``ids``
    #: (``0..n-1``, one int object per id) number every stamp, shared
    #: rather than made again for each document.
    arena: ArenaColumns
    #: The root and its children as node columns of their own (the
    #: children's parent is position 0), and their ids.
    top: _NodeColumns
    top_ids: tuple[int, ...]
    #: The children of the root that have children — the depth-1
    #: scopes — by position, and the position just past each one's
    #: subtree.
    starts: tuple[int, ...]
    stops: tuple[int, ...]
    #: The positions of the calls, and of those ``IMMEDIATE``.
    calls: tuple[int, ...]
    immediate: tuple[int, ...]
    function_labels: frozenset[str]
    #: Anchored relevance shape -> its rows on the text's pristine
    #: document, by depth-1 scope: what a
    #: :class:`~repro.lazy.incremental.RelevanceStore` on a fresh
    #: document of the text seeds an entry from, matched once per shape
    #: over ``arena`` (:data:`repro.kept.SHAPES_PER_TEXT` shapes).
    rows: Bounded


def _walk(elem: ET.Element) -> _NodeColumns:
    """The one ElementTree walk: ``elem``'s tree as node columns in
    document order, the root first.  An element's stripped text becomes
    its first value child on the spot; the stack holds the elements
    still to come, and the stripped tails that follow them, each with
    its parent's position — pushed in reverse, they come off in document
    order.  Iterative for the same deep-document reason as
    :func:`to_etree`.
    """
    kinds: list[NodeKind] = []
    labels: list[str] = []
    parents: list[int] = []
    modes: list[tuple[int, Activation]] = []
    stack: list[tuple[object, int]] = [(elem, -1)]
    push = stack.append
    while stack:
        src, parent = stack.pop()
        parents.append(parent)
        if src.__class__ is str:
            kinds.append(_VALUE)
            labels.append(src)
            continue
        tag = src.tag
        if tag != _CALL_TAG:
            kinds.append(_ELEMENT)
            labels.append(tag)
        elif not (service_name := src.get(_SERVICE_ATTR)):
            raise ValueError("axml:call element is missing its service attribute")
        else:
            mode = src.get(_MODE_ATTR)
            if mode is not None and (activation := Activation(mode)) is not _LAZY:
                modes.append((len(kinds), activation))
            kinds.append(_FUNCTION)
            labels.append(service_name)
        position = len(kinds) - 1
        text = src.text
        if text and (text := text.strip()):
            parents.append(position)
            kinds.append(_VALUE)
            labels.append(text)
        for sub in reversed(src):
            tail = sub.tail
            if tail and (tail := tail.strip()):
                push((tail, position))
            push((sub, position))
    return tuple(kinds), tuple(labels), array("i", parents), tuple(modes)


def _stamp(
    columns: _NodeColumns,
    ids: Sequence[Optional[int]],
    scope: Optional[Node] = None,
    stop: int = 0,
) -> list[Node]:
    """The one place a text load makes nodes: the root, then one loop
    over the node columns that creates every other node directly (slots
    set, linked under its parent, a children list of its own), each
    given its id from ``ids``
    (``None`` throughout for a detached tree).  Returns the nodes in
    document order.

    Given ``scope`` — a node already made at position ``p`` (its id),
    with an empty children list — only positions ``p + 1`` up to
    ``stop`` are made, below it: in document order a subtree is one run
    of positions.  The list returned then starts with ``scope``."""
    kinds, labels, parents, modes = columns
    if scope is None:
        # The root first: every node the loop makes has a parent.
        start, stop = 0, len(kinds)
        scope = Node(kinds[0], labels[0])
        scope.node_id = ids[0]
    else:
        start = scope.node_id
        if modes:
            first = bisect_left(modes, start + 1, key=_POSITION)
            modes = modes[first : bisect_left(modes, stop, key=_POSITION)]
    window = slice(start + 1, stop)
    nodes = [scope]
    new = Node.__new__
    append = nodes.append
    for node_id, kind, label, parent in zip(
        ids[window], kinds[window], labels[window], parents[window]
    ):
        node = new(Node)
        node.kind = kind
        node.label = label
        node.activation = _LAZY
        node.children = []
        node.node_id = node_id
        node.produced_by = None
        up = nodes[parent - start]
        node.parent = up
        up.children.append(node)
        append(node)
    for position, activation in modes:
        nodes[position - start].activation = activation
    return nodes


#: The ``children`` slot of every node.  An unread scope's holds the
#: :class:`_Scopes` of its document instead of a list.
_CHILDREN = Node.children


class _Unread(Node):
    """A depth-1 scope of a warm-loaded document whose subtree is not
    made yet.  Every other slot is set as on any node; the first read of
    ``children`` makes the subtree (:meth:`_Scopes.make`), and the node
    is a plain :class:`Node` from then on."""

    __slots__ = ()

    @property
    def children(self) -> list[Node]:  # type: ignore[override]
        _CHILDREN.__get__(self, Node).make(self)
        return self.children  # a plain node's slot from now on

    def subtree_size(self) -> int:
        """Counted from the kept extent: nothing is made."""
        return _CHILDREN.__get__(self, Node).size(self)

    def function_nodes(self) -> list[Node]:
        """The calls of this subtree, in document order: the scope is
        made, and its calls are read off the kept call positions."""
        return _CHILDREN.__get__(self, Node).calls(self)


class _Scopes:
    """The depth-1 scopes a warm load left unread, and the count of
    the nodes below them: what a document holds of its kept entry
    (``Document._unmade``) until its id map is read whole."""

    __slots__ = ("document", "kept", "scopes", "nodes")

    def __init__(self, document: Document, kept: _Kept) -> None:
        self.document = document
        self.kept = kept
        #: The scope nodes, aligned with ``kept.starts`` (an id is a
        #: position).
        self.scopes = [document.node(start) for start in kept.starts]
        for scope in self.scopes:
            scope.children = self
            scope.__class__ = _Unread
        self.nodes = len(kept.arena.ids) - len(kept.top_ids)

    def make(self, scope: Node) -> list[Node]:
        """Stamp ``scope``'s subtree in one loop, hand it to the document
        and turn ``scope`` into a plain node.  Returns the subtree in
        document order, ``scope`` first."""
        scope.__class__ = Node
        scope.children = []
        kept = self.kept
        start = scope.node_id
        stop = kept.stops[bisect_left(kept.starts, start)]
        made = _stamp(kept.columns, kept.arena.ids, scope, stop)
        self.nodes -= stop - start - 1
        self.document._made(kept.arena.ids[start + 1 : stop], made[1:])
        return made

    def size(self, scope: Node) -> int:
        kept = self.kept
        start = scope.node_id
        return kept.stops[bisect_left(kept.starts, start)] - start

    def calls(self, scope: Node) -> list[Node]:
        start = scope.node_id
        made = self.make(scope)
        calls = self.kept.calls
        first = bisect_left(calls, start)
        last = bisect_left(calls, start + len(made), first)
        return [made[p - start] for p in calls[first:last]]

    def make_holding(self, node_id: int) -> bool:
        """Make the unread scope whose subtree holds ``node_id``; False
        when no unread scope does."""
        kept = self.kept
        at = bisect_right(kept.starts, node_id) - 1
        if at < 0 or node_id >= kept.stops[at]:
            return False
        scope = self.scopes[at]
        if scope.__class__ is not _Unread:
            return False
        self.make(scope)
        return True

    def make_all(self) -> None:
        for scope in self.scopes:
            if scope.__class__ is _Unread:
                self.make(scope)


def from_etree(elem: ET.Element) -> Node:
    """Convert an ElementTree element to a detached AXML tree (no ids)."""
    columns = _walk(elem)
    return _stamp(columns, (None,) * len(columns[0]))[0]


def serialize(node: Node) -> str:
    """Serialise a node (element or function) to an XML string."""
    return ET.tostring(to_etree(node), encoding="unicode")


def serialize_forest(forest: Iterable[Node]) -> str:
    """Serialise a forest by wrapping it in an ``axml:forest`` element."""
    wrapper = ET.Element(f"{{{AXML_NAMESPACE}}}forest")
    _fill_children(wrapper, list(forest))
    return ET.tostring(wrapper, encoding="unicode")


def parse(text: str) -> Node:
    """Parse an XML string into a detached AXML tree (never kept:
    :func:`parse_document` is the one load with a memory)."""
    return from_etree(ET.fromstring(text))


def parse_document(text: str, name: str = "document") -> Document:
    """Parse an XML string into a full :class:`Document`, numbered in
    document order.

    The first parse of a text walks it once into node columns, stamps
    every node and builds the document's arena; the columns and the
    arena's are kept, frozen, among :data:`repro.kept.texts`.  A later
    parse of a kept text makes only the root and its children.  Each
    depth-1 scope below (a child of the root that has children) is made
    whole on the first read below it — its ``children``,
    ``document.node(id)``, a row of a match — and the document's first
    ``document.arena`` read copies the kept arena columns (while the
    document is unchanged), and a relevance store attached to it then
    seeds each anchored shape's entry from the rows the text keeps for
    that shape (:class:`~repro.lazy.incremental.RelevanceStore`).  Every
    node reads as if made at the load.
    Every returned document belongs to the caller: nodes, children lists
    and arena are its own, and mutating it never reaches what is kept.
    A malformed text raises on every parse and is never kept.
    """
    kept = kept_texts.take(text)
    if kept is None:
        columns = _walk(ET.fromstring(text))
        nodes = _stamp(columns, range(len(columns[0])))
        document = Document(nodes[0], name=name, in_order=nodes)
        kept = _keep(columns, document)
    else:
        top = _stamp(kept.top, kept.top_ids)
        document = Document(top[0], name=name, in_order=top)
        document._defer(
            _Scopes(document, kept), kept.function_labels, kept.immediate
        )
        document._kept = kept
    kept_texts.put(text, kept)
    return document


def _keep(columns: _NodeColumns, document: Document) -> _Kept:
    """What a warm load of ``document``'s text needs: its columns, its
    arena's, and the root's children with the extent of each one's
    subtree."""
    arena = document.arena.columns()
    ids = arena.ids
    kinds, labels, _, modes = columns
    children = [child.node_id for child in document.root.children]
    top = [0, *children]
    scopes = [
        (start, end)
        for start, end in zip(children, [*children[1:], len(ids)])
        if end > start + 1
    ]
    activation = dict(modes)
    return _Kept(
        columns,
        arena,
        (
            tuple([kinds[p] for p in top]),
            tuple([labels[p] for p in top]),
            array("i", [-1] + [0] * (len(top) - 1)),
            tuple((at, activation[p]) for at, p in enumerate(top) if p in activation),
        ),
        tuple([ids[p] for p in top]),
        tuple([start for start, _ in scopes]),
        tuple([end for _, end in scopes]),
        tuple([p for p, kind in enumerate(kinds) if kind is _FUNCTION]),
        tuple([p for p, mode in modes if mode is _IMMEDIATE]),
        frozenset(document.function_labels),
        Bounded(SHAPES_PER_TEXT),
    )


def serialize_document(document: Document) -> str:
    """Serialise a whole document to an XML string."""
    return serialize(document.root)


#: What escaping adds per character: ``&amp;``/``&lt;``/``&gt;`` in text,
#: plus ``&quot;`` and the numeric whitespace references in attributes.
_TEXT_ESCAPES = {"&": 4, "<": 3, ">": 3}
_ATTR_ESCAPES = {**_TEXT_ESCAPES, '"': 5, "\r": 4, "\n": 4, "\t": 4}
_XMLNS_SIZE = len(f' xmlns:axml="{AXML_NAMESPACE}"')


def _escaped_size(text: str, escapes: dict[str, int]) -> int:
    size = len(text) if text.isascii() else len(text.encode("utf-8"))
    for char, extra in escapes.items():
        if char in text:
            size += extra * text.count(char)
    return size


def measure_forest(forest: Iterable[Node]) -> tuple[int, int, int]:
    """``(bytes, nodes, calls)`` of a forest, in one walk.

    ``bytes`` is the UTF-8 size of the trees' XML serialisations,
    computed arithmetically — ``len(serialize(tree).encode())`` summed
    over the forest without building a string: tags twice (or once,
    ``<a />``, around no content), the ``axml:call`` shell with its
    attributes, one namespace declaration on a tree's outermost element
    when any call occurs in it, escaped text (a bare value tree is its
    text, unescaped).  ``nodes`` and ``calls`` count all nodes and the
    function nodes among them.  The bus measures every reply with this
    one walk; nothing downstream walks a reply to size it again.
    """
    size = nodes = calls = 0
    for tree in forest:
        if tree.kind is _VALUE:
            size += len(tree.label.encode("utf-8"))
            nodes += 1
            continue
        calls_before = calls
        stack = [tree]
        while stack:
            current = stack.pop()
            nodes += 1
            kind = current.kind
            label = current.label
            if kind is _VALUE:
                # Escape-free ASCII text, the common case, is its length.
                if label.isascii() and not (
                    "&" in label or "<" in label or ">" in label
                ):
                    size += len(label)
                else:
                    size += _escaped_size(label, _TEXT_ESCAPES)
                continue
            if kind is _FUNCTION:
                calls += 1
                tag = len("axml:call")
                size += len(f' {_SERVICE_ATTR}=""') + _escaped_size(
                    label, _ATTR_ESCAPES
                )
                if current.activation is not Activation.LAZY:
                    size += len(f' {_MODE_ATTR}="{current.activation.value}"')
            else:
                tag = len(label) if label.isascii() else len(label.encode("utf-8"))
            children = current.children
            # Empty-string values leave no text behind: still ``<a />``.
            for child in children:
                if child.label or child.kind is not _VALUE:
                    size += 2 * tag + len("<></>")
                    stack.extend(children)
                    break
            else:
                size += tag + len("< />")
                nodes += len(children)
        if calls != calls_before:
            size += _XMLNS_SIZE
    return size, nodes, calls


def serialized_size(node: Node) -> int:
    """Size in bytes of a node's XML serialisation (UTF-8).

    Used by the simulated network layer to account data-transfer volume
    for the query-pushing experiment (E3); the ``bytes`` of
    :func:`measure_forest` for one tree.
    """
    return measure_forest((node,))[0]


def forest_size_bytes(forest: Iterable[Node]) -> int:
    """Total serialised size of a result forest."""
    return measure_forest(forest)[0]
