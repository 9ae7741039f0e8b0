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
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import Iterable, Optional

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


def _load(elem: ET.Element) -> list[Node]:
    """The one ElementTree → AXML walk: every node of ``elem``'s tree,
    created directly (slots set, linked to its parent) and returned in
    document order — the root first, none numbered.  The stack holds an
    element, or a stripped text or tail to become a value, with the node
    it goes under; pushed in reverse, they come off in document order.
    Iterative for the same deep-document reason as :func:`to_etree`.
    """
    new = Node.__new__
    order: list[Node] = []
    stack: list[tuple[object, Optional[Node]]] = [(elem, None)]
    push = stack.append
    while stack:
        src, parent = stack.pop()
        node = new(Node)
        node.children = []
        node.parent = parent
        node.node_id = node.produced_by = None
        node.activation = _LAZY
        order.append(node)
        if parent is not None:
            parent.children.append(node)
        if src.__class__ is str:
            node.kind, node.label = _VALUE, src
            continue
        if src.tag != _CALL_TAG:
            node.kind, node.label = _ELEMENT, src.tag
        elif not (service_name := src.get(_SERVICE_ATTR)):
            raise ValueError("axml:call element is missing its service attribute")
        else:
            node.kind, node.label = _FUNCTION, service_name
            mode = src.get(_MODE_ATTR)
            node.activation = _LAZY if mode is None else Activation(mode)
        for sub in reversed(src):
            tail = sub.tail
            if tail and (tail := tail.strip()):
                push((tail, node))
            push((sub, node))
        text = src.text
        if text and (text := text.strip()):
            push((text, node))
    return order


def from_etree(elem: ET.Element) -> Node:
    """Convert an ElementTree element to a detached AXML tree (no ids)."""
    return _load(elem)[0]


def serialize(node: Node) -> str:
    """Serialise a node (element or function) to an XML string."""
    return ET.tostring(to_etree(node), encoding="unicode")


def serialize_forest(forest: Iterable[Node]) -> str:
    """Serialise a forest by wrapping it in an ``axml:forest`` element."""
    wrapper = ET.Element(f"{{{AXML_NAMESPACE}}}forest")
    _fill_children(wrapper, list(forest))
    return ET.tostring(wrapper, encoding="unicode")


def parse(text: str) -> Node:
    """Parse an XML string into a detached AXML tree."""
    return from_etree(ET.fromstring(text))


def parse_document(text: str, name: str = "document") -> Document:
    """Parse an XML string into a full :class:`Document`: one walk from
    ElementTree to nodes, which the document numbers by position."""
    nodes = _load(ET.fromstring(text))
    return Document(nodes[0], name=name, in_order=nodes)


def serialize_document(document: Document) -> str:
    """Serialise a whole document to an XML string."""
    return serialize(document.root)


#: What escaping adds per character: ``&amp;``/``&lt;``/``&gt;`` in text,
#: plus ``&quot;`` and the numeric whitespace references in attributes.
_TEXT_ESCAPES = {"&": 4, "<": 3, ">": 3}
_ATTR_ESCAPES = {**_TEXT_ESCAPES, '"': 5, "\r": 4, "\n": 4, "\t": 4}
_NO_ESCAPES: dict[str, int] = {}
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
            if kind is _VALUE:
                size += _escaped_size(current.label, _TEXT_ESCAPES)
                continue
            if kind is _FUNCTION:
                calls += 1
                tag = len("axml:call")
                size += len(f' {_SERVICE_ATTR}=""') + _escaped_size(
                    current.label, _ATTR_ESCAPES
                )
                if current.activation is not Activation.LAZY:
                    size += len(f' {_MODE_ATTR}="{current.activation.value}"')
            else:
                tag = _escaped_size(current.label, _NO_ESCAPES)
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
