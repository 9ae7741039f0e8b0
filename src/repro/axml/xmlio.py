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
from typing import Iterable

from .document import Document
from .node import Activation, Node, NodeKind, call, element, value

AXML_NAMESPACE = "http://activexml.net/2004/axml"
_CALL_TAG = f"{{{AXML_NAMESPACE}}}call"
_SERVICE_ATTR = "service"
_MODE_ATTR = "mode"

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


def _node_shell(elem: ET.Element) -> Node:
    """A childless AXML node for one ElementTree element."""
    if elem.tag == _CALL_TAG:
        service_name = elem.get(_SERVICE_ATTR)
        if not service_name:
            raise ValueError("axml:call element is missing its service attribute")
        return call(
            service_name,
            activation=Activation(elem.get(_MODE_ATTR, Activation.LAZY.value)),
        )
    return element(elem.tag)


def from_etree(elem: ET.Element) -> Node:
    """Convert an ElementTree element back to an AXML node.

    Iterative for the same deep-document reason as :func:`to_etree`.
    """
    node = _node_shell(elem)
    stack = [(elem, node)]
    while stack:
        src, dst = stack.pop()
        text = (src.text or "").strip()
        if text:
            dst.append(value(text))
        for sub in src:
            child = _node_shell(sub)
            dst.append(child)
            stack.append((sub, child))
            tail = (sub.tail or "").strip()
            if tail:
                dst.append(value(tail))
    return node


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
    """Parse an XML string into a full :class:`Document`."""
    return Document(parse(text), name=name)


def serialize_document(document: Document) -> str:
    """Serialise a whole document to an XML string."""
    return serialize(document.root)


#: What escaping adds per character: ``&amp;``/``&lt;``/``&gt;`` in text,
#: plus ``&quot;`` and the numeric whitespace references in attributes.
_TEXT_ESCAPES = {"&": 4, "<": 3, ">": 3}
_ATTR_ESCAPES = {**_TEXT_ESCAPES, '"': 5, "\r": 4, "\n": 4, "\t": 4}
_NO_ESCAPES: dict[str, int] = {}
_XMLNS_SIZE = len(f' xmlns:axml="{AXML_NAMESPACE}"')
_VALUE = NodeKind.VALUE
_FUNCTION = NodeKind.FUNCTION


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
