"""A small declarative DSL for building AXML trees.

Example — a fragment of the paper's Figure 1 document::

    from repro.axml.builder import E, V, C, build_document

    doc = build_document(
        E("hotels",
          E("hotel",
            E("name", V("Best Western")),
            E("address", V("75, 2nd Av.")),
            E("rating", V("5")),
            E("nearby",
              C("getNearbyRestos", V("2nd Av.")),
              C("getNearbyMuseums", V("2nd Av.")))),
          C("getHotels", V("NY"))),
        name="figure-1",
    )

``E``/``V``/``C`` build detached element/value/call nodes;
:func:`build_document` wraps a detached tree into a
:class:`~repro.axml.document.Document`.  For convenience, plain strings,
ints and floats given as children are coerced to value nodes.
"""

from __future__ import annotations

from typing import Union

from .document import Document
from .node import Activation, Node, call, element, value

Child = Union[Node, str, int, float]


def _coerce(child: Child) -> Node:
    if isinstance(child, Node):
        return child
    return value(child)


def E(label: str, *children: Child) -> Node:
    """An element node; non-node children are coerced to value leaves."""
    return element(label, *(_coerce(c) for c in children))


def V(text: object) -> Node:
    """A value (text leaf) node."""
    return value(text)


def C(
    service_name: str,
    *parameters: Child,
    activation: Activation = Activation.LAZY,
) -> Node:
    """A function (service call) node; parameters are coerced like ``E``."""
    return call(
        service_name,
        *(_coerce(p) for p in parameters),
        activation=activation,
    )


def build_document(root: Node, name: str = "document") -> Document:
    """Wrap a detached tree into a Document (assigning node ids)."""
    return Document(root, name=name)
