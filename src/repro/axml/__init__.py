"""The AXML document substrate: trees, documents, builder DSL, XML I/O."""

from .builder import C, E, V, build_document
from .document import Document, DocumentObserver, DocumentStats, SpliceDelta
from .node import Activation, Node, NodeKind, call, element, value
from .paths import (
    LabelPath,
    call_position,
    common_prefix,
    format_path,
    is_prefix,
    parse_path,
    path_to,
)
from .xmlio import (
    forest_size_bytes,
    measure_forest,
    parse,
    parse_document,
    serialize,
    serialize_document,
    serialize_forest,
    serialized_size,
)

__all__ = [
    "Activation",
    "C",
    "Document",
    "DocumentObserver",
    "DocumentStats",
    "E",
    "LabelPath",
    "Node",
    "NodeKind",
    "SpliceDelta",
    "V",
    "build_document",
    "call",
    "call_position",
    "common_prefix",
    "element",
    "forest_size_bytes",
    "format_path",
    "is_prefix",
    "measure_forest",
    "parse",
    "parse_document",
    "parse_path",
    "path_to",
    "serialize",
    "serialize_document",
    "serialize_forest",
    "serialized_size",
    "value",
]
