"""Property: XML serialisation round-trips arbitrary AXML trees."""

from hypothesis import given, settings, strategies as st

from repro.axml.node import Activation, call, element, value
from repro.axml.xmlio import parse, serialize

LABELS = ["a", "b", "long-name", "ns.like", "x_1"]
# Values must survive the whitespace-stripping convention: no leading/
# trailing whitespace and not whitespace-only.
VALUES = ["1", "hello world", "éàü", "<>&\"'", "5 stars"]


@st.composite
def axml_trees(draw, depth=3):
    kind = draw(st.sampled_from(["element", "element", "value", "call"]))
    if depth == 0 or kind == "value":
        return value(draw(st.sampled_from(VALUES)))
    if kind == "call":
        node = call(
            draw(st.sampled_from(["svcA", "svcB"])),
            activation=draw(st.sampled_from(list(Activation))),
        )
    else:
        node = element(draw(st.sampled_from(LABELS)))
    for child in draw(st.lists(axml_trees(depth=depth - 1), max_size=3)):
        node.append(child)
    return node


@st.composite
def rooted_trees(draw):
    root = element("root")
    for child in draw(st.lists(axml_trees(), max_size=4)):
        root.append(child)
    return root


def normalized(node):
    """Merge adjacent value siblings — two adjacent text nodes are one
    text node in XML, an inherent model fact, not a round-trip bug."""
    from repro.axml.node import Node

    copy = Node(node.kind, node.label, activation=node.activation)
    pending_text = None
    for child in node.children:
        if child.is_value:
            pending_text = (
                child.label
                if pending_text is None
                else pending_text + child.label
            )
            continue
        if pending_text is not None:
            copy.append(value(pending_text))
            pending_text = None
        copy.append(normalized(child))
    if pending_text is not None:
        copy.append(value(pending_text))
    return copy


@settings(max_examples=150, deadline=None)
@given(tree=rooted_trees())
def test_serialize_parse_roundtrip(tree):
    again = parse(serialize(tree))
    assert again.structurally_equal(normalized(tree))


@settings(max_examples=60, deadline=None)
@given(tree=rooted_trees())
def test_roundtrip_preserves_activation(tree):
    again = parse(serialize(tree))
    original_calls = [n for n in tree.iter_subtree() if n.is_function]
    parsed_calls = [n for n in again.iter_subtree() if n.is_function]
    assert [c.activation for c in original_calls] == [
        c.activation for c in parsed_calls
    ]


@settings(max_examples=60, deadline=None)
@given(tree=rooted_trees())
def test_double_roundtrip_is_stable(tree):
    once = serialize(parse(serialize(tree)))
    twice = serialize(parse(once))
    assert once == twice


# Size accounting needs no round trip, so its trees are nastier: empty
# and whitespace values, escapes in text *and* in service names (an
# attribute: quotes and line breaks escape there too), non-ASCII tags.
SIZE_TEXT = st.sampled_from(
    ["", " ", "1", "a&b", "<<>>", 'say "hi"', "line\nbreak\ttab\r", "éàü€", "&amp;"]
)


@st.composite
def size_trees(draw, depth=3):
    kind = draw(st.sampled_from(["element", "element", "value", "call"]))
    if depth == 0 or kind == "value":
        return value(draw(SIZE_TEXT))
    if kind == "call":
        node = call(
            draw(st.sampled_from(["svc", 'q"uo<te&', "ünï\ncode", "t\tab"])),
            activation=draw(st.sampled_from(list(Activation))),
        )
    else:
        node = element(draw(st.sampled_from(LABELS + ["étage"])))
    for child in draw(st.lists(size_trees(depth=depth - 1), max_size=3)):
        node.append(child)
    return node


@settings(max_examples=300, deadline=None)
@given(tree=size_trees())
def test_serialized_size_is_the_encoded_length(tree):
    """The arithmetic size equals what serialising would have produced,
    byte for byte — bare values count their raw UTF-8 length."""
    from repro.axml.xmlio import forest_size_bytes, serialized_size

    expected = (
        len(tree.label.encode("utf-8"))
        if tree.is_value
        else len(serialize(tree).encode("utf-8"))
    )
    assert serialized_size(tree) == expected
    assert forest_size_bytes([tree, tree]) == 2 * expected


@settings(max_examples=300, deadline=None)
@given(forest=st.lists(size_trees(), max_size=4))
def test_measure_forest_is_one_walk_for_three_oracles(forest):
    """The bus's single measuring walk against the three walks it
    replaced: serialised bytes, node count, function-node count — over
    non-ASCII labels, empty-string values, non-lazy activations and
    calls nested in parameters (``size_trees`` draws all four)."""
    from repro.axml.xmlio import forest_size_bytes, measure_forest

    expected_bytes = sum(
        len(tree.label.encode("utf-8"))
        if tree.is_value
        else len(serialize(tree).encode("utf-8"))
        for tree in forest
    )
    expected_nodes = sum(tree.subtree_size() for tree in forest)
    expected_calls = sum(
        1 for tree in forest for n in tree.iter_subtree() if n.is_function
    )
    assert measure_forest(forest) == (
        expected_bytes,
        expected_nodes,
        expected_calls,
    )
    assert forest_size_bytes(forest) == expected_bytes
