"""Properties: XML serialisation round-trips arbitrary AXML trees, and
the loader — a cold parse and every later stamp of the same text —
agrees with the walk-then-number reference on arbitrary XML text, its
documents staying independent of each other and of what it keeps; and a
warm document, made one depth-1 scope at a time on first read, reads as
a cold one under interleaved reads and mutations."""

import xml.etree.ElementTree as ET
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro import kept
from repro.axml import xmlio
from repro.axml.arena import DocumentArena
from repro.axml.builder import C, E, V
from repro.axml.document import Document
from repro.axml.node import Activation, call, element, value
from repro.axml.xmlio import (
    AXML_NAMESPACE,
    parse,
    parse_document,
    serialize,
    serialize_document,
)
from repro.pattern.match import Matcher
from repro.pattern.parse import parse_pattern
from repro.services.catalog import StaticService

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
    [
        "",
        " ",
        "1",
        "a&b",
        "<<>>",
        'say "hi"',
        "line\nbreak\ttab\r",
        "éàü€",
        "&amp;",
        "x>y",
        'é<&>"',
    ]
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


# -- the loader against the reference -----------------------------------------

CALL_TAG = f"{{{AXML_NAMESPACE}}}call"


def reference_tree(elem):
    """The ElementTree -> tree walk the loader replaced: a childless
    shell per element through the public constructors, text and tails
    appended as value children; ids come later, from ``Document``'s own
    numbering walk."""

    def shell(src):
        if src.tag == CALL_TAG:
            name = src.get("service")
            if not name:
                raise ValueError(
                    "axml:call element is missing its service attribute"
                )
            return call(name, activation=Activation(src.get("mode", "lazy")))
        return element(src.tag)

    node = shell(elem)
    stack = [(elem, node)]
    while stack:
        src, dst = stack.pop()
        text = (src.text or "").strip()
        if text:
            dst.append(value(text))
        for sub in src:
            child = shell(sub)
            dst.append(child)
            stack.append((sub, child))
            tail = (sub.tail or "").strip()
            if tail:
                dst.append(value(tail))
    return node


def reference_document(text):
    return Document(reference_tree(ET.fromstring(text)))


#: Character data as it appears in the text: entities, CDATA, comments,
#: processing instructions, whitespace-only runs, non-ASCII.
TEXT_PIECES = [
    "1",
    "hello world",
    "  ",
    "\n  \t",
    " padded ",
    "&amp;",
    "&lt;b&gt; &quot;q&quot;",
    "&#233;t&#xE9;",
    "<![CDATA[ <raw> & ]]>",
    "<!-- a comment -->",
    "<?pi some data?>",
    "éàü€",
]
TAGS = ["a", "b", "long-name", "ns.like", "x_1", "étage"]
MODES = [None, None, "lazy", "immediate", "frozen"]


@st.composite
def xml_items(draw, depth):
    """One piece of element content: text, an element, or a call."""
    kind = draw(st.sampled_from(["text", "text", "element", "call"]))
    if depth == 0 or kind == "text":
        return ["text", draw(st.sampled_from(TEXT_PIECES))]
    items = draw(st.lists(xml_items(depth - 1), max_size=4))
    if kind == "call":
        service = draw(st.sampled_from(["svcA", "svcB", "ünï"]))
        return ["call", service, draw(st.sampled_from(MODES)), items]
    return ["element", draw(st.sampled_from(TAGS)), items]


def render(item, root=False):
    if item[0] == "text":
        return item[1]
    xmlns = f' xmlns:axml="{AXML_NAMESPACE}"' if root else ""
    if item[0] == "call":
        _, service, mode, items = item
        tag = "axml:call"
        attributes = "" if service is None else f' service="{service}"'
        attributes += "" if mode is None else f' mode="{mode}"'
    else:
        _, tag, items = item
        attributes = ""
    body = "".join(render(sub) for sub in items)
    if not body:
        return f"<{tag}{xmlns}{attributes}/>"
    return f"<{tag}{xmlns}{attributes}>{body}</{tag}>"


def calls_in(item):
    if item[0] == "text":
        return []
    found = [item] if item[0] == "call" else []
    for sub in item[-1]:
        found.extend(calls_in(sub))
    return found


#: At most one fault per text, so both walks meet the same first error.
FAULTS = [None, None, None, "root-call", "no-service", "empty-service", "bad-mode"]


@st.composite
def xml_documents(draw, faults=FAULTS):
    root = ["element", "root", draw(st.lists(xml_items(3), max_size=5))]
    fault = draw(st.sampled_from(faults))
    if fault == "root-call":
        root = ["call", "svcR", None, root[2]]
    calls = calls_in(root)
    if fault in ("no-service", "empty-service", "bad-mode") and calls:
        target = calls[draw(st.integers(0, len(calls) - 1))]
        if fault == "bad-mode":
            target[2] = "sometimes"
        else:
            target[1] = None if fault == "no-service" else ""
    return render(root, root=True)


def shape(node):
    return (
        node.kind,
        node.label,
        node.activation,
        tuple(shape(child) for child in node.children),
    )


#: What an arena keeps besides its node map: every column, the label
#: table, the slot map and the free list.
ARENA_STATE = (
    "kind",
    "label",
    "parent",
    "first_child",
    "next_sibling",
    "service",
    "node_id",
    "labels",
    "_label_ids",
    "_label_bytes",
    "_slot_of",
    "_free",
)


def arena_state(arena):
    return {name: getattr(arena, name) for name in ARENA_STATE}


def built(document):
    """What ``_build`` makes of ``document`` now: a throwaway arena's
    state and node map, the document's own arena left as it is."""
    arena = DocumentArena(document)
    arena.detach()
    return arena_state(arena), arena._node_at


def assert_like_reference(loaded, expected):
    assert shape(loaded.root) == shape(expected.root)
    assert [n.node_id for n in loaded.iter_nodes()] == [
        n.node_id for n in expected.iter_nodes()
    ]
    assert all(loaded.node(n.node_id) is n for n in loaded.iter_nodes())
    assert loaded.live_nodes == expected.live_nodes
    assert loaded.function_labels == expected.function_labels
    assert loaded._next_id == expected._next_id
    assert all(
        child.parent is node
        for node in loaded.iter_nodes()
        for child in node.children
    )


@settings(deadline=None)
@given(text=xml_documents())
def test_the_loader_matches_walk_then_number(text):
    """``parse_document`` twice — the cold parse (one walk to columns,
    nodes stamped and numbered by position) and the warm one (stamped
    from what the first kept) — against the walk it replaced followed by
    ``Document``'s numbering walk: same tree, same ids in document order,
    same call names and next id, a consistent arena, and a warm arena
    that is ``_build``'s on the same document column for column — or,
    on both parses, the same error and nothing kept."""
    kept.texts.take(text)
    try:
        expected = reference_document(text)
    except ValueError as error:
        for _ in range(2):
            with pytest.raises(ValueError) as raised:
                parse_document(text)
            assert str(raised.value) == str(error)
            assert text not in kept.texts
        return
    cold = parse_document(text)
    warm = parse_document(text)
    assert text in kept.texts
    for loaded in (cold, warm):
        assert_like_reference(loaded, expected)
        assert loaded.arena.consistency_errors() == []
        state, nodes = built(loaded)
        assert arena_state(loaded.arena) == state
        assert all(a is b for a, b in zip(loaded.arena._node_at, nodes, strict=True))
    assert not {id(n) for n in cold.iter_nodes()} & {id(n) for n in warm.iter_nodes()}
    # ``parse`` is the same walk and stamp without the numbering:
    # detached, no ids.
    tree = parse(text)
    assert shape(tree) == shape(expected.root) and tree.parent is None
    assert all(n.node_id is None for n in tree.iter_subtree())


#: Fresh reply forests, empty, data-only and carrying calls.
REPLIES = [
    lambda: [],
    lambda: [E("x", V("1"))],
    lambda: [V("t"), C("svcA", V("p"))],
    lambda: [E("y", C("svcB"), E("z")), C("svcA")],
]
#: Fresh subtrees to insert, some carrying calls.
INSERTS = [
    lambda: E("ins", V("v")),
    lambda: E("ins"),
    lambda: E("ins", C("svcB", E("q"))),
    lambda: C("svcA"),
]


def replies():
    return st.sampled_from(REPLIES)


def inserts():
    return st.sampled_from(INSERTS)


def document_errors(document):
    """The id map, parent pointers and (if read) the arena against the
    live tree."""
    nodes = list(document.iter_nodes())
    errors = []
    if sorted(n.node_id for n in nodes) != sorted(document.nodes_by_id):
        errors.append("id map is not the tree")
    if not all(document.node(n.node_id) is n for n in nodes):
        errors.append("id map names another node")
    if not all(c.parent is n for n in nodes for c in n.children):
        errors.append("parent pointer mismatch")
    if document._arena is not None:
        errors += document._arena.consistency_errors()
    return errors


@settings(deadline=None, max_examples=60)
@given(
    text=xml_documents(faults=[None]),
    data=st.data(),
)
def test_loader_stamps_stay_independent_under_interleaved_mutation(text, data):
    """Two documents stamped from one text, mutated in turn — replies
    (some carrying calls), inserts, removals — and their arenas first
    read before or after a mutation: after every step each document is
    consistent, an unchanged document and a new stamp still equal a
    fresh parse (the reference walk and ``_build`` on it), and an arena
    first read after a mutation is ``_build``'s on that document."""
    kept.texts.take(text)
    expected = reference_document(text)
    expected_arena = built(expected)[0]
    documents = [parse_document(text), parse_document(text)]
    for _ in range(data.draw(st.integers(1, 8), label="steps")):
        document = documents[data.draw(st.integers(0, 1), label="document")]
        step = data.draw(
            st.sampled_from(["reply", "insert", "remove", "arena"]), label="step"
        )
        nodes = list(document.iter_nodes())
        calls = [n for n in nodes if n.is_function]
        if step == "reply" and calls:
            target = data.draw(st.sampled_from(calls), label="call")
            document.replace_call(target, data.draw(replies())())
        elif step == "insert":
            parent = data.draw(
                st.sampled_from([n for n in nodes if not n.is_value]),
                label="parent",
            )
            position = data.draw(st.integers(0, len(parent.children)))
            document.insert_subtree(parent, data.draw(inserts())(), position)
        elif step == "remove" and len(nodes) > 1:
            document.remove_subtree(data.draw(st.sampled_from(nodes[1:])))
        elif step == "arena" and document._arena is None:
            arena = document.arena
            state, at = built(document)
            assert arena_state(arena) == state
            assert all(a is b for a, b in zip(arena._node_at, at, strict=True))
        fresh = parse_document(text)
        for loaded in (*documents, fresh):
            assert document_errors(loaded) == []
            if loaded.version == 0:
                assert_like_reference(loaded, expected)
                if loaded._arena is not None:
                    assert arena_state(loaded.arena) == expected_arena
        assert arena_state(fresh.arena) == expected_arena


# -- the lazy loader against the eager one -------------------------------------

#: Patterns whose rows land in a few scopes of a generated text.
NARROW_PATTERNS = [
    "/doc/a/b/$x",
    "/doc/b//svcA()",
    '/doc//a/"1"',
    "/doc/*/x_1/$x",
    "/doc/long-name//$x",
]


def facts(node):
    """A node's own slots, its subtree left unread."""
    parent = node.parent
    return (
        node.kind,
        node.label,
        node.activation,
        node.node_id,
        None if parent is None else parent.node_id,
    )


def matcher_rows(document, pattern):
    rows = Matcher(parse_pattern(pattern)).evaluate(document)
    return [(tuple(facts(n) for n in row.nodes), row.bindings) for row in rows]


def evaluated(document, pattern):
    """One engine run over ``document``: rows and the size figures."""
    services = [
        StaticService("svcA", [E("a", E("b", V("1")))]),
        StaticService("svcB", [V("2"), C("svcA")]),
        StaticService("ünï", []),
    ]
    outcome = repro.evaluate(pattern, document, services=services)
    metrics = outcome.metrics
    return (
        [(tuple(facts(n) for n in row.nodes), row.bindings) for row in outcome.rows],
        metrics.calls_invoked,
        metrics.final_document_nodes,
        metrics.arena_nodes,
    )


@st.composite
def scoped_documents(draw):
    """Text whose root has a few children, most of them depth-1 scopes
    with content of their own."""
    children = []
    for _ in range(draw(st.integers(1, 5))):
        if draw(st.booleans()):
            children.append(draw(xml_items(3)))
        else:
            items = draw(st.lists(xml_items(2), min_size=1, max_size=4))
            children.append(["element", draw(st.sampled_from(TAGS)), items])
    return render(["element", "doc", children], root=True)


def lazy_steps():
    return st.lists(
        st.tuples(
            st.sampled_from(
                [
                    "node_at",
                    "node",
                    "child_of_root",
                    "children",
                    "rows",
                    "immediate",
                    "calls",
                    "evaluate",
                    "reply",
                    "insert",
                    "remove",
                    "arena",
                ]
            ),
            st.integers(0, 10**6),
            st.integers(0, 10**6),
        ),
        min_size=1,
        max_size=6,
    )


def take(step, cold, warm):
    """Apply one read or mutation to both documents, its targets chosen
    by id on the eager one; a read's answers must agree."""
    kind, first, second = step
    ids = list(cold.nodes_by_id)
    nodes = [cold.node(i) for i in ids]
    if kind == "node_at":
        node_id = ids[first % len(ids)]
        arena = warm.arena
        assert facts(arena.node_at(arena._slot_of[node_id])) == facts(
            cold.node(node_id)
        )
    elif kind == "node":
        node_id = ids[first % len(ids)]
        assert facts(warm.node(node_id)) == facts(cold.node(node_id))
    elif kind == "child_of_root":
        node_id = first % (cold._next_id + 2)
        expected = cold.child_of_root(node_id)
        got = warm.child_of_root(node_id)
        assert (got is None) == (expected is None)
        if got is not None:
            assert facts(got) == facts(expected)
    elif kind == "children":
        tops = cold.root.children
        if tops:
            at = first % len(tops)
            assert [facts(c) for c in warm.root.children[at].children] == [
                facts(c) for c in tops[at].children
            ]
    elif kind == "rows":
        pattern = NARROW_PATTERNS[first % len(NARROW_PATTERNS)]
        assert matcher_rows(warm, pattern) == matcher_rows(cold, pattern)
    elif kind == "immediate":
        assert [facts(c) for c in warm.immediate_calls()] == [
            facts(c) for c in cold.immediate_calls()
        ]
    elif kind == "calls":
        assert [facts(c) for c in warm.function_nodes()] == [
            facts(c) for c in cold.function_nodes()
        ]
    elif kind == "evaluate":
        pattern = NARROW_PATTERNS[first % len(NARROW_PATTERNS)]
        assert evaluated(warm, pattern) == evaluated(cold, pattern)
    elif kind == "reply":
        calls = [n for n in nodes if n.is_function]
        if calls:
            node_id = calls[first % len(calls)].node_id
            reply = REPLIES[second % len(REPLIES)]
            for document in (cold, warm):
                document.replace_call(document.node(node_id), reply())
    elif kind == "insert":
        parents = [n for n in nodes if not n.is_value]
        parent = parents[first % len(parents)]
        position = second % (len(parent.children) + 1)
        subtree = INSERTS[second % len(INSERTS)]
        for document in (cold, warm):
            document.insert_subtree(
                document.node(parent.node_id), subtree(), position
            )
    elif kind == "remove" and len(nodes) > 1:
        node_id = nodes[1:][first % (len(nodes) - 1)].node_id
        for document in (cold, warm):
            document.remove_subtree(document.node(node_id))
    elif kind == "arena" and warm._arena is None:
        state = arena_state(warm.arena)
        assert state == built(cold)[0]
        assert all(
            node is None or facts(node) == facts(cold.node(node.node_id))
            for node in warm.arena._node_at
        )


def agree_in_full(cold, warm):
    """Everything both documents say, the warm one made whole."""
    assert serialize_document(warm) == serialize_document(cold)
    assert list(warm.nodes_by_id) == list(cold.nodes_by_id)
    assert [facts(n) for n in warm.nodes_by_id.values()] == [
        facts(n) for n in cold.nodes_by_id.values()
    ]
    agree_cheaply(cold, warm)
    assert [facts(c) for c in warm.immediate_calls()] == [
        facts(c) for c in cold.immediate_calls()
    ]
    for document in (cold, warm):
        assert document_errors(document) == []
        assert document.arena.consistency_errors() == []


def agree_cheaply(cold, warm):
    """What a document says without making a node — a gone id (removed,
    or never assigned) lies in no unread scope."""
    for node_id in range(cold._next_id + 2):
        if node_id not in cold.nodes_by_id:
            with pytest.raises(KeyError):
                warm.node(node_id)
    assert warm.live_nodes == cold.live_nodes
    made = len(warm._nodes_by_id)
    assert [n.subtree_size() for n in warm.root.children] == [
        n.subtree_size() for n in cold.root.children
    ]
    assert warm.root.subtree_size() == cold.root.subtree_size()
    assert len(warm._nodes_by_id) == made
    assert warm.function_labels == cold.function_labels
    assert warm._next_id == cold._next_id
    assert warm._immediate == cold._immediate


@settings(deadline=None)
@given(text=scoped_documents(), steps=lazy_steps())
def test_a_lazy_loader_document_reads_as_the_eager_one(text, steps):
    """A warm load makes only the root and its children; each depth-1
    scope is stamped whole on the first read below it.  Under
    interleaved reads (``node_at``, ``node``, ``child_of_root``,
    children, rows of a match, the ``IMMEDIATE`` calls, all calls) and
    mutations (replies carrying calls, inserts, removals, first arena
    reads before and after a mutation) the warm document answers every
    read as a cold one of the same text, counts its subtrees' nodes
    without making any, and after every step — each prefix replayed on
    a fresh pair, so later steps meet scopes still unread — the two
    agree in full: text, id map in assignment order, sizes,
    call names, next id and consistency.  No scope is stamped twice,
    and an arena first read after a mutation is ``_build``'s."""
    from unittest import mock

    stamp = xmlio._stamp
    for end in range(1, len(steps) + 1):
        stamped = []

        def counting(columns, ids, scope=None, stop=0):
            made = stamp(columns, ids, scope, stop)
            if scope is not None:
                stamped.extend(n.node_id for n in made[1:])
            return made

        kept.texts.take(text)
        cold = parse_document(text)
        with mock.patch.object(xmlio, "_stamp", counting):
            warm = parse_document(text)
            assert len(warm._nodes_by_id) == 1 + len(cold.root.children)
            for step in steps[:end]:
                take(step, cold, warm)
                agree_cheaply(cold, warm)
                assert len(stamped) == len(set(stamped))
            agree_in_full(cold, warm)
        assert len(stamped) == len(set(stamped))
