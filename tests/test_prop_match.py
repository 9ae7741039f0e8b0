"""Property tests for the matcher against a brute-force reference.

The reference implementation enumerates every homomorphism explicitly
(exponential, fine for tiny inputs); the column plan over the
document's arena and the object walk the tests keep as the oracle
(``references.WalkMatcher``) must both agree with it on
randomly generated documents and patterns of every shape Definition 1
allows: OR nodes (whose alternatives may hold result nodes), variables
that must bind consistently, interior wildcards and function nodes.
"""

from hypothesis import given, settings, strategies as st

from repro.axml.builder import build_document
from repro.axml.node import Node, NodeKind, call, element, value
from repro.pattern.match import Matcher, MatchCounter
from repro.pattern.nodes import EdgeKind, PatternKind, PatternNode
from repro.pattern.pattern import TreePattern

from .references import WalkMatcher

LABELS = ["a", "b", "c"]
VALUES = ["1", "2"]
VARIABLES = ["X", "Y"]
#: Plain tree patterns (the shapes containment and the relaxation
#: property reason about), and every extended shape on top.
PLAIN = ("element", "element", "value", "star", "function")
EXTENDED = PLAIN + ("variable", "or")


# -- generators ----------------------------------------------------------------


@st.composite
def doc_trees(draw, depth=3):
    if depth == 0:
        return value(draw(st.sampled_from(VALUES)))
    kind = draw(st.sampled_from(["element", "element", "value", "call"]))
    if kind == "value":
        return value(draw(st.sampled_from(VALUES)))
    if kind == "call":
        return call(draw(st.sampled_from(["f", "g"])))
    node = element(draw(st.sampled_from(LABELS)))
    for child in draw(st.lists(doc_trees(depth=depth - 1), max_size=3)):
        node.append(child)
    return node


@st.composite
def documents(draw):
    root = element("root")
    for child in draw(st.lists(doc_trees(), min_size=1, max_size=3)):
        root.append(child)
    return build_document(root)


@st.composite
def pattern_trees(draw, depth=2, kinds=PLAIN):
    edge = draw(st.sampled_from([EdgeKind.CHILD, EdgeKind.DESCENDANT]))
    kind = draw(st.sampled_from(kinds))
    if depth == 0 or kind == "value":
        if "variable" in kinds and draw(st.booleans()):
            return PatternNode(
                PatternKind.VARIABLE, draw(st.sampled_from(VARIABLES)), edge=edge
            )
        return PatternNode(
            PatternKind.VALUE, draw(st.sampled_from(VALUES)), edge=edge
        )
    if kind == "function":
        names = draw(st.sampled_from([None, ["f"], ["f", "g"]]))
        return PatternNode(
            PatternKind.FUNCTION,
            "()",
            edge=edge,
            function_names=None if names is None else frozenset(names),
        )
    subtrees = pattern_trees(depth=depth - 1, kinds=kinds)
    if kind == "or":
        # The alternatives are tried where the OR lands: their own edges
        # are never read.
        return PatternNode(
            PatternKind.OR,
            "|",
            edge=edge,
            children=draw(st.lists(subtrees, min_size=1, max_size=2)),
        )
    if kind == "star":
        node = PatternNode(PatternKind.STAR, "*", edge=edge)
    elif kind == "variable":
        node = PatternNode(
            PatternKind.VARIABLE, draw(st.sampled_from(VARIABLES)), edge=edge
        )
    else:
        node = PatternNode(
            PatternKind.ELEMENT, draw(st.sampled_from(LABELS)), edge=edge
        )
    for child in draw(st.lists(subtrees, max_size=2)):
        node.add_child(child)
    return node


@st.composite
def patterns(draw, kinds=PLAIN):
    root = PatternNode(PatternKind.ELEMENT, "root")
    for child in draw(
        st.lists(pattern_trees(kinds=kinds), min_size=1, max_size=2)
    ):
        root.add_child(child)
    # Mark one or two non-OR nodes as results — inside an OR alternative
    # too, where the other alternatives leave a hole in the row.
    nodes = [n for n in root.iter_subtree() if not n.is_or]
    marked = draw(
        st.lists(
            st.sampled_from(nodes),
            min_size=1,
            max_size=1 if kinds is PLAIN else 2,
            unique_by=lambda n: n.uid,
        )
    )
    for node in marked:
        node.is_result = True
    return TreePattern(root)


# -- reference implementation --------------------------------------------------


def ref_label_match(p: PatternNode, d: Node) -> bool:
    if p.kind is PatternKind.ELEMENT:
        return d.kind is NodeKind.ELEMENT and d.label == p.label
    if p.kind is PatternKind.VALUE:
        return d.kind is NodeKind.VALUE and d.label == p.label
    if p.kind is PatternKind.STAR or p.kind is PatternKind.VARIABLE:
        return d.kind is not NodeKind.FUNCTION
    if p.kind is PatternKind.FUNCTION:
        return d.kind is NodeKind.FUNCTION and (
            p.function_names is None or d.label in p.function_names
        )
    raise AssertionError


def ref_candidates(d: Node, edge: EdgeKind):
    if edge is EdgeKind.CHILD:
        return list(d.children)
    out = []
    stack = list(d.children)
    while stack:
        node = stack.pop()
        out.append(node)
        if node.kind is not NodeKind.FUNCTION:
            stack.extend(node.children)
    return out


def ref_merge(left, right):
    """Two partial embeddings joined, or ``None`` when they bind one
    variable to two values."""
    env = dict(left[1])
    for name, label in right[1]:
        if env.setdefault(name, label) != label:
            return None
    return left[0] | right[0], frozenset(env.items())


def ref_embeddings(p: PatternNode, d: Node):
    """Every embedding of ``p``'s subtree with ``p`` at ``d``, brute
    force: (result node -> doc node pairs, variable -> label pairs).
    An OR embeds as any one of its alternatives, at ``d`` itself."""
    if p.is_or:
        return [e for alt in p.children for e in ref_embeddings(alt, d)]
    if not ref_label_match(p, d):
        return []
    env = (
        frozenset({(p.label, d.label)})
        if p.kind is PatternKind.VARIABLE
        else frozenset()
    )
    partials = [(frozenset({(p.uid, id(d))}) if p.is_result else frozenset(), env)]
    for child in p.children:
        child_opts = [
            opt
            for cand in ref_candidates(d, child.edge)
            for opt in ref_embeddings(child, cand)
        ]
        partials = [
            joined
            for partial in partials
            for opt in child_opts
            if (joined := ref_merge(partial, opt)) is not None
        ]
        if not partials:
            return []
    return partials


def ref_results(pattern: TreePattern, doc) -> dict:
    """Result row (doc node ids in ``result_nodes()`` order) -> the
    bindings of every embedding witnessing it.  A row an OR alternative
    left with a hole is no row."""
    uids = [r.uid for r in pattern.result_nodes()]
    out: dict = {}
    for assigns, env in ref_embeddings(pattern.root, doc.root):
        by_uid = dict(assigns)
        if len(by_uid) == len(uids):
            row = tuple(by_uid[uid] for uid in uids)
            out.setdefault(row, set()).add(tuple(sorted(env)))
    return out


def row_ids(match_set):
    return [
        (tuple(id(n) for n in row.nodes), row.bindings) for row in match_set
    ]


# -- properties ------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(doc=documents(), pattern=patterns(EXTENDED))
def test_matcher_agrees_with_reference(doc, pattern):
    """Both evaluators return the reference's rows, each with the
    bindings of one of its witnesses — and the same rows in the same
    order with the same first-witness bindings, whole and scoped."""
    walk = WalkMatcher(pattern)
    counter = MatchCounter()
    plan = Matcher(pattern, counter=counter)
    expected = ref_results(pattern, doc)
    walked = row_ids(walk.evaluate(doc))
    for rows in (walked, row_ids(plan.evaluate(doc))):
        got = dict(rows)
        assert len(got) == len(rows)
        assert got.keys() == expected.keys()
        assert all(got[row] in expected[row] for row in got)
        assert rows == walked
    for scope in doc.root.children:
        assert row_ids(plan.evaluate_scoped(doc, scope)) == row_ids(
            walk.evaluate_scoped(doc, scope)
        )
    assert counter.column_rows >= len(walked)


@settings(max_examples=80, deadline=None)
@given(doc=documents(), pattern=patterns())
def test_descendant_results_superset_of_child(doc, pattern):
    """Relaxing every child edge to a descendant edge only adds rows."""
    strict_rows = Matcher(pattern).evaluate(doc)
    relaxed = pattern.clone()
    for node in relaxed.nodes():
        node.edge = EdgeKind.DESCENDANT
    relaxed_rows = Matcher(relaxed).evaluate(doc)
    strict_ids = {
        tuple(id(n) for n in row.nodes) for row in strict_rows
    }
    relaxed_ids = {
        tuple(id(n) for n in row.nodes) for row in relaxed_rows
    }
    assert strict_ids <= relaxed_ids


@settings(max_examples=80, deadline=None)
@given(doc=documents(), pattern=patterns())
def test_has_embedding_iff_results_nonempty(doc, pattern):
    walk = WalkMatcher(pattern)
    assert walk.has_embedding(doc.root) == bool(walk.evaluate(doc))
    assert walk.has_embedding(doc.root) == bool(Matcher(pattern).evaluate(doc))


@settings(max_examples=80, deadline=None)
@given(doc=documents(), left=patterns(), right=patterns())
def test_containment_is_sound_on_random_documents(doc, left, right):
    """If subsumes(general, specific) then specific's results are a
    subset of general's on every document (here: sampled documents)."""
    from repro.pattern.containment import subsumes

    if not subsumes(left, right):
        return
    general_rows = {
        tuple(id(n) for n in row.nodes) for row in Matcher(left).evaluate(doc)
    }
    specific_rows = {
        tuple(id(n) for n in row.nodes) for row in Matcher(right).evaluate(doc)
    }
    # Result tuples are over different pattern nodes; compare the sets
    # of *matched document nodes* instead (single-result patterns).
    general_nodes = {ids for ids in general_rows}
    specific_nodes = {ids for ids in specific_rows}
    if len(left.result_nodes()) == len(right.result_nodes()) == 1:
        assert specific_nodes <= general_nodes
