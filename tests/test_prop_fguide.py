"""Property tests for F-guides: the Section 6.2 equivalence and
incremental-maintenance correctness under random invocation sequences
and under updates of documents whose calls nest in call parameters."""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.axml.builder import C, E, V, build_document
from repro.lazy.fguide import FGuide
from repro.lazy.relevance import linear_path_queries
from repro.pattern.match import Matcher
from repro.pattern.parse import parse_pattern
from repro.services.registry import ServiceCall
from repro.workloads.synthetic import SyntheticWorld


def assert_lpqs_agree(guide, document, rqueries):
    """Every LPQ reads the same calls off the guide as off the document."""
    for rq in rqueries:
        on_doc = {
            n.node_id
            for n in Matcher(rq.pattern).evaluate(document).distinct_nodes()
        }
        on_guide = {
            n.node_id
            for n in guide.candidates(
                rq.linear_steps, descendant_tail=rq.descendant_tail
            )
        }
        assert on_doc == on_guide, rq.pattern.to_string()


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    world_seed=st.integers(0, 10_000),
    doc_seed=st.integers(0, 30),
)
def test_lpq_on_guide_equals_lpq_on_document(world_seed, doc_seed):
    world = SyntheticWorld(seed=world_seed)
    document = world.make_document(doc_seed)
    query = world.sample_query(document, doc_seed)
    guide = FGuide(document)
    try:
        assert_lpqs_agree(
            guide, document, linear_path_queries(query, dedupe=False)
        )
    finally:
        guide.detach()


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    world_seed=st.integers(0, 10_000),
    doc_seed=st.integers(0, 30),
    picks=st.lists(st.integers(0, 100), min_size=1, max_size=8),
)
def test_incremental_maintenance_equals_rebuild(world_seed, doc_seed, picks):
    world = SyntheticWorld(seed=world_seed)
    document = world.make_document(doc_seed)
    bus = world.bus()
    guide = FGuide(document)
    try:
        for pick in picks:
            calls = document.function_nodes()
            if not calls:
                break
            target = calls[pick % len(calls)]
            reply = bus.invoke(
                ServiceCall(service=target.label, parameters=target.children)
            ).reply
            document.replace_call(target, reply.forest)
            incremental = set(guide.paths()), guide.call_count()
            guide.rebuild()
            rebuilt = set(guide.paths()), guide.call_count()
            assert incremental == rebuilt
    finally:
        guide.detach()


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(world_seed=st.integers(0, 10_000), doc_seed=st.integers(0, 30))
def test_guide_never_larger_than_document(world_seed, doc_seed):
    world = SyntheticWorld(seed=world_seed)
    document = world.make_document(doc_seed)
    guide = FGuide(document)
    try:
        assert guide.size() <= document.stats().total_nodes
        assert guide.call_count() == len(outside_parameters(document))
    finally:
        guide.detach()


def outside_parameters(document):
    """The document's calls with no call above them (Section 2: a
    call's parameters are opaque to queries)."""
    return [
        call
        for call in document.function_nodes()
        if not any(node.is_function for node in call.iter_ancestors())
    ]


def trie_snapshot(guide):
    """Every trie node's path and extents, ids per service."""
    out = []
    stack = [((guide.root.label,), guide.root)]
    while stack:
        path, node = stack.pop()
        extents = {name: sorted(bucket) for name, bucket in node.extents.items()}
        out.append((path, sorted(extents.items())))
        for label, child in node.children.items():
            stack.append((path + (label,), child))
    return sorted(out), dict(guide._position_of)


# Trees over two element labels and two services whose calls take
# parameters: calls nest directly in a call and under a parameter element.
TREES = st.recursive(
    st.one_of(st.sampled_from("xy").map(V), st.sampled_from("fg").map(C)),
    lambda kids: st.one_of(
        st.builds(lambda label, kids: E(label, *kids), st.sampled_from("ab"),
                  st.lists(kids, max_size=3)),
        st.builds(lambda name, kids: C(name, *kids), st.sampled_from("fg"),
                  st.lists(kids, max_size=3)),
    ),
    max_leaves=10,
)
OPS = st.lists(
    st.tuples(
        st.sampled_from(["replace", "insert", "remove"]),
        st.integers(0, 1_000),
        st.lists(TREES, max_size=2),
    ),
    min_size=1,
    max_size=6,
)
QUERIES = ["/r/a//b/$X", "/r//a/$X", "/r/*/b/$X", "/r/b/a/$X"]
LPQS = [
    rq for text in QUERIES
    for rq in linear_path_queries(parse_pattern(text), dedupe=False)
]


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(children=st.lists(TREES, min_size=1, max_size=4), ops=OPS)
def test_guide_of_calls_in_parameters_equals_a_rebuilt_one(children, ops):
    """Calls inside call parameters are never indexed: a call that leaves
    with its outer call's parameters leaves no stale extent, and after
    every ``replace_call``, ``insert_subtree`` and ``remove_subtree`` the
    maintained guide is the rebuilt one and answers every LPQ as the
    document does."""
    document = build_document(E("r", *children))
    guide = FGuide(document)
    try:
        for op, pick, forest in ops:
            if op == "replace":
                calls = document.function_nodes()
                if not calls:
                    continue
                document.replace_call(calls[pick % len(calls)], forest)
            elif op == "insert":
                parents = [n for n in document.iter_nodes() if not n.is_value]
                subtree = forest[0] if forest else E("a", C("f"))
                document.insert_subtree(parents[pick % len(parents)], subtree)
            else:
                nodes = list(document.iter_nodes())[1:]  # all but the root
                if not nodes:
                    continue
                document.remove_subtree(nodes[pick % len(nodes)])
            fresh = FGuide(document)
            assert trie_snapshot(guide) == trie_snapshot(fresh)
            fresh.detach()
            assert guide.call_count() == len(outside_parameters(document))
            assert_lpqs_agree(guide, document, LPQS)
    finally:
        guide.detach()
