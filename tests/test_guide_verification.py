"""Direct tests for the F-guide residual verification (Section 6.2).

``verify_candidate`` aligns an NFQ's spine with a guide candidate's
ancestor chain and checks the non-linear conditions — the "remaining
query ... starting from the set of function calls returned by
q_v^lin" of the paper.

Note the optimistic semantics (Prop. 1): a candidate call can satisfy
*its own* sibling conditions — its future result might contain the
required data — so the only conditions that rule a candidate out are
those that fail extensionally at positions no remaining call covers.
"""

from repro.axml.builder import C, E, V, build_document
from repro.lazy.fguide import FGuide, residual_check, verify_candidate
from repro.lazy.relevance import build_nfqs
from repro.pattern.parse import parse_pattern

from .references import WalkMatcher


def nfq_for(query, label):
    nodes = {n.uid: n for n in query.nodes()}
    for rq in build_nfqs(query):
        if any(nodes[uid].label == label for uid in rq.all_target_uids):
            return rq
    raise AssertionError(label)


def verify(rq, doc, candidate):
    return verify_candidate(rq, candidate, residual_check(rq, doc))


def agree_with_full_evaluation(query, doc):
    """The invariant: guide verification == full NFQ evaluation, for
    every NFQ and every call of the document (boolean semantics)."""
    for rq in build_nfqs(query):
        matcher = WalkMatcher(rq.pattern)
        retrieved = {
            id(n) for n in matcher.evaluate(doc).distinct_nodes()
        }
        for call_node in doc.function_nodes():
            expected = id(call_node) in retrieved
            # Position mismatch is what the guide pre-filters; verify
            # only claims correctness for position-matching candidates,
            # so only check calls the full evaluation retrieved or that
            # verification accepted.
            got = verify(rq, doc, call_node)
            if got:
                assert expected, (rq.pattern.to_string(), call_node.label)
            if expected:
                assert got, (rq.pattern.to_string(), call_node.label)


def test_uncoverable_condition_rules_candidates_out():
    query = parse_pattern('/r[flag="on"]/item/x')
    doc_on = build_document(
        E("r", E("flag", V("on")), E("item", C("good")))
    )
    doc_off = build_document(
        E("r", E("flag", V("off")), E("item", C("bad")))
    )
    rq = nfq_for(query, "x")
    assert verify(rq, doc_on, doc_on.function_nodes()[0])
    # flag sits at the r level where no call remains: provably hopeless.
    assert not verify(rq, doc_off, doc_off.function_nodes()[0])


def test_candidate_satisfies_its_own_sibling_conditions():
    """Prop. 1 optimism: the call itself may return the missing tag."""
    query = parse_pattern('/r/item[tag="hot"]/x')
    doc = build_document(
        E("r", E("item", E("tag", V("cold")), C("maybe")))
    )
    rq = nfq_for(query, "x")
    assert verify(rq, doc, doc.function_nodes()[0])


def test_descendant_output_alignment():
    query = parse_pattern("/r/a//b/c")
    doc = build_document(
        E("r", E("a", E("deep", E("b", C("hit")))), E("z", E("b", C("miss"))))
    )
    rq = nfq_for(query, "c")
    hit = [n for n in doc.function_nodes() if n.label == "hit"][0]
    miss = [n for n in doc.function_nodes() if n.label == "miss"][0]
    assert verify(rq, doc, hit)
    # 'miss' sits under /r/z/b — its ancestors cannot align with r/a//b.
    assert not verify(rq, doc, miss)


def test_descendant_target_accepts_any_depth():
    query = parse_pattern("/r/a//b")
    doc = build_document(
        E("r", E("a", C("shallow"), E("mid", E("deep", C("deeper")))))
    )
    rq = nfq_for(query, "b")
    for call_node in doc.function_nodes():
        assert verify(rq, doc, call_node), call_node.label


def test_named_output_filters_by_service():
    from repro.lazy.relevance import NFQBuilder
    from repro.schema.graphschema import LenientSatisfiability
    from repro.schema.schema import parse_schema

    schema = parse_schema(
        """
        functions:
          getX = [in: data, out: x]
          getY = [in: data, out: y]
        elements:
          r = (x | getX | getY)*
          x = data
          y = data
        """
    )
    query = parse_pattern("/r/x")
    builder = NFQBuilder(
        query,
        oracle=LenientSatisfiability(schema),
        function_names=schema.function_names(),
    )
    x_node = [n for n in query.nodes() if n.label == "x"][0]
    rq = builder.build_for(x_node)
    doc = build_document(E("r", C("getX"), C("getY")))
    get_x, get_y = doc.function_nodes()
    assert verify(rq, doc, get_x)
    assert not verify(rq, doc, get_y)  # name not in the refined output set


def test_verification_agrees_with_full_nfq_evaluation():
    query = parse_pattern('/r[flag="on"]/item[tag="hot"]/x')
    doc = build_document(
        E(
            "r",
            E("flag", V("on")),
            E("item", E("tag", V("hot")), C("a")),
            E("item", E("tag", V("cold")), C("b")),
            E("item", C("c")),
        )
    )
    agree_with_full_evaluation(query, doc)


def test_verification_agrees_on_figure_1():
    from repro.workloads.hotels import figure_1_document, paper_query

    agree_with_full_evaluation(paper_query(), figure_1_document())


def test_guide_relevance_reads_what_each_nfq_reads_on_figure_1():
    """``FGuide.relevant`` — lookup plus the residual check — retrieves
    exactly the calls each NFQ retrieves on the document."""
    from repro.workloads.hotels import figure_1_document, paper_query

    doc = figure_1_document()
    guide = FGuide(doc)
    for rq in build_nfqs(paper_query()):
        on_doc = WalkMatcher(rq.pattern).evaluate(doc).distinct_nodes()
        assert {c.node_id for c in guide.relevant(rq)} == {
            n.node_id for n in on_doc
        }, rq.pattern.to_string()
    guide.detach()
