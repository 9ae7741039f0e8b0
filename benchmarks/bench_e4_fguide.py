"""E4 — F-guides: relevance detection on the guide vs on the document.

Paper claims (Section 6.2): the F-guide is "typically much more compact"
than the document; LPQs "yield the same result on a document and on its
F-guide", so one "can get better performance on its F-guide".

Regenerates: guide size vs document size, and the wall-clock time of
one full relevance-detection pass (all NFQs of the paper query) three
ways on the same documents: the object walk (the document scan the
paper compares against; the tests' oracle, ``WalkMatcher``), guide
lookup + residual filtering (``FGuide.relevant``: the residual check is
the NFQ plan's boolean phase over the document's arena, whose one build
this timer pays), and the path the engine runs — each NFQ's compiled
column plan over that arena.  The three detection sets must be equal;
the guide must beat the walk (the paper's claim); nothing is asserted
about the third column — it is there to be read.  Both speedups are
over the walk.  A pass here is cold and whole; what
the engine adds on the plan's side — the document store keeping each
NFQ's rows per subtree between rounds — is outside this table.  The
guide is not an engine path: EXPERIMENTS.md, E4, has the engine-level
measurement that decided it.
"""

import time

import pytest

from bench_harness import WalkMatcher, print_table, run_once
from repro.lazy.fguide import FGuide
from repro.lazy.relevance import build_nfqs
from repro.pattern.match import Matcher
from repro.workloads.hotels import (
    HotelsWorkloadParams,
    build_hotels_workload,
    paper_query,
)

SIZES = [50, 200, 500, 1000, 2000]


def workload_of(n):
    return build_hotels_workload(
        HotelsWorkloadParams(n_hotels=n, extra_hotels_via_service=0, seed=13)
    )


def detection_on_document(nfqs, document, matcher_class=Matcher):
    """Every NFQ matched over the document: on its compiled plan, or on
    the object walk (``WalkMatcher``)."""
    found = set()
    for rq in nfqs:
        matcher = matcher_class(rq.pattern)
        for node in matcher.evaluate(document).distinct_nodes():
            found.add(node.node_id)
    return found


def detection_on_guide(nfqs, guide):
    """Every NFQ read off the guide: lookup plus the residual check."""
    return {call.node_id for rq in nfqs for call in guide.relevant(rq)}


def sweep():
    rows = []
    times = {}
    for n in SIZES:
        wl = workload_of(n)
        document = wl.make_document()
        nfqs = build_nfqs(paper_query())
        guide = FGuide(document)

        start = time.perf_counter()
        on_doc = detection_on_document(nfqs, document, WalkMatcher)
        doc_time = time.perf_counter() - start

        start = time.perf_counter()
        on_guide = detection_on_guide(nfqs, guide)
        guide_time = time.perf_counter() - start
        guide.detach()

        # The guide pass built the arena: the plan pass reads it built.
        start = time.perf_counter()
        on_plan = detection_on_document(nfqs, document)
        plan_time = time.perf_counter() - start

        assert on_guide == on_doc == on_plan
        stats = document.stats()
        rows.append(
            (
                n,
                stats.total_nodes,
                guide.size(),
                stats.function_nodes,
                doc_time * 1000,
                guide_time * 1000,
                f"{doc_time / max(guide_time, 1e-9):.1f}x",
                plan_time * 1000,
                f"{doc_time / max(plan_time, 1e-9):.1f}x",
            )
        )
        times[n] = (doc_time, guide_time)
    return rows, times


def test_e4_report(benchmark, capsys):
    rows, times = run_once(benchmark, sweep)
    with capsys.disabled():
        print_table(
            "E4: relevance detection — document scan vs F-guide vs column plan",
            [
                "n_hotels",
                "doc_nodes",
                "guide_nodes",
                "calls",
                "doc_ms",
                "guide_ms",
                "speedup",
                "plan_ms",
                "plan_speedup",
            ],
            rows,
        )
    # Compactness: the guide stays tiny while the document grows.
    assert all(row[2] <= 8 for row in rows)
    # Detection on the guide wins, and the gap grows with size.
    for n in SIZES[1:]:
        doc_time, guide_time = times[n]
        assert guide_time < doc_time
    assert times[SIZES[-1]][0] / times[SIZES[-1]][1] > times[SIZES[0]][0] / max(
        times[SIZES[0]][1], 1e-9
    ) * 0.5  # allow noise, but the large case must not collapse


def test_e4_lpq_guide_equivalence(benchmark):
    """The exact Section 6.2 property, timed at the largest size."""
    from repro.lazy.relevance import linear_path_queries

    wl = workload_of(SIZES[-1])
    document = wl.make_document()
    guide = FGuide(document)
    lpqs = linear_path_queries(paper_query(), dedupe=False)

    def lookup_all():
        out = set()
        for rq in lpqs:
            for node in guide.candidates(
                rq.linear_steps, descendant_tail=rq.descendant_tail
            ):
                out.add(node.node_id)
        return out

    on_guide = benchmark(lookup_all)
    on_doc = set()
    for rq in lpqs:
        for node in Matcher(rq.pattern).evaluate(document).distinct_nodes():
            on_doc.add(node.node_id)
    guide.detach()
    assert on_guide == on_doc
