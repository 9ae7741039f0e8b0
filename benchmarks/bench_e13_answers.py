"""E13 — delta-driven answer maintenance for continuous queries.

The continuous-query story so far (E11) made the *relevance* side
of a refresh cheap; the *answer* side still re-ran the engine — and the
final full-document match — from scratch on every refresh.  This
experiment regenerates the case for the maintained answer: the
standing query's snapshot result kept per depth-1 subtree as one more
entry of the document's :class:`repro.lazy.incremental.RelevanceStore`
(read through :class:`repro.lazy.answers.AnswerCache`), splices
screened against the query's label footprint, dirty subtrees re-matched
in place, and — when every splice since the last refresh missed the
family's guard footprint — the engine skipped outright.

* **Refresh latency under evolution** (the headline sweep): a hotels
  document receives a stream of updates — mostly insertions disjoint
  from every query's footprint, periodically one genuinely relevant
  mutation (a new qualifying hotel, or a fresh ``getNearbyRestos``
  call that the next refresh must invoke).  Two twin worlds carry the
  same 16 standing queries through the same mutation sequence: one
  refreshes by full re-evaluation (under the ``unmaintained()``
  reference of ``tests/references.py`` — the differential oracle), one
  by answer maintenance.  Every round, every
  query, the two sides must produce identical value rows, and the
  cumulative invocation logs (service, call site, fault — in order)
  must be identical; at 16 queries and full size the maintained side
  must cut total refresh time >= 3x.

The work columns sum the verdicts of each reader's own reads: queries
of one text stand on one answer entry, so ``scope_rematches`` counts a
shared re-match once (at 16 queries over 8 texts, the twin that
refreshes second reads a ``row_hits`` hit).

The tables land in ``BENCH_e13.json`` (see ``bench_harness``); the
headline assertion is re-checked *against the emitted file* so a broken
emitter fails the bench, not just downstream consumers.

Set ``E13_N`` (default 2000) to shrink the document for smoke runs —
the >= 3x assertion only arms at full size.
"""

import os
import random
import time

from bench_harness import print_table, read_bench_json, run_once, unmaintained
from repro.axml.builder import C, E, V
from repro.lazy.config import EngineConfig, Strategy
from repro.lazy.continuous import ContinuousQuery
from repro.lazy.engine import LazyQueryEvaluator
from repro.pattern.parse import parse_pattern
from repro.workloads.hotels import HotelsWorkloadParams, build_hotels_workload

N_HOTELS = int(os.environ.get("E13_N", "2000"))
FULL_SIZE = N_HOTELS >= 2000  # the >= 3x claim is asserted at full size
QUERY_COUNTS = [4, 8, 16]

# Sixteen distinct standing queries over the shared document.  All of
# them are single-root-child patterns (root ``hotels``, one ``hotel``
# chain below it), the regime where maintenance decomposes the answer
# by depth-1 subtree; they differ in depth, predicates and result
# position so their footprints and NFQ families genuinely differ.
QUERY_TEXTS = [
    '/hotels/hotel[name="Best Western"][rating="5"]'
    '/nearby//restaurant[rating="5"]/name/$X',
    '/hotels/hotel[name="Best Western"][rating="5"]'
    '/nearby//restaurant[rating="5"]/address/$X',
    '/hotels/hotel[name="Best Western"]/nearby/museum/name/$X',
    '/hotels/hotel[rating="5"]/name/$X',
    '/hotels/hotel[name="Best Western"]/address/$X',
    '/hotels/hotel/nearby/restaurant[rating="4"]/name/$X',
    '/hotels/hotel[rating="5"]/nearby//museum/address/$X',
    '/hotels/hotel/nearby/restaurant[name][address]/rating/$X',
]


def queries_of(k):
    texts = [QUERY_TEXTS[i % len(QUERY_TEXTS)] for i in range(k)]
    return [
        parse_pattern(text, name=f"standing-{i}")
        for i, text in enumerate(texts)
    ]


EVOLUTION_ROUNDS = 12
RELEVANT_EVERY = 4  # one relevant mutation every K rounds
QUIET_BATCH = 2  # footprint-disjoint insertions per quiet round


def workload_of(n):
    return build_hotels_workload(
        HotelsWorkloadParams(
            n_hotels=n,
            extra_hotels_via_service=0,
            target_hotel_count=12,
            seed=13,
        )
    )


def parking_tree(tag):
    """An update every standing query's guard provably ignores:
    neither ``parking`` nor ``spot`` appears in any footprint."""
    return E("parking", E("spot", V(f"Level {tag}")))


def fresh_hotel(tag):
    """A fully-extensional qualifying hotel: rows of most queries must
    change, so the round exercises the dirty-scope resplice path."""
    return E(
        "hotel",
        E("name", V("Best Western")),
        E("address", V(f"{tag} New Av.")),
        E("rating", V("5")),
        E(
            "nearby",
            E(
                "restaurant",
                E("name", V(f"Cafe {tag}")),
                E("address", V(f"{tag} New Av.")),
                E("rating", V("5")),
            ),
            E("museum", E("name", V(f"Gallery {tag}")), E("address", V("53 St."))),
        ),
    )


def nearby_nodes(document):
    return [
        node
        for node in document.root.iter_subtree()
        if node.is_element and node.label == "nearby"
    ]


def qualifying_nearby(document):
    """The ``nearby`` of a materialised target hotel (name and rating
    extensional and qualifying), so an inserted call is relevant."""
    for hotel in document.root.children:
        if not (hotel.is_element and hotel.label == "hotel"):
            continue
        fields = {c.label: c for c in hotel.children if c.is_element}
        name = fields.get("name")
        rating = fields.get("rating")
        nearby = fields.get("nearby")
        if name is None or rating is None or nearby is None:
            continue
        if not (name.children and name.children[0].label == "Best Western"):
            continue
        if rating.children and rating.children[0].label == "5":
            return nearby
    return None


def mutate_round(rnd, rng, documents):
    """One evolution round, applied identically to both twin documents.

    Positions are chosen by index on the first document and replayed on
    the second — the twins are built and refreshed identically, so the
    index denotes the same spot in both.
    """
    if rnd % RELEVANT_EVERY == 0:
        if rnd % (2 * RELEVANT_EVERY) == 0:
            for document in documents:
                document.insert_subtree(document.root, fresh_hotel(rnd))
        else:
            spots = [qualifying_nearby(document) for document in documents]
            if all(spot is not None for spot in spots):
                for document, spot in zip(documents, spots):
                    document.insert_subtree(
                        spot, C("getNearbyRestos", V("1 Madison Av."))
                    )
            else:  # pragma: no cover - tiny smoke documents only
                for document in documents:
                    document.insert_subtree(document.root, fresh_hotel(rnd))
        return
    choices = [
        rng.randrange(len(nearby_nodes(documents[0])))
        for _ in range(QUIET_BATCH)
    ]
    for document in documents:
        spots = nearby_nodes(document)
        for j, index in enumerate(choices):
            document.insert_subtree(spots[index], parking_tree(f"{rnd}.{j}"))


def invocations(bus):
    return [
        (r.service_name, r.call_node_id, r.fault) for r in bus.log.records
    ]


def standing_set(workload, queries):
    bus = workload.make_bus()
    engine = LazyQueryEvaluator(
        bus,
        schema=workload.schema,
        config=EngineConfig(strategy=Strategy.LAZY_NFQ),
    )
    document = workload.make_document()
    standings = [
        ContinuousQuery(engine, query, document) for query in queries
    ]
    return document, bus, standings


def refresh_all(standings):
    start = time.perf_counter()
    outcomes = [standing.refresh() for standing in standings]
    return time.perf_counter() - start, outcomes


def evolution_sweep():
    rows = []
    for k in QUERY_COUNTS:
        wl = workload_of(N_HOTELS)
        queries = queries_of(k)
        # Twin worlds: same documents, same services, same standing
        # queries; only the refresh machinery differs.  The eager
        # construction materialises both identically (untimed).
        with unmaintained():
            full_doc, full_bus, full_set = standing_set(wl, queries)
        kept_doc, kept_bus, kept_set = standing_set(wl, queries)
        assert invocations(full_bus) == invocations(kept_bus)

        rng = random.Random(7)
        full_time = kept_time = 0.0
        relevant_rounds = 0
        for rnd in range(EVOLUTION_ROUNDS):
            if rnd % RELEVANT_EVERY == 0:
                relevant_rounds += 1
            mutate_round(rnd, rng, (full_doc, kept_doc))
            with unmaintained():
                dt, full_outcomes = refresh_all(full_set)
            full_time += dt
            dt, kept_outcomes = refresh_all(kept_set)
            kept_time += dt
            # Identical answers, every query, every round — and the
            # cumulative invocation logs must agree call by call.
            for i, (full, kept) in enumerate(
                zip(full_outcomes, kept_outcomes)
            ):
                assert kept.value_rows() == full.value_rows(), (k, rnd, i)
            assert invocations(full_bus) == invocations(kept_bus), (k, rnd)

        skips = sum(s.engine_skips for s in kept_set)
        caches = [s.answer_cache for s in kept_set]
        rows.append(
            (
                k,
                EVOLUTION_ROUNDS,
                relevant_rounds,
                skips,
                sum(c.hits for c in caches),
                sum(c.scope_rematches for c in caches),
                full_time * 1000,
                kept_time * 1000,
                round(full_time / max(kept_time, 1e-9), 2),
            )
        )
        for standing in full_set + kept_set:
            standing.close()
    return rows


def test_e13_refresh_latency(benchmark, capsys):
    rows = run_once(benchmark, evolution_sweep)
    with capsys.disabled():
        print_table(
            "E13: maintained vs full-reevaluation refresh under evolution"
            f" (hotels({N_HOTELS}))",
            [
                "queries",
                "rounds",
                "relevant",
                "engine_skips",
                "row_hits",
                "scope_rematches",
                "full_ms",
                "maintained_ms",
                "speedup",
            ],
            rows,
            note="identical rows and invocation order asserted per query per round",
        )
    for row in rows:
        # Quiet rounds must be absorbed without running the engine, and
        # relevant rounds must exercise the resplice path.
        assert row[3] > 0, "screened rounds should skip the engine"
        assert row[5] > 0, "relevant rounds should re-match dirty scopes"
    # The headline, re-checked against the *emitted* JSON so a broken
    # emitter fails here and not in some downstream consumer.
    payload = read_bench_json("e13")
    table = next(
        t for name, t in payload["tables"].items() if "under evolution" in name
    )
    speedup_col = table["headers"].index("speedup")
    k16 = next(r for r in table["rows"] if r[0] == 16)
    if FULL_SIZE:
        assert k16[speedup_col] >= 3.0, k16
        # The gap widens with the standing-query count: maintenance
        # pays more at 16 queries than at 4.
        k4 = next(r for r in table["rows"] if r[0] == 4)
        assert k16[speedup_col] >= k4[speedup_col] * 0.8, (k4, k16)
    else:
        # Smoke sizes still require maintenance to win outright.
        assert k16[speedup_col] > 1.0, k16
