"""The "may influence" relation and the independence condition.

Section 4.2: NFQ ``q_v`` *may influence* ``q_v'`` when invoking a call
retrieved by ``q_v`` can bring new calls into the result of ``q_v'``.
Proposition 3 reduces the test to formal languages — ``q_v`` may
influence ``q_v'`` iff some word in the regular language of
``q_v^lin`` is a prefix of some word in ``q_v'^lin`` — with an immediate
PTIME algorithm: build the automaton of one language and of the
*prefixes* of the other, intersect, test emptiness [16].

Section 4.4: inside one layer, the calls returned by ``q_v`` may all be
invoked in parallel when the **independence condition (*)** holds: for
every other NFQ ``q_v'`` of the layer,
``L(q_v^lin) ∩ L(q_v'^lin) = ∅`` — again a product-automaton emptiness
test.
"""

from __future__ import annotations

from typing import Sequence

from ..schema import automata
from .relevance import RelevanceQuery


class InfluenceAnalyzer:
    """Answers both tests over the queries' position automata
    (:attr:`RelevanceQuery.positions`), caching their prefix closures."""

    def __init__(self, queries: Sequence[RelevanceQuery]) -> None:
        self.queries = list(queries)
        self._prefix_automata: dict[int, automata.NFA] = {}

    def _prefix_automaton(self, query: RelevanceQuery) -> automata.NFA:
        nfa = self._prefix_automata.get(query.target_uid)
        if nfa is None:
            nfa = query.positions.prefix_closed()
            self._prefix_automata[query.target_uid] = nfa
        return nfa

    # -- Proposition 3 --------------------------------------------------------

    def may_influence(
        self, source: RelevanceQuery, sink: RelevanceQuery
    ) -> bool:
        """Can invoking calls found by ``source`` enrich ``sink``'s result?

        True iff some word of ``L(source^lin)`` is a prefix of some word
        of ``L(sink^lin)`` (equal positions included: a call's result is
        spliced at the call's own position, so it can directly contain
        new calls at that very position).
        """
        return automata.languages_intersect(
            source.positions, self._prefix_automaton(sink)
        )

    def influence_edges(self) -> dict[int, set[int]]:
        """The full may-influence digraph over target uids."""
        edges: dict[int, set[int]] = {q.target_uid: set() for q in self.queries}
        for source in self.queries:
            for sink in self.queries:
                if source.target_uid == sink.target_uid:
                    continue
                if self.may_influence(source, sink):
                    edges[source.target_uid].add(sink.target_uid)
        return edges

    # -- condition (*) ------------------------------------------------------------

    def positions_overlap(
        self, left: RelevanceQuery, right: RelevanceQuery
    ) -> bool:
        """Non-emptiness of ``L(left^lin) ∩ L(right^lin)``."""
        return automata.languages_intersect(
            left.positions, right.positions
        )

    def is_independent(
        self, query: RelevanceQuery, layer: Sequence[RelevanceQuery]
    ) -> bool:
        """Condition (*): the query's positions are disjoint from every
        *other* NFQ of its layer, so all its retrieved calls can be fired
        in parallel without ever invoking an irrelevant call."""
        for other in layer:
            if other.target_uid == query.target_uid:
                continue
            if self.positions_overlap(query, other):
                return False
        return True
