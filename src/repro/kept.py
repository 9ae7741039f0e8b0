"""What the process keeps across evaluations — Section 1 makes
relevance detection "a continuous process": the texts
:func:`~repro.axml.xmlio.parse_document` parsed, with the rows each
anchored relevance shape has on a text's pristine document, and the
analyses nobody holds any more (:func:`~repro.lazy.analysis.release`),
each in a :class:`Bounded` table that :func:`forget` empties.  A held
analysis is never among them.  Each
:class:`~repro.services.scheduler.CallCache` bounds its replies with
one more table.
"""

from __future__ import annotations

from typing import Hashable, Optional


class Bounded(dict):
    """At most ``bound`` keys, the least recently put first.  Reads
    (``get``, ``in``) do not touch the order."""

    def __init__(self, bound: int) -> None:
        super().__init__()
        self.bound = bound

    def put(self, key: Hashable, value: object) -> None:
        """Make ``key`` the most recent; evict the least recent while
        over the bound."""
        self.pop(key, None)
        self[key] = value
        while len(self) > self.bound:
            del self[next(iter(self))]

    def take(self, key: Hashable) -> Optional[object]:
        """``key``'s value, no longer kept, or ``None``."""
        return self.pop(key, None)


#: Text -> ``xmlio._Kept`` (node columns, first document's arena
#: columns): about 130 bytes a node, 0.8 MB for the ``oneshot-prune``
#: text, so a few texts a caller alternates between, not a corpus.
texts = Bounded(4)
#: Relevance shapes whose pristine rows one kept text keeps (its
#: ``rows`` table, read by ``RelevanceStore`` seeds): a shape's rows
#: are slot ids and bindings, a few KB — the ``oneshot-prune`` mix
#: reads 29 shapes — so 64 keep well under 1 MB beside the text's
#: 0.8 MB, and the rows go with their text.
SHAPES_PER_TEXT = 64
#: Analysis key -> a released ``QueryAnalysis``.  One of the
#: ``oneshot-prune`` benchmark mix holds about 0.13 MB (families,
#: layers, compiled plans, oracle memos), so 16 keep about 2 MB beyond
#: what holders hold: some 5% of that benchmark's ~37 MB peak RSS.
analyses = Bounded(16)


def forget() -> None:
    """Empty both, and every kept text's rows first (held analyses
    stay): the next parse of any text, the next seed of any shape and
    the next acquire of any released key derive afresh."""
    for entry in texts.values():
        entry.rows.clear()
    texts.clear()
    analyses.clear()
