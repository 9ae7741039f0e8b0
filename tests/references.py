"""The reference seams the engine is held to — one home for tests and
benchmarks alike.

Each context manager patches one production rule back to the plain,
obviously-correct computation it replaces.  None is a setting: the
program has no switch for any of them, so an oracle twin is the same
engine run inside the patch.  The patches are on classes, so they
reach every engine built or refreshed while the context is open.
:func:`touches_by_walk` is the one plain function: the node walk a
splice signature replaced, which properties hold the signature to.
"""

from __future__ import annotations

import contextlib
from unittest import mock

from repro.axml.document import Document, SpliceDelta
from repro.lazy.answers import AnswerCache
from repro.lazy import relevance
from repro.lazy.engine import _EvaluationState
from repro.lazy.incremental import LabelFootprint, Read, RelevanceStore, Verdict
from repro.pattern.columnmatch import ColumnMatcher


def object_walk():
    """Replaces *a mirrored root with a compiled plan runs the column
    plan*: no document hands out an arena, so every matcher is built
    without one and runs the object walk — the seam ``NAIVE`` uses,
    widened to every strategy."""
    return mock.patch.object(Document, "arena", None)


def unanchored():
    """Replaces *a whole run of a relevance query starts from the
    calls*: no run builds an anchor set, so every step's candidates
    come from the top-down scans over the whole subtree."""
    return mock.patch.object(
        ColumnMatcher, "_anchor_set", lambda self, root_slot: None
    )


def full_relevance():
    """Replaces *per-scope relevance upkeep*: the document's store
    judges every read "only a whole pass will do", so every relevance
    retrieval re-matches the whole document."""
    return mock.patch.object(
        RelevanceStore,
        "_judge",
        lambda self, entry, most, outer: (Verdict.WHOLE, None),
    )


def isolated_relevance():
    """Replaces *the relevance store is the document's*: every
    ``RelevanceStore.of`` hands out a private store, so each engine run
    seeds its own and drops it and nothing crosses consumers."""
    return mock.patch.object(
        RelevanceStore, "of", classmethod(lambda cls, document: cls(document))
    )


def undeduplicated():
    """Replaces *relevance families are de-duplicated* (Section 4.1's
    containment-based multi-query optimisation): the family builders'
    de-duplication is the identity, so every LPQ / NFQ family an
    analysis builds lists one query per target, subsumed ones
    included — the ablation E7 measures."""
    return mock.patch.object(relevance, "_dedupe", list)


def just_in_case():
    """Replaces *exact rounds* (``_EvaluationState._choose``): every
    round fires every relevant call — Section 4.4's closing remark,
    "calling functions in parallel just in case".  Not exact (a call may
    stop being relevant once a sibling answers), so not a rule of the
    engine.  Its rounds are tagged ``just-in-case``; under
    ``use_layers=False`` a run is one pseudo-layer fired whole each
    round."""
    return mock.patch.object(
        _EvaluationState,
        "_choose",
        lambda self, layer, relevant: (set(relevant), "just-in-case", None),
    )


def touches_by_walk(footprint: LabelFootprint, delta: SpliceDelta) -> bool:
    """Replaces *one signature per splice*
    (:class:`~repro.lazy.incremental.SpliceSignature`): every node the
    splice added or removed, as its subtrees stand now, put to
    ``footprint.touches_node`` one by one — a removed root under the
    delta's parent."""
    for root in delta.added:
        for node in root.iter_subtree():
            if footprint.touches_node(node, node.parent):
                return True
    for root in delta.removed:
        if footprint.touches_node(root, delta.parent):
            return True
        for node in root.iter_subtree():
            if node is not root and footprint.touches_node(node, node.parent):
                return True
    return False


def _whole_read(cache: AnswerCache) -> Read:
    cache.full_matches += 1
    return Read(cache.matcher.evaluate(cache.document).rows, Verdict.WHOLE)


@contextlib.contextmanager
def unmaintained():
    """Replaces *answer maintenance* (``AnswerCache``): a standing query
    is never provably current without the engine (no guard skip), and
    its one answer read is a whole-document match every time, with the
    verdict ``whole`` — the full re-evaluation maintenance is held to.
    The refresh still drops the memoized replies of re-asked services,
    as every refresh does."""
    with mock.patch.object(AnswerCache, "is_current", False), mock.patch.object(
        AnswerCache, "read", _whole_read
    ):
        yield
