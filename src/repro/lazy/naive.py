"""Baseline strategies: naive materialisation and top-down traversal.

Section 1 rules out two simpler designs that our experiments must still
quantify:

* the **naive** approach "consists in invoking all the calls in the
  document recursively, until a fixpoint is reached, and finally running
  the query over the resulting document";
* the **top-down** approach interleaves query traversal and invocation:
  only calls on paths traversed by the query fire, but the processor
  "would either have to be blocked waiting for call responses, or would
  have to be restarted several times to account for the document
  growth".

The naive driver lives here: it only decides *what* a sweep is — every
call present, in document order — and hands each sweep to the engine's
one dispatch as a round, so naive runs are charged, gated and traced
exactly like lazy ones.  The top-down baseline is no strategy of its
own: it is the LPQ strategy restricted to one sequential call per round
with full re-evaluation (restart) in between — the paper itself notes
the traversed-subtree criterion coincides with path relevance — and is
written out as ``EngineConfig(strategy="lazy-lpq", use_layers=False,
parallel=False)``.
"""

from __future__ import annotations

from typing import Callable

from ..axml.document import Document
from ..axml.node import Activation, Node
from ..obs.trace import ROUND, AnyTracer

InvokeRound = Callable[[list[tuple[Node, frozenset[int]]]], bool]
"""Dispatch one round of ``(call, pushed-query targets)`` pairs; False
when the invocation budget ran out."""


def naive_fixpoint(
    document: Document, invoke_round: InvokeRound, tracer: AnyTracer
) -> None:
    """Invoke every embedded call, recursively, until none remain or the
    budget runs out (AXML documents may be infinite, Section 2).

    Calls of one sweep are one (parallelisable) round and one ``round``
    span; a call consumed as a parameter of an outer call of its sweep
    is gone by its turn, which the dispatch checks.
    """
    while True:
        calls = [
            c
            for c in document.function_nodes()
            if c.activation is not Activation.FROZEN
        ]
        if not calls:
            return
        with tracer.span(ROUND, phase="naive", calls=len(calls)):
            if not invoke_round([(call, frozenset()) for call in calls]):
                return
