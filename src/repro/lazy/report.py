"""Side-by-side strategy comparisons, as the experiments print them.

A convenience for users (and the example scripts): evaluate the same
query under several configurations over fresh copies of a document and
render an aligned table of the metrics the paper reports on.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Iterable, Optional, Sequence, Union

from ..axml.document import Document
from ..obs.profile import format_phase_profile, phase_profile
from ..obs.trace import InMemorySink, Span
from ..pattern.pattern import TreePattern
from ..schema.schema import Schema
from ..services.registry import ServiceBus
from .config import EngineConfig
from .engine import EvaluationOutcome, LazyQueryEvaluator
from .metrics import Metrics


#: The comparison table's columns after ``strategy``: each header with
#: its cell, read off a row's metrics.
COLUMNS: tuple[tuple[str, Callable[[Metrics], object]], ...] = (
    ("calls", lambda m: m.calls_invoked),
    ("rounds", lambda m: m.invocation_rounds),
    ("rel-evals", lambda m: m.relevance_evaluations),
    ("bytes", lambda m: m.total_bytes),
    ("time_s", lambda m: round(m.total_time_s, 3)),
    ("time_par_s", lambda m: round(m.total_time_parallel_s, 3)),
    ("faults", lambda m: m.faults),
    ("retries", lambda m: m.retries),
    ("cache", lambda m: m.cache_hits),
    ("rows", lambda m: m.result_rows),
)


@dataclasses.dataclass
class ComparisonRow:
    """One strategy's outcome in a comparison."""

    label: str
    outcome: EvaluationOutcome


def compare_strategies(
    configs: Sequence[EngineConfig],
    query: TreePattern,
    document_factory: Callable[[], Document],
    bus_factory: Callable[[], ServiceBus],
    schema: Optional[Schema] = None,
    allow_disagreement: bool = False,
) -> list[ComparisonRow]:
    """Evaluate ``query`` under each config over fresh documents.

    Factories (rather than instances) keep the runs independent: each
    configuration gets its own document copy and its own invocation
    log.  Raises if the configurations disagree on the result — they
    never should (the system's core invariant) *unless* faults are in
    play: a frozen call legitimately hides data, and which calls end up
    frozen depends on the strategy's invocation order.  Fault-injection
    comparisons pass ``allow_disagreement=True``.
    """
    rows: list[ComparisonRow] = []
    reference: Optional[set] = None
    for config in configs:
        engine = LazyQueryEvaluator(bus_factory(), schema=schema, config=config)
        outcome = engine.evaluate(query, document_factory())
        if reference is None:
            reference = outcome.value_rows()
        elif outcome.value_rows() != reference and not allow_disagreement:
            raise AssertionError(
                f"strategy {config.label!r} disagrees on the result "
                f"({len(outcome.value_rows())} vs {len(reference)} rows)"
            )
        rows.append(ComparisonRow(label=config.label, outcome=outcome))
    return rows


def format_trace_profile(
    trace: Union[InMemorySink, Iterable[Span]],
    title: str = "phase profile",
) -> str:
    """Per-phase breakdown of a trace, as an aligned plain-text table.

    Accepts the :class:`~repro.obs.InMemorySink` an evaluation wrote to
    (or its root spans directly) and renders exclusive wall/simulated
    time per phase — where a round's time went: relevance analysis,
    satisfiability, invocation, final match.
    """
    roots = trace.roots if isinstance(trace, InMemorySink) else list(trace)
    return format_phase_profile(phase_profile(roots), title=title)


def format_comparison(rows: Sequence[ComparisonRow], title: str = "") -> str:
    """Render comparison rows as an aligned plain-text table."""
    headers = ("strategy", *(header for header, _ in COLUMNS))
    table = [headers] + [
        (row.label, *(str(cell(row.outcome.metrics)) for _, cell in COLUMNS))
        for row in rows
    ]
    widths = [max(len(line[i]) for line in table) for i in range(len(headers))]
    lines = []
    if title:
        lines.append(f"== {title} ==")
    header = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    lines.append(header)
    lines.append("-" * len(header))
    for line in table[1:]:
        lines.append("  ".join(c.rjust(w) for c, w in zip(line, widths)))
    return "\n".join(lines)
