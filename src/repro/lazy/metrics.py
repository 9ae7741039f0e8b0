"""Evaluation metrics reported by the engine and the experiments."""

from __future__ import annotations

import dataclasses
from typing import Optional


@dataclasses.dataclass
class Metrics:
    """Everything the Section 8 style experiments report on.

    Times:
        * ``analysis_wall_s`` — real time spent in relevance analysis and
          final query evaluation (the local CPU cost of being lazy);
        * ``simulated_sequential_s`` — total simulated service time if
          calls fire one after the other;
        * ``simulated_parallel_s`` — simulated service time with each
          invocation round's calls in flight together (Section 4.4): the
          sum of the rounds' makespans on ``max_concurrency`` workers
          (by default the slowest call of each round), which is also
          what the bus clock advanced by;
        * ``total_time_s`` / ``total_time_parallel_s`` — analysis plus
          service time, the headline numbers of experiment E1.
    """

    strategy: str = ""
    completed: bool = True

    calls_invoked: int = 0
    invocation_rounds: int = 0
    relevance_evaluations: int = 0
    relevance_queries_built: int = 0
    layers: int = 0

    bytes_sent: int = 0
    bytes_received: int = 0

    nodes_materialized: int = 0
    final_document_nodes: int = 0
    result_rows: int = 0
    faults: int = 0
    """Failed invocation attempts (every attempt counts, not just the
    final failure of a retry sequence)."""
    retries: int = 0
    """Re-attempts after a fault (a call that fails twice then succeeds
    contributes two faults and two retries)."""
    backoff_s: float = 0.0
    """Simulated time spent waiting between retry attempts."""
    failed_attempt_time_s: float = 0.0
    """Simulated time burned inside failed attempts (latency + request
    transfer, or the missed timeout deadline)."""
    breaker_trips: int = 0
    """Times a circuit breaker transitioned to OPEN."""
    breaker_short_circuits: int = 0
    """Invocations answered by an open breaker without touching the
    service (nothing shipped, nothing logged)."""
    calls_frozen: int = 0
    """Calls left intensional (``Activation.FROZEN``) after a fault."""
    calls_skipped: int = 0
    """Calls whose subtree the legacy SKIP policy deleted."""
    io_violations: int = 0
    batch_count: int = 0
    """Rounds wider than one call."""
    max_batch_width: int = 0
    """Calls in the widest of them."""
    cache_hits: int = 0
    """Calls answered by the bus's memoization cache (zero simulated
    time, nothing shipped)."""

    analysis_wall_s: float = 0.0
    simulated_sequential_s: float = 0.0
    simulated_parallel_s: float = 0.0

    match_can_checks: int = 0
    match_candidates_visited: int = 0
    relevance_cache_hits: int = 0
    """Relevance retrievals answered from the document store's kept
    per-scope sets — whoever matched the shape last, no splice since
    touched it, so it did not run."""
    queries_reevaluated: int = 0
    """Relevance retrievals that had to run the query, over the whole
    document or on its dirty scopes (``relevance_cache_hits +
    queries_reevaluated = relevance_evaluations``)."""
    relevance_scope_rematches: int = 0
    """Depth-1 document subtrees those re-evaluations matched in place
    of the whole document, summed over queries."""
    arena_nodes: int = 0
    """Live nodes mirrored in the document's arena at teardown (every
    lazy strategy; 0 under ``NAIVE``, which never builds one)."""
    arena_bytes: int = 0
    """Bytes held by the arena's columns and label table (the memory
    side of the struct-of-arrays trade)."""
    column_pass_nodes: int = 0
    """Arena slots the column matcher's slot-space scans touched
    (column matching; the column path's analogue of
    ``match_candidates_visited`` — the two are never mixed, so each
    path's cost stays separately attributable)."""
    column_rows: int = 0
    """Result rows produced entirely in slot space — ``Node`` objects
    were materialised only to render these final rows (column
    matching)."""
    column_fallback_reasons: dict[str, int] = dataclasses.field(
        default_factory=dict
    )
    """Evaluations where the column matcher stood down and the object
    walk answered instead, counted per reason
    (:class:`repro.pattern.columnmatch.StandDown` values:
    ``interior-wildcard``, ``result-in-or``, ``unmirrored-root``,
    ``scope-without-slot``)."""
    maintained_rows: int = 0
    """Result rows served from the maintained answer at final match —
    without a full re-match of the document (answer maintenance)."""
    rows_respliced: int = 0
    """Rows spliced into or out of the maintained answer during this
    evaluation (answer maintenance: added + retracted)."""
    answer_cache_hits: int = 0
    """Final matches answered entirely from the maintained answer — no
    scope was dirty, not even a scoped re-match ran (answer
    maintenance)."""
    answer_scope_rematches: int = 0
    """Depth-1 document subtrees re-matched to bring the maintained
    answer current (answer maintenance)."""

    @property
    def column_fallbacks(self) -> int:
        """Stand-down evaluations, all reasons together."""
        return sum(self.column_fallback_reasons.values())

    @property
    def serial_time_s(self) -> float:
        """Simulated service time on the serial clock (alias of
        ``simulated_sequential_s`` — the E10 experiment's baseline)."""
        return self.simulated_sequential_s

    @property
    def parallel_time_s(self) -> float:
        """Simulated service time under per-round concurrency (alias of
        ``simulated_parallel_s``: sum of round makespans)."""
        return self.simulated_parallel_s

    @property
    def total_time_s(self) -> float:
        return self.analysis_wall_s + self.simulated_sequential_s

    @property
    def total_time_parallel_s(self) -> float:
        return self.analysis_wall_s + self.simulated_parallel_s

    @property
    def total_bytes(self) -> int:
        return self.bytes_sent + self.bytes_received

    def summary(self) -> str:
        text = (
            f"[{self.strategy}] calls={self.calls_invoked} "
            f"rounds={self.invocation_rounds} "
            f"rel-evals={self.relevance_evaluations} "
            f"bytes={self.total_bytes} "
            f"time={self.total_time_s:.3f}s "
            f"(par {self.total_time_parallel_s:.3f}s, "
            f"analysis {self.analysis_wall_s:.3f}s) "
            f"rows={self.result_rows}"
        )
        if self.faults or self.retries or self.breaker_short_circuits:
            text += (
                f" faults={self.faults} retries={self.retries} "
                f"backoff={self.backoff_s:.3f}s "
                f"frozen={self.calls_frozen} skipped={self.calls_skipped} "
                f"breaker-trips={self.breaker_trips}"
                f"/{self.breaker_short_circuits}"
            )
        if self.batch_count or self.cache_hits:
            text += (
                f" batches={self.batch_count} "
                f"width={self.max_batch_width} "
                f"cache-hits={self.cache_hits}"
            )
        if self.relevance_cache_hits or self.queries_reevaluated:
            text += (
                f" rel-cache={self.relevance_cache_hits}"
                f"/{self.queries_reevaluated}"
                f"/{self.relevance_scope_rematches}"
            )
        if self.arena_nodes:
            text += (
                f" arena-nodes={self.arena_nodes} "
                f"arena-bytes={self.arena_bytes}"
            )
        if self.column_pass_nodes or self.column_rows or self.column_fallbacks:
            text += (
                f" col-nodes={self.column_pass_nodes} "
                f"col-rows={self.column_rows} "
                f"col-fallbacks={self.column_fallbacks}"
            )
            if self.column_fallback_reasons:
                text += "(" + ",".join(
                    f"{reason}:{count}"
                    for reason, count in sorted(
                        self.column_fallback_reasons.items()
                    )
                ) + ")"
        if (
            self.maintained_rows
            or self.rows_respliced
            or self.answer_cache_hits
            or self.answer_scope_rematches
        ):
            text += (
                f" ans-rows={self.maintained_rows} "
                f"respliced={self.rows_respliced} "
                f"ans-hits={self.answer_cache_hits} "
                f"scope-rematches={self.answer_scope_rematches}"
            )
        return text


@dataclasses.dataclass
class RoundRecord:
    """One invocation round (for debugging and the E5 experiment)."""

    layer_index: Optional[int]
    calls: tuple[str, ...]
    parallel: bool
    simulated_time_s: float
