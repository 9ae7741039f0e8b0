"""Per-layer attribution for the traced run (layer = module name).

Three sources, all outside ``src/``:

* spans the bench records around its own calls into each layer, with the
  program tracer's phase spans adopted underneath (``Tracing``);
* exact counters read off public results (``outcome.metrics``, the
  server's round reports, tenant metrics, answer-cache counters);
* standalone probes of one layer at a time on the workload's own
  documents and relevance families.  Every probe imports and calls its
  target inside a guard: a layer that a later change removes reports
  ``ABSENT`` with a reason instead of failing the benchmark, and every
  probe's rows must equal the object walk's.
"""

from __future__ import annotations

import math
import statistics
import time

import repro

from spans import SpanRecorder

#: Value of a per-layer metric that could not be measured (the reason is
#: printed next to it and stored in the ``--out`` file).
ABSENT = -1.0

#: Program span name -> the metric its self time feeds.
MATCHING_SPANS = (
    "relevance_check", "group_pass", "column_pass", "final_match", "answer_maint",
)
INVOKE_SPANS = ("invocation", "batch", "push")


class TimedService(repro.Service):
    """Times the wrapped service's own body: bench input, to subtract
    from the ``invocation`` self time."""

    def __init__(self, inner, tracing):
        super().__init__(
            inner.name,
            signature=inner.signature,
            latency_s=inner.latency_s,
            supports_push=inner.supports_push,
        )
        self._inner = inner
        self._tracing = tracing

    def produce(self, parameters):
        started = time.perf_counter()
        try:
            return self._inner.produce(parameters)
        finally:
            self._tracing.produce_s += time.perf_counter() - started


class Tracing:
    """What a traced unit threads through a driver: the bench recorder,
    the program tracer (passed via the public ``trace=`` argument), the
    service timing proxy and a splice-counting document observer."""

    def __init__(self):
        self.recorder = SpanRecorder()
        self.sink = repro.InMemorySink()
        self.tracer = repro.Tracer(self.sink)
        self.epoch = time.perf_counter()
        self.produce_s = 0.0
        self.splices = 0
        self.nodes_added = 0
        self.nodes_parsed = 0
        self.calls_present = 0

    def span(self, name):
        return self.recorder.span(name)

    def next_op(self):
        self.recorder.op += 1

    def adopt(self, span):
        """Graft the program spans emitted since the last call under
        the bench span that made the call."""
        roots = self.sink.roots
        self.sink.clear()
        self.recorder.adopt(roots, self.epoch, span)

    def wrap(self, services):
        return [TimedService(service, self) for service in services]

    def observe(self, document):
        self.nodes_parsed += document.root.subtree_size()
        self.calls_present += len(document.function_nodes())
        document.add_observer(self)

    # DocumentObserver protocol
    def call_removed(self, document, node):
        pass

    def calls_added(self, document, nodes):
        self.calls_present += len(nodes)

    def splice(self, document, delta):
        self.splices += 1
        self.nodes_added += sum(1 for _ in delta.iter_added())


# -- probes -----------------------------------------------------------------------


def _timed(fn, *args, **kwargs):
    started = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - started, result


def _guarded(probe, names, values, reasons):
    """Run one probe; a missing layer marks its metrics ``ABSENT``."""
    try:
        values.update(probe())
    except (ImportError, AttributeError, TypeError) as error:
        for name in names:
            values[name] = ABSENT
            reasons[name] = f"layer-absent: {type(error).__name__}: {error}"


def _row_keys(match_set):
    return sorted(repro.MatchSet.row_key(row) for row in match_set)


def _families(pairs):
    """``(document, {member key: pattern})`` per completed document: the
    query itself plus its NFQ relevance family."""
    out = []
    build_s = layers_s = 0.0
    for text, document in pairs:
        query = repro.parse_pattern(text)
        spent, family = _timed(repro.build_nfqs, query)
        build_s += spent
        spent, _ = _timed(repro.compute_layers, family)
        layers_s += spent
        members = {"query": query}
        members.update({f"nfq-{rq.target_uid}": rq.pattern for rq in family})
        out.append((document, members))
    return out, build_s, layers_s


def probe_matching(pairs, values, reasons, mismatches):
    """The object walk, the shared group pass and the column plan over
    the same documents and pattern families; rows must agree."""
    families, build_s, layers_s = _families(pairs)
    values["relevance.build_s"] = build_s
    values["layers.build_s"] = layers_s
    walk_rows = {}

    def walk():
        from repro.pattern.match import MatchCounter

        counter = MatchCounter()
        spent = rows = 0.0
        for index, (document, members) in enumerate(families):
            for key, pattern in members.items():
                matcher = repro.Matcher(pattern, counter=counter)
                took, match_set = _timed(matcher.evaluate, document)
                spent += took
                rows += len(match_set)
                walk_rows[index, key] = _row_keys(match_set)
        visited = counter.candidates_visited
        return {
            "match.walk_s": spent,
            "match.rows_per_kcandidate": 1000.0 * rows / visited if visited else 0.0,
        }

    def group():
        from repro.pattern.multimatch import PatternGroup

        spent = 0.0
        for index, (document, members) in enumerate(families):
            took, result = _timed(PatternGroup(members).evaluate, document)
            spent += took
            for key in members:
                if _row_keys(result.match_sets[key]) != walk_rows[index, key]:
                    mismatches.append(f"group pass != walk on member {key}")
        return {"multimatch.probe_pass_s": spent}

    def column():
        from repro.axml.arena import DocumentArena
        from repro.pattern.columnmatch import compile_plan
        from repro.pattern.match import MatchCounter

        counter = MatchCounter()
        compile_s = pass_s = 0.0
        attempts = 0
        for index, (document, members) in enumerate(families):
            arena = DocumentArena(document)
            try:
                for key, pattern in members.items():
                    attempts += 1
                    took, _ = _timed(compile_plan, pattern)
                    compile_s += took
                    stood_down = counter.column_fallbacks
                    matcher = repro.Matcher(
                        pattern, counter=counter, arena=arena, column_match=True
                    )
                    took, match_set = _timed(matcher.evaluate, document)
                    if counter.column_fallbacks == stood_down:
                        pass_s += took
                    if _row_keys(match_set) != walk_rows[index, key]:
                        mismatches.append(f"column plan != walk on member {key}")
            finally:
                arena.detach()
        out = {
            "columnmatch.compile_s": compile_s,
            "columnmatch.probe_pass_s": pass_s,
            "columnmatch.nodes_scanned": counter.column_pass_nodes,
            "columnmatch.fallback_ratio": counter.column_fallbacks / attempts,
        }
        if counter.column_fallbacks == attempts:
            out["columnmatch.probe_pass_s"] = ABSENT
            reasons["columnmatch.probe_pass_s"] = "stood-down: no member compiled"
        return out

    def answers():
        from repro.lazy.answers import AnswerCache

        spent = 0.0
        for document, members in families:
            cache = AnswerCache(members["query"], document)
            try:
                took, _ = _timed(cache.rows)
                spent += took
            finally:
                cache.detach()
        return {"answers.seed_s": spent}

    _guarded(walk, ("match.walk_s", "match.rows_per_kcandidate"), values, reasons)
    if walk_rows:
        _guarded(group, ("multimatch.probe_pass_s",), values, reasons)
        _guarded(
            column,
            (
                "columnmatch.compile_s",
                "columnmatch.probe_pass_s",
                "columnmatch.nodes_scanned",
                "columnmatch.fallback_ratio",
            ),
            values,
            reasons,
        )
    _guarded(answers, ("answers.seed_s",), values, reasons)


def probe_structures(inputs, values, reasons, mismatches):
    """Build cost of each document mirror, and the upkeep each adds to a
    splice: every call of the input document is replaced by its own
    service result, once bare and once per attached mirror."""
    services = {service.name: service for service in inputs.services}

    def replay(attach):
        document = repro.parse_document(inputs.xml)
        build_s, mirror = _timed(attach, document) if attach else (0.0, None)
        splice_s = 0.0
        calls = document.function_nodes()
        for call in calls:
            forest = services[call.label].produce(call.children)
            took, _ = _timed(document.replace_call, call, forest)
            splice_s += took
        per_splice_us = 1e6 * splice_s / len(calls) if calls else 0.0
        return build_s, per_splice_us, mirror, document

    def bare():
        return {"document.splice_us": replay(None)[1]}

    def index():
        from repro.axml.index import LabelIndex

        build_s, splice_us, mirror, _ = replay(LabelIndex)
        mirror.detach()
        return {"index.build_s": build_s, "index.splice_us": splice_us}

    def arena():
        from repro.axml.arena import DocumentArena

        build_s, splice_us, mirror, document = replay(DocumentArena)
        errors = len(mirror.consistency_errors())
        mirror.detach()
        return {
            "arena.build_s": build_s,
            "arena.splice_us": splice_us,
            "arena.bytes_per_node": mirror.column_bytes() / max(mirror.live_nodes, 1),
            "arena.consistency_errors": errors,
        }

    def fguide():
        build_s, splice_us, mirror, _ = replay(repro.FGuide)
        mirror.detach()
        return {
            "fguide.build_s": build_s,
            "fguide.splice_us": splice_us,
            "fguide.nodes": mirror.size(),
        }

    _guarded(bare, ("document.splice_us",), values, reasons)
    _guarded(index, ("index.build_s", "index.splice_us"), values, reasons)
    _guarded(
        arena,
        ("arena.build_s", "arena.splice_us", "arena.bytes_per_node", "arena.consistency_errors"),
        values,
        reasons,
    )
    _guarded(fguide, ("fguide.build_s", "fguide.splice_us", "fguide.nodes"), values, reasons)
    if values.get("arena.consistency_errors", 0) > 0:
        mismatches.append("arena columns disagree with the tree after the splice replay")


def at_reference_speed(probed, units_of, factor):
    """Scale the probes' measured times to reference speed; counts,
    ratios and ``ABSENT`` markers pass through."""
    return {
        name: value * factor
        if value != ABSENT and units_of.get(name) in ("s", "us")
        else value
        for name, value in probed.items()
    }


# -- assembling the per-layer table ---------------------------------------------------


def quantile(values, q):
    """Nearest-rank empirical quantile; 0.0 when there is no sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def _metric_sum(samples, field):
    return sum(
        getattr(metrics, field, 0) for sample in samples for metrics in sample.metrics
    )


def layer_metrics(tracing, traced, untraced, sessions, units, factor):
    """Everything the traced units measured, per traced unit.

    ``traced``/``untraced`` are the samples of the traced and untraced
    units, ``sessions`` the serving driver's per-session stats (empty
    for one-shot workloads), ``units`` the number of traced units and
    ``factor`` takes a time summed over the section to reference speed.
    """
    self_s, _ = tracing.recorder.self_times()

    def own(*names):
        return factor * sum(self_s.get(name, 0.0) for name in names) / units

    def total(field):
        return _metric_sum(traced, field) / units

    op_wall = own(*self_s)
    matching = own(*MATCHING_SPANS)
    produce_s = factor * tracing.produce_s / units
    invoking = max(own(*INVOKE_SPANS) - produce_s, 0.0)
    parse_s = own("xmlio.parse")
    calls = total("calls_invoked")
    # Calls the driven documents ever held: the parsed inputs' plus
    # those that service results and mutations brought in.
    present = tracing.calls_present / units
    lookups = total("relevance_cache_hits") + total("queries_reevaluated")
    values = {
        "xmlio.parse_s": parse_s,
        "xmlio.parse_knodes_per_s": (
            tracing.nodes_parsed / units / parse_s / 1000.0 if parse_s else 0.0
        ),
        "document.splices": tracing.splices / units,
        "document.nodes_added": tracing.nodes_added / units,
        "pattern.parse_s": own("pattern.parse"),
        "match.candidates_visited": total("match_candidates_visited"),
        "match.can_checks": total("match_can_checks"),
        "multimatch.pass_s": own("group_pass"),
        "multimatch.nodes_visited": total("group_pass_nodes_visited"),
        "multimatch.projection_skipped": total("projection_skipped_subtrees"),
        "columnmatch.pass_s": own("column_pass"),
        "relevance.queries_built": total("relevance_queries_built"),
        "relevance.evaluations": total("relevance_evaluations"),
        "relevance.check_self_s": own("relevance_check"),
        "relevance.pruned_ratio": 1.0 - calls / present if present else 0.0,
        "layers.count": total("layers"),
        "relcache.lookups": lookups,
        "relcache.hit_ratio": total("relevance_cache_hits") / lookups if lookups else 0.0,
        "engine.rounds": total("invocation_rounds"),
        "engine.analysis_wall_s": factor * total("analysis_wall_s"),
        "engine.round_self_s": own("round", "layer"),
        "engine.final_match_self_s": own("final_match"),
        "engine.setup_self_s": own(
            "evaluate", "satisfiability", "engine.construct", "engine.evaluate", "services.bus"
        ),
        "engine.matching_share": matching / op_wall if op_wall else 0.0,
        "engine.invoke_load_share": (
            (own(*INVOKE_SPANS) + parse_s) / op_wall if op_wall else 0.0
        ),
        "answers.maint_self_s": own("answer_maint"),
        "bus.invocations": calls,
        "bus.invoke_self_s": invoking,
        "bus.bytes_received": total("bytes_received"),
        "bus.faults": total("faults"),
        "services.produce_s": produce_s,
        # Of one unit, not the mean over units: exact for a seed.
        "service_sim_s": sum(s.sim_s for s in traced[: len(traced) // units]),
        "callcache.hit_ratio": (
            total("cache_hits") / (calls + total("cache_hits"))
            if calls + total("cache_hits")
            else 0.0
        ),
        "scheduler.batches": total("batch_count"),
        "serve.self_s": own(
            "serve_round", "serve_refresh", "serve.subscribe", "serve.run_round"
        ),
        "obs.spans": len(tracing.recorder.spans) / units,
        "obs.attributed_ratio": 1.0 - own("op") / op_wall if op_wall else 0.0,
        "obs.speed_factor": factor,
    }
    values.update(_serving_metrics(sessions, untraced))
    traced_wall = statistics.median(_unit_walls(traced, units))
    untraced_wall = statistics.median(_unit_walls(untraced, units))
    values["obs.trace_overhead_ratio"] = (
        traced_wall / untraced_wall if untraced_wall else 0.0
    )
    return values


def _unit_walls(samples, units):
    """Total operation wall per unit (units run the same schedule)."""
    if not samples or not units:
        return [0.0]
    per_unit = len(samples) // units
    return [
        sum(s.wall_s * s.factor for s in samples[start : start + per_unit])
        for start in range(0, per_unit * units, per_unit)
    ]


def _serving_metrics(sessions, untraced):
    """``serve``/``lazy.answers``/stream counters (zero on one-shot
    workloads, which never touch those layers).  Counts come from the
    traced sessions; latencies from the untraced ones."""
    traced = [session for session in sessions if session["traced"]]
    plain = [session for session in sessions if not session["traced"]]
    units = max(len(traced), 1)
    status = {
        name: sum(session["status"].get(name, 0) for session in traced) / units
        for name in ("fresh", "skipped", "maintained", "evaluated", "deferred")
    }
    served = sum(status.values()) - status["deferred"]
    latencies = [ms for session in plain for ms in session["latencies_ms"]]
    if not sessions:
        untraced = []
    subscribes = {}
    for s in untraced:
        if s.evaluation:
            subscribes.setdefault(s.kind, []).append(s.wall_s * s.factor * 1000.0)
    rounds = [
        s.wall_s * s.factor * 1000.0 for s in untraced if not s.evaluation
    ]
    values = {f"serve.status.{name}": count for name, count in status.items()}
    values.update(
        {
            "serve.cheap_ratio": (
                (status["skipped"] + status["maintained"]) / served if served else 0.0
            ),
            "serve.round_p50_ms": quantile(rounds, 0.5),
            # Per query text, then averaged: a repeat subscription of a
            # text costs half a first one, and a plain median over both
            # kinds jumps between them.
            "subscribe_p50_ms": (
                statistics.mean(quantile(v, 0.5) for v in subscribes.values())
                if subscribes
                else 0.0
            ),
            "refresh_p50_ms": quantile(latencies, 0.5),
            "refresh_p95_ms": quantile(latencies, 0.95),
            "refresh_p99_ms": quantile(latencies, 0.99),
            "trace_wall_s": sum(rounds) / 1000.0 / max(len(plain), 1),
            "stream.deltas": sum(s["deltas"] for s in traced) / units,
            "stream.rows_changed": sum(s["rows_changed"] for s in traced) / units,
            "answers.skip_ratio": (
                sum(s["engine_skips"] for s in traced) / units / served if served else 0.0
            ),
        }
    )
    for name in ("screens", "hits", "scope_rematches", "full_matches"):
        values[f"answers.{name}"] = (
            ABSENT
            if any(s["answers"] is None for s in traced)
            else sum(s["answers"].get(name, 0) for s in traced) / units
        )
    return values
