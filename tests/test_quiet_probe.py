"""The quiet probe against the run it stands for.

``LazyQueryEvaluator.is_quiet`` is the evaluation's own layer loop
stopped at the first call it would invoke.  The contract: after any
interleaving of replies, inserts, removals, freezes and engine
refreshes, its verdict equals "``evaluate`` on a structurally equal
twin logs no invocation" — under every lazy strategy, un-layered
NFQA, a push mode and lenient typing (the probe's analysis is the
shared typed one, learning names as calls arrive; the twin builds its
own) — and taking it leaves the document, its
version, the bus log and the bus clock where they were.
"""

from __future__ import annotations

import dataclasses
import random

from hypothesis import given, settings, strategies as st

from repro.axml.builder import build_document
from repro.axml.node import Activation
from repro.axml.xmlio import serialize_document
from repro.lazy import analysis as analyses
from repro.lazy.config import EngineConfig, Strategy
from repro.lazy.continuous import ContinuousQuery
from repro.lazy.engine import LazyQueryEvaluator
from repro.workloads.factory import fuzz_spec, generate

REGIMES = (
    "baseline",
    "deep-recursion",
    "wide-flat",
    "cache-flood",
    "multi-root-standing",
)
AXES = {
    "nfq": dict(strategy=Strategy.LAZY_NFQ),
    "lpq": dict(strategy=Strategy.LAZY_LPQ),
    "top-down": dict(strategy=Strategy.LAZY_LPQ, use_layers=False, parallel=False),
    "unlayered": dict(strategy=Strategy.LAZY_NFQ, use_layers=False),
    "bindings": dict(strategy=Strategy.LAZY_NFQ, push_mode="bindings"),
    "typed": dict(strategy=Strategy.LAZY_NFQ, typing="lenient"),
}
STEPS = (
    "reply",  # one call answered in place, as an engine round would
    "mutate",  # a factory insert (data or a call) or removal
    "freeze",
    "refresh",  # the standing query's engine run: seeds the store
    "rebuild",  # the standing query closes and a new one opens
)


def _frozen(document):
    return [
        n.node_id
        for n in document.function_nodes()
        if n.activation is Activation.FROZEN
    ]


def _untouchables(document, bus):
    """What a probe must leave exactly where it was."""
    return (
        document.version,
        serialize_document(document),
        _frozen(document),
        len(document._observers),
        document.relevance,
        len(bus.log.records),
        bus.clock_s,
    )


def _twin_invokes(gen, config, query, document) -> bool:
    """Would ``evaluate`` invoke anything?  Asked of a structurally
    equal twin (activations included) on a bus of its own."""
    bus = gen.make_bus()
    LazyQueryEvaluator(bus, config=config).evaluate(
        query.clone(), build_document(document.root.clone())
    )
    return bool(bus.log.records)


def _trace(name, seed, axis, query_index, steps, standing):
    gen = generate(
        dataclasses.replace(fuzz_spec(name, seed), root_subtrees=(3, 5))
    )
    rng = random.Random(f"{name}|{seed}|{axis}|probe")
    config = EngineConfig(fault_policy="freeze", **AXES[axis])
    query = gen.query_for(query_index)
    document = gen.make_document(gen.document_for_query(query_index))
    document.arena  # the document's own mirror, built on first use
    bus = gen.make_bus()
    engine = LazyQueryEvaluator(bus, config=config)
    # A standing query keeps the analysis's store entries between
    # probes (the server's case); without one every probe holds the
    # store for itself and lets it go.
    core = ContinuousQuery(engine, query, document, eager=False) if standing else None
    analysis = core.analysis if standing else engine.acquire(query)
    verdicts = []
    for index, step in enumerate([None, *steps]):
        calls = document.function_nodes()
        if step == "reply" and calls:
            call = rng.choice(calls)
            key = call.children[0].label if call.children else "0:x"
            document.replace_call(call, gen.result_forest(call.label, key))
        elif step == "freeze" and calls:
            rng.choice(calls).activation = Activation.FROZEN
        elif step == "refresh" and standing:
            core.refresh()
        elif step == "rebuild" and standing:
            core.close()
            core = ContinuousQuery(engine, query, document, eager=False)
            analysis = core.analysis
        elif step is not None:
            gen.apply_mutation(f"probe-{index}", (document,))

        before = _untouchables(document, bus)
        quiet = engine.is_quiet(query, document, analysis)
        assert before == _untouchables(document, bus), step
        assert quiet == (not _twin_invokes(gen, config, query, document)), (
            step,
            query.to_string(),
        )
        verdicts.append(quiet)
    if standing:
        core.close()
    else:
        engine.release(analysis)
    assert document.relevance is None and len(analyses._analyses) == 0
    assert document.arena.consistency_errors() == []
    return verdicts


@settings(deadline=None)
@given(
    name=st.sampled_from(REGIMES),
    seed=st.integers(min_value=0, max_value=5_000),
    axis=st.sampled_from(sorted(AXES)),
    query_index=st.integers(min_value=0, max_value=1),
    steps=st.lists(st.sampled_from(STEPS), min_size=3, max_size=10),
    standing=st.booleans(),
)
def test_the_probe_says_what_the_run_would_do(
    name, seed, axis, query_index, steps, standing
):
    _trace(name, seed, axis, query_index, steps, standing)


def test_both_verdicts_occur_under_every_axis():
    """Not vacuous: a fixed trace starts with calls to invoke, goes
    quiet once the engine ran, and stops being quiet again."""
    steps = ["mutate", "refresh", "mutate", "freeze", "mutate", "mutate",
             "reply", "mutate", "refresh", "rebuild", "mutate", "mutate"]
    for axis in AXES:
        seen = set()
        for seed in range(4):
            seen.update(_trace("baseline", seed, axis, 0, steps, True))
        assert seen == {True, False}, axis
