"""The lazy-vs-naive differential harness: the equivalence oracle.

Scheduling and caching are *optimizations*: none of them may change the
full result of a query.  Following the type-projection tradition (an
optimizer is only trustworthy when an equivalence oracle checks it
against the unoptimized path), this harness generates random synthetic
workloads — documents x queries x fault plans — and asserts that

* naive materialisation,
* lazy NFQA,
* lazy NFQA under the concurrent batch scheduler,
* lazy NFQA with the call-result cache, and
* continuous queries with delta-driven answer maintenance, pinned
  against full re-evaluation across random splice sequences

all produce identical ``value_rows()`` — every lazy entry matching
through the document's arena on compiled column plans, the naive one
on the object walk, and every lazy entry's relevance sets kept per
depth-1 scope (``full_relevance()`` is the reference: a whole-document
re-match on every retrieval).  Fault plans are restricted to
the equivalence-*preserving* ones: no faults, transient faults healed
by RETRY, and total outages under FREEZE (every strategy freezes the
same calls, so all of them see the same data).

CI runs this module with ``--hypothesis-profile=ci`` (200 derandomized
examples per property); locally the "dev" profile keeps it fast.
"""

from __future__ import annotations

import random

from hypothesis import given, strategies as st

from repro.lazy.config import EngineConfig, FaultPolicy, Strategy
from repro.lazy.continuous import ContinuousQuery
from repro.lazy.engine import LazyQueryEvaluator
from repro.services.catalog import FailingService, FlakyService
from repro.services.registry import ServiceBus, ServiceRegistry
from repro.services.resilience import RetryPolicy
from repro.workloads.synthetic import SyntheticWorld

from .conftest import full_relevance, object_walk

# The four engine configurations under differential test.  Every entry
# must compute the same full result on every generated workload.
CONFIGS = {
    "naive": dict(strategy=Strategy.NAIVE),
    "lazy": dict(strategy=Strategy.LAZY_NFQ),
    "lazy+concurrent": dict(strategy=Strategy.LAZY_NFQ, max_concurrency=8),
    "lazy+cache": dict(strategy=Strategy.LAZY_NFQ, call_cache=True),
}

# Equivalence-preserving fault plans: (registry wrapper, config overrides).
FAULT_PLANS = ("none", "transient", "permanent")


def _wrapped_registry(world: SyntheticWorld, plan: str) -> ServiceRegistry:
    base = world.registry()
    if plan == "none":
        return base
    if plan == "transient":
        # Each service fails exactly once, then heals: RETRY makes every
        # strategy converge to the fault-free result.
        return ServiceRegistry(
            FailingService(name, base.resolve(name), failures=1)
            for name in base.names()
        )
    # "permanent": a total outage — every invocation faults, every
    # strategy freezes every call it tries, so all of them are left
    # querying exactly the extensional part of the document.
    return ServiceRegistry(
        FlakyService(base.resolve(name), fault_rate=1.0, seed=world.seed + i)
        for i, name in enumerate(base.names())
    )


def _plan_config(plan: str) -> dict:
    if plan == "none":
        return {}
    if plan == "transient":
        return dict(
            fault_policy=FaultPolicy.RETRY,
            retry=RetryPolicy(max_attempts=3, base_backoff_s=0.01),
        )
    return dict(fault_policy=FaultPolicy.FREEZE)


def evaluate_config(
    world: SyntheticWorld, doc_seed: int, query, plan: str, **config_kwargs
):
    """One full evaluation on a fresh bus/registry/document."""
    bus = ServiceBus(_wrapped_registry(world, plan))
    config = EngineConfig(**{**_plan_config(plan), **config_kwargs})
    engine = LazyQueryEvaluator(bus, config=config)
    return engine.evaluate(query, world.make_document(doc_seed))


@given(
    world_seed=st.integers(min_value=0, max_value=10_000),
    doc_seed=st.integers(min_value=0, max_value=50),
    plan=st.sampled_from(FAULT_PLANS),
)
def test_all_configurations_agree(world_seed, doc_seed, plan):
    """The oracle: all four configurations, identical value rows."""
    world = SyntheticWorld(seed=world_seed)
    query = world.sample_query(world.make_document(doc_seed), doc_seed)
    results = {
        label: evaluate_config(world, doc_seed, query, plan, **kwargs)
        for label, kwargs in CONFIGS.items()
    }
    reference = results["naive"].value_rows()
    for label, outcome in results.items():
        assert outcome.value_rows() == reference, (
            f"{label!r} disagrees with naive under fault plan {plan!r}"
        )


@given(
    world_seed=st.integers(min_value=0, max_value=10_000),
    doc_seed=st.integers(min_value=0, max_value=30),
)
def test_concurrency_and_cache_compose(world_seed, doc_seed):
    """Scheduler and cache stacked (and across lazy strategies) still
    match the serial, uncached result."""
    world = SyntheticWorld(seed=world_seed)
    query = world.sample_query(world.make_document(doc_seed), doc_seed)
    reference = evaluate_config(
        world, doc_seed, query, "none", strategy=Strategy.LAZY_NFQ
    ).value_rows()
    for kwargs in (
        dict(strategy=Strategy.LAZY_NFQ, max_concurrency=8, call_cache=True),
        dict(strategy=Strategy.LAZY_NFQ, max_concurrency=2),
        dict(strategy=Strategy.LAZY_LPQ, max_concurrency=4, call_cache=True),
        dict(
            strategy=Strategy.LAZY_NFQ,
            use_layers=False,
            max_concurrency=8,
            call_cache=True,
        ),
    ):
        outcome = evaluate_config(world, doc_seed, query, "none", **kwargs)
        assert outcome.value_rows() == reference, kwargs


@given(
    world_seed=st.integers(min_value=0, max_value=5_000),
    doc_seed=st.integers(min_value=0, max_value=20),
)
def test_concurrent_clock_never_exceeds_serial(world_seed, doc_seed):
    """The scheduler only ever *shrinks* the simulated parallel clock:
    makespan <= sum, per round and in total."""
    world = SyntheticWorld(seed=world_seed)
    query = world.sample_query(world.make_document(doc_seed), doc_seed)
    outcome = evaluate_config(
        world, doc_seed, query, "none",
        strategy=Strategy.LAZY_NFQ, max_concurrency=8,
    )
    eps = 1e-9
    assert (
        outcome.metrics.parallel_time_s
        <= outcome.metrics.serial_time_s + eps
    )
    # And per round: a batch's makespan never exceeds its width times
    # the longest call, nor does the round report negative time.
    for record in outcome.rounds:
        assert 0.0 <= record.simulated_time_s <= (
            outcome.metrics.serial_time_s + eps
        )


@given(
    world_seed=st.integers(min_value=0, max_value=10_000),
    doc_seed=st.integers(min_value=0, max_value=50),
    plan=st.sampled_from(FAULT_PLANS),
)
def test_incremental_matches_full_reevaluation(world_seed, doc_seed, plan):
    """Per-scope relevance upkeep is invisible: same rows, same
    invocation sequence (services *and* call sites, in order), same
    relevant-call set as whole-document re-matching — across random
    workloads and fault plans."""
    world = SyntheticWorld(seed=world_seed)
    query = world.sample_query(world.make_document(doc_seed), doc_seed)

    def run():
        bus = ServiceBus(_wrapped_registry(world, plan))
        config = EngineConfig(
            strategy=Strategy.LAZY_NFQ, **_plan_config(plan)
        )
        engine = LazyQueryEvaluator(bus, config=config)
        outcome = engine.evaluate(query, world.make_document(doc_seed))
        # Documents are rebuilt identically, so node ids line up and
        # the invocation log is comparable call site by call site.
        log = [
            (r.service_name, r.call_node_id, r.fault)
            for r in bus.log.records
        ]
        return outcome, log

    with full_relevance():
        full, full_log = run()
    inc, inc_log = run()
    assert inc.value_rows() == full.value_rows()
    assert inc_log == full_log
    for metrics in (inc.metrics, full.metrics):
        assert (
            metrics.relevance_cache_hits + metrics.queries_reevaluated
            == metrics.relevance_evaluations
        )
    assert full.metrics.relevance_scope_rematches == 0
    assert full.metrics.calls_invoked == metrics.calls_invoked
    assert full.metrics.calls_frozen == metrics.calls_frozen


def test_cache_hits_are_free_and_correct():
    """A deterministic spot check the random oracle implies: duplicate
    calls hit the cache, cost zero simulated time, same rows."""
    from repro.workloads.chains import build_chain_workload

    workload = build_chain_workload(depth=4, width=6, distinct_keys=2)

    def run(**kwargs):
        bus = ServiceBus(workload.registry)
        engine = LazyQueryEvaluator(
            bus, schema=workload.schema, config=EngineConfig(**kwargs)
        )
        return engine.evaluate(workload.query, workload.make_document()), bus

    plain, plain_bus = run(strategy=Strategy.LAZY_NFQ)
    cached, cached_bus = run(strategy=Strategy.LAZY_NFQ, call_cache=True)
    assert cached.value_rows() == plain.value_rows()
    assert cached.metrics.cache_hits > 0
    # On the one clock a hit in a wide round does not shorten the round
    # (its slowest call still sets the makespan); what a hit saves is
    # the service time no longer spent, whatever the width.
    assert (
        cached.metrics.simulated_sequential_s
        < plain.metrics.simulated_sequential_s
    )
    assert cached_bus.clock_s <= plain_bus.clock_s
    serial, serial_bus = run(strategy=Strategy.LAZY_NFQ, max_concurrency=1)
    cached1, cached1_bus = run(
        strategy=Strategy.LAZY_NFQ, max_concurrency=1, call_cache=True
    )
    assert cached1.value_rows() == serial.value_rows()
    assert cached1_bus.clock_s < serial_bus.clock_s
    assert cached_bus.cache is not None and cached_bus.cache.hits > 0


# -- delta-driven answer maintenance ------------------------------------------

# The orthogonal engine axes answer maintenance must stay invisible
# under: alone, on the call cache, and under the batch scheduler.
MAINTENANCE_AXES = (
    dict(),
    dict(call_cache=True),
    dict(max_concurrency=4, call_cache=True),
)


def _spot_path(rng: random.Random, document) -> list[int]:
    """A structural path (child indices) to a random element node.

    Paths are replayed by index on the twin document, which is built
    and mutated identically — structural addressing keeps the two
    mutation sequences byte-identical without sharing node objects.
    """
    node, path = document.root, []
    while True:
        elements = [
            (i, c) for i, c in enumerate(node.children) if c.is_element
        ]
        if not elements or rng.random() < 0.5:
            return path
        index, node = rng.choice(elements)
        path.append(index)


def _node_at(document, path: list[int]):
    node = document.root
    for index in path:
        node = node.children[index]
    return node


def _apply_mutation(world, rng_seed: str, step: int, documents) -> None:
    """One random splice, replayed identically on every document."""
    rng = random.Random(f"{rng_seed}|{step}")
    kind = rng.choice(("insert", "insert", "insert-call", "remove"))
    path = _spot_path(rng, documents[0])
    if kind == "remove" and path:
        for document in documents:
            document.remove_subtree(_node_at(document, path))
        return
    if kind == "insert-call":
        name = rng.choice(world.service_names)
        key = f"1:mut-{step}-{rng.randint(0, 9999)}"
        from repro.axml.builder import C, V

        subtree = C(name, V(key))
    else:
        subtree = world._random_tree(
            rng, depth=2, call_budget=1, salt=f"mut-{step}"
        )
    for document in documents:
        document.insert_subtree(_node_at(document, path), subtree.clone())


@given(
    world_seed=st.integers(min_value=0, max_value=10_000),
    doc_seed=st.integers(min_value=0, max_value=30),
    mutation_seed=st.integers(min_value=0, max_value=500),
    n_mutations=st.integers(min_value=1, max_value=4),
    axis=st.sampled_from(MAINTENANCE_AXES),
    plan=st.sampled_from(FAULT_PLANS),
)
def test_maintained_answers_match_full_reevaluation(
    world_seed, doc_seed, mutation_seed, n_mutations, axis, plan
):
    """Answer maintenance is invisible: a standing query refreshed
    through random splice sequences returns the same value rows, in the
    same invocation order (services, call sites *and* faults), as its
    twin that re-evaluates in full on every refresh — across engine
    axes and fault plans.  A third twin is maintained under
    ``full_relevance()``: the one reference seam makes its answer a
    whole pass per touched refresh too, and nothing else may move."""
    world = SyntheticWorld(seed=world_seed)
    query = world.sample_query(world.make_document(doc_seed), doc_seed)

    def standing(maintain: bool):
        bus = ServiceBus(_wrapped_registry(world, plan))
        config = EngineConfig(
            strategy=Strategy.LAZY_NFQ,
            maintain_answers=maintain,
            **{**_plan_config(plan), **axis},
        )
        engine = LazyQueryEvaluator(bus, config=config)
        return (
            ContinuousQuery(engine, query, world.make_document(doc_seed)),
            bus,
        )

    maintained, m_bus = standing(maintain=True)
    oracle, o_bus = standing(maintain=False)
    with full_relevance():
        whole, w_bus = standing(maintain=True)
    assert maintained.answer_cache is not None

    def logs(bus):
        return [
            (r.service_name, r.call_node_id, r.fault)
            for r in bus.log.records
        ]

    seed_text = f"{world_seed}|{doc_seed}|{mutation_seed}"
    for step in range(n_mutations):
        _apply_mutation(
            world,
            seed_text,
            step,
            (maintained.document, oracle.document, whole.document),
        )
        kept = maintained.refresh()
        full = oracle.refresh()
        with full_relevance():
            reference = whole.refresh()
        assert kept.value_rows() == full.value_rows(), f"step {step}"
        assert reference.value_rows() == full.value_rows(), f"step {step}"
        # The cumulative logs pin invocation behaviour exactly: same
        # services, same call sites, same faults, same order.  (Per-
        # refresh metrics are deliberately not compared: a skip-engine
        # refresh returns the cached outcome, whose metrics describe
        # the evaluation that produced it.)
        assert logs(m_bus) == logs(o_bus), f"step {step}"
        assert logs(w_bus) == logs(o_bus), f"step {step}"
    assert whole.answer_cache.scope_rematches == 0
    for query in (maintained, oracle, whole):
        query.close()


# ---------------------------------------------------------------------------
# Factory-driven regimes: the hostile scenarios, fuzz-sized
# ---------------------------------------------------------------------------

from repro.workloads.factory import fuzz_spec, generate  # noqa: E402

# Regimes whose hostile *shape* survives fuzz-sizing (fault-plan regimes
# are covered by the plan axis above; serving regimes live in
# test_serve_differential).
FUZZ_REGIMES = (
    "baseline",
    "deep-recursion",
    "wide-flat",
    "bindings-push",
    "cache-flood",
    "multi-root-standing",
)

def _factory_log(bus: ServiceBus):
    return [
        (r.service_name, r.call_node_id, r.fault) for r in bus.log.records
    ]


@given(
    name=st.sampled_from(FUZZ_REGIMES),
    seed=st.integers(min_value=0, max_value=5_000),
)
def test_factory_regimes_agree_with_naive(name, seed):
    """Every engine configuration, pinned to the naive oracle on every
    query of a factory regime — the hostile shapes (recursion, BINDINGS
    pushing, multi-child roots, key floods) included."""
    gen = generate(fuzz_spec(name, seed))
    for qi in range(gen.spec.n_queries):
        query = gen.query_for(qi)
        doc = gen.document_for_query(qi)
        reference = gen.oracle(query, doc).value_rows()
        base_out, base_log = gen.evaluate(
            query, doc, strategy=Strategy.LAZY_NFQ
        )
        assert base_out.value_rows() == reference, (name, qi, "lazy")
        # The column plan is an access path and per-scope upkeep a
        # bookkeeping choice, never an invocation change: the object
        # walk re-matching the whole document on every retrieval
        # replays the exact call sequence.
        with object_walk(), full_relevance():
            _, walk_log = gen.evaluate(query, doc, strategy=Strategy.LAZY_NFQ)
        assert base_log == walk_log, (name, qi, "walk")
        for label, kwargs in CONFIGS.items():
            if label in ("naive", "lazy"):
                continue
            out, _ = gen.evaluate(query, doc, **kwargs)
            assert out.value_rows() == reference, (name, qi, label)


@given(
    name=st.sampled_from(
        ("baseline", "deep-recursion", "multi-root-standing", "bindings-push")
    ),
    seed=st.integers(min_value=0, max_value=2_000),
    n_mutations=st.integers(min_value=1, max_value=3),
)
def test_factory_maintenance_agrees(name, seed, n_mutations):
    """Maintained standing queries over factory mutation traces: same
    rows, same cumulative logs as the unmaintained twin — including the
    multi-child-root regime, where the AnswerCache must survive its
    full-rematch fallback."""
    gen = generate(fuzz_spec(name, seed))
    query = gen.query_for(0)

    def standing(maintain: bool):
        bus = ServiceBus(gen.registry())
        config = gen.engine_config(
            strategy=Strategy.LAZY_NFQ, maintain_answers=maintain
        )
        engine = LazyQueryEvaluator(bus, config=config)
        return ContinuousQuery(engine, query, gen.make_document(0)), bus

    kept, kept_bus = standing(True)
    full, full_bus = standing(False)
    if name == "multi-root-standing" and kept.answer_cache is not None:
        assert kept.answer_cache.scoped is False
    for step in range(n_mutations):
        gen.apply_mutation(str(step), (kept.document, full.document))
        assert (
            kept.refresh().value_rows() == full.refresh().value_rows()
        ), (name, step)
        assert _factory_log(kept_bus) == _factory_log(full_bus), (name, step)
    kept.close()
    full.close()
