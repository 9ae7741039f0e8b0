"""The write path: a reply is measured once at the bus, registered once
at the splice, and nothing constant per evaluation is rebuilt per call.

Everything here pins *behaviour* the single-pass rewrite must keep —
byte and call counts, node-id order, materialised-node accounting on
every way a reply can reach the engine — plus the one thing it changed
on purpose: a forest the document refuses is refused before the first
mutation.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.axml.builder import C, E, V, build_document
from repro.lazy.config import EngineConfig, Strategy
from repro.lazy.engine import LazyQueryEvaluator
from repro.pattern.parse import parse_pattern
from repro.services.catalog import StaticService
from repro.services.registry import ServiceBus, ServiceRegistry
from repro.services.resilience import RetryPolicy
from repro.workloads.chains import build_chain_workload
from repro.workloads.factory import fuzz_spec, generate

from .conftest import SpliceRecorder

# ------------------------------------------------------ failure atomicity


def _snapshot(doc):
    return [
        (n.node_id, n.kind, n.label, n.produced_by, id(n.parent))
        for n in doc.iter_nodes()
    ]


def _spliceable():
    doc = build_document(
        E("root", E("a", C("f", V("p")), E("kept", V("1"))), E("b", V("2")))
    )
    call = doc.function_nodes()[0]
    return doc, call


@pytest.mark.parametrize(
    "bad_forest",
    [
        lambda doc: [E("ok"), doc.root.children[1]],  # attached tree
        lambda doc: [E("ok"), doc.root],  # the (parentless) root itself
        lambda doc: [E("dup")] * 2,  # one tree named twice
    ],
    ids=["attached", "root", "twice"],
)
def test_a_rejected_forest_leaves_document_and_arena_untouched(bad_forest):
    doc, call = _spliceable()
    arena = doc.arena
    recorder = SpliceRecorder(doc)
    before = _snapshot(doc)
    version = doc.version
    with pytest.raises(ValueError):
        doc.replace_call(call, bad_forest(doc))
    assert _snapshot(doc) == before
    assert doc.version == version
    assert recorder.events == []
    assert doc.contains(call) and call.parent.children[0] is call
    assert arena.splices_applied == 0
    assert arena.consistency_errors() == []
    # ... and the document still splices normally afterwards.
    doc.replace_call(call, [E("ok", V("x"))])
    assert arena.consistency_errors() == []


# -------------------------------------------- materialised-node accounting


def _chain_run(**config):
    workload = build_chain_workload(depth=3, width=6, distinct_keys=2)
    bus = ServiceBus(workload.registry)
    engine = LazyQueryEvaluator(
        bus,
        schema=workload.schema,
        config=EngineConfig(strategy=Strategy.LAZY_NFQ, **config),
    )
    document = workload.make_document()
    oracle = SpliceRecorder(document)  # the walking oracle
    return engine.evaluate(workload.query, document).metrics, oracle, bus.log


@pytest.mark.parametrize(
    "config, hits",
    [
        ({}, False),
        ({"call_cache": True}, True),
        ({"max_concurrency": 4}, False),
        ({"max_concurrency": 4, "call_cache": True}, True),
        ({"push_mode": "bindings", "call_cache": True}, True),
    ],
    ids=["live", "cache-hits", "batch", "batch+coalesced", "bindings"],
)
def test_nodes_materialized_equals_a_walk_over_every_splice(config, hits):
    """``Metrics.nodes_materialized`` is read off the reply (the bus
    counted while sizing it); live replies, call-cache hits and bounded
    rounds must all carry the count a walk would have found.  A
    bindings reply is sized as tuples and counted as the witness trees
    spliced for it, live or from the cache."""
    metrics, oracle, log = _chain_run(**config)
    assert metrics.nodes_materialized == oracle.nodes_added > 0
    assert any(r.returned_bindings for r in log.records) == (
        "push_mode" in config
    )
    assert (metrics.cache_hits > 0) == hits
    # ``batch_count`` counts rounds wider than one call, whatever the
    # number of workers: the chain's rounds are six wide in every regime.
    assert metrics.batch_count > 0 and metrics.max_batch_width == 6


# ----------------------------------- bytes, calls and id order, pre-change

# (response_bytes, new_calls, simulated time to the bit) of every log
# record and (node id, produced_by) of every node in final document
# order, over every query of three fuzz-sized worlds per regime, digested
# at the commit *before* the single-pass write path.  A mismatch means
# the rewrite changed what the bus measures or the order ids are handed
# out in — regenerate only for a change that means to.
WRITE_PATH_DIGESTS = {
    "baseline": "55c35adbec095f7c",
    "deep-recursion": "ca8a0ed7db88aaaa",
    "wide-flat": "62e9c673fed9c65d",
    "bindings-push": "7482306067adc4bf",
    "cache-flood": "001576b1ffe73d60",
    "multi-root-standing": "71409eca6cdd072f",
}


@pytest.mark.parametrize("name", sorted(WRITE_PATH_DIGESTS))
def test_measured_bytes_calls_and_id_order_are_the_pre_change_values(name):
    digest = hashlib.sha256()
    for seed in (3, 11, 42):
        gen = generate(fuzz_spec(name, seed))
        for qi in range(gen.spec.n_queries):
            bus = gen.make_bus()
            engine = LazyQueryEvaluator(bus, config=gen.engine_config())
            doc = gen.make_document(gen.document_for_query(qi))
            engine.evaluate(gen.query_for(qi), doc)
            for r in bus.log.records:
                digest.update(
                    repr(
                        (
                            r.call_node_id,
                            r.response_bytes,
                            r.new_calls,
                            r.simulated_time_s.hex(),
                        )
                    ).encode()
                )
            digest.update(
                repr(
                    [(n.node_id, n.produced_by) for n in doc.iter_nodes()]
                ).encode()
            )
    assert digest.hexdigest()[:16] == WRITE_PATH_DIGESTS[name]


# --------------------------------------------- nothing rebuilt per call


class PolicySpyBus(ServiceBus):
    """Records the policy of every round and the round itself (whose
    ``offsets`` say how many calls it was handed)."""

    def __init__(self, registry):
        super().__init__(registry)
        self.rounds = []

    def round(self, width, *, policy=None, **kwargs):
        round_ = super().round(width, policy=policy, **kwargs)
        self.rounds.append((policy, round_))
        return round_

    @property
    def policies(self):
        return [
            policy for policy, round_ in self.rounds for _ in round_.offsets
        ]


#: (fault policy, attempts per call) by arm.
ARMS = {"retry": ("freeze", 3), "freeze": ("freeze", 1), "raise": ("raise", 3)}


@pytest.mark.parametrize("max_concurrency", [1, 4])
@pytest.mark.parametrize("arm", ARMS)
def test_every_call_of_one_evaluation_gets_the_same_policy_object(
    max_concurrency, arm
):
    document = build_document(
        E("root", *(E("item", C("s", V(str(i)))) for i in range(5)))
    )
    bus = PolicySpyBus(
        ServiceRegistry([StaticService("s", [E("v", V("1"))])])
    )
    fault_policy, attempts = ARMS[arm]
    config = EngineConfig(
        max_concurrency=max_concurrency,
        fault_policy=fault_policy,
        retry=RetryPolicy(max_attempts=attempts),
    )
    engine = LazyQueryEvaluator(bus, config=config)
    outcome = engine.evaluate(parse_pattern("/root/item/v/$X"), document)
    assert outcome.metrics.calls_invoked == 5
    assert len(bus.policies) == 5
    first = bus.policies[0]
    assert first is not None
    assert all(policy is first for policy in bus.policies)
    # The config's retry, as written, under either policy.
    assert first.retry is config.retry
