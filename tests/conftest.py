"""Shared fixtures: the paper's running example and helpers."""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import HealthCheck, settings

from repro.axml.builder import C, E, V, build_document
from repro.axml.document import Document

# Named Hypothesis profiles: "dev" keeps the suite fast locally; CI's
# differential job selects "ci" (200 derandomized examples per property)
# with ``--hypothesis-profile=ci``, which is applied by the hypothesis
# pytest plugin after this module is imported and so overrides "dev".
settings.register_profile(
    "ci",
    max_examples=200,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile(
    "dev",
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("dev")
from repro.lazy.config import EngineConfig, Strategy
from repro.lazy.engine import LazyQueryEvaluator, _EvaluationState
from repro.lazy.incremental import RelevanceStore
from repro.services.registry import ServiceBus
from repro.workloads.hotels import (
    figure_1_document,
    figure_1_registry,
    figure_1_schema,
    paper_query,
)


@pytest.fixture
def fig1_document():
    return figure_1_document()


@pytest.fixture
def fig1_registry():
    return figure_1_registry()


@pytest.fixture
def fig1_schema():
    return figure_1_schema()


@pytest.fixture
def fig1_query():
    return paper_query()


@pytest.fixture
def fig1_bus(fig1_registry):
    return ServiceBus(fig1_registry)


@pytest.fixture
def small_document():
    """A tiny mixed document used by many structural tests."""
    return build_document(
        E(
            "library",
            E(
                "book",
                E("title", V("Foundations of Databases")),
                E("year", V("1995")),
                C("getPrice", V("fdb")),
            ),
            E(
                "book",
                E("title", V("Data on the Web")),
                C("getReviews", V("dotw")),
            ),
            C("getBooks", V("db")),
        ),
        name="library",
    )


class SpliceRecorder:
    """A document observer that only records: every protocol callback
    in ``events`` (``"removed"`` / ``"added"`` / ``"splice"``), every
    delta in ``deltas``, and the nodes each delta brought in, counted
    as it arrives (a later splice may grow the added forest)."""

    def __init__(self, document: Document) -> None:
        self.events: list[str] = []
        self.deltas: list = []
        self.nodes_added = 0
        document.add_observer(self)

    def call_removed(self, document, node) -> None:
        self.events.append("removed")

    def calls_added(self, document, nodes) -> None:
        self.events.append("added")

    def splice(self, document, delta) -> None:
        self.events.append("splice")
        self.deltas.append(delta)
        self.nodes_added += sum(1 for _ in delta.iter_added())


def object_walk():
    """Context manager: engines built inside run on the reference
    object walk.  No document hands out an arena, so every matcher is
    constructed without one — the seam ``NAIVE`` uses, widened to every
    strategy; there is no configuration for it."""
    return mock.patch.object(Document, "arena", None)


def full_relevance():
    """Context manager: every relevance retrieval re-matches the whole
    document — the reference the per-scope upkeep is held to.  The
    store judges every entry "only a whole pass will do"; a patch, not
    a configuration."""
    return mock.patch.object(
        RelevanceStore, "_stale_scopes", lambda self, entry, most, outer: None
    )


def just_in_case():
    """Context manager: every round fires every relevant call — Section
    4.4's closing remark, "calling functions in parallel just in case".
    Not exact (a call may stop being relevant once a sibling answers),
    so not a rule of the engine: a patch on its one decision point,
    like :func:`full_relevance`.  Under ``use_layers=False`` a run is
    one pseudo-layer fired whole each round."""
    return mock.patch.object(
        _EvaluationState,
        "_choose",
        lambda self, layer, relevant: (set(relevant), "just-in-case", None),
    )


def run_engine(query, document, bus, schema=None, **config_kwargs):
    """Evaluate with a given configuration; returns the outcome."""
    config = EngineConfig(**config_kwargs)
    engine = LazyQueryEvaluator(bus, schema=schema, config=config)
    return engine.evaluate(query, document)


def all_lazy_strategies():
    return [Strategy.LAZY_LPQ, Strategy.LAZY_NFQ, Strategy.LAZY_NFQ_TYPED]
