"""Shared fixtures: the paper's running example and helpers."""

from __future__ import annotations

import gc
import sys

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
from repro import kept
from repro.lazy import analysis
from repro.services.registry import ServiceBus
from repro.workloads.hotels import (
    figure_1_document,
    figure_1_registry,
    figure_1_schema,
    paper_query,
)


@pytest.fixture(autouse=True)
def _nothing_kept():
    """Every test starts from an empty keeper and an empty process-wide
    analysis table, so no test reads a text another one parsed or an
    analysis another one derived: nothing kept, and nothing held — a
    standing query an earlier test left unclosed lets go of its holds
    when collected."""
    if len(analysis._analyses):
        # pytest keeps the last failure's frames (an xfail's included)
        # for post-mortem debugging: let them go with the rest.
        sys.last_type = sys.last_value = sys.last_traceback = None
        sys.last_exc = None  # Python 3.12+
        gc.collect()
    kept.forget()
    assert len(analysis._analyses) == 0, "an earlier test still holds one"


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
