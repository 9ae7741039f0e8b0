"""Tests for the strategy-comparison report utility."""

import pytest

from repro.lazy.config import EngineConfig, Strategy, TypingMode
from repro.lazy.report import compare_strategies, format_comparison
from repro.services.registry import ServiceBus
from repro.workloads.hotels import (
    figure_1_document,
    figure_1_registry,
    figure_1_schema,
    paper_query,
)


def run_comparison(configs):
    return compare_strategies(
        configs,
        paper_query(),
        document_factory=figure_1_document,
        bus_factory=lambda: ServiceBus(figure_1_registry()),
        schema=figure_1_schema(),
    )


def test_compare_strategies_runs_each_config_independently():
    rows = run_comparison(
        [
            EngineConfig(strategy=Strategy.NAIVE),
            EngineConfig(strategy=Strategy.LAZY_NFQ),
            EngineConfig(strategy=Strategy.LAZY_NFQ, typing=TypingMode.LENIENT),
        ]
    )
    assert [row.label for row in rows] == [
        "naive",
        "lazy-nfq",
        "lazy-nfq+lenient",
    ]
    calls = [row.outcome.metrics.calls_invoked for row in rows]
    assert calls == sorted(calls, reverse=True)
    assert len({row.outcome.metrics.result_rows for row in rows}) == 1


def test_format_comparison_is_aligned_text():
    rows = run_comparison([EngineConfig(strategy=Strategy.LAZY_NFQ)])
    text = format_comparison(rows, title="demo")
    lines = text.splitlines()
    assert lines[0] == "== demo =="
    assert "strategy" in lines[1] and "calls" in lines[1]
    assert len({len(lines[1]), len(lines[2])}) == 1  # header and rule align
    assert "lazy-nfq" in text


def test_disagreement_raises():
    class LyingConfig(EngineConfig):
        pass

    # Simulate disagreement by comparing against a different query via a
    # doctored factory: second run sees an empty document.
    toggler = {"first": True}

    def factory():
        if toggler["first"]:
            toggler["first"] = False
            return figure_1_document()
        from repro.axml.builder import E, build_document

        return build_document(E("hotels"))

    with pytest.raises(AssertionError):
        compare_strategies(
            [
                EngineConfig(strategy=Strategy.NAIVE),
                EngineConfig(strategy=Strategy.LAZY_NFQ),
            ],
            paper_query(),
            document_factory=factory,
            bus_factory=lambda: ServiceBus(figure_1_registry()),
        )


def test_schema_consistency_check():
    from repro.schema.schema import parse_schema

    clean = parse_schema(
        """
        functions:
          f = [in: data, out: a*]
        elements:
          a = data
        """
    )
    assert clean.check_consistency() == []

    sloppy = parse_schema(
        """
        functions:
          f = [in: data, out: typo*]
        elements:
          a = other.f
        """
    )
    warnings = sloppy.check_consistency()
    assert any("'other'" in w for w in warnings)
    assert any("'typo'" in w for w in warnings)
