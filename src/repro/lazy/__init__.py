"""Lazy query evaluation: relevance, sequencing, typing, guides, pushing."""

from .analysis import QueryAnalysis
from .answers import AnswerCache
from .config import EngineConfig, FaultPolicy, Strategy, TypingMode
from .continuous import ContinuousQuery
from .engine import EvaluationOutcome, LazyQueryEvaluator
from .fguide import FGuide
from .incremental import LabelFootprint, RelevanceStore
from .influence import InfluenceAnalyzer
from .layers import Layer, compute_layers
from .metrics import Metrics, RoundRecord
from .pushing import PushedSubquery, pushed_subquery_for
from .report import (
    ComparisonRow,
    compare_strategies,
    format_comparison,
    format_trace_profile,
)
from .relevance import (
    NFQBuilder,
    RelevanceKind,
    RelevanceQuery,
    build_nfqs,
    linear_path_queries,
)

__all__ = [
    "AnswerCache",
    "ComparisonRow",
    "ContinuousQuery",
    "EngineConfig",
    "EvaluationOutcome",
    "FGuide",
    "FaultPolicy",
    "InfluenceAnalyzer",
    "LabelFootprint",
    "Layer",
    "LazyQueryEvaluator",
    "Metrics",
    "NFQBuilder",
    "PushedSubquery",
    "QueryAnalysis",
    "RelevanceStore",
    "RelevanceKind",
    "RelevanceQuery",
    "RoundRecord",
    "Strategy",
    "TypingMode",
    "build_nfqs",
    "compare_strategies",
    "compute_layers",
    "format_comparison",
    "format_trace_profile",
    "linear_path_queries",
    "pushed_subquery_for",
]
