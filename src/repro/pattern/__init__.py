"""Tree-pattern queries: model, parser, matcher, containment."""

from .containment import dedupe_patterns, structurally_identical, subsumes
from .match import (
    MatchCounter,
    Matcher,
    MatchSet,
    ResultRow,
    snapshot_result,
)
from .nodes import (
    EdgeKind,
    PatternKind,
    PatternNode,
    pelem,
    pfunc,
    por,
    pstar,
    pvalue,
    pvar,
)
from .parse import PatternSyntaxError, parse_pattern
from .pattern import LinearStep, TreePattern

__all__ = [
    "EdgeKind",
    "LinearStep",
    "MatchCounter",
    "MatchSet",
    "Matcher",
    "PatternKind",
    "PatternNode",
    "PatternSyntaxError",
    "ResultRow",
    "TreePattern",
    "dedupe_patterns",
    "parse_pattern",
    "pelem",
    "pfunc",
    "por",
    "pstar",
    "pvalue",
    "pvar",
    "snapshot_result",
    "structurally_identical",
    "subsumes",
]
