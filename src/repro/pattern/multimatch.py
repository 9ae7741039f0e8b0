"""Keyed pattern families evaluated together.

A :class:`PatternGroup` holds one :class:`~repro.pattern.match.Matcher`
per member pattern over shared options, work counters and (optionally)
one document arena, so a family follows the same two-evaluator rule as
a single matcher: on a mirrored root every member with a compiled plan
runs the column plan, everything else the plain object walk.

What the group adds is **sharing by shape**.  Thousands of subscribers
stand on a handful of query texts, so members of equal exact shape
(:attr:`~repro.pattern.pattern.TreePattern.shape` — equal rows, equal
bindings) share one matcher in a reference-counted
:class:`~repro.pattern.pattern.SharedTable`, are evaluated once per pass
and the rows handed to each.  Nothing finer is shared: matchers keep
their own memo tables, a pass leaves no state behind, and the group
holds nothing for a member that left — a long-lived
:class:`~repro.serve.QueryServer` does not grow with subscribe/cancel
churn.

Per-member results are byte-identical to a fresh per-pattern
:class:`~repro.pattern.match.Matcher` (``tests/test_multimatch.py``).
"""

from __future__ import annotations

import dataclasses
from typing import Hashable, Iterable, Mapping, Optional, Sequence

from ..axml.arena import DocumentArena
from ..axml.document import Document
from ..axml.node import Node
from .match import Matcher, MatchCounter, MatchOptions, MatchSet
from .pattern import SharedTable, TreePattern


@dataclasses.dataclass
class GroupPassResult:
    """One evaluation pass of a group over the document."""

    match_sets: dict[Hashable, MatchSet]


class PatternGroup:
    """A keyed family of patterns evaluated in one pass.

    Args:
        members: mapping of caller-chosen keys (the serving layer uses
            the pattern itself) to patterns.
        options: embedding semantics, shared by all members.
        counter: work counters, shared by all members.
        arena: optional column mirror of the target document
            (:class:`~repro.axml.arena.DocumentArena`).
        column_match: run each member's whole pattern in slot space
            (:mod:`repro.pattern.columnmatch`) when it compiles;
            members that stand down use the object walk.  Requires
            ``arena``; ignored without one.

    ``evaluate`` returns per-member :class:`MatchSet`s identical to
    fresh per-pattern matchers.
    """

    def __init__(
        self,
        members: Mapping[Hashable, TreePattern],
        options: Optional[MatchOptions] = None,
        counter: Optional[MatchCounter] = None,
        arena: Optional[DocumentArena] = None,
        column_match: bool = False,
    ) -> None:
        self.options = options or MatchOptions()
        self.counter = counter or MatchCounter()
        self.arena = arena
        self.column_match = bool(column_match) and arena is not None
        self._members: dict[Hashable, tuple[TreePattern, Matcher]] = {}
        self._matchers: SharedTable[Matcher] = SharedTable()
        self.extend(members)

    def __len__(self) -> int:
        return len(self._members)

    def keys(self) -> list[Hashable]:
        return list(self._members)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._members

    def extend(self, members: Mapping[Hashable, TreePattern]) -> None:
        """Add members to the live group — the serving layer's
        subscription churn path.  Duplicate keys are rejected: a key
        identifies one member pattern while it is in the group."""
        fresh = dict(members)
        for key in fresh:
            if key in self._members:
                raise ValueError(f"group member {key!r} already present")
        for key, pattern in fresh.items():
            matcher = self._matchers.acquire(
                pattern.shape,
                lambda: Matcher(
                    pattern,
                    options=self.options,
                    counter=self.counter,
                    arena=self.arena,
                    column_match=self.column_match,
                ),
            )
            self._members[key] = (pattern, matcher)

    def discard(self, keys: Iterable[Hashable]) -> None:
        """Drop members (unknown keys are ignored); a shape's matcher
        leaves the table with its last member."""
        for key in keys:
            member = self._members.pop(key, None)
            if member is not None:
                self._matchers.release(member[0].shape)

    def evaluate(
        self,
        document: Document,
        keys: Optional[Sequence[Hashable]] = None,
        scope: Optional[Node] = None,
    ) -> GroupPassResult:
        """Evaluate the selected members (default: all), each distinct
        shape once, on whatever state the document is in now; every
        member gets a row list of its own under its own pattern.

        Under ``scope`` (a direct child of the root) the pass enters
        only that subtree, as :meth:`Matcher.evaluate_scoped` does.
        """
        match_sets: dict[Hashable, MatchSet] = {}
        evaluated: dict[Matcher, list] = {}
        for key in self._members if keys is None else keys:
            pattern, matcher = self._members[key]
            rows = evaluated.get(matcher)
            if rows is None:
                rows = evaluated[matcher] = (
                    matcher.evaluate(document)
                    if scope is None
                    else matcher.evaluate_scoped(document, scope)
                ).rows
            match_sets[key] = MatchSet(pattern, list(rows))
        return GroupPassResult(match_sets=match_sets)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PatternGroup({len(self._members)} members, "
            f"{len(self._matchers)} shapes)"
        )
