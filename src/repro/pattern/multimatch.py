"""Keyed pattern families evaluated together.

A :class:`PatternGroup` holds one :class:`~repro.pattern.match.Matcher`
per member pattern over shared options, work counters and (optionally)
one document arena, so a family follows the same two-evaluator rule as
a single matcher: on a mirrored root every member with a compiled plan
runs the column plan, everything else the plain object walk.

What the group adds is the **twin table**.  Thousands of subscribers
stand on a handful of query texts, so members that are equal down to
variable names and result marks — equal rows, equal bindings — are
evaluated once per pass and the rows handed to each twin.  Nothing
finer is shared: members keep their own memo tables, and a pass leaves
no state behind.  The table is reference-counted, so a group holds
nothing for a member that left — a long-lived
:class:`~repro.serve.QueryServer` does not grow with subscribe/cancel
churn.

Per-member results are byte-identical to a fresh per-pattern
:class:`~repro.pattern.match.Matcher` (``tests/test_multimatch.py``).
Groups do not support bindings overlays.
"""

from __future__ import annotations

import dataclasses
from typing import Hashable, Iterable, Mapping, Optional, Sequence

from ..axml.arena import DocumentArena
from ..axml.document import Document
from ..axml.node import Node
from .match import Matcher, MatchCounter, MatchOptions, MatchSet
from .nodes import PatternNode
from .pattern import TreePattern


@dataclasses.dataclass
class GroupPassResult:
    """One evaluation pass of a group over the document."""

    match_sets: dict[Hashable, MatchSet]


def _exact_shape(node: PatternNode) -> tuple:
    """A pattern subtree's full structure, variable names and result
    marks included: equal shapes have equal rows and bindings."""
    return (
        node.kind,
        node.label,
        node.function_names,
        node.edge,
        node.is_result,
        tuple(_exact_shape(child) for child in node.children),
    )


class _Twins:
    """One class of members with equal exact shapes, and how many live
    members stand in it."""

    __slots__ = ("members", "shape")

    def __init__(self, shape: tuple) -> None:
        self.shape = shape
        self.members = 0


class PatternGroup:
    """A keyed family of patterns evaluated in one pass.

    Args:
        members: mapping of caller-chosen keys (the serving layer uses
            ``(subscription id, target uid)``) to patterns.
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
        self._members: dict[Hashable, tuple[Matcher, _Twins]] = {}
        self._twin_table: dict[tuple, _Twins] = {}
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
            shape = _exact_shape(pattern.root)
            twins = self._twin_table.get(shape)
            if twins is None:
                twins = self._twin_table[shape] = _Twins(shape)
            twins.members += 1
            matcher = Matcher(
                pattern,
                options=self.options,
                counter=self.counter,
                arena=self.arena,
                column_match=self.column_match,
            )
            self._members[key] = (matcher, twins)

    def discard(self, keys: Iterable[Hashable]) -> None:
        """Drop members (unknown keys are ignored); a twin class leaves
        the table with its last member."""
        for key in keys:
            member = self._members.pop(key, None)
            if member is None:
                continue
            _, twins = member
            twins.members -= 1
            if not twins.members:
                del self._twin_table[twins.shape]

    def evaluate(
        self,
        document: Document,
        keys: Optional[Sequence[Hashable]] = None,
        scope: Optional[Node] = None,
    ) -> GroupPassResult:
        """Evaluate the selected members (default: all), each twin
        class once, on whatever state the document is in now.

        Under ``scope`` (a direct child of the root) the pass enters
        only that subtree, as :meth:`Matcher.evaluate_scoped` does.
        """
        match_sets: dict[Hashable, MatchSet] = {}
        evaluated: dict[_Twins, MatchSet] = {}
        for key in self._members if keys is None else keys:
            member, twins = self._members[key]
            first = evaluated.get(twins)
            if first is None:
                first = evaluated[twins] = (
                    member.evaluate(document)
                    if scope is None
                    else member.evaluate_scoped(document, scope)
                )
                match_sets[key] = first
            else:
                match_sets[key] = MatchSet(member.pattern, list(first.rows))
        return GroupPassResult(match_sets=match_sets)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PatternGroup({len(self._members)} members, "
            f"{len(self._twin_table)} twin classes)"
        )
