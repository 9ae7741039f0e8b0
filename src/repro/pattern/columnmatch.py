"""Column-native pattern evaluation: whole match plans over arena slots.

The one evaluator of Definition 1.  Judging every candidate as a
``Node`` costs attribute chasing, property calls and per-node counter
bumps on millions of nodes; this module instead compiles a
:class:`~repro.pattern.pattern.TreePattern` into a slot-level plan and
evaluates the *entire* pattern in slot space: the memoised boolean
``can-match`` phase, the existence semijoins answering descendant-edge
conditions (with the function-parameter barrier — parameters are
opaque — and any-data wildcard kinds), and the enumeration of
embeddings all run over the arena's
``kind/label/first_child/next_sibling`` int columns.  ``Node``
objects are touched exactly once per *final* row, when the caller
converts slot rows into :class:`~repro.pattern.match.ResultRow`s.

OR nodes (every NFQ condition is one — Section 3.2's ``u OR f_u``)
compile to a single step: its slot filter is the union of its
alternatives' filters, and at a slot that passes it the alternatives
are tried in declaration order.  No cross product of per-branch plans
is ever built.  A result node inside an alternative leaves a hole in
the rows of the others; such rows witness nothing and are dropped.

A relevance read starts from the calls.  When every result step is a
function step (every NFQ's shape), a run first builds an *anchor set*:
the hits — call slots of the result step's labels (any call for an
any-function step) — kept when their ancestors pass the slot filters of
the child-edge spine above the result step (an OR passed in place, the
check cut at the first descendant edge), together with all their
ancestors.  A whole-document run (no scope slot) finds its hits by a
C-speed sweep of the arena's ``service`` column (of the ``kind``
column for any function); a scoped run — the store's re-match of one
dirty depth-1 scope — tests the live calls the arena keeps for that
scope (:meth:`~repro.axml.arena.DocumentArena.scope_calls`), so it
never walks the scope top-down.  A result-holding step then takes only
anchor-set candidates, in the same order, and a root outside the set
answers no rows.  Every row-producing embedding maps a result step to a
kept hit and every step above it to an ancestor of that hit, so the set
is a superset of what enumeration needs: rows, row order and
first-witness bindings do not change.  A scoped run's set is the whole
run's restricted to the scope, plus the root.  Hits, climb reads,
closure slots and a scope's one-off derivation count in
``column_pass_nodes`` like any scanned slot.  Plans with a result that
is not a call keep the top-down path, and so do plans whose every
result is a named call below the root by a descendant edge: the root's
label sweep already finds those hit by hit.

Every pattern compiles, and every live node of a document has a slot
in its arena, so a run never stands down.

Row order: child candidates are enumerated in sibling-chain order and
descendant candidates in node-id order; ids are allocated in document
order at load, so on a document no splice has reordered this is
document order, and first-witness bindings are those of the first
embedding in document order — the differential suites pin the plan
row by row, bindings included, to the object walk the tests keep as
their oracle (after splices, where node-id order and document order
part ways, by row identity).  Variables bind label *ids* during
enumeration (id equality is label equality within one arena) and are
rendered to strings once per recorded row.
"""

from __future__ import annotations

import dataclasses
import weakref
from array import array
from typing import Callable, Collection, Optional

from ..axml.arena import (
    KIND_ELEMENT,
    KIND_FREE,
    KIND_FUNCTION,
    KIND_VALUE,
    DocumentArena,
)
from .nodes import EdgeKind, PatternKind, PatternNode
from .pattern import TreePattern


#: A step's slot filter, indexed by the slot's kind code: ``None``
#: accepts every label of that kind, a set accepts those label ids, the
#: empty set refuses the kind.
SlotFilter = tuple[Optional[frozenset[int]], ...]
_NO_IDS: frozenset[int] = frozenset()
#: An anchor set's ``first`` column at a slot outside the set.
_OUTSIDE = -2
_DEAD_FILTER: SlotFilter = (_NO_IDS, _NO_IDS, _NO_IDS)


def _one_kind(kind_code: int, ids: Optional[frozenset[int]]) -> SlotFilter:
    spec = list(_DEAD_FILTER)
    spec[kind_code] = ids
    return tuple(spec)


def _union(a: SlotFilter, b: SlotFilter) -> SlotFilter:
    return tuple(
        None if x is None or y is None else x | y for x, y in zip(a, b)
    )


_ANY_DATA_FILTER = _union(
    _one_kind(KIND_ELEMENT, None), _one_kind(KIND_VALUE, None)
)


@dataclasses.dataclass(frozen=True)
class PlanStep:
    """One compiled pattern node: its node test plus child partition.

    ``children`` are all conjunctive sub-steps (verified as boolean
    conditions by the ``can`` phase); ``enum_children`` is the subset
    carrying variables or result nodes, which enumeration must thread
    through (purely boolean branches are answered by the ``can``
    phase).  An OR step has ``alternatives`` instead of children; it
    hangs off its parent by its own ``edge`` and every alternative is
    tried at the slot the OR is tried at (the alternatives' own edges
    are never read).
    """

    uid: int
    kind: PatternKind
    label: str
    function_names: Optional[frozenset[str]]
    edge: EdgeKind
    is_result: bool
    is_variable: bool
    children: tuple["PlanStep", ...]
    alternatives: tuple["PlanStep", ...]
    enum_children: tuple["PlanStep", ...]
    cond_children: tuple["PlanStep", ...]
    needs_enum: bool
    """Binds something (a variable, a result node) somewhere below."""
    holds_result: bool
    """A result node is this step or sits below it (in an alternative,
    for an OR step)."""
    filter_is_test: bool
    """The slot filter is the whole node test: no child conditions
    here or in any alternative, so a scan hit needs no ``_can``."""


@dataclasses.dataclass(frozen=True)
class AnchorSpine:
    """How one function result step is found from the calls up.

    A hit is a live function slot passing the result step's filter.
    ``climb`` holds the uids of the steps its parent, grandparent, ...
    must pass: the child-edge spine above the result step, an OR
    passed in place (its alternative sits at the OR's own slot), cut at
    the first descendant edge.  ``rooted`` says the spine reached the
    pattern root, so the last slot climbed to must be the run's root.
    """

    result_uid: int
    climb: tuple[int, ...]
    rooted: bool


class SlotFilters:
    """One plan's slot filters against one arena's label table.

    ``by_uid`` maps each step to its :data:`SlotFilter`; ``dead`` says
    the whole pattern can match no live slot — conjunctive steps die
    with any child, an OR only when every alternative does — so a run
    answers without a scan.  ``missing`` holds the labels the plan
    names that the arena had not interned at resolution, and ``seen``
    the label table's length when they were last looked up."""

    __slots__ = ("by_uid", "dead", "missing", "seen")

    def __init__(self, plan: "ColumnPlan", arena: DocumentArena) -> None:
        self.by_uid: dict[int, SlotFilter] = {}
        self.missing: set[str] = set()
        dead: dict[int, bool] = {}
        for step in plan.steps:
            if step.alternatives:
                spec = _DEAD_FILTER
                for alt in step.alternatives:
                    spec = _union(spec, self.by_uid[alt.uid])
                dead[step.uid] = all(dead[a.uid] for a in step.alternatives)
            else:
                spec = self._resolve(step, arena)
                dead[step.uid] = spec == _DEAD_FILTER or any(
                    dead[c.uid] for c in step.children
                )
            self.by_uid[step.uid] = spec
        self.dead = dead[plan.root.uid]
        self.seen = len(arena.labels)

    def _resolve(self, step: PlanStep, arena: DocumentArena) -> SlotFilter:
        """The slot filter of a non-OR step — its whole node test on
        kind and label — noting the labels it lacks."""
        kind = step.kind
        if kind is PatternKind.ELEMENT or kind is PatternKind.VALUE:
            lid = arena.label_id(step.label)
            if lid is None:
                self.missing.add(step.label)
            return _one_kind(
                KIND_ELEMENT if kind is PatternKind.ELEMENT else KIND_VALUE,
                _NO_IDS if lid is None else frozenset((lid,)),
            )
        if kind is PatternKind.FUNCTION:
            names = step.function_names
            if names is None:
                return _one_kind(KIND_FUNCTION, None)
            ids = []
            for name in names:
                lid = arena.label_id(name)
                if lid is None:
                    self.missing.add(name)
                else:
                    ids.append(lid)
            return _one_kind(KIND_FUNCTION, frozenset(ids))
        return _ANY_DATA_FILTER  # star / variable leaf

    def copied_for(self, arena: DocumentArena) -> Optional["SlotFilters"]:
        """These filters for ``arena``, a copy of the columns they were
        resolved on (the same label ids, labels only appended since),
        or ``None`` when a label they lacked has been interned there."""
        if any(arena.label_id(label) is not None for label in self.missing):
            return None
        twin = SlotFilters.__new__(SlotFilters)
        twin.by_uid, twin.dead, twin.missing = self.by_uid, self.dead, self.missing
        twin.seen = len(arena.labels)
        return twin

    def stale(self, arena: DocumentArena) -> bool:
        """Has a label this plan lacked been interned since?  Ids are
        append-only, so no other growth of the table can change a
        filter (or revive a dead step)."""
        if self.seen == len(arena.labels):
            return False
        self.seen = len(arena.labels)
        return any(arena.label_id(label) is not None for label in self.missing)


class ColumnPlan:
    """A ``TreePattern`` compiled for slot-space evaluation."""

    def __init__(
        self,
        pattern: TreePattern,
        root: PlanStep,
        steps: tuple[PlanStep, ...],
        result_uids: tuple[int, ...],
        anchors: Optional[tuple[AnchorSpine, ...]],
    ) -> None:
        self.pattern = pattern
        self.root = root
        #: One spine per result step when every result step is a
        #: function step (a relevance query's shape), else ``None``: a
        #: run, whole or scoped, then starts from the calls
        #: (:meth:`ColumnMatcher._anchor_set`).
        self.anchors = anchors
        #: Every step, children and alternatives before their parent,
        #: for label-id resolution.
        self.steps = steps
        #: Result-node uids in ``pattern.result_nodes()`` order — the
        #: row layout of :class:`~repro.pattern.match.ResultRow`.
        self.result_uids = result_uids
        #: Arena -> this plan's :class:`SlotFilters` on it, shared by
        #: every matcher running the plan there; held weakly, so an
        #: arena that goes takes its filters along.
        self._filters: weakref.WeakKeyDictionary[
            DocumentArena, SlotFilters
        ] = weakref.WeakKeyDictionary()

    def filters(self, arena: DocumentArena) -> SlotFilters:
        """The plan's slot filters on ``arena``: resolved on first use —
        or taken over from the kept columns ``arena`` copied, when the
        plan ran there (a seed's pristine rows) — and resolved again
        only when a label the plan names and the arena lacked gets
        interned (:meth:`SlotFilters.stale`)."""
        filters = self._filters.get(arena)
        if filters is None or filters.stale(arena):
            origin = None
            if filters is None and arena.copied_from is not None:
                origin = self._filters.get(arena.copied_from)
            filters = (origin and origin.copied_for(arena)) or SlotFilters(
                self, arena
            )
            self._filters[arena] = filters
        return filters


def compile_plan(pattern: TreePattern) -> ColumnPlan:
    """Compile ``pattern`` to a :class:`ColumnPlan`, once per pattern
    object (``pattern.plan``)."""
    if pattern.plan is None:
        pattern.plan = _compile(pattern)
    return pattern.plan


def _compile(pattern: TreePattern) -> ColumnPlan:
    steps: list[PlanStep] = []
    parent_of: dict[int, PlanStep] = {}

    def build(pnode: PatternNode) -> PlanStep:
        built = tuple(build(child) for child in pnode.children)
        is_or = pnode.kind is PatternKind.OR
        children = () if is_or else built
        step = PlanStep(
            uid=pnode.uid,
            kind=pnode.kind,
            label=pnode.label,
            function_names=pnode.function_names,
            edge=pnode.edge,
            is_result=pnode.is_result,
            is_variable=pnode.kind is PatternKind.VARIABLE,
            children=children,
            alternatives=built if is_or else (),
            enum_children=tuple(c for c in children if c.needs_enum),
            cond_children=tuple(c for c in children if not c.needs_enum),
            needs_enum=pnode.is_result
            or pnode.kind is PatternKind.VARIABLE
            or any(c.needs_enum for c in built),
            holds_result=pnode.is_result or any(c.holds_result for c in built),
            filter_is_test=all(a.filter_is_test for a in built)
            if is_or
            else not built,
        )
        for child in built:
            parent_of[child.uid] = step
        steps.append(step)
        return step

    root = build(pattern.root)
    result_uids = tuple(r.uid for r in pattern.result_nodes())
    results = [s for s in steps if s.is_result]
    anchors = None
    if (
        results
        and all(s.kind is PatternKind.FUNCTION for s in results)
        and not all(_swept_from_root(r, root, parent_of) for r in results)
    ):
        anchors = tuple(_spine(r, parent_of) for r in results)
    return ColumnPlan(pattern, root, tuple(steps), result_uids, anchors)


def _swept_from_root(
    result: PlanStep, root: PlanStep, parent_of: dict[int, PlanStep]
) -> bool:
    """A named call below the root by a descendant edge: the root's
    label sweep (``_flat_candidates``) already yields exactly its hits,
    so an anchor set could restrict nothing and would only cost."""
    return (
        parent_of.get(result.uid) is root
        and result.edge is EdgeKind.DESCENDANT
        and result.function_names is not None
    )


def _spine(result: PlanStep, parent_of: dict[int, PlanStep]) -> AnchorSpine:
    climb: list[int] = []
    step = result
    while True:
        parent = parent_of.get(step.uid)
        if parent is None:
            return AnchorSpine(result.uid, tuple(climb), rooted=True)
        if parent.alternatives:
            step = parent
        elif step.edge is not EdgeKind.CHILD:
            return AnchorSpine(result.uid, tuple(climb), rooted=False)
        else:
            climb.append(parent.uid)
            step = parent


#: A slot row: result slots in ``result_nodes()`` order plus the
#: witnessing embedding's bindings, rendered to sorted string pairs.
SlotRow = tuple[tuple[int, ...], tuple[tuple[str, str], ...]]


class ColumnMatcher:
    """Evaluates one :class:`ColumnPlan` over an arena, in slot space.

    Every :meth:`run` allocates fresh memo tables (the free list
    recycles slots between passes, so cross-run memos would be actively
    wrong).  Slot filters are not the matcher's: each run reads the
    plan's :class:`SlotFilters` for the arena, which every matcher of
    the plan there shares, re-resolved only when a label the plan
    names, and the arena lacked, has been interned since.

    Effort lands in the column counters: ``column_pass_nodes`` (slots
    the scans touched) and ``column_rows`` (rows produced).
    """

    def __init__(
        self,
        plan: ColumnPlan,
        arena: DocumentArena,
        counter,
    ) -> None:
        self.plan = plan
        self.arena = arena
        self.counter = counter

    # -- one evaluation pass -------------------------------------------------

    def run(
        self,
        root_slot: int,
        scope_slot: Optional[int] = None,
    ) -> list[SlotRow]:
        """All rows of the pattern anchored at ``root_slot``.

        ``scope_slot`` restricts the walk below the anchor to that one
        direct child (the ``evaluate_scoped`` contract).  Rows are
        deduplicated by result-slot identity, with the bindings of the
        first embedding that witnessed each.
        """
        filters = self._begin(root_slot, scope_slot)
        if self.plan.anchors is not None and not filters.dead:
            self._anchor = self._anchor_set(root_slot, scope_slot)
        rows: list[SlotRow] = []
        root_step = self.plan.root
        counter = self.counter
        if (
            not filters.dead
            and (self._anchor is None or self._anchor[0][root_slot] != _OUTSIDE)
            and self._filter_ok(root_step, root_slot)
        ):
            labels = self.arena.labels
            result_uids = self.plan.result_uids
            seen: set[tuple[int, ...]] = set()
            width = len(result_uids)
            single = width == 1
            for env, assigns in self._embed(root_step, root_slot, {}):
                if len(assigns) != width:
                    # An OR alternative left a result node unbound.
                    continue
                if single:
                    # One result node: its assignment is the whole row.
                    slots = (assigns[0][1],)
                else:
                    by_uid = dict(assigns)
                    slots = tuple(by_uid[uid] for uid in result_uids)
                if slots in seen:
                    continue
                seen.add(slots)
                counter.embeddings_found += 1
                if not env:
                    bindings: tuple = ()
                elif len(env) == 1:
                    name, lid = next(iter(env.items()))
                    bindings = ((name, labels[lid]),)
                else:
                    bindings = tuple(
                        sorted(
                            (name, labels[lid]) for name, lid in env.items()
                        )
                    )
                rows.append((slots, bindings))
        counter.column_pass_nodes += self._visited
        counter.column_rows += len(rows)
        self._anchor = None  # one pass's: not kept alive between runs
        return rows

    def _begin(self, root_slot: int, scope_slot: Optional[int]) -> SlotFilters:
        """Fresh state for one pass: the arena's columns, empty memos,
        the scope, and the plan's slot filters on the arena."""
        arena = self.arena
        self._kind = arena.kind
        self._label = arena.label
        self._parent = arena.parent
        self._first_child = arena.first_child
        self._next_sibling = arena.next_sibling
        self._node_ids = arena.node_id
        self._scope_root = -1 if scope_slot is None else root_slot
        self._scope_child = scope_slot
        self._can_memo: dict[tuple[int, int], bool] = {}
        self._below_memo: dict[tuple[int, int], bool] = {}
        self._param_memo: dict[int, bool] = {}
        self._visited = 0
        filters = self.plan.filters(arena)
        self._filters = filters.by_uid
        self._anchor: Optional[tuple[array, array]] = None
        return filters

    def conditions(self, skip: Collection[int] = ()) -> Callable[[int, int], bool]:
        """The boolean phase on its own, for checks made outside a run
        (the F-guide's residual NFQ filter).  Sets up one pass's state
        and returns ``holds(uid, slot)``: does step ``uid``'s node test
        accept ``slot``, and can each of its sub-steps (an OR's
        alternatives) whose uid is not in ``skip`` be satisfied below
        ``slot``?  Value joins are ignored — the sound approximation of
        Section 6.  The memos live as long as ``holds``: ask it only
        while the arena is unchanged."""
        self._begin(-1, None)
        steps = {step.uid: step for step in self.plan.steps}

        def holds(uid: int, slot: int) -> bool:
            step = steps[uid]
            return self._filter_ok(step, slot) and all(
                self._child_possible(sub, slot)
                for sub in step.alternatives or step.children
                if sub.uid not in skip
            )

        return holds

    def _anchor_set(
        self, root_slot: int, scope_slot: Optional[int]
    ) -> tuple[array, array]:
        """The slots a result-holding step may take in an anchored run
        (see the module docstring), as two slot columns shaped like the
        arena's own: ``first[s]`` is ``_OUTSIDE`` for a slot not in the
        set, else its first member child (``-1`` for none), and
        ``nxt[c]`` the next member child of ``c``'s parent — so a
        descendant scan walks the set top-down.  (Columns, not a dict of
        lists: a pass builds no per-slot objects.)

        A whole run finds the hits by one ``array.index`` sweep per call
        label (of the ``kind`` column when the step takes any function);
        a scoped run tests the calls the arena keeps for its scope
        (:meth:`~repro.axml.arena.DocumentArena.scope_calls`).  The
        climb tests each hit's ancestors against the spine; a surviving
        hit joins with its ancestors.  Hits (every kept call of the
        scope, and the scope's one-off derivation), climb reads and
        every slot the closure adds count as scanned."""
        kind_col = self._kind
        label_col = self._label
        parent = self._parent
        filters = self._filters
        service = self.arena.service
        first = array("i", (_OUTSIDE,)) * len(kind_col)
        nxt = array("i", (-1,)) * len(kind_col)
        touched = 0
        calls: Optional[set[int]] = None
        if scope_slot is not None:
            calls, touched = self.arena.scope_calls(scope_slot)
        for spine in self.plan.anchors:
            ids = filters[spine.result_uid][KIND_FUNCTION]
            if calls is None:
                hits = self._swept(ids)
                touched += len(hits)
            else:
                touched += len(calls)
                hits = calls if ids is None else [
                    s for s in calls if service[s] in ids
                ]
            for hit in hits:
                s = hit
                for uid in spine.climb:
                    s = parent[s]
                    if s == -1:
                        break
                    touched += 1
                    accepted = filters[uid][kind_col[s]]
                    if not (accepted is None or label_col[s] in accepted):
                        s = -1
                        break
                if s == -1 or (spine.rooted and s != root_slot):
                    continue
                child, s = -1, hit
                while s != -1:
                    if first[s] != _OUTSIDE:  # joined before
                        if child != -1:
                            nxt[child] = first[s]
                            first[s] = child
                        break
                    first[s] = child
                    child, s = s, parent[s]
                    touched += 1
        self._visited += touched
        return first, nxt

    def _swept(self, ids: Optional[frozenset[int]]) -> list[int]:
        """The live call slots carrying a label of ``ids`` (any call for
        ``None``), by ``array.index`` sweeps of the ``service`` column
        (of the ``kind`` column) at C speed."""
        column, keys = (
            (self._kind, (KIND_FUNCTION,))
            if ids is None
            else (self.arena.service, ids)
        )
        hits: list[int] = []
        for key in keys:
            pos = 0
            while True:
                try:
                    hit = column.index(key, pos)
                except ValueError:
                    break
                hits.append(hit)
                pos = hit + 1
        return hits

    def _filter_ok(self, step: PlanStep, slot: int) -> bool:
        """The step's slot filter alone (kind + label ids) — the whole
        node test of a leaf step, a necessary one for the rest."""
        accepted = self._filters[step.uid][self._kind[slot]]
        return accepted is None or self._label[slot] in accepted

    # -- slot traversal ------------------------------------------------------

    def _child_slots(self, slot: int) -> list[int]:
        """Scope-visible children of ``slot``, in sibling-chain order.

        Always a fresh list — callers use it as a mutable DFS stack.
        """
        if slot == self._scope_root:
            return [self._scope_child]
        out: list[int] = []
        ns = self._next_sibling
        c = self._first_child[slot]
        while c != -1:
            out.append(c)
            c = ns[c]
        return out

    # -- phase 1: boolean reachability ---------------------------------------

    def _can(self, step: PlanStep, slot: int) -> bool:
        key = (step.uid, slot)
        memo = self._can_memo
        cached = memo.get(key)
        if cached is not None:
            return cached
        accepted = self._filters[step.uid][self._kind[slot]]
        outcome = accepted is None or self._label[slot] in accepted
        if outcome and not step.filter_is_test:
            if step.alternatives:
                outcome = False
                for alt in step.alternatives:
                    if self._can(alt, slot):
                        outcome = True
                        break
            else:
                for child in step.children:
                    if not self._child_possible(child, slot):
                        outcome = False
                        break
        memo[key] = outcome
        return outcome

    def _child_possible(self, step: PlanStep, slot: int) -> bool:
        if step.edge is not EdgeKind.CHILD:
            return self._exists_below(step, slot)
        spec = self._filters[step.uid]
        kind_col = self._kind
        label_col = self._label
        ns = self._next_sibling
        simple = step.filter_is_test
        # Walk the sibling chain inline (a scoped root has one visible
        # child) and stop at the first match.
        scoped = slot == self._scope_root
        c = self._scope_child if scoped else self._first_child[slot]
        visited = 0
        found = False
        while c != -1:
            visited += 1
            accepted = spec[kind_col[c]]
            if (accepted is None or label_col[c] in accepted) and (
                simple or self._can(step, c)
            ):
                found = True
                break
            c = -1 if scoped else ns[c]
        self._visited += visited
        return found

    def _exists_below(self, step: PlanStep, slot: int) -> bool:
        """Column semijoin: does a match for ``step`` exist strictly
        below ``slot``?  Iterative DFS with the parameter barrier; on a
        negative outcome every fully explored interior slot is negative
        too."""
        memo = self._below_memo
        uid = step.uid
        key = (uid, slot)
        cached = memo.get(key)
        if cached is not None:
            return cached
        spec = self._filters[uid]
        kind_col = self._kind
        label_col = self._label
        fc = self._first_child
        ns = self._next_sibling
        simple = step.filter_is_test
        found = False
        explored: list[tuple[int, int]] = []
        stack = self._child_slots(slot)
        visited = 0
        while stack:
            s = stack.pop()
            visited += 1
            k = kind_col[s]
            accepted = spec[k]
            if (accepted is None or label_col[s] in accepted) and (
                simple or self._can(step, s)
            ):
                found = True
                break
            if k == KIND_FUNCTION:
                continue  # parameters are opaque
            skey = (uid, s)
            sub = memo.get(skey)
            if sub is True:
                found = True
                break
            if sub is False:
                continue
            explored.append(skey)
            c = fc[s]
            while c != -1:
                stack.append(c)
                c = ns[c]
        self._visited += visited
        if not found:
            for skey in explored:
                memo[skey] = False
        memo[key] = found
        return found

    # -- phase 2: enumeration ------------------------------------------------

    def _candidates(self, slot: int, step: PlanStep) -> list[int]:
        """Slots passing ``step``'s filter below ``slot``: sibling-chain
        order for child edges, node-id order for descendant edges
        (document order until a splice reorders them).  The filter
        is applied *here*, during the scan — enumeration never re-tests
        it.  A result-holding step of an anchored run takes only
        anchor-set slots, in the same order."""
        spec = self._filters[step.uid]
        kind_col = self._kind
        label_col = self._label
        anchor = self._anchor if step.holds_result else None
        if anchor is not None:
            first, nxt = anchor
        if step.edge is EdgeKind.CHILD:
            ns = self._next_sibling
            scoped = slot == self._scope_root
            c = self._scope_child if scoped else self._first_child[slot]
            out = []
            visited = 0
            while c != -1:
                visited += 1
                accepted = spec[kind_col[c]]
                if (accepted is None or label_col[c] in accepted) and (
                    anchor is None or first[c] != _OUTSIDE
                ):
                    out.append(c)
                c = -1 if scoped else ns[c]
            self._visited += visited
            return out
        if (
            anchor is None
            and None not in spec
            and self._scope_child is None
            and self._parent[slot] == -1
        ):
            # Anchored at the arena's own root with concrete label
            # filters: the subtree *is* the whole column, so sweep the
            # label column at C speed (``array.index``) instead of
            # chasing child/sibling pointers slot by slot.
            return self._flat_candidates(slot, spec)
        fc = self._first_child
        ns = self._next_sibling
        out = []
        if anchor is None:
            stack = self._child_slots(slot)
        else:
            # Only the anchor set's own children: it is ancestor-closed,
            # so every member below ``slot`` is reached through them.
            stack = []
            c = first[slot]
            while c != -1:
                stack.append(c)
                c = nxt[c]
        visited = 0
        while stack:
            s = stack.pop()
            visited += 1
            k = kind_col[s]
            accepted = spec[k]
            if accepted is None or label_col[s] in accepted:
                out.append(s)
            if k == KIND_FUNCTION:
                continue  # parameters are opaque
            if anchor is not None:
                c = first[s]
                while c != -1:
                    stack.append(c)
                    c = nxt[c]
                continue
            c = fc[s]
            while c != -1:
                stack.append(c)
                c = ns[c]
        self._visited += visited
        out.sort(key=self._node_ids.__getitem__)
        return out

    def _flat_candidates(self, root_slot: int, spec: SlotFilter) -> list[int]:
        """Descendant candidates below the arena root, by flat sweep.

        ``array.index`` finds each label hit at C speed; Python-level
        work is proportional to the *hits*, not the live slot count.
        Freed slots keep stale label values but carry ``KIND_FREE``, so
        the kind test rejects them; the function-parameter barrier the
        pointer walk enforces structurally is re-checked per hit with a
        memoised parent-chain climb.  Same slots, same node-id order as
        the DFS scan — only the traversal changed.
        """
        label_col = self._label
        kind_col = self._kind
        parent = self._parent
        memo = self._param_memo
        out: list[int] = []
        tested = 0
        for lid in frozenset().union(*spec):
            pos = 0
            while True:
                try:
                    s = label_col.index(lid, pos)
                except ValueError:
                    break
                pos = s + 1
                tested += 1
                k = kind_col[s]
                if k == KIND_FREE or lid not in spec[k] or s == root_slot:
                    continue
                # Hits cluster under shared parents: probe the parent's
                # memo entry before paying the full climb.
                ok = memo.get(parent[s])
                if ok is None:
                    ok = self._outside_parameters(s)
                if ok:
                    out.append(s)
        self._visited += tested
        out.sort(key=self._node_ids.__getitem__)
        return out

    def _outside_parameters(self, slot: int) -> bool:
        """No function node strictly above ``slot`` — i.e. the pointer
        walk (which never descends into function parameters) would have
        reached it.  The climb memoises every interior slot it judges,
        so repeated hits under one parent cost one dict probe."""
        kind_col = self._kind
        parent = self._parent
        memo = self._param_memo
        path: list[int] = []
        s = parent[slot]
        while s != -1:
            cached = memo.get(s)
            if cached is not None:
                ok = cached
                break
            if kind_col[s] == KIND_FUNCTION:
                ok = False
                break
            path.append(s)
            s = parent[s]
        else:
            ok = True
        for p in path:
            memo[p] = ok
        return ok

    def _embed(
        self, step: PlanStep, slot: int, env: dict[str, int]
    ) -> list[tuple[dict[str, int], tuple[tuple[int, int], ...]]]:
        """Completed (bindings, result assignments) pairs for ``step``
        embedded at ``slot``, in enumeration order: prior completions
        outermost, each enumeration child's candidates next.

        The caller has already applied the step's slot filter (the
        candidate scans filter as they go).  Condition children are
        judged here via the memoised boolean phase; *enumeration*
        children are not pre-screened — their candidate scan is the
        same walk an existence probe would do, and an empty scan prunes
        the branch at the same cost.
        """
        if step.alternatives:
            # The caller's filter was the union; each alternative still
            # owes its own, then embeds at this same slot, in order.
            results = []
            for alt in step.alternatives:
                if self._filter_ok(alt, slot):
                    results.extend(self._embed(alt, slot, env))
            return results
        if step.is_variable:
            lid = self._label[slot]
            bound = env.get(step.label)
            if bound is not None:
                if bound != lid:
                    return []
            else:
                env = {**env, step.label: lid}
        for cond in step.cond_children:
            if not self._child_possible(cond, slot):
                return []
        assigns: tuple[tuple[int, int], ...] = (
            ((step.uid, slot),) if step.is_result else ()
        )
        results = [(env, assigns)]
        for child in step.enum_children:
            candidates = self._candidates(slot, child)
            if not candidates:
                return []
            # Per-candidate completions depend on env only through
            # variable joins, but the *candidate list* never does —
            # hoisting it out of the fold keeps the nested-loop order
            # at one scan instead of one per completion.
            folded = []
            if not child.children and not child.alternatives:
                # A leaf enum child (a ``$x`` result leaf, typically):
                # its whole embedding is the variable bind plus the
                # result assignment — unroll it here instead of paying
                # a recursive call per (completion, candidate) pair.
                name = child.label if child.is_variable else None
                uid = child.uid if child.is_result else None
                label_col = self._label
                for prior_env, prior_assigns in results:
                    bound = None if name is None else prior_env.get(name)
                    for cand in candidates:
                        env2 = prior_env
                        if name is not None:
                            lid = label_col[cand]
                            if bound is not None:
                                if bound != lid:
                                    continue
                            else:
                                env2 = {**prior_env, name: lid}
                        folded.append(
                            (
                                env2,
                                prior_assigns
                                if uid is None
                                else prior_assigns + ((uid, cand),),
                            )
                        )
            else:
                for prior_env, prior_assigns in results:
                    for cand in candidates:
                        for env2, a2 in self._embed(child, cand, prior_env):
                            folded.append((env2, prior_assigns + a2))
            if not folded:
                return []
            results = folded
        return results
