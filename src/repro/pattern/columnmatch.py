"""Column-native pattern evaluation: whole match plans over arena slots.

The object walk (:mod:`repro.pattern.match`) judges every candidate as
a ``Node`` — attribute chasing, property calls and per-node counter
bumps on millions of nodes.  This module compiles a
:class:`~repro.pattern.pattern.TreePattern` into a slot-level plan and
evaluates the *entire* pattern in slot space: the memoised boolean
``can-match`` phase, the existence semijoins answering descendant-edge
conditions (with the function-parameter barrier and any-data
wildcard kinds), and the enumeration of embeddings all run over the
arena's ``kind/label/first_child/next_sibling`` int columns.  ``Node``
objects are touched exactly once per *final* row, when the caller
converts slot rows into :class:`~repro.pattern.match.ResultRow`s.

OR nodes (every NFQ condition is one — Section 3.2's ``u OR f_u``)
compile to a single step: its slot filter is the union of its
alternatives' filters, and at a slot that passes it the alternatives
are tried in declaration order, exactly as ``Matcher._embed`` does.
No cross product of per-branch plans is ever built.

The plan compiler stands down (:func:`plan_refusal` names the
:class:`StandDown` reason, :func:`compile_plan` returns ``None``) on
the two shapes the slot world does not answer:

* **Interior data wildcards** — a star/variable node *with children*
  makes every data node a join entry point.  Leaf wildcards (the ubiquitous
  ``$x`` result leaves) are fully supported.
* **A result node inside an OR alternative** — the other alternatives
  then produce rows with a hole in them, which the object walk drops
  one by one.  User-written only: relevance queries mark exactly one
  node, always outside the ORs.

Runtime stand-downs (an unmirrored evaluation root, a scope child
without a slot) are the caller's job —
:meth:`repro.pattern.match.Matcher.evaluate_at` falls back to the
object walk and records the reason.

Equivalence contract: row identities are *identical* to the object
walk's, always.  Child candidates are enumerated in sibling-chain order
and descendant candidates in node-id order; ids are allocated in
document order at load, so on a document no splice has reordered this
is exactly the order ``Matcher._candidates`` produces and first-witness
bindings land identically too — the differential suites pin the two
evaluators row by row, bindings included (after splices, where node-id
order and document order part ways, by row identity).  Variables bind
label *ids* during enumeration (id equality is label equality within
one arena) and are rendered to strings once per recorded row.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Optional

from ..axml.arena import (
    KIND_ELEMENT,
    KIND_FREE,
    KIND_FUNCTION,
    KIND_VALUE,
    DocumentArena,
)
from .nodes import EdgeKind, PatternKind, PatternNode
from .pattern import TreePattern


class StandDown(enum.Enum):
    """Why an evaluation left the column plan for the object walk.

    The first two are shape rules of :func:`compile_plan`; the other
    two are decided per evaluation by
    :class:`~repro.pattern.match.Matcher`.
    """

    INTERIOR_WILDCARD = "interior-wildcard"
    RESULT_IN_OR = "result-in-or"
    UNMIRRORED_ROOT = "unmirrored-root"
    SCOPE_WITHOUT_SLOT = "scope-without-slot"


#: A step's slot filter, indexed by the slot's kind code: ``None``
#: accepts every label of that kind, a set accepts those label ids, the
#: empty set refuses the kind.
SlotFilter = tuple[Optional[frozenset[int]], ...]
_NO_IDS: frozenset[int] = frozenset()
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
    through — the same partition the object walk's ``_needs_enum``
    computes.  An OR step has ``alternatives`` instead of children; it
    hangs off its parent by its own ``edge`` and every alternative is
    tried at the slot the OR is tried at (the alternatives' own edges
    are never read, as in the object walk).
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
    filter_is_test: bool
    """The slot filter is the whole node test: no child conditions
    here or in any alternative, so a scan hit needs no ``_can``."""


class ColumnPlan:
    """A ``TreePattern`` compiled for slot-space evaluation."""

    def __init__(
        self,
        pattern: TreePattern,
        root: PlanStep,
        steps: tuple[PlanStep, ...],
        result_uids: tuple[int, ...],
    ) -> None:
        self.pattern = pattern
        self.root = root
        #: Every step, children and alternatives before their parent,
        #: for per-run label-id resolution.
        self.steps = steps
        #: Result-node uids in ``pattern.result_nodes()`` order — the
        #: row layout the object walk's ``_record_row`` uses.
        self.result_uids = result_uids


def plan_refusal(pattern: TreePattern) -> Optional[StandDown]:
    """The shape rule that keeps ``pattern`` off the column plan, or
    ``None`` when it compiles."""
    for pnode in pattern.nodes():
        if (
            pnode.kind in (PatternKind.STAR, PatternKind.VARIABLE)
            and pnode.children
        ):
            return StandDown.INTERIOR_WILDCARD
        if pnode.is_result and any(a.is_or for a in pnode.iter_ancestors()):
            return StandDown.RESULT_IN_OR
    return None


def compile_plan(pattern: TreePattern) -> Optional[ColumnPlan]:
    """Compile ``pattern`` to a :class:`ColumnPlan`, or ``None`` when a
    shape rule (:func:`plan_refusal`) stands the column path down — the
    caller keeps the object walk.  Compiled once per pattern object
    (``pattern.plan``; ``False`` remembers a refusal)."""
    if pattern.plan is None:
        pattern.plan = (
            False if plan_refusal(pattern) is not None else _compile(pattern)
        )
    return pattern.plan or None


def _compile(pattern: TreePattern) -> ColumnPlan:
    steps: list[PlanStep] = []

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
            filter_is_test=all(a.filter_is_test for a in built)
            if is_or
            else not built,
        )
        steps.append(step)
        return step

    root = build(pattern.root)
    result_uids = tuple(r.uid for r in pattern.result_nodes())
    return ColumnPlan(pattern, root, tuple(steps), result_uids)


#: A slot row: result slots in ``result_nodes()`` order plus the
#: witnessing embedding's bindings, rendered to sorted string pairs.
SlotRow = tuple[tuple[int, ...], tuple[tuple[str, str], ...]]


class ColumnMatcher:
    """Evaluates one :class:`ColumnPlan` over an arena, in slot space.

    Every :meth:`run` allocates fresh memo tables (the free list
    recycles slots between passes, so cross-run memos would be actively
    wrong).  Slot filters are re-resolved whenever the arena's label
    table grew — interning is append-only, so a label's id (or its
    absence) cannot change otherwise.

    Effort lands in the column counters — ``column_pass_nodes`` (slots
    the scans touched), ``column_rows`` (rows produced) — rather than
    the object walk's ``can_checks``/``candidates_visited``, so the two
    paths' costs stay separately attributable in the metrics.
    """

    def __init__(
        self,
        plan: ColumnPlan,
        arena: DocumentArena,
        options,
        counter,
    ) -> None:
        self.plan = plan
        self.arena = arena
        self.options = options
        self.counter = counter
        self._filters: dict[int, SlotFilter] = {}
        self._dead = False
        self._labels_resolved = -1

    # -- one evaluation pass -------------------------------------------------

    def run(
        self,
        root_slot: int,
        scope_slot: Optional[int] = None,
    ) -> list[SlotRow]:
        """All rows of the pattern anchored at ``root_slot``.

        ``scope_slot`` restricts the walk below the anchor to that one
        direct child (the ``evaluate_scoped`` contract).  Rows are
        deduplicated by result-slot identity with first-witness
        bindings, exactly like ``Matcher._record_row``.
        """
        arena = self.arena
        self._kind = arena.kind
        self._label = arena.label
        self._parent = arena.parent
        self._first_child = arena.first_child
        self._next_sibling = arena.next_sibling
        self._node_ids = arena.node_id
        self._descend = self.options.descend_into_parameters
        self._scope_root = -1 if scope_slot is None else root_slot
        self._scope_child = scope_slot
        self._can_memo: dict[tuple[int, int], bool] = {}
        self._below_memo: dict[tuple[int, int], bool] = {}
        self._param_memo: dict[int, bool] = {}
        self._visited = 0
        if self._labels_resolved != len(arena.labels):
            self._resolve_filters()
        rows: list[SlotRow] = []
        root_step = self.plan.root
        counter = self.counter
        if not self._dead and self._filter_ok(root_step, root_slot):
            labels = arena.labels
            result_uids = self.plan.result_uids
            seen: set[tuple[int, ...]] = set()
            single = len(result_uids) == 1
            for env, assigns in self._embed(root_step, root_slot, {}):
                if single:
                    # One result node: its assignment is the whole row.
                    slots = (assigns[0][1],)
                else:
                    by_uid = dict(assigns)
                    # Result nodes never sit inside an OR alternative
                    # (a shape rule), so every result uid is bound.
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
        return rows

    def _filter_ok(self, step: PlanStep, slot: int) -> bool:
        """The step's slot filter alone (kind + label ids) — the whole
        node test of a leaf step, a necessary one for the rest."""
        accepted = self._filters[step.uid][self._kind[slot]]
        return accepted is None or self._label[slot] in accepted

    def _resolve_filters(self) -> None:
        """Slot filters for every step against the current label table.

        A step whose filter accepts nothing (an un-interned label) can
        match no live slot; ``_dead`` says that this empties the whole
        pattern — conjunctive steps die with any child, an OR only when
        every alternative does — so :meth:`run` answers without a scan.
        """
        arena = self.arena
        filters = self._filters
        dead: dict[int, bool] = {}
        for step in self.plan.steps:
            if step.alternatives:
                spec = _DEAD_FILTER
                for alt in step.alternatives:
                    spec = _union(spec, filters[alt.uid])
                dead[step.uid] = all(dead[a.uid] for a in step.alternatives)
            else:
                spec = self._resolve(step)
                dead[step.uid] = spec == _DEAD_FILTER or any(
                    dead[c.uid] for c in step.children
                )
            filters[step.uid] = spec
        self._dead = dead[self.plan.root.uid]
        self._labels_resolved = len(arena.labels)

    def _resolve(self, step: PlanStep) -> SlotFilter:
        """The slot filter of a non-OR step — the slot twin of
        ``Matcher._arena_filter``."""
        arena = self.arena
        kind = step.kind
        if kind is PatternKind.ELEMENT or kind is PatternKind.VALUE:
            lid = arena.label_id(step.label)
            return _one_kind(
                KIND_ELEMENT if kind is PatternKind.ELEMENT else KIND_VALUE,
                _NO_IDS if lid is None else frozenset((lid,)),
            )
        if kind is PatternKind.FUNCTION:
            names = step.function_names
            if names is None:
                return _one_kind(KIND_FUNCTION, None)
            return _one_kind(
                KIND_FUNCTION,
                frozenset(
                    lid
                    for lid in (arena.label_id(name) for name in names)
                    if lid is not None
                ),
            )
        return _ANY_DATA_FILTER  # star / variable leaf

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
        too (the same memo propagation the object walk uses)."""
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
        descend = self._descend
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
            if k == KIND_FUNCTION and not descend:
                continue
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
        """Slots passing ``step``'s filter below ``slot``, in the object
        walk's order: sibling-chain order for child edges, node-id order
        for descendant edges (document order until a splice reorders
        them), so first-witness bindings land identically.  The filter
        is applied *here*, during the scan — enumeration never re-tests
        it."""
        spec = self._filters[step.uid]
        kind_col = self._kind
        label_col = self._label
        if step.edge is EdgeKind.CHILD:
            ns = self._next_sibling
            scoped = slot == self._scope_root
            c = self._scope_child if scoped else self._first_child[slot]
            out = []
            visited = 0
            while c != -1:
                visited += 1
                accepted = spec[kind_col[c]]
                if accepted is None or label_col[c] in accepted:
                    out.append(c)
                c = -1 if scoped else ns[c]
            self._visited += visited
            return out
        if (
            None not in spec
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
        descend = self._descend
        out = []
        stack = self._child_slots(slot)
        visited = 0
        while stack:
            s = stack.pop()
            visited += 1
            k = kind_col[s]
            accepted = spec[k]
            if accepted is None or label_col[s] in accepted:
                out.append(s)
            if k == KIND_FUNCTION and not descend:
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
        descend = self._descend
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
                if not descend:
                    # Hits cluster under shared parents: probe the
                    # parent's memo entry before paying the full climb.
                    ok = memo.get(parent[s])
                    if ok is None:
                        ok = self._outside_parameters(s)
                    if not ok:
                        continue
                out.append(s)
        self._visited += tested
        out.sort(key=self._node_ids.__getitem__)
        return out

    def _outside_parameters(self, slot: int) -> bool:
        """No function node strictly above ``slot`` — i.e. the pointer
        walk (which never descends into function parameters) would have
        reached it.  The climb memoises every interior slot it judges,
        so repeated hits under one parent cost one dict probe."""
        if self._descend:
            return True
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
        embedded at ``slot``, in the object walk's enumeration order.

        The caller has already applied the step's slot filter (the
        candidate scans filter as they go).  Condition children are
        judged here via the memoised boolean phase; *enumeration*
        children are not pre-screened — their candidate scan is the
        same walk an existence probe would do, and an empty scan prunes
        the branch at the same cost, so the extra semijoin the object
        walk's ``_can`` pays buys nothing in slot space.  A branch
        either completes (identical pairs, identical order) or dies in
        a scan, so rows and first-witness bindings are pinned either
        way.
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
            # hoisting it out of the fold keeps the object walk's
            # nested-loop order (prior completions outermost, this
            # child's candidates next) at one scan instead of one per
            # completion.
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
