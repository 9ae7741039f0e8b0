"""Column-native pattern evaluation: whole match plans over arena slots.

PR 9's arena made *candidate enumeration* a column scan, but every
surviving candidate was still materialised into a ``Node`` and judged
by the object-graph matcher — attribute chasing, property calls and
per-node counter bumps on millions of slots.  This module compiles a
:class:`~repro.pattern.pattern.TreePattern` into a slot-level plan and
evaluates the *entire* pattern in slot space: the memoised boolean
``can-match`` phase, the existence semijoins answering descendant-edge
conditions (with the function-parameter barrier and ``ANY_DATA``
wildcard kinds), and the enumeration of embeddings all run over the
arena's ``kind/label/first_child/next_sibling`` int columns.  ``Node``
objects are touched exactly once per *final* row, when the caller
converts slot rows into :class:`~repro.pattern.match.ResultRow`s.

The plan compiler stands down (returns ``None``) on shapes the slot
world does not answer:

* **OR nodes** — alternatives may mix kinds and hide result nodes; the
  object walk already handles them and stays the oracle.
* **Interior data wildcards** — a star/variable node *with children*
  makes every data node a join entry point, the same shape the
  projection passes stand down on.  Leaf wildcards (the ubiquitous
  ``$x`` result leaves) are fully supported.

Runtime stand-downs (an unmirrored evaluation root, a scope child
without a slot, a ``BindingsOverlay``) are the caller's job —
:meth:`repro.pattern.match.Matcher.evaluate_at` falls back to the
object walk and counts a ``column_fallback``.

Equivalence contract: rows and first-witness bindings are *identical*
to the arena-assisted object walk.  Child candidates are enumerated in
sibling-chain order and descendant candidates in node-id order —
exactly the orders ``Matcher._candidates`` / ``_arena_candidates``
produce — so the differential suites can pin the two paths row by row,
bindings included.  Variables bind label *ids* during enumeration (id
equality is label equality within one arena) and are rendered to
strings once per recorded row.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from ..axml.arena import (
    ANY_DATA,
    KIND_ELEMENT,
    KIND_FUNCTION,
    KIND_VALUE,
    DocumentArena,
)
from .nodes import EdgeKind, PatternKind, PatternNode
from .pattern import TreePattern


@dataclasses.dataclass(frozen=True)
class PlanStep:
    """One compiled pattern node: its slot filter plus child partition.

    ``children`` are all conjunctive sub-steps (verified as boolean
    conditions by the ``can`` phase); ``enum_children`` is the subset
    carrying variables or result nodes, which enumeration must thread
    through — the same partition the object walk's ``_needs_enum``
    computes.
    """

    uid: int
    kind: PatternKind
    label: str
    function_names: Optional[frozenset[str]]
    edge: EdgeKind
    is_result: bool
    is_variable: bool
    children: tuple["PlanStep", ...]
    enum_children: tuple["PlanStep", ...]
    cond_children: tuple["PlanStep", ...]


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
        #: Every step, for per-run label-id resolution.
        self.steps = steps
        #: Result-node uids in ``pattern.result_nodes()`` order — the
        #: row layout the object walk's ``_record_row`` uses.
        self.result_uids = result_uids


def compile_plan(pattern: TreePattern) -> Optional[ColumnPlan]:
    """Compile ``pattern`` to a :class:`ColumnPlan`, or ``None`` when a
    shape rule stands the column path down (an OR node anywhere, or an
    interior data wildcard) — the caller keeps the object walk."""
    steps: list[PlanStep] = []

    def build(pnode: PatternNode) -> Optional[PlanStep]:
        kind = pnode.kind
        if kind is PatternKind.OR:
            return None
        if (
            kind in (PatternKind.STAR, PatternKind.VARIABLE)
            and pnode.children
        ):
            return None  # interior data wildcard
        children: list[PlanStep] = []
        for child in pnode.children:
            built = build(child)
            if built is None:
                return None
            children.append(built)
        # A child needs enumeration iff it binds something or some
        # descendant does — which is exactly "it has enum children".
        enum_children = tuple(
            c
            for c in children
            if c.is_result or c.is_variable or c.enum_children
        )
        step = PlanStep(
            uid=pnode.uid,
            kind=kind,
            label=pnode.label,
            function_names=pnode.function_names,
            edge=pnode.edge,
            is_result=pnode.is_result,
            is_variable=kind is PatternKind.VARIABLE,
            children=tuple(children),
            enum_children=enum_children,
            cond_children=tuple(
                c
                for c in children
                if not (c.is_result or c.is_variable or c.enum_children)
            ),
        )
        steps.append(step)
        return step

    root = build(pattern.root)
    if root is None:
        return None
    result_uids = tuple(r.uid for r in pattern.result_nodes())
    return ColumnPlan(pattern, root, tuple(steps), result_uids)


#: A slot row: result slots in ``result_nodes()`` order plus the
#: witnessing embedding's bindings, rendered to sorted string pairs.
SlotRow = tuple[tuple[int, ...], tuple[tuple[str, str], ...]]


class ColumnMatcher:
    """Evaluates one :class:`ColumnPlan` over an arena, in slot space.

    Stateless between runs: every :meth:`run` resolves label ids afresh
    (interning is append-only, a splice may introduce a label) and
    allocates fresh memo tables (the free list recycles slots between
    passes, so cross-run memos would be actively wrong).

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
        filters: dict[int, tuple[int, Optional[frozenset[int]]]] = {}
        dead = False
        for step in self.plan.steps:
            want_kind, want_ids = self._resolve(step)
            if want_ids is not None and not want_ids:
                # An un-interned label: no live slot can match, and the
                # pattern is conjunctive, so the result is empty.
                dead = True
                break
            filters[step.uid] = (want_kind, want_ids)
        self._filters = filters
        rows: list[SlotRow] = []
        root_step = self.plan.root
        if not dead and self._filter_ok(root_step, root_slot):
            labels = arena.labels
            result_uids = self.plan.result_uids
            seen: set[tuple[int, ...]] = set()
            counter = self.counter
            single = len(result_uids) == 1
            for env, assigns in self._embed(root_step, root_slot, {}):
                if single:
                    # One result node: its assignment is the whole row.
                    slots = (assigns[0][1],)
                else:
                    by_uid = dict(assigns)
                    # No OR nodes in a plan, so every result uid is bound.
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
        counter = self.counter
        counter.column_pass_nodes += self._visited
        counter.column_rows += len(rows)
        return rows

    def _filter_ok(self, step: PlanStep, slot: int) -> bool:
        """The step's slot filter alone (kind + label ids) — the whole
        node test for a plan step (no OR shapes survive compilation)."""
        want_kind, want_ids = self._filters[step.uid]
        k = self._kind[slot]
        if not (
            k == want_kind or (want_kind == ANY_DATA and k != KIND_FUNCTION)
        ):
            return False
        return want_ids is None or self._label[slot] in want_ids

    def _resolve(
        self, step: PlanStep
    ) -> tuple[int, Optional[frozenset[int]]]:
        """``(want_kind, want_label_ids)`` for a step, per run — the
        slot twin of ``Matcher._arena_filter`` (no OR case: the plan
        compiler already refused those patterns)."""
        arena = self.arena
        kind = step.kind
        if kind is PatternKind.ELEMENT or kind is PatternKind.VALUE:
            lid = arena.label_id(step.label)
            ids = frozenset() if lid is None else frozenset((lid,))
            want = KIND_ELEMENT if kind is PatternKind.ELEMENT else KIND_VALUE
            return (want, ids)
        if kind is PatternKind.FUNCTION:
            names = step.function_names
            if names is None:
                return (KIND_FUNCTION, None)
            ids = frozenset(
                lid
                for lid in (arena.label_id(name) for name in names)
                if lid is not None
            )
            return (KIND_FUNCTION, ids)
        return (ANY_DATA, None)  # star / variable leaf

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
        want_kind, want_ids = self._filters[step.uid]
        k = self._kind[slot]
        if not (
            k == want_kind or (want_kind == ANY_DATA and k != KIND_FUNCTION)
        ):
            outcome = False
        elif want_ids is not None and self._label[slot] not in want_ids:
            outcome = False
        else:
            outcome = True
            for child in step.children:
                if not self._child_possible(child, slot):
                    outcome = False
                    break
        memo[key] = outcome
        return outcome

    def _child_possible(self, step: PlanStep, slot: int) -> bool:
        if step.edge is EdgeKind.CHILD:
            candidates = self._child_slots(slot)
            self._visited += len(candidates)
            for cand in candidates:
                if self._can(step, cand):
                    return True
            return False
        return self._exists_below(step, slot)

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
        want_kind, want_ids = self._filters[uid]
        kind_col = self._kind
        label_col = self._label
        fc = self._first_child
        ns = self._next_sibling
        descend = self._descend
        # The filter *is* the node test, so leaf steps need no further
        # judgement; interior steps still check their child conditions.
        leaf = not step.children
        found = False
        explored: list[tuple[int, int]] = []
        stack = self._child_slots(slot)
        visited = 0
        while stack:
            s = stack.pop()
            visited += 1
            k = kind_col[s]
            if (
                (k == want_kind or (want_kind == ANY_DATA and k != KIND_FUNCTION))
                and (want_ids is None or label_col[s] in want_ids)
                and (leaf or self._can(step, s))
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
        for descendant edges (the ``_arena_candidates`` order), so
        first-witness bindings land identically.  The filter is applied
        *here*, during the scan — enumeration never re-tests it."""
        want_kind, want_ids = self._filters[step.uid]
        if step.edge is EdgeKind.CHILD:
            if slot == self._scope_root:
                self._visited += 1
                only = self._scope_child
                return [only] if self._filter_ok(step, only) else []
            kind_col = self._kind
            label_col = self._label
            out = []
            visited = 0
            # Walk the sibling chain inline — no intermediate list.
            ns = self._next_sibling
            s = self._first_child[slot]
            while s != -1:
                visited += 1
                k = kind_col[s]
                if (
                    k == want_kind
                    or (want_kind == ANY_DATA and k != KIND_FUNCTION)
                ) and (want_ids is None or label_col[s] in want_ids):
                    out.append(s)
                s = ns[s]
            self._visited += visited
            return out
        if (
            want_ids is not None
            and want_kind != ANY_DATA
            and self._scope_child is None
            and self._parent[slot] == -1
        ):
            # Anchored at the arena's own root with a concrete label
            # filter: the subtree *is* the whole column, so sweep the
            # label column at C speed (``array.index``) instead of
            # chasing child/sibling pointers slot by slot.
            return self._flat_candidates(slot, want_kind, want_ids)
        kind_col = self._kind
        label_col = self._label
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
            if (
                (k == want_kind or (want_kind == ANY_DATA and k != KIND_FUNCTION))
                and (want_ids is None or label_col[s] in want_ids)
            ):
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

    def _flat_candidates(
        self, root_slot: int, want_kind: int, want_ids: frozenset[int]
    ) -> list[int]:
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
        for lid in want_ids:
            pos = 0
            while True:
                try:
                    s = label_col.index(lid, pos)
                except ValueError:
                    break
                pos = s + 1
                tested += 1
                if kind_col[s] != want_kind or s == root_slot:
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
            if not child.children:
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
