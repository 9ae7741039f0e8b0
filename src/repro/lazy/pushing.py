"""Query pushing (Section 7).

Even a relevant call may return far more data than the query needs, so
the engine can ship a subquery along with the invocation.  This module
answers the two questions the paper poses:

* **Which subquery to push over a call?**  The call was retrieved by the
  NFQ ``q_v`` of some node ``v``; the subquery is exactly ``sub_q_v``,
  the subtree of the user query rooted at ``v`` — with every variable
  marked as a result node so that value joins with the rest of the query
  survive the trip.

* **How to use the results?**  Either reply becomes document data at
  the call's position.  A *filtered-forest* reply is spliced in like
  any call result.  A *bindings* reply ("X,Y binding pairs … and not
  restaurant elements") is a wire format, not a place to keep the
  answer: once the bus has measured it, :func:`witness_forest` turns
  each tuple into a *witness tree* — ``sub_q_v`` with every variable
  replaced by its bound value — and that forest is spliced in.  Every
  later relevance pass, the final evaluation and every later query run
  over it with no code of their own.

**Why the witness is exact.**  The engine only pushes where no query
node outside ``sub_q_v`` can map into a forest at that position, so the
embeddings to account for are ``sub_q_v``'s own.  The identity
embedding gives every shipped row back.  Conversely an embedding into a
witness composes with the witness's own homomorphism into the real
result, provided that homomorphism preserves what the matcher tests:

* every witness edge stands for a *child* edge — collapsing
  ``a[b=$X][//b=$Y]`` to ``a[b/1][b/2]`` over a real result
  ``a[b/1][c/b/2]`` would return the spurious rows ``(2,1)`` and
  ``(2,2)``;
* every witness node is of the kind its real node is.  A tuple carries
  a variable's *label*, not whether it bound an element or a value, and
  the witness stands a value node for it; only a value constant can
  tell the difference, and only when it can land on that node — when
  it hangs under an element labelled like the variable's parent
  (over ``a[b[<foo/>, "u"]][b["foo", "w"]]`` the witnesses of
  ``a[b[$X][$Y]][b["foo"][$Z]]`` would let ``$Z`` bind ``u``).

That is the :attr:`PushedSubquery.bindable` rule; a subquery outside it
is shipped under the filtered protocol instead.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

from ..axml.node import Node, element, value
from ..pattern.nodes import EdgeKind, PatternKind, PatternNode
from ..pattern.pattern import TreePattern
from ..services.service import BindingRow


@dataclasses.dataclass(frozen=True)
class PushedSubquery:
    """A subquery ready to ship with a call."""

    target_uid: int
    """uid of ``v`` in the original user query."""
    pattern: TreePattern
    """``sub_q_v`` with all variables marked as result nodes."""
    anchor_edge: EdgeKind
    """how ``v`` hangs in the query: child = result roots only,
    descendant = anywhere inside the result."""
    bindable: bool
    """True when the bindings protocol can represent complete answers
    *and* a witness tree stands for each of them exactly (the rule is
    :func:`_witnessable`; the module docstring says why)."""


def pushed_subquery_for(query: TreePattern, target: PatternNode) -> PushedSubquery:
    """Compute the subquery to push for calls retrieved by ``q_v``."""
    sub = query.subtree_at(target, name=f"push@{target.uid}:{query.name}")
    for node in sub.nodes():
        if node.is_variable:
            node.is_result = True
    return PushedSubquery(
        target_uid=target.uid,
        pattern=sub,
        anchor_edge=target.edge,
        bindable=_witnessable(sub),
    )


def _witnessable(sub: TreePattern) -> bool:
    """Every result node is a variable; ``sub`` is made of elements,
    value leaves and variable leaves joined by child edges; and no
    value constant hangs under an element labelled like a variable's
    parent."""
    leaf_parents: dict[PatternKind, set[str]] = {
        PatternKind.VALUE: set(),
        PatternKind.VARIABLE: set(),
    }
    for node in sub.nodes():
        if node.is_result and not node.is_variable:
            return False
        if node is not sub.root and node.edge is not EdgeKind.CHILD:
            return False
        if node.kind is PatternKind.ELEMENT:
            continue
        if node.kind not in leaf_parents or node.children:
            return False  # a star, an OR, a call, an interior variable
        if node.parent is not None:
            leaf_parents[node.kind].add(node.parent.label)
    return leaf_parents[PatternKind.VALUE].isdisjoint(
        leaf_parents[PatternKind.VARIABLE]
    )


def witness_forest(
    pushed: PushedSubquery, rows: Sequence[BindingRow]
) -> list[Node]:
    """One fresh witness tree per binding row: ``sub_q_v`` with every
    variable replaced by the row's value for it.  Only defined for a
    :attr:`~PushedSubquery.bindable` subquery — the only kind the engine
    asks bindings for."""

    def witness(pnode: PatternNode, bound: dict[str, str]) -> Node:
        if pnode.kind is PatternKind.ELEMENT:
            return element(
                pnode.label, *(witness(c, bound) for c in pnode.children)
            )
        return value(bound[pnode.label] if pnode.is_variable else pnode.label)

    return [witness(pushed.pattern.root, row.as_dict()) for row in rows]
