"""Tree-pattern containment, used for multi-query de-duplication.

Section 4.1 notes that the relevance machinery issues whole families of
NFQ queries whose evaluation can be optimised by "eliminating redundant
queries using containment checking as in [20]".  This module provides the
classical homomorphism test: a pattern ``q1`` is contained in ``q2``
(``q1 ⊆ q2``: every result of ``q1`` is a result of ``q2`` on every
document) whenever there is a homomorphism from ``q2`` into ``q1`` that

* maps root to root and result nodes onto result nodes,
* maps a child edge onto a child edge and a descendant edge onto any
  downward path of length >= 1,
* maps constants onto equal constants, stars onto anything, and function
  nodes onto function nodes with a narrower (or equal) name set.

The test is **sound** (it never claims containment that does not hold)
and complete for the child-only fragment; with descendant edges it is the
standard sound approximation, which is all de-duplication needs.  Queries
with variables or OR nodes are conservatively only de-duplicated when
structurally identical.
"""

from __future__ import annotations

from .nodes import EdgeKind, PatternKind, PatternNode
from .pattern import TreePattern


def subsumes(general: TreePattern, specific: TreePattern) -> bool:
    """Is ``specific ⊆ general`` (so ``specific`` is redundant in a union)?"""
    if _has_unsupported(general) or _has_unsupported(specific):
        return structurally_identical(general, specific)
    memo: dict[tuple[int, int], bool] = {}
    return _hom(general.root, specific.root, memo, require_root=True)


def structurally_identical(a: TreePattern, b: TreePattern) -> bool:
    """Equal exact shapes (:attr:`TreePattern.shape`), child order
    included."""
    return a.shape == b.shape


def dedupe_patterns(patterns: list[TreePattern]) -> list[TreePattern]:
    """Drop queries subsumed by another one in the list.

    The result preserves order; when two queries are equivalent the first
    occurrence is kept.  Meant for unions of relevance queries: removing
    a subsumed query never changes the union of the results.
    """
    kept: list[TreePattern] = []
    for candidate in patterns:
        redundant = False
        for chosen in kept:
            if subsumes(chosen, candidate):
                redundant = True
                break
        if not redundant:
            kept = [
                existing
                for existing in kept
                if not subsumes(candidate, existing)
            ]
            kept.append(candidate)
    return kept


# -- internals -----------------------------------------------------------------


def _has_unsupported(pattern: TreePattern) -> bool:
    return any(
        n.kind in (PatternKind.OR, PatternKind.VARIABLE) for n in pattern.nodes()
    )


def _label_compatible(general: PatternNode, specific: PatternNode) -> bool:
    """Can the general node's test map onto the specific node's test?

    Everything the specific node matches must also be matched by the
    general node.
    """
    gk, sk = general.kind, specific.kind
    if gk is PatternKind.STAR:
        return sk in (PatternKind.STAR, PatternKind.ELEMENT, PatternKind.VALUE)
    if gk is PatternKind.ELEMENT:
        return sk is PatternKind.ELEMENT and general.label == specific.label
    if gk is PatternKind.VALUE:
        return sk is PatternKind.VALUE and general.label == specific.label
    if gk is PatternKind.FUNCTION:
        if sk is not PatternKind.FUNCTION:
            return False
        if general.function_names is None:
            return True
        if specific.function_names is None:
            return False
        return specific.function_names <= general.function_names
    raise AssertionError(f"unsupported kind {gk}")


def _hom(
    general: PatternNode,
    specific: PatternNode,
    memo: dict[tuple[int, int], bool],
    require_root: bool = False,
) -> bool:
    key = (general.uid, specific.uid)
    cached = memo.get(key)
    if cached is not None:
        return cached
    memo[key] = False  # cycle guard (patterns are trees, but cheap safety)

    outcome = _label_compatible(general, specific)
    if outcome and general.is_result and not specific.is_result:
        outcome = False
    if outcome:
        for gchild in general.children:
            if not _child_image_exists(gchild, specific, memo):
                outcome = False
                break
    memo[key] = outcome
    if require_root and outcome:
        # root must map to root: that is exactly what we checked.
        return outcome
    return outcome


def _child_image_exists(
    gchild: PatternNode,
    specific_parent: PatternNode,
    memo: dict[tuple[int, int], bool],
) -> bool:
    if gchild.edge is EdgeKind.CHILD:
        return any(
            schild.edge is EdgeKind.CHILD and _hom(gchild, schild, memo)
            for schild in specific_parent.children
        )
    # Descendant edge: any node strictly below the image works.
    stack = list(specific_parent.children)
    while stack:
        snode = stack.pop()
        if _hom(gchild, snode, memo):
            return True
        stack.extend(snode.children)
    return False

