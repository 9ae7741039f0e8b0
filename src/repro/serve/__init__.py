"""The multi-tenant serving layer over the lazy evaluation engine.

``repro.serve`` turns the one-shot evaluator into a long-lived session
manager: a :class:`QueryServer` registers many continuous queries
(:class:`Subscription`) from many tenants over shared documents and
drives them in rounds — asking the engine once per query shape and
document version whether a refresh would invoke anything
(:meth:`~repro.lazy.engine.LazyQueryEvaluator.is_quiet`), serving the
quiet ones straight from their maintained answers across tenants, and
fanning answer deltas out per subscriber (:class:`AnswerStream`).  Admission control
(:class:`TenantPolicy` / :class:`TenantAccount`) keeps a noisy tenant
from starving the rest.

The usual entry points are ``repro.subscribe`` (one standing query,
private server) and ``repro.QueryServer`` (many).  The engine-facing
core, :class:`~repro.lazy.continuous.ContinuousQuery`, remains
importable from here for compatibility.
"""

from ..lazy.continuous import ContinuousQuery
from .admission import (
    RefreshOutcome,
    RefreshStatus,
    TenantAccount,
    TenantPolicy,
    quantile,
)
from .server import (
    QueryServer,
    RoundReport,
    ServingClock,
    Subscription,
)
from .stream import AnswerDelta, AnswerStream

__all__ = [
    "AnswerDelta",
    "AnswerStream",
    "ContinuousQuery",
    "QueryServer",
    "RefreshOutcome",
    "RefreshStatus",
    "RoundReport",
    "ServingClock",
    "Subscription",
    "TenantAccount",
    "TenantPolicy",
    "quantile",
]
