"""The Web-services substrate: services, registry, simulated network."""

from .catalog import (
    EmptyService,
    FailingService,
    FlakyService,
    SequenceService,
    ServiceFault,
    SlowService,
    StaticService,
    TableService,
    TimeoutFault,
    first_value,
    make_signature,
)
from .registry import (
    InvocationRound,
    ServiceBus,
    ServiceCall,
    ServiceRegistry,
    UnknownServiceError,
)
from .scheduler import CallCache, cache_key, forest_digest
from .resilience import (
    BreakerState,
    CircuitBreaker,
    CircuitBreakerPolicy,
    CircuitOpenFault,
    InvocationPolicy,
    ResilientOutcome,
    RetryPolicy,
)
from .service import (
    BindingRow,
    CallableService,
    CallReply,
    PushMode,
    Service,
)
from .simulation import InvocationLog, InvocationRecord, NetworkModel

__all__ = [
    "BindingRow",
    "BreakerState",
    "CallCache",
    "CallReply",
    "CallableService",
    "CircuitBreaker",
    "CircuitBreakerPolicy",
    "CircuitOpenFault",
    "EmptyService",
    "FailingService",
    "FlakyService",
    "InvocationLog",
    "InvocationPolicy",
    "InvocationRecord",
    "InvocationRound",
    "NetworkModel",
    "PushMode",
    "ResilientOutcome",
    "RetryPolicy",
    "SequenceService",
    "Service",
    "ServiceBus",
    "ServiceCall",
    "ServiceFault",
    "ServiceRegistry",
    "SlowService",
    "StaticService",
    "TableService",
    "TimeoutFault",
    "UnknownServiceError",
    "cache_key",
    "first_value",
    "forest_digest",
    "make_signature",
]
