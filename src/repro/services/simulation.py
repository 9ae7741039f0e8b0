"""Simulated network accounting.

The paper's experiments ran against Web services over a network; here the
network is simulated so that experiments are deterministic, offline and
fast, while still exposing the quantities the paper reports on:

* number of service invocations (the thing lazy evaluation minimises),
* simulated elapsed time — fixed per-call latency plus a per-byte
  transfer component (sequential sum, and per-round maxima when calls
  are parallelised as in Section 4.4),
* bytes shipped each way (the thing query pushing minimises, Section 7).
"""

from __future__ import annotations

import dataclasses
from typing import Optional


@dataclasses.dataclass(frozen=True)
class NetworkModel:
    """Latency/bandwidth model for simulated invocations.

    ``transfer_time(n)`` = ``per_kb_s * n / 1024`` — the fixed round-trip
    cost lives on each service (services can be slow regardless of the
    network).
    """

    per_kb_s: float = 0.002

    def transfer_time(self, nbytes: int) -> float:
        return self.per_kb_s * (nbytes / 1024.0)

    def round_trip_s(
        self, latency_s: float, request_bytes: int, response_bytes: int
    ) -> float:
        """Simulated time of one successful invocation — the one copy
        of the formula (the bus charges it, the log stores the charge)."""
        return (
            latency_s
            + self.transfer_time(request_bytes)
            + self.transfer_time(response_bytes)
        )


@dataclasses.dataclass(frozen=True)
class InvocationRecord:
    """One entry of the invocation log.

    Since the resilience layer, the log records *attempts*, not just
    successes: a failed attempt carries ``fault=True`` (with
    ``fault_kind`` naming the failure) and still accounts its request
    bytes and simulated time — faults are not free.  ``attempt`` is the
    1-based position within one call's retry sequence.
    """

    sequence: int
    service_name: str
    call_node_id: Optional[int]
    request_bytes: int
    response_bytes: int
    simulated_time_s: float
    pushed_query: Optional[str]
    push_mode: str
    returned_bindings: bool
    new_calls: int
    fault: bool = False
    fault_kind: Optional[str] = None
    attempt: int = 1


class InvocationLog:
    """Accumulates invocation records and aggregate totals."""

    def __init__(self, network: Optional[NetworkModel] = None) -> None:
        self.network = network or NetworkModel()
        self.records: list[InvocationRecord] = []

    def record(
        self,
        service_name: str,
        call_node_id: Optional[int],
        request_bytes: int,
        response_bytes: int,
        service_latency_s: float,
        pushed_query: Optional[str],
        push_mode: str,
        returned_bindings: bool,
        new_calls: int,
        fault: bool = False,
        fault_kind: Optional[str] = None,
        attempt: int = 1,
        charged_time_s: Optional[float] = None,
    ) -> InvocationRecord:
        # ``charged_time_s`` is what the bus charged its clock for the
        # attempt (the round trip; a missed deadline; latency + request
        # for any other fault); only direct callers omit it.
        simulated = (
            charged_time_s
            if charged_time_s is not None
            else self.network.round_trip_s(
                service_latency_s, request_bytes, response_bytes
            )
        )
        entry = InvocationRecord(
            sequence=len(self.records),
            service_name=service_name,
            call_node_id=call_node_id,
            request_bytes=request_bytes,
            response_bytes=response_bytes,
            simulated_time_s=simulated,
            pushed_query=pushed_query,
            push_mode=push_mode,
            returned_bindings=returned_bindings,
            new_calls=new_calls,
            fault=fault,
            fault_kind=fault_kind,
            attempt=attempt,
        )
        self.records.append(entry)
        return entry

    # -- aggregates --------------------------------------------------------------

    @property
    def call_count(self) -> int:
        """Total logged attempts (successful and faulted)."""
        return len(self.records)

    @property
    def fault_count(self) -> int:
        return sum(1 for r in self.records if r.fault)

    @property
    def successful_count(self) -> int:
        return len(self.records) - self.fault_count

    def faults_by_service(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for record in self.records:
            if record.fault:
                out[record.service_name] = out.get(record.service_name, 0) + 1
        return out

    @property
    def total_request_bytes(self) -> int:
        return sum(r.request_bytes for r in self.records)

    @property
    def total_response_bytes(self) -> int:
        return sum(r.response_bytes for r in self.records)

    @property
    def total_bytes(self) -> int:
        return self.total_request_bytes + self.total_response_bytes

    @property
    def total_simulated_time_s(self) -> float:
        return sum(r.simulated_time_s for r in self.records)

    def calls_by_service(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for record in self.records:
            out[record.service_name] = out.get(record.service_name, 0) + 1
        return out

    def reset(self) -> None:
        self.records.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"InvocationLog(calls={self.call_count}, "
            f"bytes={self.total_bytes}, "
            f"time={self.total_simulated_time_s:.3f}s)"
        )
