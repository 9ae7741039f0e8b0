"""Direct tests for the simulated network model and the invocation
log the bus fills, one record per attempt."""

import pytest

from repro.axml.builder import E, V
from repro.services.catalog import StaticService
from repro.services.registry import ServiceBus, ServiceCall, ServiceRegistry
from repro.services.simulation import NetworkModel


def bus_of(*services, network=None):
    return ServiceBus(ServiceRegistry(services), network=network)


def test_transfer_time_is_linear_in_bytes():
    network = NetworkModel(per_kb_s=0.5)
    assert network.transfer_time(0) == 0.0
    assert network.transfer_time(1024) == pytest.approx(0.5)
    assert network.transfer_time(2048) == pytest.approx(1.0)


def test_network_refuses_a_negative_transfer_cost():
    with pytest.raises(ValueError, match="per_kb_s"):
        NetworkModel(per_kb_s=-0.001)
    assert NetworkModel(per_kb_s=0.0).transfer_time(4096) == 0.0


def test_record_combines_latency_and_transfers():
    network = NetworkModel(per_kb_s=1.0)
    assert network.round_trip_s(0.25, 1024, 2048) == pytest.approx(
        0.25 + 1.0 + 2.0
    )
    bus = bus_of(
        StaticService("s", [E("a", V("x" * 4096))], latency_s=0.25),
        network=network,
    )
    record = bus.invoke(ServiceCall(service="s", parameters=[V("k")])).record
    assert record.request_bytes > 0 and record.response_bytes > 4096
    # The record holds the charge, and the charge is the round trip.
    assert record.simulated_time_s == network.round_trip_s(
        0.25, record.request_bytes, record.response_bytes
    )
    assert record.sequence == 0
    assert bus.clock_s == record.simulated_time_s


def test_sequence_numbers_increase():
    bus = bus_of(StaticService("a", []), StaticService("b", []))
    first = bus.invoke(ServiceCall(service="a")).record
    second = bus.invoke(ServiceCall(service="b")).record
    assert (first.sequence, second.sequence) == (0, 1)
    assert bus.log.records == [first, second]


def test_default_network_is_cheap_but_nonzero():
    assert 0 < NetworkModel().round_trip_s(0.0, 10_240, 0) < 1


def test_totals_and_repr():
    bus = bus_of(StaticService("a", [E("r", V("v"))], latency_s=0.1))
    record = bus.invoke(ServiceCall(service="a", parameters=[V("k")])).record
    log = bus.log
    assert log.total_bytes == record.request_bytes + record.response_bytes > 0
    assert log.total_simulated_time_s > 0.1
    assert "calls=1" in repr(log)
