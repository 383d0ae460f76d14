"""Tests for on/off, paced, bulk, and incast workload drivers."""

import pytest

from repro.net.topology import dumbbell
from repro.sim.units import milliseconds, seconds
from repro.transport.base import FlowState
from repro.transport.registry import get_protocol, open_flow
from repro.workloads.bulk import concurrent_flows, staggered_flows
from repro.workloads.incast import IncastCoordinator
from repro.workloads.onoff import OnOffSource, PacedSource


def make_topo(proto="tcp", n=2):
    topo = dumbbell(n_senders=n, queue_factory=get_protocol(proto).port_queue_factory(256_000))
    get_protocol(proto).install(topo.network)
    return topo


# ----------------------------------------------------------------------
# On/off and paced sources
# ----------------------------------------------------------------------
def test_onoff_cycles_and_finishes():
    topo = make_topo()
    sender = open_flow(topo.hosts[0], topo.hosts[-1], "tcp", size_bytes=0)
    source = OnOffSource(
        topo.sim, sender,
        on_ns=milliseconds(5), off_ns=milliseconds(5),
        burst_bytes=10_000, cycles=3,
    )
    topo.network.run_for(seconds(1))
    assert source.bursts_sent == 3
    assert sender.state is FlowState.DONE
    assert sender.stats.bytes_acked == 30_000


def test_onoff_stop():
    topo = make_topo()
    sender = open_flow(topo.hosts[0], topo.hosts[-1], "tcp", size_bytes=0)
    sender.fin_on_empty = False
    source = OnOffSource(
        topo.sim, sender, on_ns=milliseconds(1), off_ns=milliseconds(1),
        burst_bytes=1000,
    )
    topo.network.run_for(milliseconds(5))
    source.stop()
    bursts = source.bursts_sent
    topo.network.run_for(milliseconds(20))
    assert source.bursts_sent == bursts


def test_onoff_validates_arguments():
    topo = make_topo()
    sender = open_flow(topo.hosts[0], topo.hosts[-1], "tcp", size_bytes=0)
    with pytest.raises(ValueError):
        OnOffSource(topo.sim, sender, on_ns=0, off_ns=1, burst_bytes=1)
    with pytest.raises(ValueError):
        OnOffSource(topo.sim, sender, on_ns=1, off_ns=1, burst_bytes=0)


def test_paced_source_rate():
    topo = make_topo()
    sender = open_flow(topo.hosts[0], topo.hosts[-1], "tcp", size_bytes=0)
    sender.fin_on_empty = False
    PacedSource(topo.sim, sender, rate_bps=100_000_000, interval_ns=milliseconds(1))
    topo.network.run_for(seconds(0.5))
    rate = sender.stats.bytes_acked * 8 / 0.5
    assert rate == pytest.approx(100_000_000, rel=0.1)


# ----------------------------------------------------------------------
# Bulk helpers
# ----------------------------------------------------------------------
def test_staggered_flows_start_times():
    topo = make_topo(n=3)
    receiver = topo.hosts[-1]
    senders = staggered_flows(
        topo.hosts[:3], receiver, "tcp", interval_ns=milliseconds(10),
        size_bytes=1000,
    )
    topo.network.run_for(seconds(1))
    starts = [s.stats.start_ns for s in senders]
    assert starts == [0, milliseconds(10), milliseconds(20)]
    assert all(s.state is FlowState.DONE for s in senders)


def test_concurrent_flows_start_together():
    topo = make_topo(n=3)
    senders = concurrent_flows(
        topo.hosts[:3], topo.hosts[-1], "tcp", size_bytes=1000,
        start_ns=milliseconds(5),
    )
    topo.network.run_for(seconds(1))
    assert all(s.stats.start_ns == milliseconds(5) for s in senders)


# ----------------------------------------------------------------------
# Incast
# ----------------------------------------------------------------------
def test_incast_completes_requested_rounds():
    topo = make_topo(proto="tfc", n=5)
    coordinator = IncastCoordinator(
        topo.hosts[-1], topo.hosts[:5], "tfc",
        block_bytes=64_000, rounds=3,
    )
    topo.network.run_for(seconds(5))
    assert coordinator.finished
    assert coordinator.rounds_completed == 3
    assert len(coordinator.round_durations_ns) == 3
    assert coordinator.goodput_bps > 0
    for sender in coordinator.senders:
        assert sender.stats.bytes_acked == 3 * 64_000


def test_incast_barrier_synchronisation():
    """Round k+1's data is only queued after round k fully acked."""
    topo = make_topo(proto="tfc", n=3)
    coordinator = IncastCoordinator(
        topo.hosts[-1], topo.hosts[:3], "tfc", block_bytes=32_000, rounds=2,
    )
    seen_violation = []

    def watch():
        # While any sender still owes round-1 bytes, none may have been
        # given round-2 bytes.
        if any(s.snd_una < 32_000 for s in coordinator.senders):
            if any(s.flow_bytes > 32_000 for s in coordinator.senders):
                seen_violation.append(topo.sim.now)
        topo.sim.schedule(10_000, watch)

    topo.sim.schedule(0, watch)
    topo.network.run_for(seconds(2))
    assert not seen_violation
    assert coordinator.finished


def test_incast_metrics_exposed():
    topo = make_topo(proto="tcp", n=4)
    coordinator = IncastCoordinator(
        topo.hosts[-1], topo.hosts[:4], "tcp", block_bytes=16_000, rounds=2,
    )
    topo.network.run_for(seconds(5))
    assert coordinator.max_timeouts_per_block >= 0
    assert coordinator.total_timeouts >= 0


def test_incast_validates_arguments():
    topo = make_topo()
    with pytest.raises(ValueError):
        IncastCoordinator(topo.hosts[-1], [], "tcp")
    with pytest.raises(ValueError):
        IncastCoordinator(topo.hosts[-1], topo.hosts[:1], "tcp", block_bytes=0)
