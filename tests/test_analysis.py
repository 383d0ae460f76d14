"""Tests for the analysis/reporting helpers and failure injection."""

import random

import pytest

from repro.analysis import (
    Comparison,
    ComparisonReport,
    ascii_table,
    at_least_factor,
    flat_within,
    format_bytes,
    format_duration_us,
    format_rate,
    markdown_table,
    ordering_holds,
    within_factor,
)
from repro.net.packet import MSS, Packet
from repro.net.queues import RandomDropQueue


# ----------------------------------------------------------------------
# Tables
# ----------------------------------------------------------------------
def test_ascii_table_alignment():
    out = ascii_table(["a", "long"], [[1, 2], [333, 4]])
    lines = out.splitlines()
    assert len(lines) == 4
    assert all(len(line) == len(lines[0]) for line in lines)
    assert "333" in lines[2] or "333" in lines[3]


def test_ascii_table_empty_rows():
    out = ascii_table(["x", "y"], [])
    assert "x" in out and "y" in out


def test_markdown_table():
    out = markdown_table(["p", "v"], [["tfc", 1]])
    assert out.splitlines()[0] == "| p | v |"
    assert out.splitlines()[1] == "|---|---|"
    assert out.splitlines()[2] == "| tfc | 1 |"


def test_formatters():
    assert format_rate(2.5e9) == "2.50 Gbps"
    assert format_rate(930e6) == "930 Mbps"
    assert format_rate(10e3) == "10 kbps"
    assert format_bytes(1_500_000) == "1.5 MB"
    assert format_bytes(2_000) == "2.0 KB"
    assert format_bytes(64) == "64 B"
    assert format_duration_us(1_500_000) == "1.50 s"
    assert format_duration_us(2_500) == "2.50 ms"
    assert format_duration_us(45) == "45 us"


# ----------------------------------------------------------------------
# Comparisons
# ----------------------------------------------------------------------
def test_comparison_report():
    report = ComparisonReport()
    report.add("Fig. 8", "queue", "9 KB", "6 KB", True)
    report.add("Fig. 9", "fairness", "fair", "unfair", False, note="check")
    assert not report.all_hold
    assert len(report.failures()) == 1
    rows = report.rows()
    assert rows[0][-2] == "yes"
    assert rows[1][-2] == "NO"


def test_ordering_holds():
    values = {"tfc": 1.0, "dctcp": 5.0, "tcp": 9.0}
    assert ordering_holds(values, ["tfc", "dctcp", "tcp"])
    assert not ordering_holds(values, ["tcp", "tfc", "dctcp"])


def test_within_factor():
    assert within_factor(90, 100, 1.5)
    assert not within_factor(10, 100, 2.0)
    assert within_factor(0, 0, 2.0)


def test_at_least_factor():
    assert at_least_factor(100, 10, 5)
    assert not at_least_factor(100, 90, 5)
    assert at_least_factor(1, 0, 100)


def test_flat_within():
    assert flat_within([900, 920, 940], 0.1)
    assert not flat_within([100, 900], 0.1)
    assert flat_within([], 0.0)


# ----------------------------------------------------------------------
# Failure injection
# ----------------------------------------------------------------------
def test_random_drop_queue_drops_fraction():
    queue = RandomDropQueue(10**9, drop_probability=0.3, seed=1)
    accepted = sum(
        1 for _ in range(2000)
        if queue.enqueue(Packet(1, 2, 3, 4, payload=MSS))
    )
    assert 1250 < accepted < 1550  # ~70% of 2000
    assert queue.random_drops == 2000 - accepted


def test_random_drop_queue_deterministic_from_seed():
    def accepted(queue):
        return [
            queue.enqueue(Packet(1, 2, 3, 4, payload=MSS)) for _ in range(500)
        ]

    first = accepted(RandomDropQueue(10**9, drop_probability=0.3, seed=42))
    second = accepted(RandomDropQueue(10**9, drop_probability=0.3, seed=42))
    other = accepted(RandomDropQueue(10**9, drop_probability=0.3, seed=43))
    assert first == second
    assert first != other


def test_random_drop_queue_validates():
    with pytest.raises(ValueError):
        RandomDropQueue(1000, drop_probability=1.0, seed=0)
    with pytest.raises(ValueError):  # exactly one of rng/seed
        RandomDropQueue(1000, drop_probability=0.5)
    with pytest.raises(ValueError):
        RandomDropQueue(1000, 0.5, rng=random.Random(0), seed=1)


def test_protocols_survive_random_loss():
    """End-to-end robustness: 1% random loss, all protocols complete."""
    from repro.net.topology import dumbbell
    from repro.sim.units import MILLISECOND, seconds
    from repro.transport.base import FlowState
    from repro.transport.registry import get_protocol, open_flow

    for proto in ("tcp", "dctcp", "tfc"):
        rng = random.Random(7)
        topo = dumbbell(
            n_senders=2,
            queue_factory=lambda rate: RandomDropQueue(256_000, 0.01, rng=rng),
        )
        get_protocol(proto).install(topo.network)
        receiver = topo.hosts[-1]
        flows = [
            open_flow(h, receiver, proto, size_bytes=300_000, min_rto_ns=MILLISECOND)
            for h in topo.hosts[:2]
        ]
        topo.network.run_for(seconds(5))
        for flow in flows:
            assert flow.state is FlowState.DONE, proto
            assert flow.receiver.bytes_received == 300_000
