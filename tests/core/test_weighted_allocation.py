"""Tests for the weighted token-allocation extension.

The paper's basic model (section 4.1) notes that "we could allocate the
total tokens to flows according to any allocation policies"; this is the
simplest non-fair policy: a flow of weight w counts as w effective flows
and receives w shares of the tokens.
"""

import pytest

from repro.net.topology import dumbbell
from repro.sim.units import seconds
from repro.transport.registry import get_protocol, open_flow


def weighted_pair(w_light, w_heavy, duration_s=0.5):
    topo = dumbbell(n_senders=2, queue_factory=get_protocol("tfc").port_queue_factory(256_000))
    get_protocol("tfc").install(topo.network)
    receiver = topo.hosts[-1]
    light = open_flow(topo.hosts[0], receiver, "tfc", weight=w_light)
    heavy = open_flow(topo.hosts[1], receiver, "tfc", weight=w_heavy)
    topo.network.run_for(seconds(duration_s))
    return topo, light, heavy


@pytest.mark.parametrize("ratio", [2, 3, 4])
def test_throughput_follows_weights(ratio):
    topo, light, heavy = weighted_pair(1, ratio)
    measured = heavy.stats.bytes_acked / light.stats.bytes_acked
    assert measured == pytest.approx(ratio, rel=0.25)
    assert topo.network.total_drops() == 0


def test_equal_weights_are_fair():
    topo, a, b = weighted_pair(2, 2)
    assert a.stats.bytes_acked == pytest.approx(b.stats.bytes_acked, rel=0.1)


def test_weighted_flows_keep_link_utilised():
    topo, light, heavy = weighted_pair(1, 3)
    total = light.stats.bytes_acked + heavy.stats.bytes_acked
    assert total * 8 / 0.5 > 0.8e9


def test_weight_validation():
    topo = dumbbell(n_senders=1, queue_factory=get_protocol("tfc").port_queue_factory(256_000))
    get_protocol("tfc").install(topo.network)
    with pytest.raises(ValueError):
        open_flow(topo.hosts[0], topo.hosts[-1], "tfc", weight=0)


def test_weight_rejected_for_non_tfc():
    topo = dumbbell(n_senders=1)
    with pytest.raises(ValueError):
        open_flow(topo.hosts[0], topo.hosts[-1], "tcp", weight=2)


def test_weight_carried_on_rm_packets():
    from repro.net.packet import Packet

    topo = dumbbell(n_senders=1, queue_factory=get_protocol("tfc").port_queue_factory(256_000))
    get_protocol("tfc").install(topo.network)
    sender = open_flow(topo.hosts[0], topo.hosts[-1], "tfc", size_bytes=0, weight=5)
    pkt = Packet(sender.src_id, sender.dst_id, sender.sport, sender.dport, payload=100)
    sender.next_packet_hook(pkt)
    assert pkt.weight == 5
    syn = Packet(sender.src_id, sender.dst_id, sender.sport, sender.dport, syn=True)
    sender.syn_hook(syn)
    assert syn.weight == 5
