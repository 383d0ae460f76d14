"""Tests for DCTCP: ECN echo, alpha estimation, proportional backoff."""

from repro.net.packet import MSS, Packet
from repro.net.queues import EcnQueue
from repro.sim.units import seconds
from repro.transport.dctcp import DctcpReceiver
from repro.transport.registry import EcnParams, get_protocol, open_flow


def established_sender(tiny_net):
    net, a, b, _ = tiny_net
    sender = open_flow(a, b, "dctcp")
    net.run_for(100_000)
    return net, sender


def ack_for(sender, ack, echo=False):
    pkt = Packet(
        sender.dst_id, sender.src_id, sender.dport, sender.sport,
        ack=ack, is_ack=True,
    )
    pkt.ecn_echo = echo
    pkt.retransmitted = True
    pkt.sent_at = None
    return pkt


def test_data_packets_are_ecn_capable(tiny_net):
    net, sender = established_sender(tiny_net)
    pkt = Packet(sender.src_id, sender.dst_id, sender.sport, sender.dport, payload=MSS)
    sender.next_packet_hook(pkt)
    assert pkt.ecn_capable


def test_receiver_echoes_ce_mark(tiny_net):
    net, a, b, _ = tiny_net
    sender = open_flow(a, b, "dctcp")
    data = Packet(sender.src_id, sender.dst_id, sender.sport, sender.dport, payload=MSS)
    data.ecn_ce = True
    ack = Packet(sender.dst_id, sender.src_id, sender.dport, sender.sport, is_ack=True)
    DctcpReceiver.ack_decoration_hook(sender.receiver, ack, data)
    assert ack.ecn_echo
    clean = Packet(sender.src_id, sender.dst_id, sender.sport, sender.dport, payload=MSS)
    ack2 = Packet(sender.dst_id, sender.src_id, sender.dport, sender.sport, is_ack=True)
    DctcpReceiver.ack_decoration_hook(sender.receiver, ack2, clean)
    assert not ack2.ecn_echo


def test_single_cut_per_window(tiny_net):
    net, sender = established_sender(tiny_net)
    sender.cwnd = 20 * MSS
    sender.alpha = 1.0
    net.run_for(20_000)
    una = sender.snd_una
    cwnd_before = sender.cwnd
    sender.on_packet(ack_for(sender, una + MSS, echo=True))
    after_first = sender.cwnd
    assert after_first < cwnd_before  # cut by alpha/2
    sender.on_packet(ack_for(sender, una + 2 * MSS, echo=True))
    # Second mark within the same observation window: no further cut
    # (slow-start/CA growth may nudge it slightly upward).
    assert sender.cwnd >= after_first


def test_cut_is_proportional_to_alpha(tiny_net):
    net, sender = established_sender(tiny_net)
    sender.cwnd = 20 * MSS
    sender.ssthresh = 1.0  # keep CA growth negligible
    sender.alpha = 0.5
    net.run_for(20_000)
    una = sender.snd_una
    before = sender.cwnd
    sender.on_packet(ack_for(sender, una + MSS, echo=True))
    # cwnd * (1 - alpha/2) = 0.75 * before, plus tiny CA growth.
    assert abs(sender.cwnd - 0.75 * before) < MSS


def test_alpha_converges_to_mark_fraction(tiny_net):
    net, sender = established_sender(tiny_net)
    sender.alpha = 0.0
    # Simulate many observation windows with 50% marked bytes.
    for _ in range(200):
        sender._acked_bytes = 1000
        sender._marked_bytes = 500
        sender._roll_observation_window()
    assert abs(sender.alpha - 0.5) < 0.01


def test_alpha_decays_without_marks(tiny_net):
    net, sender = established_sender(tiny_net)
    sender.alpha = 1.0
    for _ in range(100):
        sender._acked_bytes = 1000
        sender._marked_bytes = 0
        sender._roll_observation_window()
    assert sender.alpha < 0.01


def test_dctcp_limits_queue_near_threshold():
    """Fig. 8's DCTCP behaviour: queue oscillates around K, no tail drops."""
    from repro.net.topology import dumbbell

    k = 32_000
    topo = dumbbell(
        n_senders=2,
        queue_factory=get_protocol("dctcp").port_queue_factory(256_000, EcnParams(k)),
    )
    receiver = topo.hosts[-1]
    flows = [open_flow(host, receiver, "dctcp") for host in topo.hosts[:2]]
    topo.network.run_for(seconds(0.5))
    queue = topo.bottleneck("main").queue
    assert isinstance(queue, EcnQueue)
    assert queue.marks > 0
    assert queue.drops == 0
    # Queue stays well below the 256 KB buffer but does reach K territory.
    assert k / 2 <= queue.max_bytes_seen <= 4 * k
    for flow in flows:
        assert flow.stats.bytes_acked > 10_000_000


def test_dctcp_outperforms_tcp_on_queue_length():
    from repro.net.topology import dumbbell

    results = {}
    for proto in ("dctcp", "tcp"):
        topo = dumbbell(
            n_senders=2, queue_factory=get_protocol(proto).port_queue_factory(256_000)
        )
        receiver = topo.hosts[-1]
        for host in topo.hosts[:2]:
            open_flow(host, receiver, proto)
        topo.network.run_for(seconds(0.3))
        results[proto] = topo.bottleneck("main").queue.max_bytes_seen
    assert results["dctcp"] < results["tcp"]
