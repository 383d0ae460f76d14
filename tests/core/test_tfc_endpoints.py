"""Tests for TFC sender/receiver endpoints."""

from repro.net.packet import MSS, Packet, WINDOW_SENTINEL
from repro.sim.units import MILLISECOND, seconds
from repro.transport.base import FlowState
from repro.transport.registry import get_protocol, open_flow


def test_syn_is_rm_marked(tiny_net):
    net, a, b, _ = tiny_net
    sender = open_flow(a, b, "tfc", size_bytes=1000)
    syns = []
    # The SYN is already in flight; inspect via hook on a fresh sender.
    probe = Packet(a.node_id, b.node_id, 1, 2, syn=True)
    sender.syn_hook(probe)
    assert probe.rm


def test_sender_waits_for_window_acquisition(tiny_net):
    net, a, b, _ = tiny_net
    sender = open_flow(a, b, "tfc", size_bytes=100_000)
    assert sender.cwnd == 0.0
    net.run_for(seconds(0.5))
    assert sender.window_acquired
    assert sender.state is FlowState.DONE


def test_synack_window_is_ignored(tiny_net):
    """The SYN-ACK must not grant a window — only the probe's RMA may."""
    net, a, b, _ = tiny_net
    sender = open_flow(a, b, "tfc", size_bytes=100_000)
    synack = Packet(
        b.node_id, a.node_id, sender.dport, sender.sport,
        syn=True, is_ack=True,
    )
    synack.window = 99_999.0
    sender.on_packet(synack)
    assert sender.state is FlowState.ESTABLISHED
    assert sender.cwnd == 0.0  # still unallocated


def test_receiver_copies_window_onto_rma_ack(tiny_net):
    net, a, b, _ = tiny_net
    sender = open_flow(a, b, "tfc", size_bytes=0)
    receiver = sender.receiver
    data = Packet(a.node_id, b.node_id, sender.sport, sender.dport, payload=MSS, rm=True)
    data.window = 5_000.0
    ack = Packet(b.node_id, a.node_id, sender.dport, sender.sport, is_ack=True)
    receiver.ack_decoration_hook(ack, data)
    assert ack.rma
    assert ack.window == 5_000.0


def test_receiver_does_not_rma_mark_syn(tiny_net):
    net, a, b, _ = tiny_net
    sender = open_flow(a, b, "tfc", size_bytes=0)
    receiver = sender.receiver
    syn = Packet(a.node_id, b.node_id, sender.sport, sender.dport, syn=True, rm=True)
    syn.window = 5_000.0
    ack = Packet(b.node_id, a.node_id, sender.dport, sender.sport, is_ack=True, syn=True)
    receiver.ack_decoration_hook(ack, syn)
    assert not ack.rma


def test_receiver_caps_window_at_awnd(tiny_net):
    net, a, b, _ = tiny_net
    sender = open_flow(a, b, "tfc", size_bytes=0, awnd_bytes=4 * MSS)
    receiver = sender.receiver
    data = Packet(a.node_id, b.node_id, sender.sport, sender.dport, payload=MSS, rm=True)
    data.window = 100 * MSS
    ack = Packet(b.node_id, a.node_id, sender.dport, sender.sport, is_ack=True)
    receiver.ack_decoration_hook(ack, data)
    assert ack.window == 4 * MSS


def test_cwnd_follows_rma_window(tiny_net):
    net, a, b, _ = tiny_net
    sender = open_flow(a, b, "tfc", size_bytes=0)
    sender.state = FlowState.ESTABLISHED
    rma = Packet(b.node_id, a.node_id, sender.dport, sender.sport, is_ack=True, rma=True)
    rma.window = 7 * MSS
    rma.retransmitted = True
    rma.sent_at = None
    sender.on_packet(rma)
    assert sender.cwnd == 7 * MSS
    assert sender.window_acquired


def test_exactly_one_rm_per_round(tiny_net):
    net, a, b, _ = tiny_net
    sender = open_flow(a, b, "tfc", size_bytes=0)
    sender.state = FlowState.ESTABLISHED
    sender._mark_next = True
    first = Packet(a.node_id, b.node_id, sender.sport, sender.dport, payload=MSS)
    second = Packet(a.node_id, b.node_id, sender.sport, sender.dport, payload=MSS)
    sender.next_packet_hook(first)
    sender.next_packet_hook(second)
    assert first.rm and not second.rm
    # The next RMA re-arms the mark.
    rma = Packet(b.node_id, a.node_id, sender.dport, sender.sport, is_ack=True, rma=True)
    rma.window = float(MSS)
    rma.retransmitted = True
    rma.sent_at = None
    sender.on_packet(rma)
    third = Packet(a.node_id, b.node_id, sender.sport, sender.dport, payload=MSS)
    sender.next_packet_hook(third)
    assert third.rm


def test_outgoing_window_field_reset_to_sentinel(tiny_net):
    net, a, b, _ = tiny_net
    sender = open_flow(a, b, "tfc", size_bytes=0)
    pkt = Packet(a.node_id, b.node_id, sender.sport, sender.dport, payload=MSS)
    pkt.window = 123.0
    sender.next_packet_hook(pkt)
    assert pkt.window == WINDOW_SENTINEL


def test_probe_retransmitted_if_lost(tiny_net):
    net, a, b, _ = tiny_net
    get_protocol("tfc").install(net)
    sender = open_flow(a, b, "tfc", size_bytes=10_000, min_rto_ns=MILLISECOND)
    receiver = sender.receiver
    # Black-hole everything after the handshake so the probe is lost.
    net.run_for(40_000)
    b.unregister_connection(sender.flow_key)
    net.run_for(5 * MILLISECOND)
    b.register_connection(sender.flow_key, receiver)
    net.run_for(seconds(1))
    assert sender.state is FlowState.DONE


def test_idle_flow_reacquires_window(tiny_net):
    net, a, b, _ = tiny_net
    get_protocol("tfc").install(net)
    sender = open_flow(a, b, "tfc", size_bytes=0)
    sender.fin_on_empty = False
    sender.queue_bytes(20_000)
    net.run_for(seconds(0.01))
    assert sender.stats.bytes_acked == 20_000
    acquired_before = sender.reacquisitions
    net.run_for(seconds(0.05))  # idle well past idle_reacquire_ns
    sender.queue_bytes(20_000)
    assert sender.reacquisitions == acquired_before + 1
    assert not sender.window_acquired  # waiting for the fresh grant
    net.run_for(seconds(0.5))
    assert sender.stats.bytes_acked == 40_000


def test_oversized_held_window_forces_reacquisition(tiny_net):
    net, a, b, _ = tiny_net
    get_protocol("tfc").install(net)
    sender = open_flow(a, b, "tfc", size_bytes=0)
    sender.fin_on_empty = False
    sender.queue_bytes(10_000)
    net.run_for(seconds(0.01))
    sender.cwnd = 100 * MSS  # pretend a tail slot granted the whole pipe
    sender.queue_bytes(10_000)  # gap well under idle_reacquire_ns
    assert sender.reacquisitions == 1
    net.run_for(seconds(0.5))
    assert sender.stats.bytes_acked == 20_000


def test_small_held_window_resumes_without_probe(tiny_net):
    net, a, b, _ = tiny_net
    get_protocol("tfc").install(net)
    # awnd caps the held window below resume_burst_limit.
    sender = open_flow(a, b, "tfc", size_bytes=0, awnd_bytes=2 * MSS)
    sender.fin_on_empty = False
    sender.queue_bytes(10_000)
    while sender.stats.bytes_acked < 10_000:
        net.run_for(100_000)
    # Re-queue right after the final ACK: the gap since the last send is
    # about one RTT, far below the idle limit.
    sender.queue_bytes(10_000)
    assert sender.reacquisitions == 0
    net.run_for(seconds(0.5))
    assert sender.stats.bytes_acked == 20_000


def test_no_window_change_on_loss(tiny_net):
    """TFC never touches the window on loss — the switch owns it."""
    net, a, b, _ = tiny_net
    sender = open_flow(a, b, "tfc", size_bytes=0)
    sender.state = FlowState.ESTABLISHED
    sender.cwnd = 5 * MSS
    sender.window_acquired = True
    sender.on_timeout()
    assert sender.cwnd == 5 * MSS


def test_tfc_transfer_end_to_end(tiny_net):
    net, a, b, _ = tiny_net
    get_protocol("tfc").install(net)
    done = []
    sender = open_flow(a, b, "tfc", size_bytes=500_000, on_complete=done.append)
    net.run_for(seconds(1))
    assert done and sender.stats.bytes_acked == 500_000
    assert sender.stats.timeouts == 0
