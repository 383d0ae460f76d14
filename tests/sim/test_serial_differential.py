"""Differential fuzz of the serial run loop, backend against backend.

``Simulator.run`` has one dispatch path per stock backend — the inlined
heap, calendar and wheel drains — plus the generic ``pop_due`` loop that
any other backend (including a subclass of a stock one) runs through.
Every path must dispatch the same events at the same times in the same
order.  ``tests/sim/test_sched_backends.py`` drives scripted traces from
outside the loop; these tests attack the loop from inside instead:

* **engine level** — randomized schedule/cancel storms with heavy
  same-nanosecond pile-ups, where callbacks cancel events that share
  their own timestamp, plus runs whose horizon or event bound splits a
  same-time group;
* **network level** — mid-flight interference on the port TX path: a
  PFC XOFF, a loss model eating frames, ``link_down(reroute=True)``
  cutting a busy port, a rate change, and a long TFC run.

The inlined heap drain is the reference; every other path must produce
an identical dispatch/delivery log and identical end state.
"""

import functools
import random

import pytest

from repro.experiments.common import build_topology
from repro.faults import FaultInjector
from repro.net.node import Node
from repro.net.pfc import PfcParams
from repro.net.queues import BernoulliLoss
from repro.net.topology import dumbbell, fat_tree
from repro.sim import sched as sched_module
from repro.sim.engine import Simulator
from repro.sim.sched import CalendarScheduler, HeapScheduler, TimerWheelScheduler
from repro.sim.units import milliseconds, seconds
from repro.transport.registry import open_flow


class _GenericHeap(HeapScheduler):
    """Subclassed backends skip the inlined drains and run ``pop_due``."""


class _GenericCalendar(CalendarScheduler):
    pass


class _GenericWheel(TimerWheelScheduler):
    pass


_GENERIC = {
    "heap": _GenericHeap,
    "calendar": _GenericCalendar,
    "wheel": _GenericWheel,
}

#: Paths compared against the inlined heap drain.  ``<name>/pop_due`` is
#: the stock backend driven through the generic loop.
ENGINE_PATHS = (
    "calendar",
    "wheel",
    "adaptive",
    "heap/pop_due",
    "calendar/pop_due",
    "wheel/pop_due",
)
NETWORK_PATHS = tuple(p for p in ENGINE_PATHS if p != "adaptive")


def _simulator(path: str) -> Simulator:
    name, _, generic = path.partition("/")
    if generic:
        return Simulator(scheduler=_GENERIC[name]())
    return Simulator(scheduler=name)


def test_generic_paths_really_skip_the_inlined_drains():
    for path in ENGINE_PATHS:
        sim = _simulator(path)
        inlined = (sim._heap_list, sim._cal, sim._wheel)
        if path.endswith("/pop_due"):
            assert inlined == (None, None, None), path
        else:
            assert sum(x is not None for x in inlined) == 1, path


# ----------------------------------------------------------------------
# Engine level: random cancel storms with same-time pile-ups
# ----------------------------------------------------------------------
def _storm(path: str, seed: int):
    """A randomized event storm with same-time pile-ups and cancellations.

    Callbacks log ``(now, tag)``, sometimes cancel their own (already
    retired) handle, randomly cancel another *live* event —
    often one sharing their own timestamp, i.e. queued behind them in the
    same-time group being drained — and schedule more work on a coarse
    grid so collisions stay frequent.  Cancels pick among live tags in
    sorted order, so the storm depends only on dispatch order, never on
    a backend's handle recycling.
    """
    sim = _simulator(path)
    rng = random.Random(seed)
    log = []
    live = {}
    next_tag = [0]

    def add(delay: int) -> None:
        tag = next_tag[0]
        next_tag[0] += 1
        live[tag] = sim.schedule(delay, fire, tag)

    def fire(tag: int) -> None:
        log.append((sim.now, tag))
        handle = live.pop(tag)
        if rng.random() < 0.2:
            handle.cancel()  # stale: the event is firing; must be a no-op
        if live and rng.random() < 0.35:
            tags = sorted(live)
            same_time = [t for t in tags if live[t].time == sim.now]
            pool = same_time if same_time and rng.random() < 0.5 else tags
            live.pop(pool[rng.randrange(len(pool))]).cancel()
        for _ in range(rng.randrange(3)):
            # Coarse 10 ns grid => many events share a timestamp.
            add(rng.randrange(0, 8) * 10)

    for _ in range(40):
        add(rng.randrange(1, 5) * 10)
    processed = sim.run(until_ns=5_000)
    return log, processed, sim.now, sim.pending_events


@functools.lru_cache(maxsize=None)
def _storm_reference(seed: int):
    return _storm("heap", seed)


@pytest.mark.parametrize("path", ENGINE_PATHS)
@pytest.mark.parametrize("seed", range(8))
def test_cancel_storm_is_order_identical(seed, path):
    reference = _storm_reference(seed)
    assert _storm(path, seed) == reference
    assert len(reference[0]) > 50  # the storm actually stormed


def _split_group(path: str):
    """Ten events share t=100; horizons and event bounds cut the group."""
    sim = _simulator(path)
    log = []
    for ident in range(10):
        sim.schedule(100, log.append, ident)
    sim.schedule(150, log.append, "late")
    steps = [
        sim.run(until_ns=50),  # horizon before the group: nothing fires
        list(log),
        sim.run(until_ns=100, max_events=4),  # bound lands mid-group
        list(log),
        sim.now,
        sim.run(until_ns=100),  # rest of the group, not the t=150 event
        list(log),
        sim.now,
        sim.run(until_ns=200),
    ]
    return steps, log, sim.now, sim.pending_events


@pytest.mark.parametrize("path", ENGINE_PATHS)
def test_horizon_and_bound_split_same_time_group(path):
    reference = _split_group("heap")
    assert reference[1] == list(range(10)) + ["late"]
    assert reference[0][3] == [0, 1, 2, 3]
    assert _split_group(path) == reference


# ----------------------------------------------------------------------
# Raw backends: pop_due, the generic loop's only entry point
# ----------------------------------------------------------------------
class _Ev:
    __slots__ = ("time", "seq", "cancelled")

    def __init__(self, time_ns, seq):
        self.time = time_ns
        self.seq = seq
        self.cancelled = False


def _push(sched, time_ns, seq):
    event = _Ev(time_ns, seq)
    sched.push(time_ns, seq, event)
    return event


def _drain(sched, horizon_ns):
    out = []
    while True:
        event = sched.pop_due(horizon_ns)
        if event is None:
            return out
        out.append((event.time, event.seq))


@pytest.mark.parametrize("backend", sorted(_GENERIC))
def test_pop_due_pops_same_time_group_in_seq_order(backend):
    sched = sched_module.make_scheduler(backend)
    for seq in (3, 1, 2):
        _push(sched, 100, seq)
    _push(sched, 200, 4)
    assert _drain(sched, 1_000) == [(100, 1), (100, 2), (100, 3), (200, 4)]
    assert sched.pop_due(1_000) is None


@pytest.mark.parametrize("backend", sorted(_GENERIC))
def test_pop_due_respects_horizon(backend):
    sched = sched_module.make_scheduler(backend)
    _push(sched, 500, 1)
    assert sched.pop_due(499) is None
    assert _drain(sched, 500) == [(500, 1)]


@pytest.mark.parametrize("backend", sorted(_GENERIC))
def test_pop_due_skips_and_frees_dead_entries(backend):
    sched = sched_module.make_scheduler(backend)
    free = []
    sched.bind_free_list(free)
    doomed_head = _push(sched, 100, 1)
    _push(sched, 100, 2)
    doomed_mid = _push(sched, 100, 3)
    _push(sched, 100, 4)
    for doomed in (doomed_head, doomed_mid):
        doomed.cancelled = True
        sched.note_cancel()
    assert _drain(sched, 1_000) == [(100, 2), (100, 4)]
    assert sorted(e.seq for e in free) == [1, 3]


# ----------------------------------------------------------------------
# Network level: the port TX path under mid-flight interference
# ----------------------------------------------------------------------
def _state(net):
    rows = []
    for node in net.nodes:
        for port in node.ports:
            queue = port.queue
            rows.append(
                (
                    node.name,
                    port.index,
                    port.tx_packets,
                    port.tx_bytes,
                    port.link.faulted_frames,
                    queue.byte_length,
                    queue.drops,
                    queue.enqueues,
                    queue.max_bytes_seen,
                )
            )
    return rows


def _observe(scenario, path: str):
    """Run ``scenario`` on one dispatch path; return what it observed."""
    name, _, generic = path.partition("/")
    sink = []
    original = Node.receive

    def logged(self, packet, port_index):
        sink.append((self.sim._now, self.node_id, port_index, packet.size))
        return original(self, packet, port_index)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Node, "receive", logged)
        patch.setenv("REPRO_SCHEDULER", name)
        if generic:
            patch.setitem(sched_module.SCHEDULER_BACKENDS, name, _GENERIC[name])
        net = scenario()
        assert type(net.sim._sched) is (
            _GENERIC[name] if generic else sched_module.SCHEDULER_BACKENDS[name]
        )
        return (
            sink,
            net.sim.events_processed,
            net.sim.now,
            dict(sorted(net.tracer.counters.items())),
            _state(net),
            [n.rx_bytes for n in net.nodes],
        )


def _pfc_xoff():
    """Tight PFC watermarks pause host NICs while their queues are busy."""
    topo = build_topology(
        dumbbell,
        "tcp",
        buffer_bytes=256_000,
        n_senders=4,
        seed=1,
        pfc_params=PfcParams(
            xoff_bytes=32_000, xon_bytes=8_000, headroom_bytes=32_000
        ),
    )
    for i in range(4):
        open_flow(topo.host(i), topo.host(4), "tcp", awnd_bytes=200_000)
    topo.network.run_for(milliseconds(20))
    assert topo.network.lossless.pause_frames > 0  # XOFF actually hit
    return topo.network


def _loss_model():
    """A Bernoulli loss model armed mid-run; one RNG draw per enqueue."""
    topo = build_topology(
        dumbbell, "tcp", buffer_bytes=256_000, n_senders=4, seed=2
    )
    injector = FaultInjector(topo.network)
    stream = injector.seeds.stream("fuzz-loss")
    injector.inject_loss(
        topo.host(0).ports[0],
        BernoulliLoss(0.05, stream),
        at_ns=milliseconds(2),
        duration_ns=milliseconds(10),
    )
    for i in range(4):
        open_flow(topo.host(i), topo.host(4), "tcp", awnd_bytes=200_000)
    topo.network.run_for(milliseconds(20))
    assert topo.host(0).ports[0].queue.faulted_drops > 0  # the fault bit
    return topo.network


def _link_down_reroute():
    """Cut an aggregation uplink both ways mid-flight, restore it later."""
    topo = build_topology(
        fat_tree, "tcp", buffer_bytes=256_000, k=4, seed=3, routing="ecmp"
    )
    injector = FaultInjector(topo.network)
    injector.link_down(
        topo.switches[0].ports[2],
        at_ns=milliseconds(1),
        duration_ns=milliseconds(5),
        reroute=True,
    )
    for i in range(4):
        open_flow(topo.hosts[i], topo.hosts[8 + i], "tcp", awnd_bytes=200_000)
    topo.network.run_for(milliseconds(15))
    assert topo.network.route_rebuilds >= 2
    return topo.network


def _rate_change():
    """``degrade_link`` rewrites every sender NIC's rate mid-run."""
    topo = build_topology(
        dumbbell, "tcp", buffer_bytes=256_000, n_senders=4, seed=4
    )
    injector = FaultInjector(topo.network)
    for host in topo.hosts[:4]:
        injector.degrade_link(
            host.ports[0],
            0.25,
            at_ns=milliseconds(3),
            duration_ns=milliseconds(6),
        )
    for i in range(4):
        open_flow(topo.host(i), topo.host(4), "tcp", awnd_bytes=200_000)
    topo.network.run_for(milliseconds(20))
    return topo.network


def _tfc_long_run():
    """The paper's own transport, long enough for thousands of RTTs."""
    topo = build_topology(
        dumbbell, "tfc", buffer_bytes=256_000, n_senders=4, seed=1
    )
    for i in range(4):
        open_flow(topo.host(i), topo.host(4), "tfc")
    topo.network.run_for(seconds(0.05))
    return topo.network


SCENARIOS = {
    "pfc_xoff": _pfc_xoff,
    "loss_model": _loss_model,
    "link_down_reroute": _link_down_reroute,
    "rate_change": _rate_change,
    "tfc_long_run": _tfc_long_run,
}


@functools.lru_cache(maxsize=None)
def _network_reference(name: str):
    return _observe(SCENARIOS[name], "heap")


@pytest.mark.parametrize("path", NETWORK_PATHS)
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_network_interference_is_bit_identical(name, path):
    reference = _network_reference(name)
    assert reference[1] > 1_000  # the scenario did real work
    assert _observe(SCENARIOS[name], path) == reference
