"""A fixed measure of how fast the host runs Python right now.

The benchmark's host shares its cores with other machines' work, and
its speed drifts by a fifth or more over minutes.  Each sample process
times this kernel when it starts and again when its result is in, and
``run.py`` scales the run's end-to-end times by ``REFERENCE_S`` over
the kernel's typical time, so they read as if the host had run at its
reference speed throughout.

The kernel imitates the simulator's own work: a heap of pending events,
each dispatched to a small object that updates its fields and a shared
counter table, then schedules its next event.  It uses nothing from
the program, so no change to the program moves it.  Never change it:
every recorded result is scaled by it.
"""

from __future__ import annotations

import gc
import heapq
import time

#: The kernel's time on the 2-core Intel Xeon (2.0 GHz, Python 3.11.7)
#: the benchmark was tuned on, in a fresh interpreter.
REFERENCE_S = 0.2

EVENTS = 100_000
FLOWS = 4096


class _Flow:
    __slots__ = ("fid", "sent", "acked", "cwnd", "next_hop")

    def __init__(self, fid: int) -> None:
        self.fid = fid
        self.sent = 0
        self.acked = 0
        self.cwnd = 10
        self.next_hop = fid % 17

    def on_event(self, now: int, heap: list, seq: int, counters: dict) -> None:
        self.sent += 1
        if self.sent % 3 == 0:
            self.acked += 1
            self.cwnd += 1 if self.cwnd < 64 else -32
        counters[self.next_hop] = counters.get(self.next_hop, 0) + 1
        heapq.heappush(heap, (now + 1 + (self.fid * 7919 + self.sent) % 997, seq, self))


def _kernel() -> dict:
    flows = [_Flow(i) for i in range(FLOWS)]
    heap = [(i % 997, i, flow) for i, flow in enumerate(flows)]
    heapq.heapify(heap)
    counters: dict = {}
    seq = FLOWS
    for _ in range(EVENTS):
        now, _, flow = heapq.heappop(heap)
        seq += 1
        flow.on_event(now, heap, seq, counters)
    return counters


def calibrate() -> float:
    """Seconds the kernel takes now.

    The garbage collector is off meanwhile, so the program's objects
    alive at the end of a sample do not slow it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
