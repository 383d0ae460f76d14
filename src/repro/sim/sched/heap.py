"""Binary-heap backend: the PR-2 tuple-heap, unchanged semantics.

The baseline every other backend is differentially fuzzed against.  The
heap stores ``(time, seq, event)`` tuples so sift comparisons are C tuple
comparisons; ``(time, seq)`` is unique, so the event object is never
compared.  Dead entries are discarded lazily at the heap head, or swept
by an in-place compaction when they outnumber live entries.

This backend keeps no entry counter: ``len(self._heap)`` is already O(1)
and always exact, so only ``_dead`` needs maintaining (on the cancel and
dead-pop paths).  The engine drains the heap through an inlined loop —
see the consolidated note in :mod:`repro.sim.sched.base` — which is why
``compact``/``drain_live`` must mutate ``self._heap`` in place (slice
assignment), keeping the engine's alias of the list valid.
"""

from __future__ import annotations

import heapq
from heapq import heappop as _heappop, heappush as _heappush
from typing import Iterator, List, Optional

from .base import Entry, Scheduler


class HeapScheduler(Scheduler):
    """O(log n) push/pop binary heap — strongest for small populations."""

    name = "heap"

    def __init__(self) -> None:
        super().__init__()
        self._heap: List[Entry] = []

    def stored(self) -> int:
        return len(self._heap)

    def push(self, time_ns: int, seq: int, event) -> None:
        _heappush(self._heap, (time_ns, seq, event))

    def pop_due(self, horizon_ns: int):
        heap = self._heap
        free = self._free
        while heap:
            entry = heap[0]
            event = entry[2]
            if event.cancelled:
                _heappop(heap)
                self._dead -= 1
                free.append(event)
                continue
            if entry[0] > horizon_ns:
                return None
            _heappop(heap)
            return event
        return None

    def next_live_time(self) -> Optional[int]:
        heap = self._heap
        free = self._free
        while heap:
            entry = heap[0]
            if entry[2].cancelled:
                _heappop(heap)
                self._dead -= 1
                free.append(entry[2])
                continue
            return entry[0]
        return None

    def compact(self) -> None:
        # In place — see the module docstring.
        heap = self._heap
        free = self._free
        live_entries = []
        for entry in heap:
            if entry[2].cancelled:
                free.append(entry[2])
            else:
                live_entries.append(entry)
        heap[:] = live_entries
        heapq.heapify(heap)
        self._dead = 0

    def drain_live(self) -> Iterator[Entry]:
        # Empty *in place* (module docstring): a mid-run migration must
        # leave the engine's alias dry, never replaying migrated entries.
        entries = self._heap[:]
        del self._heap[:]
        self._dead = 0
        free = self._free
        for entry in entries:
            if entry[2].cancelled:
                free.append(entry[2])
            else:
                yield entry
