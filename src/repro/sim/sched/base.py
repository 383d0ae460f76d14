"""Scheduler backend interface for the event kernel.

A :class:`Scheduler` owns the pending-event store for one
:class:`~repro.sim.engine.Simulator`.  The contract every backend must
honour — and that :mod:`tests.sim.test_sched_backends` enforces with a
cross-backend differential fuzz — is *bit-exact pop ordering*:

* Events pop in strictly ascending ``(time, seq)`` order; ``seq`` is the
  kernel's monotonically increasing schedule counter, so same-timestamp
  events pop in FIFO schedule order.
* Cancellation is lazy: :meth:`~repro.sim.engine.Event.cancel` marks the
  event dead and the backend discards the entry whenever it surfaces (or
  earlier, during compaction).  Dead events are recycled through the
  simulator's shared free list the moment the backend drops them.
* :meth:`pop_due` never pops an event beyond the horizon, and never loses
  or reorders entries when probed with a horizon before the next event —
  a backend may advance internal cursors past *empty* regions, but an
  event scheduled later into an already-passed region must still pop in
  correct global order (backends keep a sorted front buffer, or never
  advance past non-empty regions, to guarantee this).

Backends store ``(time, seq, event)`` triples (possibly transformed, e.g.
negated for tail-popping), never bare events, so ordering comparisons run
as C tuple comparisons and never reach the event object.

Engine inlining (one note for all backends — the per-backend copies of
this rationale were consolidated here):

* ``Simulator._bind_backend`` recognises the three stock backends by
  exact type and drains each through a dedicated inlined loop in
  ``run()`` — heap head pops, calendar hot-bucket tail pops, wheel due-
  buffer tail pops — with no function call per event.  ``schedule()``
  likewise inserts straight into the recognised backend's store.  The
  inlined copies must be kept in sync with the methods here; the slow
  corners (rebuilds, refills, year scans) stay behind method calls.
* ``Event.cancel`` inlines :meth:`Scheduler.note_cancel`; the method
  remains for direct backend users and tests.
* Subclassing a stock backend (test shadows, instrumentation) opts out
  of all inlining automatically — the engine falls back to the generic
  bound ``push``/``pop_due`` path.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

# Compaction fires when a backend holds more dead entries than live ones
# and is big enough for the O(n) sweep to pay for itself.  Shared by all
# backends so timer-churn behaviour is uniform.
COMPACT_MIN_ENTRIES = 256

Entry = Tuple[int, int, object]  # (time_ns, seq, event)


class Scheduler:
    """Base class: shared dead-entry bookkeeping and the backend API."""

    #: registry / display name, overridden per backend
    name = "abstract"

    def __init__(self) -> None:
        # The simulator's free list is attached via bind_free_list() so
        # every backend (and a mid-run backend switch) recycles retired
        # Event objects through the same pool.
        self._free: List[object] = []
        self._size = 0  # stored entries, live + dead
        self._dead = 0  # stored entries whose event is cancelled

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def bind_free_list(self, free: List[object]) -> None:
        """Share the simulator's Event free list with this backend."""
        self._free = free

    def stored(self) -> int:
        """Stored entries, live + dead (heap overrides with len())."""
        return self._size

    # ------------------------------------------------------------------
    # Core API (implemented per backend)
    # ------------------------------------------------------------------
    def push(self, time_ns: int, seq: int, event) -> None:
        """Store ``event`` keyed by ``(time_ns, seq)``."""
        raise NotImplementedError

    def pop_due(self, horizon_ns: int):
        """Pop and return the earliest live event with time <= horizon.

        Returns None when no live event is due; dead entries encountered
        on the way are freed.  The returned event still carries its
        ``time`` attribute (the caller advances the clock from it).
        """
        raise NotImplementedError

    def next_live_time(self) -> Optional[int]:
        """Time of the earliest live event, or None when empty."""
        raise NotImplementedError

    def peek_time(self) -> Optional[int]:
        """Non-destructive probe: earliest live event time, or None.

        The contract (enforced by the cross-backend differential test in
        :mod:`tests.sim.test_sched_backends`) is that peeking never pops,
        reorders, or loses entries — an arbitrary number of peeks between
        two pops must leave pop order bit-identical.  The shard
        coordinator (:mod:`repro.sim.shard`) calls this once per barrier
        epoch to compute the conservative horizon, so it may be O(live
        population) but must not perturb state.

        The default delegates to :meth:`next_live_time`, which every
        backend already implements non-destructively (freed dead entries
        do not count as perturbation — they were unobservable).  Backends
        with a cheap head cache may override with a fast path.
        """
        return self.next_live_time()

    def compact(self) -> None:
        """Sweep dead entries out of the store (order-preserving)."""
        raise NotImplementedError

    def drain_live(self) -> Iterator[Entry]:
        """Empty the backend, yielding live entries (any order); frees dead.

        Used when the adaptive policy migrates the population to another
        backend.  After draining, the backend is empty but reusable.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Shared bookkeeping
    # ------------------------------------------------------------------
    def note_cancel(self) -> None:
        """One stored entry just went dead; compact when mostly dead.

        ``Event.cancel`` inlines this logic (see the module docstring);
        the method remains for direct backend users and tests.
        """
        dead = self._dead + 1
        self._dead = dead
        if dead >= COMPACT_MIN_ENTRIES and dead * 2 > self.stored():
            self.compact()

    def __len__(self) -> int:
        """Stored entries including dead ones (diagnostics only)."""
        return self.stored()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{type(self).__name__} size={self.stored()} dead={self._dead}>"
        )
