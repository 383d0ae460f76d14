"""Pluggable event-scheduler backends for :class:`repro.sim.engine.Simulator`.

Three interchangeable backends, all bit-identical in pop order (enforced
by ``tests/sim/test_golden_determinism.py`` and the cross-backend
differential fuzz in ``tests/sim/test_sched_backends.py``):

* ``heap``     — the PR-2 tuple heap; O(log n), lowest constant factors,
                 best for small event populations (the default start).
* ``calendar`` — adaptive-width calendar queue; amortised O(1), best for
                 large mixed populations.
* ``wheel``    — hierarchical timer wheel; O(1) schedule, best for heavy
                 armed-then-cancelled timer churn (RTO / delayed-ACK).

``adaptive`` (the default policy) is not a backend class: the simulator
starts on the heap and migrates the live population to the calendar queue
once it crosses a threshold — see ``Simulator`` in :mod:`repro.sim.engine`.

Selection: ``Simulator(scheduler=...)`` takes a name or an instance; the
``REPRO_SCHEDULER`` environment variable sets the default for simulators
constructed without an explicit choice (how the experiment runner and CI
shards select a backend process-wide).
"""

from __future__ import annotations

from .base import Scheduler
from .calendar import CalendarScheduler
from .heap import HeapScheduler
from .wheel import TimerWheelScheduler

#: Name -> backend class (``adaptive`` is a Simulator policy, not a class).
SCHEDULER_BACKENDS = {
    "heap": HeapScheduler,
    "calendar": CalendarScheduler,
    "wheel": TimerWheelScheduler,
}

#: Every accepted value for Simulator(scheduler=...) / REPRO_SCHEDULER.
SCHEDULER_NAMES = ("adaptive",) + tuple(sorted(SCHEDULER_BACKENDS))


def make_scheduler(name: str) -> Scheduler:
    """Instantiate a backend by name (``adaptive`` is rejected here)."""
    try:
        backend = SCHEDULER_BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown scheduler backend {name!r}; "
            f"choose from {', '.join(SCHEDULER_NAMES)}"
        ) from None
    return backend()


__all__ = [
    "Scheduler",
    "HeapScheduler",
    "CalendarScheduler",
    "TimerWheelScheduler",
    "SCHEDULER_BACKENDS",
    "SCHEDULER_NAMES",
    "make_scheduler",
]
