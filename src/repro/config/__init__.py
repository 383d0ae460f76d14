"""repro.config — one coherent configuration surface.

Two pieces:

* :class:`SimConfig` — a frozen dataclass carrying scheduler, routing,
  transport, telemetry and seed selection, accepted by
  ``Simulator(config=...)``, ``Network(config=...)`` and the experiment
  runner (``run_cells(config=...)``).
* :func:`env` — the single validated context manager behind every
  ``REPRO_*`` environment knob (scheduler backend, routing policy,
  telemetry mode and directory, lossless fabric, shard count).

Name registries are re-exported here so callers can enumerate every
selection surface from one import::

    from repro.config import SCHEDULER_NAMES, ROUTING_NAMES, TELEMETRY_MODES
"""

from ..obs.session import TELEMETRY_MODES
from ..routing import ROUTING_NAMES
from ..sim.sched import SCHEDULER_NAMES
from .envvars import (
    KNOBS,
    LOSSLESS_ENV_VAR,
    LOSSLESS_MODES,
    ROUTING_ENV_VAR,
    SCHEDULER_ENV_VAR,
    SHARDS_ENV_VAR,
    TELEMETRY_DIR_ENV_VAR,
    TELEMETRY_ENV_VAR,
    EnvKnob,
    current,
    env,
    lossless_mode,
    routing_name,
    scheduler_name,
    shard_count,
    telemetry_dir,
    telemetry_mode,
)
from .simconfig import SimConfig

__all__ = [
    "SimConfig",
    "env",
    "current",
    "EnvKnob",
    "KNOBS",
    "scheduler_name",
    "routing_name",
    "telemetry_mode",
    "telemetry_dir",
    "lossless_mode",
    "shard_count",
    "SCHEDULER_NAMES",
    "ROUTING_NAMES",
    "TELEMETRY_MODES",
    "LOSSLESS_MODES",
    "SCHEDULER_ENV_VAR",
    "ROUTING_ENV_VAR",
    "TELEMETRY_ENV_VAR",
    "TELEMETRY_DIR_ENV_VAR",
    "LOSSLESS_ENV_VAR",
    "SHARDS_ENV_VAR",
]
