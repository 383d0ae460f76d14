"""What the benchmark runs and what it reports.

``WORKLOADS`` names the three scenario workloads; ``END_TO_END`` and
``PER_LAYER`` name every metric with its unit.  ``BENCHMARK.json`` at
the repository root declares the subset that commits are compared on,
with bounds; ``smoke.py`` checks the two agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: The seed used while the benchmark and a change are developed, and the
#: held-out seed a performance claim must also hold on (never tune on it).
DEV_SEED = 1
HELD_OUT_SEED = 7919


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a scenario document plus how to run it."""

    name: str
    document: str
    why: str
    #: Transports swept over the document (``None``: one plain run).
    transports: Optional[Tuple[str, ...]] = None
    #: Simulated length of each sweep cell (the document's own otherwise).
    duration_ms: Optional[float] = None
    jobs: int = 1

    @property
    def relpath(self) -> str:
        """The document's path from the repository root.

        Sweep cells carry it as their scenario label, and the runner
        derives cell seeds from labels, so it must not depend on where
        the checkout lives.
        """
        return f"{HERE.name}/workloads/{self.document}"

    @property
    def path(self) -> Path:
        return ROOT / self.relpath

    @property
    def is_sweep(self) -> bool:
        return self.transports is not None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "tfc-dumbbell-bulk",
            "tfc-dumbbell-bulk.yaml",
            "Fig. 8/9 setting: 16 long-lived TFC flows, per-packet path "
            "(kernel, port/queue, switch agent, delay arbiter) dominates",
        ),
        Workload(
            "tfc-fattree-mix",
            "tfc-fattree-mix.yaml",
            "three tenants on a k=8 ECMP fat-tree: flow churn, routing, "
            "multi-hop forwarding, telemetry, invariant monitor, 80-switch build",
        ),
        Workload(
            "tenant-sweep-jobs2",
            "multi-tenant-mix.yaml",
            "multi-tenant-mix over tfc/dctcp/bfc/fairq through run_cells "
            "with 2 pool workers: process pool, BFC, FairQ and ECN queues",
            transports=("tfc", "dctcp", "bfc", "fairq"),
            duration_ms=40.0,
            jobs=2,
        ),
    )
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    what: str


#: Host cost of a run and its simulated outcome.  Timings are trimmed
#: means over the run's samples; simulated outcomes are exact at a seed.
END_TO_END = (
    Metric("wall_s", "s", "lower", "workload invoked -> finished result (whole sweep)"),
    Metric("setup_s", "s", "lower",
           "fresh interpreter -> first Network.run_for (sweep: first cell start)"),
    Metric("run_s", "s", "lower", "time inside Network.run_for (sweep: summed over cells)"),
    Metric("peak_rss_mb", "MB", "lower", "max RSS of the run (sweep: parent and workers)"),
    Metric("failed_frac", "ratio", "lower",
           "runs (sweep: cells) that raised, timed out, broke determinism "
           "or reported invariant violations"),
    Metric("sim_goodput_mbps", "Mbps", "higher", "acked payload rate summed over tenants"),
    Metric("sim_fct_p99_us", "us", "lower", "max over tenants of the p99 FCT"),
    Metric("sim_flows_completed_frac", "ratio", "higher", "completed / opened flows"),
    Metric("sim_jain_tenants", "ratio", "higher", "Jain index over tenant goodputs"),
    Metric("sim_jain_flows", "ratio", "higher", "Jain index over per-flow goodputs"),
    Metric("sim_peak_queue_kb", "KB", "lower",
           "max queue.max_bytes_seen over switch ports, in 1000 B"),
    Metric("sim_drops", "count", "lower", "drop-tail losses over all ports"),
    Metric("invariant_violations", "count", "lower", "TFC invariant monitor violations"),
)

#: Per-layer metrics of the traced run.  Counts are exact at a seed;
#: ``*_s`` self times are medians over the traced samples.
PER_LAYER = (
    Metric("sim.events", "count", "lower", "events executed"),
    Metric("sim.schedule_calls", "count", "lower", "Simulator.schedule calls"),
    Metric("sim.events_per_hop", "ratio", "lower", "events / packet-hops (frames sent)"),
    Metric("sim.cancel_frac", "ratio", "lower", "Event.cancel calls / schedule calls"),
    Metric("sim.peak_pending", "count", "lower", "max live pending events"),
    Metric("sim.self_s", "s", "lower", "self time: engine dispatch, schedule, timers"),
    Metric("net.port.tx_frames", "count", "lower", "sum of Port.tx_packets"),
    Metric("net.queue.enqueues", "count", "lower", "sum of queue.enqueues"),
    Metric("net.queue.drops", "count", "lower", "sum of queue.drops"),
    Metric("net.queue.peak_bytes", "B", "lower", "max queue.max_bytes_seen over all ports"),
    Metric("net.port.self_s", "s", "lower", "self time: ports and queues"),
    Metric("net.node.forwards", "count", "lower", "Switch.forward calls"),
    Metric("net.host.deliveries", "count", "lower", "Host._deliver calls"),
    Metric("net.node.self_s", "s", "lower", "self time: switches and hosts"),
    Metric("core.transits", "count", "lower", "TfcPortAgent.on_transit calls"),
    Metric("core.reverse_arrivals", "count", "lower", "TfcPortAgent.on_reverse_arrival calls"),
    Metric("core.window_updates", "count", "lower", "tfc.window_update emissions"),
    Metric("core.delay.offers", "count", "lower", "DelayArbiter.offer calls"),
    Metric("core.delay.held_frac", "ratio", "lower", "ACKs parked or dropped / offers"),
    Metric("core.self_s", "s", "lower", "self time: TFC switch agent and delay arbiter"),
    Metric("routing.selects", "count", "lower", "RoutingPolicy.select calls"),
    Metric("routing.self_s", "s", "lower", "self time: routing policies"),
    Metric("transport.flows_opened", "count", "lower", "open_flow calls"),
    Metric("transport.segments", "count", "lower", "data segments sent"),
    Metric("transport.retransmits", "count", "lower", "segments retransmitted"),
    Metric("transport.timeouts", "count", "lower", "retransmission timeouts"),
    Metric("transport.useful_frac", "ratio", "higher", "acked payload / payload sent"),
    Metric("transport.self_s", "s", "lower", "self time: senders, receivers, open_flow"),
    Metric("workloads.build_s", "s", "lower", "MultiTenantMixer construction (untraced)"),
    Metric("workloads.self_s", "s", "lower", "self time: workload generators"),
    Metric("metrics.fct_records", "count", "lower", "FctRecord objects created"),
    Metric("metrics.self_s", "s", "lower", "self time: FCT collector and statistics"),
    Metric("faults.checks", "count", "lower", "invariant checks run"),
    Metric("faults.self_s", "s", "lower", "self time: invariant monitor, fault engine"),
    Metric("obs.emits", "count", "lower", "tracer emissions (all topics)"),
    Metric("obs.self_s", "s", "lower", "self time: tracer and telemetry"),
    Metric("scenario.import_s", "s", "lower", "fresh-interpreter import of repro (untraced)"),
    Metric("scenario.validate_s", "s", "lower", "load and validate the document (untraced)"),
    Metric("net.topology_build_s", "s", "lower", "topology builder minus routes (untraced)"),
    Metric("net.routes_s", "s", "lower", "Network.build_routes (untraced)"),
    Metric("experiments.cells", "count", "lower", "cells run through run_cells"),
    Metric("experiments.pool_start_s", "s", "lower", "run_cells call -> first cell start"),
    Metric("experiments.cell_wall_s", "s", "lower", "median cell wall time"),
    Metric("experiments.worker_idle_frac", "ratio", "lower",
           "1 - sum(cell wall) / (jobs x sweep wall)"),
    Metric("net.fabric.pause_frames", "count", "lower", "BFC/PFC pause frames"),
    Metric("net.fabric.ecn_marks", "count", "lower", "ECN marks over all queues"),
    Metric("net.fabric.self_s", "s", "lower", "self time: BFC, FairQ and PFC fabrics"),
    Metric("trace.overhead_frac", "ratio", "lower", "traced / untraced run_s - 1"),
)

UNITS = {m.name: m.unit for m in END_TO_END + PER_LAYER}
