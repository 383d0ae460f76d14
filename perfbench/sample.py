"""One benchmark sample: a fresh interpreter runs one workload once.

Invoked by ``run.py`` (never imported by it), with ``PYTHONPATH``
pointing at the checkout's ``src``::

    python3 perfbench/sample.py --workload tfc-dumbbell-bulk --seed 1 \
        [--trace] [--setup-only] [--jobs N] [--spans-out FILE]

It prints one JSON record on its last stdout line: timestamps on the
shared monotonic clock (so the parent can charge interpreter start-up
to ``setup_s`` and ``wall_s``), the time inside ``Network.run_for``,
the simulated outcome, the exact work counters and a digest over the
outcome and counters.  It also times the calibration kernel
(``calibrate.py``) first and last: ``cal_s``, which the parent leaves
out of ``setup_s`` and ``wall_s``, and ``cal_end_s``.  ``--trace`` installs the per-layer spans before
anything is built; ``--setup-only`` stops at the first
``Network.run_for`` (the first cell start, for the sweep).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
from statistics import median
from typing import Dict, List, Optional

from calibrate import calibrate
from catalog import ROOT, WORKLOADS, Workload

monotonic = time.monotonic
perf_counter = time.perf_counter


class SetupDone(Exception):
    """Raised at the first ``Network.run_for`` of a setup-only sample."""


class Probe:
    """Hooks that observe one run; installed once per process.

    Everything here wraps a single call per run (``Network.run_for``,
    the topology builder, ``build_routes``, the tenant mixer), so the
    untraced samples pay nothing per packet.  Pool workers forked by the
    sweep inherit the hooks.
    """

    def __init__(self, setup_only: bool, spans=None) -> None:
        self.setup_only = setup_only
        self.spans = spans
        self.network = None
        self.t_run0: Optional[float] = None
        self.run_s = 0.0
        self.timers: Dict[str, float] = {}
        self.peak_pending = 0

    # ------------------------------------------------------------------
    def install(self) -> None:
        from repro.net.network import Network
        from repro.scenario import run as scenario_run
        from repro.workloads.mixer import MultiTenantMixer

        probe = self
        run_for = Network.run_for

        def probed_run_for(network, duration_ns):
            probe.network = network
            if probe.t_run0 is None:
                probe.t_run0 = monotonic()
            if probe.setup_only:
                raise SetupDone()
            start = perf_counter()
            try:
                return run_for(network, duration_ns)
            finally:
                probe.run_s += perf_counter() - start

        Network.run_for = probed_run_for
        Network.build_routes = self._timed(Network.build_routes, "routes_s")
        MultiTenantMixer.__init__ = self._timed(MultiTenantMixer.__init__, "build_s")
        for kind, builder in list(scenario_run._BUILDERS.items()):
            scenario_run._BUILDERS[kind] = self._timed(builder, "topology_s")
        if self.spans is not None:
            self._track_pending()
            self.spans.install()

    def _timed(self, fn, key: str):
        timers = self.timers

        def timed(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                timers[key] = timers.get(key, 0.0) + perf_counter() - start

        return timed

    def _track_pending(self) -> None:
        """Record the peak live-event count (traced samples only)."""
        from repro.sim.engine import Simulator

        probe = self
        original = Simulator.schedule

        def schedule(sim, delay_ns, callback, *args):
            event = original(sim, delay_ns, callback, *args)
            # Live entries in the store; the simulator's own live count is
            # only settled when run() returns.
            sched = sim._sched
            heap = sim._heap_list
            stored = len(heap) if heap is not None else sched._size
            if stored - sched._dead > probe.peak_pending:
                probe.peak_pending = stored - sched._dead
            return event

        Simulator.schedule = schedule

    # ------------------------------------------------------------------
    def measure(self, fn, **kwargs):
        """Run one cell under observation; returns (result, record)."""
        self.network = None
        self.run_s = 0.0
        self.timers.clear()
        self.peak_pending = 0
        spans = self.spans
        if spans is not None:
            spans.reset()
            covered_before = spans.open_child_time()
        t_start = monotonic()
        start = perf_counter()
        result = fn(**kwargs)
        elapsed = perf_counter() - start
        t_end = monotonic()
        record = {
            "t_start": t_start,
            "t_end": t_end,
            "run_s": self.run_s,
            "timers": dict(self.timers),
        }
        record.update(outcome(result, self.network))
        if spans is not None:
            spans.close_root(elapsed, covered_before)
            record["spans"] = spans.snapshot()
            record["peak_pending"] = self.peak_pending
        self.network = None
        return result, record


# ----------------------------------------------------------------------
# Simulated outcome and exact counters of one finished run
# ----------------------------------------------------------------------
def outcome(result, network) -> dict:
    """Outcome metrics, exact counters and their digest for one run."""
    from repro.metrics.stats import jain_fairness
    from repro.transport.base import Sender
    from repro.workloads.mixer import tenant_senders

    scalars = result.scalars
    duration_ns = scalars["duration_ms"] * 1e6
    flows = sum(v for k, v in scalars.items() if k.startswith("flows:"))
    fcts = [v for k, v in scalars.items() if k.startswith("fct_p99_us:")]
    per_flow = [
        sender.stats.bytes_acked * 8e9 / duration_ns
        for senders in tenant_senders(network).values()
        for sender in senders
    ]
    switch_ports = [port for switch in network.switches for port in switch.ports]
    all_ports = [port for node in network.nodes for port in node.ports]
    senders = [
        endpoint
        for host in network.hosts
        for endpoint in host._connections.values()
        if isinstance(endpoint, Sender)
    ]
    tracer = network.tracer.counters
    counters = {
        "sim.events_processed": network.sim.events_processed,
        "port.tx_packets": sum(p.tx_packets for p in all_ports),
        "queue.enqueues": sum(p.queue.enqueues for p in all_ports),
        "queue.drops": sum(p.queue.drops for p in all_ports),
        "queue.max_bytes_seen": max(p.queue.max_bytes_seen for p in all_ports),
        "switch_queue.max_bytes_seen": max(
            (p.queue.max_bytes_seen for p in switch_ports), default=0
        ),
        "queue.ecn_marks": sum(getattr(p.queue, "marks", 0) for p in all_ports)
        + sum(getattr(p.agent, "marked_packets", 0) for p in switch_ports),
        "transport.segments": sum(s.stats.packets_sent for s in senders),
        "transport.retransmits": sum(s.stats.retransmissions for s in senders),
        "transport.timeouts": sum(s.stats.timeouts for s in senders),
        "transport.bytes_sent": sum(s.stats.bytes_sent for s in senders),
        "transport.bytes_acked": sum(s.stats.bytes_acked for s in senders),
    }
    counters.update({f"tracer.{topic}": n for topic, n in sorted(tracer.items())})
    sim = {
        "sim_goodput_mbps": sum(
            v for k, v in scalars.items() if k.startswith("goodput_mbps:")
        ),
        "sim_flows": flows,
        "sim_flows_completed": scalars["flows_completed"],
        "sim_jain_tenants": scalars["jain_tenants"],
        "sim_jain_flows": jain_fairness(per_flow) if len(per_flow) > 1 else 1.0,
        "sim_peak_queue_kb": counters["switch_queue.max_bytes_seen"] / 1000.0,
        "sim_drops": scalars["total_drops"],
        "invariant_violations": scalars.get("invariant_violations", 0.0),
    }
    if fcts:
        sim["sim_fct_p99_us"] = max(fcts)
    digest_input = json.dumps(
        {"scalars": {k: repr(v) for k, v in sorted(scalars.items())}, "counters": counters},
        sort_keys=True,
    )
    return {
        "sim": sim,
        "counters": counters,
        "digest": hashlib.sha256(digest_input.encode()).hexdigest(),
    }


# ----------------------------------------------------------------------
# Running the workloads
# ----------------------------------------------------------------------
def run_single(workload: Workload, scenario, seed: int, probe: Probe) -> dict:
    """One run of a scenario document through ``run_scenario``."""
    from repro.scenario import run_scenario

    try:
        _, record = probe.measure(run_scenario, scenario=scenario, seed=seed)
    except SetupDone:
        return {"t_setup": probe.t_run0}
    record["t_setup"] = probe.t_run0
    record["t_result"] = record["t_end"]
    record["failed_cells"] = int(record["sim"]["invariant_violations"] > 0)
    return record


def run_sweep(workload: Workload, seed: int, probe: Probe, jobs: int) -> dict:
    """The transport sweep through ``run_cells`` and its process pool.

    The ``scenario`` cell entry point is swapped for one that measures
    the cell inside the worker and returns its record on the result.
    """
    from repro.experiments import runner, scenario_cells
    from repro.experiments.common import ExperimentResult

    def measured_cell(**kwargs):
        if probe.setup_only:
            result = ExperimentResult(name="setup-only", protocol="")
            result.bench = {"t_start": monotonic()}
            return result
        result, record = probe.measure(scenario_cells.run_scenario_cell, **kwargs)
        result.bench = record
        return result

    runner.FIGURE_CELLS["scenario"] = measured_cell
    # No per-cell seed: the runner derives each cell's seed from the
    # root seed and the cell's identity, as for any default sweep, so
    # the four cells draw independent traffic.
    specs = [
        runner.CellSpec(
            "scenario",
            {
                "scenario": workload.relpath,
                "duration_ms": workload.duration_ms,
                "transport": transport,
            },
        )
        for transport in workload.transports
    ]
    t_call = monotonic()
    results = runner.run_cells(specs, jobs=jobs, root_seed=seed)
    t_done = monotonic()
    cells = [r.bench for r in results]
    first_start = min(c["t_start"] for c in cells)
    if probe.setup_only:
        return {"t_setup": first_start}
    sims = [c["sim"] for c in cells]
    fcts = [s["sim_fct_p99_us"] for s in sims if "sim_fct_p99_us" in s]
    sim = {
        "sim_goodput_mbps": sum(s["sim_goodput_mbps"] for s in sims),
        "sim_flows": sum(s["sim_flows"] for s in sims),
        "sim_flows_completed": sum(s["sim_flows_completed"] for s in sims),
        "sim_jain_tenants": min(s["sim_jain_tenants"] for s in sims),
        "sim_jain_flows": min(s["sim_jain_flows"] for s in sims),
        "sim_peak_queue_kb": max(s["sim_peak_queue_kb"] for s in sims),
        "sim_drops": sum(s["sim_drops"] for s in sims),
        "invariant_violations": sum(s["invariant_violations"] for s in sims),
    }
    if fcts:
        sim["sim_fct_p99_us"] = max(fcts)
    counters: Dict[str, int] = {}
    for cell in cells:
        for key, value in cell["counters"].items():
            if key.endswith("max_bytes_seen"):
                counters[key] = max(counters.get(key, 0), value)
            else:
                counters[key] = counters.get(key, 0) + value
    timers: Dict[str, float] = {}
    for cell in cells:
        for key, value in cell["timers"].items():
            timers[key] = timers.get(key, 0.0) + value
    cell_walls = [c["t_end"] - c["t_start"] for c in cells]
    sweep_wall = t_done - t_call
    record = {
        "t_setup": first_start,
        "t_result": t_done,
        "run_s": sum(c["run_s"] for c in cells),
        "timers": timers,
        "sim": sim,
        "counters": counters,
        "digest": hashlib.sha256("".join(c["digest"] for c in cells).encode()).hexdigest(),
        "failed_cells": sum(1 for s in sims if s["invariant_violations"] > 0),
        "sweep": {
            "cells": len(cells),
            "pool_start_s": first_start - t_call,
            "cell_wall_s": median(cell_walls),
            "worker_idle_frac": 1.0 - sum(cell_walls) / (jobs * sweep_wall),
        },
    }
    if probe.spans is not None:
        from spans import merge_snapshots

        # Pool cells ran in workers, so this process's own spans are the
        # runner's; serial cells already reported everything they ran.
        own = [probe.spans.snapshot()] if jobs > 1 else []
        record["spans"] = merge_snapshots([c["spans"] for c in cells] + own)
        record["peak_pending"] = max(c["peak_pending"] for c in cells)
    return record


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--jobs", type=int, default=None)
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    cal_s = calibrate()  # before anything of the program is loaded
    os.chdir(ROOT)  # sweep cells resolve their document relative to it

    # The import a user of the workload pays: the scenario layer, plus
    # the runner for the sweep.
    start = perf_counter()
    from repro.scenario import load_scenario_file

    if workload.is_sweep:
        import repro.experiments.runner  # noqa: F401

    import_s = perf_counter() - start
    start = perf_counter()
    scenario = load_scenario_file(workload.path)
    validate_s = perf_counter() - start

    spans = None
    if args.trace:
        from spans import Spans

        spans = Spans()
    probe = Probe(args.setup_only, spans)
    probe.install()
    if workload.is_sweep:
        jobs = workload.jobs if args.jobs is None else args.jobs
        record = run_sweep(workload, args.seed, probe, jobs)
    else:
        record = run_single(workload, scenario, args.seed, probe)
    record["import_s"] = import_s
    record["validate_s"] = validate_s
    usage = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    record["rss_mb"] = usage / 1024.0
    record["cal_s"] = cal_s
    record["cal_end_s"] = calibrate()
    if spans is not None and args.spans_out:
        spans.dump(args.spans_out, record["spans"])
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
