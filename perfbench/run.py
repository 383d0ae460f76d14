"""The repository benchmark: one workload, measured for a fixed time.

Run from the repository root::

    python3 perfbench/run.py --workload tfc-dumbbell-bulk --seed 1 \
        --seconds 40 --trace 0

Each sample is one closed-loop run of the workload in a fresh
interpreter (``sample.py``): the next starts only when the previous
one has finished.  Samples repeat until ``--seconds`` have passed
(at least ``MIN_SAMPLES``), and set-up is measured at least
``MIN_SETUPS`` times.  End-to-end timings are reported as trimmed
means (``typical``; see its docstring for why not medians), scaled to
the reference host speed by the calibration kernel (``calibrate.py``)
that every sample times first and last.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced samples and reports the per-layer metrics of the
traced ones, plus the tracing overhead.

Correctness: every sample at one seed must produce the same digest of
its simulated outputs (result scalars plus exact work counters), traced
or not.  ``attempted`` counts the distinct simulations at the seed (one
run, or one per sweep cell), not the timing repeats of them, so it and
``failed`` are the same in every invocation at one seed.  A simulation
fails if any repeat of it crashed, timed out or disagreed on the
digest, or if its invariant monitor reported violations.  The last
stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the metrics are the ones ``BENCHMARK.json``
declares for the chosen mode.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from statistics import mean, median, quantiles
from typing import Dict, List, Optional

from calibrate import REFERENCE_S
from catalog import DEV_SEED, END_TO_END, HELD_OUT_SEED, PER_LAYER, UNITS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

MIN_SAMPLES = 3
MIN_SETUPS = 5
#: Share of samples dropped at each end before averaging timings.
TRIM = 0.1
#: Wall-clock cap on one benchmark invocation: no sample starts after
#: half of it, and a sample still running at the cap is killed.
BUDGET_S = 170.0


def typical(values) -> float:
    """The mean of ``values`` without the fastest and slowest ``TRIM``.

    On a shared host one sample's time falls in one of two bands about
    1.5x apart, depending on what else the host runs at that moment.
    The median of a run's samples flips between the bands from run to
    run; the trimmed mean weighs them by the time spent in each, which
    repeats better across runs.
    """
    ordered = sorted(values)
    cut = int(len(ordered) * TRIM)
    return mean(ordered[cut:len(ordered) - cut])


class SampleFailed(Exception):
    """A sample process crashed or timed out."""


def spawn(workload: str, seed: int, timeout: float, *flags: str) -> dict:
    """Run one ``sample.py`` process; returns its record with times.

    ``setup_s`` and ``wall_s`` are measured from just before the
    process is spawned, so they include interpreter start-up, but not
    the calibration kernel the sample times first.
    """
    cmd = [sys.executable, str(HERE / "sample.py"), "--workload", workload,
           "--seed", str(seed), *flags]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.monotonic()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        _kill_group(proc.pid)
        proc.communicate()
        raise SampleFailed(f"timed out after {timeout:.0f}s") from None
    finally:
        _kill_group(proc.pid)  # pool workers a crashed sample left behind
        proc.wait()
    if proc.returncode != 0:
        tail = " | ".join(err.strip().splitlines()[-3:])
        raise SampleFailed(f"exit {proc.returncode}: {tail}")
    record = json.loads(out.strip().splitlines()[-1])
    record["setup_s"] = record["t_setup"] - t0 - record["cal_s"]
    if "t_result" in record:  # not for set-up-only samples
        record["wall_s"] = record["t_result"] - t0 - record["cal_s"]
    return record


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def warm_up() -> Optional[str]:
    """Compile the package once (users pay that once, not per run)."""
    if not (SRC / "repro" / "__init__.py").is_file():
        return f"no package at {SRC / 'repro'}"
    proc = subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SRC / "repro")],
        cwd=ROOT, capture_output=True, text=True, timeout=BUDGET_S / 2,
    )
    if proc.returncode != 0:
        return f"compileall failed: {proc.stdout.strip()} {proc.stderr.strip()}"
    return None


# ----------------------------------------------------------------------
# Sampling
# ----------------------------------------------------------------------
class Run:
    """Every sample of one invocation, plus the failure bookkeeping."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.cells_per_run = len(self.workload.transports or (None,))
        self.untraced: List[dict] = []
        self.traced: List[dict] = []
        self.setups: List[float] = []
        self.cals: List[float] = []
        self.errors: List[str] = []
        self.start = time.monotonic()

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def room_for_another(self) -> bool:
        return self.elapsed() < BUDGET_S / 2

    def sample(self, *flags: str) -> Optional[dict]:
        timeout = max(BUDGET_S - self.elapsed(), 1.0)
        try:
            record = spawn(self.workload.name, self.seed, timeout, *flags)
        except SampleFailed as exc:
            self.errors.append(str(exc))
            return None
        self.cals += [record["cal_s"], record["cal_end_s"]]
        if "--trace" not in flags:  # tracing inflates set-up
            self.setups.append(record["setup_s"])
        return record

    def host_factor(self) -> float:
        """Scales this run's times to the reference host speed."""
        return REFERENCE_S / typical(self.cals)

    def measure(self, seconds: float, trace: bool) -> None:
        """Sample until ``seconds`` have passed, then top up set-ups.

        A sample (an untraced/traced pair with ``trace``) is started only
        while it is expected to end less than half a sample past the
        deadline, so runs last ``seconds`` on average.
        """
        deadline = self.start + seconds
        durations: List[float] = []
        while True:
            started = time.monotonic()
            record = self.sample()
            if record is not None:
                self.untraced.append(record)
            if trace:
                flags = ["--trace"]
                if not self.traced:
                    OUT_DIR.mkdir(exist_ok=True)
                    spans_out = OUT_DIR / f"spans-{self.workload.name}-seed{self.seed}.json"
                    flags += ["--spans-out", str(spans_out)]
                record = self.sample(*flags)
                if record is not None:
                    self.traced.append(record)
            durations.append(time.monotonic() - started)
            enough = trace or len(self.untraced) + len(self.errors) >= MIN_SAMPLES
            if enough and time.monotonic() + median(durations) / 2 > deadline:
                break
            if not self.room_for_another():
                break
        while len(self.setups) < MIN_SETUPS and self.room_for_another():
            self.sample("--setup-only")

    # ------------------------------------------------------------------
    def verdict(self) -> Dict[str, object]:
        """Digest agreement and the attempted/failed accounting.

        The operations are the run's distinct simulations: one, or one
        per sweep cell.  Every sample repeats all of them, so a crashed
        or disagreeing sample fails them all; otherwise the failed ones
        are those whose invariant monitor reported violations, which the
        agreeing samples report identically.
        """
        records = self.untraced + self.traced
        digests = Counter(r["digest"] for r in records)
        reference = digests.most_common(1)[0][0] if digests else None
        attempted = self.cells_per_run
        if self.errors or len(digests) != 1:
            failed = attempted
        else:
            failed = records[0]["failed_cells"]
        return {
            "reference": reference,
            "digests_agree": len(digests) == 1,
            "attempted": attempted,
            "failed": failed,
        }


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def host_times(run: Run) -> Dict[str, List[float]]:
    """Every sample's times as measured, before scaling."""
    return {
        "wall_s": [r["wall_s"] for r in run.untraced],
        "setup_s": run.setups,
        "run_s": [r["run_s"] for r in run.untraced],
    }


def end_to_end(run: Run, verdict: dict) -> Dict[str, float]:
    samples = run.untraced
    first = samples[0]["sim"]
    factor = run.host_factor()
    values = {name: typical(times) * factor for name, times in host_times(run).items()}
    values.update({
        "peak_rss_mb": typical(r["rss_mb"] for r in samples),
        "failed_frac": verdict["failed"] / verdict["attempted"],
        "sim_flows_completed_frac": (
            first["sim_flows_completed"] / first["sim_flows"] if first["sim_flows"] else 0.0
        ),
    })
    for name in ("sim_goodput_mbps", "sim_fct_p99_us", "sim_jain_tenants",
                 "sim_jain_flows", "sim_peak_queue_kb", "sim_drops",
                 "invariant_violations"):
        if name in first:
            values[name] = first[name]
    return values


def per_layer(run: Run) -> Dict[str, float]:
    from spans import calls_of, layer_self_s

    traced = run.traced[0]
    spans = traced["spans"]
    counters = traced["counters"]
    selfs = [layer_self_s(r["spans"]) for r in run.traced]

    def self_s(layer: str) -> float:
        return median(s.get(layer, 0.0) for s in selfs)

    def timer(key: str) -> float:
        return median(r["timers"].get(key, 0.0) for r in run.untraced)

    events = counters["sim.events_processed"]
    schedules = calls_of(spans, ".Simulator.schedule")
    offers = calls_of(spans, ".DelayArbiter.offer")
    tracer_total = sum(v for k, v in counters.items() if k.startswith("tracer."))
    values = {
        "sim.events": events,
        "sim.schedule_calls": schedules,
        "sim.events_per_hop": events / max(counters["port.tx_packets"], 1),
        "sim.cancel_frac": calls_of(spans, ".Event.cancel") / max(schedules, 1),
        "sim.peak_pending": traced["peak_pending"],
        "sim.self_s": self_s("sim"),
        "net.port.tx_frames": counters["port.tx_packets"],
        "net.queue.enqueues": counters["queue.enqueues"],
        "net.queue.drops": counters["queue.drops"],
        "net.queue.peak_bytes": counters["queue.max_bytes_seen"],
        "net.port.self_s": self_s("net.port"),
        "net.node.forwards": calls_of(spans, ".Switch.forward"),
        "net.host.deliveries": calls_of(spans, ".Host._deliver"),
        "net.node.self_s": self_s("net.node"),
        "core.transits": calls_of(spans, ".TfcPortAgent.on_transit"),
        "core.reverse_arrivals": calls_of(spans, ".TfcPortAgent.on_reverse_arrival"),
        "core.window_updates": counters.get("tracer.tfc.window_update", 0),
        "core.delay.offers": offers,
        "core.delay.held_frac": counters.get("tracer.tfc.ack_delayed", 0) / max(offers, 1),
        "core.self_s": self_s("core"),
        "routing.selects": sum(
            int(row[1]) for label, row in spans.items()
            if row[0] == "routing" and label.endswith(".select")
        ),
        "routing.self_s": self_s("routing"),
        "transport.flows_opened": calls_of(spans, "repro.transport.registry.open_flow"),
        "transport.segments": counters["transport.segments"],
        "transport.retransmits": counters["transport.retransmits"],
        "transport.timeouts": counters["transport.timeouts"],
        "transport.useful_frac": counters["transport.bytes_acked"]
        / max(counters["transport.bytes_sent"], 1),
        "transport.self_s": self_s("transport"),
        "workloads.build_s": timer("build_s"),
        "workloads.self_s": self_s("workloads"),
        "metrics.fct_records": calls_of(spans, ".FctRecord.__init__"),
        "metrics.self_s": self_s("metrics"),
        "faults.checks": calls_of(spans, ".InvariantMonitor._count_check"),
        "faults.self_s": self_s("faults"),
        "obs.emits": tracer_total,
        "obs.self_s": self_s("obs"),
        "scenario.import_s": median(r["import_s"] for r in run.untraced),
        "scenario.validate_s": median(r["validate_s"] for r in run.untraced),
        "net.topology_build_s": timer("topology_s") - timer("routes_s"),
        "net.routes_s": timer("routes_s"),
        "net.fabric.pause_frames": counters.get("tracer.bfc.pause", 0)
        + counters.get("tracer.pfc.pause", 0),
        "net.fabric.ecn_marks": counters["queue.ecn_marks"],
        "net.fabric.self_s": self_s("net.fabric"),
        "trace.overhead_frac": typical(r["run_s"] for r in run.traced)
        / typical(r["run_s"] for r in run.untraced) - 1.0,
    }
    sweeps = [r["sweep"] for r in run.untraced if "sweep" in r]
    for key in ("cells", "pool_start_s", "cell_wall_s", "worker_idle_frac"):
        values[f"experiments.{key}"] = median(s[key] for s in sweeps) if sweeps else 0
    return values


def layer_counts_agree(run: Run) -> bool:
    """Span call counts must repeat exactly across traced samples."""
    def counts(record: dict) -> Dict[str, int]:
        return {label: int(row[1]) for label, row in record["spans"].items()}

    first = counts(run.traced[0])
    return all(counts(r) == first for r in run.traced[1:])


# ----------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------
def provenance() -> Dict[str, object]:
    sha, dirty = "unknown", None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True).stdout.strip() or "unknown"
            status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                    cwd=ROOT, capture_output=True, text=True).stdout
            dirty = bool(status.strip())
        except OSError:
            pass
    return {
        "git_sha": sha,
        "dirty": dirty,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
    }


def spread(values: List[float]) -> str:
    if len(values) < 2:
        return "n=%d" % len(values)
    q1, mid, q3 = quantiles(values, n=4)
    return f"median={mid:.4g} q1={q1:.4g} q3={q3:.4g} n={len(values)}"


def report(run: Run, verdict: dict, e2e: Dict[str, float],
           layers: Optional[Dict[str, float]]) -> None:
    seed_role = {DEV_SEED: "dev", HELD_OUT_SEED: "held-out"}.get(run.seed, "other")
    print(f"perfbench {run.workload.name} seed={run.seed} ({seed_role}) "
          f"samples={len(run.untraced)} traced={len(run.traced)} setups={len(run.setups)} "
          f"elapsed={run.elapsed():.1f}s")
    print("provenance " + json.dumps(provenance()))
    factor = run.host_factor()
    measured = host_times(run)
    print(f"host kernel {typical(run.cals):.4f} s against {REFERENCE_S} s reference "
          f"(n={len(run.cals)}): times below are scaled by {factor:.4f}; as measured "
          + " ".join(f"{name}={typical(times):.6g}" for name, times in measured.items()))
    samples = {name: [t * factor for t in times] for name, times in measured.items()}
    samples["peak_rss_mb"] = [r["rss_mb"] for r in run.untraced]
    for metric in END_TO_END:
        if metric.name not in e2e:
            print(f"  {metric.name:<26} (none: no flow completed)")
            continue
        if metric.name in samples:
            detail = spread(samples[metric.name])
        else:
            detail = f"exact n={len(run.untraced) + len(run.traced)}"
        print(f"  {metric.name:<26} {e2e[metric.name]:>14.6g} {metric.unit:<6} {detail}")
    repeats = len(run.untraced) + len(run.traced) + len(run.errors)
    print(f"  failed_frac base: {verdict['failed']} failed of {verdict['attempted']} "
          f"{'cells' if run.workload.is_sweep else 'runs'}, each repeated {repeats} times")
    for error in run.errors:
        print(f"  sample failed: {error}")
    if run.untraced:
        counters = run.untraced[0]["counters"]
        print("exact counters " + json.dumps(counters, sort_keys=True))
    print(f"digest {verdict['reference']} agree={verdict['digests_agree']}")
    if layers is not None:
        for metric in PER_LAYER:
            print(f"  {metric.name:<30} {layers[metric.name]:>14.6g} {metric.unit}")


def declared_metrics(trace: bool) -> List[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEV_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Exit through ``spawn``'s cleanup when stopped, not around it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    problem = warm_up()
    if problem is not None:
        print(f"perfbench: cannot run: {problem}", file=sys.stderr)
        return 2
    run = Run(args.workload, args.seed)
    run.measure(args.seconds, trace=bool(args.trace))
    if not run.untraced or (args.trace and not run.traced):
        print("perfbench: no sample finished: " + "; ".join(run.errors), file=sys.stderr)
        return 1

    verdict = run.verdict()
    e2e = end_to_end(run, verdict)
    layers = per_layer(run) if args.trace else None
    report(run, verdict, e2e, layers)

    values = layers if args.trace else e2e
    correct = verdict["digests_agree"] and not run.errors
    if args.trace:
        correct = correct and layer_counts_agree(run)
    correct = correct and e2e["sim_goodput_mbps"] > 0 and e2e["run_s"] > 0
    metrics = {}
    for declared in declared_metrics(bool(args.trace)):
        name = declared["name"]
        if name not in values or declared["unit"] != UNITS.get(name):
            print(f"perfbench: declared metric {name!r} not produced", file=sys.stderr)
            correct = False
            continue
        metrics[name] = {"value": values[name], "unit": declared["unit"]}
    print(json.dumps({
        "correct": bool(correct),
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
