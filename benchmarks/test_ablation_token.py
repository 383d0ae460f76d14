"""Ablation — token adjustment variants (DESIGN.md section 5).

Quantifies the design decisions the reproduction had to make around
Eq. 7:

* ``iterative`` vs the paper's literal ``eq7`` form (the literal form's
  fixed point is sqrt(rho0 x losses), so it leaves goodput on the table
  under sender window quantisation);
* the queue-drain safety term on vs off (off lets a transient backlog
  linger for ~1/(1-alpha) slots).
"""

from conftest import run_once

from repro.core.params import TfcParams
from repro.metrics.samplers import QueueSampler
from repro.net.topology import dumbbell
from repro.sim.units import microseconds, seconds
from repro.transport.registry import get_protocol, open_flow


def run_variant(params, n_flows=5, duration_s=0.8):
    topo = dumbbell(
        n_senders=n_flows, queue_factory=get_protocol("tfc").port_queue_factory(256_000)
    )
    get_protocol("tfc").install(topo.network, params)
    receiver = topo.hosts[-1]
    flows = [open_flow(host, receiver, "tfc") for host in topo.hosts[:n_flows]]
    sampler = QueueSampler(topo.sim, topo.bottleneck("main"), microseconds(100))
    topo.network.run_for(seconds(duration_s))
    goodput = sum(f.stats.bytes_acked for f in flows) * 8 / duration_s
    return {
        "goodput_bps": goodput,
        "queue_mean": sampler.mean(),
        "queue_max": sampler.max(),
        "drops": topo.network.total_drops(),
    }


VARIANTS = {
    "iterative (default)": TfcParams(),
    "eq7 (paper literal)": TfcParams(token_adjustment="eq7"),
    "no queue drain": TfcParams(queue_drain=False),
    "unbounded boost": TfcParams(token_boost_limit=1000.0),
}


def run_all():
    return {name: run_variant(params) for name, params in VARIANTS.items()}


def test_ablation_token_adjustment(benchmark, report):
    results = run_once(benchmark, run_all)

    report(
        "Ablation: token adjustment variants (5 flows, 1 Gbps)",
        ["variant", "goodput (Mbps)", "queue mean (B)", "queue max (B)", "drops"],
        [
            [
                name,
                f"{r['goodput_bps'] / 1e6:.0f}",
                f"{r['queue_mean']:.0f}",
                f"{r['queue_max']:.0f}",
                r["drops"],
            ]
            for name, r in results.items()
        ],
    )

    default = results["iterative (default)"]
    eq7 = results["eq7 (paper literal)"]
    # The compounding form recovers the quantisation loss the literal
    # form cannot.
    assert default["goodput_bps"] > eq7["goodput_bps"]
    # Every variant stays loss-free in this benign steady-state scenario.
    assert all(r["drops"] == 0 for r in results.values())
