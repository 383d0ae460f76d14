"""Smoke self-test of the benchmark (about two minutes on two cores).

Run from the repository root::

    python3 perfbench/smoke.py

Checks, for every workload:

* ``BENCHMARK.json`` names exactly the catalog's workloads, and each
  metric it declares exists in the catalog with the same unit;
* a short ``--trace 0`` run and a short ``--trace 1`` run both finish
  ``correct``, print every end-to-end and per-layer metric by name with
  its unit, and emit every declared metric in their JSON line;
* the untraced and traced samples of the ``--trace 1`` run give the
  same simulated digest;

and, once, that ``tenant-sweep-jobs2`` run serially gives the same
digest as its two-worker pool run.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

from catalog import END_TO_END, PER_LAYER, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(workload: str, trace: int) -> str:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
    return proc.stdout


def check_output(workload: str, trace: int, stdout: str, declared: list) -> None:
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    where = f"{workload} trace={trace}"
    assert result["correct"] is True, f"{where}: not correct\n{stdout}"
    assert result["attempted"] >= 1, where
    for metric in declared:
        got = result["metrics"].get(metric["name"])
        assert got is not None, f"{where}: declared metric {metric['name']} missing"
        assert got["unit"] == metric["unit"], f"{where}: unit of {metric['name']}"
    printed = END_TO_END + (PER_LAYER if trace else ())
    for metric in printed:
        pattern = rf"^\s+{re.escape(metric.name)}\s+(\S+ {re.escape(metric.unit)}\b|\(none)"
        assert re.search(pattern, stdout, re.M), f"{where}: {metric.name} not printed"
    assert re.search(r"^  failed_frac base: \d+ failed of \d+ ", stdout, re.M), where
    assert "agree=True" in stdout, f"{where}: digests disagree"


def sweep_digest(jobs: int) -> str:
    proc = subprocess.run(
        [sys.executable, str(HERE / "sample.py"), "--workload", "tenant-sweep-jobs2",
         "--seed", "3", "--jobs", str(jobs)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])["digest"]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    known_metrics = {m.name: m for m in END_TO_END + PER_LAYER}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        known = known_metrics[metric["name"]]
        assert (known.unit, known.better) == (metric["unit"], metric["better"]), metric
    for workload in WORKLOADS:
        for trace in (0, 1):
            declared = spec["per_layer" if trace else "end_to_end"]
            check_output(workload, trace, bench(workload, trace), declared)
            print(f"ok {workload} trace={trace}", flush=True)
    serial, pooled = sweep_digest(1), sweep_digest(2)
    assert serial == pooled, f"sweep digest differs: jobs=1 {serial} jobs=2 {pooled}"
    print("ok tenant-sweep-jobs2 jobs=1 digest == jobs=2 digest")
    return 0


if __name__ == "__main__":
    sys.exit(main())
