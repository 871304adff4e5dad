"""Sensitivity self-check: a known slowdown must move only the predicted metric.

    python3 perfbench/sensitivity.py [--seeds 101,102,103] [--seconds 40]

Each check starts the server through ``traced_serve.py --delay`` (no tracing),
which busy-waits a fixed time at the start of every call to one public
function, and compares the median of each metric over ``--seeds`` against
undelayed runs of the same seeds:

* ``FusedWorklist.evaluate`` +30 ms must raise ``tick_p50_ms`` on
  ``city_ticks`` by more than its bound, and leave the ``ingest_*`` metrics
  of ``ingest_stream`` (where matching never runs) within their bounds;
* ``RequestJournal.append_batch`` +3 ms must lower
  ``ingest_capacity_rps`` on ``ingest_stream`` by more than its bound, and
  leave the probe ``alert_p50_ms`` of ``city_ticks`` (one group commit per
  alert) within 0.25.

Bounds come from ``BENCHMARK.json``.  Exits 0 when every check holds.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

#: (delay, workload that must move, its metric, workload that must not, its metrics)
CHECKS = (
    ("FusedWorklist.evaluate=30", "city_ticks", "tick_p50_ms",
     "ingest_stream", ("ingest_p50_ms", "ingest_p95_ms", "ingest_capacity_rps")),
    ("RequestJournal.append_batch=3", "ingest_stream", "ingest_capacity_rps",
     "city_ticks", ("alert_p50_ms",)),
)
#: run.py's stdout line with the quiescent-probe alert latency, which is not
#: an end-to-end metric; the check holds it to the common bound of 0.25.
ALERT_LINE = "alert latency (not gated): "
ALERT_BOUND = (0.25, "lower")


def run(workload: str, seed: int, seconds: int, delay: str = None) -> dict:
    argv = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0", "--setups", "1"]
    if delay:
        argv += ["--delay", delay]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = done.stdout.strip().splitlines()
    record = json.loads(lines[-1])
    if not record["correct"] or record["failed"]:
        raise RuntimeError(f"{workload} seed {seed} delay {delay}: run not clean")
    values = {name: entry["value"] for name, entry in record["metrics"].items()}
    for line in lines:
        if line.startswith(ALERT_LINE):
            values.update(json.loads(line[len(ALERT_LINE):]))
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="benchmark sensitivity self-check")
    parser.add_argument("--seeds", default="101,102,103")
    parser.add_argument("--seconds", type=int, default=40)
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    bounds["alert_p50_ms"] = ALERT_BOUND
    medians: dict = {}

    def median(workload: str, metric: str, delay: str = None) -> float:
        key = (workload, delay)
        if key not in medians:
            runs = [run(workload, seed, args.seconds, delay) for seed in seeds]
            medians[key] = {name: statistics.median(r[name] for r in runs) for name in runs[0]}
        return medians[key][metric]

    def worsening(metric: str, base: float, delayed: float) -> float:
        change = (delayed - base) / base
        return change if bounds[metric][1] == "lower" else -change

    ok = True
    for delay, moved_workload, moved_metric, still_workload, still_metrics in CHECKS:
        base = median(moved_workload, moved_metric)
        slow = median(moved_workload, moved_metric, delay)
        moved = worsening(moved_metric, base, slow)
        holds = moved > bounds[moved_metric][0]
        ok &= holds
        print(f"{delay}: {moved_workload} {moved_metric} {base:.2f} -> {slow:.2f} "
              f"({moved:+.1%} worse, bound {bounds[moved_metric][0]:.0%}) "
              f"{'moved' if holds else 'DID NOT MOVE'}")
        for metric in still_metrics:
            base = median(still_workload, metric)
            slow = median(still_workload, metric, delay)
            change = worsening(metric, base, slow)
            holds = change <= bounds[metric][0]
            ok &= holds
            print(f"{delay}: {still_workload} {metric} {base:.2f} -> {slow:.2f} "
                  f"({change:+.1%} worse, bound {bounds[metric][0]:.0%}) "
                  f"{'within bound' if holds else 'OUT OF BOUND'}")
    print("sensitivity self-check " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
