#!/usr/bin/env python3
"""CI perf gate: fail when a tracked provider-side latency regresses >25%.

Compares the freshly generated ``benchmarks/results/BENCH_provider.json``
against the committed baseline ``benchmarks/BENCH_provider_baseline.json``.
The file carries one section per feeding benchmark:

``crypto_core``
    Warm fused packed-worklist matching latency at the 1k-user tier after 1%
    of the users moved (``mover_ms``, the standing-tick case: only the movers
    are evaluated, everyone else is answered from the engine's remembered
    outcomes; the static ``fused_ms`` pass drops them and evaluates every
    user), written by
    ``benchmarks/test_matching_engine.py::test_crypto_core_fused_tier``.
``net_tier``
    Open-loop p99 latency pooled over the sweep's clean uncongested points
    (lower half of the offered rates, zero drops/BUSY -- several hundred
    samples instead of one ~60-sample point) *and* the sweep's saturation
    throughput, both against a live ``repro serve`` process, written by
    ``benchmarks/test_net_tier.py``.

Raw wall-clock is meaningless across machines, so every section carries a
``calibration_ms`` constant -- the time of a fixed pure-Python workload on the
same host, in the same run.  What is compared is the *calibrated* metric:
latencies divide by the calibration (work per unit of host speed), while
throughputs multiply by it (a slower host completes proportionally fewer
requests per second, so rps x calibration is the host-independent quantity).
Each tracked metric declares its direction: a ``lower``-is-better metric
fails when it rises more than ``THRESHOLD`` above the baseline, a
``higher``-is-better one fails when it *drops* more than ``THRESHOLD``
below it.  An improvement beyond the threshold prints a hint to refresh the
baseline but passes.  Sections in the baseline must exist in the current
results with an identical workload definition; a new section or metric only
in the current results is reported but not gated (its first baseline lands
with the refresh).

Usage::

    python benchmarks/check_perf_baseline.py [current.json] [baseline.json]
"""

from __future__ import annotations

import json
import pathlib
import sys

THRESHOLD = 0.25

HERE = pathlib.Path(__file__).parent
DEFAULT_CURRENT = HERE / "results" / "BENCH_provider.json"
DEFAULT_BASELINE = HERE / "BENCH_provider_baseline.json"

#: section name -> list of (label, metric extractor, direction).  ``lower``
#: metrics are latencies (calibrated by division), ``higher`` metrics are
#: throughputs (calibrated by multiplication).
SECTION_METRICS = {
    "crypto_core": [
        (
            "fused 1k-tier mover-pass latency",
            lambda section: float(section["fused_tier"]["mover_ms"]),
            "lower",
        ),
    ],
    "net_tier": [
        (
            "open-loop p99 latency",
            lambda section: float(section["gate"]["p99_ms"]),
            "lower",
        ),
        (
            "saturation throughput",
            lambda section: float(section["saturation_rps"]),
            "higher",
        ),
    ],
}


def calibrated(section: dict, metric, direction: str) -> float:
    """A section's metric in units of its host calibration workload."""
    calibration = float(section["calibration_ms"])
    if calibration <= 0:
        raise ValueError("calibration_ms must be positive")
    if direction == "higher":
        return metric(section) * calibration
    return metric(section) / calibration


def main(argv: list[str]) -> int:
    current_path = pathlib.Path(argv[1]) if len(argv) > 1 else DEFAULT_CURRENT
    baseline_path = pathlib.Path(argv[2]) if len(argv) > 2 else DEFAULT_BASELINE
    if not current_path.exists():
        print(f"perf gate: no current results at {current_path}; run the benchmarks first")
        return 1
    if not baseline_path.exists():
        print(f"perf gate: no committed baseline at {baseline_path}; nothing to compare")
        return 1
    current = json.loads(current_path.read_text(encoding="utf-8")).get("sections", {})
    baseline = json.loads(baseline_path.read_text(encoding="utf-8")).get("sections", {})
    if not baseline:
        print(f"perf gate: baseline {baseline_path} has no sections; refresh it")
        return 1

    failed = False
    improved = False
    for name, metrics in SECTION_METRICS.items():
        if name not in baseline:
            if name in current:
                print(f"perf gate: [{name}] new section (no baseline yet); not gated")
            continue
        if name not in current:
            print(f"perf gate: [{name}] missing from current results; run its benchmark")
            failed = True
            continue
        if current[name].get("workload") != baseline[name].get("workload"):
            print(
                f"perf gate: [{name}] workload definition changed; refresh the baseline "
                f"(cp {current_path} {baseline_path})"
            )
            failed = True
            continue
        for label, metric, direction in metrics:
            try:
                then = calibrated(baseline[name], metric, direction)
            except (KeyError, TypeError):
                print(f"perf gate: [{name}] {label}: not in the baseline yet; not gated")
                continue
            now = calibrated(current[name], metric, direction)
            change = now / then - 1.0
            unit = "rps" if direction == "higher" else "ms"
            print(
                f"perf gate: [{name}] calibrated {label} {now:.3f} vs baseline {then:.3f} "
                f"({change:+.1%}; raw {metric(current[name]):.2f}{unit} on a "
                f"{float(current[name]['calibration_ms']):.1f}ms-calibration host)"
            )
            regressed = change > THRESHOLD if direction == "lower" else change < -THRESHOLD
            if regressed:
                verb = "regressed" if direction == "lower" else "dropped"
                print(f"perf gate: [{name}] FAIL -- {label} {verb} more than {THRESHOLD:.0%}")
                failed = True
            elif (change < -THRESHOLD) if direction == "lower" else (change > THRESHOLD):
                improved = True

    if failed:
        return 1
    if improved:
        print(
            "perf gate: improvement beyond the threshold; consider refreshing the baseline "
            f"(cp {current_path} {baseline_path})"
        )
    print("perf gate: OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
