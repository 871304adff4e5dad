"""Network-tier benchmark: open-loop sweep against a live ``repro serve``.

This is the honest end of the load story: the server is a **separate
process** started exactly as an operator would start it (``python -m repro
serve``), the generator is the open-loop harness of
:mod:`repro.net.loadgen` (Poisson arrivals, latency measured from each
request's scheduled instant), and the sweep covers five offered-load points
so the table shows the latency knee, not a single flattering number.

The run feeds the perf gate twice: the ``net_tier`` section of
``BENCH_provider.json`` carries the p99 pooled over the sweep's clean
uncongested points *and* the sweep's saturation throughput, both calibrated
against the host-speed constant; ``benchmarks/check_perf_baseline.py``
fails CI when the p99 regresses or the saturation drops more than 25%
against the committed baseline.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import pathlib
import signal
import subprocess
import sys
import time

import pytest

from repro.datasets.synthetic import make_synthetic_scenario
from repro.net.loadgen import publish_sweep, render_table, run_sweep

from benchmarks.conftest import calibration_ms, merge_bench_provider, RESULTS_DIR

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

ROWS = COLS = 6
SCENARIO_SEED = 31
SERVICE_SEED = 11
PRIME_BITS = 32
RATES = (40.0, 80.0, 160.0, 320.0, 640.0)
DURATION = 1.5


@contextlib.contextmanager
def _serve():
    """A real ``repro serve`` subprocess; yields (host, port), stops it after."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--rows", str(ROWS), "--cols", str(COLS),
            "--sigmoid-a", "0.9", "--sigmoid-b", "20",
            "--seed", str(SCENARIO_SEED),
            "--host", "127.0.0.1", "--port", "0",
            "--prime-bits", str(PRIME_BITS),
            "--service-seed", str(SERVICE_SEED),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    port = None
    deadline = time.time() + 120.0
    while time.time() < deadline:
        line = process.stdout.readline()
        if line.startswith("listening on "):
            port = int(line.rsplit(":", 1)[1])
            break
        if not line and process.poll() is not None:
            break
    if port is None:
        process.kill()
        pytest.fail("repro serve never reported readiness")
    try:
        yield ("127.0.0.1", port)
    finally:
        process.send_signal(signal.SIGINT)
        try:
            process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()


@pytest.fixture(scope="module")
def served_endpoint():
    with _serve() as endpoint:
        yield endpoint


@pytest.fixture(scope="module")
def scenario():
    # Must match the scenario the served process builds from the same flags
    # (the CLI uses the default extent).
    return make_synthetic_scenario(
        rows=ROWS, cols=COLS, sigmoid_a=0.9, sigmoid_b=20, seed=SCENARIO_SEED
    )


def _sweep(host, port, scenario, rates, duration):
    return asyncio.run(
        run_sweep(
            host,
            port,
            scenario,
            rates=rates,
            duration=duration,
            seed=7,
            users=16,
            connections=4,
            prime_bits=PRIME_BITS,
            service_seed=SERVICE_SEED,
        )
    )


def test_net_tier_open_loop_sweep(served_endpoint, scenario):
    host, port = served_endpoint
    sweep = _sweep(host, port, scenario, RATES, DURATION)
    table = render_table(sweep)
    print("\n" + table)
    publish_sweep(sweep, RESULTS_DIR)

    assert len(sweep.points) >= 5, "the sweep must cover at least 5 offered-load points"
    # The two uncongested points must be clean: an open-loop harness that
    # drops requests at trivial load is measuring its own bugs.
    for point in sorted(sweep.points, key=lambda p: p.rate)[:2]:
        assert point.dropped == 0, f"dropped requests at {point.rate} rps:\n{table}"
        assert point.p99_ms > 0.0
    assert sweep.saturation_rps > 0

    merge_bench_provider(
        "net_tier",
        {
            **sweep.to_json(),
            "calibration_ms": calibration_ms(),
        },
    )

