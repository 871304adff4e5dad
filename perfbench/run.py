"""End-to-end alert-service benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Spawns ``repro serve`` from this checkout's ``src/`` (journal on, 64-bit
primes, the 32x32 Huffman city), drives one workload of
:mod:`workloads` against it over TCP and prints, as its last stdout line, one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics, with ``setup_s`` the median of
``--setups`` full set-ups.  ``--trace 1`` runs the workload once untraced and
once through ``traced_serve.py`` and reports the per-layer metrics of the
traced run, the traced run's end-to-end numbers (``traced.*``), the tracing
overhead (``overhead.*``) and each layer's self-time share (``share.*``),
naming the dominant layer on stdout.

``--delay NAME=MS`` (repeatable; benchmark self-check only) starts every
server through ``traced_serve.py`` with a fixed delay in one wrapped function.

Every result is also written, with its provenance, to
``.perfbench/results/<workload>-s<seed>-t<trace>.json``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_LIMIT_S = 170.0
#: A run whose generator fired more than this late (p99) is invalid: the
#: offered load was not the nominal one.
LAG_LIMIT_MS = 50.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "ingest_p50_ms": "ms",
    "ingest_p95_ms": "ms",
    "ingest_capacity_rps": "1/s",
    "tick_p50_ms": "ms",
    "tick_p90_ms": "ms",
    "server_rss_mb": "MB",
}
OVERHEAD_OF = ("ingest_p50_ms", "ingest_capacity_rps", "tick_p50_ms", "alert_p50_ms")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="End-to-end alert-service benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setups", type=int, default=3, help="set-ups behind the setup_s median")
    parser.add_argument("--delay", action="append", default=[], help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def calibration_ms() -> float:
    """Host speed: min of five timings of a fixed pure-Python workload."""
    best = float("inf")
    for _ in range(5):
        gc.collect()
        started = time.perf_counter()
        acc = 3
        for _ in range(5000):
            acc = pow(acc, 65537, (1 << 127) - 1)
        best = min(best, (time.perf_counter() - started) * 1000.0)
    return best


def source_revision() -> dict:
    """Git revision when available, plus a hash of the served source tree."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    revision = None
    if (ROOT / ".git").exists():
        try:
            revision = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            revision = None
    return {"git_revision": revision, "src_sha256": digest.hexdigest()[:16]}


class Run:
    """One benchmark invocation: inputs, sessions and the metrics they yield."""

    def __init__(self, args: argparse.Namespace):
        from workloads import WORKLOADS, CiphertextPool, Inputs, make_scenario

        self.args = args
        if args.workload not in WORKLOADS:
            raise SystemExit(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
        self.workload = WORKLOADS[args.workload]
        self.scratch = ROOT / ".perfbench" / f"run-{os.getpid()}"
        self.sessions: list = []
        scenario = make_scenario()
        self.inputs = Inputs(self.workload, args.seed, args.seconds, scenario,
                             CiphertextPool(scenario))
        self.delay_launcher = [arg for item in args.delay for arg in ("--delay", item)]

    def session(self, traced: bool = False):
        from harness import Session

        workdir = self.scratch / f"session-{len(self.sessions)}"
        workdir.mkdir(parents=True)
        launcher = list(self.delay_launcher) or None
        if traced:
            launcher = [*self.delay_launcher, "--spans", str(workdir / "spans.json")]
        session = Session(self.inputs, workdir, launcher)
        self.sessions.append(session)
        return session

    def measure(self, traced: bool = False):
        session = self.session(traced)
        gc.collect()
        gc.freeze()
        session.setup()
        session.run()
        session.stop()
        return session

    def setup_only(self) -> float:
        session = self.session()
        session.setup()
        session.stop()
        return session.timings["setup_s"]

    def kill_all(self) -> None:
        for session in self.sessions:
            session.kill()

    def cleanup(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)


def windowed(latencies: list, q: float) -> float:
    """Median, over consecutive windows, of each window's ``q``-percentile.

    ``latencies`` are in arrival order.  Each window keeps at least five
    samples beyond its percentile, up to eight windows.  A slowdown that
    covers most of the run moves the figure; a few seconds of host noise
    move one or two windows, not the median.
    """
    from layers import percentile

    windows = max(1, min(8, int(len(latencies) * (1.0 - q) / 5)))
    size = len(latencies) / windows
    values = [percentile(latencies[round(k * size):round((k + 1) * size)], q)
              for k in range(windows)]
    return statistics.median(values)


def end_to_end(session, setup_s: float) -> dict:
    from layers import percentile

    open_loop = sorted((o for o in session.outcomes if o.phase == "main" and o.error is None),
                       key=lambda o: o.scheduled)
    devices = [o.latency_ms for o in open_loop if o.op.kind in ("move", "ingest")]
    ticks = [o.latency_ms for o in open_loop if o.op.kind == "tick"]
    if not (devices and ticks):
        raise RuntimeError("workload produced no device or tick samples")
    values = {
        "setup_s": setup_s,
        "ingest_p50_ms": windowed(devices, 0.50),
        "ingest_p95_ms": windowed(devices, 0.95),
        "ingest_capacity_rps": session.capacity_rps,
        "tick_p50_ms": windowed(ticks, 0.50),
        "tick_p90_ms": windowed(ticks, 0.90),
        "server_rss_mb": session.rss_mb,
    }
    return {name: {"value": value, "unit": END_TO_END_UNITS[name]} for name, value in values.items()}


def alert_latency(session) -> dict:
    """Time to notify for a new alert, from the quiescent probe publishes:
    per zone the median of its publishes, then the percentile over zones.

    Not an end-to-end metric: these single in-flight requests amplify host
    speed swings two- to threefold, beyond the benchmark's bounds."""
    from layers import percentile

    runs: dict = {}
    for o in session.outcomes:
        if o.phase == "probe" and o.op.kind == "alert" and o.error is None:
            zone = o.op.request.alert_id.rsplit("-", 1)[0]
            runs.setdefault(zone, []).append(o.latency_ms)
    zones = [statistics.median(latencies) for latencies in runs.values()]
    return {"alert_p50_ms": percentile(zones, 0.50), "alert_p90_ms": percentile(zones, 0.90)}


def seeded_counts(session) -> dict:
    """Counts fixed by the seed: pairings per quiescent probe pass and tokens
    per probe zone."""
    probes = [o for o in session.outcomes if o.error is None and o.phase == "probe"]
    alerts = [o for o in probes if o.op.kind == "alert"]
    return {
        "crypto.pairings_per_pass": {
            "value": sum(o.response.pairings_spent for o in probes) / len(probes), "unit": "count"},
        "encoding.tokens_per_zone": {
            "value": sum(o.response.tokens_evaluated for o in alerts) / len(alerts), "unit": "count"},
    }


def per_layer(plain, traced) -> tuple:
    """Metrics of ``--trace 1`` and the ranked layers."""
    from layers import LayerMetrics, SpanSet, percentile, rank_layers

    spans = json.loads((traced.workdir / "spans.json").read_text(encoding="utf-8"))["spans"]
    span_set = SpanSet(spans)
    windows = [tuple(int(t * 1e9) for t in window) for window in traced.windows["open_loop"]]
    whole = [(windows[0][0], int(traced.windows["end"] * 1e9))]
    metrics = {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in LayerMetrics(span_set, windows, whole).compute().items()
    }
    metrics.update(seeded_counts(traced))
    for name in ("ready_s", "populate_s", "first_tick_s"):
        metrics[f"setup.{name}"] = {"value": traced.timings[name], "unit": "s"}
    metrics["loadgen.lag_ms_p99"] = {"value": percentile(traced.lags_ms, 0.99), "unit": "ms"}
    metrics["loadgen.fail_frac"] = {
        "value": traced.tally.failed / traced.tally.attempted, "unit": "ratio"}
    plain_e2e = {name: entry["value"]
                 for name, entry in end_to_end(plain, plain.timings["setup_s"]).items()}
    plain_e2e.update(alert_latency(plain))
    traced_e2e = {name: entry["value"]
                  for name, entry in end_to_end(traced, traced.timings["setup_s"]).items()}
    traced_e2e.update(alert_latency(traced))
    for name in ("alert_p50_ms", "alert_p90_ms"):
        metrics[f"alert.{name[6:]}"] = {"value": plain_e2e[name], "unit": "ms"}
    for name, value in traced_e2e.items():
        metrics[f"traced.{name}"] = {"value": value, "unit": END_TO_END_UNITS.get(name, "ms")}
    for name in OVERHEAD_OF:
        metrics[f"overhead.{name}"] = {
            "value": traced_e2e[name] / plain_e2e[name] - 1.0, "unit": "ratio"}
    handled = [s for s in span_set.within(whole) if s[0] == "service.handle" and "rids" in s[4]]
    linked = {rid for s in handled for rid in s[4]["rids"]}
    # The client_id:request_id a server span records for each answered request.
    answered = [f"perfbench-{os.getpid()}-{o.conn}:{o.request_id}"
                for o in traced.outcomes if o.error is None]
    metrics["trace.linked_frac"] = {
        "value": sum(rid in linked for rid in answered) / len(answered), "unit": "ratio"}
    return metrics, rank_layers(metrics)


def verdict(run: Run, session) -> tuple:
    """(correct, attempted, failed, problems) of the measured session."""
    from layers import percentile

    tally = session.tally
    problems = list(tally.messages)
    if run.workload.standing_zones:
        main_notifications = sum(
            len(o.response.notifications) for o in session.outcomes
            if o.phase == "main" and o.error is None and o.op.kind in ("tick", "alert")
        )
        if main_notifications == 0:
            problems.append("no notifications in the main phase: matching never ran")
    lag = percentile(session.lags_ms, 0.99)
    if lag > LAG_LIMIT_MS:
        problems.append(f"generator fell behind: lag p99 {lag:.1f} ms > {LAG_LIMIT_MS} ms")
    correct = tally.check_failures == 0 and not problems
    return correct, tally.attempted, tally.failed, problems


def provenance(run: Run) -> dict:
    return {
        "workload": run.workload.name,
        "seed": run.args.seed,
        "seconds": run.args.seconds,
        "trace": run.args.trace,
        "delay": run.args.delay,
        "workload_sha256": run.workload.definition_hash(run.args.seconds),
        **source_revision(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "calibration_ms": calibration_ms(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    run = Run(args)

    def overrun() -> None:
        print(f"run exceeded {RUN_LIMIT_S:.0f} s; stopping", file=sys.stderr, flush=True)
        run.kill_all()
        run.cleanup()
        os._exit(3)

    watchdog = threading.Timer(RUN_LIMIT_S, overrun)
    watchdog.daemon = True
    watchdog.start()
    try:
        if args.trace == 0:
            setups = [run.setup_only() for _ in range(max(0, args.setups - 1))]
            measured = run.measure()
            setups.append(measured.timings["setup_s"])
            metrics = end_to_end(measured, statistics.median(setups))
            unbounded = alert_latency(measured)
            print("alert latency (not gated): " + json.dumps(unbounded))
        else:
            unbounded = {}
            plain = run.measure()
            measured = run.measure(traced=True)
            metrics, ranked = per_layer(plain, measured)
            print(f"dominant layer: repro.{ranked[0][0]} "
                  f"({ranked[0][1] * 100:.1f}% of traced self time); ranking: "
                  + ", ".join(f"repro.{layer} {share * 100:.1f}%" for layer, share in ranked))
        correct, attempted, failed, problems = verdict(run, measured)
    except BaseException:
        run.kill_all()
        raise
    finally:
        watchdog.cancel()
        run.cleanup()
    for problem in problems:
        print(f"check: {problem}", file=sys.stderr)
    record = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    meta = provenance(run)
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps({**record, "alert_latency": unbounded, "provenance": meta}, indent=1),
        encoding="utf-8",
    )
    print("provenance: " + json.dumps(meta, sort_keys=True))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
