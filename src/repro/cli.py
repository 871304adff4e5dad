"""Command-line interface for the secure location-alert library.

Provides quick access to the experiment drivers and to small demonstration
runs without writing Python::

    python -m repro compare   --rows 32 --cols 32 --sigmoid-a 0.99 --sigmoid-b 100 --radius 100
    python -m repro experiment fig07
    python -m repro experiment fig13 --grid-sizes 8 16 32
    python -m repro simulate  --users 30 --steps 10
    python -m repro chaos     --steps 50 --seed 7
    python -m repro serve     --rows 6 --cols 6 --port 7425
    python -m repro loadgen   --spawn --rates 30 60 120 240 --duration 2
    python -m repro info

The CLI is intentionally a thin layer over :mod:`repro.analysis.experiments`,
:mod:`repro.protocol.simulation` and the :class:`~repro.service.AlertService`
session API; anything it can do is equally available as a library call.
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from typing import Mapping, Optional, Sequence

from repro import __version__
from repro.analysis.experiments import (
    code_length_ratio_sweep,
    compare_schemes_on_workload,
    default_scheme_suite,
    init_timing_sweep,
    le_bound_sweep,
    radius_sweep_comparison,
)
from repro.crypto.backends import available_backends, backend_names, default_backend_name
from repro.datasets.synthetic import make_synthetic_scenario
from repro.protocol.matching import MATCHING_STRATEGIES
from repro.protocol.simulation import AlertServiceSimulation, SimulationConfig
from repro.service import AlertService, Move, NetOptions, PublishZone, ServiceConfig, Subscribe

__all__ = ["build_parser", "main"]


def _format_table(rows: Sequence[Mapping[str, object]]) -> str:
    """Render rows as a fixed-width table."""
    if not rows:
        return "(no rows)"
    columns = list(rows[0].keys())
    widths = {c: max(len(str(c)), max(len(str(r[c])) for r in rows)) for c in columns}
    lines = ["  ".join(str(c).ljust(widths[c]) for c in columns)]
    for row in rows:
        lines.append("  ".join(str(row[c]).ljust(widths[c]) for c in columns))
    return "\n".join(lines)


class _ConfigError(Exception):
    """A flag value the config dataclasses rejected (reported as a usage error)."""


def _checked(build):
    """Run a config constructor, turning its ``ValueError`` into a usage error."""
    try:
        return build()
    except ValueError as exc:
        raise _ConfigError(str(exc)) from None


# ----------------------------------------------------------------------
# Sub-command implementations
# ----------------------------------------------------------------------
def _cmd_info(args: argparse.Namespace) -> int:
    print(f"repro {__version__} - secure location-based alerts (EDBT 2021 reproduction)")
    print("Encoding schemes:", ", ".join(sorted(default_scheme_suite())))
    available = set(available_backends())
    backends = ", ".join(
        f"{name}{'' if name in available else ' (unavailable)'}" for name in backend_names()
    )
    print(f"Crypto backends: {backends}; default: {default_backend_name()}")
    print("See README.md for usage and DESIGN.md for where this reproduction departs from the paper.")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    scenario = make_synthetic_scenario(
        rows=args.rows,
        cols=args.cols,
        sigmoid_a=args.sigmoid_a,
        sigmoid_b=args.sigmoid_b,
        seed=args.seed,
        extent_meters=args.extent_meters,
    )
    workload = scenario.workloads.triggered_radius_workload(args.radius, args.zones)
    comparison = compare_schemes_on_workload(scenario.probabilities, workload)
    print(scenario.describe())
    print(f"workload: {args.zones} triggered zones of radius {args.radius:g} m")
    print(_format_table(comparison.as_rows()))
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    name = args.name.lower()
    if name == "fig07":
        points = le_bound_sweep(cell_counts=tuple(args.cell_counts))
        rows = [
            {
                "n_cells": p.n_cells,
                "numerical_LE": p.numerical,
                "analytical_bound": round(p.analytical_bound, 2),
                "loose_bound": p.loose_bound,
            }
            for p in points
        ]
    elif name in ("fig09", "fig10"):
        scenario = make_synthetic_scenario(
            rows=args.rows, cols=args.cols, sigmoid_a=args.sigmoid_a, sigmoid_b=args.sigmoid_b, seed=args.seed
        )
        sweep = radius_sweep_comparison(
            scenario.grid, scenario.probabilities, radii=tuple(args.radii), num_zones=args.zones, seed=args.seed
        )
        rows = sweep.as_rows()
    elif name == "fig13":
        points = code_length_ratio_sweep(grid_sizes=tuple(args.grid_sizes))
        rows = [
            {
                "n_cells": p.n_cells,
                "average_length": round(p.average_length, 2),
                "max_length": p.max_length,
                "ratio": round(p.ratio, 3),
            }
            for p in points
        ]
    elif name == "fig14":
        points = init_timing_sweep(grid_sizes=tuple(args.grid_sizes))
        rows = [
            {
                "n_cells": p.n_cells,
                "scheme": p.scheme,
                "build_seconds": round(p.build_seconds, 4),
                "reference_length": p.reference_length,
            }
            for p in points
        ]
    elif name == "session":
        return _run_session_experiment(args)
    else:
        print(
            f"unknown experiment {args.name!r}; available: fig07, fig09, fig10, fig13, fig14, "
            "session (the full evaluation lives under benchmarks/)",
            file=sys.stderr,
        )
        return 2
    print(_format_table(rows))
    return 0


def _run_session_experiment(args: argparse.Namespace) -> int:
    """A warm AlertService session: standing zones re-evaluated over many ticks.

    Demonstrates (and measures) the session economics: the token plan and its
    packed worklist are built once, and every later tick reuses both.
    """
    scenario = make_synthetic_scenario(
        rows=args.rows, cols=args.cols, sigmoid_a=args.sigmoid_a, sigmoid_b=args.sigmoid_b,
        seed=args.seed, extent_meters=args.extent_meters,
    )
    config = ServiceConfig(prime_bits=32, seed=args.seed)
    rng = random.Random(args.seed)
    rows = []
    with AlertService(scenario.grid, scenario.probabilities, config=config) as service:
        for i in range(args.session_users):
            cell = rng.randrange(scenario.grid.n_cells)
            service.subscribe(Subscribe(user_id=f"user-{i:03d}", location=scenario.grid.cell_center(cell)))
        workload = scenario.workloads.triggered_radius_workload(args.radius, args.session_zones)
        for index, zone in enumerate(workload.zones):
            service.publish_zone(PublishZone(alert_id=f"zone-{index}", zone=zone, evaluate=False))
        for step in range(args.session_steps):
            mover = f"user-{rng.randrange(args.session_users):03d}"
            cell = rng.randrange(scenario.grid.n_cells)
            service.move(Move(user_id=mover, location=scenario.grid.cell_center(cell)))
            started = time.perf_counter()
            report = service.evaluate_standing()
            rows.append(
                {
                    "step": step,
                    "candidates": report.candidates,
                    "notifications": len(report.notifications),
                    "pairings": report.pairings_spent,
                    "plan_reused": report.plan_reused,
                    "millis": round((time.perf_counter() - started) * 1000, 1),
                }
            )
        stats = service.session_stats()
    print(_format_table(rows))
    print(
        f"session: {stats.requests_handled} requests, {stats.pairings_spent} pairings, "
        f"plan builds/reuses: {stats.plan_builds}/{stats.plan_reuses}"
    )
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    """Run the seeded chaos soak and report the parity verdict.

    Exit code 0 means the faulted run matched the fault-free run bit-exactly
    with no torn snapshot -- the same bar the CI chaos job enforces.
    ``--net`` swaps in the network-tier soak: the scripted session over TCP
    under conn_drop/frame_corrupt/slow_client faults must notify exactly the
    same users as the in-process run.
    """
    from repro.service.faults import DEFAULT_CHAOS_SPEC, FaultPlan, run_chaos_soak

    if args.faults is not None:
        _checked(lambda: FaultPlan.parse(args.faults))
    if args.net and args.crash_restart:
        from repro.net import DEFAULT_NET_CHAOS_SPEC, run_crash_restart_soak

        outcome = run_crash_restart_soak(
            steps=args.steps,
            seed=args.seed,
            # SIGKILLs land on top of the frame-level fault sites by default:
            # the retrying load must survive both at once.
            faults=args.faults if args.faults is not None else DEFAULT_NET_CHAOS_SPEC,
            users=args.users,
            kills=args.kills,
        )
        print(outcome.summary())
        return 0 if outcome.matched and outcome.leaked_processes == 0 else 1

    if args.net:
        from repro.net import DEFAULT_NET_CHAOS_SPEC, run_net_chaos_soak

        outcome = run_net_chaos_soak(
            steps=args.steps,
            seed=args.seed,
            faults=args.faults if args.faults is not None else DEFAULT_NET_CHAOS_SPEC,
            users=args.users,
        )
        print(outcome.summary())
        return 0 if outcome.matched else 1

    outcome = run_chaos_soak(
        steps=args.steps,
        seed=args.seed,
        faults=args.faults if args.faults is not None else DEFAULT_CHAOS_SPEC,
        users=args.users,
    )
    print(outcome.summary())
    return 0 if outcome.matched and outcome.snapshots_intact else 1


def _cmd_simulate(args: argparse.Namespace) -> int:
    scenario = make_synthetic_scenario(
        rows=args.rows, cols=args.cols, sigmoid_a=args.sigmoid_a, sigmoid_b=args.sigmoid_b,
        seed=args.seed, extent_meters=args.extent_meters,
    )
    config = _checked(
        lambda: SimulationConfig(
            num_users=args.users,
            alert_rate_per_step=args.alert_rate,
            alert_radius=args.radius,
            seed=args.seed,
        )
    )
    # The workload above drives an AlertService session configured by this
    # one ServiceConfig.
    service_config = _checked(
        lambda: ServiceConfig(
            prime_bits=args.prime_bits,
            seed=args.seed,
            crypto_backend=args.backend,
            matching_strategy=args.matching_strategy,
        )
    )
    with AlertServiceSimulation(
        scenario.grid, scenario.probabilities, config=config, service_config=service_config
    ) as simulation:
        result = simulation.run(args.steps)
    print(_format_table(result.as_rows()))
    print(
        f"totals: {result.total_reports} reports, {result.total_alerts} alerts, "
        f"{result.total_notifications} notifications, {result.total_pairings} pairings"
    )
    return 0


def _serve_config(args: argparse.Namespace) -> ServiceConfig:
    """The ServiceConfig both ``serve`` and a spawned loadgen server use."""
    return _checked(
        lambda: ServiceConfig(
            prime_bits=args.prime_bits,
            seed=args.service_seed,
            journal_path=args.journal,
            faults=args.faults,
            fault_seed=args.fault_seed,
            net=NetOptions(
                host=args.host,
                port=args.port,
                max_inflight=args.max_inflight,
                max_inflight_per_conn=args.per_conn_inflight,
                batch_max=args.batch_max,
                batch_window_ms=args.batch_window_ms,
            ),
        )
    )


def _serve_child_argv(args: argparse.Namespace, port: int) -> list:
    """Rebuild the ``repro serve`` argv for a supervised child process.

    ``--supervise`` itself is dropped (the child serves directly) and the
    port is pinned to ``port`` so every restart rebinds the same address.
    """
    argv = [
        sys.executable, "-m", "repro", "serve",
        "--rows", str(args.rows), "--cols", str(args.cols),
        "--sigmoid-a", str(args.sigmoid_a), "--sigmoid-b", str(args.sigmoid_b),
        "--seed", str(args.seed), "--extent-meters", str(args.extent_meters),
        "--host", args.host, "--port", str(port),
        "--prime-bits", str(args.prime_bits),
        "--service-seed", str(args.service_seed),
        "--max-inflight", str(args.max_inflight),
        "--batch-max", str(args.batch_max),
        "--batch-window-ms", str(args.batch_window_ms),
    ]
    if args.journal is not None:
        argv += ["--journal", args.journal]
    if args.snapshot is not None:
        argv += ["--snapshot", args.snapshot]
    if args.per_conn_inflight is not None:
        argv += ["--per-conn-inflight", str(args.per_conn_inflight)]
    if args.faults is not None:
        argv += ["--faults", args.faults, "--fault-seed", str(args.fault_seed)]
    return argv


def _run_supervisor(args: argparse.Namespace) -> int:
    """Watchdog around ``repro serve``: restart the server whenever it crashes.

    The child's stdout (including its ``listening on HOST:PORT`` readiness
    line) is relayed verbatim, prefixed by one ``supervisor: serving pid=N``
    line per (re)start so harnesses can track the live server process.  A
    kernel-assigned port (``--port 0``) is pinned after the first bind, so
    restarts rebind the same address and clients ride through on retries.
    Crash-looping is bounded by exponential backoff (0.1s doubling to 5s),
    reset once a child stays up 5 seconds.  SIGINT/SIGTERM are forwarded to
    the child, which drains and (with ``--snapshot``) checkpoints; a clean
    child exit ends supervision.
    """
    import signal
    import subprocess

    if args.journal is None and args.snapshot is None:
        print(
            "warning: --supervise without --journal/--snapshot restarts from an empty session",
            file=sys.stderr,
        )
    port = args.port
    stopping = False
    child: Optional[subprocess.Popen] = None

    def _forward(signum: int, frame: object) -> None:
        nonlocal stopping
        stopping = True
        if child is not None and child.poll() is None:
            child.send_signal(signum)

    previous = {s: signal.signal(s, _forward) for s in (signal.SIGINT, signal.SIGTERM)}
    backoff = 0.1
    restarts = 0
    try:
        while not stopping:
            child = subprocess.Popen(
                _serve_child_argv(args, port),
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
                text=True,
            )
            started = time.time()
            print(f"supervisor: serving pid={child.pid} restarts={restarts}", flush=True)
            for line in child.stdout:
                line = line.rstrip("\n")
                print(line, flush=True)
                if line.startswith("listening on "):
                    port = int(line.rsplit(":", 1)[1])
            rc = child.wait()
            uptime = time.time() - started
            if stopping or rc == 0:
                return rc
            restarts += 1
            if uptime >= 5.0:
                backoff = 0.1  # a stable run earns a fresh backoff schedule
            print(
                f"supervisor: server pid={child.pid} exited rc={rc} after {uptime:.1f}s; "
                f"restarting in {backoff:.1f}s",
                flush=True,
            )
            time.sleep(backoff)
            backoff = min(backoff * 2.0, 5.0)
        return 0
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        if child is not None and child.poll() is None:
            child.send_signal(signal.SIGTERM)
            try:
                child.wait(timeout=30)
            except Exception:
                child.kill()


def _cmd_serve(args: argparse.Namespace) -> int:
    """Serve one AlertService session over TCP until SIGINT/SIGTERM.

    Prints ``listening on HOST:PORT`` (flushed) once the socket is bound so
    harnesses -- the loadgen ``--spawn`` path, the CI smoke job -- can block
    on readiness by watching stdout.  Shutdown is graceful: inflight requests
    drain and are answered, then (with ``--snapshot``) the session state is
    snapshotted, which also checkpoints the write-ahead journal.  With
    ``--supervise`` this process instead becomes a watchdog that runs the
    server as a child and restarts it on crash (see :func:`_run_supervisor`).
    """
    import asyncio
    import signal

    from repro.net import AlertServiceServer

    # Validate before supervising, so a bad flag fails once instead of
    # crash-looping the child.
    config = _serve_config(args)
    if args.supervise:
        return _run_supervisor(args)

    scenario = make_synthetic_scenario(
        rows=args.rows, cols=args.cols, sigmoid_a=args.sigmoid_a, sigmoid_b=args.sigmoid_b,
        seed=args.seed, extent_meters=args.extent_meters,
    )
    with AlertService(scenario.grid, scenario.probabilities, config=config) as service:
        import pathlib

        restored = False
        if args.snapshot is not None:
            snapshot = pathlib.Path(args.snapshot)
            if snapshot.exists():
                # A previous graceful stop (or crash + journal) left durable
                # state: resume the session instead of starting empty.
                service.restore(snapshot)
                print(f"restored session from {snapshot}", flush=True)
                restored = True
        if not restored and args.journal is not None and pathlib.Path(args.journal).exists():
            # No snapshot to anchor on, but the write-ahead journal survived
            # (e.g. a crash before the first snapshot): replay its fsynced
            # prefix so journaled-but-unexecuted requests are not lost.
            replayed = service.replay_journal()
            if replayed:
                print(f"replayed {replayed} journal entries from {args.journal}", flush=True)
        server = AlertServiceServer(service, snapshot_path=args.snapshot)

        async def run() -> None:
            stop = asyncio.Event()
            loop = asyncio.get_running_loop()
            for signum in (signal.SIGINT, signal.SIGTERM):
                loop.add_signal_handler(signum, stop.set)
            await server.start()
            print(f"listening on {server.options.host}:{server.port}", flush=True)
            await stop.wait()
            print("draining...", flush=True)
            await server.stop()
            stats = server.stats
            print(
                f"served {stats.responses_sent} responses "
                f"({stats.errors_returned} errors, {stats.busy_rejections} busy, "
                f"{stats.requests_coalesced} coalesced)",
                flush=True,
            )
            print(
                f"dispatch: {stats.ticks_executed} ticks, "
                f"{stats.group_commits} group commits ({stats.fsyncs_saved} fsyncs saved), "
                f"stages journal={stats.stage_journal_ms:.1f}ms "
                f"execute={stats.stage_execute_ms:.1f}ms "
                f"encode={stats.stage_encode_ms:.1f}ms",
                flush=True,
            )

        asyncio.run(run())
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    """Open-loop load sweep against a live server (optionally spawned here)."""
    import asyncio

    from repro.net import publish_sweep, render_table, run_sweep

    if args.spawn:
        # Check the spawned server's flags here, so a bad value is reported
        # as such instead of as a server that never became ready.
        _checked(
            lambda: ServiceConfig(
                prime_bits=args.prime_bits,
                seed=args.service_seed,
                net=NetOptions(host=args.host, port=args.port, max_inflight=args.max_inflight),
            )
        )
    scenario = make_synthetic_scenario(
        rows=args.rows, cols=args.cols, sigmoid_a=args.sigmoid_a, sigmoid_b=args.sigmoid_b,
        seed=args.seed, extent_meters=args.extent_meters,
    )
    process = None
    host, port = args.host, args.port
    try:
        if args.spawn:
            import subprocess

            serve_args = [
                sys.executable, "-m", "repro", "serve",
                "--rows", str(args.rows), "--cols", str(args.cols),
                "--sigmoid-a", str(args.sigmoid_a), "--sigmoid-b", str(args.sigmoid_b),
                "--seed", str(args.seed), "--extent-meters", str(args.extent_meters),
                "--host", host, "--port", str(port),
                "--prime-bits", str(args.prime_bits),
                "--service-seed", str(args.service_seed),
                "--max-inflight", str(args.max_inflight),
            ]
            process = subprocess.Popen(
                serve_args, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True
            )
            deadline = time.time() + 120.0
            while True:
                line = process.stdout.readline()
                if line.startswith("listening on "):
                    port = int(line.rsplit(":", 1)[1])
                    break
                if (not line and process.poll() is not None) or time.time() > deadline:
                    print("spawned server never became ready", file=sys.stderr)
                    return 1
        sweep = asyncio.run(
            run_sweep(
                host,
                port,
                scenario,
                rates=args.rates,
                duration=args.duration,
                seed=args.seed,
                users=args.users,
                connections=args.connections,
                prime_bits=args.prime_bits,
                service_seed=args.service_seed,
                warmup_seconds=args.warmup_seconds,
                retry_busy=args.retry,
            )
        )
    finally:
        if process is not None:
            import signal as _signal

            process.send_signal(_signal.SIGINT)
            try:
                process.wait(timeout=30)
                # Relay the server's drain report (dispatch stage timings and
                # group-commit counters) into our output.
                for line in process.stdout.read().splitlines():
                    if line and not line.startswith("draining"):
                        print(f"server: {line}")
            except Exception:
                process.kill()
    print(render_table(sweep))
    if args.results_dir is not None:
        path = publish_sweep(sweep, args.results_dir)
        print(f"wrote {path}")
    if args.assert_clean and sweep.total_dropped > 0:
        print(f"FAIL: {sweep.total_dropped} requests dropped/errored", file=sys.stderr)
        return 1
    return 0


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    """Build the CLI argument parser."""
    parser = argparse.ArgumentParser(prog="repro", description="Secure location-based alerts (EDBT 2021 reproduction)")
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    subparsers = parser.add_subparsers(dest="command")

    info = subparsers.add_parser("info", help="show library information")
    info.set_defaults(handler=_cmd_info)

    def add_scenario_options(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--rows", type=int, default=32, help="grid rows (default 32)")
        sub.add_argument("--cols", type=int, default=32, help="grid columns (default 32)")
        sub.add_argument("--sigmoid-a", type=float, default=0.95, help="sigmoid inflection point")
        sub.add_argument("--sigmoid-b", type=float, default=100.0, help="sigmoid gradient")
        sub.add_argument("--seed", type=int, default=7, help="random seed")
        sub.add_argument(
            "--extent-meters",
            type=float,
            default=3200.0,
            help="planar domain size per side in meters (default 3200)",
        )

    compare = subparsers.add_parser("compare", help="compare all encoding schemes on one workload")
    add_scenario_options(compare)
    compare.add_argument("--radius", type=float, default=100.0, help="alert-zone radius in meters")
    compare.add_argument("--zones", type=int, default=20, help="number of alert zones")
    compare.set_defaults(handler=_cmd_compare)

    experiment = subparsers.add_parser("experiment", help="run one of the paper's experiments")
    experiment.add_argument("name", help="experiment id: fig07, fig09, fig10, fig13, fig14 or session")
    add_scenario_options(experiment)
    experiment.add_argument("--radii", type=float, nargs="+", default=[20.0, 100.0, 300.0, 600.0])
    experiment.add_argument("--zones", type=int, default=10)
    experiment.add_argument("--cell-counts", type=int, nargs="+", default=[16, 64, 256, 1024])
    experiment.add_argument("--grid-sizes", type=int, nargs="+", default=[8, 16, 32])
    experiment.add_argument("--radius", type=float, default=100.0, help="zone radius for the session experiment")
    experiment.add_argument("--session-users", type=int, default=12, help="subscribers in the session experiment")
    experiment.add_argument("--session-zones", type=int, default=3, help="standing zones in the session experiment")
    experiment.add_argument("--session-steps", type=int, default=8, help="warm ticks in the session experiment")
    experiment.set_defaults(handler=_cmd_experiment)

    chaos = subparsers.add_parser(
        "chaos",
        help="run a seeded fault-injection soak and verify bit-exact parity",
        description="Replay one scripted warm session twice -- fault-free and under a seeded "
        "FaultPlan -- and verify notifications and pairing totals are bit-exact and "
        "snapshots are never torn.",
    )
    chaos.add_argument("--steps", type=int, default=50, help="scripted session steps (default 50)")
    chaos.add_argument("--seed", type=int, default=7, help="seed for the script and the fault plan")
    chaos.add_argument(
        "--faults",
        default=None,
        help='fault spec, e.g. "torn_snapshot=1,fsync_delay=0.1" '
        "(default: the built-in chaos mix for the chosen soak)",
    )
    chaos.add_argument("--users", type=int, default=10, help="subscribed users (default 10)")
    chaos.add_argument(
        "--net",
        action="store_true",
        help="run the network-tier soak instead: a scripted full-mix session over TCP "
        "under conn_drop/frame_corrupt/slow_client faults must produce bit-exact "
        "per-request outcomes vs. the in-process run",
    )
    chaos.add_argument(
        "--crash-restart",
        action="store_true",
        help="with --net: SIGKILL a supervised `repro serve` at seeded script points "
        "while the client rides through on retries; demands bit-exact outcomes, zero "
        "duplicate executions, and zero leaked server processes",
    )
    chaos.add_argument(
        "--kills",
        type=int,
        default=3,
        help="with --crash-restart: how many SIGKILLs to deliver (default 3)",
    )
    chaos.set_defaults(handler=_cmd_chaos)

    def add_net_options(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--host", default="127.0.0.1", help="bind/connect address")
        sub.add_argument("--port", type=int, default=7425, help="TCP port (0 = kernel-assigned)")
        sub.add_argument("--prime-bits", type=int, default=32, help="prime size of the HVE group")
        sub.add_argument(
            "--service-seed",
            type=int,
            default=11,
            help="ServiceConfig.seed: drives key generation, so a loadgen with the same "
            "seed can mint valid device ciphertexts",
        )
        sub.add_argument(
            "--max-inflight",
            type=int,
            default=256,
            help="backpressure high-water mark: queued+executing requests before BUSY",
        )

    serve = subparsers.add_parser(
        "serve",
        help="serve an AlertService session over TCP",
        description="Start the asyncio network front over one AlertService session and run "
        "until SIGINT/SIGTERM; shutdown drains inflight requests and (with --snapshot) "
        "checkpoints durable state.",
    )
    add_scenario_options(serve)
    add_net_options(serve)
    serve.add_argument("--batch-max", type=int, default=64, help="max coalesced ingest batch size")
    serve.add_argument(
        "--batch-window-ms", type=float, default=2.0, help="ingest coalescing wait in milliseconds"
    )
    serve.add_argument("--journal", default=None, help="write-ahead journal path (enables replay)")
    serve.add_argument(
        "--snapshot",
        default=None,
        help="session snapshot path: restored on start when present, written on graceful stop",
    )
    serve.add_argument(
        "--per-conn-inflight",
        type=int,
        default=None,
        help="per-connection inflight quota: a flooding client hits its own BUSY "
        "ceiling before it can starve other connections (default: no per-connection cap)",
    )
    serve.add_argument(
        "--supervise",
        action="store_true",
        help="run as a watchdog: serve in a child process, restart it on crash with "
        "bounded exponential backoff, restoring from --journal/--snapshot each time",
    )
    serve.add_argument(
        "--faults",
        default=None,
        help='arm a seeded FaultPlan inside the server, e.g. "conn_drop=0.04,'
        'journal_write_fail=0.02" (chaos harness hook; default: no injection)',
    )
    serve.add_argument(
        "--fault-seed", type=int, default=0, help="seed for the --faults plan"
    )
    serve.set_defaults(handler=_cmd_serve)

    loadgen = subparsers.add_parser(
        "loadgen",
        help="open-loop load sweep against a live `repro serve`",
        description="Fire seeded Poisson arrivals at the configured offered rates, measuring "
        "latency from each request's *scheduled* arrival (queueing included), and report "
        "p50/p99/p99.9 plus the saturation throughput.",
    )
    add_scenario_options(loadgen)
    add_net_options(loadgen)
    loadgen.add_argument(
        "--spawn",
        action="store_true",
        help="spawn `repro serve` as a subprocess (same scenario/crypto flags) and stop it after",
    )
    loadgen.add_argument(
        "--rates", type=float, nargs="+", default=[30.0, 60.0, 120.0, 240.0],
        help="offered load points in requests/second",
    )
    loadgen.add_argument("--duration", type=float, default=2.0, help="seconds per rate point")
    loadgen.add_argument(
        "--warmup-seconds",
        type=float,
        default=1.0,
        help="unmeasured low-rate burst before the first point, so cold-start cost "
        "stays out of the gated lowest-rate p99 (0 disables)",
    )
    loadgen.add_argument("--users", type=int, default=16, help="subscribed user population")
    loadgen.add_argument("--connections", type=int, default=4, help="client TCP connections")
    loadgen.add_argument(
        "--results-dir", default=None, help="write results/net_tier.txt under this directory"
    )
    loadgen.add_argument(
        "--assert-clean",
        action="store_true",
        help="exit non-zero when any request was dropped, errored, or timed out (the CI smoke bar)",
    )
    loadgen.add_argument(
        "--retry",
        action="store_true",
        help="ride out BUSY rejections and connection loss via request_with_retry "
        "(exactly-once safe against a handshaken server; pair with --assert-clean "
        "for the supervised-restart smoke)",
    )
    loadgen.set_defaults(handler=_cmd_loadgen)

    simulate = subparsers.add_parser("simulate", help="run a small end-to-end service simulation")
    add_scenario_options(simulate)
    simulate.add_argument("--users", type=int, default=30, help="number of subscribed users")
    simulate.add_argument("--steps", type=int, default=10, help="number of simulated time steps")
    simulate.add_argument("--alert-rate", type=float, default=0.5, help="expected alerts per step")
    simulate.add_argument("--radius", type=float, default=100.0, help="alert radius in meters")
    simulate.add_argument("--prime-bits", type=int, default=48, help="prime size of the HVE group")
    simulate.add_argument(
        "--matching-strategy",
        choices=sorted(MATCHING_STRATEGIES),
        default="planned",
        help="service-provider matching path: 'planned' (token plan + fused arithmetic) or 'naive' (element-wise parity path)",
    )
    simulate.add_argument(
        "--backend",
        choices=sorted(backend_names()),
        default=None,
        help="crypto arithmetic backend (default: auto-select, gmpy2 when installed else reference)",
    )
    simulate.set_defaults(handler=_cmd_simulate)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "command", None):
        parser.print_help()
        return 1
    try:
        return int(args.handler(args))
    except _ConfigError as exc:
        print(f"repro {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
