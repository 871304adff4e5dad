"""Network-tier chaos soaks: TCP under injected faults vs. fault-free truth.

The in-process chaos soak (:func:`repro.service.faults.run_chaos_soak`)
proves the session survives torn snapshots and slow fsyncs bit-exactly.  The soaks
here extend the bar to the wire, and -- since the exactly-once admission work
-- to the *full* request mix under retry.  A deterministic script of real
:class:`Request` objects (subscriptions, moves, ciphertext ingests, standing
zone publish/retract, evaluation passes) is run twice:

1. in-process against a plain :class:`AlertService` (the fault-free truth);
2. over TCP with faults armed **from the first frame** (no fault-free warmup,
   no retry-idempotent subset), the client leaning on
   :meth:`AlertServiceClient.request_with_retry` throughout.

The verdict demands **every per-request outcome** bit-exact between the runs:
ingest receipts (whose per-user sequence numbers would diverge on any double
execution), retract receipts, and match reports including the pairings spent.
That equality *is* the exactly-once proof -- a duplicated Subscribe would
error, a duplicated Move would burn a sequence number, a duplicated
evaluation would spend extra pairings.

:func:`run_crash_restart_soak` raises the stakes from dropped frames to
killed processes: the server runs as a supervised subprocess
(``repro serve --supervise``) with a write-ahead journal and snapshot path,
and the soak SIGKILLs the live server at seeded script positions while the
client keeps going.  The supervisor restarts the server, the restore path
replays the journal (rebuilding the idempotency cache from the journaled
origin pairs), and the client rides through on retries -- the same bit-exact
outcome parity must hold, with zero leaked processes afterwards.
"""

from __future__ import annotations

import asyncio
import os
import random
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.grid.alert_zone import AlertZone
from repro.net.client import AlertServiceClient
from repro.net.loadgen import ShadowEncryptor
from repro.net.server import AlertServiceServer
from repro.service.config import NetOptions, ServiceConfig
from repro.service.requests import (
    EvaluateStanding,
    IngestBatch,
    IngestReceipt,
    MatchReport,
    Move,
    PublishZone,
    Request,
    RetractReceipt,
    RetractZone,
    Subscribe,
)

__all__ = [
    "DEFAULT_NET_CHAOS_SPEC",
    "NetChaosOutcome",
    "run_net_chaos_soak",
    "CrashRestartOutcome",
    "run_crash_restart_soak",
    "build_soak_script",
]

#: The spec the CLI / CI seed matrix runs: every network fault site active.
DEFAULT_NET_CHAOS_SPEC = "conn_drop=0.04,frame_corrupt=0.04,slow_client=0.05"

#: Both soaks (and the supervised server subprocess) share one scenario and
#: crypto seed, so key material is identical and only the transport differs.
_SCENARIO = dict(rows=6, cols=6, sigmoid_a=0.9, sigmoid_b=20, seed=31, extent_meters=600.0)
_PRIME_BITS = 32
_SERVICE_SEED = 19


def _make_scenario():
    from repro.datasets.synthetic import make_synthetic_scenario

    return make_synthetic_scenario(**_SCENARIO)


def _make_config(faults: Optional[str] = None, fault_seed: int = 0) -> ServiceConfig:
    return ServiceConfig(
        prime_bits=_PRIME_BITS,
        seed=_SERVICE_SEED,
        faults=faults,
        fault_seed=fault_seed,
    )


def build_soak_script(scenario, steps: int, seed: int, users: int = 8) -> List[Request]:
    """One deterministic full-mix request script, shared by both runs.

    Every request kind rides under retry -- including :class:`Subscribe`,
    which is *not* retry-idempotent at the service layer (re-registering a
    pseudonym is an error by design); only the exactly-once admission makes
    resending it safe.  Ingest updates are real HVE ciphertexts pre-minted by
    a :class:`ShadowEncryptor` sharing the server's crypto seed.  Each step
    ends with an :class:`EvaluateStanding` pass, so outcome parity covers the
    matching path continuously.
    """
    rng = random.Random(seed)
    grid = scenario.grid
    n_cells = grid.n_cells
    encryptor = ShadowEncryptor(
        scenario, prime_bits=_PRIME_BITS, seed=_SERVICE_SEED, devices=4
    )
    try:
        script: List[Request] = []
        subscribed = 0

        def subscribe() -> None:
            nonlocal subscribed
            cell = rng.randrange(n_cells)
            script.append(
                Subscribe(user_id=f"user-{subscribed:03d}", location=grid.cell_center(cell))
            )
            subscribed += 1

        subscribe()
        script.append(
            PublishZone(
                alert_id="zone-a", zone=AlertZone(cell_ids=(5, 6, 7, 11)), evaluate=False
            )
        )
        standing_x = False
        for _ in range(steps):
            roll = rng.random()
            if roll < 0.15 and subscribed < users:
                subscribe()
            elif roll < 0.55:
                user = rng.randrange(subscribed)
                script.append(
                    Move(
                        user_id=f"user-{user:03d}",
                        location=grid.cell_center(rng.randrange(n_cells)),
                    )
                )
            elif roll < 0.70:
                script.append(IngestBatch(updates=(encryptor.mint(),), evaluate=False))
            elif roll < 0.85:
                if standing_x:
                    script.append(RetractZone(alert_id="zone-x"))
                    standing_x = False
                else:
                    cell = rng.randrange(n_cells)
                    script.append(
                        PublishZone(
                            alert_id="zone-x",
                            zone=AlertZone(cell_ids=(cell, (cell + 1) % n_cells)),
                            evaluate=False,
                        )
                    )
                    standing_x = True
            script.append(EvaluateStanding())
        return script
    finally:
        encryptor.close()


def _outcome(response) -> Tuple:
    """Collapse a response to the comparable facts a client observes."""
    if isinstance(response, IngestReceipt):
        return ("receipt", response.user_id, response.sequence_number, response.stored)
    if isinstance(response, RetractReceipt):
        return ("retract", response.alert_id, response.existed)
    if isinstance(response, MatchReport):
        return ("report", response.notified_users, response.pairings_spent)
    return ("other", type(response).__name__)


def _run_inprocess(scenario, config: ServiceConfig, script: List[Request]) -> List[Tuple]:
    from repro.service.service import AlertService

    outcomes: List[Tuple] = []
    with AlertService(scenario.grid, scenario.probabilities, config=config) as service:
        for request in script:
            outcomes.append(_outcome(service.handle(request)))
    return outcomes


# ----------------------------------------------------------------------
# Soak 1: dropped/corrupt/slow frames over TCP
# ----------------------------------------------------------------------
@dataclass
class NetChaosOutcome:
    """Result of one :func:`run_net_chaos_soak`: parity verdict + evidence."""

    steps: int
    seed: int
    faults: str
    matched: bool
    baseline_passes: List[Tuple]
    faulted_passes: List[Tuple]
    fault_counts: dict
    client_reconnects: int
    server_stats: dict

    def summary(self) -> str:
        verdict = "BIT-EXACT" if self.matched else "DIVERGED"
        fired = ", ".join(f"{k}={v}" for k, v in sorted(self.fault_counts.items())) or "none"
        return (
            f"net chaos soak: {self.steps} steps ({len(self.baseline_passes)} requests), "
            f"seed {self.seed} -> {verdict}\n"
            f"  faults fired:      {fired}\n"
            f"  client reconnects: {self.client_reconnects}\n"
            f"  server responses:  {self.server_stats.get('responses_sent', 0)} "
            f"({self.server_stats.get('errors_returned', 0)} errors, "
            f"{self.server_stats.get('dedup_hits', 0)} dedup hits, "
            f"{self.server_stats.get('connections_dropped', 0)} conns dropped)"
        )


async def _run_over_tcp(
    scenario, config: ServiceConfig, script: List[Request], seed: int, attempts: int = 12
) -> Tuple[List[Tuple], dict, int, dict]:
    from repro.service.service import AlertService

    outcomes: List[Tuple] = []
    options = NetOptions(host="127.0.0.1", port=0, max_inflight=32)
    with AlertService(scenario.grid, scenario.probabilities, config=config) as service:
        server = AlertServiceServer(service, options)
        await server.start()
        client = AlertServiceClient(
            "127.0.0.1",
            server.port,
            timeout=10.0,
            client_id=f"soak-{seed}",
            epoch=seed,
        )
        try:
            for request in script:
                response = await client.request_with_retry(request, attempts=attempts)
                outcomes.append(_outcome(response))
            reconnects = client.reconnects
        finally:
            await client.close()
            await server.stop()
        counts = dict(service.fault_injector.counts) if service.fault_injector else {}
        stats = server.stats.snapshot()
    return outcomes, counts, reconnects, stats


def run_net_chaos_soak(
    steps: int = 40,
    seed: int = 7,
    faults: str = DEFAULT_NET_CHAOS_SPEC,
    users: int = 8,
) -> NetChaosOutcome:
    """Run the scripted session in-process and over faulty TCP; compare.

    Faults are armed from the very first frame -- the handshake and the
    non-idempotent subscriptions take their chances like everything else.
    """
    scenario = _make_scenario()
    script = build_soak_script(scenario, steps, seed, users=users)
    baseline = _run_inprocess(scenario, _make_config(), script)
    faulted, counts, reconnects, stats = asyncio.run(
        _run_over_tcp(scenario, _make_config(faults=faults or None, fault_seed=seed), script, seed)
    )
    return NetChaosOutcome(
        steps=steps,
        seed=seed,
        faults=faults,
        matched=faulted == baseline,
        baseline_passes=baseline,
        faulted_passes=faulted,
        fault_counts=counts,
        client_reconnects=reconnects,
        server_stats=stats,
    )


# ----------------------------------------------------------------------
# Soak 2: SIGKILL the live server under a supervisor
# ----------------------------------------------------------------------
@dataclass
class CrashRestartOutcome:
    """Result of one :func:`run_crash_restart_soak`."""

    steps: int
    seed: int
    faults: Optional[str]
    kills_requested: int
    kills_delivered: int
    restarts_observed: int
    matched: bool
    leaked_processes: int
    baseline_outcomes: List[Tuple]
    faulted_outcomes: List[Tuple]
    client_reconnects: int

    def summary(self) -> str:
        verdict = "BIT-EXACT" if self.matched else "DIVERGED"
        leaks = "none leaked" if self.leaked_processes == 0 else f"{self.leaked_processes} LEAKED"
        return (
            f"crash-restart soak: {self.steps} steps "
            f"({len(self.baseline_outcomes)} requests), seed {self.seed}, "
            f"{self.kills_delivered}/{self.kills_requested} kills -> {verdict}\n"
            f"  restarts observed: {self.restarts_observed}\n"
            f"  client reconnects: {self.client_reconnects}\n"
            f"  server processes:  {leaks}"
        )


def _watch_supervisor(stream, state: dict) -> None:
    """Reader thread over the supervisor's stdout: track pids + readiness."""
    for line in stream:
        line = line.rstrip("\n")
        state["lines"].append(line)
        if line.startswith("supervisor: serving pid="):
            pid = int(line.split("pid=", 1)[1].split()[0])
            state["pid"] = pid
            state["pids"].append(pid)
        elif line.startswith("listening on "):
            state["port"] = int(line.rsplit(":", 1)[1])
            state["readiness"] += 1
            state["ready"].set()


async def _drive_through_crashes(
    script: List[Request],
    state: dict,
    kill_indices: List[int],
    seed: int,
    attempts: int,
) -> Tuple[List[Tuple], int, int]:
    """Run the script against the supervised server, SIGKILLing on schedule.

    At each kill index the request is fired first and the SIGKILL races it
    after a seeded sub-frame delay, so some kills land on an in-flight
    request (journaled-then-crashed -- the retry must be answered from the
    replay-rebuilt cache) and some land between requests.
    """
    krng = random.Random(seed ^ 0xDEAD)
    pending_kills = sorted(kill_indices)
    kills_delivered = 0
    outcomes: List[Tuple] = []
    client = AlertServiceClient(
        "127.0.0.1",
        state["port"],
        timeout=15.0,
        connect_timeout=5.0,
        client_id=f"chaos-{seed}",
        epoch=seed,
    )
    try:
        for index, request in enumerate(script):
            if pending_kills and index == pending_kills[0]:
                pending_kills.pop(0)
                task = asyncio.ensure_future(
                    client.request_with_retry(request, attempts=attempts)
                )
                await asyncio.sleep(0.003 * krng.random())
                try:
                    os.kill(state["pid"], signal.SIGKILL)
                    kills_delivered += 1
                except (ProcessLookupError, TypeError):
                    pass  # child already down (back-to-back kill schedule)
                response = await task
            else:
                response = await client.request_with_retry(request, attempts=attempts)
            outcomes.append(_outcome(response))
        return outcomes, kills_delivered, client.reconnects
    finally:
        await client.close()


def run_crash_restart_soak(
    steps: int = 30,
    seed: int = 7,
    faults: Optional[str] = None,
    users: int = 8,
    kills: int = 3,
    attempts: int = 16,
) -> CrashRestartOutcome:
    """SIGKILL a supervised ``repro serve`` mid-script; demand bit-exact parity.

    The server subprocess runs ``repro serve --supervise`` with a journal and
    snapshot in a temp dir; ``faults`` (optional) additionally arms the frame
    fault sites inside the child.  After the script completes the supervisor
    is SIGTERMed and every server pid ever observed must be gone -- the
    zero-leak check.
    """
    scenario = _make_scenario()
    script = build_soak_script(scenario, steps, seed, users=users)
    baseline = _run_inprocess(scenario, _make_config(), script)

    # Seeded kill positions, spread across the middle of the script so each
    # restart has room to complete before the next kill.
    krng = random.Random(seed ^ 0xC0FFEE)
    lo, hi = 2, max(3, len(script) - 2)
    span = max(1, (hi - lo) // max(1, kills))
    kill_indices = sorted(
        {min(hi - 1, lo + i * span + krng.randrange(max(1, span))) for i in range(kills)}
    )

    state: dict = {
        "pid": None,
        "pids": [],
        "port": None,
        "readiness": 0,
        "ready": threading.Event(),
        "lines": [],
    }
    with tempfile.TemporaryDirectory(prefix="repro-crash-") as tmp:
        argv = [
            sys.executable, "-m", "repro", "serve", "--supervise",
            "--rows", str(_SCENARIO["rows"]), "--cols", str(_SCENARIO["cols"]),
            "--sigmoid-a", str(_SCENARIO["sigmoid_a"]),
            "--sigmoid-b", str(_SCENARIO["sigmoid_b"]),
            "--seed", str(_SCENARIO["seed"]),
            "--extent-meters", str(_SCENARIO["extent_meters"]),
            "--host", "127.0.0.1", "--port", "0",
            "--prime-bits", str(_PRIME_BITS),
            "--service-seed", str(_SERVICE_SEED),
            "--journal", os.path.join(tmp, "wal.log"),
            "--snapshot", os.path.join(tmp, "snap.json"),
        ]
        if faults:
            argv += ["--faults", faults, "--fault-seed", str(seed)]
        proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True
        )
        watcher = threading.Thread(
            target=_watch_supervisor, args=(proc.stdout, state), daemon=True
        )
        watcher.start()
        try:
            if not state["ready"].wait(timeout=120.0):
                raise RuntimeError("supervised server never became ready")
            faulted, kills_delivered, reconnects = asyncio.run(
                _drive_through_crashes(script, state, kill_indices, seed, attempts)
            )
        finally:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            watcher.join(timeout=10)

        # Zero-leak check: every server pid the supervisor ever reported must
        # be gone once the supervisor itself has exited.
        leaked = 0
        for pid in set(state["pids"]):
            for _ in range(50):
                try:
                    os.kill(pid, 0)
                except ProcessLookupError:
                    break
                time.sleep(0.1)
            else:
                leaked += 1

    return CrashRestartOutcome(
        steps=steps,
        seed=seed,
        faults=faults,
        kills_requested=len(kill_indices),
        kills_delivered=kills_delivered,
        restarts_observed=max(0, state["readiness"] - 1),
        matched=faulted == baseline,
        leaked_processes=leaked,
        baseline_outcomes=baseline,
        faulted_outcomes=faulted,
        client_reconnects=reconnects,
    )
