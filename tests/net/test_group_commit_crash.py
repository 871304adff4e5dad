"""Group-commit crash safety: ``kill -9`` between journal and execute.

The server journals a whole tick under one fsync *before* any of
it executes.  The property that must survive a real SIGKILL is the
write-ahead contract at tick granularity:

* every request the crashed server executed is in the journal (nothing runs
  un-journaled), and the journal may run **ahead** of execution by up to one
  group-committed tick;
* a torn half-line appended by the crash is dropped cleanly on reopen;
* a fresh session replaying the journal (``replay_journal``, the
  snapshotless recovery path ``repro serve`` uses on restart) lands exactly
  where a never-crashed session executing the same durable prefix would.

The doomed process runs a real :class:`AlertServiceServer` over TCP and
SIGKILLs itself from inside ``handle`` at the first ``Move`` -- after the
tick holding the whole move burst was group-committed, before any of it
executed.  A marker file (fsynced before the kill) carries the journal's
group-commit counters out of the dying process.
"""

import os
import pathlib
import signal
import subprocess
import sys
import textwrap

from repro.datasets.synthetic import make_synthetic_scenario
from repro.service import AlertService, ServiceConfig
from repro.service.journal import RequestJournal, request_from_payload

DOOMED = textwrap.dedent(
    """
    import asyncio, contextlib, os, signal, sys, time

    from repro.datasets.synthetic import make_synthetic_scenario
    from repro.grid.alert_zone import AlertZone
    from repro.net import AlertServiceClient, AlertServiceServer
    from repro.service import (
        AlertService, EvaluateStanding, Move, NetOptions, PublishZone,
        ServiceConfig, Subscribe,
    )

    journal_path, marker_path = sys.argv[1], sys.argv[2]
    scenario = make_synthetic_scenario(
        rows=6, cols=6, sigmoid_a=0.9, sigmoid_b=20, seed=31, extent_meters=600.0
    )
    config = ServiceConfig(prime_bits=32, seed=19, journal_path=journal_path)
    service = AlertService(scenario.grid, scenario.probabilities, config=config)

    real_handle = service.handle

    def handle(request):
        if isinstance(request, EvaluateStanding):
            # Hold the execute stage busy so the move burst accumulates in
            # the admit queue and lands in one group-committed tick.
            time.sleep(0.7)
            return real_handle(request)
        if isinstance(request, Move):
            # The tick holding this move was journaled (group-committed)
            # before execution reached here.  Record the journal's counters
            # durably, then die without any cleanup.
            with open(marker_path, "w", encoding="utf-8") as fh:
                fh.write(
                    f"{service.journal.group_commits} {service.journal.fsyncs_saved}"
                )
                fh.flush()
                os.fsync(fh.fileno())
            os.kill(os.getpid(), signal.SIGKILL)
        return real_handle(request)

    service.handle = handle

    async def main():
        async with AlertServiceServer(service, NetOptions(port=0)) as server:
            async with AlertServiceClient("127.0.0.1", server.port) as client:
                for i in range(6):
                    await client.request(Subscribe(
                        user_id=f"user-{i:03d}",
                        location=scenario.grid.cell_center(i),
                    ))
                await client.request(PublishZone(
                    alert_id="zone-a",
                    zone=AlertZone(cell_ids=(5, 6, 7, 11)),
                    evaluate=False,
                ))
                # Three slow evaluations, staggered so each
                # forms its own tick: the first occupies the execute stage,
                # the second fills the double buffer, and the third leaves
                # the dispatch loop *blocked* on the full buffer.  The move
                # burst sent next is then guaranteed to be waiting in the
                # admit queue together, and to be collected -- and
                # group-committed -- as one tick.
                evals = []
                for _ in range(3):
                    evals.append(
                        asyncio.ensure_future(client.request(EvaluateStanding(), timeout=30))
                    )
                    await asyncio.sleep(0.1)
                moves = [
                    Move(user_id=f"user-{i:03d}", location=scenario.grid.cell_center(6 + i))
                    for i in range(4)
                ]
                with contextlib.suppress(Exception):
                    await asyncio.gather(
                        *evals,
                        *(client.request(m, timeout=30) for m in moves),
                    )

    asyncio.run(main())
    """
)


def _recovery_config(journal_path):
    return ServiceConfig(
        prime_bits=32, seed=19, journal_path=str(journal_path)
    )


def test_sigkilled_group_commit_replays_exactly(tmp_path):
    scenario = make_synthetic_scenario(
        rows=6, cols=6, sigmoid_a=0.9, sigmoid_b=20, seed=31, extent_meters=600.0
    )
    journal_path = tmp_path / "wal.log"
    marker_path = tmp_path / "marker.txt"
    script = tmp_path / "doomed_server.py"
    script.write_text(DOOMED, encoding="utf-8")
    src = pathlib.Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, str(script), str(journal_path), str(marker_path)],
        env=env,
        timeout=180,
        capture_output=True,
    )
    assert proc.returncode == -signal.SIGKILL, proc.stderr.decode()

    # The marker was fsynced from inside the doomed handler: the burst's
    # tick really was group-committed (one fsync for many entries) before
    # the first of its requests executed.
    group_commits, fsyncs_saved = map(int, marker_path.read_text().split())
    assert group_commits >= 1
    assert fsyncs_saved >= 3  # four moves under one fsync

    with RequestJournal(journal_path) as journal:
        entries = journal.entries()
    # Setup (6 subscribes + 1 publish), the three evaluations and the whole
    # group-committed burst are durable, though no move ever executed: the
    # journal legitimately runs ahead of execution, never behind.
    assert [seq for seq, _ in entries] == list(range(1, len(entries) + 1))
    types = [payload["type"] for _, payload in entries]
    assert types[:7] == ["subscribe"] * 6 + ["publish_zone"]
    assert types[7:] == ["evaluate_standing"] * 3 + ["move"] * 4

    # The crash also tore a half-written line onto the tail; recovery must
    # shrug it off exactly as the per-request journal always has.
    with open(journal_path, "a", encoding="utf-8") as handle:
        handle.write('deadbeef\t{"seq": 99, "requ')

    # Reference: a session that executes exactly the durable prefix.
    with AlertService(
        scenario.grid,
        scenario.probabilities,
        config=_recovery_config(tmp_path / "reference-wal.log"),
    ) as reference:
        for _, payload in entries:
            reference.handle(request_from_payload(payload, reference.system.authority.group))
        expected = reference.evaluate_standing().notified_users

    recovered = AlertService(
        scenario.grid, scenario.probabilities, config=_recovery_config(journal_path)
    )
    try:
        replayed = recovered.replay_journal()
        assert replayed == len(entries)
        assert recovered.evaluate_standing().notified_users == expected
    finally:
        recovered.close()
