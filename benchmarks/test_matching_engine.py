"""Provider-side throughput benchmark: naive vs planned matching engine.

The figure-level benchmarks count pairings (the paper's metric); this module
records the *wall-clock* trajectory of the provider's matching hot path.  A
users x workload grid is matched under both engine strategies with pairing
work factor 0, so the numbers isolate the engine's own overheads -- token
planning, cached positions and the fused exponent-arithmetic path -- from
simulated pairing cost.  The acceptance floor: the planned strategy must be
at least 2x faster than the naive element-wise path on the 40-user compact
zone workload.
"""

import os
import random
import time

from benchmarks.conftest import calibration_ms, merge_bench_provider, publish_table
from repro.crypto.backends import available_backends
from repro.crypto.group import BilinearGroup
from repro.crypto.hve import HVE
from repro.datasets.synthetic import make_synthetic_scenario
from repro.encoding.huffman import HuffmanEncodingScheme
from repro.protocol.matching import MatchCandidate, MatchingEngine, MatchingOptions
from repro.protocol.messages import TokenBatch

MAX_USERS = 40
USER_GRID = (10, 40)
TIMING_ROUNDS = 5


def _build_world(seed=4021, users=MAX_USERS):
    scenario = make_synthetic_scenario(
        rows=16, cols=16, sigmoid_a=0.95, sigmoid_b=100.0, seed=seed, extent_meters=1600.0
    )
    encoding = HuffmanEncodingScheme().build(scenario.probabilities)
    group = BilinearGroup(prime_bits=64, rng=random.Random(seed + 1), pairing_work_factor=0)
    hve = HVE(width=encoding.reference_length, group=group, rng=random.Random(seed + 2))
    keys = hve.setup()
    rng = random.Random(seed + 3)
    candidates = [
        MatchCandidate(
            user_id=f"user-{i:05d}",
            ciphertext=hve.encrypt(keys.public, encoding.index_of(rng.randrange(scenario.grid.n_cells))),
        )
        for i in range(users)
    ]
    return scenario, encoding, hve, keys, candidates


def _workloads(scenario, encoding, hve, keys):
    """Alert workloads spanning the token-count axis of the grid."""
    compact_zone = scenario.workloads.triggered_radius_workload(50.0, 1).zones[0]
    wide_zones = scenario.workloads.triggered_radius_workload(220.0, 2).zones
    workloads = {}
    compact_tokens = hve.generate_tokens(keys.secret, encoding.token_patterns(list(compact_zone.cell_ids)))
    workloads["compact-zone"] = [TokenBatch(alert_id="compact", tokens=tuple(compact_tokens))]
    wide_batches = []
    for i, zone in enumerate(wide_zones):
        tokens = hve.generate_tokens(keys.secret, encoding.token_patterns(list(zone.cell_ids)))
        wide_batches.append(TokenBatch(alert_id=f"wide-{i}", tokens=tuple(tokens)))
    workloads["wide-batch"] = wide_batches
    return workloads


def _time_strategy(hve, options, batches, candidates):
    """Best-of-N wall clock for one full matching round, plus its pairing
    count.  Remembered outcomes are dropped before every timed round, so each
    round evaluates every candidate."""
    engine = MatchingEngine(hve, options)
    counter = hve.group.counter
    before = counter.total
    notifications = engine.match(batches, candidates)
    pairings = counter.total - before
    best = float("inf")
    for _ in range(TIMING_ROUNDS):
        engine.reset_state()
        start = time.perf_counter()
        engine.match(batches, candidates)
        best = min(best, time.perf_counter() - start)
    return notifications, pairings, best


def test_matching_engine_throughput_grid():
    scenario, encoding, hve, keys, all_candidates = _build_world()
    workloads = _workloads(scenario, encoding, hve, keys)

    rows = []
    speedups = {}
    for workload_name, batches in workloads.items():
        n_tokens = sum(len(b.tokens) for b in batches)
        for n_users in USER_GRID:
            candidates = all_candidates[:n_users]
            naive_notes, naive_pairings, naive_secs = _time_strategy(
                hve, MatchingOptions(strategy="naive"), batches, candidates
            )
            planned_notes, planned_pairings, planned_secs = _time_strategy(
                hve, MatchingOptions(strategy="planned"), batches, candidates
            )
            assert planned_notes == naive_notes  # outcome parity before we trust the timing
            speedup = naive_secs / planned_secs if planned_secs > 0 else float("inf")
            speedups[(workload_name, n_users)] = speedup
            rows.append(
                {
                    "workload": workload_name,
                    "users": n_users,
                    "tokens": n_tokens,
                    "naive_ms": round(naive_secs * 1e3, 3),
                    "planned_ms": round(planned_secs * 1e3, 3),
                    "speedup": round(speedup, 2),
                    "naive_pairings": naive_pairings,
                    "planned_pairings": planned_pairings,
                    "notified": len(planned_notes),
                }
            )

    publish_table(
        "matching_engine_throughput",
        f"Matching engine throughput: naive vs planned (work factor 0, best of {TIMING_ROUNDS})",
        rows,
    )

    # Pairing counts can only shrink under the planned strategy's dedupe.
    for row in rows:
        assert row["planned_pairings"] <= row["naive_pairings"]
    # Acceptance floor: >= 2x on the 40-user compact-zone workload.  The
    # observed ratio is typically 3-5x; re-measure a couple of times before
    # failing so a CPU-steal spike on a shared runner cannot flake the build.
    floor = 2.0
    speedup = speedups[("compact-zone", MAX_USERS)]
    compact_batches = workloads["compact-zone"]
    for _ in range(2):
        if speedup >= floor:
            break
        _, _, naive_secs = _time_strategy(hve, MatchingOptions(strategy="naive"), compact_batches, all_candidates)
        _, _, planned_secs = _time_strategy(hve, MatchingOptions(strategy="planned"), compact_batches, all_candidates)
        speedup = max(speedup, naive_secs / planned_secs)
    assert speedup >= floor


#: Assert floor for the fused tier; the observed ratio is typically >= 5x.
FUSED_TIER_FLOOR = 3.0
#: The always-run tier; set REPRO_BENCH_LARGE=1 to add the 10k-user tier.
FUSED_TIER_USERS = 1000


def _time_fused_tier(hve, keys, batches, candidates, cell_indices):
    """One fused-vs-scalar comparison at a tier, with warm costs split out.

    Returns a dict of measurements: the scalar planned path and the fused
    packed path are timed warm (plan compiled, precomputation tables and
    packed columns resident -- the cold pass is reported separately as the
    build cost), and parity of notifications and pairing totals is asserted
    before any timing is trusted.  The static warm pass drops the engine's
    remembered outcomes first, so it evaluates every user from the resident
    columns; the mover pass re-encrypts 1% of the users at a random cell of
    ``cell_indices`` (a fresh set per round, ciphertexts minted before the
    clock starts) and times the warm pass that follows, which evaluates only
    the movers.  A scalar engine taken through the same history checks every
    mover pass's notifications and pairings.
    """
    warm_table_s = hve.warm_precomputation(keys.public, keys.secret)
    counter = hve.group.counter

    fused_engine = MatchingEngine(hve, MatchingOptions())
    before = counter.total
    started = time.perf_counter()
    fused_notes = fused_engine.match(batches, candidates)  # cold: plan + packing
    cold_secs = time.perf_counter() - started
    fused_pairings = counter.total - before
    fused_secs = float("inf")
    for _ in range(TIMING_ROUNDS):
        fused_engine.reset_state()
        started = time.perf_counter()
        fused_engine.match(batches, candidates)
        fused_secs = min(fused_secs, time.perf_counter() - started)

    scalar_engine = MatchingEngine(hve, MatchingOptions(fused=False))
    scalar_engine.match(batches, candidates)
    rng = random.Random(len(candidates))
    moved = list(candidates)
    mover_secs = float("inf")
    for _ in range(TIMING_ROUNDS):
        for i in rng.sample(range(len(moved)), max(1, len(moved) // 100)):
            mover = moved[i]
            moved[i] = MatchCandidate(
                user_id=mover.user_id,
                ciphertext=hve.encrypt(keys.public, rng.choice(cell_indices)),
                sequence_number=mover.sequence_number + 1,
            )
        before = counter.total
        started = time.perf_counter()
        mover_notes = fused_engine.match(batches, moved)
        mover_secs = min(mover_secs, time.perf_counter() - started)
        mover_pairings = counter.total - before
        before = counter.total
        assert mover_notes == scalar_engine.match(batches, moved)
        assert mover_pairings == counter.total - before > 0

    scalar_notes, scalar_pairings, scalar_secs = _time_strategy(
        hve, MatchingOptions(fused=False), batches, candidates
    )
    assert fused_notes == scalar_notes  # outcome parity before we trust timing
    assert fused_pairings == scalar_pairings  # bit-exact charge parity
    return {
        "scalar_secs": scalar_secs,
        "fused_secs": fused_secs,
        "mover_secs": mover_secs,
        "speedup": scalar_secs / fused_secs if fused_secs > 0 else float("inf"),
        "pack_build_ms": max(cold_secs - fused_secs, 0.0) * 1e3,
        "warm_table_ms": warm_table_s * 1e3,
        "pairings": fused_pairings,
        "notified": len(fused_notes),
        "fused_evals": fused_engine.last_pass.fused_evals,
        "precomp_hits": fused_engine.last_pass.precomp_hits,
    }


def test_crypto_core_fused_tier():
    """1k-user tier: the fused packed path vs the scalar planned path.

    Work factor 0 isolates evaluation dispatch (with work factor on, both
    paths burn identical pairing work by the bit-exactness contract and the
    ratio trends to 1x).  Precomputation and packed columns are warmed before
    timing; their build costs land in separate columns.  ``mover_ms`` is a
    warm fused pass after 1% of the users re-encrypted -- the standing-tick
    case, where only movers cost evaluation work.  The acceptance floor
    is ``FUSED_TIER_FLOOR`` at the 1k tier on the reference backend; the
    calibrated mover latency feeds the CI perf gate via the ``crypto_core``
    section of BENCH_provider.json.
    """
    tiers = [FUSED_TIER_USERS]
    if os.environ.get("REPRO_BENCH_LARGE"):
        tiers.append(10 * FUSED_TIER_USERS)
    scenario, encoding, hve, keys, candidates = _build_world(users=max(tiers))
    batches = _workloads(scenario, encoding, hve, keys)["wide-batch"]
    cell_indices = [encoding.index_of(cell) for cell in range(scenario.grid.n_cells)]
    n_tokens = sum(len(b.tokens) for b in batches)
    calibration = calibration_ms()

    rows = []
    by_tier = {}
    for users in tiers:
        measured = _time_fused_tier(hve, keys, batches, candidates[:users], cell_indices)
        by_tier[users] = measured
        rows.append(
            {
                "users": users,
                "tokens": n_tokens,
                "scalar_ms": round(measured["scalar_secs"] * 1e3, 3),
                "fused_ms": round(measured["fused_secs"] * 1e3, 3),
                "mover_ms": round(measured["mover_secs"] * 1e3, 3),
                "speedup": round(measured["speedup"], 2),
                "pack_build_ms": round(measured["pack_build_ms"], 3),
                "warm_table_ms": round(measured["warm_table_ms"], 3),
                "pairings": measured["pairings"],
                "notified": measured["notified"],
                "fused_evals": measured["fused_evals"],
                "precomp_hits": measured["precomp_hits"],
            }
        )
    publish_table(
        "crypto_core_fused",
        f"Crypto core: fused packed worklist vs scalar planned path "
        f"(work factor 0, warm, best of {TIMING_ROUNDS})",
        rows,
    )

    tier = by_tier[FUSED_TIER_USERS]
    speedup = tier["speedup"]
    # Re-measure before failing: the floor leaves >1.5x of margin over the
    # typical ratio, so only a CPU-steal spike on a shared runner trips it,
    # and a fresh comparison (both paths, same process) settles that.
    for _ in range(2):
        if speedup >= FUSED_TIER_FLOOR:
            break
        fresh = _time_fused_tier(
            hve, keys, batches, candidates[:FUSED_TIER_USERS], cell_indices
        )
        speedup = max(speedup, fresh["speedup"])
    assert speedup >= FUSED_TIER_FLOOR, (
        f"fused packed path {speedup:.2f}x over scalar planned at the "
        f"{FUSED_TIER_USERS}-user tier; floor is {FUSED_TIER_FLOOR}x"
    )

    merge_bench_provider(
        "crypto_core",
        {
            "kind": "crypto_core_fused_bench",
            "workload": {
                "users": FUSED_TIER_USERS,
                "tokens": n_tokens,
                "zones": 2,
                "radius_m": 220.0,
                "work_factor": 0,
                "prime_bits": 64,
            },
            "calibration_ms": round(calibration, 3),
            "fused_tier": {
                "fused_ms": round(tier["fused_secs"] * 1e3, 3),
                "mover_ms": round(tier["mover_secs"] * 1e3, 3),
                "scalar_ms": round(tier["scalar_secs"] * 1e3, 3),
                "speedup": round(tier["speedup"], 2),
                "pack_build_ms": round(tier["pack_build_ms"], 3),
                "pairings": tier["pairings"],
            },
        },
    )


def _build_work_factor_world(backend, work_factor=40, users=40, seed=4099):
    """A workload where simulated pairing cost dominates, on one backend.

    All backends share the same primes (generated once by a reference probe)
    and the same-seeded rngs, so key material, ciphertexts and therefore
    match outcomes and pairing counts are bit-identical across backends --
    the only thing that may differ is wall-clock.
    """
    scenario = make_synthetic_scenario(
        rows=16, cols=16, sigmoid_a=0.95, sigmoid_b=100.0, seed=seed, extent_meters=1600.0
    )
    encoding = HuffmanEncodingScheme().build(scenario.probabilities)
    probe = BilinearGroup(prime_bits=64, rng=random.Random(seed + 1))
    group = BilinearGroup.from_primes(
        int(probe.p),
        int(probe.q),
        pairing_work_factor=work_factor,
        backend=backend,
        rng=random.Random(seed + 2),
    )
    hve = HVE(width=encoding.reference_length, group=group, rng=random.Random(seed + 3))
    keys = hve.setup()
    rng = random.Random(seed + 4)
    candidates = [
        MatchCandidate(
            user_id=f"user-{i:03d}",
            ciphertext=hve.encrypt(keys.public, encoding.index_of(rng.randrange(scenario.grid.n_cells))),
        )
        for i in range(users)
    ]
    zones = scenario.workloads.triggered_radius_workload(220.0, 2).zones
    batches = []
    for i, zone in enumerate(zones):
        tokens = hve.generate_tokens(keys.secret, encoding.token_patterns(list(zone.cell_ids)))
        batches.append(TokenBatch(alert_id=f"zone-{i}", tokens=tuple(tokens)))
    return hve, candidates, batches


def test_backend_scaling():
    """Throughput across crypto backends (work factor on).

    Acceptance invariant (checked on every host): identical notifications and
    bit-exact pairing totals across all backends.  Wall-clock numbers go on
    record.
    """
    rows = []
    baseline = None  # (notification keys, pairings) of the first run, for parity
    for backend in available_backends():
        hve, candidates, batches = _build_work_factor_world(backend)
        # Warm the fixed-base work table before any timing; its build cost is
        # reported as its own column instead of polluting the first pass.
        precomp_build_ms = hve.group.warm_precomputation() * 1e3
        engine = MatchingEngine(hve, MatchingOptions(strategy="planned"))
        counter = hve.group.counter
        before = counter.total
        notifications = engine.match(batches, candidates)
        pairings = counter.total - before
        best = float("inf")
        for _ in range(2):
            engine.reset_state()  # time full passes, not remembered outcomes
            start = time.perf_counter()
            engine.match(batches, candidates)
            best = min(best, time.perf_counter() - start)
        outcome = (tuple((n.user_id, n.alert_id) for n in notifications), pairings)
        if baseline is None:
            baseline = outcome
        assert outcome == baseline  # parity across backends
        rows.append(
            {
                "backend": backend,
                "users": len(candidates),
                "tokens": sum(len(b.tokens) for b in batches),
                "wall_ms": round(best * 1e3, 1),
                "precomp_build_ms": round(precomp_build_ms, 2),
                "pairings": pairings,
                "notified": len(notifications),
            }
        )

    publish_table(
        "matching_engine_scaling",
        "Backend scaling, work factor on (best of 2)",
        rows,
    )
