"""Property tests: the fused evaluation path is bit-exact with the scalar path.

The fused path (``MatchingOptions.fused``, backed by
:meth:`~repro.crypto.backends.base.GroupBackend.fused_eval`) is a pure
performance feature: for every plan shape hypothesis can dream up --
duplicate patterns, subsumption chains, short-circuit orders, remembered
outcomes -- it must produce the same notifications *and* the same
:class:`~repro.crypto.counting.PairingCounter` totals as the scalar planned
evaluator, on every available backend.  These tests are
the contract that lets benchmarks compare the two paths as equals.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.crypto.backends import available_backends
from repro.crypto.group import BilinearGroup
from repro.crypto.hve import HVE
from repro.protocol.matching import MatchCandidate, MatchingEngine, MatchingOptions
from repro.protocol.messages import TokenBatch

WIDTH = 4

patterns_st = st.lists(
    st.text(alphabet="01*", min_size=WIDTH, max_size=WIDTH), min_size=1, max_size=4
)
indices_st = st.lists(
    st.text(alphabet="01", min_size=WIDTH, max_size=WIDTH), min_size=1, max_size=6
)


class _World:
    """One group + HVE + keys per backend, shared across examples.

    Tokens and ciphertexts are minted per example (they consume the world's
    rng), but both engine flavours evaluate the *same* objects, so any
    divergence is the evaluator's fault, never the material's.
    """

    def __init__(self, backend_name: str, work_factor: int = 2):
        self.group = BilinearGroup(
            prime_bits=32,
            rng=random.Random(71),
            pairing_work_factor=work_factor,
            backend=backend_name,
        )
        self.hve = HVE(width=WIDTH, group=self.group)
        self.keys = self.hve.setup()

    def batches(self, pattern_lists):
        return [
            TokenBatch(
                alert_id=f"alert-{i}",
                tokens=tuple(
                    self.hve.generate_token(self.keys.secret, pattern) for pattern in patterns
                ),
            )
            for i, patterns in enumerate(pattern_lists)
        ]

    def candidates(self, index_strings, sequence=0):
        return [
            MatchCandidate(
                user_id=f"user-{i}",
                ciphertext=self.hve.encrypt(self.keys.public, index),
                sequence_number=sequence,
            )
            for i, index in enumerate(index_strings)
        ]


_WORLDS: dict = {}


def world_for(backend_name: str) -> _World:
    if backend_name not in _WORLDS:
        _WORLDS[backend_name] = _World(backend_name)
    return _WORLDS[backend_name]


def run_pass(world, options, batches, candidates):
    """One match pass on a fresh engine; returns (notifications, pairings, stats)."""
    engine = MatchingEngine(world.hve, options)
    before = world.group.counter.total
    notifications = engine.match(batches, candidates)
    burn = world.group._last_work
    return notifications, world.group.counter.total - before, engine.last_pass, burn


# pack_min=1 forces the packed-column FusedWorklist path on every inline
# worklist (production only packs from fused_pack_min_jobs users up), so the
# same hypothesis examples cover both fused execution modes.
PACK_MODES = (64, 1)


@pytest.mark.parametrize("pack_min", PACK_MODES)
@pytest.mark.parametrize("backend_name", available_backends())
class TestFusedScalarParity:
    @given(pattern_lists=patterns_st.map(lambda p: [p]), indices=indices_st,
           order=st.sampled_from(["cheapest", "declared"]),
           dedupe=st.booleans(), subsume=st.booleans())
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_single_alert_parity(self, backend_name, pack_min, pattern_lists, indices,
                                 order, dedupe, subsume):
        world = world_for(backend_name)
        batches = world.batches(pattern_lists)
        candidates = world.candidates(indices)
        kwargs = dict(order=order, dedupe=dedupe, subsume=subsume)
        fused = run_pass(
            world,
            MatchingOptions(fused=True, fused_pack_min_jobs=pack_min, **kwargs),
            batches, candidates,
        )
        scalar = run_pass(world, MatchingOptions(fused=False, **kwargs), batches, candidates)
        assert fused[0] == scalar[0]  # identical notifications, identical order
        assert fused[1] == scalar[1]  # identical pairing totals
        assert fused[3] == scalar[3]  # identical burn witness (same work burned)
        assert fused[2].fused_evals == 1
        assert scalar[2].fused_evals == 0

    @given(pattern_lists=st.lists(patterns_st, min_size=2, max_size=3), indices=indices_st)
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_multi_alert_slot_sharing_parity(self, backend_name, pack_min,
                                             pattern_lists, indices):
        """Cross-alert dedupe + subsumption propagate identically when fused."""
        world = world_for(backend_name)
        batches = world.batches(pattern_lists)
        candidates = world.candidates(indices)
        fused = run_pass(
            world, MatchingOptions(fused=True, fused_pack_min_jobs=pack_min),
            batches, candidates,
        )
        scalar = run_pass(world, MatchingOptions(fused=False), batches, candidates)
        assert fused[0] == scalar[0]
        assert fused[1] == scalar[1]

    @given(pattern_lists=st.lists(patterns_st, min_size=1, max_size=2),
           indices=indices_st,
           moved=st.sets(st.integers(min_value=0, max_value=5)))
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_outcome_reuse_parity(self, backend_name, pack_min, pattern_lists, indices,
                                  moved):
        """Warm pass: remembered outcomes + fused remainder == scalar.

        With ``pack_min=1`` the second pass drives the resident worklist's
        refresh logic -- unchanged keys reuse packed columns, moved users are
        patched or trigger a rebuild -- and must stay bit-exact throughout.
        """
        world = world_for(backend_name)
        batches = world.batches(pattern_lists)
        first = world.candidates(indices)
        results = {}
        for fused in (True, False):
            engine = MatchingEngine(
                world.hve,
                MatchingOptions(fused=fused, fused_pack_min_jobs=pack_min),
            )
            before = world.group.counter.total
            pass1 = engine.match(batches, first)
            mid = world.group.counter.total
            # Second pass: some users moved (bumped sequence), others unchanged.
            second = [
                MatchCandidate(
                    user_id=c.user_id,
                    ciphertext=world.hve.encrypt(world.keys.public, indices[i])
                    if i in moved
                    else c.ciphertext,
                    sequence_number=c.sequence_number + (1 if i in moved else 0),
                )
                for i, c in enumerate(first)
            ]
            pass2 = engine.match(batches, second)
            results[fused] = (pass1, pass2, mid - before, world.group.counter.total - mid)
        assert results[True][0] == results[False][0]
        assert results[True][1] == results[False][1]
        assert results[True][2] == results[False][2]  # pass-1 pairings
        assert results[True][3] == results[False][3]  # pass-2 pairings


@pytest.mark.parametrize("backend_name", available_backends())
class TestPackedWorklistResidency:
    """The resident packed worklist survives passes and refreshes in place."""

    def _fixture(self, backend_name):
        world = world_for(backend_name)
        batches = world.batches([["01**", "1***", "0*1*"]])
        indices = ["0101", "0110", "1101", "1000", "0011", "1111", "0100", "1010"]
        candidates = world.candidates(indices)
        return world, batches, indices, candidates

    def test_columns_are_reused_across_passes(self, backend_name):
        world, batches, indices, candidates = self._fixture(backend_name)
        engine = MatchingEngine(
            world.hve, MatchingOptions(fused=True, fused_pack_min_jobs=1)
        )
        first = engine.match(batches, candidates)
        evaluation = engine._evaluation_for(batches)
        worklist = evaluation.fused_worklist
        assert worklist is not None
        assert worklist.column_hits == 0  # pass 1 built the columns
        hits_before = world.group.precomp_hits
        engine.reset_state()  # evaluate every user again, from the packed columns
        second = engine.match(batches, candidates)
        assert second == first
        assert evaluation.fused_worklist is worklist  # same resident object
        assert worklist.column_hits == 1  # pass 2 served from packed columns
        assert world.group.precomp_hits == hits_before + 1

    def test_limb_surgery_on_movers_stays_bit_exact(self, backend_name):
        world, batches, indices, candidates = self._fixture(backend_name)
        engine = MatchingEngine(
            world.hve, MatchingOptions(fused=True, fused_pack_min_jobs=1)
        )
        engine.match(batches, candidates)
        worklist = engine._evaluation_for(batches).fused_worklist
        # One mover out of eight: below the 1/2 churn bound, so the refresh
        # patches the mover in place instead of rebuilding.
        moved = [
            MatchCandidate(
                user_id=c.user_id,
                ciphertext=world.hve.encrypt(world.keys.public, "1110")
                if i == 3
                else c.ciphertext,
                sequence_number=c.sequence_number + (1 if i == 3 else 0),
            )
            for i, c in enumerate(candidates)
        ]
        packed = run_pass(
            world, MatchingOptions(fused=True, fused_pack_min_jobs=1), batches, moved
        )
        scalar = run_pass(world, MatchingOptions(fused=False), batches, moved)
        surgically = engine.match(batches, moved)
        assert worklist.column_hits == 1  # surgery counts as a served pass
        assert surgically == packed[0] == scalar[0]

    def test_small_worklists_skip_packing(self, backend_name):
        world, batches, indices, candidates = self._fixture(backend_name)
        engine = MatchingEngine(world.hve, MatchingOptions(fused=True))
        engine.match(batches, candidates)  # 8 jobs < default threshold (64)
        assert engine._evaluation_for(batches).fused_worklist is None
