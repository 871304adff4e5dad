"""The resident packed worklist against the plain fused loop, pass after pass.

:class:`~repro.crypto.backends.base.FusedWorklist` keeps state between
passes -- packed columns, per-slot residue vectors patched in place and
deferred column surgery -- and must still return exactly
what a stateless :meth:`~repro.crypto.backends.base.GroupBackend.fused_eval`
returns for the same jobs: the same rows and the same pairing charge, on
every pass, whatever the history of movers, population sizes, ``needed``
tuples and interleaved plans.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.backends import get_backend
from repro.crypto.backends import base as backends_base
from repro.crypto.backends.base import FusedProgram, FusedWorklist
from repro.crypto.group import BilinearGroup
from repro.crypto.hve import HVE
from repro.protocol.matching import TokenPlan, _compile_fused_program
from repro.protocol.messages import TokenBatch

WIDTH = 5

#: Two plans over the same ciphertexts, with nested and overlapping patterns
#: so subsumption edges, slot sharing and first-match breaks all occur.
PLAN_PATTERNS = (
    (["01***", "011**", "0110*"], ["1****", "10*1*"], ["***11"]),
    (["0****", "01***", "00*0*"], ["11***", "1*0**", "10101"]),
)


class _World:
    def __init__(self):
        self.group = BilinearGroup(prime_bits=32, rng=random.Random(113))
        self.hve = HVE(width=WIDTH, group=self.group)
        keys = self.hve.setup()
        rng = random.Random(127)
        self.pool = [
            self.hve.encrypt(keys.public, format(rng.randrange(1 << WIDTH), f"0{WIDTH}b"))
            for _ in range(24)
        ]
        self.programs = []
        for plan in PLAN_PATTERNS:
            batches = [
                TokenBatch(
                    alert_id=f"alert-{i}",
                    tokens=tuple(self.hve.generate_token(keys.secret, p) for p in patterns),
                )
                for i, patterns in enumerate(plan)
            ]
            self.programs.append(_compile_fused_program(self.hve, TokenPlan(batches)))
        self.backend = self.group.backend


_WORLD = []


def world() -> _World:
    if not _WORLD:
        _WORLD.append(_World())
    return _WORLD[0]


NEEDED = ("all", "none", "first", "last", "odd")

# One pass: which plan runs, the population's new size (mostly unchanged),
# which users get a fresh ciphertext, and a per-user choice of ``needed``
# (all / none / some) -- sometimes one choice for everyone, which leaves
# slots uncached and later passes then combine them from patched columns.
pass_st = st.fixed_dictionaries(
    {
        "plan": st.integers(min_value=0, max_value=len(PLAN_PATTERNS) - 1),
        "resize": st.one_of(st.none(), st.none(), st.none(), st.integers(6, 20)),
        "movers": st.lists(st.integers(min_value=0, max_value=19), max_size=12),
        "needed": st.one_of(
            st.sampled_from(NEEDED).map(lambda choice: [choice] * 20),
            st.lists(st.sampled_from(NEEDED), min_size=20, max_size=20),
        ),
    }
)


def _needed(choice: str, nbatches: int) -> tuple:
    every = tuple(range(nbatches))
    return {
        "all": every,
        "none": (),
        "first": every[:1],
        "last": every[-1:],
        "odd": every[1::2],
    }[choice]


@given(passes=st.lists(pass_st, min_size=2, max_size=10), seed=st.integers(0, 2**16))
@settings(max_examples=150, deadline=None)
def test_worklist_matches_fused_eval_on_every_pass(passes, seed):
    w = world()
    rng = random.Random(seed)
    worklists = [FusedWorklist(program) for program in w.programs]
    # user slot -> (pool index, version); the key is (user, version).
    population = [(rng.randrange(len(w.pool)), 0) for _ in range(20)]
    size = 16
    for step in passes:
        for i in step["movers"]:
            population[i] = (rng.randrange(len(w.pool)), population[i][1] + 1)
        program = w.programs[step["plan"]]
        nbatches = len(program.batches)
        size = step["resize"] or size
        live = population[:size]
        jobs = [
            w.pool[cell]._exponent_rows + (_needed(step["needed"][i], nbatches),)
            for i, (cell, _version) in enumerate(live)
        ]
        keys = [(i, version) for i, (_cell, version) in enumerate(live)]
        assert worklists[step["plan"]].evaluate(jobs, keys) == w.backend.fused_eval(
            program, jobs
        )


def _full_jobs(w, plan, cells):
    needed = tuple(range(len(w.programs[plan].batches)))
    return [w.pool[cell]._exponent_rows + (needed,) for cell in cells]


@pytest.mark.parametrize("movers", [1, 7, 16])
def test_patch_and_rebuild_paths_both_match(movers):
    """Few movers patch in place, most of the population rebuilds."""
    w = world()
    program = w.programs[0]
    cells = [i % len(w.pool) for i in range(16)]
    worklist = FusedWorklist(program)
    worklist.evaluate(_full_jobs(w, 0, cells), [(i, 0) for i in range(16)])
    for i in range(movers):
        cells[i] = (cells[i] + 5) % len(w.pool)
    keys = [(i, 1 if i < movers else 0) for i in range(16)]
    jobs = _full_jobs(w, 0, cells)
    assert worklist.evaluate(jobs, keys) == w.backend.fused_eval(program, jobs)
    patched = movers * backends_base._PATCH_CHURN <= len(keys)
    assert worklist.column_hits == (1 if patched else 0)
    # Patched vectors equal the vectors a fresh build computes.
    fresh = FusedWorklist(program)
    fresh.evaluate(jobs, keys)
    for slot, vector in worklist._vectors.items():
        assert vector == fresh._residue_vector(slot)


def test_a_few_movers_compute_no_full_population_vector():
    """Residency: a warm pass with a few movers reuses every residue vector.

    The movers' residues come from the slot-major kernel and overwrite their
    own entries; no slot needs a fresh full-population column combination.
    """
    w = world()
    program = w.programs[1]
    n = 24
    cells = list(range(n))
    worklist = FusedWorklist(program)
    worklist.evaluate(_full_jobs(w, 1, cells), [(i, 0) for i in range(n)])
    cached = set(worklist._vectors)
    assert cached  # pass 1 computed the vectors it needed

    misses = []
    compute = worklist._residue_vector

    def spy(slot):
        if slot not in worklist._vectors:
            misses.append(slot)
        return compute(slot)

    worklist._residue_vector = spy
    for i in (3, 11):
        cells[i] = (cells[i] + 7) % n
    keys = [(i, 1 if i in (3, 11) else 0) for i in range(n)]
    jobs = _full_jobs(w, 1, cells)
    assert worklist.evaluate(jobs, keys) == w.backend.fused_eval(program, jobs)
    assert misses == []
    assert set(worklist._vectors) == cached


def test_repeat_passes_charge_exactly_the_jobs_that_need_evaluation():
    """The worklist keeps no outcomes: a repeat pass over an unchanged
    population charges every job it is asked to evaluate again, and a job
    that needs nothing is charged nothing (the matching engine answers those
    from its remembered outcomes)."""
    w = world()
    program = w.programs[0]
    jobs = _full_jobs(w, 0, list(range(12)))
    keys = [(i, 0) for i in range(12)]
    expected = w.backend.fused_eval(program, jobs)
    worklist = FusedWorklist(program)
    assert worklist.evaluate(jobs, keys) == expected
    rows, pairings = worklist.evaluate(jobs, keys)
    assert (rows, pairings) == expected
    assert pairings > 0
    assert worklist.column_hits == 1  # served from the packed columns
    rows[0].append("caller scribble")  # returned rows are the caller's own
    assert worklist.evaluate(jobs, keys) == expected
    idle = [job[:4] + ((),) for job in jobs]
    idle[3] = jobs[3]
    rows, pairings = worklist.evaluate(idle, keys)
    assert (rows, pairings) == w.backend.fused_eval(program, idle)
    assert 0 < pairings < expected[1]


def test_patched_columns_are_repacked_before_a_new_vector_is_combined():
    """A slot first needed after patches combines up-to-date columns, also
    when a job moved twice since the columns were last packed."""
    w = world()
    program = w.programs[0]
    n = 40
    movers = 3
    cells = [i % len(w.pool) for i in range(n)]
    worklist = FusedWorklist(program)
    # Passes 1 and 2 only need the first batch, so later batches' slots stay
    # uncached; pass 3 needs them all.
    for version, needed in enumerate([(0,), (0,), tuple(range(len(program.batches)))]):
        if version:
            for i in range(movers):
                cells[i] = (cells[i] + 5) % len(w.pool)
        keys = [(i, version if i < movers else 0) for i in range(n)]
        jobs = [w.pool[c]._exponent_rows + (needed,) for c in cells]
        assert worklist.evaluate(jobs, keys) == w.backend.fused_eval(program, jobs)
        assert worklist.column_hits == version  # patched, not rebuilt
        assert worklist._columns_stale == (version == 1)
    fresh = FusedWorklist(program)
    fresh.evaluate(jobs, keys)
    assert worklist._columns == fresh._columns


# ----------------------------------------------------------------------
# The limb bound
# ----------------------------------------------------------------------
P = (1 << 63) - 25  # prime; 2*63 + 18 = 144 bits is already byte-aligned
Q = (1 << 61) - 1
MATCH_EXP = 12345


def _widest_positions(p: int) -> int:
    """Most positions whose worst-case limb sum still fits the limb width."""
    limb_bits = -(-(2 * p.bit_length() + 18) // 8) * 8
    n = ((1 << limb_bits) - 1) // (p * p)  # most terms of at most p**2
    return (n - 2) // 2


def _maxed_program(npos: int, nslots: int) -> FusedProgram:
    """Every slot covers every position; k0 = 0 (coefficient p) and every
    other coefficient p - 1: the largest terms the packed sums can hold."""
    pairs = tuple((pos, P - 1, P - 1) for pos in range(npos))
    batch = tuple((slot, P, pairs, 1 + 2 * npos) for slot in range(nslots))
    return FusedProgram(
        modulus=P * Q, match_exp=MATCH_EXP, batches=(batch,), generalizers=None,
        factors=(P, Q),
    )


def test_widest_plan_sums_are_exact_with_p_minus_1_residues():
    npos = _widest_positions(P)
    nslots = 3
    program = _maxed_program(npos, nslots)
    worklist = FusedWorklist(program)
    limb = worklist._limb_bits
    # The widest the constructor accepts: one more position overflows.
    assert (2 + 2 * npos) * P * P < 1 << limb <= (2 + 2 * (npos + 1)) * P * P
    # Every residue p - 1: c' - match_exp, c0 and every c1/c2 entry.
    c = [P - 1] * npos
    job = (MATCH_EXP + P - 1, P - 1, c, c, (0,))
    row = worklist._reduce_row(job)
    assert set(row) == {P - 1}
    exact = (P - 1) + (P - 1) * P + 2 * npos * (P - 1) ** 2
    assert exact < 1 << limb
    # Slot-major: every slot's limb holds the exact sum, no carry between.
    assert worklist._slot_sums(row) == [exact] * nslots
    # User-major: the maxed job's limb does not carry into its neighbour, a
    # job whose sum is 0 mod p (its c' residue lowered from p - 1 to -2n).
    assert exact % P != 0
    zero = (MATCH_EXP + (-2 * npos) % P, P - 1, c, c, (0,))
    jobs = [job, zero]
    rows, pairings = worklist.evaluate(jobs, [0, 1])
    assert (rows, pairings) == get_backend("reference").fused_eval(program, jobs)
    assert worklist._residue_vector(0) == [False, True]


def test_a_plan_wider_than_the_limb_is_refused():
    with pytest.raises(ValueError, match="overflow"):
        FusedWorklist(_maxed_program(_widest_positions(P) + 1, 1))
