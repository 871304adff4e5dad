"""The abstract :class:`GroupBackend` interface.

A backend supplies the big-integer arithmetic a
:class:`~repro.crypto.group.BilinearGroup` runs on.  The ideal-group model
represents every group element by its discrete logarithm, so the scalar core
of the crypto layer reduces to two operations on large integers:

* conversion of a Python ``int`` into the backend's native number type
  (:meth:`GroupBackend.make_int`) -- the group stores its order and prime
  factors in native form, after which ordinary operators (``+``, ``*``, ``%``)
  stay inside the backend's arithmetic automatically;
* modular exponentiation (:meth:`GroupBackend.powmod`) -- the pairing work
  factor's cost model burns one large ``powmod`` per simulated pairing, which
  is exactly the operation a real pairing library spends its time in.

On top of the scalar core sits the *vectorized contract*: batch entry points
that let a backend run whole work lists without bouncing through per-call
Python dispatch.

* :meth:`GroupBackend.powmod_base_fixed` / :meth:`GroupBackend.make_fixed_base`
  -- fixed-base exponentiation through a windowed precomputation table
  (:class:`~repro.crypto.backends.fixedbase.FixedBaseTable`), built once per
  (group, base) and reused for every burn;
* :meth:`GroupBackend.multi_powmod` -- one product of powers
  ``prod_i bases[i]**exponents[i] mod m`` via Straus-style interleaving
  (shared squarings across all bases);
* :meth:`GroupBackend.burn_powmods` -- the pairing-work burn loop itself.
  Burns are a *cost model*: every scheduled exponentiation must actually
  execute, however redundant it looks -- a backend must never cache, batch
  away or otherwise elide burn work, only compute each exponentiation faster;
* :meth:`GroupBackend.fused_eval` -- a whole per-user HVE evaluation (every
  (ciphertext, token) pair of a worklist, including slot sharing and
  subsumption propagation) in one call, returning outcome rows plus the
  pairing count to account;
* :meth:`GroupBackend.make_fused_worklist` -- a resident packed-column form
  (:class:`FusedWorklist`) of a recurring worklist: ciphertext exponents are
  reduced modulo one prime factor and packed into big-integer columns, so a
  token evaluates against *every* user in a handful of huge multiplications
  instead of a Python loop per user.  A CRT argument keeps the packed path
  bit-exact with :meth:`GroupBackend.fused_eval`.

Backends must be *drop-in interchangeable*: for identical inputs every backend
returns numerically identical results (the native number type may differ, but
must compare equal to the Python ``int`` of the same value and support the
same operator set), identical match outcomes and identical pairing counts.
The protocol layer above never needs to know which backend is active.

Backends register themselves with :func:`repro.crypto.backends.register_backend`;
selection (auto-detection, environment override, explicit request) lives in
:mod:`repro.crypto.backends`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, ClassVar, Optional, Sequence

from repro.crypto.backends.fixedbase import FixedBaseTable

__all__ = ["GroupBackend", "FusedProgram", "FusedWorklist"]


@dataclass(frozen=True)
class FusedProgram:
    """A compiled, backend-executable form of one token-plan evaluation.

    Produced once per plan (see
    :func:`repro.protocol.matching._compile_fused_program`) and replayed by
    :meth:`GroupBackend.fused_eval` against many ciphertexts.  Everything is
    pre-resolved to native numbers and flat tuples so the evaluation loop
    touches no group objects, no method dispatch and no locks:

    ``batches``
        Per alert batch, the planned entries in evaluation order.  Each entry
        is ``(slot, k0, pairs, cost)`` where ``slot`` indexes the shared
        outcome cache, ``k0`` is the token's ``K_0`` discrete log, ``pairs``
        holds ``(position, k1, k2)`` triples for the non-star positions and
        ``cost = 1 + 2 * len(pairs)`` is the pairing charge of a fresh
        evaluation.
    ``generalizers``
        The plan's per-slot subsumption edges (``None`` when subsumption is
        off), walked exactly like the scalar planned evaluator walks them.
    ``match_exp`` / ``modulus``
        The canonical match message's discrete log and the group order, both
        backend-native.
    """

    modulus: Any
    match_exp: Any
    batches: tuple[tuple[tuple, ...], ...]
    generalizers: Optional[tuple[tuple[int, ...], ...]]
    #: The group order's prime factorisation ``(p, q)`` -- the ideal-group
    #: simulator knows it, and :class:`FusedWorklist` uses it for the CRT
    #: residue pre-filter.  ``None`` disables the packed resident path.
    factors: Optional[tuple[Any, Any]] = None


class GroupBackend(ABC):
    """Arithmetic provider for the ideal-group-model bilinear group.

    Class attributes
    ----------------
    name:
        Registry key of the backend (``"reference"``, ``"gmpy2"``, ...).
    priority:
        Auto-selection rank; when no backend is requested explicitly the
        available backend with the highest priority wins.
    fixed_base_min_bits:
        Smallest modulus bit length at which this backend's fixed-base table
        walk beats its own scalar :meth:`powmod`; ``None`` when tables never
        pay off (the group then skips building one).  The pure-Python walk
        wins from ~96 bits on CPython; a C-accelerated ``powmod`` is usually
        unbeatable by interpreted table walks at any size.
    """

    name: ClassVar[str]
    priority: ClassVar[int] = 0
    fixed_base_min_bits: ClassVar[Optional[int]] = None

    @classmethod
    def available(cls) -> bool:
        """True if this backend's dependencies are importable on this host."""
        return True

    @abstractmethod
    def make_int(self, value: int) -> Any:
        """Convert ``value`` into the backend's native big-integer type.

        The returned object must behave like the equivalent Python ``int``
        under ``+ - * % ==`` and ``hash``; mixed int/native expressions must
        stay in native arithmetic (which is what makes the conversion pay off:
        the group converts its order once and every reduction modulo it then
        runs natively).
        """

    @abstractmethod
    def powmod(self, base: Any, exponent: Any, modulus: Any) -> Any:
        """``base ** exponent mod modulus`` on native numbers."""

    # ------------------------------------------------------------------
    # Vectorized contract (generic implementations; backends may override)
    # ------------------------------------------------------------------
    def make_fixed_base(self, base: Any, modulus: Any, max_bits: int) -> FixedBaseTable:
        """Build a windowed precomputation table for ``base`` mod ``modulus``.

        ``max_bits`` sizes the table for the exponents the caller intends to
        feed it (oversized exponents still evaluate correctly, just slower).
        """
        return FixedBaseTable(base, modulus, max_bits)

    def powmod_base_fixed(
        self, base: Any, exponents: Sequence[Any], modulus: Any, table: Optional[FixedBaseTable] = None
    ) -> list:
        """``[base ** e mod modulus for e in exponents]`` for one fixed base.

        With ``table`` (a matching :meth:`make_fixed_base` product) each
        exponentiation is a table walk; without one the batch falls back to
        scalar :meth:`powmod` -- same results either way.
        """
        if table is not None:
            tpow = table.pow
            return [tpow(e) for e in exponents]
        powmod = self.powmod
        return [powmod(base, e, modulus) for e in exponents]

    def multi_powmod(self, bases: Sequence[Any], exponents: Sequence[Any], modulus: Any) -> Any:
        """``prod_i bases[i] ** exponents[i] mod modulus`` (one interleaved pass).

        The generic implementation is Straus's algorithm: bases are processed
        in chunks whose bit columns share one squaring chain, with a
        per-chunk table of subset products.  Exponents must be non-negative.
        """
        if len(bases) != len(exponents):
            raise ValueError("multi_powmod needs one exponent per base")
        if any(e < 0 for e in exponents):
            raise ValueError("multi_powmod exponents must be non-negative")
        result = 1 % modulus
        chunk = 6  # 2**6 subset products per table: small build, few mults
        for start in range(0, len(bases), chunk):
            group_bases = [b % modulus for b in bases[start : start + chunk]]
            group_exps = list(exponents[start : start + chunk])
            combos = [1] * (1 << len(group_bases))
            for i, b in enumerate(group_bases):
                step = 1 << i
                for s in range(step):
                    combos[step + s] = combos[s] * b % modulus
            max_bits = max((e.bit_length() for e in group_exps), default=0)
            acc = 1
            for bit in range(max_bits - 1, -1, -1):
                acc = acc * acc % modulus
                index = 0
                for i, e in enumerate(group_exps):
                    index |= ((e >> bit) & 1) << i
                if index:
                    acc = acc * combos[index] % modulus
            result = result * acc % modulus
        return result

    def burn_powmods(
        self,
        base: Any,
        exponents: Sequence[Any],
        modulus: Any,
        repeats: int = 1,
        table: Optional[FixedBaseTable] = None,
    ) -> Any:
        """Execute the pairing-work burn schedule; returns the last power.

        Performs ``repeats`` rounds of ``base ** e mod modulus`` over
        ``exponents`` -- ``repeats * len(exponents)`` modular exponentiations
        in total.  This is a *cost model*, not a computation to optimise
        away: implementations MUST perform every scheduled exponentiation
        (identical inputs included) and may only make each one cheaper, e.g.
        via the fixed-base ``table``.  The returned value feeds the group's
        ``_last_work`` witness, which parity tests compare across paths and
        backends.
        """
        acc = base
        if table is not None:
            tpow = table.pow
            for _ in range(repeats):
                for e in exponents:
                    acc = tpow(e)
        else:
            powmod = self.powmod
            for _ in range(repeats):
                for e in exponents:
                    acc = powmod(base, e, modulus)
        return acc

    def fused_eval(
        self, program: FusedProgram, jobs: Sequence[tuple]
    ) -> tuple[list[list[bool]], int]:
        """Run one compiled evaluation over a worklist of ciphertext jobs.

        Each job is ``(c_prime, c0, c1, c2, needed)``: the ciphertext's
        discrete logs (``c1``/``c2`` indexable by position) plus the batch
        indices still requiring evaluation.  Returns per-job outcome rows
        aligned with ``needed`` and the total pairings consumed, which the
        caller must account via
        :meth:`~repro.crypto.group.BilinearGroup.record_pairings` -- this
        method itself touches no counter and burns no work.

        Semantics replicate the scalar planned evaluator bit-exactly: shared
        slot outcomes per job, ancestor-failure short-circuits and
        true-backfill along the subsumption edges, per-batch short-circuit on
        the first matching token, and a charge of ``cost`` pairings for
        exactly the entries that are freshly evaluated.
        """
        modulus = program.modulus
        match_exp = program.match_exp
        batches = program.batches
        generalizers = program.generalizers
        pairings = 0
        rows: list[list[bool]] = []
        for c_prime, c0, c1, c2, needed in jobs:
            shared: dict[int, bool] = {}
            shared_get = shared.get
            row: list[bool] = []
            for index in needed:
                matched = False
                for slot, k0, pairs, cost in batches[index]:
                    outcome = shared_get(slot)
                    if outcome is None:
                        if (
                            generalizers is not None
                            and generalizers[slot]
                            and _ancestor_failed(generalizers, slot, shared)
                        ):
                            outcome = False
                        else:
                            denominator = c0 * k0
                            for position, k1, k2 in pairs:
                                denominator -= c1[position] * k1 + c2[position] * k2
                            pairings += cost
                            outcome = (c_prime - denominator - match_exp) % modulus == 0
                            if outcome and generalizers is not None and generalizers[slot]:
                                _backfill_true(generalizers, slot, shared)
                        shared[slot] = outcome
                    if outcome:
                        matched = True
                        break
                row.append(matched)
            rows.append(row)
        return rows, pairings

    def make_fused_worklist(self, program: FusedProgram) -> "FusedWorklist":
        """Build a resident packed-column evaluator for ``program``.

        Pays off when the same (plan, population) pair is evaluated
        repeatedly -- the matching engine keeps the worklist across passes
        and refreshes only the users whose ciphertexts changed.  Requires
        ``program.factors``; raises :class:`ValueError` without it.
        """
        return FusedWorklist(program)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


#: Refreshes that change at most ``1/_PATCH_CHURN`` of the keys are patched in
#: place; more churn rebuilds.  Measured with the 32x32 Huffman city's 6-zone
#: standing plan (74 slots over 141 positions, 64-bit primes, reference
#: backend, 2 vCPU Xeon at 2.0 GHz), best of three warm passes with ``k`` of ``n``
#: keys changed, patch vs rebuild:
#:
#: ======  ==============  ===============  ===============
#: n       k = n/8         k = n/2          k = 3n/4
#: ======  ==============  ===============  ===============
#: 200     17 vs 79 ms     100 vs 129 ms    143 vs 126 ms
#: 2000    222 vs 1249 ms  1035 vs 1341 ms  1573 vs 1348 ms
#: ======  ==============  ===============  ===============
#:
#: A patch costs ~0.7-1 ms per changed key at either size, a rebuild
#: ~0.4-0.7 ms per key of the population, so they cross between n/2 and 3n/4.
_PATCH_CHURN = 2


class FusedWorklist:
    """Resident packed-column form of a fused worklist.

    The ideal-group match test for one (token, ciphertext) pair is a linear
    combination of the ciphertext's exponents::

        x = c' - (c0*k0 - sum_p(c1[p]*k1 + c2[p]*k2)) - match_exp
        outcome = x % N == 0

    with ``N = p*q``.  Because the simulator knows the factorisation,
    ``x % N == 0  iff  x % p == 0 and x % q == 0`` (CRT), and ``x % p`` only
    depends on the inputs mod ``p``.  The worklist exploits this two ways:

    * **Pre-filter mod p.**  All per-user exponents are reduced mod ``p``
      once, at build/refresh time.  A random non-match survives the mod-``p``
      test with probability ~``1/p``, so almost every outcome is settled by
      single-word residues instead of full-width arithmetic.
    * **Packed columns.**  The reduced exponents are packed, one fixed-width
      limb per user, into big-integer *columns* (one per ciphertext
      component).  Evaluating a token against the whole population is then
      one linear combination of a handful of columns -- CPython executes it
      in ``_mul``/``_add`` over machine words, amortising all interpreter
      dispatch across users.  The limb width is sized so per-limb sums cannot
      carry into a neighbour (see ``_limb_bits``), making per-user extraction
      a byte-slice.

    The rare mod-``p`` survivors are confirmed against the full modulus with
    the exact scalar formula, so outcome rows are bit-identical to
    :meth:`GroupBackend.fused_eval` -- and the bookkeeping pass in
    :meth:`evaluate` replays the scalar control flow (shared slots, ancestor
    short-circuits, true-backfill, per-batch first-match break) over the
    vectorised outcomes, so pairing charges are bit-identical too.

    Residency: :meth:`evaluate` takes per-job ``keys`` (any hashable identity
    for a job's ciphertext, e.g. ``(user_id, sequence_number)``), so a warm
    pass costs time in proportion to the keys that changed plus the jobs that
    need evaluation (the matching engine sends an empty ``needed`` for a user
    whose outcomes it remembers):

    * Each slot's residue vector (one pre-filter outcome per job) is cached
      and survives refreshes.  A changed key's residues against *every* slot
      come from one slot-major packed combination -- the token coefficients
      packed one limb per slot, same limb width and carry-free argument as
      the user-major columns -- and overwrite only that job's entry.
    * The user-major columns are repacked from the reduced rows only when a
      slot without a cached vector needs them -- rare, since a vector once
      combined is patched from then on.  A repack (9.6 ms at 200 users,
      183 ms at 2000) is bounded, where limb surgery on every column
      (0.5 / 5.1 ms per changed key) would pile up across passes.

    Churn above ``1/_PATCH_CHURN`` of the keys, or a change in population
    size, rebuilds columns and vectors from scratch.
    """

    def __init__(self, program: FusedProgram):
        if program.factors is None:
            raise ValueError("FusedWorklist needs program.factors=(p, q)")
        self._program = program
        self._modulus = program.modulus
        self._match_exp = program.match_exp
        p = int(program.factors[0])
        self._p = p
        self._match_exp_p = int(program.match_exp) % p
        # Deduplicate plan entries: one column-combination per distinct slot.
        # _slots holds mod-p token residues for the packed pre-filter;
        # _slots_full keeps the native-precision originals for confirmation.
        slots: dict[int, tuple[int, tuple[tuple[int, int, int], ...]]] = {}
        slots_full: dict[int, tuple[Any, tuple]] = {}
        for batch in program.batches:
            for slot, k0, pairs, _cost in batch:
                if slot not in slots:
                    slots[slot] = (
                        int(k0) % p,
                        tuple((pos, int(k1) % p, int(k2) % p) for pos, k1, k2 in pairs),
                    )
                    slots_full[slot] = (k0, pairs)
        self._slots = slots
        self._slots_full = slots_full
        self._slot_index = {slot: s for s, slot in enumerate(slots)}
        self._positions = sorted(
            {pos for _, pairs in slots.values() for pos, _k1, _k2 in pairs}
        )
        self._position_index = {pos: i for i, pos in enumerate(self._positions)}
        # A limb -- one job's slot in a user-major column combination, or one
        # slot's in a slot-major one -- sums one term per packed column:
        # the c' residue, c0*(p - k0) and two products per position, each
        # below p**2.  18 slack bits on top of 2*p.bit_length() keep that
        # carry-free up to ~130k positions; anything wider must not pack.
        self._limb_bits = -(-(2 * p.bit_length() + 18) // 8) * 8
        self._limb_bytes = self._limb_bits // 8
        if (2 + 2 * len(self._positions)) * p * p >= 1 << self._limb_bits:
            raise ValueError(
                f"{len(self._positions)} positions overflow a {self._limb_bits}-bit limb"
            )
        self._keys: Optional[list] = None
        self._rows_p: list[list[int]] = []  # per job, layout mirrors _columns
        self._columns: list[int] = []
        # True while _rows_p holds patches that _columns does not.
        self._columns_stale = False
        # Per slot, the mod-p pre-filter outcome of every job.  A refresh
        # patches changed jobs' entries in place, so vectors live until a
        # rebuild; a cache miss is the only full-population combination.
        self._vectors: dict[int, list[bool]] = {}
        # Slot-major token columns, built on the first patch (see _slot_sums).
        self._token_columns: Optional[list[int]] = None
        #: Passes served from already-packed columns (no full rebuild); the
        #: group folds this into its ``precomp_hits`` observability counter.
        self.column_hits = 0

    # -- packing -------------------------------------------------------
    def _reduce_row(self, job: tuple) -> list[int]:
        """One job's packed layout: [(c'-ME) % p, c0 % p, c1[pos].., c2[pos]..]."""
        c_prime, c0, c1, c2 = job[0], job[1], job[2], job[3]
        p = self._p
        row = [(int(c_prime) - self._match_exp_p) % p, int(c0) % p]
        row.extend(int(c1[pos]) % p for pos in self._positions)
        row.extend(int(c2[pos]) % p for pos in self._positions)
        return row

    def _pack(self, rows: Sequence[list[int]]) -> list[int]:
        """Transpose equal-length ``rows`` into columns, one limb per row."""
        nbytes = self._limb_bytes
        return [
            int.from_bytes(
                b"".join(row[col].to_bytes(nbytes, "little") for row in rows), "little"
            )
            for col in range(2 + 2 * len(self._positions))
        ]

    def _limbs(self, packed: int, count: int) -> list[int]:
        """The first ``count`` limbs of a packed combination, low to high."""
        nbytes = self._limb_bytes
        raw = packed.to_bytes(count * nbytes + nbytes, "little")
        from_bytes = int.from_bytes
        return [
            from_bytes(raw[offset : offset + nbytes], "little")
            for offset in range(0, count * nbytes, nbytes)
        ]

    def _build(self, jobs: Sequence[tuple], keys: list) -> None:
        rows = [self._reduce_row(job) for job in jobs]
        self._columns = self._pack(rows)
        self._rows_p = rows
        self._keys = keys
        self._columns_stale = False
        self._vectors.clear()

    def _refresh(self, jobs: Sequence[tuple], keys: list) -> None:
        """Bring the packed state up to ``keys``: reuse, patch or rebuild."""
        if self._keys == keys:
            self.column_hits += 1
            return
        if self._keys is not None and len(self._keys) == len(keys):
            changed = [i for i, (a, b) in enumerate(zip(keys, self._keys)) if a != b]
            if len(changed) * _PATCH_CHURN <= len(keys):
                p = self._p
                slot_index = self._slot_index
                vectors = self._vectors.items()
                for i in changed:
                    row = self._reduce_row(jobs[i])
                    self._rows_p[i] = row
                    survived = [s % p == 0 for s in self._slot_sums(row)]
                    for slot, vector in vectors:
                        vector[i] = survived[slot_index[slot]]
                self._keys = keys
                self._columns_stale = True
                self.column_hits += 1
                return
        self._build(jobs, keys)

    # -- evaluation ----------------------------------------------------
    def _residue_vector(self, slot: int) -> list[bool]:
        """``x % p == 0`` for every packed job, via one column combination.

        Cached; refreshes patch the cached vectors in place.
        """
        cached = self._vectors.get(slot)
        if cached is not None:
            return cached
        if self._columns_stale:
            self._columns = self._pack(self._rows_p)
            self._columns_stale = False
        k0_p, pairs = self._slots[slot]
        p = self._p
        columns = self._columns
        pos_index = self._position_index
        npos = len(self._positions)
        # All terms positive: -c0*k0 is folded as +c0*(p - k0) mod p.
        acc = columns[0] + columns[1] * (p - k0_p)
        for pos, k1_p, k2_p in pairs:
            i = pos_index[pos]
            acc = acc + columns[2 + i] * k1_p + columns[2 + npos + i] * k2_p
        vector = [limb % p == 0 for limb in self._limbs(acc, len(self._keys))]
        self._vectors[slot] = vector
        return vector

    def _slot_sums(self, row: list[int]) -> list[int]:
        """Per slot, the non-negative sum whose residue mod p is ``row``'s
        pre-filter outcome, all slots in one packed combination.

        The transpose of :meth:`_residue_vector`: token coefficients are
        packed one limb per slot, so the job row combines against every slot
        at once.  Each limb holds the same sum a user-major limb would, so
        the same limb width keeps it carry-free.
        """
        columns = self._token_columns
        if columns is None:
            columns = self._token_columns = self._pack_tokens()
        acc = 0
        for value, column in zip(row, columns):
            if value:
                acc += value * column
        return self._limbs(acc, len(self._slots))

    def _pack_tokens(self) -> list[int]:
        """Slot-major columns: per row component, every slot's coefficient."""
        npos = len(self._positions)
        pos_index = self._position_index
        coefficients = []
        for k0_p, pairs in self._slots.values():
            limb = [1, self._p - k0_p] + [0] * (2 * npos)
            for pos, k1_p, k2_p in pairs:
                i = pos_index[pos]
                limb[2 + i] += k1_p
                limb[2 + npos + i] += k2_p
            coefficients.append(limb)
        return self._pack(coefficients)

    def _confirm(self, slot: int, job: tuple) -> bool:
        """Full-modulus check for a mod-p survivor: the exact scalar formula."""
        c_prime, c0, c1, c2 = job[0], job[1], job[2], job[3]
        k0, pairs = self._slots_full[slot]
        denominator = c0 * k0
        for position, k1, k2 in pairs:
            denominator -= c1[position] * k1 + c2[position] * k2
        return (c_prime - denominator - self._match_exp) % self._modulus == 0

    def evaluate(
        self, jobs: Sequence[tuple], keys: Sequence
    ) -> tuple[list[list[bool]], int]:
        """Drop-in for :meth:`GroupBackend.fused_eval`, same jobs and returns.

        ``keys`` carries one hashable identity per job (aligned with
        ``jobs``): it decides reuse vs. patch vs. rebuild of the packed state.
        """
        if keys is None:
            raise ValueError("a packed worklist needs per-job keys")
        keys = list(keys)
        if len(keys) != len(jobs):
            raise ValueError("evaluate needs one key per job")
        self._refresh(jobs, keys)
        pairings = 0
        rows: list[list[bool]] = []
        for j, job in enumerate(jobs):
            if not job[4]:
                rows.append([])
                continue
            row, charge = self._outcome_row(j, job, job[4])
            pairings += charge
            rows.append(row)
        return rows, pairings

    def _outcome_row(self, j: int, job: tuple, needed: Sequence[int]) -> tuple[list[bool], int]:
        """Job ``j``'s outcome row and pairing charge: the scalar control flow
        over the slots' pre-filter outcomes."""
        batches = self._program.batches
        generalizers = self._program.generalizers
        vectors_get = self._vectors.get
        shared: dict[int, bool] = {}
        shared_get = shared.get
        row: list[bool] = []
        charge = 0
        for index in needed:
            matched = False
            for slot, _k0, _pairs, cost in batches[index]:
                outcome = shared_get(slot)
                if outcome is None:
                    if (
                        generalizers is not None
                        and generalizers[slot]
                        and _ancestor_failed(generalizers, slot, shared)
                    ):
                        outcome = False
                    else:
                        charge += cost
                        vector = vectors_get(slot)
                        if vector is None:
                            vector = self._residue_vector(slot)
                        outcome = vector[j] and self._confirm(slot, job)
                        if outcome and generalizers is not None and generalizers[slot]:
                            _backfill_true(generalizers, slot, shared)
                    shared[slot] = outcome
                if outcome:
                    matched = True
                    break
            row.append(matched)
        return row, charge


def _ancestor_failed(
    generalizers: Sequence[tuple[int, ...]], slot: int, shared: dict[int, bool]
) -> bool:
    """A cached False at any (transitive) generaliser settles ``slot`` as False.

    Identical walk to the scalar planned evaluator's ``ancestor_failed``:
    recursion through the (possibly transitively reduced) edges, stopping at
    cached-True branches, so fused and scalar paths agree on which entries
    are answered without pairings.
    """
    stack = list(generalizers[slot])
    seen: set[int] = set()
    while stack:
        g = stack.pop()
        if g in seen:
            continue
        seen.add(g)
        outcome = shared.get(g)
        if outcome is False:
            return True
        if outcome is None:
            stack.extend(generalizers[g])
    return False


def _backfill_true(
    generalizers: Sequence[tuple[int, ...]], slot: int, shared: dict[int, bool]
) -> None:
    """A fresh True at ``slot`` answers every pattern that subsumes it."""
    stack = list(generalizers[slot])
    seen: set[int] = set()
    while stack:
        g = stack.pop()
        if g in seen:
            continue
        seen.add(g)
        if shared.get(g) is None:
            shared[g] = True
        stack.extend(generalizers[g])
