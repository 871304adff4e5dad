"""Composite-order symmetric bilinear group (ideal-group-model simulation).

The HVE construction of Section 2.1 of the paper requires a symmetric bilinear
map ``e: G x G -> GT`` where ``G`` and ``GT`` are cyclic groups of composite
order ``N = P * Q`` (``P``, ``Q`` large primes) and, for all ``a, b in G`` and
``u, v in Z``, ``e(a^u, b^v) = e(a, b)^(u*v)``.

Real instantiations use supersingular elliptic-curve pairings, which are not
practical to implement from scratch in pure Python.  Because every algorithm
in the paper -- key generation, encryption, token generation and the query
evaluation -- manipulates group elements only through the abstract group
operations (multiplication, exponentiation, pairing), we can instead run the
construction in the *ideal group model*: an element ``g^x`` is represented by
the exponent ``x mod N`` hidden inside an opaque object.  All algebraic
identities (bilinearity, subgroup orthogonality of ``G_p`` and ``G_q`` under
the pairing, cancellation of blinding factors) then hold *exactly*, and the
paper's cost metric -- the number of pairing evaluations, proportional to the
number of non-star symbols in tokens -- is preserved verbatim.

The group additionally supports a configurable *pairing work factor* so that
wall-clock benchmarks reflect the fact that pairings dominate the cost of real
HVE: each pairing call optionally performs a number of large modular
exponentiations before returning.

All big-integer arithmetic is delegated to a pluggable
:class:`~repro.crypto.backends.base.GroupBackend` (see
:mod:`repro.crypto.backends`): the group converts its order and prime factors
into the backend's native number type once at construction, after which every
element exponent -- and therefore every group operation, pairing and work-
factor burn -- runs on backend arithmetic.  The pure-Python ``reference``
backend reproduces the seed behaviour exactly; the optional ``gmpy2`` backend
is numerically identical but faster, and is auto-selected when installed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from time import perf_counter
from typing import Iterable, Optional, Sequence, Union

from repro.crypto.backends import (
    FixedBaseTable,
    FusedProgram,
    FusedWorklist,
    GroupBackend,
    get_backend,
)
from repro.crypto.counting import PairingCounter
from repro.crypto.primes import generate_distinct_primes

__all__ = ["BilinearGroup", "GroupElement", "GTElement", "GroupParams"]


@dataclass(frozen=True)
class GroupParams:
    """Public parameters describing a composite-order bilinear group."""

    n: int
    prime_bits: int

    @property
    def modulus_bits(self) -> int:
        """Bit length of the composite group order ``N``."""
        return self.n.bit_length()


class GroupElement:
    """An element of the source group ``G`` of composite order ``N``.

    Internally the element is the discrete logarithm of ``g^x`` to the fixed
    generator ``g``; the exponent is private to the crypto layer and never
    exposed through ``__repr__`` or serialization used by the service
    provider.
    """

    __slots__ = ("_group", "_exp")

    def __init__(self, group: "BilinearGroup", exponent: int):
        self._group = group
        self._exp = exponent % group.order

    @property
    def group(self) -> "BilinearGroup":
        """The group this element belongs to."""
        return self._group

    def _require_same_group(self, other: "GroupElement") -> None:
        if self._group is not other._group:
            raise ValueError("cannot combine elements from different groups")

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        if not isinstance(other, GroupElement):
            return NotImplemented
        self._require_same_group(other)
        return GroupElement(self._group, self._exp + other._exp)

    def __truediv__(self, other: "GroupElement") -> "GroupElement":
        if not isinstance(other, GroupElement):
            return NotImplemented
        self._require_same_group(other)
        return GroupElement(self._group, self._exp - other._exp)

    def __pow__(self, scalar: int) -> "GroupElement":
        if not isinstance(scalar, int):
            return NotImplemented
        # Exponentiation is multiplication in dlog space; a scalar wider than
        # the group order is reduced first so the intermediate product stays
        # bounded by ~2x the order's size (the constructor reduces the result
        # anyway, so outcomes are unchanged).
        if scalar.bit_length() > self._group._order_bits:
            scalar %= self._group._n
        return GroupElement(self._group, self._exp * scalar)

    def inverse(self) -> "GroupElement":
        """Multiplicative inverse in ``G``."""
        return GroupElement(self._group, -self._exp)

    def is_identity(self) -> bool:
        """True if this is the identity element of ``G``."""
        return self._exp == 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GroupElement):
            return NotImplemented
        return self._group is other._group and self._exp == other._exp

    def __hash__(self) -> int:
        return hash(("G", id(self._group), self._exp))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GroupElement(<hidden>, group_order_bits={self._group.order.bit_length()})"

    # The exponent is exposed only to the serialization module through a
    # deliberately underscored accessor.
    def _discrete_log(self) -> int:
        return self._exp


class GTElement:
    """An element of the target group ``GT`` of composite order ``N``."""

    __slots__ = ("_group", "_exp")

    def __init__(self, group: "BilinearGroup", exponent: int):
        self._group = group
        self._exp = exponent % group.order

    @property
    def group(self) -> "BilinearGroup":
        """The group this element belongs to."""
        return self._group

    def _require_same_group(self, other: "GTElement") -> None:
        if self._group is not other._group:
            raise ValueError("cannot combine elements from different groups")

    def __mul__(self, other: "GTElement") -> "GTElement":
        if not isinstance(other, GTElement):
            return NotImplemented
        self._require_same_group(other)
        return GTElement(self._group, self._exp + other._exp)

    def __truediv__(self, other: "GTElement") -> "GTElement":
        if not isinstance(other, GTElement):
            return NotImplemented
        self._require_same_group(other)
        return GTElement(self._group, self._exp - other._exp)

    def __pow__(self, scalar: int) -> "GTElement":
        if not isinstance(scalar, int):
            return NotImplemented
        # See GroupElement.__pow__: pre-reduce oversized scalars mod N.
        if scalar.bit_length() > self._group._order_bits:
            scalar %= self._group._n
        return GTElement(self._group, self._exp * scalar)

    def inverse(self) -> "GTElement":
        """Multiplicative inverse in ``GT``."""
        return GTElement(self._group, -self._exp)

    def is_identity(self) -> bool:
        """True if this is the identity element of ``GT``."""
        return self._exp == 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GTElement):
            return NotImplemented
        return self._group is other._group and self._exp == other._exp

    def __hash__(self) -> int:
        return hash(("GT", id(self._group), self._exp))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GTElement(<hidden>, group_order_bits={self._group.order.bit_length()})"

    def _discrete_log(self) -> int:
        return self._exp


class BilinearGroup:
    """A symmetric bilinear group of composite order ``N = P * Q``.

    Parameters
    ----------
    prime_bits:
        Bit length of each of the two primes ``P`` and ``Q``.  128 bits per
        prime (256-bit ``N``) is the default; tests use smaller groups for
        speed.
    rng:
        Random source used for prime generation and random sampling.  Pass a
        seeded :class:`random.Random` for reproducible experiments.
    pairing_work_factor:
        Number of extra large modular exponentiations performed per pairing
        call.  ``0`` (default) makes pairings cheap; a positive value lets
        wall-clock benchmarks approximate the relative cost profile of a real
        pairing backend, where pairings are orders of magnitude more expensive
        than group operations.
    counter:
        Optional shared :class:`PairingCounter`; one is created if omitted.
    backend:
        Arithmetic backend: a registered backend name (``"reference"``,
        ``"gmpy2"``), a live :class:`~repro.crypto.backends.base.GroupBackend`
        instance, or ``None`` for auto-selection (environment override via
        ``REPRO_CRYPTO_BACKEND``, then the best available backend).
    """

    def __init__(
        self,
        prime_bits: int = 128,
        rng: Optional[random.Random] = None,
        pairing_work_factor: int = 0,
        counter: Optional[PairingCounter] = None,
        backend: Optional[Union[str, GroupBackend]] = None,
    ):
        if prime_bits < 16:
            raise ValueError(f"prime_bits must be >= 16, got {prime_bits}")
        self._rng = rng or random.Random()
        p, q = generate_distinct_primes(prime_bits, count=2, rng=self._rng)
        self._bind_numbers(p, q, prime_bits, pairing_work_factor, counter, backend)

    @classmethod
    def from_primes(
        cls,
        p: int,
        q: int,
        pairing_work_factor: int = 0,
        counter: Optional[PairingCounter] = None,
        backend: Optional[Union[str, GroupBackend]] = None,
        rng: Optional[random.Random] = None,
    ) -> "BilinearGroup":
        """Rebuild a group from known prime factors (no prime generation).

        This is how tests pin two backends to numerically identical groups.  The caller is trusted
        to supply distinct primes -- typically ones a previous
        :class:`BilinearGroup` generated.
        """
        if p == q:
            raise ValueError("the two prime factors must be distinct")
        group = cls.__new__(cls)
        group._rng = rng or random.Random()
        prime_bits = min(int(p).bit_length(), int(q).bit_length())
        group._bind_numbers(p, q, prime_bits, pairing_work_factor, counter, backend)
        return group

    def _bind_numbers(
        self,
        p: int,
        q: int,
        prime_bits: int,
        pairing_work_factor: int,
        counter: Optional[PairingCounter],
        backend: Optional[Union[str, GroupBackend]],
    ) -> None:
        """Convert the group constants into backend-native numbers once."""
        self.backend = get_backend(backend)
        make = self.backend.make_int
        self._p = make(p)
        self._q = make(q)
        self._n = self._p * self._q
        self._prime_bits = prime_bits
        self._pairing_work_factor = pairing_work_factor
        self._order_bits = int(self._n).bit_length()
        self.counter = counter if counter is not None else PairingCounter()
        # A fixed odd modulus, base and exponent schedule used only to burn
        # pairing work.  Everything is converted to backend-native numbers
        # here, once: the burn loop is the hottest call site in work-factor
        # benchmarks, and a per-call conversion (or rebuilding `N | 3` per
        # call) would cost a large-integer allocation per burned powmod.
        # Each simulated pairing burns ``pairing_work_factor`` *fixed-base*
        # exponentiations of the work base; the exponents vary per scheduled
        # step (the hoisted ``N | 3`` plus a small even offset, so each stays
        # odd and full-width) -- equal work to the seed's burn, but open to
        # fixed-base precomputation.
        self._work_modulus = self._n | 1
        self._work_base = make(0xC0FFEE) % self._work_modulus
        self._work_exponent = self._n | 3
        self._work_exponents = tuple(
            self._work_exponent + (step << 1) for step in range(pairing_work_factor)
        )
        # The fixed-base table for the work base: built lazily on the first
        # burn (or eagerly via warm_precomputation) when the backend says the
        # modulus is big enough for the table walk to win.
        self._work_table: Optional[FixedBaseTable] = None
        self._work_table_decided = False
        #: Modular exponentiations served from fixed-base precomputation
        #: tables (plus HVE per-key program hits); surfaced through
        #: :class:`~repro.protocol.matching.PassStats` as ``precomp_hits``.
        self.precomp_hits = 0
        self._last_work = None

    # ------------------------------------------------------------------
    # Public parameters
    # ------------------------------------------------------------------
    @property
    def order(self) -> int:
        """The composite group order ``N = P * Q``."""
        return self._n

    @property
    def p(self) -> int:
        """The prime ``P`` (secret in a real deployment; used by key setup)."""
        return self._p

    @property
    def q(self) -> int:
        """The prime ``Q`` (secret in a real deployment; used by key setup)."""
        return self._q

    @property
    def prime_bits(self) -> int:
        """Bit length of each prime factor."""
        return self._prime_bits

    @property
    def pairing_work_factor(self) -> int:
        """Modular exponentiations burned per pairing (wall-clock cost model)."""
        return self._pairing_work_factor

    @property
    def backend_name(self) -> str:
        """Registry name of the arithmetic backend this group runs on."""
        return self.backend.name

    def params(self) -> GroupParams:
        """Return the public group parameters (order only, not the factors)."""
        return GroupParams(n=self._n, prime_bits=self._prime_bits)

    # ------------------------------------------------------------------
    # Element constructors
    # ------------------------------------------------------------------
    @property
    def generator(self) -> GroupElement:
        """A generator ``g`` of the full group ``G``."""
        return GroupElement(self, 1)

    @property
    def gt_generator(self) -> GTElement:
        """The canonical generator ``e(g, g)`` of ``GT``."""
        return GTElement(self, 1)

    def identity(self) -> GroupElement:
        """The identity of ``G``."""
        return GroupElement(self, 0)

    def gt_identity(self) -> GTElement:
        """The identity of ``GT``."""
        return GTElement(self, 0)

    def element_from_exponent(self, exponent: int) -> GroupElement:
        """Return ``g**exponent`` (used by deserialization and tests)."""
        return GroupElement(self, exponent)

    def gt_element_from_exponent(self, exponent: int) -> GTElement:
        """Return ``e(g, g)**exponent`` (used by deserialization and tests)."""
        return GTElement(self, exponent)

    # ------------------------------------------------------------------
    # Random sampling
    # ------------------------------------------------------------------
    def random_zn(self) -> int:
        """Uniform scalar in ``Z_N``, non-zero modulo *both* prime factors.

        A scalar that is ``0 mod P`` (a multiple of ``P``) collapses any
        ``G_p`` component it exponentiates, and symmetrically for ``Q``: a
        blinding factor ``z = g_q ** s`` with ``s ≡ 0 (mod Q)`` silently
        degenerates to the identity and the ciphertext component it was meant
        to blind is exposed.  Sampling therefore rejects multiples of either
        prime (an event of probability ``~2^-prime_bits``, so the loop is
        effectively free).
        """
        while True:
            scalar = self._rng.randrange(1, self._n)
            if scalar % self._p and scalar % self._q:
                return scalar

    def random_zp(self) -> int:
        """Uniform scalar in ``Z_P``, guaranteed non-zero mod ``P``.

        The sample is drawn from ``[1, P)`` so it can never be ``0 mod P``.
        """
        return self._rng.randrange(1, self._p)

    def random_zq(self) -> int:
        """Uniform scalar in ``Z_Q``, guaranteed non-zero mod ``Q``.

        The sample is drawn from ``[1, Q)`` so it can never be ``0 mod Q``.
        """
        return self._rng.randrange(1, self._q)

    def random_g(self) -> GroupElement:
        """Uniform random element of the full group ``G``."""
        return GroupElement(self, self.random_zn())

    def random_gp_exponent(self) -> int:
        """Discrete log of a uniform random ``G_p`` element (backend-native).

        The exponent-space twin of :meth:`random_gp` -- same rng consumption,
        same distribution -- used by the HVE per-key programs, which work in
        raw exponent arithmetic and must stay bit-identical with the
        element-wise path.
        """
        return self._q * self.random_zp()

    def random_gq_exponent(self) -> int:
        """Discrete log of a uniform random ``G_q`` element (backend-native).

        Exponent-space twin of :meth:`random_gq`; see
        :meth:`random_gp_exponent`.
        """
        return self._p * self.random_zq()

    def random_gp(self) -> GroupElement:
        """Uniform random element of the order-``P`` subgroup ``G_p``.

        Elements of ``G_p`` are exactly the powers of ``g^Q``.
        """
        return GroupElement(self, self.random_gp_exponent())

    def random_gq(self) -> GroupElement:
        """Uniform random element of the order-``Q`` subgroup ``G_q``.

        Elements of ``G_q`` are exactly the powers of ``g^P``.
        """
        return GroupElement(self, self.random_gq_exponent())

    def gp_generator(self) -> GroupElement:
        """The canonical generator ``g^Q`` of ``G_p``."""
        return GroupElement(self, self._q)

    def gq_generator(self) -> GroupElement:
        """The canonical generator ``g^P`` of ``G_q``."""
        return GroupElement(self, self._p)

    def random_gt(self) -> GTElement:
        """Uniform random element of ``GT``."""
        return GTElement(self, self.random_zn())

    def random_message(self) -> GTElement:
        """Random plaintext message in the subgroup ``GT_p``.

        HVE messages must live in the order-``P`` part of ``GT`` so that the
        ``G_q`` blinding factors cancel during ``Query``; this mirrors the
        Boneh-Waters construction where ``M`` is chosen in the image of
        ``e(g_p, g_p)``.
        """
        return GTElement(self, self._q * self.random_zp())

    # ------------------------------------------------------------------
    # Membership predicates
    # ------------------------------------------------------------------
    def in_gp(self, element: GroupElement) -> bool:
        """True if ``element`` lies in the order-``P`` subgroup ``G_p``."""
        return element._discrete_log() % self._q == 0

    def in_gq(self, element: GroupElement) -> bool:
        """True if ``element`` lies in the order-``Q`` subgroup ``G_q``."""
        return element._discrete_log() % self._p == 0

    # ------------------------------------------------------------------
    # The pairing
    # ------------------------------------------------------------------
    def pair(self, a: GroupElement, b: GroupElement) -> GTElement:
        """Evaluate the symmetric bilinear map ``e(a, b)``.

        Every call is recorded by the group's :class:`PairingCounter`; the
        count of these calls is the paper's primary cost metric.
        """
        if a.group is not self or b.group is not self:
            raise ValueError("pairing arguments must belong to this group")
        self.counter.record_pairing()
        if self._pairing_work_factor:
            self._burn_pairing_work()
        return GTElement(self, a._discrete_log() * b._discrete_log())

    def record_pairings(self, count: int) -> None:
        """Account for ``count`` pairings evaluated by a fused arithmetic path.

        Fused evaluation (``pair_product``, ``HVE.query_via_plan``) computes
        several pairings' worth of exponent arithmetic without going through
        :meth:`pair`; this method keeps the :class:`PairingCounter` and the
        pairing work factor exactly in step with the element-wise path, so the
        paper's cost metric is identical whichever path ran.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        if count == 0:
            return
        self.counter.record_pairing(count)
        if self._pairing_work_factor:
            self._burn(count)

    def pair_product(self, pairs: Iterable[tuple[GroupElement, GroupElement]]) -> GTElement:
        """Product of pairings ``prod_i e(a_i, b_i)`` via fused exponent arithmetic.

        Equivalent to multiplying the results of :meth:`pair` over ``pairs``
        but without allocating one :class:`GTElement` per pairing: the
        discrete logs are accumulated directly -- no intermediate list of
        term tuples either -- and reduced mod ``N`` once at the end.  The
        exponents are already backend-native numbers (they were reduced
        modulo the native group order at element construction), so the
        accumulation runs on backend arithmetic without any conversion.
        ``pairs`` may be any iterable, including a generator.  Exactly one
        pairing per pair is recorded (and the same pairing work is burned),
        so cost accounting matches the element-wise path.
        """
        acc = 0
        count = 0
        for a, b in pairs:
            if a.group is not self or b.group is not self:
                raise ValueError("pairing arguments must belong to this group")
            acc += a._exp * b._exp
            count += 1
        self.record_pairings(count)
        return GTElement(self, acc)

    def _burn_pairing_work(self) -> None:
        """Burn one pairing's worth of modular exponentiations (cost model)."""
        self._burn(1)

    def _burn(self, pairings: int) -> None:
        """Burn ``pairings`` rounds of the work schedule in one backend call.

        Every round performs ``pairing_work_factor`` fixed-base modular
        exponentiations -- the same count whether the burns arrive one
        :meth:`pair` at a time or batched through :meth:`record_pairings`,
        and whether or not the fixed-base table serves them.  The last power
        is stored as the ``_last_work`` witness parity tests compare across
        paths and backends.
        """
        table = self._work_table
        if table is None and not self._work_table_decided:
            table = self._ensure_work_table()
        self._last_work = self.backend.burn_powmods(
            self._work_base,
            self._work_exponents,
            self._work_modulus,
            repeats=pairings,
            table=table,
        )
        if table is not None:
            self.precomp_hits += pairings * len(self._work_exponents)

    # ------------------------------------------------------------------
    # Fixed-base precomputation (work-burn acceleration)
    # ------------------------------------------------------------------
    def _ensure_work_table(self) -> Optional[FixedBaseTable]:
        """Build the work-base table if this backend/modulus profits from one."""
        self._work_table_decided = True
        if not self._pairing_work_factor:
            return None
        threshold = self.backend.fixed_base_min_bits
        if threshold is None or int(self._work_modulus).bit_length() < threshold:
            return None
        # +2 bits of headroom: the schedule's exponents are N|3 plus a small
        # offset, and an undersized table would fall back to scalar powmods
        # for the top bits.
        self._work_table = self.backend.make_fixed_base(
            self._work_base, self._work_modulus, max_bits=self._order_bits + 2
        )
        return self._work_table

    def warm_precomputation(self, force: bool = False) -> float:
        """Build the fixed-base work table now; returns the build seconds.

        Idempotent and cheap when nothing is to build (work factor 0, table
        already decided, or the backend declares tables unprofitable for this
        modulus -- override the latter with ``force=True``, used by parity
        tests on deliberately tiny groups).  Benchmarks call this before
        timing so first-pass numbers do not include table construction.
        """
        start = perf_counter()
        if self._work_table is None:
            if force and self._pairing_work_factor:
                self._work_table_decided = True
                self._work_table = self.backend.make_fixed_base(
                    self._work_base, self._work_modulus, max_bits=self._order_bits + 2
                )
            elif not self._work_table_decided:
                self._ensure_work_table()
        return perf_counter() - start

    # ------------------------------------------------------------------
    # Fused evaluation (backend-executed worklists)
    # ------------------------------------------------------------------
    def fused_eval(
        self,
        program: FusedProgram,
        jobs: Sequence[tuple],
        worklist: Optional[FusedWorklist] = None,
        keys: Optional[Sequence] = None,
    ) -> tuple[list[list[bool]], int]:
        """Run a compiled evaluation worklist on the backend, fully accounted.

        Hands the whole worklist to
        :meth:`~repro.crypto.backends.base.GroupBackend.fused_eval` -- no
        per-pairing Python dispatch, one counter-lock acquisition and one
        batched burn for the entire list -- then records exactly the pairings
        the backend charged, keeping :class:`PairingCounter` totals and burn
        counts bit-exact with the element-wise and planned scalar paths.

        With a resident ``worklist``
        (:meth:`~repro.crypto.backends.base.GroupBackend.make_fused_worklist`)
        and per-job ``keys``, the packed-column path runs instead -- same
        rows, same pairings; passes served from already-packed columns are
        counted as precomputation hits.
        """
        if worklist is not None:
            hits_before = worklist.column_hits
            rows, pairings = worklist.evaluate(jobs, keys)
            self.precomp_hits += worklist.column_hits - hits_before
        else:
            rows, pairings = self.backend.fused_eval(program, jobs)
        self.record_pairings(pairings)
        return rows, pairings

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BilinearGroup(prime_bits={self._prime_bits}, "
            f"order_bits={self._n.bit_length()}, backend={self.backend.name!r})"
        )
