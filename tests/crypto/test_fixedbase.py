"""Tests for the fixed-base precomputation table and the vectorized contract.

The table is pure arithmetic: every test here pins its results against the
built-in three-argument ``pow``, which is the ground truth the whole crypto
layer is defined by.  The burn-parity tests additionally pin the group's
``_last_work`` witness, the cross-path invariant the work-factor cost model
guarantees (table-served and scalar burns must be indistinguishable).
"""

import random

import pytest

from repro.crypto.backends import FixedBaseTable, available_backends, get_backend
from repro.crypto.group import BilinearGroup

MODULUS_128 = (1 << 127) + 87  # arbitrary odd 128-bit modulus
BASE = 0xC0FFEE % MODULUS_128


class TestFixedBaseTable:
    def test_matches_builtin_pow_across_exponent_sizes(self):
        table = FixedBaseTable(BASE, MODULUS_128, max_bits=130)
        rng = random.Random(7)
        for bits in (0, 1, 5, 31, 64, 127, 130):
            exponent = rng.getrandbits(bits)
            assert table.pow(exponent) == pow(BASE, exponent, MODULUS_128)

    def test_oversized_exponents_fall_back_correctly(self):
        """Exponents beyond max_bits finish through the overflow base."""
        table = FixedBaseTable(BASE, MODULUS_128, max_bits=64)
        rng = random.Random(11)
        for bits in (65, 127, 200, 513):
            exponent = rng.getrandbits(bits) | (1 << (bits - 1))
            assert table.pow(exponent) == pow(BASE, exponent, MODULUS_128)

    def test_zero_and_one_exponents(self):
        table = FixedBaseTable(BASE, MODULUS_128, max_bits=130)
        assert table.pow(0) == 1 % MODULUS_128
        assert table.pow(1) == BASE % MODULUS_128


@pytest.mark.parametrize("backend_name", available_backends())
class TestVectorizedContract:
    def test_powmod_base_fixed_with_and_without_table(self, backend_name):
        backend = get_backend(backend_name)
        modulus = backend.make_int(MODULUS_128)
        base = backend.make_int(BASE)
        exponents = [backend.make_int(random.Random(5).getrandbits(b) | 1) for b in (8, 64, 127)]
        table = backend.make_fixed_base(base, modulus, max_bits=130)
        with_table = backend.powmod_base_fixed(base, exponents, modulus, table=table)
        without = backend.powmod_base_fixed(base, exponents, modulus)
        expected = [pow(int(base), int(e), int(modulus)) for e in exponents]
        assert [int(v) for v in with_table] == expected
        assert [int(v) for v in without] == expected

    def test_multi_powmod_matches_naive_product(self, backend_name):
        backend = get_backend(backend_name)
        rng = random.Random(13)
        modulus = backend.make_int(MODULUS_128)
        # More bases than one Straus chunk (6), so chunk stitching is covered.
        bases = [backend.make_int(rng.getrandbits(100) + 2) for _ in range(9)]
        exponents = [backend.make_int(rng.getrandbits(90)) for _ in range(9)]
        expected = 1
        for b, e in zip(bases, exponents):
            expected = expected * pow(int(b), int(e), MODULUS_128) % MODULUS_128
        assert int(backend.multi_powmod(bases, exponents, modulus)) == expected

    def test_multi_powmod_empty_and_validation(self, backend_name):
        backend = get_backend(backend_name)
        modulus = backend.make_int(97)
        assert int(backend.multi_powmod([], [], modulus)) == 1 % 97
        with pytest.raises(ValueError):
            backend.multi_powmod([backend.make_int(2)], [], modulus)
        with pytest.raises(ValueError):
            backend.multi_powmod([backend.make_int(2)], [backend.make_int(-1)], modulus)

    def test_burn_powmods_returns_last_power(self, backend_name):
        backend = get_backend(backend_name)
        modulus = backend.make_int(MODULUS_128)
        base = backend.make_int(BASE)
        exponents = [backend.make_int(e) for e in (5, 9, 13)]
        last = backend.burn_powmods(base, exponents, modulus, repeats=3)
        assert int(last) == pow(BASE, 13, MODULUS_128)


@pytest.mark.parametrize("backend_name", available_backends())
class TestGroupWorkTable:
    def test_forced_table_burn_is_bit_identical_to_scalar(self, backend_name):
        """The _last_work witness must not depend on whether a table served it.

        Tiny test groups sit below every fixed-base threshold, so ``force``
        builds a table that would never be built in production -- exactly the
        parity case: same schedule, same witness, hits recorded.
        """
        probe = BilinearGroup(prime_bits=32, rng=random.Random(21))
        p, q = int(probe.p), int(probe.q)
        scalar = BilinearGroup.from_primes(p, q, pairing_work_factor=3, backend=backend_name)
        tabled = BilinearGroup.from_primes(p, q, pairing_work_factor=3, backend=backend_name)
        tabled.warm_precomputation(force=True)
        scalar.record_pairings(4)
        tabled.record_pairings(4)
        assert scalar._last_work == tabled._last_work
        assert scalar.counter.total == tabled.counter.total
        if tabled._work_table is not None:
            assert tabled.precomp_hits == 4 * 3  # pairings * work factor

    def test_threshold_decides_table_construction(self, backend_name):
        threshold = get_backend(backend_name).fixed_base_min_bits
        small = BilinearGroup(prime_bits=32, rng=random.Random(23), pairing_work_factor=2,
                              backend=backend_name)
        small.record_pairings(1)
        assert small._work_table is None  # 64-bit modulus: below every threshold
        large = BilinearGroup(prime_bits=64, rng=random.Random(23), pairing_work_factor=2,
                              backend=backend_name)
        large.record_pairings(1)
        if threshold is None:
            assert large._work_table is None
        else:
            assert large._work_table is not None
            assert large.precomp_hits == 2

    def test_zero_work_factor_builds_nothing(self, backend_name):
        group = BilinearGroup(prime_bits=64, rng=random.Random(29), pairing_work_factor=0,
                              backend=backend_name)
        assert group.warm_precomputation() >= 0.0
        assert group._work_table is None
