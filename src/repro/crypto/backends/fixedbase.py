"""Windowed fixed-base precomputation tables for modular exponentiation.

The pairing work factor burns modular exponentiations of one *fixed base*
(the group's work base) under one fixed modulus -- the classic setting for
fixed-base windowing: precompute ``base**(d * 2**(w*j)) mod m`` for every
window row ``j`` and digit ``d``, after which any exponentiation of that base
reduces to one table lookup and one modular multiplication per ``w``-bit
digit, with no squarings at all.

On CPython this beats the built-in three-argument ``pow`` by 3-8x for the
modulus sizes the composite-order group works with (128-2048 bit), because
``pow`` must perform ``~bit_length`` squarings plus multiplications while the
table walk does ``bit_length / w`` multiplications total.  The win is real
only above a backend-dependent modulus size (see
:meth:`~repro.crypto.backends.base.GroupBackend.fixed_base_min_bits`): for
tiny modulus native ``pow`` is already sub-microsecond and the Python loop
overhead dominates, and GMP-backed ``powmod`` is so fast that a Python table
walk never pays off.

Tables are built once per (group, base) and cached on the
:class:`~repro.crypto.group.BilinearGroup`.
"""

from __future__ import annotations

from typing import Any, Optional

__all__ = ["FixedBaseTable"]


class FixedBaseTable:
    """Precomputed powers of one base modulo one modulus (``2**w``-ary rows).

    Row ``j`` holds ``base ** (d * 2**(window*j)) mod modulus`` for every
    digit ``d < 2**window``; :meth:`pow` scans an exponent ``window`` bits at
    a time and multiplies the matching entries.  Exponents longer than
    ``max_bits`` are handled by one native ``powmod`` of the overflow part,
    so the table never produces a wrong result -- it just stops being a pure
    table walk beyond its sizing.

    All stored numbers are whatever the building backend's ``make_int``
    produced, so the walk stays inside backend-native arithmetic.
    """

    __slots__ = ("base", "modulus", "window", "max_bits", "_rows", "_mask", "_overflow_base")

    def __init__(
        self,
        base: Any,
        modulus: Any,
        max_bits: int,
        window: Optional[int] = None,
    ):
        if max_bits < 1:
            raise ValueError("max_bits must be positive")
        if window is None:
            window = self.default_window(max_bits)
        if window < 1:
            raise ValueError("window must be positive")
        self.base = base
        self.modulus = modulus
        self.window = window
        self.max_bits = max_bits
        self._mask = (1 << window) - 1
        self._rows, self._overflow_base = self._build(base, modulus, max_bits, window)

    @staticmethod
    def default_window(max_bits: int) -> int:
        """Window width balancing build cost against per-exponent speed.

        ``w=6`` wins for the common 128-768 bit moduli (fewer, cheaper rows);
        ``w=8`` amortises better at the large sizes where each saved
        multiplication is expensive.
        """
        return 6 if max_bits <= 768 else 8

    @staticmethod
    def _build(base: Any, modulus: Any, max_bits: int, window: int) -> tuple[list, Any]:
        rows: list[list] = []
        row_base = base % modulus
        digits = 1 << window
        for _ in range(-(-max_bits // window)):
            row = [1] * digits
            acc = 1
            for d in range(1, digits):
                acc = acc * row_base % modulus
                row[d] = acc
            rows.append(row)
            # The next row's unit is this row's unit raised to 2**window.
            for _ in range(window):
                row_base = row_base * row_base % modulus
        # row_base is now base ** 2**(rows * window): the unit of the first
        # digit *beyond* the table, used to absorb oversized exponents.
        return rows, row_base

    @property
    def entries(self) -> int:
        """Total precomputed multiples held by the table."""
        return sum(len(row) for row in self._rows)

    def pow(self, exponent: Any) -> Any:
        """``base ** exponent mod modulus`` by table walk (exponent >= 0)."""
        if exponent < 0:
            raise ValueError("fixed-base exponents must be non-negative")
        modulus = self.modulus
        mask = self._mask
        window = self.window
        rows = self._rows
        acc = 1
        e = exponent
        for row in rows:
            if not e:
                break
            d = e & mask
            if d:
                acc = acc * row[d] % modulus
            e >>= window
        else:
            if e:
                # Exponent outruns the table sizing: finish with one native
                # powmod of the overflow part.  Correctness never depends on
                # max_bits being a true bound.
                acc = acc * pow(self._overflow_base, e, modulus) % modulus
        return acc % modulus

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FixedBaseTable(window={self.window}, max_bits={self.max_bits}, "
            f"entries={self.entries})"
        )
