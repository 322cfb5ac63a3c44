"""Byte-oriented range coder: 64-bit low, 32-bit range, carry counting.

Frequencies are 16-bit (total 65536) and every codable symbol must have a
nonzero frequency and an interval inside [0, TOTAL).  Carries propagate through a run of pending 0xFF bytes;
the leading cache byte is withheld until the first renormalization, so the
total overhead beyond the information content is at most ~4 bytes.

`RangeEncoder.encode_run` codes a whole sequence in one loop with the coder
state in locals, and `RangeDecoder._decode` is the one decode loop:
`decode_tables` takes one table per symbol, `decode_run` one table for the
whole run.  `encode` and `decode` are the one-symbol case.  The loops spell
TOTAL = 2^16 and the renormalization bound 2^24 as literals, and drop the
masks that the state's bounds make no-ops: a range under 2^24 shifts to one
under 2^32, and a cache byte plus its carry stays under 256.

A run decoded against one strictly increasing table looks its symbol up by
the target's top 8 bits first (`SymbolTable`): a bucket of 256 targets that
lies inside one symbol's interval gives that symbol, and only the others
bisect the table.  The lookup finds what the bisection would, so it changes
no symbol, state or error.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import repeat

import numpy as np

TOTAL_BITS = 16
TOTAL = 1 << TOTAL_BITS
_TOP = 1 << 24
_MASK32 = 0xFFFFFFFF
# Targets per lookup bucket: a target's bucket is its top 8 bits.
_BUCKET_BITS = 8
# The first and last target of each bucket.
_BUCKET_FIRST = np.arange(0, TOTAL, 1 << _BUCKET_BITS)
_BUCKET_LAST = _BUCKET_FIRST + ((1 << _BUCKET_BITS) - 1)
# The lookup of a table no bucket serves: every target bisects.
_NO_BUCKETS = (-1,) * (TOTAL >> _BUCKET_BITS)


class RangeError(ValueError):
    """Corrupt or exhausted range-coded payload."""


class RangeEncoder:
    def __init__(self):
        self._low = 0
        self._range = _MASK32
        self._cache = None
        self._pending = 0
        self._out = bytearray()

    def encode(self, cum: int, freq: int) -> None:
        """Encode a symbol spanning [cum, cum + freq) of [0, TOTAL)."""
        self.encode_run((cum,), (freq,))

    def encode_run(self, cums, freqs) -> None:
        """Encode the symbols spanning [cums[j], cums[j] + freqs[j]) in turn.

        Symbols before one whose interval is empty or leaves [0, TOTAL) stay
        encoded when it raises."""
        low, rng, cache, pending = self._low, self._range, self._cache, self._pending
        out = self._out
        append = out.append
        try:
            for cum, freq in zip(cums, freqs):
                if not 0 <= cum < cum + freq <= 65536:
                    if freq <= 0:
                        raise RangeError("zero-probability symbol requested")
                    raise RangeError(f"symbol interval [{cum}, {cum + freq}) "
                                     f"outside [0, {TOTAL})")
                r = rng >> 16
                low += r * cum
                rng = r * freq
                while rng < 16777216:
                    # shift the top byte of low (33 bits at most) out, through
                    # the cache and the pending 0xFF run a carry may change
                    if low < 0xFF000000:
                        if cache is not None:
                            append(cache)
                        if pending:
                            out += b"\xff" * pending
                            pending = 0
                        cache = low >> 24
                    elif low > 0xFFFFFFFF:
                        # a carry: no carry comes before the first cache byte
                        append(cache + 1)
                        if pending:
                            out += bytes(pending)
                            pending = 0
                        cache = (low >> 24) - 256
                    else:
                        pending += 1
                    low = (low << 8) & 0xFFFFFFFF
                    rng <<= 8
        finally:
            self._low, self._range, self._cache, self._pending = low, rng, cache, pending

    def finish(self) -> bytes:
        # Symbols at cum 0 leave low as it is; widths 1, 1 and 256 take 2, 2
        # and 1 shifts to renormalize from any range, the five shifts that
        # push the cache, the pending bytes and all of low out.
        self.encode_run((0, 0, 0), (1, 1, 256))
        return bytes(self._out)


class SymbolTable:
    """One full cumulative table, prepared for many `decode_run` calls.

    `cum` holds the entries as a list.  When they strictly increase, each
    bucket of 256 targets that the bisection of RangeDecoder maps to a single
    symbol holds that symbol, and every other bucket holds -1; an
    out-of-order table (a non-finite mixture's) bisects every target."""

    __slots__ = ("cum", "_buckets")

    def __init__(self, cum_table):
        arr = np.asarray(cum_table)
        self.cum = arr.tolist()
        self._buckets = _NO_BUCKETS
        if len(arr) > 1 and (arr[1:] > arr[:-1]).all():
            # the symbol _decode's bisection finds for a bucket's first and
            # last target; between them it finds one of the two
            inner = arr[1:-1]
            first = np.searchsorted(inner, _BUCKET_FIRST, side="right")
            last = np.searchsorted(inner, _BUCKET_LAST, side="right")
            self._buckets = np.where(first == last, first, -1).tolist()


class RangeDecoder:
    def __init__(self, data: bytes, name: str = "payload"):
        """`name` starts the message of every RangeError the decoder raises."""
        self._data, self._name = data, name
        self._pos = 0
        self._range = _MASK32
        self._code = 0
        for _ in range(4):
            self._code = (self._code << 8) | self._next_byte()

    def _next_byte(self) -> int:
        if self._pos >= len(self._data):
            raise RangeError(f"{self._name} underrun at byte {self._pos}")
        byte = self._data[self._pos]
        self._pos += 1
        return byte

    def decode_target(self) -> int:
        """Cumulative-frequency target of the next symbol, in [0, TOTAL)."""
        self._r = self._range // TOTAL
        target = self._code // self._r
        if target >= TOTAL:  # no encoder leaves the code there
            raise RangeError(f"{self._name} corrupt before byte {self._pos}")
        return target

    def consume(self, cum: int, freq: int) -> None:
        """Commit the symbol found at the last decode_target call."""
        self._code -= self._r * cum
        self._range = self._r * freq
        while self._range < _TOP:
            # code < range < 2^24 here, so the shifted code stays under 2^32
            self._code = (self._code << 8) | self._next_byte()
            self._range <<= 8

    def decode(self, cum_table) -> int:
        """Decode against a full cumulative table (cum_table[i+1] > cum_table[i])."""
        return self._decode(repeat(cum_table, 1), len(cum_table), _NO_BUCKETS)[0]

    def decode_run(self, cum_table, n: int) -> list:
        """Decode n symbols against one full cumulative table, or against the
        SymbolTable of one (which spares a run its preparation)."""
        if not isinstance(cum_table, SymbolTable):
            cum_table = SymbolTable(cum_table)
        table = cum_table.cum
        return self._decode(repeat(table, n), len(table), cum_table._buckets)

    def decode_tables(self, cum_tables) -> list:
        """Decode one symbol against each full cumulative table in turn; the
        tables have one length."""
        return self._decode(cum_tables, len(cum_tables[0]) if cum_tables else 0,
                            _NO_BUCKETS)

    def _decode(self, cum_tables, size: int, buckets) -> list:
        """Decode one symbol per table of `size` entries; `buckets` maps a
        target's top 8 bits to its symbol, or to -1 to bisect the table.  The
        symbol's interval is then read from its table.

        Symbols before a corrupt or missing byte stay consumed when it raises."""
        data, end, last = self._data, len(self._data), size - 1
        code, rng, pos = self._code, self._range, self._pos
        out = []
        append = out.append
        try:
            for cum_table in cum_tables:
                r = rng >> 16
                target = code // r
                if target >= 65536:  # no encoder leaves the code there
                    raise RangeError(f"{self._name} corrupt before byte {pos}")
                lo = buckets[target >> 8]
                if lo < 0:
                    # the last lo in [0, size - 2] with cum_table[lo] <= target
                    # (0 if none)
                    lo = bisect_right(cum_table, target, 1, last) - 1
                cum = cum_table[lo]
                code -= r * cum
                rng = r * (cum_table[lo + 1] - cum)
                while rng < 16777216:
                    if pos >= end:
                        raise RangeError(f"{self._name} underrun at byte {pos}")
                    # code < range < 2^24 here, so the shifted code stays under 2^32
                    code = (code << 8) | data[pos]
                    pos += 1
                    rng <<= 8
                append(lo)
        finally:
            self._code, self._range, self._pos = code, rng, pos
        return out
