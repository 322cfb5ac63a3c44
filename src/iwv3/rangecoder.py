"""Byte-oriented range coder: 32-bit range, 16-bit frequencies.

Frequencies are 16-bit (total 65536) and every codable symbol must have a
nonzero frequency and an interval inside [0, TOTAL).

The encoder's output is one exact sum (Martin, "Range encoding", 1979): each
symbol adds r * cum, r the range's top 16 bits before it, at the byte place
its renormalizations have reached, and the payload is the sum's bytes.  So
the range is the only state the encoder carries from symbol to symbol.
`RangeEncoder` runs that recurrence over a block of symbols in one Python
loop (`_ranges`); numpy places every term at its byte and sums the terms
that share a place, and Python ints resolve the carries, inside a block and
into the bytes that earlier blocks wrote.  The bytes are those of the classic
encoder with a 33-bit low, a cache byte and a run of pending 0xFF bytes that
a carry turns to 0x00.  `finish` writes the 4 bytes of low, so the payload
exceeds the information content by at most ~4 bytes.

`RangeDecoder._decode` is the one decode loop: `decode_tables` takes one
table per symbol, `decode_run` one table for the whole run, and `decode` is
the one-symbol case.  The loop spells TOTAL = 2^16 and the renormalization
bound 2^24 as literals and drops the mask that the state's bounds make a
no-op: a code under a range under 2^24 shifts to one under 2^32.

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
# Symbols the encoder codes at once: its per-symbol arrays and lists stay
# this long however long the runs it is given.
_BLOCK = 1 << 16
# Targets per lookup bucket: a target's bucket is its top 8 bits.
_BUCKET_BITS = 8
# The first and last target of each bucket.
_BUCKET_FIRST = np.arange(0, TOTAL, 1 << _BUCKET_BITS)
_BUCKET_LAST = _BUCKET_FIRST + ((1 << _BUCKET_BITS) - 1)
# The lookup of a table no bucket serves: every target bisects.
_NO_BUCKETS = (-1,) * (TOTAL >> _BUCKET_BITS)


class RangeError(ValueError):
    """Corrupt or exhausted range-coded payload."""


def _ranges(freqs, r):
    """The range's top 16 bits after each of the symbols of widths `freqs`,
    from `r` before the first."""
    for f in freqs:
        p = r * f
        r = p >> 16 if p >= 16777216 else p >> 8 if p >= 65536 else p
        yield r


class RangeEncoder:
    """Encoder whose only per-symbol state is the range's top 16 bits.

    `encode_run` checks a run's intervals at once and holds the valid ones;
    they are coded in blocks of _BLOCK symbols, and the rest at `finish`.
    `_out` holds the bytes written so far, which a carry may still change,
    and `_low` the 32 bits below them."""

    def __init__(self):
        self._r = _MASK32 >> 16
        self._low = 0
        self._out = bytearray()
        self._cums, self._freqs, self._held = [], [], 0

    def encode(self, cum: int, freq: int) -> None:
        """Encode a symbol spanning [cum, cum + freq) of [0, TOTAL)."""
        self.encode_run((cum,), (freq,))

    def encode_run(self, cums, freqs) -> None:
        """Encode the symbols spanning [cums[j], cums[j] + freqs[j]) in turn.

        Symbols before one whose interval is empty or leaves [0, TOTAL) stay
        encoded when it raises."""
        cums = np.array(cums, dtype=np.int64)
        freqs = np.array(freqs, dtype=np.int64)
        # TOTAL - cums wraps only where cums < 0, which the first test refuses
        ok = (cums >= 0) & (cums < TOTAL) & (freqs > 0) & (freqs <= TOTAL - cums)
        n = len(ok) if ok.all() else int(ok.argmin())
        if n:
            self._cums.append(cums[:n])
            self._freqs.append(freqs[:n])
            self._held += n
            if self._held >= _BLOCK:
                self._code_held(final=False)
        if n < len(ok):
            cum, freq = int(cums[n]), int(freqs[n])
            if freq <= 0:
                raise RangeError("zero-probability symbol requested")
            raise RangeError(f"symbol interval [{cum}, {cum + freq}) "
                             f"outside [0, {TOTAL})")

    def finish(self) -> bytes:
        # Symbols at cum 0 leave the sum as it is; widths 1, 1 and 256 take
        # 2, 2 and 1 shifts to renormalize from any range, the five shifts
        # that move all of low out and one zero byte after it, which is not
        # written.
        self.encode_run((0, 0, 0), (1, 1, 256))
        self._code_held(final=True)
        return bytes(self._out[:-1])

    def _code_held(self, final: bool) -> None:
        """Code the held symbols in blocks of _BLOCK, and hold the rest of a
        block unless `final`."""
        cums, freqs = np.concatenate(self._cums), np.concatenate(self._freqs)
        end = len(cums) if final else len(cums) - len(cums) % _BLOCK
        for start in range(0, end, _BLOCK):
            self._code_block(cums[start:start + _BLOCK], freqs[start:start + _BLOCK])
        self._cums, self._freqs = [cums[end:].copy()], [freqs[end:].copy()]
        self._held = len(cums) - end

    def _code_block(self, cums, freqs) -> None:
        """Code a block of valid intervals.

        The range after a symbol is r * freq shifted left by 2 bytes below
        2^16, by 1 below 2^24, else not at all, so the next r is r * freq
        shifted right by 0, 8 or 16 bits: that recurrence is the only loop.
        A symbol's term r * cum then counts 256^S times in the block's sum,
        S the shifts from it to the block's end, its own included."""
        after_r = np.fromiter(_ranges(freqs.tolist(), self._r), np.int64, len(freqs))
        r = np.concatenate(([self._r], after_r[:-1]))
        self._r = int(after_r[-1])
        p = r * freqs
        shifts = (p < 16777216).astype(np.int64) + (p < 65536)
        after = np.cumsum(shifts[::-1])[::-1]
        terms = r * cums
        terms[0] += self._low  # the low word sits where the first term does
        # per byte place, the sum of its terms: below 2^16 * 2^33, so exact
        # in float64, and as uint64 words 8 places apart one Python int each
        digits = np.bincount(after, weights=terms).astype("<u8")
        total = sum(int.from_bytes(digits[k::8].tobytes(), "little") << (8 * k)
                    for k in range(8))
        # a carry byte, the bytes shifted out in the block, the new low word
        shifted = len(digits) - 1
        block = total.to_bytes(shifted + 5, "big")
        out = self._out
        if block[0]:
            # carry through the run of 0xFF bytes that ends the output
            i = len(out) - 1
            while out[i] == 255:
                out[i] = 0
                i -= 1
            out[i] += 1
        out += block[1:shifted + 1]
        self._low = int.from_bytes(block[shifted + 1:], "big")


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
