"""Byte-oriented range coder: 64-bit low, 32-bit range, carry counting.

Frequencies are 16-bit (total 65536) and every codable symbol must have a
nonzero frequency.  Carries propagate through a run of pending 0xFF bytes;
the leading cache byte is withheld until the first renormalization, so the
total overhead beyond the information content is at most ~4 bytes.

`RangeEncoder.encode_run` and `RangeDecoder.decode_tables` code a whole
sequence in one loop with the coder state in locals; `decode_tables` takes
one table per symbol, and `decode_run` is its case of one repeated table.
`encode` and `decode` are the one-symbol case.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import repeat

TOTAL_BITS = 16
TOTAL = 1 << TOTAL_BITS
_TOP = 1 << 24
_MASK32 = 0xFFFFFFFF


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

        Symbols before a zero-probability one stay encoded when it raises."""
        low, rng, cache, pending = self._low, self._range, self._cache, self._pending
        out = self._out
        try:
            for cum, freq in zip(cums, freqs):
                if freq <= 0:
                    raise RangeError("zero-probability symbol requested")
                r = rng // TOTAL
                low += r * cum
                rng = r * freq
                while rng < _TOP:
                    # shift the top byte of low out, through the cache and
                    # the pending 0xFF run that a carry may still change
                    carry = low >> 32
                    if low < 0xFF000000 or carry:
                        if cache is not None:
                            out.append((cache + carry) & 0xFF)
                        if pending:
                            out += bytes(((0xFF + carry) & 0xFF,)) * pending
                            pending = 0
                        cache = (low >> 24) & 0xFF
                    else:
                        pending += 1
                    low = (low << 8) & _MASK32
                    rng = (rng << 8) & _MASK32
        finally:
            self._low, self._range, self._cache, self._pending = low, rng, cache, pending

    def finish(self) -> bytes:
        # Symbols at cum 0 leave low as it is; widths 1, 1 and 256 take 2, 2
        # and 1 shifts to renormalize from any range, the five shifts that
        # push the cache, the pending bytes and all of low out.
        self.encode_run((0, 0, 0), (1, 1, 256))
        return bytes(self._out)


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
            self._range = (self._range << 8) & _MASK32

    def decode(self, cum_table) -> int:
        """Decode against a full cumulative table (cum_table[i+1] > cum_table[i])."""
        return self.decode_run(cum_table, 1)[0]

    def decode_run(self, cum_table, n: int) -> list:
        """Decode n symbols against one full cumulative table."""
        return self._decode(repeat(cum_table, n), len(cum_table))

    def decode_tables(self, cum_tables) -> list:
        """Decode one symbol against each full cumulative table in turn; the
        tables have one length."""
        return self._decode(cum_tables, len(cum_tables[0]) if cum_tables else 0)

    def _decode(self, cum_tables, size: int) -> list:
        """Decode one symbol per table of `size` entries.

        Symbols before a corrupt or missing byte stay consumed when it raises."""
        data, end, last = self._data, len(self._data), size - 1
        code, rng, pos = self._code, self._range, self._pos
        out = []
        try:
            for cum_table in cum_tables:
                r = rng // TOTAL
                target = code // r
                if target >= TOTAL:  # no encoder leaves the code there
                    raise RangeError(f"{self._name} corrupt before byte {pos}")
                # the last lo in [0, len - 2] with cum_table[lo] <= target (0 if none)
                lo = bisect_right(cum_table, target, 1, last) - 1
                cum = cum_table[lo]
                code -= r * cum
                rng = r * (cum_table[lo + 1] - cum)
                while rng < _TOP:
                    if pos >= end:
                        raise RangeError(f"{self._name} underrun at byte {pos}")
                    # code < range < 2^24 here, so the shifted code stays under 2^32
                    code = (code << 8) | data[pos]
                    pos += 1
                    rng = (rng << 8) & _MASK32
                out.append(lo)
        finally:
            self._code, self._range, self._pos = code, rng, pos
        return out
