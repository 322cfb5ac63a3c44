"""Byte-oriented range coder: 64-bit low, 32-bit range, carry counting.

Frequencies are 16-bit (total 65536) and every codable symbol must have a
nonzero frequency.  Carries propagate through a run of pending 0xFF bytes;
the leading cache byte is withheld until the first renormalization, so the
total overhead beyond the information content is at most ~4 bytes.
"""

from __future__ import annotations

from bisect import bisect_right

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
        if freq <= 0:
            raise RangeError("zero-probability symbol requested")
        r = self._range // TOTAL
        self._low += r * cum
        self._range = r * freq
        while self._range < _TOP:
            self._shift_low()
            self._range = (self._range << 8) & _MASK32

    def _shift_low(self):
        carry = self._low >> 32
        if self._low < 0xFF000000 or carry:
            if self._cache is not None:
                self._out.append((self._cache + carry) & 0xFF)
            for _ in range(self._pending):
                self._out.append((0xFF + carry) & 0xFF)
            self._pending = 0
            self._cache = (self._low >> 24) & 0xFF
        else:
            self._pending += 1
        self._low = (self._low << 8) & _MASK32

    def finish(self) -> bytes:
        for _ in range(5):
            self._shift_low()
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
        target = self.decode_target()
        # the last lo in [0, len - 2] with cum_table[lo] <= target (0 if none)
        lo = bisect_right(cum_table, target, 1, len(cum_table) - 1) - 1
        self.consume(cum_table[lo], cum_table[lo + 1] - cum_table[lo])
        return lo
