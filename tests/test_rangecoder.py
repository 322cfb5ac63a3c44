import numpy as np
import pytest

from iwv3.rangecoder import TOTAL, RangeDecoder, RangeEncoder, RangeError


def encode_all(symbols, cum):
    rc = RangeEncoder()
    for s in symbols:
        rc.encode(int(cum[s]), int(cum[s + 1] - cum[s]))
    return rc.finish()


def decode_all(payload, cum, n):
    rc = RangeDecoder(payload)
    return [rc.decode(cum) for _ in range(n)]


class TestRangeCoder:
    def test_fair_bits_payload_size(self):
        cum = np.array([0, TOTAL // 2, TOTAL])
        rng = np.random.default_rng(0)
        symbols = rng.integers(0, 2, 1000)
        payload = encode_all(symbols, cum)
        assert 125 <= len(payload) <= 129
        assert decode_all(payload, cum, 1000) == symbols.tolist()

    def test_near_certain_symbol_tiny_payload(self):
        cum = np.array([0, TOTAL - 1, TOTAL])
        payload = encode_all([0], cum)
        assert len(payload) <= 5
        assert decode_all(payload, cum, 1) == [0]

    def test_zero_probability_rejected(self):
        rc = RangeEncoder()
        with pytest.raises(RangeError, match="zero-probability"):
            rc.encode(5, 0)

    def test_round_trip_fuzzed_distributions(self):
        rng = np.random.default_rng(1)
        total_symbols = 0
        while total_symbols < 100_000:
            k = int(rng.integers(2, 40))
            freqs = rng.integers(1, 1000, k)
            cum = np.concatenate([[0], np.cumsum(freqs)])
            cum = (cum * (TOTAL / cum[-1])).astype(np.int64)
            cum[-1] = TOTAL
            # enforce one tick per symbol after the rescale
            for i in range(1, k + 1):
                cum[i] = max(cum[i], cum[i - 1] + 1)
            n = int(rng.integers(1, 3000))
            symbols = rng.integers(0, k, n)
            payload = encode_all(symbols, cum)
            assert decode_all(payload, cum, n) == symbols.tolist()
            total_symbols += n

    def test_entropy_bound_with_slack(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            k = int(rng.integers(2, 16))
            freqs = rng.integers(1, 5000, k)
            cum = np.concatenate([[0], np.cumsum(freqs)])
            cum = (cum * (TOTAL / cum[-1])).astype(np.int64)
            cum[-1] = TOTAL
            for i in range(1, k + 1):
                cum[i] = max(cum[i], cum[i - 1] + 1)
            n = 2000
            symbols = rng.integers(0, k, n)
            payload = encode_all(symbols, cum)
            model_bits = sum(
                -np.log2((cum[s + 1] - cum[s]) / TOTAL) for s in symbols)
            assert 8 * len(payload) <= model_bits + 32 + 8  # flush + byte padding

    def test_carry_propagation_stress(self):
        # skew the distribution so low accumulates long 0xFF runs
        cum = np.array([0, TOTAL - 3, TOTAL - 2, TOTAL - 1, TOTAL])
        rng = np.random.default_rng(3)
        symbols = (rng.random(5000) < 0.999).astype(int)
        symbols[symbols == 1] = 0
        symbols[::97] = 1
        symbols[::193] = 2
        symbols[::389] = 3
        payload = encode_all(symbols, cum)
        assert decode_all(payload, cum, len(symbols)) == symbols.tolist()

    def test_payload_underrun_raises_with_position(self):
        cum = np.array([0, TOTAL // 2, TOTAL])
        rng = np.random.default_rng(4)
        symbols = rng.integers(0, 2, 500)
        payload = encode_all(symbols, cum)
        with pytest.raises(RangeError, match="byte"):
            decode_all(payload[: len(payload) // 3], cum, 500)

    def test_code_outside_every_interval_is_corrupt(self):
        # A code at or above (range // TOTAL) * TOTAL lies in no symbol's
        # interval, and no encoder writes one; decoding on would let the
        # code register grow without bound.
        rc = RangeDecoder(b"\xff" * 8)
        with pytest.raises(RangeError, match="corrupt"):
            rc.decode(np.array([0, TOTAL // 2, TOTAL]))

    def test_empty_stream_decodes_nothing(self):
        rc = RangeEncoder()
        payload = rc.finish()
        assert len(payload) <= 5
        RangeDecoder(payload)  # init consumes the 4-byte window
