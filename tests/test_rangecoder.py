import tracemalloc
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iwv3.entropy import MAX_ALPHABET
from iwv3.rangecoder import _BLOCK, TOTAL, RangeDecoder, RangeEncoder, RangeError, SymbolTable


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


class _ReferenceEncoder:
    """The range encoder spelled out one symbol and one byte shift at a time."""

    def __init__(self):
        self.low, self.range, self.cache, self.pending = 0, 0xFFFFFFFF, None, 0
        self.out = bytearray()

    def encode(self, cum, freq):
        r = self.range // TOTAL
        self.low += r * cum
        self.range = r * freq
        while self.range < 1 << 24:
            self.shift()
            self.range = (self.range << 8) & 0xFFFFFFFF

    def shift(self):
        carry = self.low >> 32
        if self.low < 0xFF000000 or carry:
            if self.cache is not None:
                self.out.append((self.cache + carry) & 0xFF)
            for _ in range(self.pending):
                self.out.append((0xFF + carry) & 0xFF)
            self.pending = 0
            self.cache = (self.low >> 24) & 0xFF
        else:
            self.pending += 1
        self.low = (self.low << 8) & 0xFFFFFFFF

    def finish(self):
        for _ in range(5):
            self.shift()
        return bytes(self.out)


def _table(widths):
    """Cumulative table with roughly the given widths, one tick at least each."""
    cum = np.concatenate([[0], np.cumsum(widths)])
    cum = (cum * (TOTAL / cum[-1])).astype(np.int64)
    cum[-1] = TOTAL
    for i in range(1, len(cum)):
        cum[i] = max(cum[i], cum[i - 1] + 1)
    # the ticks given to narrow symbols at the top can pass TOTAL (widths
    # [60000, 60000] + [1] * 38): take them back from the symbols below
    cum[-1] = TOTAL
    for i in range(len(cum) - 2, 0, -1):
        cum[i] = min(cum[i], cum[i + 1] - 1)
    return cum.tolist()


def _runs(items, cuts):
    """`items` split at the given cut points (sorted, deduplicated)."""
    bounds = [0] + sorted({c % (len(items) + 1) for c in cuts}) + [len(items)]
    return [items[a:b] for a, b in zip(bounds, bounds[1:])]


def _outcome(decode, payload):
    """Decoded symbols, or the text of the RangeError raised on the way."""
    try:
        return decode(RangeDecoder(payload))
    except RangeError as err:
        return str(err)


def _edge_table(edges, runs):
    """A table whose inner boundaries sit on the given (bucket b, offset)
    points b * 256 + offset, and on runs of one-tick symbols (start, ticks)."""
    bounds = {b * 256 + offset for b, offset in edges}
    for start, ticks in runs:
        bounds.update(range(start, start + ticks))
    return [0] + sorted(bounds) + [TOTAL]


# Boundaries on a bucket edge, one below it and one above it (so one-tick
# symbols on the edge when two of them meet), runs of one-tick symbols inside
# a bucket, and wide symbols spanning several whole buckets between them.
bucket_edge_tables = st.builds(
    _edge_table,
    st.lists(st.tuples(st.integers(1, 255), st.sampled_from((-1, 0, 1))),
             min_size=1, max_size=30),
    st.lists(st.tuples(st.integers(1, TOTAL - 9), st.integers(1, 8)), max_size=3))


# Widths from 1 to 60000 give tables from near-uniform to one near-certain
# symbol beside one-tick symbols, which drive the long pending 0xFF runs; the
# bucket-edge tables put boundaries where decode_run's lookup changes bucket.
tables = st.one_of(st.lists(st.integers(1, 60000), min_size=2, max_size=40).map(_table),
                   bucket_edge_tables)


class TestRuns:
    @settings(max_examples=150, deadline=None)
    @given(table=tables, data=st.data())
    def test_runs_code_as_single_symbols(self, table, data):
        k = len(table) - 1
        symbols = data.draw(st.lists(st.integers(0, k - 1), max_size=400))
        cuts = data.draw(st.lists(st.integers(0, 400), max_size=6))
        cums = [table[s] for s in symbols]
        freqs = [table[s + 1] - table[s] for s in symbols]
        ref = _ReferenceEncoder()
        single = RangeEncoder()
        for cum, freq in zip(cums, freqs):
            ref.encode(cum, freq)
            single.encode(cum, freq)
        runs = RangeEncoder()
        for part in _runs(list(range(len(symbols))), cuts):
            runs.encode_run([cums[j] for j in part], [freqs[j] for j in part])
        payload = ref.finish()
        assert single.finish() == payload
        assert runs.finish() == payload

        dec = RangeDecoder(payload)
        assert [dec.decode(table) for _ in symbols] == symbols
        dec = RangeDecoder(payload)
        decoded = [s for part in _runs(symbols, cuts) for s in dec.decode_run(table, len(part))]
        assert decoded == symbols

    def test_carry_through_pending_run(self):
        # The one-tick symbol at TOTAL - 2 leaves low's top bytes at 0xFF,
        # so they join the pending run; the top symbol then carries into it.
        table = [0, 1, TOTAL // 2, TOTAL - 2, TOTAL - 1, TOTAL]
        symbols = [3, 3, 3, 4]
        ref = _ReferenceEncoder()
        carried = 0
        for s in symbols:
            pending, start = ref.pending, len(ref.out)
            ref.encode(table[s], table[s + 1] - table[s])
            flushed = ref.out[start + 1 : start + 1 + pending]
            if pending >= 3 and ref.pending == 0 and flushed == bytes(pending):
                carried = pending  # the pending 0xFF bytes came out as 0x00
        assert carried >= 3
        payload = ref.finish()
        single = RangeEncoder()
        for s in symbols:
            single.encode(table[s], table[s + 1] - table[s])
        assert single.finish() == payload
        runs = RangeEncoder()
        runs.encode_run([table[s] for s in symbols],
                        [table[s + 1] - table[s] for s in symbols])
        assert runs.finish() == payload
        assert RangeDecoder(payload).decode_run(table, len(symbols)) == symbols

    @pytest.mark.parametrize("start", [0, _BLOCK - 500])
    def test_carry_through_a_thousand_pending_bytes(self, start):
        # From `start` on, each symbol's interval holds the byte boundary
        # that low would carry across, so every byte shifted out is a
        # pending 0xFF; once 1000 are pending, the next symbol lies above
        # the boundary and carries through all of them.  From _BLOCK - 500
        # the run spans a block boundary, so the carry reaches bytes an
        # earlier block wrote.
        table = _table([1] * 256)
        rng = np.random.default_rng(6)
        ref, symbols, carried = _ReferenceEncoder(), [], 0
        while not carried:
            s = int(rng.integers(0, 256))
            if len(symbols) >= start:
                # 2^32 once the interval holds it; before, the last multiple
                # of 2^24 inside it, which is 2^32 after the next shift
                top = ref.low + ref.range
                point = (1 << 32 if top > 1 << 32 else (top - 1) >> 24 << 24) - ref.low
                r = ref.range >> 16
                s = bisect_right(table, (point - 1) // r, 0, 256) - 1
                assert r * table[s] < point < r * table[s + 1]
                if ref.pending >= 1000 and s < 255:
                    s, carried = s + 1, ref.pending
            ref.encode(table[s], table[s + 1] - table[s])
            symbols.append(s)
        symbols += rng.integers(0, 256, 100).tolist()
        for s in symbols[-100:]:
            ref.encode(table[s], table[s + 1] - table[s])
        payload = ref.finish()
        assert bytes(carried) in payload
        cums = [table[s] for s in symbols]
        freqs = [table[s + 1] - table[s] for s in symbols]
        rc = RangeEncoder()
        rc.encode_run(cums, freqs)
        assert rc.finish() == payload
        rc = RangeEncoder()
        for part in _runs(list(range(len(symbols))), [start + 7, _BLOCK - 1, len(symbols) - 50]):
            rc.encode_run([cums[j] for j in part], [freqs[j] for j in part])
        assert rc.finish() == payload
        assert RangeDecoder(payload).decode_run(table, len(symbols)) == symbols

    @settings(max_examples=150, deadline=None)
    @given(table=tables, data=st.data())
    def test_truncated_payload_errors_match(self, table, data):
        k = len(table) - 1
        symbols = data.draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=300))
        rc = RangeEncoder()
        for s in symbols:
            rc.encode(table[s], table[s + 1] - table[s])
        payload = rc.finish()
        payload = payload[: data.draw(st.integers(0, len(payload)))]
        n = len(symbols)
        single = _outcome(lambda dec: [dec.decode(table) for _ in range(n)], payload)
        assert _outcome(lambda dec: dec.decode_run(table, n), payload) == single

    @settings(max_examples=150, deadline=None)
    @given(table=tables, payload=st.binary(min_size=4, max_size=64),
           n=st.integers(1, 200))
    def test_corrupt_payload_errors_match(self, table, payload, n):
        single = _outcome(lambda dec: [dec.decode(table) for _ in range(n)], payload)
        assert _outcome(lambda dec: dec.decode_run(table, n), payload) == single

    def test_target_out_of_range_in_a_run(self):
        # a code that leaves every symbol's interval after 166 symbols
        table = [0, 3, TOTAL]
        payload = bytes.fromhex("01db3e367e574aa43e673556ad97f4ff")
        dec, decoded = RangeDecoder(payload), 0
        with pytest.raises(RangeError, match="corrupt before byte") as single:
            while True:
                dec.decode(table)
                decoded += 1
        assert decoded == 166
        with pytest.raises(RangeError) as run:
            RangeDecoder(payload).decode_run(table, 200)
        assert str(run.value) == str(single.value)

    @pytest.mark.parametrize("cum, freq", [(-(2 ** 63) + 5, 1), (-1, 2), (TOTAL - 1, 2),
                                           (TOTAL, 1), (0, TOTAL + 1)])
    def test_interval_outside_total_is_refused(self, cum, freq):
        # e.g. the inner entries of a non-finite mixture's table, INT64_MIN + k
        table = [0, 100, TOTAL]
        rc = RangeEncoder()
        with pytest.raises(RangeError, match=r"outside \[0, 65536\)"):
            rc.encode_run([0, 100, cum, 0], [100, TOTAL - 100, freq, 100])
        ref = RangeEncoder()
        ref.encode_run([0, 100], [100, TOTAL - 100])
        assert rc.finish() == ref.finish()
        assert RangeDecoder(ref.finish()).decode_run(table, 2) == [0, 1]

    def test_zero_probability_stops_the_run_where_it_stands(self):
        table = [0, 100, 100, TOTAL]
        good = [0, 2, 2, 0, 2]
        rc = RangeEncoder()
        with pytest.raises(RangeError, match="zero-probability"):
            rc.encode_run([table[s] for s in good + [1, 0]],
                          [table[s + 1] - table[s] for s in good + [1, 0]])
        ref = RangeEncoder()
        for s in good:
            ref.encode(table[s], table[s + 1] - table[s])
        assert rc.finish() == ref.finish()

    @pytest.mark.parametrize("n", [_BLOCK - 1, _BLOCK, _BLOCK + 1])
    def test_runs_around_a_block_boundary(self, n):
        table = _table([40000, 900, 30, 7, 1, 1, 3000, 200])
        rng = np.random.default_rng(n)
        symbols = rng.choice(8, n, p=np.diff(table) / TOTAL).tolist()
        cums = np.array([table[s] for s in symbols])
        freqs = np.array([table[s + 1] - table[s] for s in symbols])
        ref = _ReferenceEncoder()
        for cum, freq in zip(cums.tolist(), freqs.tolist()):
            ref.encode(cum, freq)
        payload = ref.finish()
        whole = RangeEncoder()
        whole.encode_run(cums, freqs)
        assert whole.finish() == payload
        # a held prefix, then a run that ends at, one short of or one past
        # the first block's end
        split = RangeEncoder()
        split.encode_run(cums[:1000], freqs[:1000])
        split.encode_run(cums[1000:], freqs[1000:])
        assert split.finish() == payload
        assert RangeDecoder(payload).decode_run(table, n) == symbols

    @pytest.mark.parametrize("bad", [500, _BLOCK - 1, _BLOCK + 500])
    def test_error_mid_block_keeps_the_valid_prefix(self, bad):
        table = _table([1000, 20000, 5, 44000])
        rng = np.random.default_rng(bad)
        symbols = rng.integers(0, 4, _BLOCK + 1000)
        cums = np.array(table)[symbols]
        freqs = np.diff(table)[symbols]
        cums[bad] = TOTAL - 1
        freqs[bad] = 2
        rc = RangeEncoder()
        rc.encode_run(cums[:300], freqs[:300])
        with pytest.raises(RangeError, match=r"symbol interval \[65535, 65537\) outside"):
            rc.encode_run(cums[300:], freqs[300:])
        ref = _ReferenceEncoder()
        for cum, freq in zip(cums[:bad].tolist(), freqs[:bad].tolist()):
            ref.encode(cum, freq)
        assert rc.finish() == ref.finish()

    def test_held_memory_stays_below_two_bytes_per_symbol(self):
        # The encoder holds the bytes it has written and at most one block
        # of intervals, however many symbols it has been given.
        n = 1 << 20
        table = _table([60000, 5000, 500, 36])
        rng = np.random.default_rng(8)
        symbols = rng.choice(4, n, p=np.diff(table) / TOTAL)
        cums, freqs = np.array(table)[symbols], np.diff(table)[symbols]
        tracemalloc.start()
        try:
            rc = RangeEncoder()
            before = tracemalloc.get_traced_memory()[0]
            for start in range(0, n, 5000):
                rc.encode_run(cums[start:start + 5000], freqs[start:start + 5000])
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held <= 2 * n
        payload = rc.finish()
        assert RangeDecoder(payload).decode_run(table, n) == symbols.tolist()


def _per_symbol(dec, tables):
    """decode_tables spelled out: target, bisect and consume per symbol."""
    out = []
    for table in tables:
        target = dec.decode_target()
        k = bisect_right(table, target, 1, len(table) - 1) - 1
        dec.consume(table[k], table[k + 1] - table[k])
        out.append(k)
    return out


def _outcome_and_state(decode, payload):
    """The decoded symbols or RangeError text, and the decoder state after
    (None when the payload cannot fill the coder's state)."""
    try:
        dec = RangeDecoder(payload)
    except RangeError as err:
        return str(err), None
    try:
        result = decode(dec)
    except RangeError as err:
        result = str(err)
    return result, (dec._code, dec._range, dec._pos)


# Per-symbol tables of one alphabet, as the wavefront decoder's rows give.
per_symbol_tables = st.integers(2, 24).flatmap(lambda k: st.lists(
    st.lists(st.integers(1, 60000), min_size=k, max_size=k).map(_table),
    min_size=1, max_size=200))


class TestPerSymbolTables:
    @settings(max_examples=150, deadline=None)
    @given(tables=per_symbol_tables, data=st.data())
    def test_run_decodes_as_single_symbols(self, tables, data):
        k = len(tables[0]) - 1
        symbols = data.draw(st.lists(st.integers(0, k - 1), min_size=len(tables),
                                     max_size=len(tables)))
        rc = RangeEncoder()
        rc.encode_run([t[s] for t, s in zip(tables, symbols)],
                      [t[s + 1] - t[s] for t, s in zip(tables, symbols)])
        payload = rc.finish()
        run = _outcome_and_state(lambda dec: dec.decode_tables(tables), payload)
        assert run == _outcome_and_state(lambda dec: _per_symbol(dec, tables), payload)
        assert run[0] == symbols
        cut = payload[: data.draw(st.integers(0, len(payload)))]
        assert (_outcome_and_state(lambda dec: dec.decode_tables(tables), cut)
                == _outcome_and_state(lambda dec: _per_symbol(dec, tables), cut))

    @settings(max_examples=150, deadline=None)
    @given(tables=per_symbol_tables, payload=st.binary(min_size=4, max_size=64))
    def test_corrupt_payload_outcome_and_state_match(self, tables, payload):
        assert (_outcome_and_state(lambda dec: dec.decode_tables(tables), payload)
                == _outcome_and_state(lambda dec: _per_symbol(dec, tables), payload))

    def test_repeated_table_is_decode_run(self):
        table = _table([5, 900, 30000, 2])
        rc = RangeEncoder()
        symbols = [2, 1, 2, 3, 0, 2, 2]
        rc.encode_run([table[s] for s in symbols], [table[s + 1] - table[s] for s in symbols])
        payload = rc.finish()
        assert RangeDecoder(payload).decode_tables([table] * 7) == symbols
        assert RangeDecoder(payload).decode_run(table, 7) == symbols


def _nan_table(k):
    """The out-of-order table quantized_cdf gives a non-finite mixture (x86
    casts NaN to INT64_MIN)."""
    return [0] + [-(2 ** 63) + j for j in range(1, k)] + [TOTAL]


def _pure_buckets(table):
    """Per bucket of 256 targets of an increasing table, the one symbol that
    holds all of it, or -1 when an inner boundary falls inside the bucket."""
    out = []
    for b in range(TOTAL // 256):
        s = bisect_right(table, b * 256, 1, len(table) - 1) - 1
        pure = not any(b * 256 < c < (b + 1) * 256 for c in table[1:-1])
        out.append(s if pure else -1)
    return out


class TestBucketLookup:
    """decode_run looks up a symbol by the target's bucket of 256 before it
    bisects; it must decode what `_per_symbol` (bisect and consume) decodes,
    to the same decoder state and the same error."""

    @staticmethod
    def _check(table, payloads, n):
        lookup = SymbolTable(table)
        for payload in payloads:
            assert (_outcome_and_state(lambda dec: dec.decode_run(lookup, n), payload)
                    == _outcome_and_state(lambda dec: _per_symbol(dec, [table] * n), payload))
        return lookup

    @settings(max_examples=150, deadline=None)
    @given(table=bucket_edge_tables, data=st.data())
    def test_bucket_edges_decode_as_the_bisection(self, table, data):
        k = len(table) - 1
        symbols = data.draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=300))
        payload = encode_all(symbols, table)
        cut = payload[: data.draw(st.integers(0, len(payload)))]
        noise = data.draw(st.binary(min_size=4, max_size=64))
        lookup = self._check(table, [payload, cut, noise], len(symbols))
        assert lookup._buckets == _pure_buckets(table)
        assert any(entry >= 0 for entry in lookup._buckets)
        assert RangeDecoder(payload).decode_run(lookup, len(symbols)) == symbols

    def test_one_tick_symbols_on_every_side_of_an_edge(self):
        # every symbol of [b*256 - 1, b*256), [b*256, b*256 + 1), ... decoded
        # at least once, so each bucket's first and last target is reached
        table = _edge_table([(b, d) for b in (1, 2, 128, 255) for d in (-1, 0, 1)], [])
        symbols = list(range(len(table) - 1)) * 4
        payload = encode_all(symbols, table)
        lookup = self._check(table, [payload, payload[:-3]], len(symbols))
        assert lookup._buckets == _pure_buckets(table)
        assert RangeDecoder(payload).decode_run(table, len(symbols)) == symbols

    @settings(max_examples=50, deadline=None)
    @given(k=st.integers(2, 40), payload=st.binary(min_size=4, max_size=64),
           n=st.integers(1, 200))
    def test_out_of_order_table_bisects_every_target(self, k, payload, n):
        lookup = self._check(_nan_table(k), [payload], n)
        assert all(entry == -1 for entry in lookup._buckets)

    def test_max_alphabet_table_has_no_pure_bucket(self):
        table = _table([1] * MAX_ALPHABET)
        rng = np.random.default_rng(5)
        symbols = rng.integers(0, MAX_ALPHABET, 2000).tolist()
        payload = encode_all(symbols, table)
        noise = rng.integers(0, 256, 64, dtype=np.uint8).tobytes()
        lookup = self._check(table, [payload, payload[: len(payload) // 2], noise],
                             len(symbols))
        assert all(entry == -1 for entry in lookup._buckets)
        assert RangeDecoder(payload).decode_run(lookup, len(symbols)) == symbols
