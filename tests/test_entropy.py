import hashlib
import math

import numpy as np
import pytest
from scipy.special import ndtr

from iwv3 import entropy, models
from iwv3.entropy import (
    GMM_K,
    MAX_PIXELS,
    Bitstream,
    GmmParams,
    LongTermContext,
    StreamError,
    SubbandCodec,
    WeightChecksumError,
    coding_order,
    context_forward,
    ctx_prefix,
    decode_image,
    decode_subband,
    encode_image,
    encode_subband,
    extract_context_arrays,
    gmm_bits,
    gmm_prob,
    mask_a,
    mask_b,
    quantized_cdf,
    weights_checksum,
)
from iwv3.gradtape import Tensor
from iwv3.lifting import (SUBBAND_KINDS, Cdf53, Cdf97, SubbandPyramid, forward_pyramid,
                          inverse_pyramid, make_backend)
from iwv3.quant import QuantGrid, dequantize, quantize
from iwv3.rangecoder import TOTAL, RangeDecoder, RangeEncoder, RangeError

from conftest import perturbed_lossy_weights


def _quantized_cum_table(w, u, sigma, vmin: int, vmax: int) -> np.ndarray:
    """Cumulative frequencies Q(0..A), strictly increasing, Q(A) == TOTAL."""
    a = vmax - vmin + 1
    scale = TOTAL - a
    bounds = vmin - 0.5 + np.arange(1, a)
    z = (bounds[None, :] - u[:, None]) / sigma[:, None]
    f = (w[:, None] * ndtr(z)).sum(axis=0)
    cum = np.empty(a + 1, dtype=np.int64)
    cum[0] = 0
    cum[1:a] = np.floor(f * scale).astype(np.int64) + np.arange(1, a)
    cum[a] = TOTAL
    return cum


def random_ctx_weights(seed, scale=0.05):
    """Context-net weights with active convolutions for every subband kind."""
    rng = np.random.default_rng(seed)
    weights = models.default_weights()
    for name in weights.names():
        arr = weights.get(name)
        weights.set(name, arr + rng.normal(0, scale, arr.shape))
    return weights


def builtin_ctx_weights(seed):
    """The built-in static-prior model; `seed` is ignored."""
    return models.default_weights()


class TestCodingOrder:
    def test_single_level(self):
        assert coding_order(1) == ((1, "LL"), (1, "HL"), (1, "LH"), (1, "HH"))

    def test_three_levels(self):
        order = coding_order(3)
        assert len(order) == 10
        assert order[:5] == ((3, "LL"), (3, "HL"), (3, "LH"), (3, "HH"), (2, "HL"))
        assert order[-1] == (1, "HH")

    def test_four_levels_count(self):
        assert len(coding_order(4)) == 13

    def test_zero_levels_rejected(self):
        with pytest.raises(ValueError):
            coding_order(0)

    def test_coarsest_first(self):
        order = coding_order(4)
        levels = [lvl for lvl, _ in order]
        assert levels == sorted(levels, reverse=True)


class TestLongTermContext:
    def _deq_pyramid(self, levels, seed=0):
        rng = np.random.default_rng(seed)
        plane = rng.integers(-200, 200, (8 << levels, 8 << levels)).astype(np.int32)
        return forward_pyramid(Cdf53(), plane, levels)

    def _stack_before(self, pyr, n):
        """Context stack for the n-th subband in coding order."""
        ltc = LongTermContext(Cdf53())
        order = coding_order(pyr.levels)
        for level, kind in order[:n]:
            ltc.advance(level, kind, pyr.get(level, kind))
        return ltc.stack_for(order[n][1], pyr.get(*order[n]).shape)

    @staticmethod
    def _is_zeros_like(grid, like):
        return grid.shape == like.shape and not np.any(grid)

    def test_first_subband_zero_stack(self):
        pyr = self._deq_pyramid(2)
        stack = self._stack_before(pyr, 0)
        assert len(stack) == 3
        assert all(self._is_zeros_like(g, pyr.ll) for g in stack)

    def test_same_level_stack_contents(self):
        pyr = self._deq_pyramid(3)
        stack = self._stack_before(pyr, 2)  # LH3
        assert np.array_equal(stack[0], pyr.ll)
        assert np.array_equal(stack[1], pyr.get(3, "HL"))
        assert self._is_zeros_like(stack[2], pyr.get(3, "LH"))

    def test_cross_level_synthesis_resolution(self):
        pyr = self._deq_pyramid(3)
        stack = self._stack_before(pyr, 4)  # HL2
        assert stack[0].shape == pyr.get(2, "HL").shape
        # the synthesized low band is the true level-2 LL for exact grids
        from iwv3.lifting import inverse2d_level

        ll2 = inverse2d_level(Cdf53(), pyr.ll, *pyr.details[2])
        assert np.array_equal(stack[0], ll2)
        assert all(self._is_zeros_like(g, pyr.get(2, "HL")) for g in stack[1:])

    def test_missing_predecessor_rejected(self):
        ltc = LongTermContext(Cdf53())
        with pytest.raises(ValueError, match="unknown subband"):
            ltc.stack_for("XX", (4, 4))

    @pytest.mark.parametrize("levels", [1, 2, 3, 4])
    @pytest.mark.parametrize("transform, form", [
        ("cdf53", "2d"), ("cdf53", "4d"), ("cdf97", "2d"), ("cdf97", "4d"),
        ("additive", "2d"), ("additive", "4d"), ("additive", "tensor"),
        ("affine", "2d"), ("affine", "4d"), ("affine", "tensor"),
    ])
    def test_final_level_inverse_is_the_reconstruction(self, transform, form, levels):
        # the context's synthesis of levels L..2 plus one inverse level is
        # inverse_pyramid of the whole dequantized pyramid, bit for bit
        if transform == "cdf53":
            backend, qstep = Cdf53(), 1.0
        elif transform == "cdf97":
            backend, qstep = Cdf97(), 3.0
        else:
            backend = make_backend(transform, weights=perturbed_lossy_weights(transform, 2, seed=3))
            qstep = 3.0
        rng = np.random.default_rng(levels)
        plane = rng.integers(0, 256, (2, 1, 48, 32)).astype(np.int32)
        if form == "2d":
            plane = plane[0, 0]
        if transform != "cdf53":
            plane = plane.astype(np.float64)
        wrap = Tensor if form == "tensor" else np.asarray
        deq = forward_pyramid(backend, plane, levels)
        for level, kind in coding_order(levels):
            deq.set(level, kind, wrap(dequantize(quantize(deq.get(level, kind), qstep), qstep)))
        ltc = LongTermContext(backend)
        for level, kind in coding_order(levels):
            ltc.advance(level, kind, deq.get(level, kind))
        got = inverse_pyramid(backend, ltc.final_level())
        want = inverse_pyramid(backend, deq)
        if form == "tensor":
            got, want = got.data, want.data
        assert got.shape == plane.shape and got.dtype == want.dtype
        assert np.array_equal(got, want)


class TestContextForward:
    def test_masks(self):
        assert mask_a().tolist() == [[1, 1, 1], [1, 0, 0], [0, 0, 0]]
        assert mask_b().tolist() == [[1, 1, 1], [1, 1, 0], [0, 0, 0]]

    def _params(self, weights):
        return {n: Tensor(v) for n, v in weights.items()}

    def test_zero_weights_gives_static_mixture(self):
        weights = models.default_weights()
        for name in weights.names():  # strip the sigma ladder for this check
            weights.set(name, np.zeros_like(weights.get(name)))
        params = self._params(weights)
        s_t = Tensor(np.random.default_rng(0).normal(0, 10, (1, 1, 6, 6)))
        l_t = Tensor(np.zeros((1, 3, 6, 6)))
        raw = context_forward(params, s_t, l_t, "HL")
        assert raw.data.shape == (1, 3 * GMM_K, 6, 6)
        gmm = GmmParams.from_raw(raw.data[0])
        assert np.allclose(gmm.w, 1.0 / GMM_K)
        assert np.allclose(gmm.u, 0.0)
        assert np.allclose(gmm.sigma, 1.0)

    def test_causality_s_perturbation(self):
        weights = random_ctx_weights(3, scale=0.1)
        params = self._params(weights)
        rng = np.random.default_rng(4)
        h, w = 7, 9
        s = rng.normal(0, 5, (1, 1, h, w))
        l_t = Tensor(rng.normal(0, 5, (1, 3, h, w)))
        base = context_forward(params, Tensor(s), l_t, "LH").data[0]
        for (pi, pj) in [(0, 0), (2, 3), (4, 8), (6, 4)]:
            s2 = s.copy()
            s2[0, 0, pi, pj] += 100.0
            out = context_forward(params, Tensor(s2), l_t, "LH").data[0]
            for i in range(h):
                for j in range(w):
                    if (i, j) <= (pi, pj):
                        assert np.array_equal(out[:, i, j], base[:, i, j]), (
                            f"position ({i},{j}) changed after perturbing ({pi},{pj})")

    def test_l_perturbation_reaches_everywhere(self):
        weights = random_ctx_weights(5, scale=0.1)
        params = self._params(weights)
        rng = np.random.default_rng(6)
        s = Tensor(rng.normal(0, 5, (1, 1, 5, 5)))
        l0 = rng.normal(0, 5, (1, 3, 5, 5))
        base = context_forward(params, s, Tensor(l0), "HH").data
        l1 = l0.copy()
        l1[0, 1, 2, 2] += 50.0
        out = context_forward(params, s, Tensor(l1), "HH").data
        assert not np.array_equal(out[0, :, 0, 0], base[0, :, 0, 0])

    def test_lt_width_enforced(self):
        weights = models.default_weights()
        params = self._params(weights)
        with pytest.raises(ValueError, match="channels"):
            context_forward(params, Tensor(np.zeros((1, 1, 4, 4))),
                            Tensor(np.zeros((1, 2, 4, 4))), "HL")


class TestGmm:
    def test_single_gaussian_center_mass(self):
        params = GmmParams(np.ones((1, 1, 1)), np.zeros((1, 1, 1)), np.ones((1, 1, 1)))
        p = gmm_prob(params, 0, -100, 100)
        assert p[0, 0] == pytest.approx(0.3829249, abs=1e-5)

    def test_degenerate_range_probability_one(self):
        params = GmmParams(np.ones((1, 1, 1)), np.zeros((1, 1, 1)), np.ones((1, 1, 1)))
        assert gmm_prob(params, 0, 0, 0)[0, 0] == pytest.approx(1.0)

    def test_three_component_example(self):
        w = np.full((3, 1, 1), 1 / 3)
        u = np.array([-5.0, 0.0, 5.0]).reshape(3, 1, 1)
        s = np.full((3, 1, 1), 0.5)
        p = gmm_prob(GmmParams(w, u, s), 5, -100, 100)
        assert p[0, 0] == pytest.approx(0.2275632, abs=1e-6)
        assert p[0, 0] == pytest.approx(0.227590, abs=1e-4)

    def test_out_of_range_rejected(self):
        params = GmmParams(np.ones((1, 1, 1)), np.zeros((1, 1, 1)), np.ones((1, 1, 1)))
        with pytest.raises(ValueError, match="outside"):
            gmm_prob(params, 7, -5, 5)

    def test_normalization_over_range(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            raw = rng.normal(0, 2, (3 * GMM_K, 1, 1))
            params = GmmParams.from_raw(raw)
            vmin = int(rng.integers(-50, 0))
            vmax = int(rng.integers(0, 50))
            total = sum(gmm_prob(params, v, vmin, vmax)[0, 0]
                        for v in range(vmin, vmax + 1))
            assert abs(total - 1.0) < 1e-9


    @pytest.mark.parametrize("kind", ["random", "extreme_logits", "nan"])
    def test_from_raw_matches_the_per_channel_formula(self, kind):
        rng = np.random.default_rng(10)
        for shape in [(3 * GMM_K,), (3 * GMM_K, 1, 1), (3 * GMM_K, 5, 7)]:
            raw = rng.normal(0, 3, shape)
            if kind == "extreme_logits":
                raw[:GMM_K] = rng.choice([-1000.0, 1000.0], (GMM_K,) + shape[1:])
                raw[:GMM_K, ...].flat[0] = 1000.0
            elif kind == "nan":
                raw.flat[rng.integers(0, raw.size, 4)] = np.nan
            kept = raw.copy()
            # the mixture map as written per channel: softmax, means, floored exp
            rw, ru, rs = raw[:GMM_K], raw[GMM_K : 2 * GMM_K], raw[2 * GMM_K :]
            with np.errstate(invalid="ignore"):
                e = np.exp(rw - rw.max(axis=0, keepdims=True))
                w = e / e.sum(axis=0, keepdims=True)
                sigma = np.maximum(np.exp(rs), entropy.SIGMA_FLOOR)
                gmm = GmmParams.from_raw(raw)
            for got, want in ((gmm.w, w), (gmm.u, ru), (gmm.sigma, sigma)):
                assert got.shape == want.shape
                assert got.tobytes() == np.ascontiguousarray(want).tobytes()
            assert raw.tobytes() == kept.tobytes()  # the caller's raw is left as it was


class TestQuantizedCdf:
    def test_strictly_increasing_and_complete(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            w = rng.dirichlet(np.ones(GMM_K))
            u = rng.normal(0, 5, GMM_K)
            s = rng.uniform(0.05, 20, GMM_K)
            vmin, vmax = -int(rng.integers(1, 60)), int(rng.integers(1, 60))
            cum = _quantized_cum_table(w, u, s, vmin, vmax)
            assert cum[0] == 0 and cum[-1] == TOTAL
            assert np.all(np.diff(cum) >= 1)

    def test_matches_reference_in_any_batch(self):
        for alphabet in (2, 50, 801, 32768):
            self._check_alphabet(alphabet)

    def _check_alphabet(self, alphabet):
        rng = np.random.default_rng(alphabet)
        n = 5
        w = rng.dirichlet(np.ones(GMM_K), n)
        u = rng.normal(0, alphabet / 8, (n, GMM_K))
        s = rng.uniform(0.1, alphabet / 4, (n, GMM_K))
        vmin = -(alphabet // 2)
        vmax = vmin + alphabet - 1
        every = np.arange(alphabet + 1)[None, :]
        table = quantized_cdf(w, u, s, every, vmin, alphabet)
        for j in range(n):
            cum = _quantized_cum_table(w[j], u[j], s[j], vmin, vmax)
            assert np.array_equal(table[j], cum), (alphabet, j)
        # the encoder's two boundaries per symbol, the decoder's search
        # table over a wavefront and a one-row refinement batch give each
        # boundary the same value
        ks = rng.integers(0, alphabet, n)
        pair = quantized_cdf(w, u, s, ks[:, None] + np.array([0, 1]), vmin, alphabet)
        for j, k in enumerate(ks):
            assert pair[j].tolist() == table[j, k : k + 2].tolist()
            pts = np.unique(np.concatenate([[k, k + 1], rng.integers(1, alphabet, 9)]))
            row = quantized_cdf(w[j : j + 1], u[j : j + 1], s[j : j + 1],
                                pts[None, :], vmin, alphabet)[0]
            assert row.tolist() == table[j, pts].tolist()


def _subband_setup(seed, shape=(12, 10), spread=6, kind="HL", make_weights=random_ctx_weights):
    rng = np.random.default_rng(seed)
    weights = make_weights(seed)
    cw = extract_context_arrays(weights, kind)
    values = rng.integers(-spread, spread + 1, shape).astype(np.int32)
    l_t = rng.normal(0, 4, (3,) + shape)
    vmin, vmax = int(values.min()), int(values.max())
    return cw, values, l_t, vmin, vmax


def _full_grid_bits(weights, kind, values, l_t, qstep, vmin, vmax):
    """Quantized-CDF bits of a subband under `context_forward` on the whole grid."""
    params = {n: Tensor(v) for n, v in weights.items()}
    s_t = Tensor((values * qstep)[None, None])
    raw = context_forward(params, s_t, Tensor(l_t[None]), kind).data[0]
    gmm = GmmParams.from_raw(raw.reshape(3 * GMM_K, -1))
    k = (values.reshape(-1) - vmin)[:, None] + np.array([0, 1])
    q = quantized_cdf(gmm.w.T, gmm.u.T, gmm.sigma.T, k, vmin, vmax - vmin + 1)
    return float(np.sum(np.log2(TOTAL) - np.log2(q[:, 1] - q[:, 0])))


class SubbandPathChecks:
    """Subband tests run on both coding paths: each subclass picks the
    context weights `make_weights(seed)`, and so the path."""

    make_weights = None

    def test_round_trip_wide_alphabet(self):
        # an alphabet wider than SEARCH_FANOUT brackets its symbols first
        cw, _, l_t, _, _ = _subband_setup(11, shape=(6, 6),
                                       make_weights=self.make_weights)
        rng = np.random.default_rng(12)
        values = rng.integers(-400, 401, (6, 6)).astype(np.int32)
        payload, _ = encode_subband(values, cw, l_t, 1.0, -400, 400)
        out = decode_subband(payload, cw, l_t, 1.0, -400, 400, values.shape)
        assert np.array_equal(out, values)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (2, 7), (17, 3), (3, 17)])
    def test_wavefront_edge_shapes(self, shape):
        for seed in range(3):
            cw, values, l_t, vmin, vmax = _subband_setup(50 + seed, shape=shape,
                                                         make_weights=self.make_weights)
            vmin, vmax = vmin - 1, vmax + 1  # keep the alphabet above one symbol
            payload, bits = encode_subband(values, cw, l_t, 1.5, vmin, vmax)
            assert 8 * len(payload) <= bits * 1.01 + 64
            out = decode_subband(payload, cw, l_t, 1.5, vmin, vmax, shape)
            assert np.array_equal(out, values)
            # every tap read the right neighbour: the wavefront codec prices
            # each symbol as the full-grid context net does
            ref = _full_grid_bits(self.make_weights(50 + seed), "HL", values,
                                  l_t, 1.5, vmin, vmax)
            assert bits == pytest.approx(ref, rel=1e-9)

    def test_round_trip_at_alphabet_cap(self):
        cw, _, l_t, _, _ = _subband_setup(15, shape=(5, 6),
                                       make_weights=self.make_weights)
        vmin, vmax = -16384, 16383
        assert SubbandCodec(cw, l_t[None], 1.0, vmin, vmax, (5, 6)).alphabet == TOTAL // 2
        values = np.random.default_rng(16).integers(vmin, vmax + 1, (5, 6)).astype(np.int32)
        values[0, 0], values[0, 5], values[4, 0], values[4, 5] = vmin, vmax, vmax, vmin
        payload, _ = encode_subband(values, cw, l_t, 1.0, vmin, vmax)
        out = decode_subband(payload, cw, l_t, 1.0, vmin, vmax, values.shape)
        assert np.array_equal(out, values)


class TestSubbandCodec(SubbandPathChecks):
    # random heads: the wavefront context net
    make_weights = staticmethod(random_ctx_weights)

    def test_round_trip(self):
        for seed in range(5):
            cw, values, l_t, vmin, vmax = _subband_setup(seed)
            payload, bits = encode_subband(values, cw, l_t, 2.0, vmin, vmax)
            out = decode_subband(payload, cw, l_t, 2.0, vmin, vmax, values.shape)
            assert np.array_equal(out, values)

    def test_degenerate_alphabet_zero_bits(self):
        cw, _, l_t, _, _ = _subband_setup(13, shape=(4, 4))
        values = np.full((4, 4), 7, dtype=np.int32)
        payload, bits = encode_subband(values, cw, l_t, 1.0, 7, 7)
        assert bits == 0.0
        assert len(payload) <= 5
        out = decode_subband(payload, cw, l_t, 1.0, 7, 7, (4, 4))
        assert np.array_equal(out, values)

    def test_payload_tracks_model_bits(self):
        for seed in range(20):
            cw, values, l_t, vmin, vmax = _subband_setup(seed, shape=(16, 16))
            payload, bits = encode_subband(values, cw, l_t, 1.0, vmin, vmax)
            assert 8 * len(payload) <= bits * 1.01 + 64
            assert 8 * len(payload) >= bits - 1

    def test_costs_are_the_per_element_formula(self):
        # every frequency a symbol can have, and widths encode_run refuses
        # (zero, negative, past TOTAL), which cost inf
        freqs = np.arange(-3, TOTAL + 4)
        want = [math.log2(TOTAL) - math.log2(f) if 0 < f <= TOTAL else math.inf
                for f in freqs.tolist()]
        assert entropy._costs(freqs).tolist() == want

    def test_model_bits_close_to_float_cross_entropy(self):
        cw, values, l_t, vmin, vmax = _subband_setup(21, shape=(16, 16))
        weights = random_ctx_weights(21)
        payload, bits = encode_subband(values, cw, l_t, 1.0, vmin, vmax)
        params = {n: Tensor(v) for n, v in weights.items()}
        s_t = Tensor((values.astype(np.float64) * 1.0)[None, None])
        raw = context_forward(params, s_t, Tensor(l_t[None]), "HL").data[0]
        float_bits = gmm_bits(raw, values, vmin, vmax)
        assert abs(bits - float_bits) <= 0.02 * float_bits + 16

    @pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (2, 7), (17, 3), (3, 17),
                                       (20, 31)])
    def test_channel_batch_matches_single_channels(self, shape):
        rng = np.random.default_rng(60)
        cw = extract_context_arrays(random_ctx_weights(60), "HL")
        # three channels with their own values, spreads and L_t stacks
        values = rng.integers(-6, 7, (3,) + shape).astype(np.int32)
        values[1] //= 3
        values[2] = np.clip(values[2] + 2, -6, 6)
        l_t = rng.normal(0, 4, (3, 3) + shape) * np.array([1.0, 0.5, 2.0])[:, None, None, None]
        vmin, vmax = int(values.min()) - 1, int(values.max()) + 1
        rcs = [RangeEncoder() for _ in range(3)]
        codec = SubbandCodec(cw, l_t, 1.5, vmin, vmax, shape)
        codec.run(rcs, values)
        payloads = [rc.finish() for rc in rcs]
        decoded = SubbandCodec(cw, l_t, 1.5, vmin, vmax, shape).run(
            [RangeDecoder(p) for p in payloads])
        assert np.array_equal(decoded, values)
        single_bits = []
        for ch in range(3):
            assert 8 * len(payloads[ch]) <= codec.channel_bits[ch] * 1.01 + 64
            _, bits = encode_subband(values[ch], cw, l_t[ch], 1.5, vmin, vmax)
            assert codec.channel_bits[ch] == pytest.approx(bits, rel=1e-9)
            single_bits.append(bits)
        assert codec.model_bits == pytest.approx(sum(single_bits), rel=1e-9)

    def test_range_too_wide_rejected(self):
        cw, _, l_t, _, _ = _subband_setup(14, shape=(2, 2))
        with pytest.raises(StreamError, match="too wide"):
            SubbandCodec(cw, l_t[None, :, :2, :2], 1.0, -40000, 40000, (2, 2))


def _encoder_batches(shape, nch):
    """(full batches, rows left for the last one) of the wavefront encoder."""
    full, collected = 0, 0
    for _, lo, hi, diag in entropy._wavefronts(*shape):
        if diag is not None:
            collected += (hi - lo + 1) * nch
            if collected >= entropy._BATCH_ROWS:
                full, collected = full + 1, 0
    return full, collected


class TestEncoderBatches:
    # Payload and channel-bit digests pinned from per-wavefront coding, the
    # encoder before it batched wavefronts.
    @pytest.mark.parametrize("nch, shape, seed, batches, payload_sha, bits_sha", [
        # past two batches, with rows left over
        (3, (64, 96), 70, (2, 2028),
         "8ba56e4b0380c7031820c83bdc7e22f2de95f9418873a2a42621b3b49f1237cd",
         "d1d8a4318c43e15db7c1dccfbd6f57de682350d0c1035ba9fbb196c671517cf0"),
        # the last wavefront fills the batch
        (3, (1, 2731), 71, (1, 0),
         "3d8a8f304e120b3d5c6cfe15984cf1152b589bc80dc0d88a1f956d16397d4a9d",
         "f6c3b1f1c9c79efe4ab4724fa1e413e7a60e89edc1be639db51ee05319bc73ed"),
        (1, (64, 128), 72, (1, 0),
         "47974623f9d826eed35c5261e063f930fd695531d6c04e69d54be18a3bdd20c5",
         "e9f077acdaac57dd13cfee0f46151c08fcee0feee7163178faa04267e0706d52"),
    ])
    def test_batches_code_as_single_wavefronts(self, nch, shape, seed, batches,
                                               payload_sha, bits_sha, monkeypatch):
        assert _encoder_batches(shape, nch) == batches
        rng = np.random.default_rng(seed)
        cw = extract_context_arrays(random_ctx_weights(seed), "HH")
        values = (rng.integers(-20, 21, (nch,) + shape).astype(np.int32)
                  // rng.integers(1, 4, (nch, 1, 1)))
        l_t = rng.normal(0, 4, (nch, 3) + shape)
        vmin, vmax = int(values.min()), int(values.max())

        def encode():
            rcs = [RangeEncoder() for _ in range(nch)]
            codec = SubbandCodec(cw, l_t, 1.5, vmin, vmax, shape)
            codec.run(rcs, values)
            return [rc.finish() for rc in rcs], codec.channel_bits

        payloads, bits = encode()
        assert hashlib.sha256(b"".join(payloads)).hexdigest() == payload_sha
        assert hashlib.sha256(np.array(bits).tobytes()).hexdigest() == bits_sha
        monkeypatch.setattr(entropy, "_BATCH_ROWS", 1)  # each wavefront alone
        assert encode() == (payloads, bits)
        decoded = SubbandCodec(cw, l_t, 1.5, vmin, vmax, shape).run(
            [RangeDecoder(p) for p in payloads])
        assert np.array_equal(decoded, values)


def _wide_subband(alphabet, seed, shape=(5, 7)):
    """Active context weights and values over an alphabet, among them both
    range ends and, when it is wider than SEARCH_FANOUT, the values on either
    side of the first, second and last bracket boundaries."""
    rng = np.random.default_rng(seed)
    cw = extract_context_arrays(random_ctx_weights(seed), "LH")
    vmin = -(alphabet // 2)
    vmax = vmin + alphabet - 1
    values = rng.integers(vmin, vmax + 1, shape).astype(np.int32)
    bounds = [vmin + i * alphabet // entropy.SEARCH_FANOUT
              for i in (1, 2, entropy.SEARCH_FANOUT - 1)]
    edges = [vmin, vmax, vmin + 1, vmax - 1] + bounds + [b - 1 for b in bounds]
    values.flat[:len(edges)] = edges
    # values near the mixture's mode, where the widest intervals lie
    values.flat[len(edges):len(edges) + 8] = rng.integers(-3, 4, 8)
    values = np.clip(values, vmin, vmax)  # a no-op past SEARCH_FANOUT
    l_t = rng.normal(0, 4, (3,) + shape)
    return cw, values, l_t, vmin, vmax


class TestWideAlphabetSearch:
    # Streams, model bits, decoded values and error texts pinned from the
    # decoder's earlier search, which refined each symbol's interval in
    # rounds of up to SEARCH_FANOUT boundaries.
    @pytest.mark.parametrize(
        "alphabet, seed, payload_sha, bits, truncated, garbage_sha, corrupt_seed, corrupt", [
            (65, 80, "13bfe5f508f0925cbcfe749f762830b95a13665f3ccbb5d8305995b23736dcfc",
             "0x1.cc838fe8ab840p+7", "payload underrun at byte 16",
             "9fed1e98def0936128eead072762fe0580cadbf5814f766248b62761263c47f2",
             8, "payload corrupt before byte 9"),
            (4097, 81, "85ff063f9567e9109e53a59415a4e3079d80a6493eb1808332de621a6635d18b",
             "0x1.d1258bc9183ecp+8", "payload underrun at byte 31",
             "b8c1e94cce2619dbc735dd452ae91b13c61bfb82a9705d696a3c695e127bce7a",
             68, "payload corrupt before byte 29"),
            (32767, 82, "757e4998ce043d17aef9fff228351c0b3e78697e0742f1a2eefef739b87aba98",
             "0x1.d729fb418c802p+8", "payload underrun at byte 31",
             "3c8823e6f543703a661571e9680f7e499ba7316e1abb84061485ddb77dcbaf22",
             20, "payload corrupt before byte 11"),
        ])
    def test_pinned_streams_and_errors(self, alphabet, seed, payload_sha, bits, truncated,
                                       garbage_sha, corrupt_seed, corrupt):
        cw, values, l_t, vmin, vmax = _wide_subband(alphabet, seed)

        def decode(payload):
            return decode_subband(payload, cw, l_t, 1.0, vmin, vmax, values.shape)

        payload, model_bits = encode_subband(values, cw, l_t, 1.0, vmin, vmax)
        assert hashlib.sha256(payload).hexdigest() == payload_sha
        assert model_bits == float.fromhex(bits)
        assert np.array_equal(decode(payload), values)
        with pytest.raises(RangeError) as info:
            decode(payload[: len(payload) // 2])
        assert str(info.value) == truncated
        # random bytes decode to some symbols, or stop where the code leaves
        # every symbol's interval
        garbage = decode(np.random.default_rng(seed + 256).bytes(256))
        assert hashlib.sha256(garbage.tobytes()).hexdigest() == garbage_sha
        with pytest.raises(RangeError) as info:
            decode(np.random.default_rng(corrupt_seed).bytes(64))
        assert str(info.value) == corrupt

    @pytest.mark.parametrize("alphabet", [2, 64, 65, 1 << 13, 20001, entropy.MAX_ALPHABET])
    def test_one_table_per_symbol_after_each_wavefront(self, alphabet, monkeypatch):
        cw, values, l_t, vmin, vmax = _wide_subband(alphabet, 83)
        payload, _ = encode_subband(values, cw, l_t, 1.0, vmin, vmax)
        whole, tables, targets = [], [], []
        decode_target = RangeDecoder.decode_target

        def counted(w, u, sigma, k, *args):
            # a table of bracket boundaries spans the alphabet; no bracket does
            spans = k[0, 0] == 0 and k[0, -1] == alphabet
            (whole if spans else tables).append(k.shape[1])
            return quantized_cdf(w, u, sigma, k, *args)

        def target(rc):
            targets.append(1)
            return decode_target(rc)

        monkeypatch.setattr(entropy, "quantized_cdf", counted)
        monkeypatch.setattr(RangeDecoder, "decode_target", target)
        assert np.array_equal(
            decode_subband(payload, cw, l_t, 1.0, vmin, vmax, values.shape), values)
        wavefronts = sum(diag is not None for *_, diag in entropy._wavefronts(*values.shape))
        # about sqrt(alphabet) brackets of about sqrt(alphabet) symbols each,
        # at least SEARCH_FANOUT of them and at most one per symbol
        brackets = min(alphabet, max(entropy.SEARCH_FANOUT, math.isqrt(alphabet)))
        assert whole == [brackets + 1] * wavefronts
        if alphabet <= entropy.SEARCH_FANOUT:
            # one-symbol brackets: the whole tables, one run per channel
            assert not tables and not targets
            return
        # one target per symbol, and the table of its bracket unless that
        # holds one symbol
        assert len(targets) == values.size
        bounds = np.arange(brackets + 1) * alphabet // brackets
        widths = np.diff(bounds)[np.searchsorted(bounds, values - vmin, side="right") - 1]
        assert len(tables) == np.count_nonzero(widths > 1)
        assert max(tables) <= -(-alphabet // brackets) + 1 <= brackets + 3


class TestSubbandCodecStaticPath(SubbandPathChecks):
    # the built-in model's zero head: one table, no context net
    make_weights = staticmethod(builtin_ctx_weights)


def _zero_head_weights(seed, parts=("h1", "h2")):
    """Random context weights whose head weights `parts` are zero for every kind."""
    weights = random_ctx_weights(seed)
    for kind in SUBBAND_KINDS:
        for part in parts:
            name = f"{ctx_prefix(kind)}.{part}.w"
            weights.set(name, np.zeros_like(weights.get(name)))
    return weights


class TestStaticPrior:
    def test_builtin_model_is_static_for_every_kind(self):
        weights = models.default_weights()
        assert all(extract_context_arrays(weights, kind)["static"] for kind in SUBBAND_KINDS)

    # h2.w alone decides: under a zero h2.w the head's output is h2.b
    # whatever h1.w is, so an h1.w weight leaves every kind static
    @pytest.mark.parametrize("part, active", [("h1", []), ("h2", ["LH"])], ids=["h1", "h2"])
    def test_one_head_weight_sends_only_its_kind_to_the_wavefronts(self, part, active,
                                                                    monkeypatch):
        weights = models.default_weights()
        name = f"{ctx_prefix('LH')}.{part}.w"
        arr = weights.get(name).copy()
        arr[1, 2, 0, 0] = 0.25
        weights.set(name, arr)
        assert [k for k in SUBBAND_KINDS
                if not extract_context_arrays(weights, k)["static"]] == active
        paths = []
        for method in ("_run_static", "_run_wavefronts"):
            def spy(codec, *args, _run=getattr(SubbandCodec, method), _name=method):
                paths.append(_name)
                return _run(codec, *args)
            monkeypatch.setattr(SubbandCodec, method, spy)
        pyrs = _quantized_pyramids(1, 16, seed=70)
        bs = encode_image(pyrs, QuantGrid.uniform(1, 1.0), weights, "lossless", (16, 16))
        _, out = decode_image(bs.pack(), weights)
        # coding order LL, HL, LH, HH, once to encode and once to decode
        assert paths == [("_run_wavefronts" if kind in active else "_run_static")
                         for kind in ("LL", "HL", "LH", "HH")] * 2
        for orig, dec in zip(pyrs, out):
            assert np.array_equal(orig.get(1, "LH"), dec.get(1, "LH"))

    # the h2-only cases keep a random h1.w: a zero h2.w alone makes a kind static
    @pytest.mark.parametrize("parts, shape, spread", [
        pytest.param(("h1", "h2"), (9, 13), 6, id="shape0-6"),
        pytest.param(("h1", "h2"), (1, 7), 3, id="shape1-3"),
        pytest.param(("h1", "h2"), (6, 5), 500, id="shape2-500"),
        pytest.param(("h2",), (9, 13), 6, id="h2-only-shape0-6"),
        pytest.param(("h2",), (1, 7), 3, id="h2-only-shape1-3"),
        pytest.param(("h2",), (6, 5), 500, id="h2-only-shape2-500"),
    ])
    def test_zero_head_over_active_branches_codes_as_the_wavefronts_do(self, parts, shape,
                                                                        spread):
        def make_weights(seed):
            return _zero_head_weights(seed, parts)

        cw, values, l_t, vmin, vmax = _subband_setup(71, shape=shape, spread=spread,
                                                     make_weights=make_weights)
        assert cw["static"]
        payload, bits = encode_subband(values, cw, l_t, 1.5, vmin, vmax)
        ref = _full_grid_bits(make_weights(71), "HL", values, l_t, 1.5, vmin, vmax)
        assert bits == pytest.approx(ref, rel=1e-9)
        # the context net over the same weights gives the same bytes and bits
        wavefront = dict(cw, static=False)
        assert encode_subband(values, wavefront, l_t, 1.5, vmin, vmax) == (payload, bits)
        for arrays in (cw, wavefront):
            out = decode_subband(payload, arrays, l_t, 1.5, vmin, vmax, shape)
            assert np.array_equal(out, values)

    def test_non_finite_bias_fails_as_the_wavefronts_do(self):
        weights = models.default_weights()
        bias = weights.get("ctx.hl.h2.b").copy()
        bias[2 * GMM_K + 1] = np.nan
        weights.set("ctx.hl.h2.b", bias)
        cw, values, l_t, vmin, vmax = _subband_setup(72, make_weights=lambda _: weights)
        assert cw["static"]
        for arrays in (cw, dict(cw, static=False)):
            with np.errstate(invalid="ignore"), pytest.raises(RangeError, match="zero-probability"):
                encode_subband(values, arrays, l_t, 1.0, vmin, vmax)
        # A range one wider on each side makes every value an inner symbol,
        # whose interval [INT64_MIN + k, INT64_MIN + k + 1) has width 1 but
        # lies outside [0, TOTAL).
        for arrays in (cw, dict(cw, static=False)):
            with np.errstate(invalid="ignore"), pytest.raises(RangeError, match="outside"):
                encode_subband(values, arrays, l_t, 1.0, vmin - 1, vmax + 1)


def _quantized_pyramids(levels, size, seed, spread=20):
    rng = np.random.default_rng(seed)
    pyrs = []
    for _ in range(3):
        plane = rng.integers(-spread, spread, (size, size)).astype(np.int32)
        pyrs.append(forward_pyramid(Cdf53(), plane, levels))
    return pyrs


class PayloadErrorChecks:
    """Image decode errors checked on both coding paths: each subclass picks
    the context weights `make_weights(seed)`, and so the path."""

    make_weights = None

    def test_truncated_stream_gives_position_diagnostic(self):
        weights = self.make_weights(0)
        pyrs = _quantized_pyramids(1, 8, seed=41)
        packed = encode_image(pyrs, QuantGrid.uniform(1, 1.0), weights,
                              "lossless", (8, 8)).pack()
        with pytest.raises(StreamError, match="byte"):
            decode_image(packed[:30], weights)

    def test_payload_shorter_than_coder_state_is_stream_error(self):
        weights = self.make_weights(0)
        bs = encode_image(_quantized_pyramids(1, 8, seed=42), QuantGrid.uniform(1, 1.0),
                          weights, "lossless", (8, 8))
        bs.payloads[1] = bs.payloads[1][:2]
        with pytest.raises(StreamError, match="channel 1"):
            decode_image(bs.pack(), weights)

    def test_midstream_underrun_names_channel(self):
        weights = self.make_weights(0)
        bs = encode_image(_quantized_pyramids(2, 32, seed=45), QuantGrid.uniform(2, 1.0),
                          weights, "lossless", (32, 32))
        assert len(bs.payloads[2]) // 2 > 4  # the coder state itself is intact
        bs.payloads[2] = bs.payloads[2][: len(bs.payloads[2]) // 2]
        with pytest.raises(StreamError, match="channel 2") as info:
            decode_image(bs.pack(), weights)
        assert "subband" in str(info.value)  # raised by the scan, not on setup

    def test_random_payload_is_stream_error(self):
        # random payloads soon put the decoder's code outside every symbol's
        # interval; that is reported instead of decoding garbage ever slower
        weights = self.make_weights(0)
        rng = np.random.default_rng(47)
        bs = Bitstream("lossless", 3, 64, 64, weights_checksum(weights),
                       [(1.0, -16384, 16383)] * 10, [rng.bytes(1 << 16) for _ in range(3)])
        with pytest.raises(StreamError, match="corrupt"):
            decode_image(bs.pack(), weights)


class TestImageCodec(PayloadErrorChecks):
    # the built-in model's zero head: the one-table static path
    make_weights = staticmethod(builtin_ctx_weights)

    def test_all_zero_pyramid_compresses_to_near_nothing(self):
        weights = models.default_weights()
        zero = [forward_pyramid(Cdf53(), np.zeros((16, 16), dtype=np.int32), 2)
                for _ in range(3)]
        grid = QuantGrid.uniform(2, 1.0)
        bs = encode_image(zero, grid, weights, "lossless", (16, 16))
        n_subbands = len(coding_order(2))
        for payload in bs.payloads:
            assert len(payload) <= 5 + n_subbands
        _, pyrs = decode_image(bs.pack(), weights)
        for p in pyrs:
            assert np.all(p.ll == 0)
            for triple in p.details:
                assert all(np.all(g == 0) for g in triple)

    def test_random_pyramid_round_trip_symbol_exact(self):
        weights = random_ctx_weights(31)
        pyrs = _quantized_pyramids(2, 16, seed=32)
        grid = QuantGrid.uniform(2, 1.0)
        bs = encode_image(pyrs, grid, weights, "lossless", (16, 16))
        _, out = decode_image(bs.pack(), weights)
        for orig, dec in zip(pyrs, out):
            assert np.array_equal(orig.ll, dec.ll)
            for t_orig, t_dec in zip(orig.details, dec.details):
                for g_orig, g_dec in zip(t_orig, t_dec):
                    assert np.array_equal(g_orig, g_dec)

    def test_payload_bits_match_stats(self):
        weights = random_ctx_weights(33)
        pyrs = _quantized_pyramids(3, 24, seed=34)
        grid = QuantGrid.uniform(3, 1.0)
        bs = encode_image(pyrs, grid, weights, "lossless", (24, 24))
        model_bits = sum(bs.stats["subband_bits"])
        payload_bits = 8 * sum(len(p) for p in bs.payloads)
        assert payload_bits <= model_bits * 1.01 + 64 * 3
        assert payload_bits >= model_bits - 3

    def test_checksum_mismatch_rejected(self):
        weights = random_ctx_weights(37)
        pyrs = _quantized_pyramids(1, 8, seed=38)
        bs = encode_image(pyrs, QuantGrid.uniform(1, 1.0), weights,
                          "lossless", (8, 8))
        other = random_ctx_weights(99)
        with pytest.raises(WeightChecksumError):
            decode_image(bs.pack(), other)

    def test_lossless_requires_unit_qstep(self):
        weights = models.default_weights()
        pyrs = _quantized_pyramids(1, 8, seed=40)
        with pytest.raises(ValueError, match="qstep"):
            encode_image(pyrs, QuantGrid.uniform(1, 2.0), weights,
                         "lossless", (8, 8))

    def test_corrupt_payload_detected(self):
        weights = random_ctx_weights(43)
        pyrs = _quantized_pyramids(2, 16, seed=44, spread=300)
        packed = encode_image(pyrs, QuantGrid.uniform(2, 1.0), weights,
                              "lossless", (16, 16)).pack()
        cut = packed[: len(packed) - 40]
        with pytest.raises(StreamError):
            decode_image(cut, weights)


class TestImageCodecWavefrontPath(PayloadErrorChecks):
    # random heads: the wavefront context net
    make_weights = staticmethod(random_ctx_weights)


class TestBitstream:
    def _roundtrip(self, bs):
        return Bitstream.unpack(bs.pack())

    def test_header_round_trip(self):
        bs = Bitstream("additive", 2, 33, 17, 12345678901234567,
                       [(1.5, -3, 4)] * 7, [b"aa", b"b", b""])
        out = self._roundtrip(bs)
        assert out.mode == "additive"
        assert (out.true_width, out.true_height) == (33, 17)
        assert out.weight_checksum == 12345678901234567
        assert out.subband_info[0] == (1.5, -3, 4)
        assert out.payloads == [b"aa", b"b", b""]

    def test_bad_magic(self):
        with pytest.raises(StreamError, match="magic"):
            Bitstream.unpack(b"WAVE" + bytes(40))

    def test_truncated_header(self):
        with pytest.raises(StreamError, match="truncated"):
            Bitstream.unpack(b"IWV3\x01\x00")

    @pytest.mark.parametrize("levels, width, height", [
        (20, 16, 16),  # levels the dimensions cannot take
        (3, 60000, 60000),
        (1, MAX_PIXELS + 1, 1),
    ])
    def test_geometry_over_cap_rejected(self, levels, width, height):
        bs = Bitstream("lossless", levels, width, height, 0,
                       [(1.0, 0, 0)] * (3 * levels + 1), [b"", b"", b""])
        with pytest.raises(StreamError, match="cap"):
            Bitstream.unpack(bs.pack())

    def test_geometry_at_cap_accepted(self):
        bs = Bitstream("lossless", 1, MAX_PIXELS // 2, 2, 0, [(1.0, 0, 0)] * 4,
                       [b"", b"", b""])
        assert Bitstream.unpack(bs.pack()).true_width == MAX_PIXELS // 2

    @pytest.mark.parametrize("mode", ["lossless", "additive"])
    def test_non_finite_step_rejected(self, mode):
        info = [(1.0, 0, 3)] * 4
        info[2] = (math.inf, 0, 3)
        bs = Bitstream(mode, 1, 8, 8, 0, info, [b"", b"", b""])
        with pytest.raises(StreamError, match="corrupt subband table"):
            Bitstream.unpack(bs.pack())

    @pytest.mark.parametrize("qstep", [2.0, 0.5])
    def test_lossless_step_other_than_one_rejected(self, qstep):
        bs = Bitstream("lossless", 1, 8, 8, 0, [(qstep, 0, 3)] + [(1.0, 0, 3)] * 3,
                       [b"", b"", b""])
        with pytest.raises(StreamError, match="lossless stream with quantization step"):
            Bitstream.unpack(bs.pack())

    def test_checksum_helper_tracks_serialization(self):
        w1 = models.default_weights()
        w2 = models.default_weights()
        assert weights_checksum(w1) == weights_checksum(w2)
        w2.set("ctx.ll.h2.b", w2.get("ctx.ll.h2.b") + 1e-3)
        assert weights_checksum(w1) != weights_checksum(w2)
