import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iwv3 import models
from iwv3.gradtape import Tensor
from iwv3.lifting import (
    Cdf53,
    Cdf97,
    CnnLifting,
    forward_pyramid,
    inverse2d_level,
    inverse_pyramid,
    make_backend,
    merge,
    transform2d_level,
)

RNG = np.random.default_rng(0)


def round_trip_1d(backend, signal):
    """Split by parity, lift, unlift and merge a 1-d signal."""
    return merge(*backend.inverse_pair(*backend.forward_pair(signal[0::2], signal[1::2])))


def cnn_backend(kind, seed, scale=0.05, steps=2):
    weights = models.init_weights(kind, 2, seed=seed, steps=steps)
    rng = np.random.default_rng(seed + 500)
    for name in weights.names():
        if name.startswith("xf."):
            arr = weights.get(name)
            weights.set(name, arr + rng.normal(0, scale, arr.shape))
    return make_backend(kind, weights=weights)


class TestSplit:
    def test_definition(self):
        assert merge(np.array([10, 12]), np.array([11, 13])).tolist() == [10, 11, 12, 13]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-1000, 1000), min_size=2, max_size=64).filter(
        lambda v: len(v) % 2 == 0))
    def test_merge_inverts_split(self, values):
        signal = np.array(values)
        assert np.array_equal(merge(signal[0::2], signal[1::2]), signal)

    def test_merge_split_bulk_fuzz(self):
        rng = np.random.default_rng(5)
        for _ in range(10_000):
            n = 2 * int(rng.integers(1, 20))
            signal = rng.integers(-500, 500, n)
            assert np.array_equal(merge(signal[0::2], signal[1::2]), signal)


class TestCdf53:
    def test_constant_signal(self):
        x = np.full(12, 9, dtype=np.int32)
        l, h = Cdf53().forward_pair(x[0::2], x[1::2])
        assert np.all(h == 0)
        assert np.all(l == 9)

    def test_ramp_hand_oracle(self):
        # ramp [0..5]: interior detail vanishes; at the right edge the
        # mirrored even neighbor is x_e[-1], so h[2] = 5 - (4+4)//2 = 1,
        # and l = [0 + (0+0+2)//4, 2 + (0+0+2)//4, 4 + (0+1+2)//4] = [0,2,4]
        x = np.arange(6, dtype=np.int32)
        l, h = Cdf53().forward_pair(x[0::2], x[1::2])
        assert h.tolist() == [0, 0, 1]
        assert l.tolist() == [0, 2, 4]

    def test_requires_integers(self):
        with pytest.raises(ValueError, match="integer"):
            Cdf53().forward_pair(np.zeros(4), np.zeros(4))

    def test_integer_in_integer_out(self):
        x = RNG.integers(-255, 256, 32)
        l, h = Cdf53().forward_pair(x[0::2], x[1::2])
        assert np.issubdtype(l.dtype, np.integer)
        assert np.issubdtype(h.dtype, np.integer)

    def test_1d_round_trip_fuzz(self):
        rng = np.random.default_rng(1)
        backend = Cdf53()
        for _ in range(10_000):
            n = 2 * int(rng.integers(1, 33))
            signal = rng.integers(-512, 512, n).astype(np.int32)
            out = round_trip_1d(backend, signal)
            assert np.array_equal(out, signal)

    def test_zero_signal_all_backends(self):
        # the CNN backend's zero case is in TestPyramid, on planes
        zeros = np.zeros(16, dtype=np.int32)
        for backend in (Cdf53(), Cdf97()):
            out = round_trip_1d(backend, zeros)
            assert np.allclose(out, 0)


class TestCdf97:
    def test_constant_annihilation(self):
        # the published lifting constants are 10-digit roundings, so the
        # detail band vanishes only to ~1e-8; the low band is sqrt(2)*c
        x = np.full(16, 7.0)
        l, h = Cdf97().forward_pair(x[0::2], x[1::2])
        assert np.abs(h).max() < 1e-6
        assert np.allclose(l, 7.0 * np.sqrt(2.0), atol=1e-6)

    def test_round_trip(self):
        sig = RNG.normal(0, 100, 64)
        out = round_trip_1d(Cdf97(), sig)
        assert np.abs(out - sig).max() < 1e-9

    def test_white_noise_energy_preserved(self):
        rng = np.random.default_rng(9)
        plane = rng.normal(0, 1, (64, 64))
        subbands = transform2d_level(Cdf97(), plane)
        energy = sum(float((s ** 2).sum()) for s in subbands)
        assert abs(energy / float((plane ** 2).sum()) - 1.0) < 0.05

    def test_separability_row_column_commute(self):
        rng = np.random.default_rng(10)
        plane = rng.normal(0, 10, (16, 24))
        backend = Cdf97()

        def fwd_axis(a, axis):
            a = np.moveaxis(a, axis, -1)
            l, h = backend.forward_pair(a[..., 0::2], a[..., 1::2])
            return np.moveaxis(l, -1, axis), np.moveaxis(h, -1, axis)

        row_l, row_h = fwd_axis(plane, 1)
        ll_rc, lh_rc = fwd_axis(row_l, 0)
        hl_rc, hh_rc = fwd_axis(row_h, 0)
        col_l, col_h = fwd_axis(plane, 0)
        ll_cr, hl_cr = fwd_axis(col_l, 1)
        lh_cr, hh_cr = fwd_axis(col_h, 1)
        for a, b in ((ll_rc, ll_cr), (hl_rc, hl_cr), (lh_rc, lh_cr), (hh_rc, hh_cr)):
            assert np.abs(a - b).max() < 1e-9


class TestCnnLifting:
    def test_zero_weights_is_lazy_transform(self):
        weights = models.init_weights("affine", 2, seed=0)
        for name in weights.names():
            if name.startswith("xf."):
                weights.set(name, np.zeros_like(weights.get(name)))
        backend = make_backend("affine", weights=weights)
        plane = RNG.normal(0, 10, (8, 12))
        ll, hl, lh, hh = transform2d_level(backend, plane)
        assert np.allclose(ll, plane[0::2, 0::2])
        assert np.allclose(hl, plane[0::2, 1::2])
        assert np.allclose(lh, plane[1::2, 0::2])
        assert np.allclose(hh, plane[1::2, 1::2])

    @pytest.mark.parametrize("kind", ["additive", "affine"])
    def test_plane_round_trip(self, kind):
        backend = cnn_backend(kind, 3)
        rng = np.random.default_rng(4)
        for _ in range(20):
            h, w = (2 * int(n) for n in rng.integers(1, 20, size=2))
            plane = rng.uniform(-1000, 1000, (h, w))
            out = inverse2d_level(backend, *transform2d_level(backend, plane))
            assert np.abs(out - plane).max() < 1e-4

    @pytest.mark.parametrize("kind", ["additive", "affine"])
    def test_random_weight_plane_inversion(self, kind):
        rng = np.random.default_rng(6)
        for trial in range(10):
            weights = models.init_weights(kind, 2, seed=trial)
            for name in weights.names():
                if name.startswith("xf."):
                    weights.set(name, rng.normal(0, 0.1, weights.get(name).shape))
            backend = make_backend(kind, weights=weights)
            plane = rng.uniform(-255, 255, (16, 16))
            pyr = forward_pyramid(backend, plane, 2)
            rec = inverse_pyramid(backend, pyr)
            assert np.abs(rec - plane).max() < 1e-4

    def test_step_count_disagreeing_with_weights_rejected(self):
        weights = models.init_weights("additive", 2, seed=0, steps=3)
        with pytest.raises(ValueError, match="steps"):
            make_backend("additive", weights=weights, steps=2)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            CnnLifting("haar-cnn", {})


class TestTransform2d:
    def test_constant_plane_cdf53(self):
        ll, hl, lh, hh = transform2d_level(Cdf53(), np.full((8, 8), 5, dtype=np.int32))
        assert np.all(hl == 0) and np.all(lh == 0) and np.all(hh == 0)
        assert np.all(ll == ll[0, 0])

    def test_2x2_hand_oracle(self):
        a, b, c, d = 10, 14, 30, 2
        plane = np.array([[a, b], [c, d]], dtype=np.int32)

        def fwd_pair(xe, xo):
            h = xo - ((xe + xe) >> 1)
            l = xe + ((h + h + 2) >> 2)
            return l, h

        # rows then columns, by direct scalar application
        l_top, h_top = fwd_pair(a, b)
        l_bot, h_bot = fwd_pair(c, d)
        ll, lh = fwd_pair(l_top, l_bot)
        hl, hh = fwd_pair(h_top, h_bot)
        out = transform2d_level(Cdf53(), plane)
        assert [int(g[0, 0]) for g in out] == [ll, hl, lh, hh]

    def test_odd_dims_rejected(self):
        with pytest.raises(ValueError, match="even"):
            transform2d_level(Cdf53(), np.zeros((3, 4), dtype=np.int32))

    def test_inverse2d_geometry_check(self):
        with pytest.raises(ValueError, match="geometry"):
            inverse2d_level(
                Cdf53(),
                np.zeros((2, 2), dtype=np.int32),
                np.zeros((2, 3), dtype=np.int32),
                np.zeros((2, 2), dtype=np.int32),
                np.zeros((2, 2), dtype=np.int32),
            )


class TestPyramid:
    def test_single_level_matches_transform2d(self):
        plane = RNG.integers(-100, 100, (8, 8)).astype(np.int32)
        pyr = forward_pyramid(Cdf53(), plane, 1)
        ll, hl, lh, hh = transform2d_level(Cdf53(), plane)
        assert np.array_equal(pyr.ll, ll)
        assert np.array_equal(pyr.details[0][0], hl)
        assert np.array_equal(pyr.details[0][1], lh)
        assert np.array_equal(pyr.details[0][2], hh)

    def test_constant_8x8_three_levels(self):
        # the unscaled reversible 5/3 keeps the constant value in LL
        pyr = forward_pyramid(Cdf53(), np.full((8, 8), 3, dtype=np.int32), 3)
        assert pyr.ll.shape == (1, 1)
        assert int(pyr.ll[0, 0]) == 3
        for triple in pyr.details:
            for grid in triple:
                assert np.all(grid == 0)

    def test_cdf53_round_trip_bit_exact(self):
        rng = np.random.default_rng(12)
        backend = Cdf53()
        for _ in range(250):
            levels = int(rng.integers(1, 5))
            plane = rng.integers(-512, 512, (64, 64)).astype(np.int32)
            pyr = forward_pyramid(backend, plane, levels)
            assert np.array_equal(inverse_pyramid(backend, pyr), plane)

    def test_zero_pyramid_gives_zero_plane(self):
        plane = np.zeros((16, 16), dtype=np.int32)
        for backend in (Cdf53(), Cdf97(), cnn_backend("additive", 8)):
            pyr = forward_pyramid(backend, plane, 2)
            out = inverse_pyramid(backend, pyr)
            assert np.allclose(out, 0, atol=1e-9)

    def test_insufficient_divisibility(self):
        with pytest.raises(ValueError, match="divisible"):
            forward_pyramid(Cdf53(), np.zeros((4, 4), dtype=np.int32), 3)

    def test_dims_halve_per_level(self):
        pyr = forward_pyramid(Cdf53(), np.zeros((32, 16), dtype=np.int32), 3)
        assert pyr.ll.shape == (4, 2)
        for level in range(1, 4):
            for grid in pyr.details[level - 1]:
                assert grid.shape == (32 >> level, 16 >> level)

    def test_tensor_and_array_paths_agree(self):
        backend = cnn_backend("additive", 21)
        plane = RNG.uniform(-50, 50, (8, 8))
        pyr_arr = forward_pyramid(backend, plane, 2)
        pyr_t = forward_pyramid(backend, Tensor(plane[None, None]), 2)
        assert np.allclose(pyr_arr.ll, pyr_t.ll.data[0, 0], atol=1e-12)
        for k in range(3):
            assert np.allclose(pyr_arr.details[0][k],
                               pyr_t.details[0][k].data[0, 0], atol=1e-12)
