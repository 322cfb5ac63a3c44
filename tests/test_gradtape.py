import itertools
import struct
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from iwv3 import gradtape as gt
from iwv3 import models
from iwv3.gradtape import (
    ModelWeights,
    PUNet,
    Tape,
    Tensor,
    load_weights,
    pu_forward,
    save_weights,
)

RNG = np.random.default_rng(42)


def finite_diff(fn, args, wrt, h=1e-5):
    """Central-difference gradient of scalar fn wrt args[wrt] (ndarray list)."""
    base = [a.copy() for a in args]
    grad = np.zeros_like(base[wrt])
    flat = base[wrt].ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        hi = fn(base)
        flat[i] = orig - h
        lo = fn(base)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * h)
    return grad


def check_op_gradient(build, arg_shapes, n_points=10, tol=1e-3, seed=0):
    """Analytic vs central-difference gradients for a tensor expression.

    build(tensors) must return a tensor; the check reduces it with sum()
    to obtain a scalar loss.
    """
    rng = np.random.default_rng(seed)
    for point in range(n_points):
        args = [rng.normal(0.3, 1.0, s) for s in arg_shapes]

        def scalar(arrs):
            out = build([Tensor(a) for a in arrs])
            return float(gt.tsum(out).data)

        tape = Tape()
        leaves = [tape.leaf(a, name=f"a{i}", requires_grad=True)
                  for i, a in enumerate(args)]
        grads = tape.backward(gt.tsum(build(leaves)))
        for i in range(len(args)):
            ana = grads[f"a{i}"]
            num = finite_diff(scalar, args, i)
            denom = np.maximum(np.maximum(np.abs(ana), np.abs(num)), 1e-6)
            rel = np.abs(ana - num) / denom
            assert rel.max() < tol, f"op gradient mismatch at point {point}"


class TestOpGradients:
    def test_add(self):
        check_op_gradient(lambda t: gt.add(t[0], t[1]), [(3, 4), (3, 4)])

    def test_sub(self):
        check_op_gradient(lambda t: gt.sub(t[0], t[1]), [(3, 4), (3, 4)])

    def test_mul(self):
        check_op_gradient(lambda t: gt.mul(t[0], t[1]), [(3, 4), (3, 4)])

    def test_scale(self):
        check_op_gradient(lambda t: gt.scale(t[0], -2.5), [(5,)])

    def test_smul(self):
        check_op_gradient(lambda t: gt.smul(t[0], t[1]), [(3, 4), ()])

    def test_relu(self):
        check_op_gradient(lambda t: gt.relu(t[0]), [(4, 4)])

    def test_exp(self):
        check_op_gradient(lambda t: gt.exp(t[0]), [(3, 3)])

    def test_log(self):
        check_op_gradient(lambda t: gt.log(gt.exp(t[0])), [(3, 3)])

    def test_tanh(self):
        check_op_gradient(lambda t: gt.tanh(t[0]), [(3, 3)])

    def test_sqrt(self):
        check_op_gradient(lambda t: gt.sqrt(gt.exp(t[0])), [(3, 3)])

    def test_reciprocal(self):
        check_op_gradient(lambda t: gt.reciprocal(gt.exp(t[0])), [(3, 3)])

    def test_ndtr(self):
        check_op_gradient(lambda t: gt.ndtr(t[0]), [(3, 3)])

    def test_clamp(self):
        check_op_gradient(lambda t: gt.clamp(t[0], -0.9, 0.9), [(4, 4)])

    def test_mean(self):
        check_op_gradient(lambda t: gt.tmean(gt.mul(t[0], t[0])), [(4, 5)])

    def test_take_even_odd_interleave(self):
        check_op_gradient(
            lambda t: gt.interleave(gt.take_even(t[0], 1), gt.take_odd(t[0], 1), 1),
            [(3, 6)],
        )

    def test_concat_slice_channels(self):
        def build(t):
            c = gt.concat_channels([t[0], t[1]])
            return gt.mul(gt.slice_channels(c, 0, 2), gt.slice_channels(c, 1, 3))

        check_op_gradient(build, [(2, 2, 3, 3), (2, 1, 3, 3)])

    def test_conv2d(self):
        check_op_gradient(
            lambda t: gt.conv2d(t[0], t[1], t[2]),
            [(2, 2, 5, 5), (3, 2, 3, 3), (3,)],
            n_points=5,
        )

    def test_conv2d_1x1(self):
        check_op_gradient(
            lambda t: gt.conv2d(t[0], t[1], t[2]),
            [(1, 4, 3, 3), (2, 4, 1, 1), (2,)],
            n_points=5,
        )

    def test_conv2d_per_tap_dx(self):
        # 8 output channels over 3 inputs: the backward stacks x's taps.
        check_op_gradient(
            lambda t: gt.conv2d(t[0], t[1], t[2]),
            [(2, 3, 5, 6), (8, 3, 3, 3), (8,)],
            n_points=3,
        )

    def test_floor_const_has_zero_gradient(self):
        tape = Tape()
        x = tape.leaf(np.array([0.3, 1.7, -2.2]), name="x", requires_grad=True)
        grads = tape.backward(gt.tsum(gt.floor_const(x)))
        assert np.array_equal(grads["x"], np.zeros(3))


class TestOpForward:
    def test_relu_values(self):
        out = gt.relu(Tensor(np.array([-1.0, 0.0, 2.0])))
        assert out.data.tolist() == [0.0, 0.0, 2.0]

    def test_exp_identity_point(self):
        assert gt.exp(Tensor(np.array([0.0]))).data.tolist() == [1.0]

    def test_conv2d_ones(self):
        x = Tensor(np.ones((1, 1, 3, 3)))
        w = Tensor(np.ones((1, 1, 3, 3)))
        out = gt.conv2d(x, w)
        assert out.data[0, 0, 1, 1] == 9.0
        assert out.data[0, 0, 0, 0] == 4.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            gt.add(Tensor(np.zeros(3)), Tensor(np.zeros(4)))

    def test_forward_determinism(self):
        x = RNG.normal(size=(1, 1, 8, 8))
        w = RNG.normal(size=(4, 1, 3, 3))
        a = gt.conv2d(Tensor(x), Tensor(w)).data
        b = gt.conv2d(Tensor(x), Tensor(w)).data
        assert np.array_equal(a, b)


def _window_conv(x, w, b=None):
    """The window contraction: a tensordot over the padded input's windows."""
    kh, kw = w.shape[2], w.shape[3]
    xp = np.pad(x, ((0, 0), (0, 0), (kh // 2, kh // 2), (kw // 2, kw // 2)))
    win = sliding_window_view(xp, (kh, kw), axis=(2, 3))
    out = np.tensordot(win, w, axes=[(1, 4, 5), (1, 2, 3)])
    out = np.ascontiguousarray(out.transpose(0, 3, 1, 2))
    if b is not None:
        out += b[None, :, None, None]
    return out


def _window_conv_grads(x, w, g):
    """Reference (dx, dw) of a conv, both as window contractions."""
    kh, kw = w.shape[2], w.shape[3]
    dx = _window_conv(g, np.ascontiguousarray(w.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1]))
    xp = np.pad(x, ((0, 0), (0, 0), (kh // 2, kh // 2), (kw // 2, kw // 2)))
    win = sliding_window_view(xp, (kh, kw), axis=(2, 3))
    return dx, np.tensordot(g, win, axes=[(0, 2, 3), (0, 2, 3)])


def _layouts(x):
    """x as C-ordered, Fortran-ordered, channel-strided and transposed arrays."""
    strided = np.zeros((x.shape[0], 2 * x.shape[1]) + x.shape[2:])
    strided[:, ::2] = x
    transposed = np.ascontiguousarray(x.transpose(0, 1, 3, 2)).transpose(0, 1, 3, 2)
    return [x, np.asfortranarray(x), strided[:, ::2], transposed]


class TestConvLowering:
    CHANNELS = (1, 3, 9, 16, 32)
    # (H, W) planes: a general one, one column and one row.
    PLANES = ((5, 7), (6, 1), (1, 6))

    def test_channel_counts_cover_every_side(self):
        # The backward stacks the taps of g when O <= C and of x when C < O.
        pairs = list(itertools.product(self.CHANNELS, self.CHANNELS))
        assert {np.sign(o - c) for c, o in pairs} == {-1, 0, 1}

    @pytest.mark.parametrize("c,o", list(itertools.product(CHANNELS, CHANNELS)))
    def test_backward_matches_window_contraction(self, c, o):
        rng = np.random.default_rng(100 * c + o)
        for k, n, (h, wd), bias in itertools.product((3, 1), (1, 4), self.PLANES,
                                                     (False, True)):
            w = rng.normal(size=(o, c, k, k))
            b = rng.normal(size=o) if bias else None
            g = rng.normal(size=(n, o, h, wd))
            for x in _layouts(rng.normal(size=(n, c, h, wd))):
                tape = Tape()
                leaves = [tape.leaf(x, name="x", requires_grad=True),
                          tape.leaf(w, name="w", requires_grad=True)]
                if bias:
                    leaves.append(tape.leaf(b, name="b", requires_grad=True))
                grads = tape.backward(gt.tsum(gt.mul(gt.conv2d(*leaves), Tensor(g))))
                dx, dw = _window_conv_grads(x, w, g)
                assert np.allclose(grads["x"], dx, rtol=1e-12)
                assert np.allclose(grads["w"], dw, rtol=1e-12)
                if bias:
                    assert np.allclose(grads["b"], g.sum(axis=(0, 2, 3)), rtol=1e-12)

    def test_backward_stays_per_image(self):
        # A stack of every image's taps would take n*kh*kw*min(O,C)*H*W
        # doubles (19 MB here) and raise training's peak memory.
        rng = np.random.default_rng(5)
        x, w = rng.normal(size=(4, 16, 64, 64)), rng.normal(size=(16, 16, 3, 3))
        g = rng.normal(size=(4, 16, 64, 64))
        tracemalloc.start()
        try:
            gt._conv2d_back(x, w, g, True, True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 9 * 16 * 64 * 64 * 8

    @pytest.mark.parametrize("c,o", [(16, 1), (1, 16), (16, 16)])
    def test_backward_runs_no_forward_conv(self, c, o, monkeypatch):
        rng = np.random.default_rng(c + o)
        tape = Tape()
        x = tape.leaf(rng.normal(size=(2, c, 6, 5)), name="x", requires_grad=True)
        w = tape.leaf(rng.normal(size=(o, c, 3, 3)), name="w", requires_grad=True)
        loss = gt.tsum(gt.mul(gt.conv2d(x, w), Tensor(rng.normal(size=(2, o, 6, 5)))))

        def forbidden(*args):
            raise AssertionError("the backward ran a forward conv")

        monkeypatch.setattr(gt, "_conv2d_raw", forbidden)
        assert sorted(tape.backward(loss)) == ["w", "x"]

    @pytest.mark.parametrize("shape,o,k", [
        ((1, 1, 16, 16), 16, 3),
        ((4, 16, 16, 16), 1, 3),
        ((4, 16, 16, 16), 16, 3),
        ((2, 3, 9, 12), 32, 3),
        ((2, 32, 8, 8), 9, 1),
        ((1, 16, 24, 40), 1, 1),
        ((1, 32, 12, 10), 8, 1),
        ((4, 32, 12, 10), 8, 1),
        ((1, 16, 1, 1), 16, 3),
        ((3, 16, 1, 1), 16, 1),
        ((2, 16, 1, 9), 16, 3),
        ((2, 16, 9, 1), 16, 3),
        ((1, 16, 9, 1), 4, 1),
        ((2, 4, 11, 13), 8, 5),
    ])
    def test_forward_is_the_window_contraction_bit_for_bit(self, shape, o, k):
        # Streams, decoding and eval_rd run this forward; its bits are frozen.
        # They hold only if BLAS gets the same operand in the same layout:
        # a C-ordered copy where tensordot passes a strided view (1x1
        # kernels at N = 1, 1x1 planes) moves outputs by ~1e-16.
        rng = np.random.default_rng(shape[1] * 31 + o)
        w = rng.normal(size=(o, shape[1], k, k))
        b = rng.normal(size=o)
        for x in _layouts(rng.normal(size=shape)):
            assert np.array_equal(gt.conv2d(Tensor(x), Tensor(w), Tensor(b)).data,
                                  _window_conv(x, w, b))
            assert np.array_equal(gt.conv2d(Tensor(x), Tensor(w)).data,
                                  _window_conv(x, w))

    def test_forward_goes_through_conv2d_raw(self, monkeypatch):
        # The benchmark's conv table hooks this module attribute by name.
        calls = []
        raw = gt._conv2d_raw

        def counting(x, w, b):
            calls.append((x.shape, w.shape))
            return raw(x, w, b)

        monkeypatch.setattr(gt, "_conv2d_raw", counting)
        x, w = RNG.normal(size=(2, 16, 6, 6)), RNG.normal(size=(16, 16, 3, 3))
        out = gt.conv2d(Tensor(x), Tensor(w))
        assert calls == [((2, 16, 6, 6), (16, 16, 3, 3))]
        assert np.array_equal(out.data, raw(x, w, None))


def _conv_grads(build, x, params, gs):
    """Output values and every leaf gradient of `build(x, *params)`, whose
    outputs are each weighted by the matching upstream gradient in `gs`."""
    tape = Tape()
    xl = tape.leaf(x, name="x", requires_grad=True)
    leaves = [None if p is None else tape.leaf(p, name=f"p{i}", requires_grad=True)
              for i, p in enumerate(params)]
    outs = build(xl, *leaves)
    loss = gt.tsum(gt.mul(outs[0], Tensor(gs[0])))
    for out, g in zip(outs[1:], gs[1:]):
        loss = gt.add(loss, gt.tsum(gt.mul(out, Tensor(g))))
    return [o.data for o in outs], tape.backward(loss)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# N = 4 planes whose images the forward builds and multiplies one by one,
# and planes below the 1024-position floor.
SPLIT_PLANES = ((64, 64), (64, 32), (32, 32))
WHOLE_PLANES = ((32, 16), (16, 16))
# One-image planes: cut in two on a 2-CPU machine (64x64), cut into bands of
# at most about 2^14 positions (160x224; 300x277, whose odd width allows a
# cut only every 64 rows) and too short for any aligned cut (45x49).
BAND_PLANES = ((64, 64), (160, 224), (300, 277))
UNCUT_PLANES = ((45, 49),)


def split_cases():
    """{case id: weight names}: one case per layer of the additive and
    affine models' 3x3 convs (P/U nets, post-filter, context s1/s2/l1/l2),
    where each affine net's hs and hr heads are one conv2d_heads case."""
    cases = {}
    for mode in ("additive", "affine"):
        for name in models.all_weight_shapes(mode, 2):
            family, *path, layer, kind = name.split(".")
            if kind != "w" or layer in ("h1", "h2"):
                continue  # biases and the context heads' 1x1 convs
            if layer in ("hs", "hr"):
                layer = "hs+hr"
                names = [f"{family}.{'.'.join(path)}.{head}.w" for head in ("hs", "hr")]
            else:
                names = [name]
            cases.setdefault(f"{family}.{layer}", names)
    return cases


def split_conv_mismatches(names, seed=0):
    """The (images, plane, layout) triples at which conv2d (conv2d_heads for
    several weights) of the named weight shapes differs from the window
    contraction: 4 images of SPLIT_PLANES and WHOLE_PLANES, one image of
    BAND_PLANES and UNCUT_PLANES."""
    shapes = {**models.all_weight_shapes("additive", 2),
              **models.all_weight_shapes("affine", 2)}
    rng = np.random.default_rng(seed)
    heads = [(rng.normal(size=shapes[n]), rng.normal(size=shapes[n][0])) for n in names]
    bad = []
    for n, planes in ((4, SPLIT_PLANES + WHOLE_PLANES), (1, BAND_PLANES + UNCUT_PLANES)):
        for plane in planes:
            x = rng.normal(size=(n, shapes[names[0]][1]) + plane)
            for at, xl in enumerate(_layouts(x)):
                outs = gt.conv2d_heads(Tensor(xl), [(Tensor(w), Tensor(b)) for w, b in heads])
                if not all(np.array_equal(out.data, _window_conv(xl, w, b))
                           for out, (w, b) in zip(outs, heads)):
                    bad.append([n, list(plane), at])
    return bad


def _check_bands(bands, n, h, wd):
    """Every band is whole rows of one image, starts at a multiple of 64
    rows of the batch's window matrix and holds at least 1024 of them, and
    the bands cover each row of each image once."""
    assert sorted((i, r) for i, top, end in bands for r in range(top, end)) == [
        (i, r) for i in range(n) for r in range(h)]
    for i, top, end in bands:
        assert (i * h + top) * wd % 64 == 0
        assert (end - top) * wd >= 1024


class TestImageSplit:
    """A conv's window is built and multiplied in bands, one image of a
    batch or rows of one image, with the bits of the one product."""

    @pytest.mark.parametrize("case", sorted(split_cases()))
    def test_split_forward_is_the_window_contraction(self, case):
        # P/U nets, affine heads, post-filter and context s1/s2/l1/l2, at
        # planes that take bands and planes that do not, in every layout.
        assert split_conv_mismatches(split_cases()[case]) == []

    @pytest.mark.parametrize("plane,images", [((32, 32), [1, 1, 1, 1]),
                                              ((64, 32), [1, 1, 1, 1]),
                                              ((32, 16), [4]),
                                              ((16, 16), [4])])
    def test_windows_are_per_image_only_above_the_floor(self, plane, images,
                                                        monkeypatch):
        # The 1024-row floor keeps a margin above the sizes at which OpenBLAS
        # may take other code paths: a batch of 32x16 images (512 rows each)
        # stays one window and one product.
        built = []

        def counted(xp, *args, _build=gt._window_rows):
            built.append(xp.shape[0])
            return _build(xp, *args)

        monkeypatch.setattr(gt, "_window_rows", counted)
        rng = np.random.default_rng(8)
        gt.conv2d(Tensor(rng.normal(size=(4, 16) + plane)),
                  Tensor(rng.normal(size=(16, 16, 3, 3))))
        assert sorted(built) == images

    @pytest.mark.parametrize("plane,rows", [((64, 64), [2048, 2048]),
                                            ((160, 224), [52 * 224, 54 * 224, 54 * 224]),
                                            ((45, 49), [45 * 49]),
                                            ((32, 63), [32 * 63])])
    def test_one_image_windows_are_bands(self, plane, rows, monkeypatch):
        # On two CPUs a one-image plane of at least 2048 positions is cut in
        # two, and one above 2^14 positions into bands of at most about that
        # many; 45x49 has no aligned cut and 32x63 too few positions.
        monkeypatch.setattr(gt, "_usable_cpus", lambda: 2)
        built = []

        def counted(*args, _build=gt._window_rows):
            a = _build(*args)
            built.append(a.shape[0])
            return a

        monkeypatch.setattr(gt, "_window_rows", counted)
        rng = np.random.default_rng(8)
        gt.conv2d(Tensor(rng.normal(size=(1, 16) + plane)),
                  Tensor(rng.normal(size=(16, 16, 3, 3))))
        assert sorted(built) == rows

    def test_split_rule(self, monkeypatch):
        for cpus in (1, 2, 3, 8):
            monkeypatch.setattr(gt, "_usable_cpus", lambda: cpus)
            for n, h, wd in itertools.product((1, 2, 4), range(1, 330, 7),
                                              range(1, 330, 13)):
                bands = gt._bands(n, h, wd, (3, 3))
                if bands is not None:
                    _check_bands(bands, n, h, wd)
                elif n == 1 and max(cpus, h * wd / 16384) > 1:
                    # A plane to be cut stays whole only without a legal cut.
                    least = -(-1024 // wd)
                    assert not any(r * wd % 64 == 0 for r in range(least, h - least + 1))
            # One image: max(CPUs, positions / 2^14) bands at aligned cuts.
            assert len(gt._bands(1, 512, 512, (3, 3))) == max(cpus, 16)
            assert len(gt._bands(1, 160, 224, (3, 3))) == max(cpus, 3)
            assert (gt._bands(1, 64, 64, (3, 3)) is None) == (cpus == 1)
            assert gt._bands(1, 45, 49, (3, 3)) is None     # no aligned cut
        assert gt._bands(1, 32, 64, (3, 3)) == [(0, 0, 16), (0, 16, 32)]
        assert gt._bands(1, 31, 66, (3, 3)) is None         # 2046 positions
        assert gt._bands(1, 300, 277, (3, 3)) == [
            (0, top, min(top + 64, 300)) for top in range(0, 300, 64)]
        # A batch: one band per image of >= 1024 positions, a multiple of 64.
        assert all(gt._bands(4, h, w, (3, 3)) == [(i, 0, h) for i in range(4)]
                   for h, w in SPLIT_PLANES)
        assert not any(gt._bands(4, h, w, (3, 3)) for h, w in WHOLE_PLANES)
        assert gt._bands(2, 32, 32, (3, 3)) and gt._bands(4, 32, 34, (1, 5))
        assert gt._bands(4, 16, 32, (3, 3)) is None         # below the floor
        assert gt._bands(4, 32, 33, (3, 3)) is None         # not a multiple of 64
        for n in (1, 4):
            assert gt._bands(n, 512, 512, (1, 1)) is None   # 1x1 kernel
            assert gt._bands(n, 512, 512, (3, 1)) is None   # one column: maybe a view

    @pytest.mark.parametrize("c,o", [(16, 16), (16, 1), (1, 16), (3, 32)])
    @pytest.mark.parametrize("want_dx,want_dw", [(True, True), (True, False),
                                                 (False, True)])
    def test_backward_is_the_per_image_backward(self, c, o, want_dx, want_dw):
        # Both stack sides (g's taps when O <= C, x's when C < O): dx is the
        # images' dx stacked, dw their dw summed in image order.
        rng = np.random.default_rng(10 * c + o)
        x, w = rng.normal(size=(4, c, 32, 32)), rng.normal(size=(o, c, 3, 3))
        g = rng.normal(size=(4, o, 32, 32))
        dx, dw = gt._conv2d_back(x, w, g, want_dx, want_dw)
        per = [gt._conv2d_back(x[i:i + 1], w, g[i:i + 1], want_dx, want_dw)
               for i in range(4)]
        if want_dx:
            assert _same_bits(dx, np.concatenate([p[0] for p in per]))
        else:
            assert dx is None
        if want_dw:
            total = np.zeros_like(w)
            for _, part in per:
                total += part
            assert _same_bits(dw, total)
        else:
            assert dw is None

    @pytest.mark.parametrize("cpus,setter", [(1, True), (2, False)])
    def test_bands_run_in_turn_without_a_pool(self, cpus, setter, monkeypatch):
        # On one CPU, or without OpenBLAS's per-thread setter, there is no
        # pool: the caller runs every band, with the same outputs.
        monkeypatch.setattr(gt, "_usable_cpus", lambda: cpus)
        if not setter:
            monkeypatch.setattr(gt, "_blas_threads_local", lambda: None)
        pool = gt._image_pool.__wrapped__()
        assert pool is None
        monkeypatch.setattr(gt, "_image_pool", lambda: pool)
        threads = set()

        def spied(*args, _build=gt._window_rows):
            threads.add(threading.current_thread())
            return _build(*args)

        monkeypatch.setattr(gt, "_window_rows", spied)
        rng = np.random.default_rng(13)
        w, b = rng.normal(size=(16, 16, 3, 3)), rng.normal(size=16)
        for shape in ((1, 16, 64, 64), (1, 16, 160, 224), (4, 16, 32, 32)):
            x = rng.normal(size=shape)
            assert np.array_equal(gt.conv2d(Tensor(x), Tensor(w), Tensor(b)).data,
                                  _window_conv(x, w, b))
        assert threads == {threading.current_thread()}

    def test_concurrent_callers_keep_their_bits(self):
        # Two callers share the pool with batches of 8 images, more than
        # its workers, and with one-image planes of three bands, under a
        # short switch interval: each gets the outputs and gradients of its
        # own convs.
        rng = np.random.default_rng(12)
        w = rng.normal(size=(16, 16, 3, 3))
        xs = [rng.normal(size=(8, 16, 32, 32)) for _ in range(2)]
        gs = [rng.normal(size=(8, 16, 32, 32)) for _ in range(2)]
        planes = [rng.normal(size=(1, 16, 160, 224)) for _ in range(2)]
        want = [(_window_conv(x, w), np.concatenate(
                    [gt._conv2d_back(x[i:i + 1], w, g[i:i + 1], True, False)[0]
                     for i in range(8)]), _window_conv(p, w))
                for x, g, p in zip(xs, gs, planes)]
        same = [None, None]

        def caller(k):
            same[k] = all(
                np.array_equal(gt.conv2d(Tensor(xs[k]), Tensor(w)).data, want[k][0])
                and np.array_equal(gt._conv2d_back(xs[k], w, gs[k], True, False)[0],
                                   want[k][1])
                and np.array_equal(gt.conv2d(Tensor(planes[k]), Tensor(w)).data,
                                   want[k][2])
                for _ in range(5))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=caller, args=(k,)) for k in range(2)]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        assert same == [True, True]

    def test_workers_keep_the_callers_errstate(self):
        # numpy keeps errstate in a context variable; a band run outside the
        # caller's context would only warn.  The first band is the caller's,
        # the others a worker's or, once taken back, the caller's.
        w = np.zeros((16, 16, 3, 3))
        for at in ((2, 5, 7, 9), (0, 5, 7, 9), (0, 5, 150, 200)):
            x = np.ones((4, 16, 32, 32) if at[0] else (1, 16, 160, 224))
            x[at] = np.inf
            with np.errstate(invalid="raise"):
                with pytest.raises(FloatingPointError):
                    gt.conv2d(Tensor(x), Tensor(w))
                with pytest.raises(FloatingPointError):
                    gt._conv2d_back(np.ones(x.shape), w, x, True, False)


def _needs_pool():
    if gt._image_pool() is None:
        pytest.skip("no pool here: tasks run in turn")


class TestRunAll:
    """The caller runs tasks beside the pool's workers and takes back those
    no worker has started."""

    def test_results_come_in_task_order(self):
        # Later tasks finish first.
        def task(i):
            time.sleep(0.002 * (8 - i))
            return i * i

        assert gt._run_all(task, 8) == [i * i for i in range(8)]
        assert gt._run_all(task, 1) == [0]

    def test_a_task_may_dispatch_again(self):
        # A worker's task that dispatches inner tasks, while the caller is
        # busy, runs them itself: nothing waits on a task no one has started.
        _needs_pool()
        started, names = threading.Event(), []

        def outer(i):
            if i == 0:
                started.wait(10)
            else:
                started.set()
            names.append(threading.current_thread().name)
            return sum(gt._run_all(lambda j: j + 1, 4)) + i

        got = []
        t = threading.Thread(target=lambda: got.append(gt._run_all(outer, 3)))
        t.start()
        t.join(timeout=60)
        assert not t.is_alive()
        assert got == [[10, 11, 12]]
        assert any(name.startswith("iwv3-band") for name in names)

    @pytest.mark.parametrize("raiser", [0, 1])
    def test_a_failing_task_raises_in_the_caller(self, raiser):
        # Task 0 is the caller's; task 1 starts on a worker while the
        # caller waits for it.  Either raises under the caller's errstate.
        _needs_pool()
        started, names = threading.Event(), {}

        def task(i):
            names[i] = threading.current_thread().name
            if i == 0:
                started.wait(10)
            else:
                started.set()
            if i == raiser:
                np.divide(np.zeros(2), 0.0)
            return i

        with np.errstate(invalid="raise"):
            with pytest.raises(FloatingPointError):
                gt._run_all(task, 2)
        assert names[1].startswith("iwv3-band")
        assert not names[0].startswith("iwv3-band")


class TestFusedConvRelu:
    @pytest.mark.parametrize("c,o,bias", list(itertools.product((1, 16), (1, 16),
                                                                 (False, True))))
    def test_matches_relu_of_conv_bit_for_bit(self, c, o, bias):
        rng = np.random.default_rng(10 * c + o)
        x = rng.normal(size=(2, c, 6, 7))
        x[0, :, 1, 2] = -0.0
        x[0, :, 4, :] = -0.0  # a row of -0.0 inputs
        x[1, 0, 3, 3] = np.nan  # NaN outputs, which the mask must drop
        w = rng.normal(size=(o, c, 3, 3))
        b = rng.normal(size=o) if bias else None
        g = rng.normal(size=(2, o, 6, 7))
        params = (w, b) if bias else (w,)
        with np.errstate(invalid="ignore"):
            fused = _conv_grads(lambda *a: [gt.conv2d_relu(*a)], x, params, [g])
            plain = _conv_grads(lambda *a: [gt.relu(gt.conv2d(*a))], x, params, [g])
        assert np.isnan(fused[0][0]).any() and (fused[0][0] == 0).any()
        assert _same_bits(fused[0][0], plain[0][0])
        assert sorted(fused[1]) == sorted(plain[1])
        for name in plain[1]:
            assert _same_bits(fused[1][name], plain[1][name]), name

    def test_keeps_only_its_output(self):
        tape = Tape()
        x = tape.leaf(RNG.normal(size=(1, 2, 4, 4)), name="x", requires_grad=True)
        w = tape.leaf(RNG.normal(size=(3, 2, 3, 3)), name="w", requires_grad=True)
        before = len(tape._nodes)
        gt.conv2d_relu(x, w)
        assert len(tape._nodes) == before + 1


class TestSharedWindow:
    @pytest.mark.parametrize("k", [3, 1])
    def test_heads_match_separate_convs_in_every_layout(self, k):
        rng = np.random.default_rng(20 + k)
        ws = [rng.normal(size=(o, 16, k, k)) for o in (1, 1, 4)]
        bs = [rng.normal(size=1), None, rng.normal(size=4)]
        gs = [rng.normal(size=(2, w.shape[0], 5, 9)) for w in ws]
        params = [p for w, b in zip(ws, bs) for p in (w, b)]

        def heads(x, *p):
            return gt.conv2d_heads(x, list(zip(p[0::2], p[1::2])))

        def separate(x, *p):
            return [gt.conv2d(x, w, b) for w, b in zip(p[0::2], p[1::2])]

        for x in _layouts(rng.normal(size=(2, 16, 5, 9))):
            eager = heads(Tensor(x), *[None if p is None else Tensor(p) for p in params])
            shared, ref = _conv_grads(heads, x, params, gs), _conv_grads(separate, x, params, gs)
            for a, b, c in zip(eager, shared[0], ref[0]):
                assert _same_bits(a.data, c) and _same_bits(b, c)
            assert sorted(shared[1]) == sorted(ref[1])
            for name in ref[1]:
                assert _same_bits(shared[1][name], ref[1][name]), name

    def test_heads_must_share_a_kernel_size(self):
        x = Tensor(np.zeros((1, 2, 4, 4)))
        with pytest.raises(ValueError, match="kernel size"):
            gt.conv2d_heads(x, [(np.zeros((1, 2, 3, 3)), None), (np.zeros((1, 2, 1, 1)), None)])

    @pytest.mark.parametrize("kind", ["additive", "affine"])
    def test_one_window_per_layer_input(self, kind, monkeypatch):
        # c1, c2 and the output layer each build one window matrix: the
        # affine hs and hr heads share the one of the trunk output.
        built = []

        def counted(x, kh, kw, _build=gt._window_matrix):
            built.append(x.shape)
            return _build(x, kh, kw)

        monkeypatch.setattr(gt, "_window_matrix", counted)
        net = PUNet(kind, "xf.p1")
        rng = np.random.default_rng(3)
        params = {n: Tensor(rng.normal(0, 0.3, s)) for n, s in net.weight_shapes().items()}
        pu_forward(net, params, Tensor(rng.normal(size=(1, 1, 6, 8))))
        assert built == [(1, 1, 6, 8), (1, 16, 6, 8), (1, 16, 6, 8)]
        tape = Tape()
        params = {n: tape.leaf(p.data, name=n, requires_grad=True) for n, p in params.items()}
        built.clear()
        shift, sc = pu_forward(net, params, tape.leaf(rng.normal(size=(1, 1, 6, 8))))
        assert len(built) == 3
        tape.backward(gt.tsum(shift if sc is None else gt.add(shift, sc)))


class TestConvGradientsTaken:
    """A conv computes gradients only for the parents that can take them."""

    @staticmethod
    def _operands(c, o, seed):
        rng = np.random.default_rng(seed)
        return (rng.normal(size=(2, c, 5, 6)), rng.normal(size=(o, c, 3, 3)),
                rng.normal(size=o), rng.normal(size=(2, o, 5, 6)))

    @pytest.mark.parametrize("c,o", [(16, 1), (1, 16), (4, 4)])
    def test_no_dx_for_an_input_off_the_tape(self, c, o):
        x, w, b, g = self._operands(c, o, 1)
        tape = Tape()
        wl = tape.leaf(w, name="w", requires_grad=True)
        bl = tape.leaf(b, name="b", requires_grad=True)
        for xin in (Tensor(x), tape.leaf(x, name="x")):
            dx, dw, db = gt.conv2d(xin, wl, bl)._backward(g)
            assert dx is None
            assert np.allclose(dw, _window_conv_grads(x, w, g)[1], rtol=1e-12)
            assert np.allclose(db, g.sum(axis=(0, 2, 3)), rtol=1e-12)

    @pytest.mark.parametrize("c,o", [(16, 1), (1, 16), (4, 4)])
    @pytest.mark.parametrize("relu", [False, True])
    def test_no_weight_gradients_for_constant_params(self, c, o, relu):
        x, w, b, g = self._operands(c, o, 2)
        weights = ModelWeights()
        weights.add("w", w)
        weights.add("b", b)
        params = gt.constant_params(weights)
        op = gt.conv2d_relu if relu else gt.conv2d
        tape = Tape()
        xl = tape.leaf(x, name="x", requires_grad=True)
        out = op(xl, params["w"], params["b"])
        dx, dw, db = out._backward(g)
        assert dw is None and db is None
        mask = out.data > 0 if relu else 1.0
        assert np.allclose(dx, _window_conv_grads(x, w, g * mask)[0], rtol=1e-12)
        grads = tape.backward(gt.tsum(gt.mul(out, Tensor(g))))
        assert sorted(grads) == ["x"]
        assert np.array_equal(grads["x"], dx)

    @pytest.mark.parametrize("taped", list(itertools.product((False, True), repeat=3)))
    def test_taped_leaves_get_the_window_contraction(self, taped):
        x, w, b, g = self._operands(3, 9, 3)
        tape = Tape()
        names = ("x", "w", "b")
        ops = [tape.leaf(v, name=n, requires_grad=True) if t else Tensor(v)
               for v, n, t in zip((x, w, b), names, taped)]
        out = gt.conv2d(*ops)
        if not any(taped):
            assert out.tape is None
            return
        grads = tape.backward(gt.tsum(gt.mul(out, Tensor(g))))
        assert sorted(grads) == sorted(n for n, t in zip(names, taped) if t)
        ref = dict(zip(names, _window_conv_grads(x, w, g) + (g.sum(axis=(0, 2, 3)),)))
        for name, grad in grads.items():
            assert np.allclose(grad, ref[name], rtol=1e-12), name


class TestBackwardContract:
    def test_sum_gradient_is_ones(self):
        tape = Tape()
        x = tape.leaf(RNG.normal(size=(3, 4)), name="x", requires_grad=True)
        grads = tape.backward(gt.tsum(x))
        assert np.array_equal(grads["x"], np.ones((3, 4)))

    def test_square_sum_gradient(self):
        tape = Tape()
        x = tape.leaf(np.array([3.0]), name="x", requires_grad=True)
        grads = tape.backward(gt.tsum(gt.mul(x, x)))
        assert grads["x"].tolist() == [6.0]

    def test_loss_must_be_scalar(self):
        tape = Tape()
        x = tape.leaf(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            tape.backward(gt.mul(x, x))

    def test_recording_consumed_twice(self):
        tape = Tape()
        x = tape.leaf(np.ones(3), name="x", requires_grad=True)
        loss = gt.tsum(x)
        tape.backward(loss)
        with pytest.raises(ValueError, match="consumed"):
            tape.backward(loss)

    def test_gradient_shapes_match_values(self):
        tape = Tape()
        x = tape.leaf(RNG.normal(size=(2, 3, 4, 4)), name="x", requires_grad=True)
        w = tape.leaf(RNG.normal(size=(2, 3, 3, 3)), name="w", requires_grad=True)
        grads = tape.backward(gt.tsum(gt.conv2d(x, w)))
        assert grads["x"].shape == (2, 3, 4, 4)
        assert grads["w"].shape == (2, 3, 3, 3)

    def test_mixed_tape_rejected(self):
        t1, t2 = Tape(), Tape()
        a = t1.leaf(np.ones(3), requires_grad=True)
        b = t2.leaf(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError, match="different recordings"):
            gt.add(a, b)


class TestPUNets:
    def _weights(self, kind, scale):
        net = PUNet(kind, "xf.p1")
        rng = np.random.default_rng(5)
        return net, {
            name: Tensor(rng.normal(0, scale, shape))
            for name, shape in net.weight_shapes().items()
        }

    def test_additive_zero_weights_gives_zero_shift(self):
        net, params = self._weights("additive", 0.0)
        shift, sc = pu_forward(net, params, Tensor(RNG.normal(size=(1, 1, 6, 6))))
        assert sc is None
        assert np.array_equal(shift.data, np.zeros((1, 1, 6, 6)))

    def test_affine_zero_weights_fixed_point(self):
        net, params = self._weights("affine", 0.0)
        shift, sc = pu_forward(net, params, Tensor(RNG.normal(size=(1, 1, 6, 6))))
        assert np.array_equal(shift.data, np.zeros((1, 1, 6, 6)))
        assert np.array_equal(sc.data, np.ones((1, 1, 6, 6)))

    def test_affine_scale_positive_all_inputs(self):
        rng = np.random.default_rng(11)
        for trial in range(20):
            net, params = self._weights("affine", 0.5)
            for _ in range(50):
                x = Tensor(rng.normal(0, 100, (1, 1, 4, 4)))
                _, sc = pu_forward(net, params, x)
                assert sc.data.min() > 0

    def test_kind_weight_mismatch(self):
        net, params = self._weights("additive", 0.1)
        bad = PUNet("affine", "xf.p1")
        with pytest.raises(ValueError, match="mismatch"):
            pu_forward(bad, params, Tensor(np.zeros((1, 1, 4, 4))))

    def test_three_layer_net_gradient_matches_finite_differences(self):
        net = PUNet("additive", "xf.p1")
        rng = np.random.default_rng(13)
        arrays = {n: rng.normal(0, 0.3, s) for n, s in net.weight_shapes().items()}
        x = rng.normal(size=(1, 1, 5, 5))

        def loss_of(arrs):
            params = {n: Tensor(a) for n, a in arrs.items()}
            shift, _ = pu_forward(net, params, Tensor(x))
            return float(gt.tsum(gt.mul(shift, shift)).data)

        tape = Tape()
        params = {n: tape.leaf(a, name=n, requires_grad=True)
                  for n, a in arrays.items()}
        shift, _ = pu_forward(net, params, Tensor(x))
        grads = tape.backward(gt.tsum(gt.mul(shift, shift)))

        h = 1e-5  # small enough that the relu kinks are (almost) never crossed
        for name, arr in arrays.items():
            flat = arr.ravel()
            gflat = grads[name].ravel()
            for idx in np.random.default_rng(0).choice(
                    flat.size, size=min(4, flat.size), replace=False):
                orig = flat[idx]
                flat[idx] = orig + h
                hi = loss_of(arrays)
                flat[idx] = orig - h
                lo = loss_of(arrays)
                flat[idx] = orig
                num = (hi - lo) / (2 * h)
                ana = gflat[idx]
                rel = abs(num - ana) / max(abs(num), abs(ana), 1e-8)
                assert rel < 1e-3, f"{name}[{idx}]: {num} vs {ana}"


class TestWeightsFile:
    def test_empty_round_trip(self):
        w = ModelWeights()
        assert len(load_weights(save_weights(w))) == 0

    def test_single_tensor_file_size(self):
        w = ModelWeights()
        w.add("p1.w", np.zeros((16, 1, 3, 3)))
        data = save_weights(w)
        # magic(4) + version(1) + count(4) + name_len(2) + name(4)
        # + rank(1) + dims(16) + payload(4*144)
        assert len(data) == 4 + 1 + 4 + 2 + 4 + 1 + 16 + 4 * 144

    def test_round_trip_names_shapes_values(self):
        rng = np.random.default_rng(3)
        w = ModelWeights()
        w.add("a.w", rng.normal(size=(2, 3)).astype(np.float32).astype(np.float64))
        w.add("b", np.asarray(1.5))
        out = load_weights(save_weights(w))
        assert out.names() == ["a.w", "b"]
        assert np.array_equal(out.get("a.w"), w.get("a.w"))
        assert float(out.get("b")) == 1.5

    def test_float32_storage_is_idempotent(self):
        w = ModelWeights()
        w.add("x", np.random.default_rng(0).normal(size=(5,)))
        once = load_weights(save_weights(w))
        twice = load_weights(save_weights(once))
        assert np.array_equal(once.get("x"), twice.get("x"))

    def test_bad_magic(self):
        with pytest.raises(ValueError, match="bad magic"):
            load_weights(b"NOPE" + bytes(10))

    def test_truncated_tensor(self):
        w = ModelWeights()
        w.add("x", np.ones((4,)))
        data = save_weights(w)
        with pytest.raises(ValueError, match="truncated"):
            load_weights(data[:-3])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_rejected(self, bad):
        w = ModelWeights()
        w.add("x", np.ones(2))
        w.add("y.b", np.array([0.5, bad, 1.0]))
        with pytest.raises(ValueError, match="non-finite value in tensor 'y.b'"):
            load_weights(save_weights(w))

    def test_duplicate_name_rejected(self):
        w = ModelWeights()
        w.add("x", np.ones(2))
        with pytest.raises(ValueError, match="duplicate"):
            w.add("x", np.ones(2))
        # a file that names a tensor twice: load_weights adds each in turn
        data = save_weights(w)
        with pytest.raises(ValueError, match="duplicate name 'x'"):
            load_weights(data[:5] + struct.pack("<I", 2) + data[9:] * 2)


class TestWeightsStore:
    def test_stored_arrays_are_read_only_copies(self):
        source = np.ones((2, 3))
        w = ModelWeights()
        w.add("x", source)
        source[0, 0] = 5.0  # add kept its own copy
        assert w["x"][0, 0] == 1.0
        with pytest.raises(ValueError, match="read-only"):
            w["x"][...] = 0.0
        for _, values in w.items():
            with pytest.raises(ValueError, match="read-only"):
                values.reshape(-1)[0] = 0.0
        w.set("x", np.full((2, 3), 2.0))
        with pytest.raises(ValueError, match="read-only"):
            w["x"][0] += 1.0

    def test_get_hands_out_a_writable_copy(self):
        w = ModelWeights()
        w.add("x", np.ones(3))
        arr = w.get("x")
        arr[...] = 0.0  # write it back with set
        assert np.array_equal(w["x"], np.ones(3))
        w.set("x", arr)
        assert np.array_equal(w["x"], np.zeros(3))

    def test_add_and_set_drop_the_prepared_model(self):
        w = ModelWeights()
        w.add("x", np.ones(2))
        w.prepared = "stale"
        w.set("x", np.zeros(2))
        assert w.prepared is None
        w.prepared = "stale"
        w.add("y", np.ones(1))
        assert w.prepared is None

    def test_copy_and_reload_start_unprepared(self):
        w = ModelWeights()
        w.add("x", np.arange(4.0))
        w.prepared = "prepared"
        dup = w.copy()
        assert dup.prepared is None and load_weights(save_weights(w)).prepared is None
        dup.set("x", np.zeros(4))  # the copy is independent
        assert np.array_equal(w["x"], np.arange(4.0))
        assert w.prepared == "prepared"
