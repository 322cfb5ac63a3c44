"""Dense tensor engine with recorded reverse-mode differentiation.

A Tape records every operation applied to tensors attached to it; backward()
replays the recording once to produce gradients for the named leaves flagged
as differentiable.  Tensors without a tape evaluate eagerly, so the same
network code serves both training and plain inference.

Values are float64 throughout; weight files store float32 little-endian.

Convolution.  The forward product, `_conv2d_raw`, is one `np.dot` of the
(N*H*W, C*kh*kw) window matrix with the (C*kh*kw, O) weight matrix (im2col):
the operands, layout and call of `np.tensordot` over a `sliding_window_view`
of the padded input, so every output bit is the same.  Only the copy
differs: each kernel row of kw samples moves as one void element, and where
tensordot would pass a strided view instead of a copy (1x1 kernels at
N = 1, 1x1 planes) that view is passed.  The bits are frozen: streams,
decoding and `eval_rd` all run this product, and the affine transform's
round trip is sensitive to its last bit (one-ulp nudges of a 16x16 test
pyramid's LL band move the round-trip error from 5e-8 to a median of
4.5e-5, against the acceptance bound of 1e-4), so another summation order
(per-tap) is not a free change even though each conv moves by only ~1e-15
relative.

What can change is how often the same work is done.  On a thin 16->1 layer
the window copy takes about ten times as long as the product, so convs of
one input share it: `conv2d_heads` (the affine lifting nets' shift and
scale heads) builds one window matrix and runs each head's own product on
it, recording each head as the node `conv2d` would.  `conv2d_relu` is
relu(conv2d(...)) as one node: the relu runs in place on the conv output,
the only array the node keeps, and its backward masks with that output's
> 0, which is the relu input's.  Neither changes a bit of any output or
gradient.

The backward products feed no stream, and each conv's backward is two GEMMs
per image (the kn2row/im2col duality; Vasudevan, Anderson & Gregg, 2017).
An image's g and x are zero-padded into a per-channel flat layout of row
pitch W+2pw, in which the samples that kernel tap (ky, kx) meets are one
contiguous slice.  The kh*kw slices of the side with fewer channels (g
when O <= C, else x) are copied into one (kh*kw*min(O,C), H*pitch) stack.
dw is then one product of the stack with the other side, whose zero
columns cancel the positions that straddle two rows.  dx is W times g's
stack, or, when x's is the stack, the output-side product W*g followed by
a sum of its kh*kw shifted slices.  Stacks are built one image at a time,
so the backward holds a kh*kw-fold copy of one image's narrower side, not of
the batch's.  A conv computes only the gradients its parents can take: none
for an input off the tape (a constant context or reconstruction) or for a
leaf that does not require one (online optimization's constant weights).

The forward builds and multiplies its window in bands when it can: each
band is whole rows of one image, starts at a multiple of 64 rows of the
window matrix and holds at least 1024 of them, and its window, built from
the input padded once, is multiplied into its rows of the outputs.  A
batch (N > 1) takes one band per image when each image has at least 1024
positions at a multiple of 64.  One image (the codec's convs, `eval_rd`)
is cut at aligned rows into max(usable CPUs, positions / 2^14) bands, so
the window in flight is bounded and not 9x the plane.  Every row keeps its
bits: a band's window is a row band of the whole matrix, multiplied by the
same weight matrix, and such bands equalled the one product in every case
tried (each 3x3 layer of the additive and affine models, batches of 32x32
to 64x64 planes and single planes up to 300x277, under OpenBLAS's
SkylakeX, Haswell and Sandybridge kernels).  Cuts that are not at a
multiple of 64 rows changed outputs of the 16->1 layers (the GEMV path),
and the 1024-row floor keeps a margin above the small sizes at which
OpenBLAS may take other code paths.  A kernel one column wide is never
cut: one image's 1x1 window is the strided view tensordot passes, not a
row band of the batch's copy, and a 16->1 conv's product on it differs (a
kh x 1 kernel on a one-row plane gives such a view too).

Bands run side by side: the caller runs the first itself beside a pool of
one worker per other usable CPU (`os.sched_getaffinity`), made on first
use, and takes back each band no worker has started.  So a band that
dispatches again never waits on one that no thread runs.  The backward's
per-image loop runs the same way and adds the images' dw parts in image
order afterwards, as the loop did.  A worker's task runs in a copy of the
caller's contextvars context, where numpy keeps its errstate, and calls
nothing the benchmark's tracer wraps.  Each worker runs its products on one
BLAS thread (OpenBLAS's `openblas_set_num_threads_local`); where that call
is missing, or on one CPU, there is no pool and the caller runs every band
in turn.
"""

from __future__ import annotations

import contextvars
import ctypes
import functools
import glob
import os
import struct
from concurrent import futures
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr as _ndtr

# Raw affine scales are clamped before exponentiation so that e^raw stays in
# a numerically invertible band; positivity is preserved for all weights.
RAW_SCALE_LIMIT = 1.0
# Hidden width of the lifting predict/update nets.
PU_CHANNELS = 16

_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


class Tape:
    """A single-use recording of tensor operations."""

    def __init__(self):
        self._nodes = []
        self._consumed = False

    def leaf(self, values, name=None, requires_grad=False) -> "Tensor":
        t = Tensor(values, tape=self, name=name, requires_grad=requires_grad)
        return t

    def params(self, weights: "ModelWeights") -> dict:
        """Differentiable named leaves for every weight entry."""
        return {n: self.leaf(v, name=n, requires_grad=True) for n, v in weights.items()}

    def _record(self, tensor):
        self._nodes.append(tensor)

    def backward(self, loss: "Tensor") -> dict:
        """Gradients of a scalar loss wrt named/differentiable leaves.

        Returns {name: gradient array} for the named differentiable leaves.
        A tape can only be walked once.
        """
        if self._consumed:
            raise ValueError("recording consumed twice")
        if loss.tape is not self:
            raise ValueError("loss does not belong to this recording")
        if loss.data.shape != ():
            raise ValueError("loss must be scalar")
        self._consumed = True
        grads = {id(loss): np.ones((), dtype=np.float64)}
        out = {}
        for node in reversed(self._nodes):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node._parents:
                for parent, pg in zip(node._parents, node._backward(g)):
                    if pg is None:
                        continue
                    key = id(parent)
                    if key in grads:
                        grads[key] = grads[key] + pg
                    else:
                        grads[key] = pg
            elif node.requires_grad and node.name is not None:
                out[node.name] = g
        self._nodes = []
        return out


class Tensor:
    """N-d float64 value, optionally attached to a recording."""

    __slots__ = ("data", "tape", "name", "requires_grad", "_parents", "_backward")

    def __init__(self, values, tape=None, name=None, requires_grad=False,
                 parents=(), backward=None):
        self.data = np.asarray(values, dtype=np.float64)
        self.tape = tape
        self.name = name
        self.requires_grad = requires_grad
        self._parents = parents
        self._backward = backward
        if tape is not None:
            tape._record(self)

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, tape={self.tape is not None})"

    def __add__(self, other):
        return add(self, other)


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _result_tape(*tensors):
    tape = None
    for t in tensors:
        if t.tape is not None:
            if tape is not None and tape is not t.tape:
                raise ValueError("tensors belong to different recordings")
            tape = t.tape
    return tape


def _make(data, parents, backward):
    tape = _result_tape(*parents)
    if tape is None:
        return Tensor(data)
    return Tensor(data, tape=tape, parents=parents, backward=backward)


def _check_same_shape(a, b, op):
    if a.data.shape != b.data.shape:
        raise ValueError(f"{op}: shape mismatch {a.data.shape} vs {b.data.shape}")


# ---------------------------------------------------------------------------
# Elementwise and reduction ops
# ---------------------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    _check_same_shape(a, b, "add")
    return _make(a.data + b.data, (a, b), lambda g: (g, g))


def sub(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    _check_same_shape(a, b, "sub")
    return _make(a.data - b.data, (a, b), lambda g: (g, -g))


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    _check_same_shape(a, b, "mul")
    return _make(a.data * b.data, (a, b), lambda g: (g * b.data, g * a.data))


def scale(a, s: float) -> Tensor:
    a = _wrap(a)
    s = float(s)
    return _make(a.data * s, (a,), lambda g: (g * s,))


def smul(a, s) -> Tensor:
    """Multiply a tensor by a scalar tensor (the one broadcast we allow)."""
    a, s = _wrap(a), _wrap(s)
    if s.data.shape != ():
        raise ValueError("smul: second operand must be scalar")
    return _make(a.data * s.data,
                 (a, s),
                 lambda g: (g * s.data, np.asarray(np.sum(g * a.data))))


def relu(a) -> Tensor:
    a = _wrap(a)
    return _make(np.maximum(a.data, 0.0), (a,), lambda g: (g * (a.data > 0),))


def exp(a) -> Tensor:
    a = _wrap(a)
    out = np.exp(a.data)
    return _make(out, (a,), lambda g: (g * out,))


def log(a) -> Tensor:
    a = _wrap(a)
    return _make(np.log(a.data), (a,), lambda g: (g / a.data,))


def tanh(a) -> Tensor:
    a = _wrap(a)
    out = np.tanh(a.data)
    return _make(out, (a,), lambda g: (g * (1.0 - out * out),))


def sqrt(a) -> Tensor:
    a = _wrap(a)
    out = np.sqrt(a.data)
    return _make(out, (a,), lambda g: (g * (0.5 / out),))


def reciprocal(a) -> Tensor:
    a = _wrap(a)
    out = 1.0 / a.data
    return _make(out, (a,), lambda g: (-g * out * out,))


def ndtr(a) -> Tensor:
    """Standard normal CDF; gradient is the normal pdf."""
    a = _wrap(a)
    return _make(_ndtr(a.data), (a,),
                 lambda g: (g * _INV_SQRT_2PI * np.exp(-0.5 * a.data * a.data),))


def clamp(a, lo: float, hi: float) -> Tensor:
    a = _wrap(a)
    inside = (a.data > lo) & (a.data < hi)
    return _make(np.clip(a.data, lo, hi), (a,), lambda g: (g * inside,))


def floor_const(a) -> Tensor:
    """Elementwise floor treated as a constant (zero gradient)."""
    a = _wrap(a)
    return _make(np.floor(a.data), (a,), lambda g: (np.zeros_like(a.data),))


def tsum(a) -> Tensor:
    a = _wrap(a)
    return _make(np.asarray(np.sum(a.data)), (a,),
                 lambda g: (np.full(a.data.shape, float(g)),))


def tmean(a) -> Tensor:
    a = _wrap(a)
    n = a.data.size
    return _make(np.asarray(np.mean(a.data)), (a,),
                 lambda g: (np.full(a.data.shape, float(g) / n),))


# ---------------------------------------------------------------------------
# Structural ops
# ---------------------------------------------------------------------------

def _take(a, axis: int, start: int) -> Tensor:
    """Every second sample along `axis`, from index `start`."""
    a = _wrap(a)
    sl = [slice(None)] * a.data.ndim
    sl[axis] = slice(start, None, 2)
    sl = tuple(sl)

    def back(g):
        full = np.zeros_like(a.data)
        full[sl] = g
        return (full,)

    return _make(a.data[sl].copy(), (a,), back)


def take_even(a, axis: int) -> Tensor:
    return _take(a, axis, 0)


def take_odd(a, axis: int) -> Tensor:
    return _take(a, axis, 1)


def interleave(even, odd, axis: int) -> Tensor:
    even, odd = _wrap(even), _wrap(odd)
    _check_same_shape(even, odd, "interleave")
    shape = list(even.data.shape)
    shape[axis] *= 2
    out = np.zeros(shape, dtype=np.float64)
    sl_e = [slice(None)] * len(shape)
    sl_o = [slice(None)] * len(shape)
    sl_e[axis] = slice(0, None, 2)
    sl_o[axis] = slice(1, None, 2)
    out[tuple(sl_e)] = even.data
    out[tuple(sl_o)] = odd.data

    def back(g):
        return (g[tuple(sl_e)].copy(), g[tuple(sl_o)].copy())

    return _make(out, (even, odd), back)


def concat_channels(parts) -> Tensor:
    parts = [_wrap(p) for p in parts]
    widths = [p.data.shape[1] for p in parts]
    out = np.concatenate([p.data for p in parts], axis=1)

    def back(g):
        grads, at = [], 0
        for w in widths:
            grads.append(g[:, at : at + w].copy())
            at += w
        return tuple(grads)

    return _make(out, tuple(parts), back)


def slice_channels(a, lo: int, hi: int) -> Tensor:
    a = _wrap(a)

    def back(g):
        full = np.zeros_like(a.data)
        full[:, lo:hi] = g
        return (full,)

    return _make(a.data[:, lo:hi].copy(), (a,), back)


# ---------------------------------------------------------------------------
# Convolution (stride 1, zero padding preserving H x W, odd kernels)
# ---------------------------------------------------------------------------

# A band of a conv's window matrix is whole rows of one image.  It starts at
# a multiple of _BAND_ALIGN rows of the batch's matrix and holds at least
# _BAND_ROWS rows.  One image is cut into bands of at most about _BAND_CAP
# rows, and into no fewer bands than there are usable CPUs.
_BAND_ROWS = 1024
_BAND_ALIGN = 64
_BAND_CAP = 1 << 14


def _blas_threads_local():
    """OpenBLAS's setter of the calling thread's BLAS thread count, from
    the library numpy bundles, or None."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        try:
            setter = ctypes.CDLL(path).openblas_set_num_threads_local
        except (OSError, AttributeError):
            continue
        setter.argtypes, setter.restype = [ctypes.c_int], ctypes.c_int
        return setter
    return None


@functools.cache
def _usable_cpus():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


@functools.cache
def _image_pool():
    """The thread pool whose workers run bands beside the caller, one worker
    per usable CPU but the caller's, each running its products on one BLAS
    thread; None (bands run in turn) on one CPU or where that thread count
    cannot be set."""
    setter = _blas_threads_local()
    if setter is None or _usable_cpus() < 2:
        return None
    return futures.ThreadPoolExecutor(_usable_cpus() - 1, thread_name_prefix="iwv3-band",
                                      initializer=setter, initargs=(1,))


def _bands(n, h, wd, kernel):
    """The bands of a conv of n images of h x wd positions with a (kh, kw)
    kernel, as (image, first row, end row) triples, or None for one product.

    A batch's band is one image, when each image has at least _BAND_ROWS
    positions at a multiple of _BAND_ALIGN.  One image is cut into
    max(usable CPUs, positions / _BAND_CAP rounded up) bands, at the aligned
    rows nearest to even cuts, leaving out a cut that would make a band
    under _BAND_ROWS positions; if no cut is left, into one band fewer, and
    so on.  A kernel one column wide is never cut: its window may be a
    strided view, not a copy."""
    positions = h * wd
    if kernel[1] == 1:
        return None
    if n > 1:
        if positions >= _BAND_ROWS and positions % _BAND_ALIGN == 0:
            return [(i, 0, h) for i in range(n)]
        return None
    step = _BAND_ALIGN // int(np.gcd(wd, _BAND_ALIGN))
    least = -(-_BAND_ROWS // wd)
    for count in range(max(_usable_cpus(), -(-positions // _BAND_CAP)), 1, -1):
        cuts = [0]
        for j in range(1, count):
            cut = step * ((2 * j * h + count * step) // (2 * count * step))
            if cut - cuts[-1] >= least and h - cut >= least:
                cuts.append(cut)
        if len(cuts) > 1:
            cuts.append(h)
            return [(0, top, end) for top, end in zip(cuts, cuts[1:])]
    return None


def _run_all(fn, n):
    """[fn(i) for i in range(n)].  The caller runs fn(0), then takes back
    from the end, with Future.cancel, each task no worker has started and
    runs it; so a task that dispatches again never waits on a task that has
    not started.  A worker's task runs in a copy of the caller's context,
    where numpy keeps its errstate."""
    pool = _image_pool() if n > 1 else None
    if pool is None:
        return [fn(i) for i in range(n)]
    tasks = [pool.submit(contextvars.copy_context().run, fn, i) for i in range(1, n)]
    results = [None] * n
    try:
        results[0] = fn(0)
        for i in range(n - 1, 0, -1):
            if tasks[i - 1].cancel():
                results[i] = fn(i)
    finally:
        # A cancelled task counts as done for futures.wait only once a
        # worker has dequeued it, so only the started ones are waited for.
        started = [task for task in tasks if not task.cancel()]
        futures.wait(started)
    for i, task in enumerate(tasks, 1):
        if not task.cancelled():
            results[i] = task.result()
    return results


def _pad_input(x, kh, kw, order="C"):
    """x zero-padded by kh // 2 rows and kw // 2 columns on each side."""
    n, c, h, wd = x.shape
    ph, pw = kh // 2, kw // 2
    xp = np.zeros((n, c, h + 2 * ph, wd + 2 * pw), x.dtype, order=order)
    xp[:, :, ph:ph + h, pw:pw + wd] = x
    return xp


def _window_rows(xp, kh, kw, top, end):
    """The rows of the window matrix of the C-ordered pad xp that belong to
    output rows top..end-1 of each image, in tensordot's C order.  Each
    kernel row moves as one element: kw adjacent samples of a C-ordered pad
    are one void element."""
    n, c, _, wp = xp.shape
    wd = wp - kw + 1
    sn, sc, sh, sw = xp.strides
    row = np.dtype(f"V{kw * xp.itemsize}")
    rows = np.ndarray((n, end - top, wd, c, kh), row, xp, offset=top * sh,
                      strides=(sn, sh, sw, sc, sh))
    a = np.empty((n * (end - top) * wd, c * kh * kw), xp.dtype)
    a.view(row).reshape(rows.shape)[...] = rows
    return a


def _window_matrix(x, kh, kw):
    """The (N*H*W, C*kh*kw) window matrix of x, zero-padded to keep H x W."""
    n, c, h, wd = x.shape
    m, k = n * h * wd, c * kh * kw
    # Laid out as np.pad lays it out, so the window view has tensordot's strides.
    xp = _pad_input(x, kh, kw, order="F" if x.flags.fnc else "C")
    sn, sc, sh, sw = xp.strides
    win = np.ndarray((n, h, wd, c, kh, kw), xp.dtype, xp,
                     strides=(sn, sh, sw, sc, sh, sw))
    try:
        return win.reshape(m, k, copy=False)  # where tensordot passes a view
    except ValueError:
        return _window_rows(np.ascontiguousarray(xp), kh, kw, 0, h)  # the copy it makes


def _product_into(out, a, w, b):
    """Write the product of window matrix `a` with w, plus b, into the
    (N, O, H, W) array `out`."""
    n, o, h, wd = out.shape
    res = np.dot(a, w.transpose(1, 2, 3, 0).reshape(a.shape[1], o))
    out[...] = res.reshape(n, h, wd, o).transpose(0, 3, 1, 2)
    if b is not None:
        out += b[None, :, None, None]


def _conv2d_heads_raw(x, heads):
    """[_conv2d_raw(x, w, b) for w, b in heads] from one window matrix: the
    heads share a kernel size, and each runs the product a lone conv would.
    When `_bands` cuts the conv, each band's window is built from x, padded
    once, and multiplied into its rows of the outputs, bands side by side."""
    n, _, h, wd = x.shape
    kh, kw = heads[0][0].shape[2:]
    bands = _bands(n, h, wd, (kh, kw))
    if bands is None:
        a = _window_matrix(x, kh, kw)
        outs = []
        for w, b in heads:
            out = np.empty((n, w.shape[0], h, wd))
            _product_into(out, a, w, b)
            outs.append(out)
        return outs
    xp = _pad_input(x, kh, kw)
    outs = [np.empty((n, w.shape[0], h, wd)) for w, _ in heads]

    def band(j):
        i, top, end = bands[j]
        a = _window_rows(xp[i:i + 1], kh, kw, top, end)
        for (w, b), out in zip(heads, outs):
            _product_into(out[i:i + 1, :, top:end], a, w, b)

    _run_all(band, len(bands))
    return outs


def _conv2d_raw(x, w, b):
    """Array conv: x (N,C,H,W), w (O,C,kh,kw), b (O,) or None."""
    return _conv2d_heads_raw(x, [(w, b)])[0]


def _conv_operands(x, w, b):
    """Checked (x, w, b-or-None) tensors of one conv."""
    x, w = _wrap(x), _wrap(w)
    if x.data.ndim != 4 or w.data.ndim != 4:
        raise ValueError("conv2d: expected 4-d input and weight")
    if x.data.shape[1] != w.data.shape[1]:
        raise ValueError(
            f"conv2d: channel mismatch {x.data.shape[1]} vs {w.data.shape[1]}")
    if w.data.shape[2] % 2 == 0 or w.data.shape[3] % 2 == 0:
        raise ValueError("conv2d: kernel dims must be odd")
    return x, w, None if b is None else _wrap(b)


def _conv_node(x, w, b, out, relu=False):
    """The tape node of a conv whose forward gave `out`, relu'd if `relu`.

    Its backward returns None, which `Tape.backward` skips, for each parent
    that cannot take a gradient: one off the tape or a leaf that does not
    require one.  So constant inputs get no dx and constant weights no dw."""
    parents = (x, w) if b is None else (x, w, b)
    wants = [t.tape is not None and bool(t._parents or t.requires_grad)
             for t in parents]

    def back(g):
        if relu:
            g = g * (out > 0)
        dx, dw = _conv2d_back(x.data, w.data, g, wants[0], wants[1])
        if b is None:
            return (dx, dw)
        return (dx, dw, g.sum(axis=(0, 2, 3)) if wants[2] else None)

    return _make(out, parents, back)


def conv2d(x, w, b=None) -> Tensor:
    """2D convolution: x (N,C,H,W) with w (O,C,kh,kw) and optional bias (O,)."""
    x, w, b = _conv_operands(x, w, b)
    out = _conv2d_raw(x.data, w.data, None if b is None else b.data)
    return _conv_node(x, w, b, out)


def conv2d_relu(x, w, b=None) -> Tensor:
    """relu(conv2d(x, w, b)) as one node: the relu runs in place on the conv
    output, which is all the node keeps.  Its gradient mask out > 0 is the
    relu's input > 0 (false at -0.0 and NaN alike)."""
    x, w, b = _conv_operands(x, w, b)
    out = _conv2d_raw(x.data, w.data, None if b is None else b.data)
    np.maximum(out, 0.0, out=out)
    return _conv_node(x, w, b, out, relu=True)


def conv2d_heads(x, heads) -> list:
    """[conv2d(x, w, b) for w, b in heads] from one window matrix of x.

    The heads share a kernel size.  Each output is the node conv2d records,
    so its value and its gradients are conv2d's."""
    x = _wrap(x)
    ops = [_conv_operands(x, w, b) for w, b in heads]
    if len({w.data.shape[2:] for _, w, _ in ops}) != 1:
        raise ValueError("conv2d_heads: heads must share a kernel size")
    outs = _conv2d_heads_raw(x.data, [(w.data, None if b is None else b.data)
                                      for _, w, b in ops])
    return [_conv_node(x, w, b, out) for (_, w, b), out in zip(ops, outs)]


def _padded(a, ph, pw):
    """One image's planes a (C,H,W), zero-padded by ph rows above, ph + 1
    below and pw columns each side, flattened per channel at row pitch
    W + 2*pw: the sample that kernel tap (ky, kx) meets from output (i, j)
    is at flat index (i*pitch + j) + (ky*pitch + kx)."""
    c, h, w = a.shape
    out = np.zeros((c, h + 2 * ph + 1, w + 2 * pw))
    out[:, ph:ph + h, pw:pw + w] = a
    return out.reshape(c, -1)


def _taps(a, kh, kw, pitch, m):
    """The (kh*kw*C, m) copy of a `_padded` plane's kh*kw shifted views:
    row (ky*kw + kx)*C + c is a[c, ky*pitch + kx :][:m]."""
    c, length = a.shape
    s = a.itemsize
    view = np.ndarray((kh, kw, c, m), a.dtype, a,
                      strides=(pitch * s, s, length * s, s))
    return view.reshape(kh * kw * c, m)


def _conv2d_back(x, w, g, want_dx, want_dw):
    """(dx, dw) of `_conv2d_raw(x, w, b)` for the upstream gradient g, with
    None in place of a gradient that is not wanted."""
    o, c, kh, kw = w.shape
    n, _, h, wd = g.shape
    ph, pw = kh // 2, kw // 2
    pitch = wd + 2 * pw
    m = h * pitch
    centre = ph * pitch + pw
    # Tap (ky, kx) of the flipped kernel meets g at offset ky*pitch + kx
    # from the dx position it feeds.
    wf = w[:, :, ::-1, ::-1]
    stack_g = o <= c
    if stack_g:
        wmat = wf.transpose(1, 2, 3, 0).reshape(c, kh * kw * o)
        dw = np.zeros((kh * kw * o, c)) if want_dw else None
    else:
        wmat = wf.transpose(2, 3, 1, 0).reshape(kh * kw * c, o)
        dw = np.zeros((o, kh * kw * c)) if want_dw else None
    dx = np.empty((n, c, h, wd)) if want_dx else None

    def image(i):
        """Image i's part of dw (None if not wanted); writes its dx."""
        part = None
        gp = _padded(g[i], ph, pw)
        if stack_g:
            # dw, flipped, is taps(g)·x, where x's zero columns cancel the
            # positions that straddle two rows, and dx = W·taps(g).
            tg = _taps(gp, kh, kw, pitch, m)
            if want_dw:
                part = np.dot(tg, _padded(x[i], ph, pw)[:, centre:centre + m].T)
            if want_dx:
                dxi = np.dot(wmat, tg)
        else:
            # dw is g·taps(x), where g's zero columns cancel the straddling
            # positions, and dx sums the kh*kw shifted slices of W·g.
            if want_dw:
                tx = _taps(_padded(x[i], ph, pw), kh, kw, pitch, m)
                part = np.dot(gp[:, centre:centre + m], tx.T)
            if want_dx:
                wg = np.dot(wmat, gp).reshape(kh * kw, c, -1)
                dxi = wg[0, :, :m].copy()
                for t in range(1, kh * kw):
                    off = (t // kw) * pitch + t % kw
                    dxi += wg[t, :, off:off + m]
        if want_dx:
            dx[i] = dxi.reshape(c, h, pitch)[:, :, :wd]
        return part

    parts = _run_all(image, n)
    if want_dw:
        for part in parts:
            dw += part
        if stack_g:
            dw = dw.reshape(kh, kw, o, c)[::-1, ::-1].transpose(2, 3, 0, 1)
        else:
            dw = dw.reshape(o, kh, kw, c).transpose(0, 3, 1, 2)
        dw = np.ascontiguousarray(dw)
    return dx, dw


# ---------------------------------------------------------------------------
# Named weight store and on-disk format
# ---------------------------------------------------------------------------

WEIGHTS_MAGIC = b"IWTW"
WEIGHTS_VERSION = 1


def _frozen(values) -> np.ndarray:
    """A read-only float64 copy of `values`."""
    arr = np.array(values, dtype=np.float64)
    arr.flags.writeable = False
    return arr


class ModelWeights:
    """Ordered store of named float64 tensors.

    Each entry is a read-only copy made by `add` or `set`, so a value changes
    only through them: `weights[name]` and `items()` hand out the stored
    arrays, which raise on a write, and `get` a writable copy.  `prepared`
    holds what `models.prepare` derived from these values (None until then);
    `add` and `set` drop it.
    """

    def __init__(self):
        self._entries: dict[str, np.ndarray] = {}
        self.prepared = None

    def add(self, name: str, values) -> None:
        if name in self._entries:
            raise ValueError(f"duplicate name {name!r}")
        self._entries[name] = _frozen(values)
        self.prepared = None

    def __getitem__(self, name: str) -> np.ndarray:
        return self._entries[name]

    def get(self, name: str) -> np.ndarray:
        return self._entries[name].copy()

    def set(self, name: str, values) -> None:
        if name not in self._entries:
            raise KeyError(name)
        arr = _frozen(values)
        if arr.shape != self._entries[name].shape:
            raise ValueError(f"shape mismatch for {name!r}")
        self._entries[name] = arr
        self.prepared = None

    def __contains__(self, name):
        return name in self._entries

    def __len__(self):
        return len(self._entries)

    def names(self):
        return list(self._entries)

    def items(self):
        return self._entries.items()

    def copy(self) -> "ModelWeights":
        """An independent store of the same values (the read-only arrays are
        shared), with nothing prepared."""
        dup = ModelWeights()
        dup._entries = dict(self._entries)
        return dup


def save_weights(weights: ModelWeights) -> bytes:
    out = bytearray()
    out += WEIGHTS_MAGIC
    out += struct.pack("<B", WEIGHTS_VERSION)
    out += struct.pack("<I", len(weights))
    for name, values in weights.items():
        encoded = name.encode("utf-8")
        out += struct.pack("<H", len(encoded))
        out += encoded
        out += struct.pack("<B", values.ndim)
        for dim in values.shape:
            out += struct.pack("<I", dim)
        out += values.astype("<f4").tobytes()
    return bytes(out)


def load_weights(data: bytes) -> ModelWeights:
    if data[:4] != WEIGHTS_MAGIC:
        raise ValueError("bad magic in weights file")
    if len(data) < 9:
        raise ValueError("truncated weights header")
    version, count = struct.unpack_from("<BI", data, 4)
    if version != WEIGHTS_VERSION:
        raise ValueError(f"unsupported weights version {version}")
    pos = 9
    weights = ModelWeights()
    for _ in range(count):
        if pos + 2 > len(data):
            raise ValueError("truncated tensor header")
        (name_len,) = struct.unpack_from("<H", data, pos)
        pos += 2
        name = data[pos : pos + name_len].decode("utf-8")
        pos += name_len
        if pos + 1 > len(data):
            raise ValueError("truncated tensor header")
        (rank,) = struct.unpack_from("<B", data, pos)
        pos += 1
        if pos + 4 * rank > len(data):
            raise ValueError("truncated tensor dims")
        dims = struct.unpack_from(f"<{rank}I", data, pos) if rank else ()
        pos += 4 * rank
        n = int(np.prod(dims)) if rank else 1
        payload = data[pos : pos + 4 * n]
        if len(payload) < 4 * n:
            raise ValueError(f"truncated tensor payload for {name!r}")
        pos += 4 * n
        values = np.frombuffer(payload, dtype="<f4").astype(np.float64).reshape(dims)
        if not np.isfinite(values).all():
            raise ValueError(f"non-finite value in tensor {name!r}")
        weights.add(name, values)
    return weights


# ---------------------------------------------------------------------------
# Predict/update networks for the lifting transform
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PUNet:
    """3-layer conv net computing a lifting prediction or update.

    additive: 1 -> 16 -> 16 -> 1, linear final layer, output is the shift.
    affine:   shared 1 -> 16 -> 16 trunk with two 16 -> 1 heads; the raw
              scale head is exponentiated so the scale is strictly positive.
    """

    kind: str
    prefix: str

    def weight_shapes(self):
        c = PU_CHANNELS
        shapes = {
            f"{self.prefix}.c1.w": (c, 1, 3, 3),
            f"{self.prefix}.c1.b": (c,),
            f"{self.prefix}.c2.w": (c, c, 3, 3),
            f"{self.prefix}.c2.b": (c,),
        }
        if self.kind == "additive":
            shapes[f"{self.prefix}.c3.w"] = (1, c, 3, 3)
            shapes[f"{self.prefix}.c3.b"] = (1,)
        elif self.kind == "affine":
            shapes[f"{self.prefix}.hs.w"] = (1, c, 3, 3)
            shapes[f"{self.prefix}.hs.b"] = (1,)
            shapes[f"{self.prefix}.hr.w"] = (1, c, 3, 3)
            shapes[f"{self.prefix}.hr.b"] = (1,)
        else:
            raise ValueError(f"unknown lifting kind {self.kind!r}")
        return shapes


def pu_forward(net: PUNet, params, x):
    """Run a P/U net on a 1-channel plane; returns (shift, scale or None)."""
    p = net.prefix
    try:
        t = conv2d_relu(x, params[f"{p}.c1.w"], params[f"{p}.c1.b"])
        t = conv2d_relu(t, params[f"{p}.c2.w"], params[f"{p}.c2.b"])
        if net.kind == "additive":
            return conv2d(t, params[f"{p}.c3.w"], params[f"{p}.c3.b"]), None
        shift, raw = conv2d_heads(t, [(params[f"{p}.{head}.w"], params[f"{p}.{head}.b"])
                                      for head in ("hs", "hr")])
        return shift, exp(clamp(raw, -RAW_SCALE_LIMIT, RAW_SCALE_LIMIT))
    except KeyError as missing:
        raise ValueError(f"kind/weight mismatch: missing {missing}") from None


def constant_params(weights: ModelWeights) -> dict:
    """Weight tensors detached from any recording (plain inference)."""
    return {name: Tensor(values) for name, values in weights.items()}
