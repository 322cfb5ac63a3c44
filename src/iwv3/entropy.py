"""Autoregressive entropy coding of quantized subbands.

Subbands are coded coarsest-first (LL_L, then HL/LH/HH per level walking
down).  A two-branch context net turns the causal part of the current
subband (S_t, masked convolutions) and a stack of previously coded grids
(L_t) into per-coefficient Gaussian-mixture parameters; the mixture mass on
[v-1/2, v+1/2] drives a byte-wise range coder.  Inside a subband the
coefficients go in wavefront order: anti-diagonals x + 2i = t for
t = 0, 1, ..., rows increasing along each one.  The masked taps of (i, x)
reach only (i, x-1) and (i-1, x-1..x+1), all on earlier wavefronts, so one
wavefront is one batch of the context net.  The Y, Co and Cg subbands of
one (level, kind) share shape, qstep, value range and context weights, so
one batch holds the wavefront of all three channels, laid out (row,
channel); each channel keeps its own long-term context and range coder.
The decoder regenerates contexts from its own output, so both sides run the
identical per-wavefront context-net arithmetic and stay symbol-exact.  A
context net whose head's last weights are zero (the built-in lossless
model) is a static prior: its subbands are coded against one table, and the
net never runs.
"""

from __future__ import annotations

import hashlib
import math
import struct
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cache
from itertools import chain

import numpy as np
from scipy.special import ndtr as np_ndtr

from . import gradtape as gt
from . import models
from .gradtape import ModelWeights, Tensor, save_weights
from .imageio import padded_size
from .lifting import SUBBAND_KINDS, SubbandPyramid, inverse2d_level
from .quant import dequantize
from .rangecoder import TOTAL, RangeDecoder, RangeEncoder, RangeError, SymbolTable

GMM_K = 3
CTX_CHANNELS = 32
LT_WIDTH = 3
SIGMA_FLOOR = 1e-6
# Dequantized coefficients reach the low thousands in the deepest LL band;
# context-net inputs are scaled down so activations stay O(1).
CTX_INPUT_SCALE = 1.0 / 256.0
MAGIC = b"IWV3"
STREAM_VERSION = 2
# Largest padded plane (width x height, each rounded up to a multiple of
# 2^levels) a stream may declare; checked before anything is allocated.
MAX_PIXELS = 1 << 24
# Widest coefficient range a subband may span: `quantized_cdf` reserves one
# of the range coder's TOTAL counts per symbol and keeps at least as many
# for the model's share.
MAX_ALPHABET = TOTAL // 2
# The decoder splits an alphabet of A symbols into this many brackets or
# isqrt(A), whichever is more, but never more than A.
SEARCH_FANOUT = 64
MODE_CODES = {"lossless": 0, "additive": 1, "affine": 2}
MODE_NAMES = {v: k for k, v in MODE_CODES.items()}


class StreamError(ValueError):
    """Corrupt bitstream (bad header, bad payload framing, underrun)."""


class WeightChecksumError(ValueError):
    """Decoder weights do not match the checksum in the stream header."""


def coding_order(levels: int):
    """Subband visit order: LL_L, then HL_j, LH_j, HH_j for j = L..1."""
    if levels < 1:
        raise ValueError("levels must be >= 1")
    order = [(levels, "LL")]
    for level in range(levels, 0, -1):
        order += [(level, "HL"), (level, "LH"), (level, "HH")]
    return tuple(order)


def weights_checksum(weights: ModelWeights) -> int:
    digest = hashlib.blake2b(save_weights(weights), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def ctx_prefix(kind: str) -> str:
    return "ctx." + kind.lower()


def mask_a() -> np.ndarray:
    """3x3 causal mask: the row above and the left tap, no center."""
    m = np.zeros((3, 3))
    m[0, :] = 1.0
    m[1, 0] = 1.0
    return m


def mask_b() -> np.ndarray:
    """3x3 causal mask including the center tap."""
    m = mask_a()
    m[1, 1] = 1.0
    return m


# ---------------------------------------------------------------------------
# Context model
# ---------------------------------------------------------------------------

def context_forward(params, s_t, l_t, kind: str):
    """Full-grid context net: (N,1,H,W) S_t and (N,3,H,W) L_t -> (N,3K,H,W).

    The S_t branch uses masked convolutions (mask A then mask B) so the output
    at a position depends only on strictly earlier scan positions of S_t;
    L_t is fully visible.
    """
    p = ctx_prefix(kind)
    if l_t.data.shape[1] != LT_WIDTH:
        raise ValueError(f"L_t must have {LT_WIDTH} channels")
    s_t = gt.scale(s_t, CTX_INPUT_SCALE)
    l_t = gt.scale(l_t, CTX_INPUT_SCALE)
    w1 = params[f"{p}.s1.w"]
    ma = Tensor(np.broadcast_to(mask_a(), w1.data.shape).copy())
    s = gt.conv2d_relu(s_t, gt.mul(w1, ma), params[f"{p}.s1.b"])
    w2 = params[f"{p}.s2.w"]
    mb = Tensor(np.broadcast_to(mask_b(), w2.data.shape).copy())
    s = gt.conv2d_relu(s, gt.mul(w2, mb), params[f"{p}.s2.b"])
    g = gt.conv2d_relu(l_t, params[f"{p}.l1.w"], params[f"{p}.l1.b"])
    g = gt.conv2d_relu(g, params[f"{p}.l2.w"], params[f"{p}.l2.b"])
    h = gt.concat_channels([s, g])
    h = gt.conv2d_relu(h, params[f"{p}.h1.w"], params[f"{p}.h1.b"])
    return gt.conv2d(h, params[f"{p}.h2.w"], params[f"{p}.h2.b"])


@dataclass
class GmmParams:
    """Per-position mixture parameters, each shaped (K, H, W)."""

    w: np.ndarray
    u: np.ndarray
    sigma: np.ndarray

    @classmethod
    def from_raw(cls, raw: np.ndarray) -> "GmmParams":
        """Map 3K raw channels to weights (softmax), means, stds (exp, floored):
        `_mixture` on a (positions, 3K) copy of raw."""
        positions = np.moveaxis(raw, 0, -1).copy()
        with np.errstate(over="ignore"):
            parts = _mixture(positions.reshape(-1, 3 * GMM_K))
        return cls(*(np.moveaxis(p, -1, 0).reshape((GMM_K,) + raw.shape[1:])
                     for p in parts))


def _mass(params: GmmParams, values, vmin: int, vmax: int) -> np.ndarray:
    """Mixture mass on [v-1/2, v+1/2] per position, tails absorbed at the
    range ends; `values` is one integer or a grid of the positions' shape."""
    lo = np.where(values == vmin, -np.inf, values - 0.5)
    hi = np.where(values == vmax, np.inf, values + 0.5)
    mass = np.zeros(params.u.shape[1:])
    for w, u, sigma in zip(params.w, params.u, params.sigma):
        mass += w * (np_ndtr((hi - u) / sigma) - np_ndtr((lo - u) / sigma))
    return mass


def gmm_prob(params: GmmParams, v: int, vmin: int, vmax: int):
    """Mixture mass on [v-1/2, v+1/2] with tails absorbed at the range ends."""
    if not (vmin <= v <= vmax):
        raise ValueError(f"value {v} outside signaled range [{vmin}, {vmax}]")
    return _mass(params, v, vmin, vmax)


def gmm_bits(raw: np.ndarray, values: np.ndarray, vmin: int, vmax: int) -> float:
    """Model cross-entropy (bits) of an integer grid under raw GMM outputs."""
    mass = _mass(GmmParams.from_raw(raw), values, vmin, vmax)
    return float(-np.log2(np.maximum(mass, 1e-12)).sum())


# ---------------------------------------------------------------------------
# Long-term context assembly
# ---------------------------------------------------------------------------

class LongTermContext:
    """Tracks previously coded grids along the coding order.

    Same-level earlier subbands are used directly; when coding drops a level,
    the four grids of the finished level are inverse-transformed once to
    synthesize the co-resolution LL context.  Grids must be dequantized
    (what the decoder will actually hold).  That synthesis is the
    reconstruction's: after HH_1, `final_level` is the one level left.
    """

    def __init__(self, backend):
        self.backend = backend
        self._ll = None
        self._seen = {}

    def stack_for(self, kind: str, shape):
        """The target subband's three context grids, its level's LL, HL and
        LH, each zeros of `shape` where it is not coded before the target."""
        if kind not in SUBBAND_KINDS:
            raise ValueError(f"unknown subband kind {kind!r}")
        coded = SUBBAND_KINDS.index(kind)
        grids = [self._ll, self._seen.get("HL"), self._seen.get("LH")][:coded]
        return grids + [np.zeros(shape)] * (LT_WIDTH - coded)

    def advance(self, level: int, kind: str, deq_grid) -> None:
        if kind == "LL":
            self._ll = deq_grid
            return
        self._seen[kind] = deq_grid
        if kind == "HH" and level > 1:
            self._ll = inverse2d_level(
                self.backend, self._ll, self._seen["HL"], self._seen["LH"], deq_grid
            )
            self._seen = {}

    def final_level(self) -> SubbandPyramid:
        """LL_1 and the level-1 details: a one-level pyramid to invert."""
        seen = self._seen
        return SubbandPyramid(1, self._ll, [(seen["HL"], seen["LH"], seen["HH"])])


# ---------------------------------------------------------------------------
# Quantized CDF: 16-bit cumulative table with one guaranteed tick per symbol
# ---------------------------------------------------------------------------

def quantized_cdf(w, u, sigma, k, vmin: int, alphabet: int) -> np.ndarray:
    """Cumulative frequencies Q(k) of the symbols below boundary index k.

    `w`, `u` and `sigma` are (n, K) mixture parameters, K = 3; `k` is an
    (n, m) or (1, m) integer array of boundary indices in [0, alphabet].
    Returns (n, m) values: Q(0) = 0,
    Q(alphabet) = TOTAL and, in between,
    Q(k) = floor(F(vmin - 1/2 + k) * (TOTAL - alphabet)) + k,
    so Q is strictly increasing and every symbol keeps at least one tick.
    Every entry comes from elementwise operations, the K mixture terms summed
    in a fixed order, so it has the same bits in whatever batch it is
    evaluated: the encoder's two boundaries per symbol agree exactly with the
    decoder's search tables.
    """
    x = (k + (vmin - 0.5))[:, None, :]
    t = np_ndtr((x - u[:, :, None]) / sigma[:, :, None]) * w[:, :, None]
    f = t[:, 0] + t[:, 1] + t[:, 2]
    q = (f * (TOTAL - alphabet)).astype(np.int64) + k  # f >= 0: truncation floors
    return np.where(k <= 0, 0, np.where(k >= alphabet, TOTAL, q))


# ---------------------------------------------------------------------------
# Wavefront subband codec (shared by encoder and decoder)
# ---------------------------------------------------------------------------

# Wavefront slots of the rolling buffers: wavefront t reads t-1, t-2 and
# t-3 and writes t, each in slot t mod _SLOTS.
_SLOTS = 4
# The causal 3x3 taps as (part, age, ky, kx): (i-1, x-1), (i-1, x),
# (i-1, x+1), (i, x-1) and the center lie on wavefronts t - age, in the
# buffer part for the row above (0) or the same row (1).
_TAPS = ((0, 3, 0, 0), (0, 2, 0, 1), (0, 1, 0, 2), (1, 1, 1, 0), (1, 0, 1, 1))
# Boundary offsets of a symbol's [Q(k), Q(k + 1)) interval.
_PAIR = np.array([0, 1])
# Rows the wavefront encoder collects before it codes them, so the memory
# they hold stays constant however large the subband.
_BATCH_ROWS = 1 << 13


def extract_context_arrays(weights: ModelWeights, kind: str) -> dict:
    """The context-net arrays SubbandCodec reads for one subband type.

    "s1.taps" and "s2.taps" hold the masked S_t layers in SubbandCodec's
    rolling-buffer order, one matrix per slot t mod _SLOTS: rows indexed by
    (part, wavefront slot, input channel), then the bias row.  The L_t and
    head layers are plain float64 arrays under their part names ("l1.w",
    ..., "h2.b").  "static" is True when the head's last weights h2.w are
    all zero: the head then outputs h2.b wherever the features it multiplies
    are finite, whatever the S_t and L_t branches feed it, and SubbandCodec
    codes the subband with one table, built from the mixture (w, u, sigma)
    of h2.b under "prior".
    """
    p = ctx_prefix(kind)
    cw = {}
    for part in ("l1", "l2", "h1", "h2"):
        cw[f"{part}.w"] = np.ascontiguousarray(weights[f"{p}.{part}.w"])
        cw[f"{part}.b"] = np.ascontiguousarray(weights[f"{p}.{part}.b"])
    w1 = weights[f"{p}.s1.w"] * mask_a()
    w2 = weights[f"{p}.s2.w"] * mask_b()
    c = CTX_CHANNELS
    taps1 = np.zeros((_SLOTS, 2, _SLOTS, c))
    taps2 = np.zeros((_SLOTS, 2, _SLOTS, c, c))
    for slot in range(_SLOTS):
        for part, age, ky, kx in _TAPS:
            tap = (slot, part, (slot - age) % _SLOTS)
            taps1[tap] = w1[:, 0, ky, kx]
            taps2[tap] = w2[:, :, ky, kx].T
    bias1 = np.broadcast_to(weights[f"{p}.s1.b"], (_SLOTS, 1, c))
    bias2 = np.broadcast_to(weights[f"{p}.s2.b"], (_SLOTS, 1, c))
    cw["s1.taps"] = np.concatenate([taps1.reshape(_SLOTS, -1, c), bias1], axis=1)
    cw["s2.taps"] = np.concatenate([taps2.reshape(_SLOTS, -1, c), bias2], axis=1)
    cw["static"] = not cw["h2.w"].any()
    if cw["static"]:
        with np.errstate(over="ignore"):
            cw["prior"] = _mixture(cw["h2.b"].astype(np.float64)[None])
    return cw


def _wavefronts(h: int, w: int):
    """(t, lo, hi, diag) for t = 0 ... w + 2h - 3: wavefront t holds rows
    lo..hi, at the flat (H*W) positions `diag`; diag is None when it holds
    none (odd wavefronts of a one-column subband)."""
    for t in range(w + 2 * h - 2):
        lo, hi = max(0, (t - w + 2) // 2), min(h - 1, t // 2)
        n = hi - lo + 1
        if n <= 0:
            yield t, lo, hi, None
            continue
        # positions (i, t - 2i) sit w - 2 apart in the flat grid; a
        # wavefront of two or more positions implies w >= 3
        start = t + lo * (w - 2)
        yield t, lo, hi, slice(start, start + (n - 1) * (w - 2) + 1, w - 2 if n > 1 else 1)


def _mixture(raw: np.ndarray):
    """(n, 3K) head outputs -> (n, K) mixture weights, means and stds.

    Overwrites raw's weight logits.  Every operation is elementwise or
    reduces one row, so a row gives the same bits in any batch.
    """
    rw = raw[:, :GMM_K]
    rw -= rw.max(axis=1, keepdims=True)
    ex = np.exp(raw)
    e = ex[:, :GMM_K]
    mw = e / e.sum(axis=1, keepdims=True)
    return mw, raw[:, GMM_K : 2 * GMM_K], np.maximum(ex[:, 2 * GMM_K :], SIGMA_FLOOR)


@cache
def _cost_table() -> np.ndarray:
    """Model bits log2(TOTAL / f) of every frequency f in [0, TOTAL], inf at 0."""
    log2_total = math.log2(TOTAL)
    costs = (log2_total - math.log2(f) if f else math.inf for f in range(TOTAL + 1))
    table = np.fromiter(costs, np.float64, TOTAL + 1)
    table.flags.writeable = False  # every caller shares it
    return table


def _costs(freqs: np.ndarray) -> np.ndarray:
    """Model bits log2(TOTAL / f) of each frequency f, per element.

    A non-finite mixture can leave a table out of order (on x86 the inner
    entries at INT64_MIN + k): a width that comes out zero, negative or above
    TOTAL costs inf, and encode_run refuses it before its cost is added."""
    return _cost_table()[np.where((freqs > 0) & (freqs <= TOTAL), freqs, 0)]


class SubbandCodec:
    """Range coding of a subband under the context net, by wavefronts.

    Coefficient (i, x) lies on wavefront t = x + 2i.  Its masked taps read
    s (the scaled decoded values) and f1 (the first S_t layer) at
    (i-1, x-1), (i-1, x), (i-1, x+1) and (i, x-1), on wavefronts t-3, t-2,
    t-1 and t-1, so each wavefront is one batch: one matrix product per
    layer for all of its positions.  Only those products (f1, f2 and the
    head's two) need the wavefront's batch shape to keep their bits; the
    steps after them are row-wise or elementwise and give the same bits in
    any batch.  So the encoder collects the head outputs and symbols of
    consecutive wavefronts, and once it holds _BATCH_ROWS rows (or the
    subband ends) runs the mixture, the two table entries per symbol, one
    range-coder run per channel and the model-bit sum over all of them.
    The decoder needs each wavefront's symbols before the next wavefront's
    products: one batched `quantized_cdf` gives every row's table of bracket
    boundaries, then each symbol's bracket gives its table.  Up to
    SEARCH_FANOUT symbols a bracket is one symbol, so the bracket tables are
    the whole tables and each channel's share of the wavefront is one
    range-coder run over them (`RangeDecoder.decode_tables`).  Streams,
    decoded values and model bits are those of coding every wavefront alone.

    A leading channel axis batches B subbands that share shape, qstep,
    (vmin, vmax) and weights but not values, L_t (B, 3, H, W) or range
    coder: the image codec runs Y, Co and Cg as B = 3, and the channels do
    not interact.

    s and f1 live in rolling buffers laid out (row, channel, ...).  Buffer
    row r holds, per channel and wavefront slot, the value of row r-1
    (part 0) and of row r (part 1) on that wavefront, zero where the
    position lies outside the subband, and a constant 1 that carries the
    layer bias.  A wavefront's rows are consecutive, so all its taps are the
    one basic slice buf[lo:hi+1], n * B rows ordered (row, channel); the
    slot rotation is folded into the tap weights, one matrix per t mod _SLOTS.

    The encoder and decoder both run `run` with the same per-wavefront
    shapes, so every float operation of the context net happens in the same
    order on both sides; that is what guarantees symbol-exact
    synchronization.

    Static prior: when the head's last weights h2.w are zero (cw["static"],
    as in the built-in lossless model and in fresh `init_weights`), the
    head's last product is zero and its output is h2.b at every position, so
    every position has the one mixture and the one CDF table.  The codec
    then builds that table once, skips the context net and the L_t branch
    (l_t may be None), and codes each channel's symbols in the same
    wavefront order as one range-coder run: the same symbols, bytes and
    model bits as the context net gives whenever its activations are finite.
    """

    def __init__(self, cw: dict, l_t: np.ndarray | None, qstep: float,
                 vmin: int, vmax: int, shape):
        self.h, self.w = shape
        self.qstep = float(qstep)
        self.vmin, self.vmax = int(vmin), int(vmax)
        self.alphabet = self.vmax - self.vmin + 1
        if self.alphabet > MAX_ALPHABET:
            raise StreamError(f"coefficient range too wide ({self.alphabet})")
        # model bits of the encoded symbols, per channel (set by run) and summed
        self.model_bits, self.channel_bits = 0.0, []
        self._static = cw["static"]
        if self._static:
            self._prior = cw["prior"]
            return  # no context net to set up
        # about sqrt(alphabet) brackets of about sqrt(alphabet) symbols: the
        # fewest entries the decoder's two tables evaluate per symbol
        self._brackets = min(self.alphabet, max(SEARCH_FANOUT, math.isqrt(self.alphabet)))
        self._bounds = np.arange(self._brackets + 1) * self.alphabet // self._brackets

        self._w1, self._w2 = cw["s1.taps"], cw["s2.taps"]
        c = CTX_CHANNELS
        h1 = cw["h1.w"][:, :, 0, 0]  # (C, 2C)
        self._h1_s = np.ascontiguousarray(h1[:, :c].T)
        # L_t branch and its 1x1 head slice are position-independent: fold
        # them into a per-position bias (H*W, B, C) for the fused head.  One
        # N = 1 conv pair per channel: N = B would multiply _conv2d_raw's 9x
        # window copy by B.
        self._head_bias = np.empty((self.h * self.w, len(l_t), c))
        for ch, lt in enumerate(l_t):
            g = gt.conv2d_relu(lt[None] * CTX_INPUT_SCALE, cw["l1.w"], cw["l1.b"])
            g = gt.conv2d_relu(g, cw["l2.w"], cw["l2.b"]).data[0]
            head_bias = (np.tensordot(h1[:, c:], g, axes=([1], [0]))
                         + cw["h1.b"][:, None, None])
            self._head_bias[:, ch] = np.moveaxis(head_bias, 0, -1).reshape(-1, c)
            del g, head_bias  # before the next channel's convs peak
        self._h2 = np.ascontiguousarray(cw["h2.w"][:, :, 0, 0].T)  # (C, 3K)
        self._b_h2 = cw["h2.b"]

    def run(self, rcs, values: np.ndarray | None = None) -> np.ndarray:
        """Encode (B, H, W) `values`, channel b through rcs[b], or decode them
        when values is None."""
        nch = len(rcs)
        self.channel_bits = [0.0] * nch
        if self.alphabet == 1:
            # Degenerate range: the decoder knows every value already.
            return (np.full((nch, self.h, self.w), self.vmin, dtype=np.int32)
                    if values is None else values)
        out = (self._run_static if self._static else self._run_wavefronts)(rcs, values)
        self.model_bits = sum(self.channel_bits)
        return np.ascontiguousarray(out)

    def _run_static(self, rcs, values: np.ndarray | None) -> np.ndarray:
        """Code (B, H, W) `values` in wavefront order against the one table of
        h2.b, one range-coder run per channel, or decode them when values is
        None; returns the values."""
        h, w, vmin, alphabet = self.h, self.w, self.vmin, self.alphabet
        cum = quantized_cdf(*self._prior, np.arange(alphabet + 1)[None], vmin, alphabet)[0]
        # flat positions by wavefront t = x + 2i; row-major order already runs
        # the rows of each wavefront ascending, and a stable sort keeps them so
        order = np.argsort((np.arange(w) + 2 * np.arange(h)[:, None]).ravel(), kind="stable")
        n, nch = h * w, len(rcs)
        if values is None:
            table = SymbolTable(cum)
            ks = np.fromiter(chain.from_iterable(rc.decode_run(table, n) for rc in rcs),
                             np.int32, nch * n)
            out = np.empty((nch, n), dtype=np.int32)
            out[:, order] = ks.reshape(nch, n) + vmin
            return out.reshape(nch, h, w)
        freq = np.diff(cum)
        ks = values.reshape(nch, n)[:, order] - vmin
        self._encode_symbols(rcs, cum[ks], freq[ks], _costs(freq)[ks])
        return values

    def _run_wavefronts(self, rcs, values: np.ndarray | None) -> np.ndarray:
        """Code (B, H, W) `values` wavefront by wavefront, one context-net
        batch each, or decode them when values is None; returns the values.

        The encoder codes the rows of consecutive wavefronts together, once
        at least _BATCH_ROWS of them are collected; the decoder needs each
        wavefront's symbols before it can compute the next one's rows."""
        encode, nch, h, w = values is not None, len(rcs), self.h, self.w
        # (H*W, B): a wavefront's values are one strided slice, (row, channel)
        flat = (np.moveaxis(values, 0, -1).reshape(-1, nch) if encode
                else np.zeros((h * w, nch), dtype=np.int32))
        c = CTX_CHANNELS
        s_buf = np.zeros((h + 1, nch, 2 * _SLOTS + 1))
        f_buf = np.zeros((h + 1, nch, 2 * _SLOTS * c + 1))
        s_buf[..., -1] = f_buf[..., -1] = 1.0
        s_parts = s_buf[..., :-1].reshape(h + 1, nch, 2, _SLOTS)
        f_parts = f_buf[..., :-1].reshape(h + 1, nch, 2, _SLOTS, c)
        written = [(0, 0)] * _SLOTS  # buffer rows each slot holds values in
        s_scale = self.qstep * CTX_INPUT_SCALE
        raws, syms, collected = [], [], 0  # the encoder's uncoded rows
        with np.errstate(over="ignore"):
            for t, lo, hi, diag in _wavefronts(h, w):
                slot = t % _SLOTS
                r0, r1 = written[slot]
                s_parts[r0:r1, :, :, slot] = 0.0
                f_parts[r0:r1, :, :, slot] = 0.0
                if diag is None:
                    continue
                n = hi - lo + 1
                rows = n * nch

                f1 = np.maximum(s_buf[lo:hi + 1].reshape(rows, -1) @ self._w1[slot],
                                0.0).reshape(n, nch, c)
                f_parts[lo:hi + 1, :, 1, slot] = f1
                f_parts[lo + 1:hi + 2, :, 0, slot] = f1
                f2 = np.maximum(f_buf[lo:hi + 1].reshape(rows, -1) @ self._w2[slot], 0.0)
                p1 = f2 @ self._h1_s
                p1 += self._head_bias[diag].reshape(rows, c)
                np.maximum(p1, 0.0, out=p1)
                raw = p1 @ self._h2
                raw += self._b_h2

                if encode:
                    v = flat[diag]
                    raws.append(raw)
                    syms.append(v.reshape(-1))
                    collected += rows
                    if collected >= _BATCH_ROWS:
                        self._encode_rows(rcs, raws, syms)
                        raws, syms, collected = [], [], 0
                else:
                    ks = self._decode_rows(rcs, raw)
                    v = flat[diag] = np.array(ks).reshape(n, nch) + self.vmin

                s = v * s_scale
                s_parts[lo:hi + 1, :, 1, slot] = s
                s_parts[lo + 1:hi + 2, :, 0, slot] = s
                written[slot] = (lo, hi + 2)
            if raws:
                self._encode_rows(rcs, raws, syms)
        return values if encode else np.moveaxis(flat.reshape(h, w, nch), -1, 0)

    def _encode_rows(self, rcs, raws, values) -> None:
        """Encode rows of consecutive wavefronts, in coding order: `raws` are
        their (rows, 3K) head outputs, `values` their symbols.

        Every step is row-wise or elementwise, so each row gets the bits it
        gets in its wavefront alone, and each channel's model bits add the
        same per-symbol costs in the same order."""
        mw, u, sigma = _mixture(np.concatenate(raws))
        ks = np.concatenate(values) - self.vmin
        q = quantized_cdf(mw, u, sigma, ks[:, None] + _PAIR, self.vmin, self.alphabet)
        freqs = q[:, 1] - q[:, 0]
        # channel b's symbols are rows b, b + B, ... of every wavefront
        nch = len(rcs)
        self._encode_symbols(rcs, q[:, 0].reshape(-1, nch).T, freqs.reshape(-1, nch).T,
                             _costs(freqs).reshape(-1, nch).T)

    def _encode_symbols(self, rcs, cums, freqs, cost) -> None:
        """Encode (B, symbols) intervals [cums, cums + freqs) in coding order,
        row b through rcs[b], and add their costs to the channels' model
        bits."""
        for rc, c, f in zip(rcs, cums, freqs):
            rc.encode_run(c, f)
        # cumsum adds along each row in coding order, from the running total
        self.channel_bits = np.cumsum(np.column_stack((self.channel_bits, cost)),
                                      axis=1)[:, -1].tolist()

    def _decode_rows(self, rcs, raw) -> list:
        """Symbol indices (values - vmin) of one wavefront's rows under their
        (rows, 3K) head outputs.

        Channel b's symbols are rows b, b + B, ...; its coder takes them all
        before the next channel's coder starts.  One batched `quantized_cdf`
        evaluates every row at the evenly spaced boundaries of the brackets.
        When each bracket is one symbol, those are the rows' whole tables and
        a channel is one range-coder run.  Otherwise the bisection of a row's
        boundaries finds a symbol's bracket, then that bracket's whole table
        its symbol."""
        nch, vmin, alphabet = len(rcs), self.vmin, self.alphabet
        brackets, bounds = self._brackets, self._bounds
        mw, u, sigma = _mixture(raw)
        rows = len(raw)
        ks = [0] * rows
        coarse = quantized_cdf(mw, u, sigma, bounds[None], vmin, alphabet).tolist()
        if brackets == alphabet:
            for ch, rc in enumerate(rcs):
                ks[ch::nch] = rc.decode_tables(coarse[ch::nch])
            return ks
        for ch, rc in enumerate(rcs):
            for j in range(ch, rows, nch):
                # the last bracket, then the last symbol, whose lower boundary
                # is <= target; as in RangeDecoder, the ends are not searched
                target = rc.decode_target()
                m = bisect_right(coarse[j], target, 1, brackets)
                klo, khi = bounds[m - 1 : m + 1].tolist()
                table = coarse[j][m - 1 : m + 1]  # a one-symbol bracket's table
                if khi - klo > 1:
                    table = quantized_cdf(mw[j : j + 1], u[j : j + 1], sigma[j : j + 1],
                                          np.arange(klo, khi + 1)[None], vmin,
                                          alphabet)[0].tolist()
                i = bisect_right(table, target, 1, len(table) - 1) - 1
                rc.consume(table[i], table[i + 1] - table[i])
                ks[j] = klo + i
        return ks


def encode_subband(values, cw, l_t, qstep, vmin, vmax) -> tuple[bytes, float]:
    """Standalone range-coded payload for a single subband, and its model bits."""
    rc = RangeEncoder()
    codec = SubbandCodec(cw, np.asarray(l_t)[None], qstep, vmin, vmax, values.shape)
    codec.run([rc], np.asarray(values)[None])
    return rc.finish(), codec.model_bits


def decode_subband(payload, cw, l_t, qstep, vmin, vmax, shape) -> np.ndarray:
    codec = SubbandCodec(cw, np.asarray(l_t)[None], qstep, vmin, vmax, shape)
    return codec.run([RangeDecoder(payload)])[0]


# ---------------------------------------------------------------------------
# Bitstream container
# ---------------------------------------------------------------------------

def padded_geometry(levels: int, width: int, height: int):
    """(height, width) of every plane once padded to multiples of 2^levels.

    A padded plane of more than MAX_PIXELS is refused with ValueError, so
    the level count is bounded too: each padded side is at least 2^levels.
    """
    ph, pw = padded_size(height, levels), padded_size(width, levels)
    if ph * pw > MAX_PIXELS:
        raise ValueError(f"{width}x{height} at {levels} levels pads to {pw}x{ph}, "
                         f"over the {MAX_PIXELS}-pixel cap")
    return ph, pw


_HEADER = struct.Struct("<4sBBBIIQ")
_SUBBAND = struct.Struct("<fii")
_PAYLEN = struct.Struct("<I")


@dataclass
class Bitstream:
    """Parsed stream: header fields plus one coded payload per channel."""

    mode: str
    levels: int
    true_width: int
    true_height: int
    weight_checksum: int
    subband_info: list  # (qstep, vmin, vmax) per coding-order subband
    payloads: list  # 3 byte strings
    stats: dict = field(default=None, repr=False, compare=False)

    def pack(self) -> bytes:
        out = bytearray()
        out += _HEADER.pack(
            MAGIC,
            STREAM_VERSION,
            MODE_CODES[self.mode],
            self.levels,
            self.true_width,
            self.true_height,
            self.weight_checksum,
        )
        for qstep, vmin, vmax in self.subband_info:
            out += _SUBBAND.pack(qstep, vmin, vmax)
        for payload in self.payloads:
            out += _PAYLEN.pack(len(payload))
            out += payload
        return bytes(out)

    @classmethod
    def unpack(cls, data: bytes) -> "Bitstream":
        if len(data) < _HEADER.size:
            raise StreamError("truncated header")
        magic, version, mode_code, levels, tw, th, checksum = _HEADER.unpack_from(data)
        if magic != MAGIC:
            raise StreamError(f"bad magic {magic!r}")
        if version != STREAM_VERSION:
            raise StreamError(f"unsupported stream version {version}")
        if mode_code not in MODE_NAMES:
            raise StreamError(f"unknown mode code {mode_code}")
        if levels < 1 or tw < 1 or th < 1:
            raise StreamError("corrupt geometry")
        try:
            padded_geometry(levels, tw, th)
        except ValueError as err:
            raise StreamError(str(err)) from err
        pos = _HEADER.size
        n_subbands = 3 * levels + 1
        info = []
        for _ in range(n_subbands):
            if pos + _SUBBAND.size > len(data):
                raise StreamError(f"truncated subband table at byte {pos}")
            qstep, vmin, vmax = _SUBBAND.unpack_from(data, pos)
            if not (0 < qstep < math.inf) or vmin > vmax:
                raise StreamError("corrupt subband table entry")
            if mode_code == MODE_CODES["lossless"] and qstep != 1.0:
                raise StreamError(f"lossless stream with quantization step {qstep}")
            info.append((qstep, vmin, vmax))
            pos += _SUBBAND.size
        payloads = []
        for _ in range(3):
            if pos + _PAYLEN.size > len(data):
                raise StreamError(f"truncated payload length at byte {pos}")
            (n,) = _PAYLEN.unpack_from(data, pos)
            pos += _PAYLEN.size
            if pos + n > len(data):
                raise StreamError(f"truncated payload at byte {pos}")
            payloads.append(bytes(data[pos : pos + n]))
            pos += n
        if pos != len(data):
            raise StreamError(f"{len(data) - pos} trailing bytes after the last payload")
        return cls(MODE_NAMES[mode_code], levels, tw, th, checksum, info, payloads)


# ---------------------------------------------------------------------------
# Whole-image encode / decode
# ---------------------------------------------------------------------------

def code_channel(rcs, bs: Bitstream, ctx_arrays, backend, pyramids=None):
    """Code the channels' subbands in coding order, one range coder each.

    Encodes `pyramids` (one per coder, channel b through rcs[b]) through
    RangeEncoders, or decodes them from RangeDecoders when `pyramids` is
    None.  Each subband of all channels is one SubbandCodec pass: the
    channels share the shape and (qstep, vmin, vmax), from the header fields
    of `bs`, and each feeds its long-term context the same dequantized grids
    on both sides.  Returns, per channel, the coded pyramid, the encoder's
    model bits of each subband and the context's final level.  An encoder
    under an all-static model keeps no contexts, since nothing reads them,
    and returns None for the final levels; a decoder's contexts are its
    reconstruction.
    """
    levels = bs.levels
    ph, pw = padded_geometry(levels, bs.true_width, bs.true_height)
    ltcs = None
    if pyramids is None or not all(cw["static"] for cw in ctx_arrays.values()):
        ltcs = [LongTermContext(backend) for _ in rcs]
    out = [SubbandPyramid(levels, None, [(None, None, None)] * levels) for _ in rcs]
    bits = [[] for _ in rcs]
    for (level, kind), (qstep, vmin, vmax) in zip(coding_order(levels), bs.subband_info):
        shape = (ph >> level, pw >> level)
        values = None
        if pyramids is not None:
            values = np.stack([np.asarray(p.get(level, kind), dtype=np.int32)
                               for p in pyramids])
            if values.shape[1:] != shape:
                raise ValueError(f"subband {kind}{level} is {values.shape[1:]}, "
                                 f"the header geometry gives {shape}")
        cw, l_t = ctx_arrays[kind], None
        if not cw["static"]:  # a static head never reads L_t
            l_t = np.array([ltc.stack_for(kind, shape) for ltc in ltcs], dtype=np.float64)
        codec = SubbandCodec(cw, l_t, qstep, vmin, vmax, shape)
        try:
            values = codec.run(rcs, values)
        except RangeError as err:
            raise RangeError(f"{err} in subband {kind}{level}") from err
        for ch in range(len(rcs)):
            out[ch].set(level, kind, values[ch])
            bits[ch].append(codec.channel_bits[ch])
            if ltcs is not None:
                ltcs[ch].advance(level, kind, dequantize(values[ch], qstep))
        del codec  # its head bias must not overlap the next subband's L_t convs
    return out, bits, None if ltcs is None else [ltc.final_level() for ltc in ltcs]


def encode_image(qpyramids, quantgrid, weights: ModelWeights, mode: str,
                 true_size) -> Bitstream:
    """Entropy-code three quantized channel pyramids into a bitstream."""
    if len(qpyramids) != 3:
        raise ValueError("expected three channel pyramids")
    if not quantgrid.channel_uniform():
        raise ValueError("bitstream requires channel-uniform qsteps")
    levels = qpyramids[0].levels
    order = coding_order(levels)
    model = models.prepare(weights)

    info = []
    for level, kind in order:
        qstep = quantgrid.qstep(0, level, kind)
        if mode == "lossless" and qstep != 1.0:
            raise ValueError("lossless mode forces qstep = 1")
        vmin = min(int(p.get(level, kind).min()) for p in qpyramids)
        vmax = max(int(p.get(level, kind).max()) for p in qpyramids)
        if vmax - vmin + 1 > MAX_ALPHABET:
            raise ValueError(
                f"the model cannot code this image: subband {kind} of level {level} "
                f"spans {vmax - vmin + 1} coefficient values (at most {MAX_ALPHABET})")
        info.append((float(np.float32(qstep)), vmin, vmax))
    tw, th = true_size
    bs = Bitstream(mode, levels, tw, th, model.checksum, info, [])
    rcs = [RangeEncoder() for _ in qpyramids]
    _, bits, _ = code_channel(rcs, bs, model.context_arrays, model.backend(mode),
                              qpyramids)
    bs.payloads = [rc.finish() for rc in rcs]
    bs.stats = {"subband_bits": [b for ch_bits in bits for b in ch_bits]}
    return bs


def decode_image(data, weights: ModelWeights):
    """Decode a packed stream (or Bitstream) back to quantized pyramids."""
    return decode_stream(data, weights)[:2]


def decode_stream(data, weights: ModelWeights):
    """(Bitstream, quantized pyramids, final levels) of a packed stream."""
    bs = data if isinstance(data, Bitstream) else Bitstream.unpack(data)
    model = models.prepare(weights)
    if bs.weight_checksum != model.checksum:
        raise WeightChecksumError(
            f"stream was written with different weights "
            f"(checksum {bs.weight_checksum:#018x})")
    model.validate(bs.mode, bs.levels)  # the mode's nets and trained levels
    backend = model.backend(bs.mode)
    try:
        rcs = [RangeDecoder(p, f"channel {ch} payload") for ch, p in enumerate(bs.payloads)]
        pyramids, _, finals = code_channel(rcs, bs, model.context_arrays, backend)
    except RangeError as err:
        raise StreamError(str(err)) from err
    return bs, pyramids, finals
