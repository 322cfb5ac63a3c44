"""Autoregressive entropy coding of quantized subbands.

Subbands are coded coarsest-first (LL_L, then HL/LH/HH per level walking
down), raster order inside each subband.  A two-branch context net turns the
causal part of the current subband (S_t, masked convolutions) and a stack of
previously coded grids (L_t) into per-coefficient Gaussian-mixture
parameters; the mixture mass on [v-1/2, v+1/2] drives a byte-wise range
coder.  The decoder regenerates contexts from its own output, so both sides
run the identical incremental arithmetic and stay symbol-exact.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr as np_ndtr

from . import gradtape as gt
from .gradtape import ModelWeights, Tensor, save_weights
from .imageio import padded_size
from .lifting import SUBBAND_KINDS, SubbandPyramid, inverse2d_level, make_backend
from .quant import dequantize
from .rangecoder import TOTAL, RangeDecoder, RangeEncoder, RangeError

GMM_K = 3
CTX_CHANNELS = 32
LT_WIDTH = 3
SIGMA_FLOOR = 1e-6
# Dequantized coefficients reach the low thousands in the deepest LL band;
# context-net inputs are scaled down so activations stay O(1).
CTX_INPUT_SCALE = 1.0 / 256.0
MAGIC = b"IWV3"
STREAM_VERSION = 1
MODE_CODES = {"lossless": 0, "additive": 1, "affine": 2}
MODE_NAMES = {v: k for k, v in MODE_CODES.items()}

_SQRT1_2 = math.sqrt(0.5)


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
    """3x3 raster-causal mask excluding the center tap."""
    m = np.zeros((3, 3))
    m[0, :] = 1.0
    m[1, 0] = 1.0
    return m


def mask_b() -> np.ndarray:
    """3x3 raster-causal mask including the center tap."""
    m = mask_a()
    m[1, 1] = 1.0
    return m


# ---------------------------------------------------------------------------
# Context model
# ---------------------------------------------------------------------------

def context_forward(params, s_t, l_t, kind: str = "HL"):
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
    s = gt.relu(gt.conv2d(s_t, gt.mul(w1, ma), params[f"{p}.s1.b"]))
    w2 = params[f"{p}.s2.w"]
    mb = Tensor(np.broadcast_to(mask_b(), w2.data.shape).copy())
    s = gt.relu(gt.conv2d(s, gt.mul(w2, mb), params[f"{p}.s2.b"]))
    g = gt.relu(gt.conv2d(l_t, params[f"{p}.l1.w"], params[f"{p}.l1.b"]))
    g = gt.relu(gt.conv2d(g, params[f"{p}.l2.w"], params[f"{p}.l2.b"]))
    h = gt.concat_channels([s, g])
    h = gt.relu(gt.conv2d(h, params[f"{p}.h1.w"], params[f"{p}.h1.b"]))
    return gt.conv2d(h, params[f"{p}.h2.w"], params[f"{p}.h2.b"])


@dataclass
class GmmParams:
    """Per-position mixture parameters, each shaped (K, H, W)."""

    w: np.ndarray
    u: np.ndarray
    sigma: np.ndarray

    @classmethod
    def from_raw(cls, raw: np.ndarray) -> "GmmParams":
        """Map 3K raw channels to weights (softmax), means, stds (exp, floored)."""
        rw, ru, rs = raw[:GMM_K], raw[GMM_K : 2 * GMM_K], raw[2 * GMM_K :]
        m = rw.max(axis=0, keepdims=True)
        e = np.exp(rw - m)
        with np.errstate(over="ignore"):
            sigma = np.maximum(np.exp(rs), SIGMA_FLOOR)
        return cls(e / e.sum(axis=0, keepdims=True), ru.copy(), sigma)


def gmm_prob(params: GmmParams, v: int, vmin: int, vmax: int):
    """Mixture mass on [v-1/2, v+1/2] with tails absorbed at the range ends."""
    if not (vmin <= v <= vmax):
        raise ValueError(f"value {v} outside signaled range [{vmin}, {vmax}]")
    lo = np.zeros(params.u.shape[1:]) if v == vmin else _mix_cdf(params, v - 0.5)
    hi = np.ones(params.u.shape[1:]) if v == vmax else _mix_cdf(params, v + 0.5)
    return hi - lo


def _mix_cdf(params: GmmParams, x: float) -> np.ndarray:
    z = (x - params.u) / params.sigma
    return (params.w * np_ndtr(z)).sum(axis=0)


def gmm_bits(raw: np.ndarray, values: np.ndarray, vmin: int, vmax: int) -> float:
    """Model cross-entropy (bits) of an integer grid under raw GMM outputs."""
    params = GmmParams.from_raw(raw)
    bounds_lo = np.where(values == vmin, -np.inf, values - 0.5)
    bounds_hi = np.where(values == vmax, np.inf, values + 0.5)
    mass = np.zeros(values.shape, dtype=np.float64)
    for k in range(GMM_K):
        z_lo = np_ndtr((bounds_lo - params.u[k]) / params.sigma[k])
        z_hi = np_ndtr((bounds_hi - params.u[k]) / params.sigma[k])
        mass += params.w[k] * (z_hi - z_lo)
    return float(-np.log2(np.maximum(mass, 1e-12)).sum())


# ---------------------------------------------------------------------------
# Long-term context assembly
# ---------------------------------------------------------------------------

class LongTermContext:
    """Tracks previously coded grids along the coding order.

    Same-level earlier subbands are used directly; when coding drops a level,
    the four grids of the finished level are inverse-transformed once to
    synthesize the co-resolution LL context.  Grids must be dequantized
    (what the decoder will actually hold).
    """

    def __init__(self, backend, levels: int):
        self.backend = backend
        self.levels = levels
        self._ll = None
        self._seen = {}

    def stack_for(self, level: int, kind: str):
        """Context grids for the target subband; None marks a zero channel."""
        if kind == "LL":
            return [None, None, None]
        if kind == "HL":
            return [self._ll, None, None]
        if kind == "LH":
            return [self._ll, self._seen.get("HL"), None]
        if kind == "HH":
            return [self._ll, self._seen.get("HL"), self._seen.get("LH")]
        raise ValueError(f"unknown subband kind {kind!r}")

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


# ---------------------------------------------------------------------------
# Quantized CDF: 16-bit cumulative table with one guaranteed tick per symbol
# ---------------------------------------------------------------------------

def _scalar_mix_cdf(w, u, sigma, x: float) -> float:
    acc = 0.0
    for k in range(GMM_K):
        acc += w[k] * 0.5 * math.erfc((u[k] - x) / sigma[k] * _SQRT1_2)
    return acc


class _LazyCum:
    """Boundary-on-demand quantized CDF (plain floats for scan-loop speed)."""

    __slots__ = ("w", "u", "sigma", "vmin", "a", "scale")

    def __init__(self, w, u, sigma, vmin, vmax):
        self.w = (float(w[0]), float(w[1]), float(w[2]))
        self.u = (float(u[0]), float(u[1]), float(u[2]))
        self.sigma = (float(sigma[0]), float(sigma[1]), float(sigma[2]))
        self.vmin = vmin
        self.a = vmax - vmin + 1
        self.scale = TOTAL - self.a

    def __call__(self, k: int) -> int:
        if k <= 0:
            return 0
        if k >= self.a:
            return TOTAL
        f = _scalar_mix_cdf(self.w, self.u, self.sigma, self.vmin - 0.5 + k)
        return int(math.floor(f * self.scale)) + k


# ---------------------------------------------------------------------------
# Incremental subband codec (shared by encoder and decoder)
# ---------------------------------------------------------------------------

def extract_context_arrays(weights: ModelWeights, kind: str) -> dict:
    """Plain float64 context-net arrays for one subband type, masks applied."""
    p = ctx_prefix(kind)
    cw = {}
    for part in ("s1", "s2", "l1", "l2", "h1", "h2"):
        cw[f"{part}.w"] = np.ascontiguousarray(weights.get(f"{p}.{part}.w"))
        cw[f"{part}.b"] = np.ascontiguousarray(weights.get(f"{p}.{part}.b"))
    cw["s1.w"] = cw["s1.w"] * mask_a()
    cw["s2.w"] = cw["s2.w"] * mask_b()
    return cw


class SubbandCodec:
    """Row-incremental evaluation of the context net plus range coding.

    The encoder and decoder both run `run`, so every float operation happens
    in the same order on both sides; that is what guarantees symbol-exact
    synchronization.  Contributions from fully known rows are vectorized per
    row; only the dependence on the current row's left neighbor is scalar.
    """

    def __init__(self, cw: dict, l_t: np.ndarray, qstep: float,
                 vmin: int, vmax: int, shape):
        self.h, self.w = shape
        self.qstep = float(qstep)
        self.vmin, self.vmax = int(vmin), int(vmax)
        self.alphabet = self.vmax - self.vmin + 1
        if self.alphabet > TOTAL - self.alphabet:
            raise StreamError(f"coefficient range too wide ({self.alphabet})")
        self.model_bits = 0.0

        w1 = cw["s1.w"]  # (C,1,3,3) masked
        self._b1 = cw["s1.b"]
        self._w1_row = np.ascontiguousarray(w1[:, 0, 0, :])  # (C,3) taps above
        self._w1_left = np.ascontiguousarray(w1[:, 0, 1, 0])  # (C,) left tap
        w2 = cw["s2.w"]  # (C,C,3,3) masked
        self._b2 = cw["s2.b"]
        self._w2_row = np.ascontiguousarray(w2[:, :, 0, :])  # (C,C,3)
        self._w2_left = np.ascontiguousarray(w2[:, :, 1, 0])  # (C,C)
        self._w2_center = np.ascontiguousarray(w2[:, :, 1, 1])  # (C,C)

        # L_t branch and its 1x1 head slice are position-independent: fold
        # them into a per-position bias for the fused head.
        g = np.maximum(gt._conv2d_raw(l_t[None].astype(np.float64) * CTX_INPUT_SCALE,
                                      cw["l1.w"], cw["l1.b"]), 0.0)
        g = np.maximum(gt._conv2d_raw(g, cw["l2.w"], cw["l2.b"]), 0.0)[0]
        h1 = cw["h1.w"][:, :, 0, 0]  # (C, 2C)
        self._h1_s = np.ascontiguousarray(h1[:, :CTX_CHANNELS])
        h1_g = h1[:, CTX_CHANNELS:]
        head_bias = (np.tensordot(h1_g, g, axes=([1], [0]))
                     + cw["h1.b"][:, None, None])
        # (H, W, C) layout: the scan reads one contiguous vector per pixel
        self._head_bias = np.ascontiguousarray(np.moveaxis(head_bias, 0, -1))
        self._h2 = np.ascontiguousarray(cw["h2.w"][:, :, 0, 0])  # (3K, C)
        self._b_h2 = cw["h2.b"]

    def _row_bases(self, s_prev, f1_prev):
        """Per-pixel (W, C) bias rows from the fully known previous row."""
        w = self.w
        pad = np.zeros(w + 2)
        pad[1 : w + 1] = s_prev
        base1 = (self._b1[None, :]
                 + pad[0:w, None] * self._w1_row[None, :, 0]
                 + pad[1 : w + 1, None] * self._w1_row[None, :, 1]
                 + pad[2 : w + 2, None] * self._w1_row[None, :, 2])
        fpad = np.zeros((CTX_CHANNELS, w + 2))
        fpad[:, 1 : w + 1] = f1_prev
        base2 = self._b2[:, None] + (
            self._w2_row[:, :, 0] @ fpad[:, 0:w]
            + self._w2_row[:, :, 1] @ fpad[:, 1 : w + 1]
            + self._w2_row[:, :, 2] @ fpad[:, 2 : w + 2]
        )
        return base1, np.ascontiguousarray(base2.T)

    def run(self, rc, values: np.ndarray | None = None) -> np.ndarray:
        """Encode `values` through rc, or decode from rc when values is None."""
        encode = values is not None
        h, w = self.h, self.w
        out = values if encode else np.zeros((h, w), dtype=np.int32)
        if self.alphabet == 1:
            # Degenerate range: the decoder knows every value already.
            if not encode:
                out[:] = self.vmin
            return out

        s_in = np.zeros((h, w))  # scaled dequantized decoded-so-far values
        f1_prev = np.zeros((CTX_CHANNELS, w))
        f1_cur = np.zeros((CTX_CHANNELS, w))
        zeros_c = np.zeros(CTX_CHANNELS)
        log2_total = math.log2(TOTAL)
        for i in range(h):
            base1, base2 = self._row_bases(
                s_in[i - 1] if i > 0 else np.zeros(w), f1_prev
            )
            head_row = self._head_bias[i]
            f1_left = zeros_c
            s_left = 0.0
            for x in range(w):
                f1 = np.maximum(base1[x] + self._w1_left * s_left, 0.0)
                f2 = np.maximum(
                    base2[x] + self._w2_left @ f1_left + self._w2_center @ f1,
                    0.0,
                )
                p1 = np.maximum(self._h1_s @ f2 + head_row[x], 0.0)
                raw = self._h2 @ p1 + self._b_h2
                rw, ru, rs = raw[:GMM_K], raw[GMM_K : 2 * GMM_K], raw[2 * GMM_K :]
                e = np.exp(rw - rw.max())
                mw = e / e.sum()
                with np.errstate(over="ignore"):
                    sigma = np.maximum(np.exp(rs), SIGMA_FLOOR)

                # boundary-on-demand CDF: the encoder touches two entries,
                # the decoder O(log alphabet) during its bisection
                qcum = _LazyCum(mw, ru, sigma, self.vmin, self.vmax)
                if encode:
                    k = int(out[i, x]) - self.vmin
                    lo, hi = qcum(k), qcum(k + 1)
                    rc.encode(lo, hi - lo)
                else:
                    target = rc.decode_target()
                    klo, khi = 0, self.alphabet
                    while khi - klo > 1:
                        mid = (klo + khi) // 2
                        if qcum(mid) <= target:
                            klo = mid
                        else:
                            khi = mid
                    k = klo
                    lo, hi = qcum(k), qcum(k + 1)
                    rc.consume(lo, hi - lo)
                    out[i, x] = k + self.vmin
                self.model_bits += log2_total - math.log2(hi - lo)

                s_left = (k + self.vmin) * self.qstep * CTX_INPUT_SCALE
                s_in[i, x] = s_left
                f1_cur[:, x] = f1
                f1_left = f1
            f1_prev, f1_cur = f1_cur, f1_prev
        return out


def encode_subband(values, cw, l_t, qstep, vmin, vmax) -> bytes:
    """Standalone range-coded payload for a single subband."""
    rc = RangeEncoder()
    codec = SubbandCodec(cw, l_t, qstep, vmin, vmax, values.shape)
    codec.run(rc, values)
    payload = rc.finish()
    return payload, codec.model_bits


def decode_subband(payload, cw, l_t, qstep, vmin, vmax, shape) -> np.ndarray:
    rc = RangeDecoder(payload)
    codec = SubbandCodec(cw, l_t, qstep, vmin, vmax, shape)
    return codec.run(rc)


# ---------------------------------------------------------------------------
# Bitstream container
# ---------------------------------------------------------------------------

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
        pos = _HEADER.size
        n_subbands = 3 * levels + 1
        info = []
        for _ in range(n_subbands):
            if pos + _SUBBAND.size > len(data):
                raise StreamError(f"truncated subband table at byte {pos}")
            qstep, vmin, vmax = _SUBBAND.unpack_from(data, pos)
            if not (qstep > 0) or vmin > vmax:
                raise StreamError("corrupt subband table entry")
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

def _deq_for_backend(values: np.ndarray, qstep: float, backend):
    if getattr(backend, "integer_only", False):
        return values.astype(np.int32)
    return dequantize(values, qstep)


def _lt_stack(grids, shape) -> np.ndarray:
    out = np.zeros((LT_WIDTH,) + tuple(shape))
    for idx, g in enumerate(grids):
        if g is not None:
            out[idx] = np.asarray(g, dtype=np.float64)
    return out


def code_channel(rc, bs: Bitstream, ctx_arrays, backend, pyramid=None):
    """Code one channel's subbands in coding order through one range coder.

    Encodes `pyramid` through a RangeEncoder, or decodes one from a
    RangeDecoder when `pyramid` is None.  Both directions take the subband
    shapes and (qstep, vmin, vmax) from the header fields of `bs`, and feed
    the long-term context the same dequantized grids.  Returns the coded
    pyramid and the model bits of each subband.
    """
    levels = bs.levels
    pw = padded_size(bs.true_width, levels)
    ph = padded_size(bs.true_height, levels)
    ltc = LongTermContext(backend, levels)
    out = SubbandPyramid(levels, None, [(None, None, None)] * levels)
    bits = []
    for (level, kind), (qstep, vmin, vmax) in zip(coding_order(levels), bs.subband_info):
        shape = (ph >> level, pw >> level)
        values = None
        if pyramid is not None:
            values = np.asarray(pyramid.get(level, kind), dtype=np.int32)
            if values.shape != shape:
                raise ValueError(f"subband {kind}{level} is {values.shape}, "
                                 f"the header geometry gives {shape}")
        l_t = _lt_stack(ltc.stack_for(level, kind), shape)
        codec = SubbandCodec(ctx_arrays[kind], l_t, qstep, vmin, vmax, shape)
        try:
            values = codec.run(rc, values)
        except RangeError as err:
            raise RangeError(f"subband {kind}{level}: {err}") from err
        out.set(level, kind, values)
        bits.append(codec.model_bits)
        ltc.advance(level, kind, _deq_for_backend(values, qstep, backend))
    return out, bits


def _context_arrays(weights: ModelWeights) -> dict:
    return {kind: extract_context_arrays(weights, kind) for kind in SUBBAND_KINDS}


def encode_image(qpyramids, quantgrid, weights: ModelWeights, mode: str,
                 true_size, threads: int = 1) -> Bitstream:
    """Entropy-code three quantized channel pyramids into a bitstream."""
    if len(qpyramids) != 3:
        raise ValueError("expected three channel pyramids")
    if not quantgrid.channel_uniform():
        raise ValueError("bitstream requires channel-uniform qsteps")
    levels = qpyramids[0].levels
    order = coding_order(levels)
    if mode == "lossless":
        for level, kind in order:
            if quantgrid.qstep(0, level, kind) != 1.0:
                raise ValueError("lossless mode forces qstep = 1")
    backend = make_backend(mode, weights=weights)

    info = []
    for level, kind in order:
        qstep = float(np.float32(quantgrid.qstep(0, level, kind)))
        vmin = min(int(p.get(level, kind).min()) for p in qpyramids)
        vmax = max(int(p.get(level, kind).max()) for p in qpyramids)
        info.append((qstep, vmin, vmax))
    tw, th = true_size
    bs = Bitstream(mode, levels, tw, th, weights_checksum(weights), info, [])
    ctx_arrays = _context_arrays(weights)

    def job(pyr):
        rc = RangeEncoder()
        coded, bits = code_channel(rc, bs, ctx_arrays, backend, pyr)
        return rc.finish(), bits, [coded.get(level, kind).size for level, kind in order]

    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=min(threads, 3)) as pool:
            results = list(pool.map(job, qpyramids))
    else:
        results = [job(pyr) for pyr in qpyramids]

    bs.stats = {"subband_bits": [], "symbols": []}
    for payload, bits, symbols in results:
        bs.payloads.append(payload)
        bs.stats["subband_bits"] += bits
        bs.stats["symbols"] += symbols
    return bs


def decode_image(data, weights: ModelWeights):
    """Decode a packed stream (or Bitstream) back to quantized pyramids."""
    bs = data if isinstance(data, Bitstream) else Bitstream.unpack(data)
    if bs.weight_checksum != weights_checksum(weights):
        raise WeightChecksumError(
            f"stream was written with different weights "
            f"(checksum {bs.weight_checksum:#018x})")
    backend = make_backend(bs.mode, weights=weights)
    ctx_arrays = _context_arrays(weights)
    pyramids = []
    for ch, payload in enumerate(bs.payloads):
        try:
            pyr, _ = code_channel(RangeDecoder(payload), bs, ctx_arrays, backend)
        except RangeError as err:
            raise StreamError(f"channel {ch} {err}") from err
        pyramids.append(pyr)
    return bs, pyramids
