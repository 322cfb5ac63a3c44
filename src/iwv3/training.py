"""Desk-scale training schedule and per-image online optimization.

Three stages: (1) context and dequant nets alone over a fixed classical 9/7
transform and fixed step, (2) full end-to-end training with the annealed
soft quantization surrogate and trainable log-steps, (3) hard-rounding
fine-tune of the post-quantization nets with a random step offset so the
model tolerates step adjustment at test time.

Training operates on single padded planes (crops taken from the color-
transformed channels); rate is the mixture mass on [v-1/2, v+1/2] and
distortion is the Frobenius difference scaled by 1/sqrt(pixels) so the
tradeoff weight is resolution independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import partial

import numpy as np

from . import gradtape as gt
from . import models, pipeline
from .entropy import (
    GMM_K,
    LongTermContext,
    coding_order,
    context_forward,
    gmm_bits,
)
from .gradtape import ModelWeights, Tensor
from .imageio import ImagePlanes, planes_to_rgb
from .lifting import Cdf97, forward_pyramid, inverse_pyramid, make_backend
from .postproc import DequantNet, dequant_filter
from .quant import (
    ALPHA_MAX,
    ALPHA_MIN,
    QuantGrid,
    anneal_alpha,
    dequantize,
    logq_name,
    quantize,
    soft_to_hard_quant,
)

LN2 = math.log(2.0)


class TrainingError(RuntimeError):
    """Raised when a training step produces a non-finite loss."""


@dataclass
class TrainConfig:
    mode: str = "additive"
    levels: int = 2
    steps: int = 2
    stage1_steps: int = 120
    stage2_steps: int = 200
    stage3_steps: int = 60
    lr1: float = 2e-3
    lr2: float = 1e-4
    lr3: float = 1e-4
    momentum: float = 0.9
    lam: float = 0.05
    pretrain_qstep: float = 16.0
    init_qstep: float = 16.0
    qstep_offset_range: float = 0.25
    batch: int = 4
    crop: int = 64
    n_crops: int = 16
    seed: int = 7
    dq_groups: int = 2
    dq_blocks: int = 2
    dq_channels: int = 16

    def __post_init__(self):
        if self.mode not in ("additive", "affine"):
            raise ValueError(f"mode must be additive or affine, not {self.mode!r}")
        if self.lam <= 0:
            raise ValueError("lambda must be positive")
        for name in ("levels", "steps", "stage1_steps", "stage2_steps", "stage3_steps",
                     "batch", "crop", "n_crops", "dq_channels", "dq_groups", "dq_blocks"):
            least = 0 if name in ("dq_groups", "dq_blocks") else 1
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}")

    def dq_net(self) -> DequantNet:
        return DequantNet(self.dq_groups, self.dq_blocks, self.dq_channels)

    @classmethod
    def parse(cls, text: str) -> "TrainConfig":
        types = {f.name: {"int": int, "float": float}.get(f.type, str) for f in fields(cls)}
        kwargs = {}
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"config line {lineno}: expected key=value")
            key, _, raw = line.partition("=")
            key = key.strip()
            if key == "lambda":
                key = "lam"
            if key not in types:
                raise ValueError(f"unknown config key {key!r}")
            kwargs[key] = types[key](raw.strip())
        return cls(**kwargs)


@dataclass
class LossReport:
    bpp: float
    l_obj: float
    total: float

    def finite(self) -> bool:
        return all(math.isfinite(v) for v in (self.bpp, self.l_obj, self.total))


def loss_rd(original, reconstructed, rate_bits: float, lam: float,
            normalize: bool = False) -> LossReport:
    """Rate-distortion report: bits-per-pixel plus weighted Frobenius error.

    With normalize=True the Frobenius norm is scaled by 1/sqrt(pixels),
    which is the form the trainer optimizes.
    """
    original = np.asarray(original, dtype=np.float64)
    reconstructed = np.asarray(reconstructed, dtype=np.float64)
    if original.shape != reconstructed.shape:
        raise ValueError("image dimensions differ")
    if rate_bits < 0:
        raise ValueError("rate must be nonnegative")
    n = original.size
    l_obj = float(np.linalg.norm(original - reconstructed))
    if normalize:
        l_obj /= math.sqrt(n)
    bpp = rate_bits / n
    return LossReport(bpp, l_obj, bpp + lam * l_obj)


# ---------------------------------------------------------------------------
# Loss graphs
# ---------------------------------------------------------------------------

def rate_bits_tensor(params, kind: str, s_t, l_t: Tensor, v: Tensor) -> Tensor:
    """Total -log2 mixture mass of values v given context grids (tensor graph)."""
    raw = context_forward(params, s_t, l_t, kind)
    k = GMM_K
    rw = [gt.slice_channels(raw, i, i + 1) for i in range(k)]
    ru = [gt.slice_channels(raw, k + i, k + i + 1) for i in range(k)]
    rs = [gt.slice_channels(raw, 2 * k + i, 2 * k + i + 1) for i in range(k)]
    # stable softmax: shifting by a constant leaves the value and gradient
    # of the softmax unchanged
    m = Tensor(np.max(np.stack([t.data for t in rw]), axis=0))
    e = [gt.exp(gt.sub(t, m)) for t in rw]
    denom = gt.reciprocal(gt.add(gt.add(e[0], e[1]), e[2]))
    half = Tensor(np.full(v.data.shape, 0.5))
    v_hi = gt.add(v, half)
    v_lo = gt.sub(v, half)
    mass = None
    for i in range(k):
        # bounded log-sigma keeps exp finite under untrained weights
        inv_sigma = gt.exp(gt.scale(gt.clamp(rs[i], -10.0, 10.0), -1.0))
        z_hi = gt.ndtr(gt.mul(gt.sub(v_hi, ru[i]), inv_sigma))
        z_lo = gt.ndtr(gt.mul(gt.sub(v_lo, ru[i]), inv_sigma))
        term = gt.mul(gt.mul(e[i], denom), gt.sub(z_hi, z_lo))
        mass = term if mass is None else gt.add(mass, term)
    safe = gt.clamp(mass, 1e-12, 2.0)
    return gt.scale(gt.tsum(gt.log(safe)), -1.0 / LN2)


def rd_graph(backend, pyr, quantizer, rate, params, dq_net: DequantNet):
    """The rate/distortion chain shared by every training and evaluation graph.

    Walks the subbands of `pyr` in coding order.  `quantizer(level, kind,
    coeffs)` returns a subband's (values, dequantized grid); `rate(kind, s_t,
    l_t, values)` charges the values' bits given the dequantized grid s_t, as
    the quantizer returned it, and the long-term context of the grids coded
    before it; l_t and values are Tensors.  The context's final
    level is then inverted and refined by the dequantization filter.  Returns
    (bits, refined).  Grids stay arrays when the quantizer returns arrays, so
    a hard quantizer keeps the transform chain off the tape.
    """
    ltc = LongTermContext(backend)
    bits = None
    for level, kind in coding_order(pyr.levels):
        values, grid = quantizer(level, kind, pyr.get(level, kind))
        l_t = gt.concat_channels(ltc.stack_for(kind, np.shape(grid)))
        term = rate(kind, grid, l_t, gt._wrap(values))
        bits = term if bits is None else bits + term
        ltc.advance(level, kind, grid)
    recon = inverse_pyramid(backend, ltc.final_level())
    return bits, dequant_filter(dq_net, params, recon)


def _hard_quantizer(grid: QuantGrid):
    """Hard rounding at a channel-uniform grid's steps, off the tape."""
    def quantizer(level, kind, coeffs):
        q = grid.qstep(0, level, kind)
        values = quantize(coeffs, q)
        return values, dequantize(values, q)
    return quantizer


def _rd_loss(bits, refined: Tensor, original: np.ndarray, lam: float):
    """bpp + lam * (Frobenius error / sqrt(pixels)); (total, LossReport)."""
    n = original.size
    bpp = gt.scale(bits, 1.0 / n)
    diff = gt.sub(refined, original)
    l_obj = gt.scale(gt.sqrt(gt.tsum(gt.mul(diff, diff))), 1.0 / math.sqrt(n))
    total = gt.add(bpp, gt.scale(l_obj, lam))
    return total, LossReport(float(bpp.data), float(l_obj.data), float(total.data))


class SgdMomentum:
    """Gradient descent with momentum, per-name velocity state.  A step
    updates exactly the weights its gradients name: the ones the graph reached."""

    def __init__(self, momentum: float = 0.9):
        self.momentum = momentum
        self._vel = {}

    def step(self, weights: ModelWeights, grads: dict, lr: float) -> None:
        for name, g in grads.items():
            v = self._vel.get(name)
            v = g if v is None else self.momentum * v + g
            self._vel[name] = v
            weights.set(name, weights[name] - lr * v)


def _check_finite(report: LossReport, stage: str) -> LossReport:
    if not report.finite():
        raise TrainingError(f"non-finite loss in {stage}: {report}")
    return report


# ---------------------------------------------------------------------------
# Stage steps
# ---------------------------------------------------------------------------

def pretrain_step(batch: np.ndarray, weights: ModelWeights, cfg: TrainConfig,
                  opt: SgdMomentum) -> LossReport:
    """Stage 1: train context/dequant nets over the fixed classical transform.

    The rate term only reaches the context nets and the distortion (MSE)
    only reaches the dequant net; everything else stays untouched.
    """
    levels, _, dq_net = models.validate_weights(weights, cfg.mode)
    backend = Cdf97()
    tape = gt.Tape()
    params = tape.params(weights)
    bits, refined = rd_graph(
        backend, forward_pyramid(backend, batch, levels),
        _hard_quantizer(QuantGrid.uniform(levels, cfg.pretrain_qstep)),
        partial(rate_bits_tensor, params), params, dq_net)
    bpp = gt.scale(bits, 1.0 / batch.size)
    diff = gt.sub(refined, batch)
    mse = gt.tmean(gt.mul(diff, diff))
    total = gt.add(bpp, gt.scale(mse, cfg.lam))

    grads = tape.backward(total)
    opt.step(weights, grads, cfg.lr1)
    rms = math.sqrt(float(mse.data))
    report = LossReport(float(bpp.data), rms, float(bpp.data) + cfg.lam * rms)
    return _check_finite(report, "stage 1")


def soft_rd_graph(batch: np.ndarray, weights: ModelWeights, cfg: TrainConfig,
                  alpha: float, rng: np.random.Generator):
    """Full end-to-end RD graph under the soft quantization surrogate.

    Returns (tape, total loss tensor, LossReport); noise is drawn from rng
    per coefficient, so a reseeded generator reproduces the loss exactly.
    """
    if not (ALPHA_MIN <= alpha <= ALPHA_MAX):
        raise ValueError(f"alpha {alpha} outside [{ALPHA_MIN}, {ALPHA_MAX}]")
    levels, _, dq_net = models.validate_weights(weights, cfg.mode)
    tape = gt.Tape()
    params = tape.params(weights)
    backend = make_backend(cfg.mode, params=params)

    def quantizer(level, kind, coeffs):
        logq = params[logq_name(level, kind)]
        inv_q = gt.exp(gt.scale(logq, -1.0))
        q = gt.exp(logq)
        y = gt.smul(coeffs, inv_q)
        v = soft_to_hard_quant(y, alpha, rng.uniform(-0.5, 0.5, size=y.data.shape))
        return v, gt.smul(v, q)

    bits, refined = rd_graph(backend, forward_pyramid(backend, Tensor(batch), levels),
                             quantizer, partial(rate_bits_tensor, params), params, dq_net)
    total, report = _rd_loss(bits, refined, batch, cfg.lam)
    return tape, total, report


def e2e_soft_step(batch: np.ndarray, weights: ModelWeights, cfg: TrainConfig,
                  opt: SgdMomentum, alpha: float, rng: np.random.Generator) -> LossReport:
    """Stage 2: end-to-end step with the soft quantization surrogate."""
    tape, total, report = soft_rd_graph(batch, weights, cfg, alpha, rng)
    _check_finite(report, "stage 2")
    grads = tape.backward(total)
    opt.step(weights, grads, cfg.lr2)
    return report


def hard_finetune_step(batch: np.ndarray, weights: ModelWeights, cfg: TrainConfig,
                       opt: SgdMomentum, rng: np.random.Generator) -> LossReport:
    """Stage 3: hard rounding with a random step offset; transform frozen."""
    model = models.prepare(weights)
    levels, _, dq_net = model.validate(cfg.mode)
    offset = float(rng.uniform(-cfg.qstep_offset_range, cfg.qstep_offset_range))
    grid = QuantGrid.from_weights(weights, levels).scaled(offset)
    backend = model.backend(cfg.mode)
    tape = gt.Tape()
    params = tape.params(weights)
    bits, refined = rd_graph(backend, forward_pyramid(backend, batch, levels),
                             _hard_quantizer(grid), partial(rate_bits_tensor, params),
                             params, dq_net)
    total, report = _rd_loss(bits, refined, batch, cfg.lam)
    _check_finite(report, "stage 3")
    grads = tape.backward(total)
    opt.step(weights, grads, cfg.lr3)
    return report


# ---------------------------------------------------------------------------
# Full schedule
# ---------------------------------------------------------------------------

def make_crops(images_rgb, cfg: TrainConfig, rng: np.random.Generator):
    """Fixed set of single-plane training crops from the color channels."""
    crops = []
    planes_all = []
    for rgb in images_rgb:
        planes = ImagePlanes.from_rgb(rgb, cfg.levels)
        planes_all.extend(np.asarray(p, dtype=np.float64) for p in planes.planes)
    for _ in range(cfg.n_crops):
        plane = planes_all[rng.integers(len(planes_all))]
        h, w = plane.shape
        size = cfg.crop
        if h < size or w < size:
            tile = np.tile(plane, (size // h + 1, size // w + 1))
            crops.append(tile[:size, :size].copy())
            continue
        top = int(rng.integers(h - size + 1))
        left = int(rng.integers(w - size + 1))
        crops.append(plane[top : top + size, left : left + size].copy())
    return crops


def _sample_batch(crops, cfg, rng) -> np.ndarray:
    idx = rng.integers(len(crops), size=cfg.batch)
    return np.stack([crops[i] for i in idx])[:, None, :, :]


def run_training(cfg: TrainConfig, images_rgb, log_fn=None, snapshots=None):
    """Run stages 1-3 over crops of the given images.

    Returns (weights, history) where history holds (stage, step, alpha,
    LossReport) tuples, one per optimization step.  Pass a dict as
    `snapshots` to receive weight copies keyed 'init' and 'stage1'..'stage3'.
    """
    rng = np.random.default_rng(cfg.seed)
    crops = make_crops(images_rgb, cfg, rng)
    weights = models.init_weights(cfg.mode, cfg.levels, seed=cfg.seed,
                                  steps=cfg.steps, dq=cfg.dq_net(),
                                  init_qstep=cfg.init_qstep)
    history = []
    counts = (cfg.stage1_steps, cfg.stage2_steps, cfg.stage3_steps)
    step_fns = (lambda batch, opt, _: pretrain_step(batch, weights, cfg, opt),
                lambda batch, opt, alpha: e2e_soft_step(batch, weights, cfg, opt, alpha, rng),
                lambda batch, opt, _: hard_finetune_step(batch, weights, cfg, opt, rng))
    if snapshots is not None:
        snapshots["init"] = weights.copy()
    for stage, (n_steps, step_fn) in enumerate(zip(counts, step_fns), 1):
        opt = SgdMomentum(cfg.momentum)
        for step in range(n_steps):
            # only stage 2 anneals its soft rounding
            alpha = anneal_alpha(step, max(n_steps - 1, 1)) if stage == 2 else 0.0
            report = step_fn(_sample_batch(crops, cfg, rng), opt, alpha)
            history.append((stage, len(history) + 1, alpha, report))
            if log_fn is not None:
                log_fn(len(history), alpha, report)
        if snapshots is not None:
            snapshots[f"stage{stage}"] = weights.copy()
    return weights, history


def eval_rd(weights: ModelWeights, planes, cfg: TrainConfig) -> LossReport:
    """Deterministic hard-quantization RD of single planes under a model.

    The rate is the coder's own model cross-entropy (`gmm_bits`, tails
    absorbed at each subband's value range), not the training surrogate.
    """
    model = models.prepare(weights)
    levels, _, dq_net = model.validate(cfg.mode)
    backend, params = model.backend(cfg.mode), model.params
    quantizer = _hard_quantizer(QuantGrid.from_weights(weights, levels))

    def model_bits(kind, s_t, l_t, v):
        raw = context_forward(params, s_t, l_t, kind).data[0]
        values = v.data[0, 0]
        return gmm_bits(raw, values, int(values.min()), int(values.max()))

    total_bits = 0.0
    sq_err = 0.0
    n_pix = 0
    for plane in planes:
        plane = np.asarray(plane, dtype=np.float64)
        pyr = forward_pyramid(backend, plane[None, None], levels)
        bits, refined = rd_graph(backend, pyr, quantizer, model_bits, params, dq_net)
        total_bits += bits
        sq_err += float(np.sum((refined.data[0, 0] - plane) ** 2))
        n_pix += plane.size
    l_obj = math.sqrt(sq_err / n_pix)
    bpp = total_bits / n_pix
    return LossReport(bpp, l_obj, bpp + cfg.lam * l_obj)


# ---------------------------------------------------------------------------
# Online optimization
# ---------------------------------------------------------------------------

def measure_rd(rgb, reference_rgb, weights: ModelWeights, mode: str,
               lam: float) -> LossReport:
    """Actual-encode RD: payload bits plus distortion against a reference."""
    bs = pipeline.encode_rgb(rgb, weights, mode)
    packed = bs.pack()
    recon = pipeline.decode_bytes(packed, weights)
    return loss_rd(reference_rgb, recon, 8.0 * len(packed), lam, normalize=True)


def online_optimize(rgb: np.ndarray, weights: ModelWeights, lr: float = 1e-3,
                    iters: int = 100, lam: float = 0.05):
    """Gradient-descend the image itself against the RD loss, guarded.

    Returns (image, before_report, after_report); the original image is
    returned unchanged whenever the optimized one fails to improve the
    measured RD loss (distortion always against the original).
    """
    model = models.prepare(weights)
    mode = models.infer_transform_kind(weights)
    levels, _, dq_net = model.validate(mode)
    grid = model.quantgrid(mode, levels)
    planes0 = ImagePlanes.from_rgb(rgb, levels)
    cur = [np.asarray(p, dtype=np.float64) for p in planes0.planes]
    const_params = model.params
    backend = model.backend(mode)
    rate = partial(rate_bits_tensor, const_params)

    def quantizer(level, kind, coeffs):
        # the encoder's own steps at the sharpest temperature, without noise
        q = grid.qstep(0, level, kind)
        v = soft_to_hard_quant(gt.scale(coeffs, 1.0 / q), ALPHA_MAX, 0.0)
        return v, gt.scale(v, q)

    for _ in range(iters if lr != 0.0 else 0):
        for ch in range(3):
            tape = gt.Tape()
            x = tape.leaf(cur[ch][None, None], name="image", requires_grad=True)
            bits, refined = rd_graph(backend, forward_pyramid(backend, x, levels),
                                     quantizer, rate, const_params, dq_net)
            total, _ = _rd_loss(bits, refined, cur[ch][None, None], lam)
            if not math.isfinite(float(total.data)):
                raise TrainingError("non-finite gradient target in online optimization")
            cur[ch] = cur[ch] - lr * tape.backward(total)["image"][0, 0]

    candidate = planes_to_rgb(cur, planes0.true_width, planes0.true_height)

    before = measure_rd(rgb, rgb, weights, mode, lam)
    if np.array_equal(candidate, rgb):  # the color round trip is exact
        return rgb, before, before
    after = measure_rd(candidate, rgb, weights, mode, lam)
    if after.total <= before.total:
        return candidate, before, after
    return rgb, before, before
