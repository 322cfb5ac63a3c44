"""Seeded workloads of the iwv3 benchmark, their timed passes and checks.

Every workload is a fixed list of operations built from the seed at set-up
time.  One pass runs each operation once, closed loop: an operation starts
when the previous one has ended.  Each operation is timed between two runs of
a fixed reference computation, the probe, which measures how fast the
machine is at that moment.  The shapes, texture strengths, modes and
step counts of a workload are fixed; the seed draws the image content, so
two seeds do the same kind and amount of work on different pixels.

Every operation is checked:

* lossless: the decoded image equals the input, byte for byte;
* lossy: on the first pass, the pyramids `entropy.decode_image` returns
  equal the encoder's quantized pyramids, recomputed here with
  `forward_pyramid` + `quantize`;
* every pass after the first writes the same stream bytes and decodes the
  same image as the first pass, and training ends with the same weights;
* a training step or evaluation with a non-finite loss fails.

A check that fails, or an exception, counts the operation as failed; the run
goes on with the next operation.
"""

from __future__ import annotations

import hashlib
import math
import statistics
import traceback
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.ndimage import gaussian_filter

from iwv3 import entropy, models, pipeline, training
from iwv3.entropy import coding_order
from iwv3.imageio import ImagePlanes
from iwv3.lifting import forward_pyramid, make_backend
from iwv3.quant import anneal_alpha, quantize

# Rate-distortion weight of the trainer's objective; the codec workloads
# report their rd_cost with the same weight.
LAMBDA = training.TrainConfig().lam

# (height, width, texture sigma): sides from 48 to 128, most of them not
# multiples of 8, and textures from smooth to busy, so alphabets run from
# narrow to wide.
LOSSLESS_IMAGES = (
    (48, 61, 3.0),
    (72, 100, 9.0),
    (93, 56, 18.0),
    (128, 50, 6.0),
    (57, 48, 12.0),
)

# (mode, height, width, texture sigma, qstep offset): additive and affine
# models alternate; two of the four images use a positive step offset.
LOSSY_IMAGES = (
    ("additive", 64, 72, 9.0, 0.0),
    ("affine", 56, 88, 6.0, 0.25),
    ("additive", 80, 61, 12.0, 0.5),
    ("affine", 72, 45, 3.0, 0.0),
)
LOSSY_LEVELS = 2
# (seed, perturbation scale, extra factor for raw-scale heads) of each model:
# multiplicative affine stages compound over steps, axes and levels, so
# their perturbation is kept small enough that coefficients stay in range.
LOSSY_WEIGHTS = {"additive": (11, 0.02, 0.1), "affine": (12, 0.01, 0.01)}

# Steps of each training stage per pass, on the trainer's default config.
TRAIN_STEPS = 2
TRAIN_IMAGES = ((96, 96, 9.0), (96, 96, 4.0), (96, 96, 14.0))
# eval_rd's rate varies with the held-out pixels, so it averages 36 planes;
# it runs once per run, after the first pass.
HELD_OUT_IMAGES = tuple((64, 64, t) for t in (6.0, 12.0, 3.0, 9.0) * 3)

WARM_UP_SIZE = 24


# Structure of the synthetic photos: (amplitude, wavelength in px) of plane
# waves, plus hard edges.  Each image slot of a workload has its own fixed
# scene (directions, phases, edge positions, tint); the run's seed jitters
# the wave phases and draws the fine texture.  Seeds thus give
# different pixels with the same kind of content, so the rate, and the
# work the entropy coder does, stay close from one seed to the next.
WAVES = ((28.0, 64.0), (22.0, 45.0), (16.0, 32.0), (12.0, 23.0), (9.0, 16.0),
         (6.0, 11.0))
PHASE_JITTER = 0.3
EDGES = 3
EDGE_STEP = 24.0


def photo(height: int, width: int, texture: float, scene: int, rng) -> np.ndarray:
    """Photo-like (H, W, 3) uint8 image: waves, hard edges, fine texture."""
    layout = np.random.default_rng([scene, height, width])
    yy, xx = np.mgrid[0:height, 0:width].astype(np.float64)
    luma = np.full((height, width), 128.0)
    for amp, wavelength in WAVES:
        theta, phase = layout.uniform(0.0, 2.0 * math.pi, size=2)
        phase += rng.uniform(-PHASE_JITTER, PHASE_JITTER)
        k = 2.0 * math.pi / wavelength
        luma += amp * np.sin(k * (xx * math.cos(theta) + yy * math.sin(theta)) + phase)
    for _ in range(EDGES):
        top, left = layout.integers(0, height // 2), layout.integers(0, width // 2)
        sign = 1.0 if layout.random() < 0.5 else -1.0
        luma[top : top + height // 2, left : left + width // 2] += sign * EDGE_STEP
    tint = layout.uniform(-10.0, 10.0, size=3)
    img = np.empty((height, width, 3))
    for c in range(3):
        texture_c = gaussian_filter(rng.normal(0, texture, (height, width)), sigma=1.2)
        img[..., c] = luma * (0.85 + 0.1 * c) + tint[c] + texture_c
    return np.clip(img, 0, 255).astype(np.uint8)


def perturbed_lossy_weights(mode: str, levels: int, seed: int, scale: float,
                            raw_scale_factor: float, init_qstep: float = 16.0):
    """Init weights with small seeded noise everywhere, so every net is active.

    Raw-scale heads get a gentler perturbation: the trunk features they see
    are large, and trained models keep multiplicative scales near one.
    """
    weights = models.init_weights(mode, levels, seed=seed, init_qstep=init_qstep)
    rng = np.random.default_rng(seed + 1000)
    for name in weights.names():
        if name.startswith("q."):
            continue
        arr = weights.get(name)
        sigma = scale * (raw_scale_factor if ".hr." in name else 1.0)
        weights.set(name, arr + rng.normal(0, sigma, arr.shape))
    return weights


@dataclass
class Op:
    """One timed operation: its kind, the true pixels it handled, its wall
    time, the reference probe's time around it, and whether it passed."""

    kind: str
    kpx: float
    seconds: float
    probe_s: float
    ok: bool


@dataclass
class Pass:
    ops: list = field(default_factory=list)
    traced: bool = False

    @property
    def seconds(self) -> float:
        return sum(op.seconds for op in self.ops)



class _Runner:
    """Shared bookkeeping: timing, the reference probe and failures."""

    def __init__(self):
        self.failures = []
        self.passes = 0
        rng = np.random.default_rng(0)
        self._probe_x = rng.normal(size=(4, 16, 34, 34))
        self._probe_w = rng.normal(size=(16, 16, 3, 3))

    def probe(self) -> float:
        """Seconds of a fixed reference computation: three 16->16 3x3 convs
        over 4x32x32, written here so that no change to the program moves it."""
        start = perf_counter()
        for _ in range(3):
            win = sliding_window_view(self._probe_x, (3, 3), axis=(2, 3))
            np.tensordot(win, self._probe_w, axes=[(1, 4, 5), (1, 2, 3)])
        return perf_counter() - start

    def timed(self, result: Pass, tracer, kind, index, kpx, fn, check):
        """Run fn as one operation between two probes, check its value, and
        record it in result.  Returns the value, or None when fn raised."""
        before = self.probe()
        if tracer is not None:
            tracer.begin("op." + kind)
        start = perf_counter()
        value = error = None
        try:
            value = fn()
        except Exception:  # the run goes on; the failure is recorded
            error = traceback.format_exc(limit=4)
        finally:
            seconds = perf_counter() - start
            if tracer is not None:
                tracer.end()
        probe_s = (before + self.probe()) / 2
        if error is None:
            error = check(value)
        if error is not None:
            self.failures.append({"pass": self.passes, "op": kind, "item": index,
                                  "error": error})
        result.ops.append(Op(kind, kpx, seconds, probe_s, error is None))
        return value


@dataclass
class CodecItem:
    rgb: np.ndarray
    weights: object
    mode: str
    levels: int | None
    qstep_offset: float

    @property
    def kpx(self) -> float:
        return self.rgb.shape[0] * self.rgb.shape[1] / 1000.0

    def encode(self) -> tuple:
        bs = pipeline.encode_rgb(self.rgb, self.weights, self.mode, levels=self.levels,
                                 qstep_offset=self.qstep_offset, threads=1)
        return bs, bs.pack()

    def decode(self, packed: bytes) -> np.ndarray:
        return pipeline.decode_bytes(packed, self.weights)

    def quantized_pyramids(self):
        """The encoder's quantized pyramids, recomputed outside the codec."""
        levels, steps, _ = models.validate_weights(self.weights, self.mode, self.levels)
        planes = ImagePlanes.from_rgb(self.rgb, levels)
        grid = pipeline.build_quantgrid(self.weights, self.mode, levels,
                                        self.qstep_offset)
        backend = make_backend(self.mode, weights=self.weights, steps=steps)
        out = []
        for ch, plane in enumerate(planes.planes):
            pyr = forward_pyramid(backend, plane.astype(np.float64), levels)
            out.append({(level, kind): quantize(pyr.get(level, kind),
                                                grid.qstep(ch, level, kind))
                        for level, kind in coding_order(levels)})
        return out


class CodecWorkload(_Runner):
    """Encode then decode each image of a fixed list, once per pass."""

    def __init__(self, items, warm_up):
        super().__init__()
        self.items = items
        self.warm_up_items = warm_up
        self.streams = [None] * len(items)  # first-pass bytes and bs.stats
        self.decoded = [None] * len(items)

    def warm_up(self) -> None:
        for item in self.warm_up_items:
            item.decode(item.encode()[1])

    def run_pass(self, tracer=None, deadline=None) -> Pass:
        """Encode and decode every image; stop early once `deadline` passes."""
        result = Pass(traced=tracer is not None)
        first = self.passes == 0
        for i, item in enumerate(self.items):
            if _past(deadline):
                break
            enc = self.timed(result, tracer, "encode", i, item.kpx, item.encode,
                             lambda enc: self._check_stream(i, enc, first))
            if not result.ops[-1].ok:
                continue
            packed = enc[1]
            self.timed(result, tracer, "decode", i, item.kpx,
                       lambda: item.decode(packed),
                       lambda out: self._check_decoded(i, item, packed, out, first))
        self.passes += 1
        return result

    def _check_stream(self, i, enc, first):
        bs, packed = enc
        if first:
            self.streams[i] = (packed, bs.stats)
        elif packed != self.streams[i][0]:
            return "stream differs from the first pass"
        return None

    def _check_decoded(self, i, item, packed, out, first):
        if item.mode == "lossless":
            if not np.array_equal(out, item.rgb):
                return "lossless output differs from the input"
        elif first:
            _, pyramids = entropy.decode_image(packed, item.weights)
            for got, want in zip(pyramids, item.quantized_pyramids()):
                for (level, kind), grid in want.items():
                    if not np.array_equal(got.get(level, kind), grid):
                        return f"decoded {kind}{level} differs from the encoder's"
        if first:
            self.decoded[i] = out
        elif not np.array_equal(out, self.decoded[i]):
            return "decoded image differs from the first pass"
        return None

    def quality(self) -> dict:
        """Rate and distortion over every image, from the first pass."""
        done = [i for i, s in enumerate(self.streams)
                if s is not None and self.decoded[i] is not None]
        if not done:
            return {}
        bits = sum(8 * len(self.streams[i][0]) for i in done)
        kpx = sum(self.items[i].kpx for i in done)
        original = np.concatenate([self.items[i].rgb.ravel() for i in done])
        decoded = np.concatenate([self.decoded[i].ravel() for i in done])
        report = training.loss_rd(original, decoded, bits, LAMBDA, normalize=True)
        mse = float(np.mean((original.astype(np.float64) - decoded) ** 2))
        digest = hashlib.sha256()
        for i in done:
            digest.update(self.streams[i][0])
        return {
            "bpp": bits / (1000.0 * kpx),
            "rd_cost": report.total,
            "psnr_db": 10 * math.log10(255.0 ** 2 / mse) if mse > 0 else math.inf,
            "stream_sha256": digest.hexdigest(),
            "stream_bytes": [len(s[0]) if s else None for s in self.streams],
            "subband_bits": [s[1]["subband_bits"] if s else None for s in self.streams],
            "payload_bytes": sum(len(p) for i in done for p in
                                 entropy.Bitstream.unpack(self.streams[i][0]).payloads),
        }


class TrainWorkload(_Runner):
    """From the same initial weights, run TRAIN_STEPS steps of each stage on
    fixed batches.  Every pass repeats the same trajectory: the first pass
    ends with eval_rd, and later passes must end with the same weights."""

    def __init__(self, cfg, init_weights, batches, held_out, noise_seed):
        super().__init__()
        self.cfg = cfg
        self.init_weights = init_weights
        self.batches = batches  # {stage: [batch, ...]}
        self.held_out = held_out
        self.noise_seed = noise_seed
        self.report = None  # eval_rd report of the first pass
        self.final_weights = None  # digest of the first pass's final weights

    def warm_up(self) -> None:
        """One step of each stage on a single crop, from a copy of the weights."""
        weights = self.init_weights.copy()
        rng = np.random.default_rng(0)
        for stage in (1, 2, 3):
            self._step(stage, 0, self.batches[stage][0][:1], weights,
                       training.SgdMomentum(), rng)

    def _step(self, stage, step, batch, weights, opt, rng):
        cfg = self.cfg
        if stage == 1:
            return training.pretrain_step(batch, weights, cfg, opt)
        if stage == 2:
            alpha = anneal_alpha(step, max(TRAIN_STEPS - 1, 1))
            return training.e2e_soft_step(batch, weights, cfg, opt, alpha, rng)
        return training.hard_finetune_step(batch, weights, cfg, opt, rng)

    def run_pass(self, tracer=None, deadline=None) -> Pass:
        """The steps of every stage; stop early once `deadline` passes."""
        result = Pass(traced=tracer is not None)
        cfg = self.cfg
        weights = self.init_weights.copy()
        rng = np.random.default_rng(self.noise_seed)
        batch_kpx = cfg.batch * cfg.crop * cfg.crop / 1000.0
        for stage in (1, 2, 3):
            opt = training.SgdMomentum(cfg.momentum)
            for step, batch in enumerate(self.batches[stage]):
                if _past(deadline):
                    self.passes += 1
                    return result
                self.timed(result, tracer, f"stage{stage}", step, batch_kpx,
                           lambda: self._step(stage, step, batch, weights, opt, rng),
                           _check_finite)
        digest = hashlib.sha256()
        for name, values in weights.items():
            digest.update(name.encode() + np.ascontiguousarray(values).tobytes())
        if self.passes == 0:
            self.final_weights = digest.digest()
            self.timed(result, tracer, "eval", 0,
                       sum(p.size for p in self.held_out) / 1000.0,
                       lambda: training.eval_rd(weights, self.held_out, cfg),
                       self._check_eval)
        elif digest.digest() != self.final_weights:
            result.ops[-1].ok = False
            self.failures.append({"pass": self.passes, "op": result.ops[-1].kind,
                                  "item": TRAIN_STEPS - 1,
                                  "error": "final weights differ from the first pass"})
        self.passes += 1
        return result

    def _check_eval(self, report):
        error = _check_finite(report)
        if error is None:
            self.report = report
        return error

    def quality(self) -> dict:
        if self.report is None:
            return {}
        return {"bpp": self.report.bpp, "rd_cost": self.report.total,
                "train_rd": self.report.total, "distortion": self.report.l_obj}


def lossless_photo(seed: int) -> CodecWorkload:
    rng = np.random.default_rng([seed, 1])
    weights = models.default_weights()
    items = [CodecItem(photo(h, w, t, 100 + i, rng), weights, "lossless", 3, 0.0)
             for i, (h, w, t) in enumerate(LOSSLESS_IMAGES)]
    warm = [CodecItem(photo(WARM_UP_SIZE, WARM_UP_SIZE, 6.0, 0, rng), weights,
                      "lossless", 3, 0.0)]
    return CodecWorkload(items, warm)


def lossy_photo(seed: int) -> CodecWorkload:
    rng = np.random.default_rng([seed, 2])
    weights = {mode: perturbed_lossy_weights(mode, LOSSY_LEVELS, *params)
               for mode, params in LOSSY_WEIGHTS.items()}
    items = [CodecItem(photo(h, w, t, 200 + i, rng), weights[mode], mode,
                       LOSSY_LEVELS, off)
             for i, (mode, h, w, t, off) in enumerate(LOSSY_IMAGES)]
    warm = [CodecItem(photo(WARM_UP_SIZE, WARM_UP_SIZE, 6.0, 0, rng), weights[mode],
                      mode, LOSSY_LEVELS, 0.0) for mode in LOSSY_WEIGHTS]
    return CodecWorkload(items, warm)


def train_steps(seed: int) -> TrainWorkload:
    cfg = training.TrainConfig()
    rng = np.random.default_rng([seed, 3])
    planes = [np.asarray(p, dtype=np.float64)
              for i, (h, w, t) in enumerate(TRAIN_IMAGES)
              for p in ImagePlanes.from_rgb(photo(h, w, t, 300 + i, rng), cfg.levels).planes]

    def crop(index):
        plane = planes[index % len(planes)]
        top, left = (int(rng.integers(n - cfg.crop + 1)) for n in plane.shape)
        return plane[top : top + cfg.crop, left : left + cfg.crop]

    # Batch b takes planes 4b..4b+3 (mod 9) of the luma/chroma planes, so
    # every seed trains on the same mix; the seed moves the crop windows.
    batches, b = {}, 0
    for stage in (1, 2, 3):
        batches[stage] = []
        for _ in range(TRAIN_STEPS):
            batch = [crop(cfg.batch * b + j) for j in range(cfg.batch)]
            batches[stage].append(np.stack(batch)[:, None, :, :])
            b += 1
    held_out = []
    for i, (h, w, t) in enumerate(HELD_OUT_IMAGES):
        planes_i = ImagePlanes.from_rgb(photo(h, w, t, 400 + i, rng), cfg.levels).planes
        held_out.extend(np.asarray(p, dtype=np.float64) for p in planes_i)
    init = models.init_weights(cfg.mode, cfg.levels, seed=cfg.seed, steps=cfg.steps,
                               dq=cfg.dq_net(), init_qstep=cfg.init_qstep)
    return TrainWorkload(cfg, init, batches, held_out, int(rng.integers(2**32)))


WORKLOADS = {
    "lossless-photo": lossless_photo,
    "lossy-photo": lossy_photo,
    "train-steps": train_steps,
}


def _past(deadline) -> bool:
    return deadline is not None and perf_counter() >= deadline


def _check_finite(report):
    return None if report.finite() else f"non-finite loss {report}"


def _ok_ops(passes, kinds):
    return [op for p in passes for op in p.ops
            if op.ok and (kinds is None or op.kind in kinds)]


def rate(passes, kinds=None) -> float:
    """True kpx per wall-clock second over the successful operations."""
    ops = _ok_ops(passes, kinds)
    seconds = sum(op.seconds for op in ops)
    return sum(op.kpx for op in ops) / seconds if seconds > 0 else 0.0


def probe_rate(passes, kinds=None) -> float:
    """True pixels per probe time over the successful operations: each
    operation's time is divided by the mean of the probes around it."""
    ops = _ok_ops(passes, kinds)
    probes = sum(op.seconds / op.probe_s for op in ops)
    return 1000.0 * sum(op.kpx for op in ops) / probes if probes > 0 else 0.0


def median_op_seconds(passes, kind) -> float | None:
    times = [op.seconds for p in passes for op in p.ops if op.ok and op.kind == kind]
    return statistics.median(times) if times else None
