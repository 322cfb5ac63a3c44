"""Weight schemas, initializers, and the built-in lossless context model.

Every network in the codec is addressed by name inside one ModelWeights
store: lifting predict/update nets under xf.*, per-subband-type context
nets under ctx.*, the dequantization filter under dq.*, and per-subband
log quantization steps under q.*.
"""

from __future__ import annotations

import math

import numpy as np

from .entropy import CTX_CHANNELS, GMM_K, LT_WIDTH, ctx_prefix
from .gradtape import ModelWeights
from .lifting import SUBBAND_KINDS, infer_steps, transform_nets
from .postproc import DequantNet
from .quant import logq_name

DEFAULT_STEPS = 2
DEFAULT_DQ = DequantNet()

# Static mixture used by the built-in lossless model: zero conv weights plus
# a sigma ladder in the output bias give a heavy-tailed prior over integers.
DEFAULT_SIGMA_LADDER = (1.0, 8.0, 64.0)


class WeightsError(ValueError):
    """Weights missing, malformed, or inconsistent with the request."""


def context_weight_shapes(kind: str) -> dict:
    p = ctx_prefix(kind)
    c = CTX_CHANNELS
    return {
        f"{p}.s1.w": (c, 1, 3, 3),
        f"{p}.s1.b": (c,),
        f"{p}.s2.w": (c, c, 3, 3),
        f"{p}.s2.b": (c,),
        f"{p}.l1.w": (c, LT_WIDTH, 3, 3),
        f"{p}.l1.b": (c,),
        f"{p}.l2.w": (c, c, 3, 3),
        f"{p}.l2.b": (c,),
        f"{p}.h1.w": (c, 2 * c, 1, 1),
        f"{p}.h1.b": (c,),
        f"{p}.h2.w": (3 * GMM_K, c, 1, 1),
        f"{p}.h2.b": (3 * GMM_K,),
    }


def qstep_weight_shapes(levels: int) -> dict:
    shapes = {logq_name(levels, "LL"): ()}
    for level in range(1, levels + 1):
        for kind in SUBBAND_KINDS[1:]:
            shapes[logq_name(level, kind)] = ()
    return shapes


def all_weight_shapes(mode: str, levels: int, steps: int = DEFAULT_STEPS,
                      dq: DequantNet = DEFAULT_DQ) -> dict:
    """Complete name -> shape map for a coding mode."""
    shapes = {}
    for kind in SUBBAND_KINDS:
        shapes.update(context_weight_shapes(kind))
    if mode != "lossless":
        for net in transform_nets(mode, steps):
            shapes.update(net.weight_shapes())
        shapes.update(dq.weight_shapes())
        shapes.update(qstep_weight_shapes(levels))
    return shapes


def _sigma_ladder_bias() -> np.ndarray:
    bias = np.zeros(3 * GMM_K)
    bias[2 * GMM_K :] = [math.log(s) for s in DEFAULT_SIGMA_LADDER]
    return bias


def init_weights(mode: str, levels: int, seed: int = 0,
                 steps: int = DEFAULT_STEPS, dq: DequantNet = DEFAULT_DQ,
                 init_qstep: float = 16.0) -> ModelWeights:
    """Fresh training weights.

    Hidden convs get scaled Gaussian values; every network's final layer is
    zero, so the initial transform is the plain polyphase split and the
    initial dequant filter is the identity.  Context nets start at the
    static sigma-ladder mixture so every coefficient magnitude keeps a
    usable likelihood (and gradient) from the first step.
    """
    rng = np.random.default_rng(seed)
    weights = ModelWeights()
    final_markers = (".c3.", ".hs.", ".hr.", ".h2.", ".tail.")
    for name, shape in all_weight_shapes(mode, levels, steps, dq).items():
        if name.startswith("q."):
            weights.add(name, np.asarray(math.log(init_qstep)))
        elif name.endswith("h2.b"):
            weights.add(name, _sigma_ladder_bias())
        elif name.endswith(".b") or any(m in name for m in final_markers):
            weights.add(name, np.zeros(shape))
        else:
            fan_in = int(np.prod(shape[1:]))
            std = 0.5 * math.sqrt(2.0 / fan_in)
            weights.add(name, rng.normal(0.0, std, size=shape))
    return weights


def default_weights() -> ModelWeights:
    """Built-in context-only model used for zero-configuration lossless coding.

    All convolutions are zero; the output bias encodes a three-sigma ladder
    so the static prior puts usable mass on small, medium, and large
    coefficients.  With the head (h1.w, h2.w) zero, `entropy.SubbandCodec`
    codes every subband against the one table of that prior, without
    evaluating the context net.
    """
    weights = ModelWeights()
    for kind in SUBBAND_KINDS:
        for name, shape in context_weight_shapes(kind).items():
            if name.endswith("h2.b"):
                weights.add(name, _sigma_ladder_bias())
            else:
                weights.add(name, np.zeros(shape))
    return weights


def infer_levels(weights: ModelWeights) -> int:
    levels = 0
    while f"q.l{levels + 1}.hl.logq" in weights:
        levels += 1
    if levels == 0:
        raise WeightsError("weights carry no quantization steps (lossless-only?)")
    return levels


def infer_transform_kind(weights: ModelWeights) -> str:
    if "xf.p1.hs.w" in weights:
        return "affine"
    if "xf.p1.c3.w" in weights:
        return "additive"
    raise WeightsError("weights carry no transform nets")


def infer_dq_shape(weights: ModelWeights) -> DequantNet:
    if "dq.head.w" not in weights:
        raise WeightsError("weights carry no dequantization filter (dq.head.w)")
    channels = weights.get("dq.head.w").shape[0]
    groups = 0
    while f"dq.g{groups + 1}.b1.c1.w" in weights:
        groups += 1
    blocks = 0
    while f"dq.g1.b{blocks + 1}.c1.w" in weights:
        blocks += 1
    return DequantNet(groups, blocks, channels)


def validate_weights(weights: ModelWeights, mode: str, levels: int | None = None):
    """Check that a weight set carries every tensor the mode needs, with the
    right shapes.  Returns the effective (levels, steps, dq) geometry;
    raises WeightsError otherwise."""
    if mode == "lossless":
        needed = {}
        for kind in SUBBAND_KINDS:
            needed.update(context_weight_shapes(kind))
        steps, dq = 0, None
    else:
        kind = infer_transform_kind(weights)
        if kind != mode:
            raise WeightsError(f"weights hold a {kind} transform, not {mode}")
        steps = infer_steps(weights)
        dq = infer_dq_shape(weights)
        trained_levels = infer_levels(weights)
        if levels is None:
            levels = trained_levels
        elif levels != trained_levels:
            raise WeightsError(
                f"weights were trained for {trained_levels} levels, not {levels}")
        needed = all_weight_shapes(mode, levels, steps, dq)
    for name, shape in needed.items():
        if name not in weights:
            raise WeightsError(f"weights missing tensor {name!r}")
        have = weights.get(name).shape
        if tuple(have) != tuple(shape):
            raise WeightsError(f"tensor {name!r} has shape {have}, expected {shape}")
    return levels, steps, dq
