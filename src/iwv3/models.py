"""Weight schemas, initializers, the built-in lossless context model, and
the prepared Model of a weight set.

Every network in the codec is addressed by name inside one ModelWeights
store: lifting predict/update nets under xf.*, per-subband-type context
nets under ctx.*, the dequantization filter under dq.*, and per-subband
log quantization steps under q.*.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from . import entropy
from .gradtape import ModelWeights, constant_params
from .lifting import SUBBAND_KINDS, infer_steps, make_backend, transform_nets
from .postproc import DequantNet
from .quant import QuantGrid, logq_name

DEFAULT_STEPS = 2
DEFAULT_DQ = DequantNet()

# Static mixture used by the built-in lossless model: zero conv weights plus
# a sigma ladder in the output bias give a heavy-tailed prior over integers.
DEFAULT_SIGMA_LADDER = (1.0, 8.0, 64.0)


class WeightsError(ValueError):
    """Weights missing, malformed, or inconsistent with the request."""


def context_weight_shapes(kind: str) -> dict:
    p = entropy.ctx_prefix(kind)
    c = entropy.CTX_CHANNELS
    return {
        f"{p}.s1.w": (c, 1, 3, 3),
        f"{p}.s1.b": (c,),
        f"{p}.s2.w": (c, c, 3, 3),
        f"{p}.s2.b": (c,),
        f"{p}.l1.w": (c, entropy.LT_WIDTH, 3, 3),
        f"{p}.l1.b": (c,),
        f"{p}.l2.w": (c, c, 3, 3),
        f"{p}.l2.b": (c,),
        f"{p}.h1.w": (c, 2 * c, 1, 1),
        f"{p}.h1.b": (c,),
        f"{p}.h2.w": (3 * entropy.GMM_K, c, 1, 1),
        f"{p}.h2.b": (3 * entropy.GMM_K,),
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
    k = entropy.GMM_K
    bias = np.zeros(3 * k)
    bias[2 * k :] = [math.log(s) for s in DEFAULT_SIGMA_LADDER]
    return bias


def init_weights(mode: str, levels: int, seed: int = 0,
                 steps: int = DEFAULT_STEPS, dq: DequantNet = DEFAULT_DQ,
                 init_qstep: float = 16.0) -> ModelWeights:
    """Fresh training weights.

    Hidden convs get scaled Gaussian values; every network's final layer is
    zero, so the initial transform is the plain polyphase split and the
    initial dequant filter is the identity.  Context nets start at the
    static sigma-ladder mixture so every coefficient magnitude keeps a
    usable likelihood (and gradient) from the first step; their h2.w is
    zero, so until trained the codec codes them with that one static table.
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
    coefficients.  With the head's last weights h2.w zero,
    `entropy.SubbandCodec` codes every subband against the one table of that
    prior, without evaluating the context net.
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
    channels = weights["dq.head.w"].shape[0]
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
    return prepare(weights).validate(mode, levels)


def _trained_geometry(weights: ModelWeights, mode: str):
    """(levels, steps, dq) a weight set carries for `mode`, levels None for
    lossless, once every tensor the mode needs is checked; raises
    WeightsError otherwise."""
    if mode == "lossless":
        levels, steps, dq = None, 0, None
        needed = all_weight_shapes(mode, levels)
    else:
        kind = infer_transform_kind(weights)
        if kind != mode:
            raise WeightsError(f"weights hold the {kind} transform, not {mode}")
        steps = infer_steps(weights)
        dq = infer_dq_shape(weights)
        levels = infer_levels(weights)
        needed = all_weight_shapes(mode, levels, steps, dq)
    for name, shape in needed.items():
        if name not in weights:
            raise WeightsError(f"weights missing tensor {name!r}")
        have = weights[name].shape
        if tuple(have) != tuple(shape):
            raise WeightsError(f"tensor {name!r} has shape {have}, expected {shape}")
    return levels, steps, dq


def prepare(weights: ModelWeights) -> "Model":
    """The Model of a weight set's current values, built once and kept on
    the weights until `add` or `set` changes them."""
    if weights.prepared is None:
        weights.prepared = Model(weights)
    return weights.prepared


class Model:
    """What the codec derives from one weight set's values alone, each part
    built on first use and then kept:

    - `checksum`, the stream header's weight checksum (`entropy.weights_checksum`).
      It hashes the float32 serialization, `save_weights`, not the float64
      values the codec computes with, so two sets that differ only below
      float32 precision share it (ROADMAP item 2);
    - `context_arrays`, each subband kind's `entropy.extract_context_arrays`;
    - per mode, the geometry the weights carry (levels, lifting steps,
      dequantization net), against which `validate` checks a request;
    - `backend(mode)`: the 5/3, or CNN lifting over the one set of
      `constant_params`;
    - `quantgrid(...)`, the effective quantization grid and its check.

    It computes from a snapshot of the weights (`copy` shares the read-only
    arrays), so it stays the Model of the values it was built from.  Get it
    through `prepare`.
    """

    def __init__(self, weights: ModelWeights):
        self.weights = weights.copy()
        self._backends = {}
        self._geometry = {}

    @cached_property
    def checksum(self) -> int:
        return entropy.weights_checksum(self.weights)

    @cached_property
    def context_arrays(self) -> dict:
        """Context arrays per subband kind.  A static kind keeps only what
        its one table is built from: the codec never runs its net."""
        arrays = {}
        for kind in SUBBAND_KINDS:
            cw = entropy.extract_context_arrays(self.weights, kind)
            arrays[kind] = {"static": True, "prior": cw["prior"]} if cw["static"] else cw
        return arrays

    @cached_property
    def params(self) -> dict:
        return constant_params(self.weights)

    def validate(self, mode: str, levels: int | None = None):
        """`validate_weights` against the geometry the weights carry for
        `mode`, which is checked once."""
        if mode not in self._geometry:
            self._geometry[mode] = _trained_geometry(self.weights, mode)
        trained, steps, dq = self._geometry[mode]
        if levels is None:
            levels = trained
        elif trained is not None and levels != trained:
            raise WeightsError(f"weights were trained for {trained} levels, not {levels}")
        return levels, steps, dq

    def backend(self, mode: str):
        if mode not in self._backends:
            self._backends[mode] = make_backend(
                mode, params=None if mode == "lossless" else self.params)
        return self._backends[mode]

    def quantgrid(self, mode: str, levels: int, qstep_offset: float = 0.0) -> QuantGrid:
        """Effective quantization grid, rounded through float32 like the
        header.  A step the header cannot carry, not finite and positive
        once rounded (the rule `Bitstream.unpack` applies), is a ValueError
        naming its subband."""
        if mode == "lossless":
            if qstep_offset != 0.0:
                raise ValueError("lossless mode has no quantization step to offset")
            return QuantGrid.uniform(levels, 1.0)
        grid = QuantGrid.from_weights(self.weights, levels).scaled(qstep_offset)
        with np.errstate(over="ignore"):
            steps = {key: float(np.float32(q)) for key, q in grid.items()}
        for (_, level, kind), q in steps.items():
            if not 0.0 < q < math.inf:
                raise ValueError(f"subband {kind}{level} would be coded with step {q}: "
                                 f"the header needs a finite positive float32 step")
        return QuantGrid(levels, steps)
