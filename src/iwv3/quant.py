"""QStep quantization and its differentiable training surrogates.

Hard coding divides by the step and rounds half away from zero.  Training
replaces the rounding with the annealed soft approximation
s_a(s_a(y) + u): a tanh-shaped staircase whose temperature a runs from 2
to 12, with u drawn uniformly from [-0.5, 0.5] per coefficient per step.
"""

from __future__ import annotations

import math

import numpy as np

from . import gradtape as gt
from .gradtape import Tensor

ALPHA_MIN = 2.0
ALPHA_MAX = 12.0


def quantize(coeffs, qstep: float) -> np.ndarray:
    """Divide by the step and round half away from zero; returns int32."""
    if qstep <= 0:
        raise ValueError("qstep must be positive")
    scaled = np.asarray(coeffs, dtype=np.float64) / qstep
    return (np.sign(scaled) * np.floor(np.abs(scaled) + 0.5)).astype(np.int32)


def dequantize(ints, qstep: float) -> np.ndarray:
    if qstep <= 0:
        raise ValueError("qstep must be positive")
    return np.asarray(ints, dtype=np.float64) * qstep


def soft_round(y, alpha: float):
    """Monotone differentiable staircase fixing integers and half-integers.

    `y` is a Tensor, and the result joins its recording, or a plain float or
    array, evaluated eagerly and returned as an array.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if not isinstance(y, Tensor):
        return soft_round(Tensor(y), alpha).data
    denom = math.tanh(alpha / 2.0)
    half = Tensor(np.full(y.data.shape, 0.5))
    base = gt.floor_const(y)
    r = gt.sub(gt.sub(y, base), half)
    ramp = gt.scale(gt.tanh(gt.scale(r, alpha)), 0.5 / denom)
    return gt.add(gt.add(base, ramp), half)


def soft_to_hard_quant(y, alpha: float, noise):
    """Differentiable rounding surrogate s_a(s_a(y) + u), u in [-0.5, 0.5];
    a Tensor or a plain value, like soft_round."""
    if not isinstance(y, Tensor):
        return soft_to_hard_quant(Tensor(y), alpha, noise).data
    u = np.broadcast_to(np.asarray(noise, dtype=np.float64), y.data.shape)
    return soft_round(gt.add(soft_round(y, alpha), Tensor(u.copy())), alpha)


def anneal_alpha(step: int, total_steps: int) -> float:
    """Linear schedule from 2 to 12 inclusive, clamped at 12."""
    if total_steps <= 0:
        raise ValueError("total_steps must be positive")
    if step < 0 or step > total_steps:
        raise ValueError("step out of range")
    return min(ALPHA_MIN + (ALPHA_MAX - ALPHA_MIN) * step / total_steps, ALPHA_MAX)


CHANNELS = (0, 1, 2)


def logq_name(level: int, kind: str) -> str:
    """Weight name of a subband's trained log-step; one LL step, at the
    coarsest level, and one per (level, kind) of the detail subbands."""
    if kind == "LL":
        return "q.ll.logq"
    return f"q.l{level}.{kind.lower()}.logq"


def _exp(x: float) -> float:
    """math.exp, but inf where it overflows: a step that large is refused
    by the codec's grid check, not by a traceback."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


class QuantGrid:
    """Positive quantization step per (channel, level, subband type)."""

    def __init__(self, levels: int, entries: dict):
        self.levels = levels
        self._entries = dict(entries)
        for key, q in self._entries.items():
            if q <= 0:
                raise ValueError(f"non-positive qstep at {key}")

    @staticmethod
    def _keys(levels: int):
        for ch in CHANNELS:
            yield (ch, levels, "LL")
            for level in range(1, levels + 1):
                for kind in ("HL", "LH", "HH"):
                    yield (ch, level, kind)

    @classmethod
    def uniform(cls, levels: int, qstep: float = 1.0) -> "QuantGrid":
        return cls(levels, {key: float(qstep) for key in cls._keys(levels)})

    @classmethod
    def from_weights(cls, weights, levels: int) -> "QuantGrid":
        """Channel-uniform grid from trained log-step parameters."""
        return cls(levels, {(ch, level, kind): _exp(float(weights[logq_name(level, kind)]))
                            for ch, level, kind in cls._keys(levels)})

    def qstep(self, channel: int, level: int, kind: str) -> float:
        return self._entries[(channel, level, kind)]

    def scaled(self, offset: float) -> "QuantGrid":
        """Apply a relative step offset: q -> q * (1 + offset)."""
        factor = 1.0 + offset
        if factor <= 0:
            raise ValueError("offset drives qstep to zero or below")
        return QuantGrid(self.levels, {k: q * factor for k, q in self._entries.items()})

    def channel_uniform(self) -> bool:
        return all(
            self._entries[(ch, lvl, kind)] == self._entries[(0, lvl, kind)]
            for (ch, lvl, kind) in self._entries
        )

    def items(self):
        return self._entries.items()
