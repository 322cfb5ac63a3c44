"""Dequantization post-filter: residual CNN refining lossy-decoded planes.

Residual-group architecture with a global skip connection, so an untrained
(zero) net is exactly the identity.  Inputs are scaled to roughly [0, 1]
inside the net; the residual is added in the plane's native range.  Lossless
decoding bypasses this module entirely.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import gradtape as gt
from .gradtape import Tensor

INPUT_SCALE = 1.0 / 255.0
OUTPUT_SCALE = 8.0


@dataclass(frozen=True)
class DequantNet:
    """Geometry of the residual filter: G groups of B blocks, C channels."""

    groups: int = 2
    blocks: int = 2
    channels: int = 16

    def weight_shapes(self):
        c = self.channels
        shapes = {
            "dq.head.w": (c, 1, 3, 3),
            "dq.head.b": (c,),
        }
        for g in range(1, self.groups + 1):
            for b in range(1, self.blocks + 1):
                base = f"dq.g{g}.b{b}"
                shapes[f"{base}.c1.w"] = (c, c, 3, 3)
                shapes[f"{base}.c1.b"] = (c,)
                shapes[f"{base}.c2.w"] = (c, c, 3, 3)
                shapes[f"{base}.c2.b"] = (c,)
        shapes["dq.tail.w"] = (1, c, 3, 3)
        shapes["dq.tail.b"] = (1,)
        return shapes


def dequant_filter(net: DequantNet, params, plane):
    """Refine a decoded (N,1,H,W) plane; identity when the net is all zeros."""
    try:
        x = gt.conv2d_relu(gt.scale(plane, INPUT_SCALE),
                           params["dq.head.w"], params["dq.head.b"])
        for g in range(1, net.groups + 1):
            group_in = x
            for b in range(1, net.blocks + 1):
                base = f"dq.g{g}.b{b}"
                y = gt.conv2d_relu(x, params[f"{base}.c1.w"], params[f"{base}.c1.b"])
                y = gt.conv2d(y, params[f"{base}.c2.w"], params[f"{base}.c2.b"])
                x = gt.add(x, y)
            x = gt.add(group_in, x)
        residual = gt.conv2d(x, params["dq.tail.w"], params["dq.tail.b"])
        return gt.add(plane, gt.scale(residual, OUTPUT_SCALE))
    except KeyError as missing:
        raise ValueError(f"dequant net weights incomplete: missing {missing}") from None


def dequant_filter_plane(net: DequantNet, params, plane2d):
    """`dequant_filter` on a bare (H, W) array, under Tensor `params`."""
    out = dequant_filter(net, params, Tensor(plane2d.reshape((1, 1) + plane2d.shape)))
    return out.data.reshape(plane2d.shape)
