"""End-to-end encode/decode paths composing the codec modules.

encode_rgb: color transform -> pad -> pyramid -> quantize -> entropy code.
decode_bytes: entropy decode, whose long-term contexts invert levels L..2 ->
inverse of the final level -> optional dequantization filter -> inverse
color transform.
"""

from __future__ import annotations

import numpy as np

from . import models
from .entropy import Bitstream, coding_order, decode_stream, encode_image, padded_geometry
from .imageio import ImagePlanes, planes_to_rgb
from .lifting import forward_pyramid, inverse_pyramid
from .postproc import dequant_filter_plane
from .quant import QuantGrid, quantize


def build_quantgrid(weights, mode: str, levels: int, qstep_offset: float = 0.0) -> QuantGrid:
    """Effective quantization grid, rounded through float32 like the header;
    see `models.Model.quantgrid`."""
    return models.prepare(weights).quantgrid(mode, levels, qstep_offset)


def encode_rgb(rgb: np.ndarray, weights, mode: str, levels: int | None = None,
               qstep_offset: float = 0.0, threads: int = 1) -> Bitstream:
    """Encode an (H, W, 3) uint8 image into a Bitstream.  `threads` has no
    effect; it is kept because bench/workloads.py passes it."""
    model = models.prepare(weights)
    levels, _, _ = model.validate(mode, levels)
    if mode == "lossless" and levels is None:
        levels = 3
    padded_geometry(levels, rgb.shape[1], rgb.shape[0])  # refuse before padding
    grid = model.quantgrid(mode, levels, qstep_offset)
    planes = ImagePlanes.from_rgb(rgb, levels)
    backend = model.backend(mode)
    qpyramids = []
    for ch, plane in enumerate(planes.planes):
        pyr = forward_pyramid(backend, plane, levels)
        for level, kind in coding_order(levels):
            pyr.set(level, kind, quantize(pyr.get(level, kind), grid.qstep(ch, level, kind)))
        qpyramids.append(pyr)
    return encode_image(qpyramids, grid, weights, mode,
                        (planes.true_width, planes.true_height))


def decode_bytes(data: bytes, weights) -> np.ndarray:
    """Decode a packed stream to an (H, W, 3) uint8 image."""
    bs, pyramids, finals = decode_stream(data, weights)
    del pyramids  # not read by the synthesis: free them before it
    model = models.prepare(weights)
    backend = model.backend(bs.mode)
    _, _, dq_net = model.validate(bs.mode)
    out_planes = []
    for ch in range(len(finals)):
        plane = inverse_pyramid(backend, finals[ch])
        finals[ch] = None  # free this channel's grids before the next inverse
        out_planes.append(plane if dq_net is None
                          else dequant_filter_plane(dq_net, model.params, plane))
    return planes_to_rgb(out_planes, bs.true_width, bs.true_height)


def stream_bpp(packed: bytes, bs: Bitstream) -> float:
    return 8.0 * len(packed) / (bs.true_width * bs.true_height)
