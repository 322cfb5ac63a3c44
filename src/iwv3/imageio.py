"""Raster I/O, reversible color transform, and boundary padding.

Images enter and leave as binary PPM (P6, maxval 255).  Internally each
image becomes three integer planes (Y, Co, Cg) produced by the reversible
YCoCg-R lifting transform, padded by whole-sample symmetric extension so
every plane dimension is a multiple of 2^levels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class FormatError(ValueError):
    """Malformed or unsupported image file."""


def read_ppm(data: bytes) -> np.ndarray:
    """Parse a binary PPM (P6, maxval 255) into an (H, W, 3) uint8 array."""
    if data[:2] != b"P6":
        raise FormatError("malformed magic: expected P6")
    pos = 2
    fields = []
    while len(fields) < 3:
        if pos >= len(data):
            raise FormatError("truncated header")
        c = data[pos : pos + 1]
        if c == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
        elif c.isspace():
            pos += 1
        elif c.isdigit():
            start = pos
            while pos < len(data) and data[pos : pos + 1].isdigit():
                pos += 1
            fields.append(int(data[start:pos]))
        else:
            raise FormatError(f"unexpected header byte {c!r}")
    width, height, maxval = fields
    if maxval != 255:
        raise FormatError(f"unsupported maxval {maxval} (only 255)")
    if width < 1 or height < 1:
        raise FormatError("empty image")
    # Exactly one whitespace byte separates the header from the payload.
    if pos >= len(data) or not data[pos : pos + 1].isspace():
        raise FormatError("missing whitespace before pixel payload")
    pos += 1
    need = width * height * 3
    payload = data[pos : pos + need]
    if len(payload) < need:
        raise FormatError(f"truncated payload: need {need} bytes, have {len(payload)}")
    return np.frombuffer(payload, dtype=np.uint8).reshape(height, width, 3).copy()


def write_ppm(image: np.ndarray) -> bytes:
    """Serialize an (H, W, 3) uint8 array as a canonical binary PPM."""
    if image.ndim != 3 or image.shape[2] != 3:
        raise FormatError("expected an (H, W, 3) array")
    if image.shape[0] < 1 or image.shape[1] < 1:
        raise FormatError("empty image")
    h, w = image.shape[:2]
    header = b"P6\n%d %d\n255\n" % (w, h)
    return header + np.ascontiguousarray(image, dtype=np.uint8).tobytes()


def rgb_to_ycocgr(rgb: np.ndarray):
    """Reversible RGB -> YCoCg-R on uint8 input; returns int16 (y, co, cg)."""
    r = rgb[..., 0].astype(np.int16)
    g = rgb[..., 1].astype(np.int16)
    b = rgb[..., 2].astype(np.int16)
    co = r - b
    t = b + (co >> 1)
    cg = g - t
    y = t + (cg >> 1)
    return y, co, cg


def ycocgr_to_rgb(y: np.ndarray, co: np.ndarray, cg: np.ndarray) -> np.ndarray:
    """Exact inverse of rgb_to_ycocgr; returns an (H, W, 3) int32 array."""
    y = np.asarray(y, dtype=np.int32)
    co = np.asarray(co, dtype=np.int32)
    cg = np.asarray(cg, dtype=np.int32)
    t = y - (cg >> 1)
    g = cg + t
    b = t - (co >> 1)
    r = b + co
    return np.stack([r, g, b], axis=-1)


def padded_size(n: int, levels: int) -> int:
    """Smallest multiple of 2^levels that is >= n."""
    block = 1 << levels
    return ((n + block - 1) // block) * block


def pad_symmetric(plane: np.ndarray, levels: int) -> np.ndarray:
    """Extend a plane to multiples of 2^levels by whole-sample mirroring.

    The mirror does not repeat the edge sample: [a, b, c] -> [a, b, c, b].
    A 1-wide axis repeats its single sample.
    """
    if levels < 1:
        raise ValueError("levels must be >= 1")
    h, w = plane.shape
    if h < 1 or w < 1:
        raise ValueError("empty plane")
    ph, pw = padded_size(h, levels), padded_size(w, levels)
    if (ph, pw) == (h, w):
        return plane
    return np.pad(plane, ((0, ph - h), (0, pw - w)), mode="reflect")


def crop(plane: np.ndarray, height: int, width: int) -> np.ndarray:
    return plane[:height, :width]


@dataclass
class ImagePlanes:
    """Planar YCoCg-R image, padded, with its true geometry."""

    y: np.ndarray
    co: np.ndarray
    cg: np.ndarray
    true_width: int
    true_height: int

    @property
    def planes(self):
        return (self.y, self.co, self.cg)

    @classmethod
    def from_rgb(cls, rgb: np.ndarray, levels: int) -> "ImagePlanes":
        h, w = rgb.shape[:2]
        if h < 1 or w < 1:
            raise FormatError("empty image")
        y, co, cg = rgb_to_ycocgr(rgb)
        y, co, cg = (pad_symmetric(p, levels) for p in (y, co, cg))
        return cls(y, co, cg, w, h)

    def to_rgb(self) -> np.ndarray:
        """Crop to true size, invert the color transform, clamp to 8 bits."""
        h, w = self.true_height, self.true_width
        rgb = ycocgr_to_rgb(*(crop(p, h, w) for p in self.planes))
        return np.clip(rgb, 0, 255).astype(np.uint8)


def planes_to_rgb(planes, true_width: int, true_height: int) -> np.ndarray:
    """RGB image of reconstructed (Y, Co, Cg) planes at padded size.

    Samples are rounded and clipped to the range YCoCg-R gives 8-bit input
    (Y in [0, 255], Co and Cg in [-255, 255]) before the inverse transform.
    """
    y, co, cg = (np.rint(p) for p in planes)
    y = np.clip(y, 0, 255).astype(np.int16)
    co = np.clip(co, -255, 255).astype(np.int16)
    cg = np.clip(cg, -255, 255).astype(np.int16)
    return ImagePlanes(y, co, cg, true_width, true_height).to_rgb()
