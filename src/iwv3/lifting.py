"""Lifting transforms: classical 5/3 and 9/7 plus learned CNN backends.

Every backend factors into split / predict / update steps, so the inverse is
structural: run the same predictions in reverse order with signs flipped.
The 5/3 path is integer-exact; the 9/7 and CNN paths are float and invert to
round-off.  2D transforms apply the 1D lifting along rows, then columns, and
the pyramid recurses on the low-low subband.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .gradtape import (
    PUNet,
    Tensor,
    add,
    constant_params,
    interleave,
    mul,
    pu_forward,
    reciprocal,
    sub,
    take_even,
    take_odd,
)

SUBBAND_KINDS = ("LL", "HL", "LH", "HH")


def merge(x_e, x_o):
    x_e, x_o = np.asarray(x_e), np.asarray(x_o)
    out = np.empty(x_e.shape[:-1] + (2 * x_e.shape[-1],), dtype=x_e.dtype)
    out[..., 0::2] = x_e
    out[..., 1::2] = x_o
    return out


def _shift_right(a):
    # mirrored neighbor past the right edge: x[n+1] with x[last+1] := x[last]
    return np.concatenate([a[..., 1:], a[..., -1:]], axis=-1)


def _shift_left(a):
    # mirrored neighbor past the left edge: x[n-1] with x[-1] := x[0]
    return np.concatenate([a[..., :1], a[..., :-1]], axis=-1)


class Cdf53:
    """Reversible integer 5/3 lifting (the lossless transform)."""

    def forward_pair(self, x_e, x_o):
        x_e = np.asarray(x_e)
        x_o = np.asarray(x_o)
        if not (np.issubdtype(x_e.dtype, np.integer) and np.issubdtype(x_o.dtype, np.integer)):
            raise ValueError("cdf53 requires integer samples")
        x_e = x_e.astype(np.int64)
        x_o = x_o.astype(np.int64)
        h = x_o - ((x_e + _shift_right(x_e)) >> 1)
        l = x_e + ((_shift_left(h) + h + 2) >> 2)
        return l.astype(np.int32), h.astype(np.int32)

    def inverse_pair(self, l, h):
        l = np.asarray(l).astype(np.int64)
        h = np.asarray(h).astype(np.int64)
        x_e = l - ((_shift_left(h) + h + 2) >> 2)
        x_o = h + ((x_e + _shift_right(x_e)) >> 1)
        return x_e.astype(np.int32), x_o.astype(np.int32)


class Cdf97:
    """Classical 9/7 float lifting, scaled to near-unit energy gain."""

    ALPHA = -1.586134342
    BETA = -0.05298011854
    GAMMA = 0.8829110762
    DELTA = 0.4435068522
    ZETA = 1.149604398

    def forward_pair(self, x_e, x_o):
        s = np.asarray(x_e, dtype=np.float64)
        d = np.asarray(x_o, dtype=np.float64)
        d = d + self.ALPHA * (s + _shift_right(s))
        s = s + self.BETA * (_shift_left(d) + d)
        d = d + self.GAMMA * (s + _shift_right(s))
        s = s + self.DELTA * (_shift_left(d) + d)
        return self.ZETA * s, d / self.ZETA

    def inverse_pair(self, l, h):
        s = np.asarray(l, dtype=np.float64) / self.ZETA
        d = np.asarray(h, dtype=np.float64) * self.ZETA
        s = s - self.DELTA * (_shift_left(d) + d)
        d = d - self.GAMMA * (s + _shift_right(s))
        s = s - self.BETA * (_shift_left(d) + d)
        d = d - self.ALPHA * (s + _shift_right(s))
        return s, d


def transform_nets(mode: str, steps: int):
    """The lifting nets of a CNN mode, in order xf.p1, xf.u1, ..., xf.u{steps}."""
    if mode not in ("additive", "affine"):
        raise ValueError(f"unknown CNN lifting mode {mode!r}")
    return [PUNet(mode, f"xf.{role}{i}") for i in range(1, steps + 1) for role in "pu"]


def infer_steps(weights) -> int:
    """Number of predict/update stages a weight set's lifting nets carry."""
    steps = 0
    while f"xf.p{steps + 1}.c1.w" in weights:
        steps += 1
    return steps


@dataclass
class CnnLifting:
    """Learned lifting with one predict/update stage per xf.p{i}/xf.u{i} net
    pair in `params`, shared across rows and columns.  Operates on
    (N, 1, H, W) tensors; the half-resolution even/odd planes feed 2D conv
    nets directly."""

    mode: str  # "additive" | "affine"
    params: dict  # name -> Tensor
    _stages: list = field(init=False)

    def __post_init__(self):
        nets = transform_nets(self.mode, infer_steps(self.params))
        if not nets:
            raise ValueError(f"weights carry no {self.mode} lifting nets")
        self._stages = list(zip(nets[0::2], nets[1::2]))

    def forward_pair(self, l, h):
        for pnet, unet in self._stages:
            shift, sc = pu_forward(pnet, self.params, l)
            h = sub(h, shift) if sc is None else mul(sub(h, shift), sc)
            shift, sc = pu_forward(unet, self.params, h)
            l = add(l, shift) if sc is None else mul(add(l, shift), sc)
        return l, h

    def inverse_pair(self, l, h):
        for pnet, unet in reversed(self._stages):
            shift, sc = pu_forward(unet, self.params, h)
            if sc is not None:
                l = mul(l, reciprocal(sc))
            l = sub(l, shift)
            shift, sc = pu_forward(pnet, self.params, l)
            if sc is not None:
                h = mul(h, reciprocal(sc))
            h = add(h, shift)
        return l, h


# ---------------------------------------------------------------------------
# 2D and pyramid transforms
# ---------------------------------------------------------------------------

def _fwd_axis(backend, a, axis):
    if isinstance(a, Tensor):
        return backend.forward_pair(take_even(a, axis), take_odd(a, axis))
    a = np.moveaxis(a, axis, -1)
    l, h = backend.forward_pair(a[..., 0::2], a[..., 1::2])
    return np.moveaxis(l, -1, axis), np.moveaxis(h, -1, axis)


def _inv_axis(backend, l, h, axis):
    if isinstance(l, Tensor):
        x_e, x_o = backend.inverse_pair(l, h)
        return interleave(x_e, x_o, axis)
    l = np.moveaxis(l, axis, -1)
    h = np.moveaxis(h, axis, -1)
    x_e, x_o = backend.inverse_pair(l, h)
    return np.moveaxis(merge(x_e, x_o), -1, axis)


def _needs_wrap(backend, grid):
    # CNN nets must see planes in natural (H, W) orientation regardless of
    # the transform direction, so bare-array planes are lifted to tensors.
    return isinstance(backend, CnnLifting) and not isinstance(grid, Tensor)


def _wrap_plane(grid) -> Tensor:
    arr = np.asarray(grid, dtype=np.float64)
    if arr.ndim == 2:
        return Tensor(arr.reshape((1, 1) + arr.shape))
    if arr.ndim == 4:
        return Tensor(arr)
    raise ValueError(f"expected a 2-d or (N,C,H,W) plane, got ndim {arr.ndim}")


def _unwrap_plane(t: Tensor, ndim: int) -> np.ndarray:
    if ndim == 2:
        return t.data.reshape(t.data.shape[-2:])
    return t.data


def transform2d_level(backend, plane):
    """One 2D analysis level: rows first, then columns on both outputs.

    Returns (LL, HL, LH, HH); the first letter is the row-direction band.
    """
    h, w = np.shape(plane)[-2:]
    if h % 2 or w % 2:
        raise ValueError(f"plane dims must be even, got {h}x{w}")
    wrapped = _needs_wrap(backend, plane)
    if wrapped:
        ndim = np.asarray(plane).ndim
        plane = _wrap_plane(plane)
    row_l, row_h = _fwd_axis(backend, plane, -1)
    ll, lh = _fwd_axis(backend, row_l, -2)
    hl, hh = _fwd_axis(backend, row_h, -2)
    if wrapped:
        return tuple(_unwrap_plane(g, ndim) for g in (ll, hl, lh, hh))
    return ll, hl, lh, hh


def inverse2d_level(backend, ll, hl, lh, hh):
    for grid in (hl, lh, hh):
        if np.shape(grid)[-2:] != np.shape(ll)[-2:]:
            raise ValueError("subband geometry inconsistent")
    wrapped = _needs_wrap(backend, ll)
    if wrapped:
        ndim = np.asarray(ll).ndim
        ll, hl, lh, hh = (_wrap_plane(g) for g in (ll, hl, lh, hh))
    row_l = _inv_axis(backend, ll, lh, -2)
    row_h = _inv_axis(backend, hl, hh, -2)
    out = _inv_axis(backend, row_l, row_h, -1)
    return _unwrap_plane(out, ndim) if wrapped else out


@dataclass
class SubbandPyramid:
    """Multilevel subband set: detail triples per level plus the final LL.

    details[j-1] holds (HL_j, LH_j, HH_j); ll is LL_levels.
    """

    levels: int
    ll: object
    details: list

    def get(self, level: int, kind: str):
        if kind == "LL":
            if level != self.levels:
                raise ValueError("LL is only kept at the coarsest level")
            return self.ll
        return self.details[level - 1][("HL", "LH", "HH").index(kind)]

    def set(self, level: int, kind: str, grid) -> None:
        if kind == "LL":
            if level != self.levels:
                raise ValueError("LL is only kept at the coarsest level")
            self.ll = grid
        else:
            triple = list(self.details[level - 1])
            triple[("HL", "LH", "HH").index(kind)] = grid
            self.details[level - 1] = tuple(triple)


def forward_pyramid(backend, plane, levels: int) -> SubbandPyramid:
    """Recursive 2D analysis: each level transforms the previous LL."""
    if levels < 1:
        raise ValueError("levels must be >= 1")
    h, w = np.shape(plane)[-2:]
    block = 1 << levels
    if h % block or w % block:
        raise ValueError(f"dims {h}x{w} not divisible by 2^{levels}")
    details = []
    ll = plane
    for _ in range(levels):
        ll, hl, lh, hh = transform2d_level(backend, ll)
        details.append((hl, lh, hh))
    return SubbandPyramid(levels, ll, details)


def inverse_pyramid(backend, pyramid: SubbandPyramid):
    ll = pyramid.ll
    for level in range(pyramid.levels, 0, -1):
        hl, lh, hh = pyramid.details[level - 1]
        ll = inverse2d_level(backend, ll, hl, lh, hh)
    return ll


def make_backend(mode: str, weights=None, params=None, steps: int | None = None):
    """Backend for a coding mode: lossless -> 5/3, lossy -> learned CNN.

    A CNN backend runs every lifting step its `weights` (or tape `params`)
    carry; a `steps` that disagrees with them is an error, not an override.
    """
    if mode == "lossless":
        return Cdf53()
    if params is None:
        if weights is None:
            raise ValueError(f"mode {mode!r} needs weights")
        params = constant_params(weights)
    backend = CnnLifting(mode, params)
    if steps is not None and steps != len(backend._stages):
        raise ValueError(f"weights carry {len(backend._stages)} lifting steps, not {steps}")
    return backend
