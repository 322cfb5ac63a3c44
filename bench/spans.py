"""Spans recorded around calls into the iwv3 modules.

`Tracing(tracer)` replaces each traced function or method with a timing
wrapper, in every iwv3 module that holds a reference to it, and puts the
originals back on exit.  Untraced runs therefore execute the program's own
functions, with no wrapper left in the call path.

A span has an id, the id of the span that was open when it began (its
parent), the id of the benchmark operation it belongs to, a name, start and
end times, and its self time: its duration minus the time its child spans
cover.  Range-coder calls happen once per coded symbol; they are recorded as
per-parent aggregates (seconds and calls) instead of one span each, so the
trace stays small and the overhead low.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

from iwv3 import (entropy, gradtape, imageio, lifting, postproc, quant,
                  rangecoder, training)


class Tracer:
    """In-memory span recorder; nothing is written until the run ends."""

    def __init__(self):
        self.spans = []  # (id, parent id, op id, name, start, end, self_s, attrs)
        self.convs = {}  # (x shape, w shape) -> [calls, flop, bytes, seconds]
        self._stack = []  # open spans: [id, name, start, child_s, leaves]
        self._next_id = 0

    def begin(self, name: str) -> None:
        self._stack.append([self._next_id, name, perf_counter(), 0.0, None])
        self._next_id += 1

    def end(self, attrs: dict | None = None) -> float:
        """Close the innermost span; returns its duration."""
        end = perf_counter()
        span_id, name, start, child_s, leaves = self._stack.pop()
        duration = end - start
        parent_id = op_id = None
        if self._stack:
            parent = self._stack[-1]
            parent[3] += duration
            parent_id, op_id = parent[0], self._stack[0][0]
        attrs = dict(attrs or {})
        if leaves:
            attrs["leaves"] = {k: {"seconds": v[0], "calls": v[1]}
                               for k, v in leaves.items()}
        self.spans.append((span_id, parent_id, op_id, name, start, end,
                           duration - child_s, attrs))
        return duration

    def leaf(self, name: str, seconds: float) -> None:
        """Charge a per-symbol call to the innermost open span."""
        frame = self._stack[-1]
        frame[3] += seconds
        if frame[4] is None:
            frame[4] = {}
        acc = frame[4].setdefault(name, [0.0, 0])
        acc[0] += seconds
        acc[1] += 1

    def conv(self, x_shape, w_shape, seconds: float) -> None:
        n, c, h, w = x_shape
        o, _, kh, kw = w_shape
        flop = 2 * n * o * c * kh * kw * h * w
        nbytes = 8 * (n * c * (h + kh - 1) * (w + kw - 1) + o * c * kh * kw
                      + n * o * h * w)
        acc = self.convs.setdefault((tuple(x_shape), tuple(w_shape)), [0, 0, 0, 0.0])
        acc[0] += 1
        acc[1] += flop
        acc[2] += nbytes
        acc[3] += seconds


def _span(tracer, name, fn, attrs=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.begin(name)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            tracer.end(attrs(args, result) if attrs is not None else None)
    return wrapper


def _leaf(tracer, name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.leaf(name, perf_counter() - start)
    return wrapper


def _conv(tracer, fn):
    @functools.wraps(fn)
    def wrapper(x, w, b):
        tracer.begin("gradtape.conv2d")
        try:
            return fn(x, w, b)
        finally:
            tracer.conv(x.shape, w.shape, tracer.end({"x": list(x.shape),
                                                       "w": list(w.shape)}))
    return wrapper


def _scan_attrs(args, _result):
    codec = args[0]
    coded = codec.h * codec.w if codec.alphabet > 1 else 0
    return {"symbols": coded, "model_bits": codec.model_bits,
            "encode": len(args) > 2 and args[2] is not None}


def _module_sites(fn):
    """Every (iwv3 module, attribute name) that refers to `fn`."""
    sites = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "iwv3" or mod_name.startswith("iwv3.")):
            continue
        for attr, value in vars(mod).items():
            if value is fn:
                sites.append((mod, attr))
    return sites


def _plan(tracer):
    """(owner, attribute, replacement) for every traced call site."""
    plan = []

    def functions(fn, name, wrap=None):
        new = wrap(fn) if wrap else _span(tracer, name, fn)
        plan.extend((mod, attr, new) for mod, attr in _module_sites(fn))

    def method(cls, attr, name, attrs=None, leaf=False):
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            plan.append((cls, attr, classmethod(_span(tracer, name, raw.__func__, attrs))))
        elif leaf:
            plan.append((cls, attr, _leaf(tracer, name, raw)))
        else:
            plan.append((cls, attr, _span(tracer, name, raw, attrs)))

    method(imageio.ImagePlanes, "from_rgb", "imageio.color")
    method(imageio.ImagePlanes, "to_rgb", "imageio.color")
    functions(lifting.forward_pyramid, "lifting.forward")
    functions(lifting.inverse_pyramid, "lifting.inverse")
    # Only the name entropy imported: these calls are the cross-level context
    # synthesis, while inverse_pyramid's own calls stay inside lifting.inverse.
    plan.append((entropy, "inverse2d_level",
                 _span(tracer, "lifting.ctx_inverse", entropy.inverse2d_level)))
    functions(quant.quantize, "quant.quantize")
    method(entropy.SubbandCodec, "__init__", "entropy.ctx_setup")
    method(entropy.SubbandCodec, "run", "entropy.scan", attrs=_scan_attrs)
    method(entropy.Bitstream, "pack", "entropy.container")
    method(entropy.Bitstream, "unpack", "entropy.container")
    functions(entropy.weights_checksum, "entropy.container")
    method(rangecoder.RangeEncoder, "encode", "rangecoder.encode", leaf=True)
    method(rangecoder.RangeDecoder, "decode_target", "rangecoder.decode", leaf=True)
    method(rangecoder.RangeDecoder, "consume", "rangecoder.decode", leaf=True)
    functions(postproc.dequant_filter_plane, "postproc.filter")
    functions(gradtape._conv2d_raw, "gradtape.conv2d",
              wrap=lambda fn: _conv(tracer, fn))
    method(gradtape.Tape, "backward", "gradtape.backward")
    method(training.SgdMomentum, "step", "training.optimizer")
    return plan


class Tracing:
    """Context manager that installs the span wrappers and removes them."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved = []

    def __enter__(self):
        for owner, attr, new in _plan(self.tracer):
            self._saved.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, new)
        return self.tracer

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)
        return False
