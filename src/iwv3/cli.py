"""Command-line interface: encode, decode, train, optimize, inspect.

Exit codes: 0 ok, 2 bad input (or an image too large to encode in memory),
3 weights mismatch, 4 I/O failure, 5 corrupt stream (or one too large to
decode in memory), 6 non-finite training loss.  Stats go to stdout as
space-separated key=value pairs; diagnostics go to stderr, one line.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from . import models, pipeline, training
from .entropy import (STREAM_VERSION, Bitstream, StreamError, WeightChecksumError,
                      coding_order)
from .gradtape import load_weights, save_weights
from .imageio import FormatError, read_ppm, write_ppm
from .models import WeightsError
from .rangecoder import RangeError

EXIT_BAD_INPUT = 2
EXIT_WEIGHTS = 3
EXIT_IO = 4
EXIT_STREAM = 5
EXIT_LOSS = 6


def _load_image(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        return read_ppm(fh.read())


def _load_weights_arg(path: str | None):
    if path is None:
        return models.default_weights()
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return load_weights(data)
    except ValueError as err:
        raise WeightsError(str(err)) from err


def cmd_encode(args) -> int:
    rgb = _load_image(args.input)
    if args.mode != "lossless" and args.weights is None:
        raise WeightsError(f"mode {args.mode} requires --weights")
    weights = _load_weights_arg(args.weights)
    start = time.monotonic()
    try:
        bs = pipeline.encode_rgb(rgb, weights, args.mode, levels=args.levels,
                                 qstep_offset=args.qstep_offset)
        packed = bs.pack()
    except MemoryError as err:
        raise ValueError(f"out of memory encoding the image: {err}") from None
    with open(args.output, "wb") as fh:
        fh.write(packed)
    elapsed = time.monotonic() - start
    bpp = pipeline.stream_bpp(packed, bs)
    print(f"mode={args.mode} levels={bs.levels} bytes={len(packed)} "
          f"bpp={bpp:.4f} time_s={elapsed:.3f}")
    return 0


def cmd_decode(args) -> int:
    with open(args.input, "rb") as fh:
        data = fh.read()
    weights = _load_weights_arg(args.weights)
    try:
        rgb = pipeline.decode_bytes(data, weights)
    except MemoryError as err:
        raise StreamError(f"out of memory decoding the stream: {err}") from None
    with open(args.output, "wb") as fh:
        fh.write(write_ppm(rgb))
    print(f"width={rgb.shape[1]} height={rgb.shape[0]}")
    return 0


def cmd_train(args) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        cfg = training.TrainConfig.parse(fh.read())
    env_seed = os.environ.get("IWV3_SEED")
    if env_seed is not None:
        cfg.seed = int(env_seed)
    names = sorted(os.listdir(args.data_dir))
    images = []
    for name in names:
        if name.lower().endswith(".ppm"):
            images.append(_load_image(os.path.join(args.data_dir, name)))
    if not images:
        raise FormatError(f"no readable .ppm images in {args.data_dir}")
    log_path = args.out_weights + ".log"
    with open(log_path, "w", encoding="utf-8") as log:
        def log_fn(step, alpha, report):
            log.write(f"{step}\t{alpha:.4f}\t{report.bpp:.6f}\t"
                      f"{report.l_obj:.6f}\t{report.total:.6f}\n")

        weights, history = training.run_training(cfg, images, log_fn=log_fn)
    with open(args.out_weights, "wb") as fh:
        fh.write(save_weights(weights))
    final = history[-1][3]
    print(f"steps={len(history)} bpp={final.bpp:.4f} l_obj={final.l_obj:.4f} "
          f"total={final.total:.4f}")
    return 0


def cmd_optimize(args) -> int:
    rgb = _load_image(args.input)
    weights = _load_weights_arg(args.weights)
    image, before, after = training.online_optimize(
        rgb, weights, lr=args.lr, iters=args.iters, lam=args.rd_lambda)
    with open(args.output, "wb") as fh:
        fh.write(write_ppm(image))
    print(f"rd_before={before.total:.6f} rd_after={after.total:.6f} "
          f"bpp_before={before.bpp:.4f} bpp_after={after.bpp:.4f}")
    return 0


def cmd_inspect(args) -> int:
    with open(args.input, "rb") as fh:
        data = fh.read()
    bs = Bitstream.unpack(data)
    print("magic=IWV3")
    print(f"version={STREAM_VERSION}")
    print(f"mode={bs.mode}")
    print(f"levels={bs.levels}")
    print(f"true_width={bs.true_width}")
    print(f"true_height={bs.true_height}")
    print(f"weight_checksum={bs.weight_checksum:#018x}")
    for (level, kind), (qstep, vmin, vmax) in zip(coding_order(bs.levels),
                                                  bs.subband_info):
        tag = f"{kind.lower()}{level}"
        print(f"{tag}.qstep={qstep}")
        print(f"{tag}.min={vmin}")
        print(f"{tag}.max={vmax}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="iwv3",
                                     description="wavelet-style image codec")
    sub = parser.add_subparsers(dest="verb", required=True)

    enc = sub.add_parser("encode", help="compress a PPM image")
    enc.add_argument("input")
    enc.add_argument("output")
    enc.add_argument("--mode", choices=("lossless", "additive", "affine"),
                     default="lossless")
    enc.add_argument("--levels", type=int, default=None,
                     help="transform levels (default: 3, or the trained value)")
    enc.add_argument("--weights", default=None)
    enc.add_argument("--qstep-offset", type=float, default=0.0,
                     help="relative step offset; positive lowers the bitrate")
    enc.add_argument("--threads", type=int, default=1, help="accepted; has no effect")
    enc.set_defaults(run=cmd_encode)

    dec = sub.add_parser("decode", help="decompress a stream to PPM")
    dec.add_argument("input")
    dec.add_argument("output")
    dec.add_argument("--weights", default=None)
    dec.set_defaults(run=cmd_decode)

    tr = sub.add_parser("train", help="run the three-stage training schedule")
    tr.add_argument("config")
    tr.add_argument("data_dir")
    tr.add_argument("out_weights")
    tr.set_defaults(run=cmd_train)

    opt = sub.add_parser("optimize", help="online-optimize an image for a model")
    opt.add_argument("input")
    opt.add_argument("output")
    opt.add_argument("--weights", required=True)
    opt.add_argument("--lr", type=float, default=1e-3)
    opt.add_argument("--iters", type=int, default=100)
    opt.add_argument("--lambda", dest="rd_lambda", type=float, default=0.05)
    opt.set_defaults(run=cmd_optimize)

    ins = sub.add_parser("inspect", help="dump a stream header")
    ins.add_argument("input")
    ins.set_defaults(run=cmd_inspect)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # checked in order, first match wins, as in a chain of except clauses
    exit_codes = ((WeightsError, EXIT_WEIGHTS), (WeightChecksumError, EXIT_WEIGHTS),
                  (StreamError, EXIT_STREAM), (RangeError, EXIT_STREAM),
                  (training.TrainingError, EXIT_LOSS), (FormatError, EXIT_BAD_INPUT),
                  (OSError, EXIT_IO), (ValueError, EXIT_BAD_INPUT))
    try:
        return args.run(args)
    except tuple(kind for kind, _ in exit_codes) as err:
        print(f"error: {err}", file=sys.stderr)
        return next(code for kind, code in exit_codes if isinstance(err, kind))


if __name__ == "__main__":
    sys.exit(main())
