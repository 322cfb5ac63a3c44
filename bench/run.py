"""iwv3 benchmark: one seeded workload, measured for a fixed time.

    python3 bench/run.py --workload lossless-photo --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports the codec from `src/`.  The
last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  With `--trace 0` the metrics are the end-to-end
ones of BENCHMARK.json; with `--trace 1` they are the per-layer ones, from
passes run under span tracing that alternate with untraced passes.  The
full record (environment, per-operation times, stream digest, per-subband
bits, per-shape conv table, spans) goes to bench/results/.  See
bench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

START = perf_counter()

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPEATS = 3
# One BLAS thread, pinned before numpy loads: the codec scan is single
# threaded Python, and a second BLAS thread did not shorten a training
# step on a 2-CPU machine.
BLAS_THREADS = 1
TRAIN_KINDS = ("stage1", "stage2", "stage3")
LAYER_OF_SPAN = {
    "imageio.color": "imageio.color_s",
    "lifting.forward": "lifting.forward_s",
    "lifting.inverse": "lifting.inverse_s",
    "lifting.ctx_inverse": "lifting.ctx_inverse_s",
    "quant.quantize": "quant.quantize_s",
    "entropy.ctx_setup": "entropy.ctx_setup_s",
    "entropy.scan": "entropy.scan_s",
    "entropy.container": "entropy.container_s",
    "postproc.filter": "postproc.filter_s",
    "gradtape.conv2d": "gradtape.conv2d_s",
    "gradtape.backward": "gradtape.backward_s",
    "training.optimizer": "training.optimizer_s",
    "op.stage1": "training.graph_s",
    "op.stage2": "training.graph_s",
    "op.stage3": "training.graph_s",
    "op.encode": "pipeline.other_s",
    "op.decode": "pipeline.other_s",
    "op.eval": "pipeline.other_s",
}

PER_LAYER_UNITS = {
    "imageio.color_s": "s",
    "lifting.forward_s": "s",
    "lifting.inverse_s": "s",
    "lifting.ctx_inverse_s": "s",
    "quant.quantize_s": "s",
    "entropy.ctx_setup_s": "s",
    "entropy.scan_s": "s",
    "entropy.symbols": "count",
    "entropy.scan_us_per_symbol": "us",
    "entropy.model_bits": "bit",
    "entropy.payload_bytes": "B",
    "entropy.overhead_ratio": "ratio",
    "entropy.container_s": "s",
    "rangecoder.encode_s": "s",
    "rangecoder.decode_s": "s",
    "rangecoder.calls": "count",
    "postproc.filter_s": "s",
    "gradtape.conv2d_s": "s",
    "gradtape.conv2d_calls": "count",
    "gradtape.conv2d_flop": "flop",
    "gradtape.conv2d_bytes": "B",
    "gradtape.conv2d_gflop_per_s": "Gflop/s",
    "gradtape.backward_s": "s",
    "training.graph_s": "s",
    "training.optimizer_s": "s",
    "pipeline.other_s": "s",
    "trace.pass_s": "s",
    "trace.untraced_pass_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_ratio": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description="iwv3 benchmark")
    parser.add_argument("--workload", required=True,
                        choices=("lossless-photo", "lossy-photo", "train-steps"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def blas_record() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    record = {"name": blas.get("name"), "version": blas.get("version"),
              "pinned_threads": BLAS_THREADS, "threads": None}
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        libs = []
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                record["threads"] = fn()
                return record
    return record


def git_commit():
    """HEAD of the checkout's git repository, when it has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "iwv3").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas_record(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "src_sha256": src.hexdigest(),
        "seed": seed,
    }


def layer_metrics(tracer, traced, untraced, quality) -> dict:
    n = len(traced)
    totals = dict.fromkeys(LAYER_OF_SPAN.values(), 0.0)
    totals.update({"rangecoder.encode_s": 0.0, "rangecoder.decode_s": 0.0})
    calls = symbols = 0
    model_bits = 0.0
    for _, _, _, name, _, _, self_s, attrs in tracer.spans:
        totals[LAYER_OF_SPAN[name]] += self_s
        for leaf, acc in attrs.get("leaves", {}).items():
            totals[leaf + "_s"] += acc["seconds"]
            calls += acc["calls"]
        if name == "entropy.scan":
            symbols += attrs["symbols"]
            if attrs["encode"]:
                model_bits += attrs["model_bits"]
    conv_calls = sum(v[0] for v in tracer.convs.values())
    conv_flop = sum(v[1] for v in tracer.convs.values())
    conv_bytes = sum(v[2] for v in tracer.convs.values())
    per_pass = {k: v / n for k, v in totals.items()}
    payload_bytes = quality.get("payload_bytes", 0)
    # Compare the operation kinds traced passes run: the first pass of
    # train-steps also evaluates.  Wall-clock overhead is within the
    # machine's noise; in probe units the comparison is steadier.
    kinds = {op.kind for p in traced for op in p.ops}

    def mean_pass(passes, per_op):
        return statistics.mean(sum(per_op(op) for op in p.ops if op.kind in kinds)
                               for p in passes)

    traced_s = mean_pass(traced, lambda op: op.seconds)
    untraced_s = mean_pass(untraced, lambda op: op.seconds)
    ratio = (mean_pass(traced, lambda op: op.seconds / op.probe_s)
             / mean_pass(untraced, lambda op: op.seconds / op.probe_s)) - 1.0
    per_pass.update({
        "entropy.symbols": symbols / n,
        "entropy.scan_us_per_symbol": (1e6 * totals["entropy.scan_s"] / symbols
                                       if symbols else 0.0),
        "entropy.model_bits": model_bits / n,
        "entropy.payload_bytes": payload_bytes,
        "entropy.overhead_ratio": (8 * payload_bytes / (model_bits / n)
                                   if model_bits else 0.0),
        "rangecoder.calls": calls / n,
        "gradtape.conv2d_calls": conv_calls / n,
        "gradtape.conv2d_flop": conv_flop / n,
        "gradtape.conv2d_bytes": conv_bytes / n,
        "gradtape.conv2d_gflop_per_s": (conv_flop / totals["gradtape.conv2d_s"] / 1e9
                                        if conv_flop else 0.0),
        "trace.pass_s": traced_s,
        "trace.untraced_pass_s": untraced_s,
        "trace.overhead_s": traced_s - untraced_s,
        "trace.overhead_ratio": ratio,
    })
    return per_pass


def conv_table(tracer, n) -> list:
    rows = []
    for (x_shape, w_shape), (calls, flop, nbytes, seconds) in sorted(
            tracer.convs.items(), key=lambda kv: -kv[1][3]):
        rows.append({"x": list(x_shape), "w": list(w_shape), "calls": calls / n,
                     "flop_computed": flop / n, "bytes_computed": nbytes / n,
                     "seconds": seconds / n,
                     "gflop_per_s": flop / seconds / 1e9 if seconds else None})
    return rows


def measure(workload, seconds: float, tracer=None) -> list:
    """Run passes, closed loop, until `seconds` have passed.

    The first pass is always whole: it sets the reference outputs.  Later
    untraced passes stop at the deadline, between two operations.  With a
    tracer, whole untraced and traced passes alternate (at least one of
    each), so per-layer figures are per pass and the difference between
    the two kinds of pass is the tracing overhead.
    """
    import spans

    passes = []
    deadline = perf_counter() + seconds
    while True:
        if tracer is not None and len(passes) % 2 == 1:
            with spans.Tracing(tracer):
                passes.append(workload.run_pass(tracer))
        elif tracer is None and passes:
            passes.append(workload.run_pass(deadline=deadline))
        else:
            passes.append(workload.run_pass())
        if perf_counter() >= deadline and len(passes) >= (2 if tracer else 1):
            return passes


def summarize(name, workload, passes, tracer, setup_s) -> tuple:
    """The printed result and the full record of a run."""
    import workloads

    untraced = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    quality = workload.quality()
    ops = [op for p in passes for op in p.ops]
    attempted = len(ops)
    failed = sum(not op.ok for op in ops)
    kinds = TRAIN_KINDS if name == "train-steps" else None
    end_to_end = {
        "setup_s": (setup_s, "s"),
        "px_per_probe": (workloads.probe_rate(untraced, kinds), "px/probe"),
        "bpp": (quality.get("bpp", 0.0), "bit/px"),
        "rd_cost": (quality.get("rd_cost", 0.0), "loss"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    record = {
        "workload": name,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted if attempted else None,
        "failures": workload.failures,
        "end_to_end": {k: v for k, (v, _) in end_to_end.items()},
        "kpx_per_s": workloads.rate(untraced, kinds),
        "op_kinds": {
            kind: {"median_s": workloads.median_op_seconds(untraced, kind),
                   "kpx_per_s": workloads.rate(untraced, (kind,)),
                   "px_per_probe": workloads.probe_rate(untraced, (kind,))}
            for kind in sorted({op.kind for op in ops})},
        "quality": quality,
        "passes": [{"traced": p.traced, "seconds": p.seconds,
                    "ops": [vars(op) for op in p.ops]} for p in passes],
    }
    if tracer is not None:
        layers = layer_metrics(tracer, traced, untraced, quality)
        record["per_layer"] = layers
        record["conv_table"] = conv_table(tracer, len(traced))
        record["spans"] = [
            {"id": s[0], "parent": s[1], "op": s[2], "name": s[3], "start": s[4],
             "end": s[5], "self_s": s[6], **s[7]} for s in tracer.spans]
        metrics = {k: {"value": layers[k], "unit": unit}
                   for k, unit in PER_LAYER_UNITS.items()}
    else:
        metrics = {k: {"value": value, "unit": unit}
                   for k, (value, unit) in end_to_end.items()}
    result = {"correct": attempted > 0 and failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, record


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "iwv3" / "__init__.py").is_file():
        print(f"error: no iwv3 source under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    import spans
    import workloads

    import_s = perf_counter() - START
    setups = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        workload = workloads.WORKLOADS[args.workload](args.seed)
        workload.warm_up()
        setups.append(perf_counter() - start)
    setup_s = import_s + statistics.median(setups)

    tracer = spans.Tracer() if args.trace else None
    passes = measure(workload, args.seconds, tracer)
    result, record = summarize(args.workload, workload, passes, tracer, setup_s)
    record.update({"seconds": args.seconds, "trace": args.trace,
                   "environment": environment(args.seed),
                   "setup": {"import_s": import_s, "repeats_s": setups}})

    out_dir = BENCH_DIR / "results"
    out_dir.mkdir(exist_ok=True)
    out = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(f"record: {out.relative_to(ROOT)}")
    for row in record.get("conv_table", []):
        print("conv x={x} w={w} calls={calls:g} flop={flop_computed:.4g} "
              "bytes={bytes_computed:.4g} s={seconds:.4g}".format(**row))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
