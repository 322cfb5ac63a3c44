"""Tests of the benchmark itself, on workloads small enough to run in seconds.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from iwv3 import entropy, gradtape, models, training  # noqa: E402


def tiny_codec(mode="lossless"):
    rng = np.random.default_rng(5)
    if mode == "lossless":
        weights, levels, offset = models.default_weights(), 3, 0.0
    else:
        weights = workloads.perturbed_lossy_weights(mode, 2, *workloads.LOSSY_WEIGHTS[mode])
        levels, offset = 2, 0.25
    item = workloads.CodecItem(workloads.photo(12, 18, 6.0, 1, rng), weights, mode,
                               levels, offset)
    return workloads.CodecWorkload([item], [])


def tiny_training():
    cfg = training.TrainConfig(batch=1, crop=16, n_crops=2, dq_channels=4)
    rng = np.random.default_rng(6)
    crop = workloads.photo(16, 16, 6.0, 2, rng)[..., 0].astype(np.float64)
    batches = {stage: [crop[None, None]] for stage in (1, 2, 3)}
    held_out = [crop[:8, :8].copy()]
    init = models.init_weights(cfg.mode, cfg.levels, seed=1, steps=cfg.steps,
                               dq=cfg.dq_net(), init_qstep=cfg.init_qstep)
    return workloads.TrainWorkload(cfg, init, batches, held_out, noise_seed=3)


def benchmark_json():
    return json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name, make", [("lossless-photo", tiny_codec),
                                        ("lossy-photo", lambda: tiny_codec("additive")),
                                        ("train-steps", tiny_training)])
def test_printed_metric_names_match_benchmark_json(name, make):
    spec = benchmark_json()
    workload = make()
    passes = run.measure(workload, 0.0)
    result, _ = run.summarize(name, workload, passes, None, 1.0)
    assert result["correct"], workload.failures
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert list(result["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    for m in spec["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0

    workload = make()
    tracer = spans.Tracer()
    passes = run.measure(workload, 0.0, tracer)
    result, record = run.summarize(name, workload, passes, tracer, 1.0)
    assert result["correct"], workload.failures
    assert list(result["metrics"]) == [m["name"] for m in spec["per_layer"]]
    for m in spec["per_layer"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert math.isfinite(result["metrics"][m["name"]]["value"])
    # every traced second belongs to exactly one layer or to pipeline.other_s
    layer_s = sum(v["value"] for k, v in result["metrics"].items()
                  if k.endswith("_s") and not k.startswith("trace.")
                  and k != "gradtape.conv2d_gflop_per_s")
    assert layer_s == pytest.approx(record["per_layer"]["trace.pass_s"], rel=1e-3)


def test_flipped_payload_byte_counts_as_failure(monkeypatch):
    pack = entropy.Bitstream.pack

    def flipped(self):
        data = bytearray(pack(self))
        data[len(data) - len(self.payloads[-1]) // 2] ^= 0xFF
        return bytes(data)

    monkeypatch.setattr(entropy.Bitstream, "pack", flipped)
    workload = tiny_codec()
    result, record = run.summarize("lossless-photo", workload,
                                   run.measure(workload, 0.0), None, 1.0)
    assert not result["correct"]
    assert result["failed"] >= 1 and record["error_rate"] > 0
    assert all(f["op"] == "decode" for f in record["failures"])


def test_non_finite_loss_counts_as_failure(monkeypatch):
    log = gradtape.log
    monkeypatch.setattr(gradtape, "log", lambda a: gradtape.scale(log(a), math.nan))
    workload = tiny_training()
    result, record = run.summarize("train-steps", workload,
                                   run.measure(workload, 0.0), None, 1.0)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
    assert any("non-finite" in f["error"] for f in record["failures"])


def test_tracing_restores_the_original_functions():
    tracer = spans.Tracer()
    plan = spans._plan(tracer)
    assert len(plan) >= 18
    before = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in plan]
    with pytest.raises(RuntimeError):
        with spans.Tracing(tracer):
            assert all(vars(owner)[attr] is not orig for owner, attr, orig in before)
            raise RuntimeError("leave the block early")
    assert all(vars(owner)[attr] is orig for owner, attr, orig in before)
