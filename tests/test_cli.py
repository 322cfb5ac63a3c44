import os
import resource
import subprocess
import sys

import numpy as np
import pytest

from iwv3 import models
from iwv3.cli import main
from iwv3.entropy import Bitstream, coding_order
from iwv3.gradtape import ModelWeights, save_weights
from iwv3.imageio import read_ppm, write_ppm

from conftest import active_head_weights, natural_photo, perturbed_lossy_weights


@pytest.fixture()
def workdir(tmp_path):
    return tmp_path


def _write_image(path, rgb):
    path.write_bytes(write_ppm(rgb))


def _read_image(path):
    return read_ppm(path.read_bytes())


def _cli_in_subprocess(args, address_space=None):
    """Run `iwv3 <args>` in its own process, so every stderr line is seen,
    with its address space limited to `address_space` bytes if given."""
    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (address_space,) * 2)

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    return subprocess.run(
        [sys.executable, "-m", "iwv3.cli", *map(str, args)],
        capture_output=True, text=True, env=env, timeout=120,
        preexec_fn=None if address_space is None else limit_address_space)


def _decode_in_subprocess(stream, out, address_space, *options):
    return _cli_in_subprocess(["decode", stream, out, *options], address_space)


def _encode_in_subprocess(src, out, *options, address_space=None):
    return _cli_in_subprocess(["encode", src, out, *options], address_space)


def _assert_bad_input_one_line(proc, out):
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
    assert not out.exists()


class TestEncodeDecode:
    def test_lossless_cycle_byte_identical(self, workdir, capsys):
        rgb = natural_photo(20, 30, 1)
        src = workdir / "in.ppm"
        _write_image(src, rgb)
        stream = workdir / "out.iwv3"
        out = workdir / "back.ppm"
        assert main(["encode", str(src), str(stream)]) == 0
        stats = capsys.readouterr().out
        assert "bpp=" in stats and "time_s=" in stats
        assert main(["decode", str(stream), str(out)]) == 0
        assert out.read_bytes() == write_ppm(rgb)

    def test_threads_option_has_no_effect(self, workdir):
        src = workdir / "in.ppm"
        _write_image(src, natural_photo(20, 30, 1))
        default, threaded = workdir / "a.iwv3", workdir / "b.iwv3"
        assert main(["encode", str(src), str(default)]) == 0
        assert main(["encode", str(src), str(threaded), "--threads", "3"]) == 0
        assert threaded.read_bytes() == default.read_bytes()

    def test_lossy_requires_weights(self, workdir, capsys):
        src = workdir / "in.ppm"
        _write_image(src, natural_photo(8, 8, 2))
        rc = main(["encode", str(src), str(workdir / "o.iwv3"), "--mode", "additive"])
        assert rc == 3
        assert "error:" in capsys.readouterr().err

    def test_lossy_cycle_with_weights(self, workdir):
        weights = perturbed_lossy_weights("additive", 2, seed=3)
        wpath = workdir / "model.iwtw"
        wpath.write_bytes(save_weights(weights))
        src = workdir / "in.ppm"
        _write_image(src, natural_photo(16, 16, 4))
        stream = workdir / "out.iwv3"
        out = workdir / "back.ppm"
        assert main(["encode", str(src), str(stream), "--mode", "additive",
                     "--weights", str(wpath)]) == 0
        assert main(["decode", str(stream), str(out),
                     "--weights", str(wpath)]) == 0
        assert _read_image(out).shape == (16, 16, 3)

    def test_uncodable_range_is_bad_input_exit_2(self, workdir, capsys):
        # A valid image whose coefficients this model spreads over more
        # values than the range coder can signal: bad input, not a corrupt
        # stream.
        wpath = workdir / "w.iwtw"
        wpath.write_bytes(save_weights(perturbed_lossy_weights("affine", 2, seed=12)))
        src = workdir / "in.ppm"
        _write_image(src, natural_photo(16, 16, 21))
        stream = workdir / "s.iwv3"
        rc = main(["encode", str(src), str(stream), "--mode", "affine",
                   "--weights", str(wpath)])
        assert rc == 2
        assert "model cannot code this image" in capsys.readouterr().err
        assert not stream.exists()

    @pytest.mark.parametrize("offset", ["inf", "1e38", "nan"])
    def test_step_the_header_cannot_carry_exit_2(self, offset, workdir):
        # 1e38 is finite, but 16 * (1 + 1e38) overflows the header's float32
        wpath = workdir / "w.iwtw"
        wpath.write_bytes(save_weights(perturbed_lossy_weights("additive", 2, seed=5)))
        src, out = workdir / "in.ppm", workdir / "s.iwv3"
        _write_image(src, natural_photo(8, 8, 7))
        proc = _encode_in_subprocess(src, out, "--mode", "additive", "--weights", str(wpath),
                                     f"--qstep-offset={offset}")
        _assert_bad_input_one_line(proc, out)
        assert "step" in proc.stderr and "LL2" in proc.stderr

    @pytest.mark.parametrize("logq", [200.0, 1000.0])
    def test_trained_step_the_header_cannot_carry_exit_2(self, logq, workdir):
        weights = perturbed_lossy_weights("additive", 2, seed=5)
        weights.set("q.l1.hh.logq", logq)
        wpath = workdir / "w.iwtw"
        wpath.write_bytes(save_weights(weights))
        src, out = workdir / "in.ppm", workdir / "s.iwv3"
        _write_image(src, natural_photo(8, 8, 7))
        proc = _encode_in_subprocess(src, out, "--mode", "additive", "--weights", str(wpath))
        _assert_bad_input_one_line(proc, out)
        assert "HH1" in proc.stderr

    def test_levels_past_the_geometry_cap_exit_2_before_padding(self, workdir):
        src, out = workdir / "in.ppm", workdir / "s.iwv3"
        _write_image(src, natural_photo(16, 16, 7))
        proc = _encode_in_subprocess(src, out, "--levels", "20")
        _assert_bad_input_one_line(proc, out)
        assert "cap" in proc.stderr

    def test_wrong_weights_checksum_exit_3(self, workdir, capsys):
        weights = perturbed_lossy_weights("additive", 2, seed=5)
        other = perturbed_lossy_weights("additive", 2, seed=6)
        wpath, opath = workdir / "w.iwtw", workdir / "o.iwtw"
        wpath.write_bytes(save_weights(weights))
        opath.write_bytes(save_weights(other))
        src = workdir / "in.ppm"
        _write_image(src, natural_photo(8, 8, 7))
        stream = workdir / "s.iwv3"
        assert main(["encode", str(src), str(stream), "--mode", "additive",
                     "--weights", str(wpath)]) == 0
        out = workdir / "b.ppm"
        assert main(["decode", str(stream), str(out),
                     "--weights", str(opath)]) == 3
        assert not out.exists()
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["encode", "optimize"])
    def test_weights_without_dequant_filter_exit_3(self, verb, workdir, capsys):
        full = perturbed_lossy_weights("additive", 2, seed=5)
        weights = ModelWeights()
        for name, values in full.items():
            if not name.startswith("dq."):
                weights.add(name, values)
        wpath = workdir / "w.iwtw"
        wpath.write_bytes(save_weights(weights))
        src = workdir / "in.ppm"
        _write_image(src, natural_photo(8, 8, 7))
        args = {"encode": ["--mode", "additive"], "optimize": ["--iters", "1"]}[verb]
        rc = main([verb, str(src), str(workdir / "out"), "--weights", str(wpath)] + args)
        assert rc == 3
        assert "dequantization filter" in capsys.readouterr().err

    def test_truncated_stream_exit_5(self, workdir, capsys):
        src = workdir / "in.ppm"
        _write_image(src, natural_photo(16, 16, 8))
        stream = workdir / "s.iwv3"
        assert main(["encode", str(src), str(stream)]) == 0
        data = stream.read_bytes()
        stream.write_bytes(data[: len(data) - 15])
        rc = main(["decode", str(stream), str(workdir / "b.ppm")])
        assert rc == 5
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [b"IWTW", b"IWTW\x01\x02"])
    def test_truncated_weights_exit_3(self, content, workdir, capsys):
        src = workdir / "in.ppm"
        _write_image(src, natural_photo(8, 8, 3))
        stream = workdir / "s.iwv3"
        assert main(["encode", str(src), str(stream)]) == 0
        wpath = workdir / "w.iwtw"
        wpath.write_bytes(content)
        capsys.readouterr()
        out = workdir / "b.ppm"
        assert main(["decode", str(stream), str(out), "--weights", str(wpath)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "truncated" in err
        assert not out.exists()

    def test_non_finite_weights_exit_3_with_one_line(self, workdir):
        src = workdir / "in.ppm"
        _write_image(src, np.random.default_rng(8).integers(0, 256, (16, 16, 3),
                                                            dtype=np.uint8))
        weights = models.default_weights()
        weights.set("ctx.ll.h2.b", np.full_like(weights.get("ctx.ll.h2.b"), np.nan))
        wpath = workdir / "nan.iwtw"
        wpath.write_bytes(save_weights(weights))
        out = workdir / "o.iwv3"
        # in a subprocess, so that a numpy warning would reach stderr
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run(
            [sys.executable, "-m", "iwv3.cli", "encode", str(src), str(out),
             "--weights", str(wpath)],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 3
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert "ctx.ll.h2.b" in proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        assert not out.exists()

    def test_bad_input_exit_2(self, workdir, capsys):
        bad = workdir / "bad.ppm"
        bad.write_bytes(b"JUNKJUNK")
        rc = main(["encode", str(bad), str(workdir / "o.iwv3")])
        assert rc == 2
        capsys.readouterr()

    def test_missing_file_exit_4(self, workdir, capsys):
        rc = main(["encode", str(workdir / "nope.ppm"), str(workdir / "o.iwv3")])
        assert rc == 4
        capsys.readouterr()

    def test_qstep_offset_monotone_rate(self, workdir, capsys):
        weights = perturbed_lossy_weights("additive", 2, seed=9)
        wpath = workdir / "w.iwtw"
        wpath.write_bytes(save_weights(weights))
        src = workdir / "in.ppm"
        _write_image(src, natural_photo(32, 32, 10))
        sizes = []
        for idx, offset in enumerate(("0", "0.5")):
            stream = workdir / f"s{idx}.iwv3"
            assert main(["encode", str(src), str(stream), "--mode", "additive",
                         "--weights", str(wpath),
                         "--qstep-offset", offset]) == 0
            sizes.append(stream.stat().st_size)
        capsys.readouterr()
        assert sizes[1] <= sizes[0]


class TestInspect:
    def test_field_count_and_magic(self, workdir, capsys):
        src = workdir / "in.ppm"
        _write_image(src, natural_photo(9, 9, 11))
        stream = workdir / "s.iwv3"
        assert main(["encode", str(src), str(stream), "--levels", "3"]) == 0
        capsys.readouterr()
        assert main(["inspect", str(stream)]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if "=" in l]
        levels = 3
        assert lines[0] == "magic=IWV3"
        assert lines[1] == "version=2"
        assert len(lines) == 7 + 3 * (3 * levels + 1)

    def test_trailing_byte_exit_5(self, workdir, capsys):
        src = workdir / "in.ppm"
        _write_image(src, natural_photo(9, 9, 11))
        stream = workdir / "s.iwv3"
        assert main(["encode", str(src), str(stream)]) == 0
        stream.write_bytes(stream.read_bytes() + b"\0")
        assert main(["inspect", str(stream)]) == 5
        assert "trailing" in capsys.readouterr().err

    def test_version_1_stream_exit_5(self, workdir, capsys):
        src = workdir / "in.ppm"
        _write_image(src, natural_photo(9, 9, 11))
        stream = workdir / "s.iwv3"
        assert main(["encode", str(src), str(stream)]) == 0
        data = bytearray(stream.read_bytes())
        data[4] = 1  # the version byte follows the magic
        stream.write_bytes(bytes(data))
        capsys.readouterr()
        assert main(["decode", str(stream), str(workdir / "b.ppm")]) == 5
        assert "unsupported stream version 1" in capsys.readouterr().err

    def test_forged_huge_geometry_exit_5_in_bounded_memory(self, workdir, capsys):
        src = workdir / "in.ppm"
        _write_image(src, natural_photo(16, 16, 12))
        stream = workdir / "s.iwv3"
        assert main(["encode", str(src), str(stream)]) == 0
        bs = Bitstream.unpack(stream.read_bytes())
        bs.true_width = bs.true_height = 60000
        stream.write_bytes(bs.pack())
        proc = _decode_in_subprocess(stream, workdir / "b.ppm", 2_000_000 * 1024)
        assert proc.returncode == 5, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "cap" in proc.stderr

    @staticmethod
    def _forge_2048_stream(workdir, *options):
        """A 16x16 lossless stream, its header forged to 2048x2048 at one
        level and its payloads to 64 random bytes each."""
        src = workdir / "in.ppm"
        _write_image(src, natural_photo(16, 16, 12))
        stream = workdir / "s.iwv3"
        assert main(["encode", str(src), str(stream), "--levels", "1", *options]) == 0
        bs = Bitstream.unpack(stream.read_bytes())
        bs.true_width = bs.true_height = 2048
        rng = np.random.default_rng(7)
        bs.payloads = [rng.bytes(64) for _ in bs.payloads]
        stream.write_bytes(bs.pack())
        return stream

    def test_out_of_memory_decoding_exit_5(self, workdir, capsys):
        # Under the geometry cap, but the L_t branch of a 1024x1024 subband
        # needs more memory than the limit allows: the weights' context
        # heads are active, so the codec runs it.
        wpath = workdir / "ctx.iwtw"
        wpath.write_bytes(save_weights(active_head_weights(1)))
        stream = self._forge_2048_stream(workdir, "--weights", str(wpath))
        proc = _decode_in_subprocess(stream, workdir / "b.ppm", 1_500_000 * 1024,
                                     "--weights", str(wpath))
        assert proc.returncode == 5, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert "memory" in proc.stderr

    def test_out_of_memory_encoding_exit_2(self, workdir):
        # The weights' context heads are active, so the encoder runs the L_t
        # branch, and for a 1024x1024 subband that needs more memory than
        # the limit allows.
        src = workdir / "in.ppm"
        rng = np.random.default_rng(3)
        _write_image(src, rng.integers(0, 256, (2048, 2048, 3), dtype=np.uint8))
        wpath = workdir / "ctx.iwtw"
        wpath.write_bytes(save_weights(active_head_weights(1)))
        out = workdir / "s.iwv3"
        proc = _encode_in_subprocess(src, out, "--levels", "1", "--weights", wpath,
                                     address_space=1_500_000 * 1024)
        _assert_bad_input_one_line(proc, out)
        assert proc.stderr.startswith("error: out of memory encoding the image: ")

    def test_builtin_model_decodes_forged_geometry_in_bounded_memory(self, workdir, capsys):
        # The built-in model's static prior needs no L_t branch: the same
        # forged stream runs out of payload, not of memory.
        stream = self._forge_2048_stream(workdir)
        proc = _decode_in_subprocess(stream, workdir / "b.ppm", 1_500_000 * 1024)
        assert proc.returncode == 5, proc.stderr
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert "payload" in proc.stderr
        assert "memory" not in proc.stderr

    @pytest.mark.parametrize("qstep", [2.0, float("inf")])
    def test_forged_lossless_step_exit_5(self, qstep, workdir, capsys):
        src = workdir / "in.ppm"
        _write_image(src, natural_photo(32, 32, 13))
        stream = workdir / "s.iwv3"
        assert main(["encode", str(src), str(stream)]) == 0
        bs = Bitstream.unpack(stream.read_bytes())
        bs.subband_info[0] = (qstep,) + bs.subband_info[0][1:]
        stream.write_bytes(bs.pack())
        capsys.readouterr()
        out = workdir / "b.ppm"
        for args in (["decode", str(stream), str(out)], ["inspect", str(stream)]):
            assert main(args) == 5
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["lossless", "additive", "affine"])
    def test_mode_its_weights_do_not_carry_exit_3(self, mode, workdir, capsys):
        # The checksum covers the weights, not the header: a stream relabelled
        # to a lossy mode its weights carry no nets for is a weights mismatch.
        # Relabelled lossless, a lossy stream's step 16 is refused first.
        src = workdir / "in.ppm"
        _write_image(src, natural_photo(16, 16, 14))
        stream = workdir / "s.iwv3"
        options = []
        if mode != "lossless":
            wpath = workdir / "w.iwtw"
            wpath.write_bytes(save_weights(perturbed_lossy_weights(mode, 2, seed=5)))
            options = ["--weights", str(wpath)]
        assert main(["encode", str(src), str(stream), "--mode", mode, *options]) == 0
        data = stream.read_bytes()
        capsys.readouterr()
        out = workdir / "b.ppm"
        for code, other in enumerate(("lossless", "additive", "affine")):
            if other == mode:
                continue
            stream.write_bytes(data[:5] + bytes([code]) + data[6:])  # the mode byte
            assert main(["decode", str(stream), str(out), *options]) == (
                5 if other == "lossless" else 3), other
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
            if {mode, other} == {"additive", "affine"}:
                assert err == f"error: weights hold the {mode} transform, not {other}\n"
            assert not out.exists()

    def test_corrupt_magic_exit_5(self, workdir, capsys):
        bad = workdir / "bad.iwv3"
        bad.write_bytes(b"XXXX" + bytes(60))
        assert main(["inspect", str(bad)]) == 5
        capsys.readouterr()


class TestTrainCli:
    def test_smoke_single_steps_and_determinism(self, workdir, capsys):
        data = workdir / "data"
        data.mkdir()
        for s in range(2):
            _write_image(data / f"img{s}.ppm", natural_photo(48, 48, 20 + s))
        cfg = workdir / "train.cfg"
        cfg.write_text(
            "mode = additive\nlevels = 2\nstage1_steps = 1\nstage2_steps = 1\n"
            "stage3_steps = 1\nn_crops = 4\nbatch = 2\ncrop = 32\nseed = 5\n")
        out1 = workdir / "w1.iwtw"
        out2 = workdir / "w2.iwtw"
        assert main(["train", str(cfg), str(data), str(out1)]) == 0
        assert main(["train", str(cfg), str(data), str(out2)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()
        assert (workdir / "w1.iwtw.log").exists()
        log_lines = (workdir / "w1.iwtw.log").read_text().strip().splitlines()
        assert len(log_lines) == 3
        assert all(len(line.split("\t")) == 5 for line in log_lines)
        # the produced weights load and encode
        src = workdir / "in.ppm"
        _write_image(src, natural_photo(16, 16, 30))
        assert main(["encode", str(src), str(workdir / "s.iwv3"),
                     "--mode", "additive", "--weights", str(out1)]) == 0
        capsys.readouterr()

    def test_seed_env_override(self, workdir, capsys, monkeypatch):
        data = workdir / "data"
        data.mkdir()
        _write_image(data / "img.ppm", natural_photo(48, 48, 40))
        cfg = workdir / "train.cfg"
        cfg.write_text(
            "mode = additive\nlevels = 2\nstage1_steps = 1\nstage2_steps = 1\n"
            "stage3_steps = 1\nn_crops = 4\nbatch = 2\ncrop = 32\nseed = 5\n")
        out_a = workdir / "a.iwtw"
        out_b = workdir / "b.iwtw"
        assert main(["train", str(cfg), str(data), str(out_a)]) == 0
        monkeypatch.setenv("IWV3_SEED", "99")
        assert main(["train", str(cfg), str(data), str(out_b)]) == 0
        capsys.readouterr()
        assert out_a.read_bytes() != out_b.read_bytes()

    def test_empty_data_dir_exit_2(self, workdir, capsys):
        data = workdir / "data"
        data.mkdir()
        cfg = workdir / "t.cfg"
        cfg.write_text("stage1_steps = 1\n")
        assert main(["train", str(cfg), str(data), str(workdir / "w.iwtw")]) == 2
        capsys.readouterr()


class TestOptimizeCli:
    def test_identity_when_lr_zero(self, workdir, capsys):
        weights = perturbed_lossy_weights("additive", 2, seed=12)
        wpath = workdir / "w.iwtw"
        wpath.write_bytes(save_weights(weights))
        src = workdir / "in.ppm"
        rgb = natural_photo(16, 16, 13)
        _write_image(src, rgb)
        out = workdir / "opt.ppm"
        assert main(["optimize", str(src), str(out), "--weights", str(wpath),
                     "--lr", "0", "--iters", "3"]) == 0
        stats = capsys.readouterr().out
        assert "rd_before=" in stats and "rd_after=" in stats
        assert np.array_equal(_read_image(out), rgb)

    def test_identity_when_zero_iters(self, workdir, capsys):
        weights = perturbed_lossy_weights("additive", 2, seed=14)
        wpath = workdir / "w.iwtw"
        wpath.write_bytes(save_weights(weights))
        src = workdir / "in.ppm"
        rgb = natural_photo(16, 16, 15)
        _write_image(src, rgb)
        out = workdir / "opt.ppm"
        assert main(["optimize", str(src), str(out), "--weights", str(wpath),
                     "--iters", "0"]) == 0
        capsys.readouterr()
        assert np.array_equal(_read_image(out), rgb)
