import hashlib
import threading

import numpy as np
import pytest

from iwv3 import entropy, gradtape, lifting, models, pipeline
from iwv3.entropy import StreamError, WeightChecksumError, coding_order, decode_image
from iwv3.gradtape import load_weights, save_weights
from iwv3.imageio import ImagePlanes
from iwv3.lifting import forward_pyramid, make_backend
from iwv3.quant import quantize
from iwv3.training import TrainConfig, eval_rd

from conftest import active_head_weights, natural_photo, perturbed_lossy_weights


class TestLossless:
    def test_golden_stream(self):
        # The SHA-256 of one lossless stream under the built-in weights.  It
        # may change only together with entropy.STREAM_VERSION.
        packed = pipeline.encode_rgb(natural_photo(40, 56, 3), models.default_weights(),
                                     "lossless").pack()
        assert hashlib.sha256(packed).hexdigest() == (
            "f82b59f6fef387e4e041e7f8c1ef567f36127e4bbbfe7be8d108b465ba09a503")

    def test_static_model_encoder_builds_no_context(self, monkeypatch):
        # Under the built-in (all-static) model nothing reads the long-term
        # context, so the encoder synthesizes none of its levels; the stream
        # is the golden one.
        calls = []

        def counted(*args, _inverse=entropy.inverse2d_level):
            calls.append(1)
            return _inverse(*args)

        monkeypatch.setattr(entropy, "inverse2d_level", counted)
        rgb = natural_photo(40, 56, 3)
        bs = pipeline.encode_rgb(rgb, models.default_weights(), "lossless", levels=3)
        assert bs.levels == 3 and calls == []
        packed = bs.pack()
        assert hashlib.sha256(packed).hexdigest() == (
            "f82b59f6fef387e4e041e7f8c1ef567f36127e4bbbfe7be8d108b465ba09a503")
        assert np.array_equal(pipeline.decode_bytes(packed, models.default_weights()), rgb)
        assert len(calls) == 3 * 2  # the decoder's contexts are its reconstruction

    def test_golden_wide_alphabet_streams(self):
        # Random pixels spread the built-in model's subbands over up to 1133
        # values.  The SHA-256 of the streams and of their per-subband model
        # bits may change only together with entropy.STREAM_VERSION.
        weights = models.default_weights()
        rng = np.random.default_rng(2024)
        streams, bits = hashlib.sha256(), hashlib.sha256()
        for height, width in [(64, 64), (33, 17), (96, 40)]:
            rgb = rng.integers(0, 256, (height, width, 3), dtype=np.uint8)
            bs = pipeline.encode_rgb(rgb, weights, "lossless")
            packed = bs.pack()
            assert np.array_equal(pipeline.decode_bytes(packed, weights), rgb)
            streams.update(packed)
            bits.update(np.array(bs.stats["subband_bits"]).tobytes())
        assert streams.hexdigest() == (
            "4dfa2062d871374c50b3eb22f376bf88e541c3d95708cace3d82810c975945ec")
        assert bits.hexdigest() == (
            "404c02112d9270f13b735c86fe156068014c1318b1159a978dddfc0165882ddd")

    def test_golden_active_head_stream(self):
        # Every context head's last layer is N(0, 0.05) noise, so every
        # subband takes the wavefront path: LL3 spans 222 values and is
        # decoded by the bracket search, the others by range-coder runs.  The
        # SHA-256 of the stream and of its per-subband model bits may change
        # only together with entropy.STREAM_VERSION.
        weights = active_head_weights(3)
        assert not any(cw["static"] for cw in models.prepare(weights).context_arrays.values())
        rgb = natural_photo(40, 56, 3)
        bs = pipeline.encode_rgb(rgb, weights, "lossless")
        alphabets = [vmax - vmin + 1 for _, vmin, vmax in bs.subband_info]
        assert max(alphabets) > entropy.SEARCH_FANOUT >= max(alphabets[1:])
        packed = bs.pack()
        assert hashlib.sha256(packed).hexdigest() == (
            "64f535d09d7109f58f7648839adf8e68d40e058a59dd5c6f05389d6fe185def6")
        assert hashlib.sha256(np.array(bs.stats["subband_bits"]).tobytes()).hexdigest() == (
            "9636fc47d5cb6accb937943cd813625a89d3ecbb8285b045fdb584f340977f7a")
        image = pipeline.decode_bytes(packed, weights)
        assert hashlib.sha256(image.tobytes()).hexdigest() == (
            "bf4dbb788cb2678bd54c90ee45c4b5370465da270ee09b4dc124d240db6cb3fd")

    def test_round_trip_byte_identical(self):
        rng = np.random.default_rng(0)
        weights = models.default_weights()
        for _ in range(8):
            h, w = int(rng.integers(1, 40)), int(rng.integers(1, 40))
            rgb = rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
            packed = pipeline.encode_rgb(rgb, weights, "lossless", levels=3).pack()
            assert np.array_equal(pipeline.decode_bytes(packed, weights), rgb)

    def test_photo_round_trip_and_rate(self):
        weights = models.default_weights()
        photo = natural_photo(64, 96, 3)
        bs = pipeline.encode_rgb(photo, weights, "lossless", levels=3)
        packed = bs.pack()
        assert np.array_equal(pipeline.decode_bytes(packed, weights), photo)
        assert pipeline.stream_bpp(packed, bs) < 24.0

    def test_offset_rejected_for_lossless(self):
        weights = models.default_weights()
        rgb = np.zeros((4, 4, 3), dtype=np.uint8)
        with pytest.raises(ValueError, match="offset"):
            pipeline.encode_rgb(rgb, weights, "lossless", levels=2, qstep_offset=0.5)


def assert_decodes_encoder_quantization(rgb, weights, mode, steps):
    """decode_image returns exactly the encoder's quantized pyramids."""
    bs = pipeline.encode_rgb(rgb, weights, mode)
    _, pyramids = decode_image(bs.pack(), weights)
    grid = pipeline.build_quantgrid(weights, mode, 2)
    planes = ImagePlanes.from_rgb(rgb, 2)
    backend = make_backend(mode, weights=weights, steps=steps)
    for ch, plane in enumerate(planes.planes):
        pyr = forward_pyramid(backend, plane.astype(np.float64), 2)
        for level, kind in coding_order(2):
            expect = quantize(pyr.get(level, kind), grid.qstep(ch, level, kind))
            assert np.array_equal(expect, pyramids[ch].get(level, kind))


class TestLossy:
    @pytest.mark.parametrize("mode, stream_sha, image_sha", [
        ("additive", "9edcd7feb24158a2e4ba943812d2b7c2cc2b54c450a34834e6090d22cc5b9999",
         "be593d7fcbdf176ecae9ba781d384dab1f0ab318b8219c9fa9473131df158da1"),
        ("affine", "00447c03fbd971a16af3f28637d6549fd7af5b75d6e16a48b5e2bc9ac1a2a3d4",
         "e86e53e7125bb2fa4c529f4f3a58f6365a5507d108b91dbc98a04e9ca70db93e"),
    ])
    def test_golden_lossy_stream_and_image(self, mode, stream_sha, image_sha):
        # Every lifting, post-filter and L_t conv feeds these bits, so they
        # pin the forward conv end to end.  They may change only together
        # with entropy.STREAM_VERSION.
        weights = perturbed_lossy_weights(mode, 2, seed=4)
        packed = pipeline.encode_rgb(natural_photo(40, 56, 3), weights, mode).pack()
        assert hashlib.sha256(packed).hexdigest() == stream_sha
        image = pipeline.decode_bytes(packed, weights)
        assert hashlib.sha256(image.tobytes()).hexdigest() == image_sha

    @pytest.mark.parametrize("mode, expect", [
        ("additive", (4.74635830948628, 4.760137643761105, 4.9843651916743354)),
        ("affine", (4.191498480261597, 19.301149229195836, 5.156555941721389)),
    ])
    def test_golden_eval_rd(self, mode, expect):
        # eval_rd runs the context net as full-grid convs, which the codec
        # does not; its floats are pinned exactly.
        planes = [np.asarray(p, dtype=np.float64)
                  for p in ImagePlanes.from_rgb(natural_photo(32, 32, 1), 2).planes]
        report = eval_rd(perturbed_lossy_weights(mode, 2, seed=4), planes,
                         TrainConfig(mode=mode))
        assert (report.bpp, report.l_obj, report.total) == expect

    @pytest.mark.parametrize("mode", ["additive", "affine"])
    def test_decode_matches_encoder_quantization(self, mode):
        rng = np.random.default_rng(1)
        weights = perturbed_lossy_weights(mode, 2, seed=5)
        rgb = rng.integers(0, 256, (11, 14, 3), dtype=np.uint8)
        assert_decodes_encoder_quantization(rgb, weights, mode, 2)

    @pytest.mark.parametrize("steps", [1, 3])
    def test_decoder_takes_step_count_from_weights(self, steps):
        weights = perturbed_lossy_weights("additive", 2, seed=5, steps=steps)
        assert_decodes_encoder_quantization(natural_photo(24, 24, 12), weights,
                                            "additive", steps)

    def test_reconstruction_quality_sane(self):
        weights = perturbed_lossy_weights("additive", 2, seed=6)
        photo = natural_photo(48, 48, 7)
        bs = pipeline.encode_rgb(photo, weights, "additive")
        recon = pipeline.decode_bytes(bs.pack(), weights)
        assert recon.shape == photo.shape
        rmse = float(np.sqrt(np.mean((recon.astype(float) - photo) ** 2)))
        assert rmse < 30.0  # coarse 16-step quantization, near-lazy transform

    def test_qstep_offset_changes_rate(self):
        weights = perturbed_lossy_weights("additive", 2, seed=8)
        photo = natural_photo(40, 40, 9)
        sizes = []
        for offset in (-0.2, 0.0, 0.5):
            bs = pipeline.encode_rgb(photo, weights, "additive", qstep_offset=offset)
            sizes.append(len(bs.pack()))
        assert sizes[0] > sizes[1] > sizes[2]

    @pytest.mark.parametrize("mode, stream_sha, image_sha", [
        ("additive", "9e43c9581b205b1a35374c09a298f9ce82d06615cde0a9c08e3a9e4c5172d990",
         "b3082c374d0eeeacb5ef5556ef186435967f1361783a2e47a02716c80028af26"),
        ("affine", "efb3a700fd708262a0d10e8fda7f3b45145ae3dcfb65977c97c867ee11b8883c",
         "17b6ebfd405f9d70407b67f2b296ee0724bbd06e32b9e0c2f4a4d67a916875dd"),
    ], ids=["additive", "affine"])
    def test_round_trip_is_the_same_with_bands_in_turn(self, mode, stream_sha, image_sha,
                                                       monkeypatch):
        # A 96x96 photo's full-resolution planes take bands (two on a 2-CPU
        # machine).  Bytes and decoded image are those of the whole-plane
        # products (the SHA-256 pins, which may change only together with
        # entropy.STREAM_VERSION) and of the bands run in turn by the
        # caller, and round trips start no thread beyond the pool's workers.
        weights = perturbed_lossy_weights(mode, 2, seed=5)
        photo = natural_photo(96, 96, 11)
        before = threading.active_count()
        trips = []
        for _ in range(10):
            packed = pipeline.encode_rgb(photo, weights, mode).pack()
            trips.append((packed, pipeline.decode_bytes(packed, weights)))
        workers = 0 if gradtape._image_pool() is None else gradtape._usable_cpus() - 1
        assert threading.active_count() <= before + workers
        monkeypatch.setattr(gradtape, "_image_pool", lambda: None)
        packed = pipeline.encode_rgb(photo, weights, mode).pack()
        decoded = pipeline.decode_bytes(packed, weights)
        assert hashlib.sha256(packed).hexdigest() == stream_sha
        assert hashlib.sha256(decoded.tobytes()).hexdigest() == image_sha
        for got, image in trips:
            assert got == packed
            assert np.array_equal(image, decoded)

    def test_effective_qstep_survives_header_rounding(self):
        weights = perturbed_lossy_weights("additive", 2, seed=10)
        grid = pipeline.build_quantgrid(weights, "additive", 2, qstep_offset=0.123)
        for (_, _, _), q in grid.items():
            assert q == float(np.float32(q))


class TestPreparedModel:
    """One Model per weight set: the weights-only work of encode and decode
    is done once, and any change to the weights starts a new Model."""

    def test_one_checksum_and_context_build_per_weight_set(self, monkeypatch):
        saves, builds = [], []

        def counted_save(weights, _save=entropy.save_weights):
            saves.append(1)
            return _save(weights)

        def counted_extract(weights, kind, _extract=entropy.extract_context_arrays):
            builds.append(kind)
            return _extract(weights, kind)

        monkeypatch.setattr(entropy, "save_weights", counted_save)
        monkeypatch.setattr(entropy, "extract_context_arrays", counted_extract)
        weights = models.default_weights()
        for seed in range(3):
            rgb = natural_photo(12, 20, seed)
            packed = pipeline.encode_rgb(rgb, weights, "lossless").pack()
            assert np.array_equal(pipeline.decode_bytes(packed, weights), rgb)
        assert len(saves) == 1
        assert sorted(builds) == sorted(lifting.SUBBAND_KINDS)

    def test_set_gives_the_next_stream_the_new_checksum(self):
        weights = models.default_weights()
        rgb = natural_photo(12, 20, 4)
        old = pipeline.encode_rgb(rgb, weights, "lossless").pack()
        weights.set("ctx.hh.h2.b", weights["ctx.hh.h2.b"] + 0.5)
        bs = pipeline.encode_rgb(rgb, weights, "lossless")
        assert bs.weight_checksum == entropy.weights_checksum(weights)
        assert bs.weight_checksum != entropy.Bitstream.unpack(old).weight_checksum
        assert np.array_equal(pipeline.decode_bytes(bs.pack(), weights), rgb)
        with pytest.raises(WeightChecksumError):
            pipeline.decode_bytes(old, weights)

    def test_copies_and_reloads_get_their_own_model(self):
        weights = perturbed_lossy_weights("additive", 2, seed=5)
        model = models.prepare(weights)
        assert models.prepare(weights) is model
        for other in (weights.copy(), load_weights(save_weights(weights))):
            assert models.prepare(other) is not model
            assert models.prepare(other).checksum == model.checksum

    def test_model_computes_from_the_values_it_was_built_from(self):
        weights = models.default_weights()
        model = models.prepare(weights)
        weights.set("ctx.ll.h2.b", weights["ctx.ll.h2.b"] + 1.0)
        assert model.checksum == entropy.weights_checksum(models.default_weights())
        assert models.prepare(weights) is not model

    @pytest.mark.xfail(strict=True, raises=StreamError,
                       reason="ROADMAP item 2: the header checksum hashes the float32 "
                              "serialization, and the coder computes with float64 values")
    def test_float32_reload_decodes_what_float64_weights_encoded(self):
        weights = perturbed_lossy_weights("additive", 2, seed=4)
        reloaded = load_weights(save_weights(weights))
        assert models.prepare(reloaded).checksum == models.prepare(weights).checksum
        rgb = natural_photo(40, 56, 3)
        packed = pipeline.encode_rgb(rgb, weights, "additive").pack()
        assert np.array_equal(pipeline.decode_bytes(packed, reloaded),
                              pipeline.decode_bytes(packed, weights))


class TestGeometry:
    def test_1x1_image(self):
        weights = models.default_weights()
        rgb = np.array([[[200, 10, 60]]], dtype=np.uint8)
        packed = pipeline.encode_rgb(rgb, weights, "lossless", levels=3).pack()
        assert np.array_equal(pipeline.decode_bytes(packed, weights), rgb)

    def test_odd_sizes_all_levels(self):
        weights = models.default_weights()
        rng = np.random.default_rng(11)
        for levels in (1, 2, 4):
            rgb = rng.integers(0, 256, (7, 9, 3), dtype=np.uint8)
            packed = pipeline.encode_rgb(
                rgb, weights, "lossless", levels=levels).pack()
            assert np.array_equal(pipeline.decode_bytes(packed, weights), rgb)


class TestSingleSynthesis:
    """Each plane's inverse transform runs once: the long-term context
    inverts levels L..2 while coding, and one more level finishes it."""

    @staticmethod
    def _count_inverse_levels(monkeypatch):
        calls = []
        real = lifting.inverse2d_level

        def counted(*args):
            calls.append(1)
            return real(*args)

        for module in (entropy, lifting):
            monkeypatch.setattr(module, "inverse2d_level", counted)
        return calls

    @pytest.mark.parametrize("mode, levels", [("lossless", 2), ("lossless", 3),
                                              ("additive", 2)])
    def test_decode_inverts_each_level_once_per_plane(self, mode, levels, monkeypatch):
        weights = (models.default_weights() if mode == "lossless"
                   else perturbed_lossy_weights(mode, levels, seed=4))
        packed = pipeline.encode_rgb(natural_photo(24, 40, 2), weights, mode,
                                     levels=levels).pack()
        calls = self._count_inverse_levels(monkeypatch)
        pipeline.decode_bytes(packed, weights)
        assert len(calls) == 3 * levels

    @pytest.mark.parametrize("levels", [2, 3])
    def test_eval_rd_inverts_each_level_once_per_plane(self, levels, monkeypatch):
        planes = [np.asarray(p, dtype=np.float64)
                  for p in ImagePlanes.from_rgb(natural_photo(32, 32, 1), levels).planes]
        weights = perturbed_lossy_weights("additive", levels, seed=4)
        calls = self._count_inverse_levels(monkeypatch)
        eval_rd(weights, planes[:2], TrainConfig(mode="additive", levels=levels))
        assert len(calls) == 2 * levels
