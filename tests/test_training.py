import numpy as np
import pytest

from iwv3 import gradtape as gt
from iwv3 import models, training
from iwv3.gradtape import save_weights
from iwv3.imageio import ImagePlanes
from iwv3.quant import ALPHA_MAX, ALPHA_MIN
from iwv3.training import (
    LossReport,
    SgdMomentum,
    TrainConfig,
    TrainingError,
    e2e_soft_step,
    eval_rd,
    hard_finetune_step,
    loss_rd,
    online_optimize,
    pretrain_step,
    run_training,
    soft_rd_graph,
)

from conftest import natural_photo, perturbed_lossy_weights


def small_cfg(**kw):
    base = dict(stage1_steps=1, stage2_steps=1, stage3_steps=1,
                n_crops=4, batch=2, crop=32, seed=3)
    base.update(kw)
    return TrainConfig(**base)


def small_batch(cfg, seed=0):
    images = [natural_photo(48, 48, 60 + s) for s in range(2)]
    crops = training.make_crops(images, cfg, np.random.default_rng(seed))
    return np.stack(crops[: cfg.batch])[:, None]


class TestLossRd:
    def test_identical_images_zero_bits(self):
        img = np.ones((4, 4))
        rep = loss_rd(img, img, 0.0, 1.0)
        assert rep.total == 0.0

    def test_lambda_zero_total_is_bpp(self):
        a = np.zeros((2, 2))
        b = np.ones((2, 2))
        rep = loss_rd(a, b, 8.0, 1e-12)
        assert rep.bpp == 2.0
        assert rep.total == pytest.approx(2.0, abs=1e-9)

    def test_hand_frobenius_example(self):
        a = np.zeros((2, 2))
        b = np.array([[3.0, 4.0], [0.0, 0.0]])
        rep = loss_rd(a, b, 8.0, 1.0)
        assert rep.l_obj == pytest.approx(5.0)
        assert rep.bpp == pytest.approx(2.0)
        assert rep.total == pytest.approx(7.0)

    def test_normalized_variant(self):
        a = np.zeros((2, 2))
        b = np.array([[3.0, 4.0], [0.0, 0.0]])
        rep = loss_rd(a, b, 8.0, 1.0, normalize=True)
        assert rep.l_obj == pytest.approx(2.5)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="dimensions"):
            loss_rd(np.zeros((2, 2)), np.zeros((3, 2)), 0.0, 1.0)


class TestConfig:
    def test_round_trip(self):
        text = "mode = affine\nstage2_steps = 17\nlambda = 0.125  # rate weight\n"
        assert TrainConfig.parse(text) == TrainConfig(lam=0.125, stage2_steps=17,
                                                      mode="affine")

    def test_lambda_key_spelled_out(self):
        cfg = TrainConfig.parse("lambda = 0.25\nseed = 2\n")
        assert cfg.lam == 0.25
        assert cfg.seed == 2

    def test_comments_and_blank_lines(self):
        cfg = TrainConfig.parse("# header\n\nlambda = 0.5  # inline\n")
        assert cfg.lam == 0.5

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config key"):
            TrainConfig.parse("warp_speed = 9\n")

    def test_first_bad_line_is_reported(self):
        with pytest.raises(ValueError, match="config line 2: expected key=value"):
            TrainConfig.parse("seed = 1\nno equals sign\nnor here\n")
        with pytest.raises(ValueError, match="unknown config key 'warp'"):
            TrainConfig.parse("warp = 1\nspeed = 2\n")
        with pytest.raises(ValueError, match="invalid literal for int"):
            TrainConfig.parse("seed = one\nlambda = two\n")
        with pytest.raises(ValueError, match="could not convert string to float"):
            TrainConfig.parse("lambda = two\nseed = one\n")

    def test_validation(self):
        with pytest.raises(ValueError, match="lambda"):
            TrainConfig(lam=0.0)
        with pytest.raises(ValueError, match="steps"):
            TrainConfig(stage2_steps=0)
        # each a ValueError naming its key, from the config text as from
        # the constructor
        for key, value in [("mode", "lossless"), ("mode", "cubic"), ("levels", 0),
                           ("steps", 0), ("batch", 0), ("crop", 0), ("n_crops", 0),
                           ("dq_channels", 0), ("dq_groups", -1), ("dq_blocks", -1)]:
            with pytest.raises(ValueError, match=f"^{key} must be"):
                TrainConfig(**{key: value})
            with pytest.raises(ValueError, match=f"^{key} must be"):
                TrainConfig.parse(f"{key} = {value}\n")
        assert TrainConfig(dq_groups=0, dq_blocks=0).dq_net().groups == 0


class TestStageContracts:
    def test_zero_lr_leaves_weights_unchanged(self):
        cfg = small_cfg(lr1=0.0, lr2=0.0, lr3=0.0)
        weights = models.init_weights(cfg.mode, cfg.levels, seed=1)
        batch = small_batch(cfg)
        snapshot = save_weights(weights)
        opt = SgdMomentum()
        pretrain_step(batch, weights, cfg, opt)
        e2e_soft_step(batch, weights, cfg, opt, 2.0, np.random.default_rng(0))
        hard_finetune_step(batch, weights, cfg, opt, np.random.default_rng(1))
        assert save_weights(weights) == snapshot

    def test_stage1_freezes_transform_and_qsteps(self):
        cfg = small_cfg()
        weights = models.init_weights(cfg.mode, cfg.levels, seed=2)
        before = {n: weights.get(n).copy() for n in weights.names()
                  if n.startswith(("xf.", "q."))}
        opt = SgdMomentum()
        for _ in range(3):
            pretrain_step(small_batch(cfg), weights, cfg, opt)
        for name, arr in before.items():
            assert np.array_equal(weights.get(name), arr), name

    def test_stage1_trains_context_and_dequant(self):
        cfg = small_cfg()
        weights = models.init_weights(cfg.mode, cfg.levels, seed=2)
        ctx_before = weights.get("ctx.hl.h2.b").copy()
        opt = SgdMomentum()
        pretrain_step(small_batch(cfg), weights, cfg, opt)
        assert not np.array_equal(weights.get("ctx.hl.h2.b"), ctx_before)

    def test_stage3_freezes_transform_and_qsteps(self):
        cfg = small_cfg()
        weights = perturbed_lossy_weights(cfg.mode, cfg.levels, seed=4)
        before = {n: weights.get(n).copy() for n in weights.names()
                  if n.startswith(("xf.", "q."))}
        opt = SgdMomentum()
        rng = np.random.default_rng(5)
        for _ in range(3):
            hard_finetune_step(small_batch(cfg), weights, cfg, opt, rng)
        for name, arr in before.items():
            assert np.array_equal(weights.get(name), arr), name

    def test_stage2_touches_everything(self):
        cfg = small_cfg(lr2=1e-3)
        weights = models.init_weights(cfg.mode, cfg.levels, seed=6)
        before = {n: weights.get(n).copy() for n in weights.names()}
        opt = SgdMomentum()
        e2e_soft_step(small_batch(cfg), weights, cfg, opt, 2.0,
                      np.random.default_rng(7))
        changed = {prefix: False for prefix in ("xf.", "ctx.", "dq.", "q.")}
        for name, arr in before.items():
            if not np.array_equal(weights.get(name), arr):
                for prefix in changed:
                    if name.startswith(prefix):
                        changed[prefix] = True
        assert all(changed.values()), changed

    def test_offset_range_zero_is_plain_finetune(self):
        cfg = small_cfg(qstep_offset_range=0.0)
        weights = perturbed_lossy_weights(cfg.mode, cfg.levels, seed=8)
        opt = SgdMomentum()
        rep = hard_finetune_step(small_batch(cfg), weights, cfg, opt,
                                 np.random.default_rng(9))
        assert rep.finite()

    def test_non_finite_loss_aborts(self):
        cfg = small_cfg()
        weights = models.init_weights(cfg.mode, cfg.levels, seed=10)
        weights.set("dq.head.w", weights.get("dq.head.w") + 0.1)
        weights.set("dq.tail.w", weights.get("dq.tail.w") + 1e308)
        with pytest.raises(TrainingError, match="non-finite"):
            pretrain_step(small_batch(cfg), weights, cfg, SgdMomentum())

    # stage 1 still steps before it checks its loss (an open ROADMAP item)
    @pytest.mark.parametrize("stage", [2, 3])
    def test_non_finite_loss_leaves_weights_unchanged(self, stage, monkeypatch):
        log = gt.log
        monkeypatch.setattr(gt, "log", lambda a: gt.scale(log(a), float("nan")))
        cfg = small_cfg(batch=1, crop=16)
        weights = perturbed_lossy_weights(cfg.mode, cfg.levels, seed=14)
        snapshot = save_weights(weights)
        batch, opt, rng = small_batch(cfg), SgdMomentum(), np.random.default_rng(0)
        step = {2: lambda: e2e_soft_step(batch, weights, cfg, opt, 2.0, rng),
                3: lambda: hard_finetune_step(batch, weights, cfg, opt, rng)}[stage]
        with pytest.raises(TrainingError, match=f"non-finite loss in stage {stage}"):
            step()
        assert save_weights(weights) == snapshot


class TestSoftRdGraph:
    def _setup(self):
        cfg = small_cfg(batch=1, crop=16)
        weights = models.init_weights(cfg.mode, cfg.levels, seed=12)
        return cfg, weights, small_batch(cfg)

    def test_alpha_bounds_enforced(self):
        cfg, weights, batch = self._setup()
        for alpha in (ALPHA_MIN, ALPHA_MAX):
            soft_rd_graph(batch, weights, cfg, alpha, np.random.default_rng(0))
        for alpha in (1.5, 12.5):
            with pytest.raises(ValueError, match="alpha"):
                soft_rd_graph(batch, weights, cfg, alpha, np.random.default_rng(0))

    def test_reseeded_noise_reproduces_loss(self):
        cfg, weights, batch = self._setup()

        def report(seed):
            return soft_rd_graph(batch, weights, cfg, 4.0, np.random.default_rng(seed))[2]

        assert report(9) == report(9)
        assert report(9) != report(10)


class TestGeometryFromWeights:
    """Levels, lifting steps and the filter shape come from the weights;
    TrainConfig fields that disagree with them change nothing."""

    @staticmethod
    def _planes():
        rgb = natural_photo(32, 32, 1)
        return [np.asarray(p, dtype=np.float64)
                for p in ImagePlanes.from_rgb(rgb, 2).planes]

    @pytest.mark.parametrize("steps, mismatched", [
        (3, {}),
        (2, {"levels": 1}),
        (2, {"dq_groups": 1}),
        (2, {"dq_blocks": 1}),
    ], ids=["steps", "levels", "dq_groups", "dq_blocks"])
    def test_eval_rd_ignores_config_geometry(self, steps, mismatched):
        weights = perturbed_lossy_weights("additive", 2, seed=5, steps=steps)
        planes = self._planes()
        expect = eval_rd(weights, planes, TrainConfig(steps=steps))
        assert eval_rd(weights, planes, TrainConfig(**mismatched)) == expect

    def test_hard_finetune_step_runs_every_lifting_step(self):
        weights = perturbed_lossy_weights("additive", 2, seed=5, steps=3)
        batch = small_batch(small_cfg())
        results = []
        for cfg in (small_cfg(), small_cfg(steps=3)):
            w = weights.copy()
            report = hard_finetune_step(batch, w, cfg, SgdMomentum(),
                                        np.random.default_rng(4))
            results.append((report, save_weights(w)))
        assert results[0] == results[1]


class TestEndToEndGradient:
    def test_matches_finite_differences_with_frozen_noise(self):
        cfg = small_cfg(batch=1, crop=16)
        weights = perturbed_lossy_weights(cfg.mode, cfg.levels, seed=11,
                                          scale=0.05)
        batch = small_batch(cfg)[:1, :, :16, :16]
        alpha, noise_seed = 4.0, 123

        tape, total, _ = soft_rd_graph(batch, weights, cfg, alpha,
                                       np.random.default_rng(noise_seed))
        grads = tape.backward(total)

        def loss_at():
            _, t, _ = soft_rd_graph(batch, weights, cfg, alpha,
                                    np.random.default_rng(noise_seed))
            return float(t.data)

        h = 1e-4
        checked = 0
        for name, flat_idx in (("xf.p1.c1.w", 7), ("xf.u2.c2.w", 100),
                               ("q.ll.logq", 0), ("ctx.hl.h2.b", 8),
                               ("dq.tail.w", 3)):
            arr = weights.get(name)
            flat = arr.reshape(-1)
            orig = flat[flat_idx]
            flat[flat_idx] = orig + h
            weights.set(name, arr)
            hi = loss_at()
            flat[flat_idx] = orig - h
            weights.set(name, arr)
            lo = loss_at()
            flat[flat_idx] = orig
            weights.set(name, arr)
            num = (hi - lo) / (2 * h)
            ana = grads[name].reshape(-1)[flat_idx]
            denom = max(abs(num), abs(ana), 1e-7)
            assert abs(num - ana) / denom < 1e-2, (name, num, ana)
            checked += 1
        assert checked == 5


class TestSchedule:
    def test_determinism_bit_identical(self):
        images = [natural_photo(48, 48, 70)]
        cfg = small_cfg(stage1_steps=2, stage2_steps=2, stage3_steps=2)
        w1, _ = run_training(cfg, images)
        w2, _ = run_training(cfg, images)
        assert save_weights(w1) == save_weights(w2)

    def test_history_structure(self):
        images = [natural_photo(48, 48, 71)]
        cfg = small_cfg()
        _, history = run_training(cfg, images)
        assert len(history) == 3
        stages = [h[0] for h in history]
        assert stages == [1, 2, 3]
        assert all(isinstance(h[3], LossReport) for h in history)

    def test_alpha_schedule_recorded(self):
        images = [natural_photo(48, 48, 72)]
        cfg = small_cfg(stage2_steps=3)
        _, history = run_training(cfg, images)
        alphas = [h[2] for h in history if h[0] == 2]
        assert alphas[0] == 2.0
        assert alphas[-1] == 12.0

    def test_crops_tile_small_images(self):
        cfg = small_cfg(crop=64)
        images = [natural_photo(20, 20, 73)]
        crops = training.make_crops(images, cfg, np.random.default_rng(0))
        assert all(c.shape == (64, 64) for c in crops)


class TestMeasuredTraining:
    def test_stage1_rate_drops_20_percent(self, trained_toy):
        _, _, _, _, history = trained_toy
        rates = [h[3].bpp for h in history if h[0] == 1]
        first = float(np.mean(rates[:8]))
        last = float(np.mean(rates[-8:]))
        assert last <= 0.8 * first, (first, last)

    def test_stage2_total_drops_20_percent(self, trained_toy):
        _, _, _, _, history = trained_toy
        totals = [h[3].total for h in history if h[0] == 2]
        first = float(np.mean(totals[:8]))
        last = float(np.mean(totals[-8:]))
        assert last <= 0.8 * first, (first, last)

    def test_loss_reports_all_finite(self, trained_toy):
        _, _, _, _, history = trained_toy
        assert all(h[3].finite() for h in history)

    def test_trained_dequant_improves_mse(self, trained_toy):
        # measured against the stage that optimizes exactly this quantity:
        # the classical-transform reconstruction before and after the filter
        from iwv3.entropy import coding_order
        from iwv3.lifting import Cdf97, forward_pyramid, inverse_pyramid
        from iwv3.postproc import dequant_filter_plane
        from iwv3.quant import quantize

        cfg, images, snapshots, _, _ = trained_toy
        params = models.prepare(snapshots["stage1"]).params
        crops = training.make_crops(images, cfg, np.random.default_rng(cfg.seed))
        backend = Cdf97()
        for crop in crops[:4]:
            deq = forward_pyramid(backend, crop, cfg.levels)
            for level, kind in coding_order(cfg.levels):
                q = quantize(deq.get(level, kind), cfg.pretrain_qstep)
                deq.set(level, kind, q.astype(float) * cfg.pretrain_qstep)
            recon = inverse_pyramid(backend, deq)
            refined = dequant_filter_plane(cfg.dq_net(), params, recon)
            assert np.mean((refined - crop) ** 2) <= np.mean((recon - crop) ** 2)


class TestOnlineOptimize:
    def test_lr_zero_identity(self):
        weights = perturbed_lossy_weights("additive", 2, seed=20)
        rgb = natural_photo(16, 16, 21)
        out, before, after = online_optimize(rgb, weights, lr=0.0, iters=5)
        assert np.array_equal(out, rgb)
        assert after.total == before.total

    def test_zero_iters_identity(self):
        weights = perturbed_lossy_weights("additive", 2, seed=22)
        rgb = natural_photo(16, 16, 23)
        out, before, after = online_optimize(rgb, weights, lr=1e-3, iters=0)
        assert np.array_equal(out, rgb)

    def test_guarded_never_worse(self):
        weights = perturbed_lossy_weights("additive", 2, seed=24)
        rgb = natural_photo(24, 24, 25)
        out, before, after = online_optimize(rgb, weights, lr=2e-3, iters=6)
        assert after.total <= before.total
