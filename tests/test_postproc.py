import numpy as np
import pytest

from iwv3 import models
from iwv3.gradtape import Tensor
from iwv3.postproc import DequantNet, dequant_filter, dequant_filter_plane


def zero_dq_weights(net=DequantNet()):
    weights = {}
    for name, shape in net.weight_shapes().items():
        weights[name] = np.zeros(shape)
    return weights


class TestDequantFilter:
    def test_zero_weights_identity_bit_for_float(self):
        net = DequantNet()
        params = {n: Tensor(v) for n, v in zero_dq_weights(net).items()}
        plane = np.random.default_rng(0).normal(100, 30, (1, 1, 9, 11))
        out = dequant_filter(net, params, Tensor(plane))
        assert np.array_equal(out.data, plane)

    def test_shape_preserved_and_deterministic(self):
        net = DequantNet()
        rng = np.random.default_rng(1)
        params = {n: Tensor(rng.normal(0, 0.1, s))
                  for n, s in net.weight_shapes().items()}
        plane = rng.normal(0, 50, (1, 1, 8, 8))
        a = dequant_filter(net, params, Tensor(plane)).data
        b = dequant_filter(net, params, Tensor(plane)).data
        assert a.shape == plane.shape
        assert np.array_equal(a, b)

    def test_missing_weights_rejected(self):
        net = DequantNet()
        with pytest.raises(ValueError, match="incomplete"):
            dequant_filter(net, {}, Tensor(np.zeros((1, 1, 4, 4))))

    def test_plane_wrapper(self):
        weights = models.init_weights("additive", 2, seed=0)
        net = models.infer_dq_shape(weights)
        plane = np.random.default_rng(2).normal(0, 10, (6, 6))
        out = dequant_filter_plane(net, models.prepare(weights).params, plane)
        assert out.shape == plane.shape
        # zero-initialized tail keeps the filter an identity
        assert np.array_equal(out, plane)

    def test_paper_scale_geometry_constructible(self):
        net = DequantNet(groups=10, blocks=10, channels=32)
        shapes = net.weight_shapes()
        assert shapes["dq.g10.b10.c2.w"] == (32, 32, 3, 3)
        assert len([n for n in shapes if ".c1.w" in n]) == 100


class TestModelWiring:
    def test_infer_round_trip(self):
        for mode in ("additive", "affine"):
            weights = models.init_weights(mode, 3, seed=1)
            assert models.infer_transform_kind(weights) == mode
            assert models.infer_levels(weights) == 3
            assert models.infer_steps(weights) == 2
            net = models.infer_dq_shape(weights)
            assert (net.groups, net.blocks, net.channels) == (2, 2, 16)

    def test_validate_accepts_matching(self):
        weights = models.init_weights("additive", 2, seed=2)
        levels, steps, dq = models.validate_weights(weights, "additive")
        assert levels == 2 and steps == 2

    def test_validate_rejects_wrong_mode(self):
        weights = models.init_weights("additive", 2, seed=3)
        with pytest.raises(ValueError, match="additive"):
            models.validate_weights(weights, "affine")

    def test_validate_rejects_wrong_levels(self):
        weights = models.init_weights("additive", 2, seed=4)
        with pytest.raises(ValueError, match="levels"):
            models.validate_weights(weights, "additive", levels=3)

    def test_validate_rejects_missing_tensor(self):
        from iwv3.gradtape import ModelWeights

        weights = models.init_weights("additive", 2, seed=5)
        trimmed = ModelWeights()
        for name in weights.names():
            if name != "dq.tail.w":
                trimmed.add(name, weights.get(name))
        with pytest.raises(ValueError, match="missing"):
            models.validate_weights(trimmed, "additive")

    def test_default_weights_are_context_only(self):
        weights = models.default_weights()
        assert all(n.startswith("ctx.") for n in weights.names())
        models.validate_weights(weights, "lossless")

    def test_lossless_validation_ignores_transform(self):
        weights = models.init_weights("affine", 2, seed=6)
        models.validate_weights(weights, "lossless")
