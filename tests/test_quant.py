import math

import numpy as np
import pytest

from iwv3 import gradtape as gt
from iwv3.quant import (
    QuantGrid,
    anneal_alpha,
    dequantize,
    quantize,
    soft_round,
    soft_to_hard_quant,
)


class TestHardQuant:
    def test_qstep_one_is_identity_on_integers(self):
        grid = np.arange(-10, 11)
        assert np.array_equal(quantize(grid, 1.0), grid)

    def test_forced_arithmetic(self):
        assert quantize(np.array([2.6]), 0.5)[0] == 5

    def test_tie_half_away_from_zero(self):
        assert quantize(np.array([-1.25]), 0.5)[0] == -3
        assert quantize(np.array([1.25]), 0.5)[0] == 3

    def test_nonpositive_qstep_rejected(self):
        with pytest.raises(ValueError):
            quantize(np.zeros(3), 0.0)
        with pytest.raises(ValueError):
            dequantize(np.zeros(3, dtype=np.int32), -1.0)

    def test_dequantize_values(self):
        assert dequantize(np.array([0]), 2.0)[0] == 0.0
        assert dequantize(np.array([5]), 0.5)[0] == 2.5

    def test_quant_dequant_identity_on_integer_grids(self):
        rng = np.random.default_rng(0)
        v = rng.integers(-100, 100, 50)
        for q in (0.25, 1.0, 3.0):
            assert np.array_equal(quantize(dequantize(v, q), q), v)

    def test_error_bounded_by_half_step(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            q = float(rng.uniform(0.1, 20))
            c = rng.uniform(-1000, 1000, 200)
            err = np.abs(dequantize(quantize(c, q), q) - c)
            assert err.max() <= q / 2 + 1e-9


class TestSoftRound:
    def test_integer_fixed_points(self):
        for alpha in (2.0, 6.0, 12.0):
            for k in (-3.0, 0.0, 3.0):
                assert soft_round(k, alpha) == pytest.approx(k, abs=1e-12)

    def test_half_integer_symmetry_point(self):
        for alpha in (2.0, 6.0, 12.0):
            assert soft_round(0.5, alpha) == pytest.approx(0.5, abs=1e-12)

    def test_closed_form_value(self):
        # floor(0.75) + tanh(2*0.25)/(2*tanh(1)) + 0.5, evaluated directly
        expected = 0.5 * math.tanh(0.5) / math.tanh(1.0) + 0.5
        assert soft_round(0.75, 2.0) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.80339, abs=5e-5)

    def test_monotone_and_continuous(self):
        for alpha in (2.0, 6.0, 12.0):
            y = np.linspace(-3, 3, 10_000)
            s = soft_round(y, alpha)
            assert np.all(np.diff(s) > 0)
            # continuity across integers: small step, small jump
            assert np.abs(np.diff(s)).max() < 0.02

    def test_approaches_round_at_alpha_12(self):
        # the closed form gives gap = (1 - tanh(12 r)/tanh(6))/2 at distance r
        # from a half-integer: < 0.02 needs r > atanh(0.96 tanh 6)/12 = 0.1625
        y = np.linspace(-3, 3, 10_000)
        frac = np.abs(y - np.floor(y) - 0.5)
        gap = np.abs(soft_round(y, 12.0) - np.round(y))
        assert gap[frac > 0.17].max() < 0.02
        assert gap[frac > 0.1].max() < 0.09

    def test_gap_shrinks_pointwise_with_alpha(self):
        y = np.linspace(-3, 3, 10_000)
        frac = np.abs(y - np.floor(y) - 0.5)
        away = frac > 0.05
        gaps = [np.abs(soft_round(y, a) - np.round(y))[away].max()
                for a in (2.0, 6.0, 12.0)]
        assert gaps[0] > gaps[1] > gaps[2]

    def test_alpha_positive_required(self):
        with pytest.raises(ValueError):
            soft_round(0.3, 0.0)


class TestSoftToHard:
    def test_integer_double_fixed_point(self):
        for k in (-2.0, 0.0, 5.0):
            assert soft_to_hard_quant(k, 4.0, 0.0) == pytest.approx(k, abs=1e-9)

    def test_large_alpha_limit(self):
        assert soft_to_hard_quant(0.75, 12.0, 0.0) == pytest.approx(1.0, abs=0.02)

    def test_gradient_matches_finite_differences(self):
        alpha, y0, u = 2.0, 0.3, 0.11
        tape = gt.Tape()
        y = tape.leaf(np.array(y0), name="y", requires_grad=True)
        out = soft_to_hard_quant(y, alpha, u)
        grads = tape.backward(gt.tsum(out))
        h = 1e-6
        num = (soft_to_hard_quant(y0 + h, alpha, u)
               - soft_to_hard_quant(y0 - h, alpha, u)) / (2 * h)
        assert abs(grads["y"] - num) / max(abs(num), 1e-9) < 1e-3


class TestAnneal:
    def test_endpoints(self):
        assert anneal_alpha(0, 100) == 2.0
        assert anneal_alpha(100, 100) == 12.0

    def test_linear_midpoint(self):
        assert anneal_alpha(50, 100) == pytest.approx(7.0)

    def test_clamped_at_12(self):
        assert anneal_alpha(100, 100) <= 12.0

    def test_zero_total_rejected(self):
        with pytest.raises(ValueError):
            anneal_alpha(0, 0)


class TestQuantGrid:
    def test_uniform_lossless(self):
        grid = QuantGrid.uniform(2, 1.0)
        assert grid.channel_uniform()
        for (_, _, _), q in grid.items():
            assert q == 1.0

    def test_positive_enforced(self):
        with pytest.raises(ValueError):
            QuantGrid(1, {(0, 1, "LL"): 0.0})

    def test_scaled_offsets(self):
        grid = QuantGrid.uniform(1, 4.0)
        up = grid.scaled(0.25)
        assert up.qstep(0, 1, "HL") == pytest.approx(5.0)
        with pytest.raises(ValueError, match="offset"):
            grid.scaled(-1.0)

    def test_from_weights_channel_uniform(self):
        from iwv3 import models

        weights = models.init_weights("additive", 2, seed=0, init_qstep=8.0)
        grid = QuantGrid.from_weights(weights, 2)
        assert grid.channel_uniform()
        assert grid.qstep(1, 2, "LL") == pytest.approx(8.0)
        assert grid.qstep(2, 1, "HH") == pytest.approx(8.0)
