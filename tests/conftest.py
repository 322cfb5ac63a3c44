"""Shared fixtures: synthetic photos, perturbed lossy models, trained toy model."""

import numpy as np
import pytest
from scipy.ndimage import gaussian_filter

from iwv3 import models, training


def natural_photo(height, width, seed):
    """Deterministic photo-like image: smooth structures plus mild texture."""
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:height, 0:width].astype(np.float64)
    img = np.zeros((height, width, 3))
    for c in range(3):
        base = (
            120
            + 60 * np.sin(xx / 19 + 1.3 * c) * np.cos(yy / 27 - 0.8 * c)
            + 35 * np.sin((xx + 2 * yy) / 43 + c)
            + 0.15 * xx
            - 0.1 * yy
        )
        texture = gaussian_filter(rng.normal(0, 9, (height, width)), sigma=1.2)
        img[..., c] = base + texture
    return np.clip(img, 0, 255).astype(np.uint8)


def perturbed_lossy_weights(mode, levels, seed, scale=0.02, init_qstep=16.0,
                            steps=models.DEFAULT_STEPS):
    """Init weights with small noise everywhere, so nets are active but tame.

    Raw-scale heads get a 10x gentler perturbation: the trunk features they
    see are large, and trained models keep multiplicative scales near one.
    """
    weights = models.init_weights(mode, levels, seed=seed, init_qstep=init_qstep,
                                  steps=steps)
    rng = np.random.default_rng(seed + 1000)
    for name in weights.names():
        if name.startswith("q."):
            continue
        arr = weights.get(name)
        sigma = scale * (0.1 if ".hr." in name else 1.0)
        weights.set(name, arr + rng.normal(0, sigma, arr.shape))
    return weights


def active_head_weights(levels):
    """Lossless weights whose every context head's last layer is N(0, 0.05)
    noise, so each table depends on the context net's matrix products (fresh
    weights have a zero h2.w, which the codec codes as the static prior)."""
    weights = models.init_weights("lossless", levels, seed=7)
    rng = np.random.default_rng(7)
    for name in weights.names():
        if name.startswith("ctx.") and name.endswith(".h2.w"):
            weights.set(name, rng.normal(0, 0.05, weights[name].shape))
    return weights


@pytest.fixture(scope="session")
def photos():
    return [natural_photo(88, 120, s) for s in range(5)]


@pytest.fixture(scope="session")
def toy_config():
    return training.TrainConfig()


@pytest.fixture(scope="session")
def trained_toy(toy_config):
    """One full three-stage toy training run, shared across test modules.

    Returns (config, images, stage-boundary snapshots, trained weights,
    history); snapshots carry 'init' and 'stage1'..'stage3' weight copies.
    """
    images = [natural_photo(96, 96, 100 + s) for s in range(3)]
    snapshots = {}
    weights, history = training.run_training(toy_config, images,
                                             snapshots=snapshots)
    return toy_config, images, snapshots, weights, history
