"""Monte-Carlo residual-variance estimation for a black-box denoiser."""

import numpy as np
import pytest
from scipy import ndimage

import patchprior.sure as sure_module
from patchprior import ImageBuffer, SureConfig, add_gaussian_noise, estimate_sigma_tilde_sq


@pytest.fixture
def unfloored(monkeypatch):
    """Floor the estimate at 0 instead of 1, to read it raw."""
    monkeypatch.setattr(sure_module, "FLOOR", 0.0)


class TestConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError, match="probes"):
            SureConfig(probes=0)


class TestIdentityDenoiser:
    def test_exact_algebraic_value(self, unfloored):
        # identity denoiser: residual term is 0, divergence is the probe's
        # squared norm exactly, so the estimate is a closed-form function of
        # the probe vector alone
        rng = np.random.default_rng(0)
        img = ImageBuffer(rng.uniform(0.0, 255.0, (32, 32)))
        sigma = 20.0
        cfg = SureConfig(seed=5)
        est = estimate_sigma_tilde_sq(img, sigma, lambda im: im.pixels, cfg)
        b = np.random.default_rng(5).standard_normal((32, 32))
        n = img.pixels.size
        expect = -sigma ** 2 + (2.0 * sigma ** 2 / n) * float((b * b).sum())
        assert est == pytest.approx(expect, rel=1e-9)

    def test_near_sigma_squared_on_average(self, unfloored):
        # E[estimate] = sigma^2 for the identity map; chi-square concentration
        rng = np.random.default_rng(1)
        img = ImageBuffer(rng.uniform(0.0, 255.0, (64, 64)))
        sigma = 30.0
        vals = [estimate_sigma_tilde_sq(img, sigma, lambda im: im.pixels,
                                        SureConfig(seed=s))
                for s in range(10)]
        assert np.mean(vals) == pytest.approx(sigma ** 2, rel=0.05)


class TestConstantDenoiser:
    def test_divergence_free_map(self, unfloored):
        # constant output: divergence 0; the estimate reduces to the plain
        # residual power minus sigma^2, clamped at the floor
        clean = ImageBuffer(np.full((48, 48), 120.0))
        noisy = add_gaussian_noise(clean, 25.0, seed=2)
        cfg = SureConfig(seed=3)
        est = estimate_sigma_tilde_sq(
            noisy, 25.0, lambda im: np.full_like(im.pixels, 120.0), cfg)
        resid = float(np.mean((noisy.pixels - 120.0) ** 2))
        assert est == pytest.approx(max(0.0, resid - 625.0), rel=1e-9, abs=1e-9)

    def test_estimates_true_mse_of_constant_map(self, unfloored):
        # the raw estimate centers on 0 for an exact constant match; with the
        # floor at 0 the seed average stays well inside 0.1 sigma^2
        clean = ImageBuffer(np.full((96, 96), 120.0))
        vals = []
        for seed in range(20):
            noisy = add_gaussian_noise(clean, 25.0, seed=seed)
            vals.append(estimate_sigma_tilde_sq(
                noisy, 25.0, lambda im: np.full_like(im.pixels, 120.0),
                SureConfig(seed=seed + 100)))
        assert abs(np.mean(vals)) < 0.1 * 625.0


class TestLinearFilterDivergence:
    def test_divergence_matches_kernel_trace(self, unfloored):
        # circular convolution: the Jacobian is a circulant matrix whose
        # trace is n times the kernel's center weight; probe-averaged MC
        # divergence must land within 2 percent
        kernel = np.array([[0.05, 0.1, 0.05],
                           [0.1, 0.4, 0.1],
                           [0.05, 0.1, 0.05]])
        rng = np.random.default_rng(4)
        img = ImageBuffer(rng.uniform(0.0, 255.0, (256, 256)))
        sigma = 20.0
        n = img.pixels.size

        def smooth(im):
            return ndimage.convolve(im.pixels, kernel, mode="wrap")

        cfg = SureConfig(seed=6, probes=20)
        est = estimate_sigma_tilde_sq(img, sigma, smooth, cfg)
        resid = float(np.mean((img.pixels - smooth(img)) ** 2))
        # invert the estimator identity to recover the implied divergence
        div = (est - resid + sigma ** 2) * n / (2.0 * sigma ** 2)
        assert div == pytest.approx(0.4 * n, rel=0.02)


class TestBehavior:
    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(7)
        img = ImageBuffer(rng.uniform(0.0, 255.0, (32, 32)))
        blur = lambda im: ndimage.uniform_filter(im.pixels, 3, mode="nearest")
        cfg = SureConfig(seed=8, probes=2)
        a = estimate_sigma_tilde_sq(img, 20.0, blur, cfg)
        b = estimate_sigma_tilde_sq(img, 20.0, blur, cfg)
        assert a == b

    def test_passed_baseline_is_bit_identical(self):
        rng = np.random.default_rng(11)
        img = ImageBuffer(rng.uniform(0.0, 255.0, (32, 32)))
        calls = []

        def blur(im):
            calls.append(im)
            return ndimage.uniform_filter(im.pixels, 3, mode="nearest")

        cfg = SureConfig(seed=12, probes=2)
        fresh = estimate_sigma_tilde_sq(img, 20.0, blur, cfg)
        assert len(calls) == 3
        reused = estimate_sigma_tilde_sq(img, 20.0, blur, cfg, baseline=blur(img))
        assert len(calls) == 3 + 1 + 2
        assert reused == fresh

    def test_floor_applies(self):
        # a constant denoiser fed its own fixed point: residual and
        # divergence both vanish, leaving -sigma^2, clamped to the floor
        img = ImageBuffer(np.full((16, 16), 50.0))
        est = estimate_sigma_tilde_sq(
            img, 20.0, lambda im: np.full_like(im.pixels, 50.0),
            SureConfig(seed=9))
        assert est == 1.0

    def test_probe_averaging_reduces_spread(self, unfloored):
        rng = np.random.default_rng(10)
        img = ImageBuffer(rng.uniform(0.0, 255.0, (48, 48)))
        blur = lambda im: ndimage.uniform_filter(im.pixels, 3, mode="nearest")
        single = [estimate_sigma_tilde_sq(img, 20.0, blur,
                                          SureConfig(seed=s))
                  for s in range(12)]
        averaged = [estimate_sigma_tilde_sq(img, 20.0, blur,
                                            SureConfig(seed=s, probes=8))
                    for s in range(12)]
        assert np.std(averaged) < np.std(single)

    def test_rejects_shape_changing_denoiser(self):
        img = ImageBuffer(np.zeros((16, 16)))
        with pytest.raises(ValueError):
            estimate_sigma_tilde_sq(img, 10.0, lambda im: im.pixels[:8, :8],
                                    SureConfig(seed=0))

    def test_rejects_nonfinite_denoiser_output(self):
        img = ImageBuffer(np.zeros((8, 8)))

        def bad(im):
            out = np.array(im.pixels)
            out[0, 0] = np.nan
            return out

        with pytest.raises(ValueError):
            estimate_sigma_tilde_sq(img, 10.0, bad, SureConfig(seed=0))
