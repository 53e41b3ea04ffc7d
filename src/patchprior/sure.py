"""Monte-Carlo unbiased estimate of residual noise after pre-filtering.

Treats the denoiser as a black box.  The divergence of the denoiser at
the noisy image is probed with a random direction and a small finite
difference; plugging it into the unbiased risk identity turns the
observable residual into an estimate of the mean squared error of the
pre-filtered image, which is exactly the variance the adaptation step
needs to compensate.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .patches import ImageBuffer, _check_sigma, _integer

__all__ = ["SureConfig", "estimate_sigma_tilde_sq"]


@dataclasses.dataclass(frozen=True)
class SureConfig:
    delta: float = 0.5
    seed: int = 0
    floor: float = 1.0
    probes: int = 1

    def __post_init__(self):
        if not 0 < self.delta < np.inf:
            raise ValueError("delta must be positive and finite")
        if not 0 <= self.floor < np.inf:
            raise ValueError("floor must be nonnegative and finite")
        if _integer("probes", self.probes) < 1:
            raise ValueError("probes must be at least 1")


def _pixels(out, shape) -> np.ndarray:
    pixels = out.pixels if isinstance(out, ImageBuffer) else np.asarray(out, dtype=np.float64)
    if pixels.shape != shape:
        raise ValueError(f"denoiser returned shape {pixels.shape}, expected {shape}")
    return pixels


def estimate_sigma_tilde_sq(noisy: ImageBuffer, sigma: float, denoiser,
                            config: SureConfig | None = None, baseline=None) -> float:
    """Estimate the per-pixel MSE of ``denoiser`` applied to ``noisy``.

    ``sigma`` is the noise scale of the observation itself.  ``denoiser``
    maps an ImageBuffer to an ImageBuffer of the same shape and is called
    once on the noisy image and once per probe on a perturbed copy.  A
    caller that already holds ``denoiser(noisy)`` passes it as
    ``baseline`` to skip the first call.  The estimate is floored (default
    1.0) because the adaptation step treats it as a variance.
    """
    _check_sigma(sigma)
    config = config or SureConfig()
    shape = noisy.pixels.shape
    n = noisy.pixels.size
    baseline = _pixels(denoiser(noisy) if baseline is None else baseline, shape)
    rng = np.random.default_rng(config.seed)
    divergence = 0.0
    for _ in range(config.probes):
        probe = rng.standard_normal(shape)
        perturbed = ImageBuffer(noisy.pixels + config.delta * probe)
        shifted = _pixels(denoiser(perturbed), shape)
        divergence += float((probe * (shifted - baseline)).sum()) / config.delta
    divergence /= config.probes
    if not np.isfinite(divergence):
        raise ValueError("divergence probe produced a non-finite value")
    residual = float(((noisy.pixels - baseline) ** 2).mean())
    estimate = residual - sigma ** 2 + (2.0 * sigma ** 2 / n) * divergence
    return max(config.floor, estimate)
