"""MAP image denoiser: half-quadratic splitting with per-patch mode selection.

Each stage alternates three closed-form moves: pick the most probable
mixture component for every patch of the current estimate, shrink each
patch toward that component's mean by a Wiener step, and refit the pixel
image to the noisy observation plus the averaged patch estimates.  The
coupling weight beta grows over stages, handing the image over from the
observation to the prior.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

# component_log_densities is unused: perfbench/test_perfbench.py looks it up here
from .gmm import Gmm, _mode_path, component_log_densities, select_modes  # noqa: F401
from .patches import (ImageBuffer, _check_sigma, _patch_side, accumulate_patches,
                      extract_patches, psnr)
from .timing import LapTimer

__all__ = ["HqsSchedule", "DenoiseResult", "denoise"]

_STAGE_MULTIPLIERS = (1.0, 4.0, 8.0, 16.0, 32.0)


@dataclasses.dataclass(frozen=True)
class HqsSchedule:
    """Per-stage coupling weights beta."""

    betas: tuple

    def __post_init__(self):
        betas = tuple(float(b) for b in self.betas)
        if not betas:
            raise ValueError("schedule must have at least one stage")
        if not all(0 < b < math.inf for b in betas):
            raise ValueError("betas must be positive and finite")
        object.__setattr__(self, "betas", betas)

    @classmethod
    def default(cls, sigma: float, multipliers=_STAGE_MULTIPLIERS) -> "HqsSchedule":
        """One stage per multiplier m, with beta = m / sigma^2."""
        _check_sigma(sigma)
        return cls(betas=tuple(m / sigma ** 2 for m in multipliers))

    @property
    def mode_inflations(self) -> tuple:
        """Mode-selection inflation 1 / beta per stage: the residual variance
        each stage assumes on patches of the running estimate (EPLL)."""
        return tuple(1.0 / b for b in self.betas)


@dataclasses.dataclass(frozen=True)
class DenoiseResult:
    """Denoised image plus per-stage diagnostics.

    ``psnr_trace`` is present only when a reference image was supplied;
    ``mode_histograms`` counts the patches assigned to each component at
    every stage, and ``mode_paths`` names the path that ``select_modes``
    took at every stage, "fold" or "screen".  ``seconds`` maps each layer
    to its wall-clock total over all stages: ``select`` (patch extraction
    and mode selection), ``shrink`` (the Wiener step), ``aggregate``, and
    ``update`` (the pixel update with its checks and PSNR).
    """

    image: ImageBuffer
    psnr_trace: tuple | None
    mode_histograms: tuple
    mode_paths: tuple
    seconds: dict


def _shrink_rows(prior: Gmm, component: int, rows: np.ndarray, beta: float) -> np.ndarray:
    """MAP patches under one component given a quadratic coupling beta,
    written over the float64 ``rows`` array, which it returns.

    Solves (beta C + I) v = mu + beta C p for every row p.  In the cached
    eigenbasis C = U diag(lambda) U^T this is a per-axis shrink of the
    deviation from the mean by beta lambda / (beta lambda + 1); one more
    temporary of the rows' shape holds the eigen-coordinates.
    """
    basis = prior.eigenvectors[component]
    lam = beta * prior.eigenvalues[component]
    mean = prior.means[component]
    rows -= mean
    coords = rows @ basis
    coords *= lam / (lam + 1.0)
    np.matmul(coords, basis.T, out=rows)
    rows += mean
    return rows


def denoise(noisy: ImageBuffer, sigma: float, prior: Gmm,
            schedule: HqsSchedule | None = None,
            reference: ImageBuffer | None = None) -> DenoiseResult:
    """Restore an image corrupted by white Gaussian noise of scale sigma.

    The prior must model square patches; the patch side is recovered from
    its dimensionality.  The patch grid uses stride 1.  The data term
    weighs the observation by d / sigma^2 per pixel, which balances the
    default beta schedule so that the first stage mixes observation and
    patch estimates evenly.
    """
    _check_sigma(sigma)
    if reference is not None and reference.pixels.shape != noisy.pixels.shape:
        raise ValueError("reference and noisy images have different shapes")
    side = _patch_side(prior.dim)
    schedule = schedule if schedule is not None else HqsSchedule.default(sigma)
    data_weight = prior.dim / sigma ** 2
    observed = noisy.pixels
    x = observed.copy()
    trace = [] if reference is not None else None
    histograms, paths = [], []
    laps = LapTimer()
    for stage, (beta, delta) in enumerate(zip(schedule.betas, schedule.mode_inflations)):
        patches = extract_patches(ImageBuffer(x), side, 1)
        modes = select_modes(prior, patches, delta)
        counts = np.bincount(modes, minlength=prior.n_components)
        histograms.append(counts)
        paths.append(_mode_path(prior, delta))
        laps.lap("select")
        for j in np.flatnonzero(counts):
            idx = np.flatnonzero(modes == j)
            patches[idx] = _shrink_rows(prior, j, patches[idx], beta)
        laps.lap("shrink")
        sums, cover = accumulate_patches(patches, noisy.width, noisy.height)
        laps.lap("aggregate")
        x = (data_weight * observed + beta * sums.pixels) / (data_weight + beta * cover.pixels)
        if not np.isfinite(x).all():
            raise FloatingPointError(f"non-finite pixel values after stage {stage}")
        if trace is not None:
            trace.append(psnr(reference, ImageBuffer(x)))
        laps.lap("update")
    return DenoiseResult(image=ImageBuffer(x),
                         psnr_trace=tuple(trace) if trace is not None else None,
                         mode_histograms=tuple(histograms), mode_paths=tuple(paths),
                         seconds=laps.seconds)
