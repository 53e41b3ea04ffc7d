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

import numpy as np

from .gmm import Gmm, _mode_plan, _reselect, _select
# unused: perfbench looks them up here
from .gmm import component_log_densities, select_modes  # noqa: F401
from .patches import (ImageBuffer, _check_sigma, _patch_side, _window_norms, accumulate_patches,
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
        if not all(0 < b < np.inf and 1.0 / b < np.inf for b in betas):
            raise ValueError(f"betas and their reciprocals must be positive and finite: {betas}")
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
    every stage, and ``mode_paths`` names each stage's mode-selection path,
    "fold" or "screen".  ``seconds`` maps each layer to its wall-clock
    total over all stages: ``extract`` (the patches), ``select`` (mode
    selection), ``shrink`` (the Wiener step), ``aggregate`` and ``update``
    (the pixel update with its checks and PSNR).
    """

    image: ImageBuffer
    psnr_trace: tuple | None
    mode_histograms: tuple
    mode_paths: tuple
    seconds: dict


def _wiener_maps(prior: Gmm, beta: float):
    """The affine Wiener maps of a stage with coupling beta, for all K
    components from one batched product: the (K, d, d) stack of S_k =
    U_k diag(beta lambda_k / (beta lambda_k + 1)) U_k^T in the cached
    eigenbasis and the (K, d) offsets mu_k - mu_k S_k.  The MAP patch
    v = p S_k + (mu_k - mu_k S_k) of a patch p of mode k solves
    (beta C_k + I) v = mu_k + beta C_k p.  Rounding, with e = 2^-53,
    gamma_n = n e / (1 - n e) and U_k orthogonal: S_k is off by at most
    gamma_{d+4} abs(U_k) abs(U_k)^T entrywise, an entry of p S_k or mu_k S_k
    by sqrt(d) gamma_{2d+4} |p| or |mu_k|, and so each entry of v by at most
    sqrt(d) gamma_{2d+6} (|p| + |mu_k|), to first order: under 5e-10 gray
    levels at d = 64 with patches and means in [0, 255]."""
    lam = beta * prior.eigenvalues
    basis = prior.eigenvectors
    shrink = (basis * (lam / (lam + 1.0))[:, None, :]) @ np.swapaxes(basis, 1, 2)
    return shrink, prior.means - (prior.means[:, None, :] @ shrink)[:, 0]


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
    return _hqs(noisy, sigma, prior, schedule, reference)[0]


def _hqs(noisy: ImageBuffer, sigma: float, prior: Gmm, schedule: HqsSchedule | None = None,
         reference: ImageBuffer | None = None, record=None, probe_of=None):
    """``denoise`` and, per stage, the number of rows that mode selection scored.

    A list ``record`` receives one entry per stage: its input pixels, its
    modes and the ``gmm._select`` bounds of the exact scores of its
    patches.  Given such a record ``probe_of``, of a run with the same
    prior and schedule on an image of this shape, as SURE's probes are of
    the prefilter, each stage bounds how far each patch lies from the
    recorded one by the window norms of the pixel change, keeps the
    recorded run's mode where ``gmm._reselect`` proves that this patch's
    float64 scores have the same strict argmax, and scores only the other
    patches.  Its modes, and so its result, are then those of a run
    without the record, up to the rounding-level ties that
    ``select_modes`` may already decide either way.
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
    histograms, paths, scored = [], [], []
    laps = LapTimer()
    for stage, (beta, delta) in enumerate(zip(schedule.betas, schedule.mode_inflations)):
        patches = extract_patches(ImageBuffer(x), side, 1)
        laps.lap("extract")
        plan = _mode_plan(prior, delta)
        # every patch norm is at most side times the largest pixel magnitude
        reach = side * np.abs(x).max()
        if probe_of is not None:
            before, recorded, bounds = probe_of[stage]
            shift = _window_norms(x - before, side)
            modes, rows = _reselect(prior, patches, delta, plan, recorded, bounds, shift, reach)
        elif record is not None:
            modes, bounds = _select(prior, patches, delta, plan, reach)
            record.append((x, modes, bounds))
            rows = len(patches)
        else:
            modes, rows = _select(prior, patches, delta, plan), len(patches)
        counts = np.bincount(modes, minlength=prior.n_components)
        histograms.append(counts)
        paths.append(plan[0])
        scored.append(rows)
        laps.lap("select")
        shrink, offsets = _wiener_maps(prior, beta)
        for j in np.flatnonzero(counts):
            idx = np.flatnonzero(modes == j)
            patches[idx] = patches[idx] @ shrink[j] + offsets[j]
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
                         seconds=laps.seconds), tuple(scored)
