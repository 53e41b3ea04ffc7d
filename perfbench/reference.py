"""Output checks and computations written apart from the program.

Nothing here calls into ``patchprior``.  The HQS reference scores every
patch with its own ``slogdet``/``solve`` calls and aggregates with a loop;
the adaptation reference takes its responsibilities from
``scipy.stats.multivariate_normal``.  They are slow and meant for small
crops only.
"""

from __future__ import annotations

import math
import re

import numpy as np
from scipy.special import logsumexp
from scipy.stats import multivariate_normal

PEAK = 255.0

# The denoiser's default schedule: beta = m / sigma^2 for these m, with
# mode-selection inflation 1 / beta.
STAGE_MULTIPLIERS = (1.0, 4.0, 8.0, 16.0, 32.0)

_PGM_HEADER = re.compile(rb"P5\s+(\d+)\s+(\d+)\s+255\s")


def psnr_db(clean: np.ndarray, test: np.ndarray) -> float:
    """PSNR against a 255 peak; no cap, so identical images give inf."""
    mse = float(np.mean((np.asarray(clean) - np.asarray(test)) ** 2))
    return 10.0 * math.log10(PEAK * PEAK / mse) if mse > 0 else math.inf


def read_p5(path) -> np.ndarray:
    """Pixels of a binary PGM with maximum value 255, as float64."""
    raw = open(path, "rb").read()
    match = _PGM_HEADER.match(raw)
    if match is None:
        raise ValueError(f"{path}: not a P5 file with maximum value 255")
    width, height = int(match.group(1)), int(match.group(2))
    raster = raw[match.end():match.end() + width * height]
    if len(raster) != width * height:
        raise ValueError(f"{path}: raster is truncated")
    return np.frombuffer(raster, dtype=np.uint8).reshape(height, width).astype(np.float64)


def patch_rows(pixels: np.ndarray, side: int) -> np.ndarray:
    """Every side x side patch at stride 1, row-major, one per row."""
    h, w = pixels.shape
    return np.array([pixels[r:r + side, c:c + side].ravel()
                     for r in range(h - side + 1) for c in range(w - side + 1)])


def nondecreasing(values, rel: float = 1e-9) -> bool:
    """Each value at least the one before, up to a relative rounding slack."""
    return all(b >= a - rel * max(1.0, abs(a)) for a, b in zip(values, values[1:]))


def model_problems(weights, means, covs, psd_floor: float) -> list:
    """Why a mixture is not a valid floored model; empty when it is.

    Weights must lie on the simplex, covariances must be symmetric with
    eigenvalues at least ``psd_floor``.  The eigenvalue slack is the
    rounding error of an eigendecomposition of that size.
    """
    w, mu, c = (np.asarray(a, dtype=np.float64) for a in (weights, means, covs))
    problems = []
    if not (np.isfinite(w).all() and np.isfinite(mu).all() and np.isfinite(c).all()):
        problems.append("non-finite parameters")
        return problems
    if (w < 0).any() or abs(float(w.sum()) - 1.0) > 1e-9:
        problems.append(f"weights off the simplex (sum {w.sum()!r}, min {w.min()!r})")
    scale = max(1.0, float(np.abs(c).max()))
    if float(np.abs(c - np.transpose(c, (0, 2, 1))).max()) > 1e-12 * scale:
        problems.append("asymmetric covariance")
    evals = np.linalg.eigvalsh(c)
    slack = 64 * np.finfo(np.float64).eps * float(np.abs(evals).max())
    if float(evals.min()) < psd_floor - slack:
        problems.append(f"covariance eigenvalue {evals.min():.3g} below floor {psd_floor:g}")
    return problems


def _component_log_scores(x, weights, means, covs, inflation):
    d = x.shape[1]
    return np.stack([np.log(w) + multivariate_normal(m, c + inflation * np.eye(d)).logpdf(x)
                     for w, m, c in zip(weights, means, covs)], axis=1)


def mixture_mean_loglik(x, weights, means, covs) -> float:
    """Mean per-row log density of a full-covariance mixture."""
    return float(logsumexp(_component_log_scores(x, weights, means, covs, 0.0), axis=1).mean())


def adapt_one_iteration(x, weights, means, covs, rho: float, sigma_tilde_sq: float):
    """First-iteration relevance update: (alphas, weights, means).

    alpha_k = n_k / (n_k + rho), w_k' = (n_k + rho K w_k) / (n + rho K), and
    mu_k' = alpha_k xbar_k + (1 - alpha_k) mu_k, with n_k the soft counts under
    covariances inflated by ``sigma_tilde_sq``.
    """
    scores = _component_log_scores(x, weights, means, covs, sigma_tilde_sq)
    gamma = np.exp(scores - logsumexp(scores, axis=1)[:, None])
    counts = gamma.sum(axis=0)
    n, k = x.shape[0], len(weights)
    alphas = counts / (counts + rho)
    new_weights = (counts + rho * k * np.asarray(weights)) / (n + rho * k)
    new_means = (gamma.T @ x + rho * np.asarray(means)) / (counts + rho)[:, None]
    return alphas, new_weights, new_means


def hqs_denoise(noisy: np.ndarray, sigma: float, weights, means, covs) -> np.ndarray:
    """Half-quadratic splitting MAP denoiser, one patch at a time.

    Each stage picks for every stride-1 patch the component maximizing
    log w_k + log N(p; mu_k, C_k + I/beta), replaces the patch by
    (C_k^-1 + beta I)^-1 (C_k^-1 mu_k + beta p), averages the overlapping
    estimates, and mixes them with the observation weighted d / sigma^2.
    """
    d = len(means[0])
    side = math.isqrt(d)
    eye = np.eye(d)
    h, w = noisy.shape
    data_weight = d / sigma ** 2
    x = noisy.copy()
    precisions = [np.linalg.inv(c) for c in covs]
    for m in STAGE_MULTIPLIERS:
        beta = m / sigma ** 2
        inflated = [c + eye / beta for c in covs]
        log_dets = [np.linalg.slogdet(c)[1] for c in inflated]
        sums = np.zeros_like(x)
        cover = np.zeros_like(x)
        for r in range(h - side + 1):
            for c in range(w - side + 1):
                p = x[r:r + side, c:c + side].ravel()
                scores = [math.log(wk) - 0.5 * (ld + (p - mu) @ np.linalg.solve(s, p - mu))
                          for wk, mu, s, ld in zip(weights, means, inflated, log_dets)]
                k = int(np.argmax(scores))
                v = np.linalg.solve(precisions[k] + beta * eye,
                                    precisions[k] @ means[k] + beta * p)
                sums[r:r + side, c:c + side] += v.reshape(side, side)
                cover[r:r + side, c:c + side] += 1.0
        x = (data_weight * noisy + beta * sums) / (data_weight + beta * cover)
    return x
