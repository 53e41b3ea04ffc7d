"""Maximum-likelihood EM for full-covariance mixtures at desk scale, seeded
by k-means++; each M-step turns one-pass moments into covariances
Q - mu mu^T, floors the whole stack with one eigh and builds the model
from the factors of that floor."""

from __future__ import annotations

import dataclasses
import logging

import numpy as np

from .gmm import (
    PSD_FLOOR,
    Gmm,
    sufficient_stats,
    _distinct_rows,
    _patch_matrix,
    _psd_factors,
    _softmax,
)
from .patches import _integer

__all__ = ["EmConfig", "InsufficientDataError", "em_fit"]

log = logging.getLogger(__name__)

# Soft count below which a component is considered starved and reseeded.
_EMPTY_COUNT = 1e-8
# Values per block of k-means++ distances (256 KiB; 512 rows at d = 64).
_SEED_BLOCK_VALUES = 2 ** 15


class InsufficientDataError(ValueError):
    """Fewer patches than mixture components."""


@dataclasses.dataclass(frozen=True)
class EmConfig:
    n_components: int
    max_iters: int = 100
    tol: float = 1e-5
    seed: int = 0

    def __post_init__(self):
        for name in ("n_components", "max_iters"):
            if _integer(name, getattr(self, name)) < 1:
                raise ValueError(f"{name} must be at least 1")
        if not 0 < self.tol < np.inf:
            raise ValueError("tol must be positive and finite")


def _kmeanspp_centers(x, k, rng, index=None):
    """Seed k centers by distance-squared sampling over the n rows x[index],
    or over x itself when ``index`` is None.

    Each seed's squared distances are formed for the rows of x alone, in
    blocks of rows that fit in cache, with the per-row operations of
    ``((x - c) ** 2).sum(axis=1)``, and folded into the running minimum;
    they reach all n rows through ``index`` before each draw.  So a
    matrix with repeated rows, passed as its distinct rows and
    ``_distinct_rows``' index, draws the same centers as the full matrix.
    """
    m, d = x.shape
    index = np.arange(m) if index is None else index
    n = index.size
    rows = max(1, _SEED_BLOCK_VALUES // d)
    block = np.empty((min(rows, m), d))
    dist2 = np.full(m, np.inf)

    def fold(center):
        for i in range(0, m, rows):
            diff = block[:min(rows, m - i)]
            np.subtract(x[i:i + rows], center, out=diff)
            np.square(diff, out=diff)
            part = dist2[i:i + rows]
            np.minimum(part, diff.sum(axis=1), out=part)

    centers = np.empty((k, d))
    centers[0] = x[index[rng.integers(n)]]
    fold(centers[0])
    for j in range(1, k):
        every = dist2[index]
        total = float(every.sum())
        if total <= 0.0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=every / total))
        centers[j] = x[index[idx]]
        fold(centers[j])
    return centers


def _mstep(x, stats, rng) -> Gmm:
    """Closed-form ML update from the moments of all n rows of x, with
    starved components reseeded to rows of x."""
    n, d = x.shape
    weights = stats.counts / n
    means = stats.means.copy()
    covs = stats.second_moments - means[:, :, None] * means[:, None, :]
    for j in np.flatnonzero(stats.counts < _EMPTY_COUNT):
        means[j] = x[rng.integers(n)]
        covs[j] = PSD_FLOOR * np.eye(d)
        weights[j] = 1.0 / n
        log.warning("component %d starved, reseeded to a random patch", j)
    return Gmm._factored(weights / weights.sum(), means, *_psd_factors(covs))


def _initialize(x, config, rng, rows, index) -> Gmm:
    """Equal weights, k-means++ means, seeded over the distinct ``rows`` of
    x and their ``index`` as ``_distinct_rows`` returns them, and the
    floored data covariance, decomposed once and shared by every
    component."""
    k = config.n_components
    means = _kmeanspp_centers(rows, k, rng, index)
    base = np.atleast_2d(np.cov(x, rowvar=False))
    shared = _psd_factors(base[None])
    return Gmm._factored(np.full(k, 1.0 / k), means,
                         *(np.repeat(a, k, axis=0) for a in shared))


def em_fit(patches, config: EmConfig):
    """Fit a mixture to patches; returns the model and the trace.

    The trace holds the mean per-patch log-likelihood of the model at the
    start of every iteration.  Every E-step and moment pass runs over the
    distinct rows once, each weighted by how often it occurs, and so do
    k-means++'s distances, which draw the centers a pass over all n rows
    draws; the initial covariance and the reseeds use all n rows, and
    the trace, weights and moments are those of all n.  Without repeated
    rows this is the plain pass over every patch.  Residual noise in the
    patches is not compensated here; ``adapt`` does that for one image.
    A patch with a non-finite entry or squared norm is a ValueError that
    names it, raised before seeding.
    """
    x = _patch_matrix(patches)
    n = x.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        unfit = np.flatnonzero(~np.isfinite(np.einsum("ij,ij->i", x, x)))
    if unfit.size:
        raise ValueError(f"patch {int(unfit[0])} has a non-finite entry or squared norm")
    if n < config.n_components:
        raise InsufficientDataError(
            f"{n} patches cannot support {config.n_components} components")
    rng = np.random.default_rng(config.seed)
    rows, copies, firsts, index = _distinct_rows(x)
    model = _initialize(x, config, rng, rows, index)
    trace: list[float] = []
    for _ in range(config.max_iters):
        gamma, _, loglik = _softmax(model, rows, 0.0, copies, firsts)
        trace.append(float(loglik.sum()) / n)
        if len(trace) > 1 and abs(trace[-1] - trace[-2]) <= config.tol * abs(trace[-2]):
            break
        model = _mstep(x, sufficient_stats(rows, gamma), rng)
    return model, trace
