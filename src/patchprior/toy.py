"""Two-component 2-D demonstration of prior adaptation.

A generic mixture is fitted to a large sample from one source, then a
small sample from a related but shifted source is used two ways: to fit
a mixture from scratch and to adapt the generic one.  With only a few
points the scratch fit is noisy while the adapted model keeps the
generic structure and moves where the data says to move.
"""

from __future__ import annotations

import dataclasses
from itertools import permutations

import numpy as np

from .adapt import AdaptationConfig, adapt
from .em import EmConfig, em_fit
from .gmm import Gmm, sample_gmm

__all__ = ["GENERIC_TRUTH", "TARGET_TRUTH", "ToyTrial", "mean_error", "run_trial"]

GENERIC_TRUTH = Gmm(
    weights=np.array([0.5, 0.5]),
    means=np.array([[-2.5, -1.0], [2.5, 1.0]]),
    covariances=np.array([
        [[1.00, 0.35], [0.35, 0.80]],
        [[0.90, -0.30], [-0.30, 1.10]],
    ]),
)

TARGET_TRUTH = Gmm(
    weights=np.array([0.45, 0.55]),
    means=np.array([[-3.1, -0.4], [2.0, 1.7]]),
    covariances=np.array([
        [[1.20, 0.25], [0.25, 0.90]],
        [[0.80, -0.20], [-0.20, 1.30]],
    ]),
)


@dataclasses.dataclass(frozen=True)
class ToyTrial:
    seed: int
    generic_model: Gmm
    scratch_model: Gmm
    adapted_model: Gmm
    generic_points: np.ndarray
    target_points: np.ndarray
    scratch_error: float
    adapted_error: float


def mean_error(model: Gmm, truth: Gmm) -> float:
    """Total L2 distance between matched component means."""
    if model.n_components != truth.n_components:
        raise ValueError("component counts differ")
    best = np.inf
    for perm in permutations(range(truth.n_components)):
        err = float(np.sqrt(((model.means[list(perm)] - truth.means) ** 2).sum()))
        best = min(best, err)
    return best


def run_trial(seed: int, rho: float = 1.0) -> ToyTrial:
    """One seeded comparison of adaptation against fitting from scratch:
    400 points from the generic source, 20 from the target."""
    rng = np.random.default_rng(seed)
    generic_points = sample_gmm(GENERIC_TRUTH, 400, rng)
    target_points = sample_gmm(TARGET_TRUTH, 20, rng)
    em_config = EmConfig(n_components=2, max_iters=200, tol=1e-8, seed=seed)
    generic_model, _ = em_fit(generic_points, em_config)
    scratch_model, _ = em_fit(target_points, em_config)
    adapted_model, _ = adapt(generic_model, target_points, AdaptationConfig(rho=rho))
    return ToyTrial(
        seed=seed,
        generic_model=generic_model,
        scratch_model=scratch_model,
        adapted_model=adapted_model,
        generic_points=generic_points,
        target_points=target_points,
        scratch_error=mean_error(scratch_model, TARGET_TRUTH),
        adapted_error=mean_error(adapted_model, TARGET_TRUTH),
    )
