"""Bayesian adaptation of a generic mixture prior toward a specific image.

One adaptation iteration is an E-step under the current model followed by
a penalized M-step that blends the image statistics with the generic
anchor.  The blend factor for component k is alpha_k = n_k / (n_k + rho):
components that explain many patches move to them, the rest stay put.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .gmm import (
    DegeneratePatchError,
    Gmm,
    SufficientStats,
    responsibilities,
    sufficient_stats,
    _checked_points,
    _distinct_rows,
    _log_prior,
    _no_support,
    _psd_factors,
)
from .patches import _integer
from .timing import LapTimer

__all__ = [
    "AdaptationConfig",
    "AdaptationReport",
    "adapt",
    "adaptation_mstep",
    "mstep_covariance_fast",
]


@dataclasses.dataclass(frozen=True)
class AdaptationConfig:
    rho: float = 1.0
    sigma_tilde_sq: float = 0.0
    iterations: int = 1

    def __post_init__(self):
        if not 0 < self.rho < np.inf:
            raise ValueError("rho must be positive and finite")
        if not 0 <= self.sigma_tilde_sq < np.inf:
            raise ValueError("sigma_tilde_sq must be nonnegative and finite")
        if _integer("iterations", self.iterations) < 1:
            raise ValueError("iterations must be at least 1")


@dataclasses.dataclass(frozen=True)
class AdaptationReport:
    """Diagnostics from one adapt() call.

    ``logliks`` and ``log_priors`` hold the two terms of the penalized log
    objective, and ``objectives`` their sums, of the model that each
    iteration's E-step scored, as ``em_fit``'s trace holds the model at the
    start of each iteration: ``objectives[0]`` is the generic prior's and
    ``objectives[i]`` that of the model after ``i`` updates.  The returned
    model is never scored; ``log_posterior_objective`` gives its objective.
    ``alphas`` and ``counts`` come from the final E-step.  Counts and
    log-likelihoods are sums over all n patches, repeated rows included,
    although each distinct row is scored once.  The objectives
    are guaranteed to ascend only when ``sigma_tilde_sq`` is 0: with a
    positive value the M-step deflates the data covariance and floors its
    spectrum, which is not the objective's maximizer and can lower it,
    mostly through the log prior.  ``seconds`` maps each phase to its
    wall-clock total over all iterations: ``estep`` (responsibilities, and
    finding the distinct rows before the first),
    ``stats`` (sufficient statistics), ``mstep`` (update, PSD floor and the
    new model's factorization) and ``objective`` (the log prior).
    """

    logliks: tuple[float, ...]
    log_priors: tuple[float, ...]
    alphas: np.ndarray
    counts: np.ndarray
    seconds: dict

    @property
    def objectives(self) -> tuple[float, ...]:
        return tuple(a + b for a, b in zip(self.logliks, self.log_priors))


def mstep_covariance_fast(second_moment, mu_tilde, generic_mean, generic_cov,
                          alpha, sigma_tilde_sq: float = 0.0) -> np.ndarray:
    """Covariance update from the precomputed raw second moment.

    Takes one component, (d, d) and (d,) arrays with a scalar ``alpha``,
    or all K, (K, d, d) and (K, d) stacks with (K,) alphas.  Algebraically
    identical to the two-pass form (``mstep_covariance_direct`` in the test
    module ``tests/mstep_reference.py``) whenever ``mu_tilde`` is the blended
    mean update for the same ``alpha``; never touches individual patches,
    so its cost is independent of the patch count.
    """
    mu_tilde = np.asarray(mu_tilde, dtype=np.float64)
    generic_mean = np.asarray(generic_mean, dtype=np.float64)
    alpha = np.asarray(alpha, dtype=np.float64)[..., None, None]
    data = np.asarray(second_moment, dtype=np.float64)
    if sigma_tilde_sq:
        data = data - sigma_tilde_sq * np.eye(mu_tilde.shape[-1])
    out = (alpha * data - mu_tilde[..., :, None] * mu_tilde[..., None, :]
           + (1.0 - alpha) * (np.asarray(generic_cov, dtype=np.float64)
                              + generic_mean[..., :, None] * generic_mean[..., None, :]))
    return 0.5 * (out + np.swapaxes(out, -1, -2))


def adaptation_mstep(generic: Gmm, stats: SufficientStats, n: int, rho: float,
                     sigma_tilde_sq: float = 0.0):
    """Relevance-blended update of all parameters, before floor and renorm.

    The weight update is the exact maximizer of the penalized objective;
    its components sum to one by construction.  Covariances come from the
    one-pass formula of ``mstep_covariance_fast``; for a component with no
    mass (alpha 0) that is the generic covariance.  ``n`` must be an
    integer of at least 1, and ``rho`` and ``sigma_tilde_sq`` are checked
    as ``AdaptationConfig`` checks them; a ValueError names a bad one.
    """
    if stats.n_components != generic.n_components or stats.dim != generic.dim:
        raise ValueError("statistics do not match the generic model shape")
    if _integer("n", n) < 1:
        raise ValueError("n must be at least 1")
    AdaptationConfig(rho=rho, sigma_tilde_sq=sigma_tilde_sq)
    k = generic.n_components
    counts = stats.counts
    alphas = counts / (counts + rho)
    weights = (counts + rho * k * generic.weights) / (n + rho * k)
    means = alphas[:, None] * stats.means + (1.0 - alphas)[:, None] * generic.means
    covs = mstep_covariance_fast(stats.second_moments, means, generic.means,
                                 generic.covariances, alphas, sigma_tilde_sq)
    return weights, means, covs


def adapt(generic: Gmm, patches, config: AdaptationConfig | None = None):
    """Adapt a generic prior to the patches of one image.

    Iterations re-estimate responsibilities under the adapted model while
    the anchor stays the original generic prior.  When the patches carry
    residual noise, pass its variance as ``sigma_tilde_sq``: the E-step
    then scores them under inflated covariances and the data part of the
    covariance update is deflated by the same amount before flooring.
    Every E-step and moment pass runs over the distinct rows once, each
    weighted by how often it occurs (see ``responsibilities``); without
    repeated rows this is the plain pass over every patch.  A patch with a
    NaN or infinite entry is a ValueError that names it, raised before the
    first E-step.

    Returns the adapted model and an AdaptationReport.
    """
    config = config or AdaptationConfig()
    laps = LapTimer()
    x = _checked_points(generic, patches, config.sigma_tilde_sq)
    n = x.shape[0]
    rows, copies, firsts = _distinct_rows(x)
    current = generic
    logliks, log_priors = [], []
    alphas = counts = None
    for _ in range(config.iterations):
        try:
            gamma, counts, loglik = responsibilities(current, rows, config.sigma_tilde_sq, copies)
        except DegeneratePatchError as err:
            raise _no_support(err.row, firsts) from None
        laps.lap("estep")
        # this E-step's normalizer is the likelihood term of the objective of
        # the model it scored
        logliks.append(float(loglik.sum()))
        log_priors.append(_log_prior(current, generic, config.rho))
        laps.lap("objective")
        stats = sufficient_stats(rows, gamma)
        laps.lap("stats")
        weights, means, covs = adaptation_mstep(generic, stats, n, config.rho,
                                                config.sigma_tilde_sq)
        total = float(weights.sum())
        if not abs(total - 1.0) <= 1e-12:
            raise ValueError(f"weight update drifted off the simplex (sum {total!r})")
        alphas = counts / (counts + config.rho)
        current = Gmm._factored(weights / total, means, *_psd_factors(covs))
        laps.lap("mstep")
    return current, AdaptationReport(logliks=tuple(logliks), log_priors=tuple(log_priors),
                                     alphas=alphas, counts=counts, seconds=laps.seconds)
