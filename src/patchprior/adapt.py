"""Bayesian adaptation of a generic mixture prior toward a specific image.

One adaptation iteration is an E-step under the current model followed by
a penalized M-step that blends the image statistics with the generic
anchor.  The blend factor for component k is alpha_k = n_k / (n_k + rho):
components that explain many patches move to them, the rest stay put.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from .gmm import (
    Gmm,
    HyperParams,
    SufficientStats,
    condition_psd,
    derive_hyperparams,
    log_posterior_objective,
    responsibilities,
    sufficient_stats,
    _log_prior,
    _patch_matrix,
)

__all__ = [
    "AdaptationConfig",
    "AdaptationReport",
    "adapt",
    "adaptation_mstep",
    "mstep_covariance_fast",
    "mstep_covariance_direct",
    "posterior_hyperparams",
    "mstep_general",
]


@dataclasses.dataclass(frozen=True)
class AdaptationConfig:
    rho: float = 1.0
    sigma_tilde_sq: float = 0.0
    iterations: int = 1
    psd_floor: float = 1e-4

    def __post_init__(self):
        if not 0 < self.rho < np.inf:
            raise ValueError("rho must be positive and finite")
        if not 0 <= self.sigma_tilde_sq < np.inf:
            raise ValueError("sigma_tilde_sq must be nonnegative and finite")
        if self.iterations < 1:
            raise ValueError("iterations must be at least 1")
        if not 0 < self.psd_floor < np.inf:
            raise ValueError("psd_floor must be positive and finite")


# The timed phases of an adapt() call, in AdaptationReport's ``*_seconds`` fields.
_PHASES = ("estep", "stats", "mstep", "objective")


@dataclasses.dataclass(frozen=True)
class AdaptationReport:
    """Diagnostics from one adapt() call.

    ``objectives`` holds the penalized log objective after each
    iteration's update, and ``alphas`` and ``counts`` come from the final
    E-step.  The ``*_seconds`` fields are wall-clock totals over all
    iterations of each phase: E-steps (responsibilities), sufficient
    statistics, M-steps (update, PSD floor and the new model's
    factorization) and objective evaluation.
    """

    objectives: tuple[float, ...]
    alphas: np.ndarray
    counts: np.ndarray
    estep_seconds: float
    stats_seconds: float
    mstep_seconds: float
    objective_seconds: float

    def to_text(self) -> str:
        lines = [f"iterations = {len(self.objectives)}"]
        for phase in _PHASES:
            lines.append(f"{phase}_seconds = {getattr(self, phase + '_seconds'):.6f}")
        for i, value in enumerate(self.objectives, start=1):
            lines.append(f"objective_iter_{i} = {value:.6f}")
        lines.append("component alpha count")
        for k, (a, c) in enumerate(zip(self.alphas, self.counts)):
            lines.append(f"{k} {a:.6f} {c:.3f}")
        return "\n".join(lines) + "\n"


def mstep_covariance_fast(second_moment, mu_tilde, generic_mean, generic_cov,
                          alpha, sigma_tilde_sq: float = 0.0) -> np.ndarray:
    """Covariance update from the precomputed raw second moment.

    Takes one component, (d, d) and (d,) arrays with a scalar ``alpha``,
    or all K, (K, d, d) and (K, d) stacks with (K,) alphas.  Algebraically
    identical to the two-pass form whenever ``mu_tilde`` is the blended
    mean update for the same ``alpha``; never touches individual patches,
    so its cost is independent of the patch count.
    """
    mu_tilde = np.asarray(mu_tilde, dtype=np.float64)
    generic_mean = np.asarray(generic_mean, dtype=np.float64)
    alpha = np.asarray(alpha, dtype=np.float64)[..., None, None]
    data = np.asarray(second_moment, dtype=np.float64)
    if sigma_tilde_sq:
        data = data - sigma_tilde_sq * np.eye(mu_tilde.shape[-1])
    out = (alpha * data - _outers(mu_tilde, mu_tilde)
           + (1.0 - alpha) * (np.asarray(generic_cov, dtype=np.float64)
                              + _outers(generic_mean, generic_mean)))
    return _symmetrized(out)


def mstep_covariance_direct(patch_matrix, resp, mu_tilde, generic_mean, generic_cov,
                            alpha: float, sigma_tilde_sq: float = 0.0) -> np.ndarray:
    """Literal two-pass covariance update, kept as reference and benchmark.

    Walks every patch again to build the scatter about ``mu_tilde``, each
    patch scaled by its responsibility, one outer product at a time.
    """
    x = _patch_matrix(patch_matrix)
    resp = np.asarray(resp, dtype=np.float64)
    count = float(resp.sum())
    if count <= 0.0:
        raise ValueError("component has no responsibility mass")
    mu_tilde = np.asarray(mu_tilde, dtype=np.float64)
    d = mu_tilde.size
    dev = x - mu_tilde
    acc = np.zeros((d, d))
    term = np.empty((d, d))
    for scaled, row in zip(resp[:, None] * dev, dev):
        np.multiply.outer(scaled, row, out=term)
        acc += term
    data = acc / count
    if sigma_tilde_sq:
        data = data - sigma_tilde_sq * np.eye(d)
    anchor_dev = np.asarray(generic_mean, dtype=np.float64) - mu_tilde
    out = (alpha * data
           + (1.0 - alpha) * (np.asarray(generic_cov, dtype=np.float64)
                              + np.outer(anchor_dev, anchor_dev)))
    return 0.5 * (out + out.T)


def adaptation_mstep(generic: Gmm, stats: SufficientStats, n: int, rho: float,
                     sigma_tilde_sq: float = 0.0):
    """Relevance-blended update of all parameters, before floor and renorm.

    The weight update is the exact maximizer of the penalized objective;
    its components sum to one by construction.  Covariances come from the
    one-pass formula of ``mstep_covariance_fast``; for a component with no
    mass (alpha 0) that is the generic covariance.
    """
    if stats.n_components != generic.n_components or stats.dim != generic.dim:
        raise ValueError("statistics do not match the generic model shape")
    if n < 1:
        raise ValueError("n must be positive")
    k = generic.n_components
    counts = stats.counts
    alphas = counts / (counts + rho)
    weights = (counts + rho * k * generic.weights) / (n + rho * k)
    means = alphas[:, None] * stats.means + (1.0 - alphas)[:, None] * generic.means
    covs = mstep_covariance_fast(stats.second_moments, means, generic.means,
                                 generic.covariances, alphas, sigma_tilde_sq)
    return weights, means, covs


def _outers(a, b) -> np.ndarray:
    """Row-wise outer products, (..., d) x (..., d) -> (..., d, d)."""
    return a[..., :, None] * b[..., None, :]


def _symmetrized(stack) -> np.ndarray:
    return 0.5 * (stack + np.swapaxes(stack, -1, -2))


def adapt(generic: Gmm, patches, config: AdaptationConfig | None = None):
    """Adapt a generic prior to the patches of one image.

    Iterations re-estimate responsibilities under the adapted model while
    the anchor stays the original generic prior.  When the patches carry
    residual noise, pass its variance as ``sigma_tilde_sq``: the E-step
    then scores them under inflated covariances and the data part of the
    covariance update is deflated by the same amount before flooring.

    Returns the adapted model and an AdaptationReport.
    """
    config = config or AdaptationConfig()
    x = _patch_matrix(patches)
    n = x.shape[0]
    hyper = derive_hyperparams(generic, config.rho)
    current = generic
    objectives = []
    seconds = dict.fromkeys(_PHASES, 0.0)
    clock = time.perf_counter()

    def lap(phase):
        nonlocal clock
        now = time.perf_counter()
        seconds[phase] += now - clock
        clock = now

    alphas = counts = None
    for i in range(config.iterations):
        gamma, counts, loglik = responsibilities(current, x, config.sigma_tilde_sq,
                                                 with_loglik=True)
        lap("estep")
        if i:
            # The previous iteration's model scored under the same inflation:
            # its objective's likelihood term is this E-step's normalizer.
            objectives.append(float(loglik.sum()) + _log_prior(current, hyper))
            lap("objective")
        stats = sufficient_stats(x, gamma)
        lap("stats")
        weights, means, covs = adaptation_mstep(generic, stats, n, config.rho,
                                                config.sigma_tilde_sq)
        total = float(weights.sum())
        if not abs(total - 1.0) <= 1e-12:
            raise ValueError(f"weight update drifted off the simplex (sum {total!r})")
        alphas = counts / (counts + config.rho)
        current = Gmm(weights / total, means, condition_psd(covs, config.psd_floor))
        lap("mstep")
    objectives.append(log_posterior_objective(current, x, hyper, config.sigma_tilde_sq))
    lap("objective")
    report = AdaptationReport(objectives=tuple(objectives), alphas=alphas, counts=counts,
                              **{f"{phase}_seconds": s for phase, s in seconds.items()})
    return current, report


def posterior_hyperparams(hyper: HyperParams, stats: SufficientStats) -> HyperParams:
    """Conjugate update of the hyperparameters given soft statistics."""
    if hyper.n_components != stats.n_components or hyper.dim != stats.dim:
        raise ValueError("hyperparameters do not match the statistics shape")
    counts = stats.counts
    tau = hyper.mean_strengths
    new_tau = tau + counts
    locs = (tau[:, None] * hyper.mean_locs + counts[:, None] * stats.means) / new_tau[:, None]
    scatters = counts[:, None, None] * (stats.second_moments
                                        - _outers(stats.means, stats.means))
    pull = hyper.mean_locs - stats.means
    shrink = tau * counts / new_tau
    scales = hyper.scale_mats + scatters + shrink[:, None, None] * _outers(pull, pull)
    return HyperParams(
        weight_counts=hyper.weight_counts + counts,
        mean_locs=locs,
        mean_strengths=new_tau,
        scale_mats=_symmetrized(scales),
        dofs=hyper.dofs + counts,
    )


def mstep_general(hyper: HyperParams, stats: SufficientStats, n: int) -> Gmm:
    """Mode of the updated conjugate posterior, in closed form.

    Reduces to the plain ML update when every Dirichlet count is one and
    the mean strengths vanish.  The covariance denominator is
    dofs + d + 2 + count, which makes the result the exact joint mode.
    """
    if hyper.n_components != stats.n_components or hyper.dim != stats.dim:
        raise ValueError("hyperparameters do not match the statistics shape")
    if n < 1:
        raise ValueError("n must be positive")
    counts = stats.counts
    d = hyper.dim
    pseudo = hyper.weight_counts - 1.0
    weights = (pseudo + counts) / (float(pseudo.sum()) + n)
    tau = hyper.mean_strengths
    blend = counts / (tau + counts)
    means = blend[:, None] * stats.means + (1.0 - blend)[:, None] * hyper.mean_locs
    scatters = counts[:, None, None] * (stats.second_moments
                                        - _outers(stats.means, stats.means))
    dev_data = stats.means - means
    dev_loc = hyper.mean_locs - means
    covs = (scatters + counts[:, None, None] * _outers(dev_data, dev_data)
            + hyper.scale_mats + tau[:, None, None] * _outers(dev_loc, dev_loc))
    covs = covs / (hyper.dofs + d + 2.0 + counts)[:, None, None]
    return Gmm(weights / weights.sum(), means, _symmetrized(covs))
