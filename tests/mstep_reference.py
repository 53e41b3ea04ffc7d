"""Reference forms of the adaptation M-step, for verification only.

The package computes the covariance update in one pass from the raw second
moments (``mstep_covariance_fast``) and the whole update in closed form from
the relevance factor rho (``adaptation_mstep``).  This module holds the
forms they are derived from and checked against:

* ``mstep_covariance_direct``: the two-pass covariance update, which walks
  the patches again to build the scatter about the blended mean; by default
  one outer product per patch, the slow baseline the one-pass form is timed
  against;
* ``posterior_hyperparams`` and ``mstep_general``: the conjugate update of
  the normal-inverse-Wishart hyperparameters and the mode of the updated
  posterior, which collapses to ``adaptation_mstep`` under the
  hyperparameters of ``derive_hyperparams``.

The name differs from ``perfbench/reference.py`` on purpose: both
directories go on ``sys.path`` when the two suites run in one session.
"""

import numpy as np

from patchprior.gmm import Gmm, HyperParams, SufficientStats


def _outers(a, b) -> np.ndarray:
    """Row-wise outer products, (..., d) x (..., d) -> (..., d, d)."""
    return a[..., :, None] * b[..., None, :]


def _symmetrized(stack) -> np.ndarray:
    return 0.5 * (stack + np.swapaxes(stack, -1, -2))


def centred_scatter(x, resp, mean):
    """Two-pass responsibility-weighted scatter about ``mean``, unnormalized."""
    dev = x - mean
    return (resp[:, None] * dev).T @ dev


def walked_scatter(x, resp, mean):
    """The same scatter, one responsibility-scaled outer product per patch."""
    dev = x - mean
    d = dev.shape[1]
    acc = np.zeros((d, d))
    term = np.empty((d, d))
    for scaled, row in zip(resp[:, None] * dev, dev):
        np.multiply.outer(scaled, row, out=term)
        acc += term
    return acc


def mstep_covariance_direct(patch_matrix, resp, mu_tilde, generic_mean, generic_cov,
                            alpha: float, sigma_tilde_sq: float = 0.0,
                            scatter=walked_scatter) -> np.ndarray:
    """Literal two-pass covariance update of one component.

    Builds the scatter of the patches about ``mu_tilde``, each patch scaled
    by its responsibility, with ``scatter`` (``walked_scatter`` or
    ``centred_scatter``), then blends it with the anchor.
    """
    x = np.asarray(patch_matrix, dtype=np.float64)
    resp = np.asarray(resp, dtype=np.float64)
    count = float(resp.sum())
    if count <= 0.0:
        raise ValueError("component has no responsibility mass")
    mu_tilde = np.asarray(mu_tilde, dtype=np.float64)
    data = scatter(x, resp, mu_tilde) / count
    if sigma_tilde_sq:
        data = data - sigma_tilde_sq * np.eye(mu_tilde.size)
    anchor_dev = np.asarray(generic_mean, dtype=np.float64) - mu_tilde
    out = (alpha * data
           + (1.0 - alpha) * (np.asarray(generic_cov, dtype=np.float64)
                              + np.outer(anchor_dev, anchor_dev)))
    return 0.5 * (out + out.T)


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
