"""Reference forms of the adaptation M-step and objective, for verification
only.

The package computes the covariance update in one pass from the raw second
moments (``mstep_covariance_fast``), the whole update in closed form from
the relevance factor rho (``adaptation_mstep``), and the log prior of its
objective in closed form from rho (``gmm._log_prior``).  This module holds
the forms they are derived from and checked against:

* ``mstep_covariance_direct``: the two-pass covariance update, which walks
  the patches again to build the scatter about the blended mean; by default
  one outer product per patch, the slow baseline the one-pass form is timed
  against;
* ``HyperParams``: per-component Dirichlet and normal-inverse-Wishart
  hyperparameters, and ``derive_hyperparams``, the ones that rho implies;
* ``posterior_hyperparams`` and ``mstep_general``: the conjugate update of
  the hyperparameters and the mode of the updated posterior, which
  collapses to ``adaptation_mstep`` under the hyperparameters of
  ``derive_hyperparams``;
* ``log_prior_general`` and ``log_posterior_objective_general``: the log
  conjugate prior of any hyperparameters, and the log-likelihood plus it,
  which the package's closed form must equal under ``derive_hyperparams``.

The name differs from ``perfbench/reference.py`` on purpose: both
directories go on ``sys.path`` when the two suites run in one session.
"""

import dataclasses

import numpy as np
from scipy.special import logsumexp

from patchprior.gmm import PSD_FLOOR, Gmm, SufficientStats

_LOG_2PI = float(np.log(2.0 * np.pi))


@dataclasses.dataclass(frozen=True)
class HyperParams:
    """Per-component Dirichlet and normal-inverse-Wishart hyperparameters.

    ``dofs`` may sit below the proper-density threshold d - 1.  Small
    relevance factors land there on purpose; the closed-form updates stay
    well defined.
    """

    weight_counts: np.ndarray   # (K,) Dirichlet pseudo-counts, > 0
    mean_locs: np.ndarray       # (K, d) locations the means are pulled toward
    mean_strengths: np.ndarray  # (K,) pseudo-counts tying means to locations, > 0
    scale_mats: np.ndarray      # (K, d, d) symmetric scale matrices
    dofs: np.ndarray            # (K,) inverse-Wishart degrees of freedom

    def __post_init__(self):
        for field in dataclasses.fields(self):
            object.__setattr__(self, field.name,
                               np.asarray(getattr(self, field.name), dtype=np.float64))
        if (self.weight_counts <= 0).any() or (self.mean_strengths <= 0).any():
            raise ValueError("weight_counts and mean_strengths must be positive")

    @property
    def n_components(self) -> int:
        return self.weight_counts.size

    @property
    def dim(self) -> int:
        return self.mean_locs.shape[1]


def derive_hyperparams(gmm: Gmm, rho: float) -> HyperParams:
    """Hyperparameters that make the penalized M-step collapse to the
    relevance-blended update with a single factor ``rho``.

    Means are anchored at the model means with strength rho, scale
    matrices are rho times the model covariances with matching degrees of
    freedom, and Dirichlet counts place rho * K pseudo-observations at the
    model weights.
    """
    if rho <= 0:
        raise ValueError("rho must be positive")
    k, d = gmm.n_components, gmm.dim
    return HyperParams(
        weight_counts=1.0 + rho * k * gmm.weights,
        mean_locs=gmm.means,
        mean_strengths=np.full(k, float(rho)),
        scale_mats=rho * gmm.covariances,
        dofs=np.full(k, float(rho) - d - 2.0),
    )


def snapped_eigh(covariances):
    """``np.linalg.eigh`` of a (K, d, d) stack, then the floor snap that the
    ``Gmm`` docstring states: each eigenvalue within d 2^-52 lambda_max of
    ``PSD_FLOOR``, lambda_max its component's largest, is ``PSD_FLOOR``."""
    evals, evecs = np.linalg.eigh(covariances)
    near = np.abs(evals - PSD_FLOOR) <= evals.shape[-1] * 2.0 ** -52 * evals[..., -1:]
    return np.where(near, PSD_FLOOR, evals), evecs


def log_prior_general(gmm: Gmm, hyper: HyperParams) -> float:
    """Log Dirichlet and normal-inverse-Wishart density of a model, without
    its normalizer, one component at a time from a fresh ``snapped_eigh``
    of its covariance, in ``np.longdouble``: at the floor each 1/lambda
    weighs its term by 1e4, so float64 sums would blur the last digits
    this reference is compared on.  A weight whose Dirichlet count is
    exactly one has no term, so a zero weight there is not log 0."""
    if hyper.n_components != gmm.n_components or hyper.dim != gmm.dim:
        raise ValueError("hyperparameters do not match the model shape")
    d = gmm.dim
    ld = np.longdouble
    prior = ld(0.0)
    for k, (lam, basis) in enumerate(zip(*snapped_eigh(gmm.covariances))):
        lam, basis = lam.astype(ld), basis.astype(ld)
        v_k = ld(hyper.weight_counts[k])
        if v_k != 1.0:
            with np.errstate(divide="ignore"):
                prior += (v_k - 1) * np.log(ld(gmm.weights[k]))
        dev = (gmm.means[k].astype(ld) - hyper.mean_locs[k].astype(ld)) @ basis
        scale_diag = np.einsum("ij,ij->j", basis, hyper.scale_mats[k].astype(ld) @ basis)
        prior -= (ld(hyper.dofs[k]) + d + 2) / 2 * np.log(lam).sum()
        prior -= ld(hyper.mean_strengths[k]) / 2 * ((dev * dev) / lam).sum()
        prior -= (scale_diag / lam).sum() / 2
    return float(prior)


def log_posterior_objective_general(gmm: Gmm, patches, hyper: HyperParams,
                                    inflation: float = 0.0) -> float:
    """Sum of the patches' log mixture densities, each covariance inflated
    by ``inflation``, plus ``log_prior_general``."""
    x = np.asarray(patches, dtype=np.float64)
    spectra, bases = np.linalg.eigh(gmm.covariances + inflation * np.eye(gmm.dim))
    scores = np.empty((x.shape[0], gmm.n_components))
    for k, (lam, basis) in enumerate(zip(spectra, bases)):
        y = (x - gmm.means[k]) @ basis
        scores[:, k] = -0.5 * ((y * y) @ (1.0 / lam) + np.log(lam).sum() + gmm.dim * _LOG_2PI)
    with np.errstate(divide="ignore"):
        scores += np.log(gmm.weights)
    return float(logsumexp(scores, axis=1).sum()) + log_prior_general(gmm, hyper)


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
