"""Mixture-model containers and numerically stable Gaussian density math.

Everything likelihood-shaped here lives in log scale.  At patch dimension
64 a single Gaussian density underflows float64 in linear scale, so the
building blocks below are cached eigendecompositions, log-sum-exp
reductions, and eigenvalue clamping.
"""

from __future__ import annotations

import dataclasses

import numpy as np

__all__ = [
    "Gmm",
    "HyperParams",
    "SufficientStats",
    "DegeneratePatchError",
    "component_log_densities",
    "responsibilities",
    "condition_psd",
    "log_posterior_objective",
    "derive_hyperparams",
    "sufficient_stats",
    "sample_gmm",
]

_LOG_2PI = float(np.log(2.0 * np.pi))
_TINY = np.finfo(np.float64).tiny  # smallest normal float64, 2**-1022

# Construction-time tolerances, absolute.
WEIGHT_SUM_TOL = 1e-12
SYMMETRY_TOL = 1e-12

# Float32 mode screen: unit roundoffs, the float32 values one row block
# holds (2 MiB, 409 rows at K = 20 and d = 64), and the absolute score
# slack that covers underflow and the float64 rounding of the constants.
_U32, _U64 = 2.0 ** -24, 2.0 ** -53
_SCREEN_VALUES = 2 ** 19
_SCREEN_SLACK = 1e-6


class DegeneratePatchError(ValueError):
    """A patch has zero likelihood under every mixture component."""


def _frozen(array, dtype=np.float64) -> np.ndarray:
    out = np.array(array, dtype=dtype, order="C")
    out.flags.writeable = False
    return out


def _patch_matrix(patches) -> np.ndarray:
    """Check a nonempty (n, d) array of row vectors; returns it as float64."""
    mat = np.asarray(patches, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] == 0:
        raise ValueError(f"expected a nonempty (n, d) patch matrix, got shape {mat.shape}")
    return mat


@dataclasses.dataclass(frozen=True)
class Gmm:
    """Weighted full-covariance Gaussian mixture over d-dimensional vectors.

    Arrays are copied and marked read-only; instances are safe to share.
    Construction factors every covariance once as C_k = U_k diag(lambda_k) U_k^T
    and rejects any that is not positive-definite; every density and
    Wiener step reuses that factorization.
    """

    weights: np.ndarray      # (K,) nonnegative, sums to one
    means: np.ndarray        # (K, d)
    covariances: np.ndarray  # (K, d, d) symmetric
    eigenvalues: np.ndarray = dataclasses.field(init=False, repr=False, compare=False)
    eigenvectors: np.ndarray = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        w = _frozen(self.weights)
        m = _frozen(self.means)
        c = _frozen(self.covariances)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a nonempty 1-D array")
        k = w.size
        if m.ndim != 2 or m.shape[0] != k:
            raise ValueError(f"means must have shape ({k}, d), got {m.shape}")
        d = m.shape[1]
        if c.shape != (k, d, d):
            raise ValueError(f"covariances must have shape ({k}, {d}, {d}), got {c.shape}")
        for name, a in (("weights", w), ("means", m), ("covariances", c)):
            if not np.isfinite(a).all():
                raise ValueError(f"{name} contain non-finite values")
        if (w < 0).any():
            raise ValueError("weights must be nonnegative")
        if abs(float(w.sum()) - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"weights sum to {w.sum()!r}, expected 1")
        asym = float(np.abs(c - np.transpose(c, (0, 2, 1))).max())
        if asym > SYMMETRY_TOL:
            raise ValueError(f"covariances asymmetric by {asym:g}")
        evals, evecs = np.linalg.eigh(c)
        bad = np.flatnonzero(evals[:, 0] <= 0.0)
        if bad.size:
            raise ValueError(f"covariance of component {int(bad[0])} is not positive-definite "
                             f"(smallest eigenvalue {evals[bad[0], 0]:g})")
        evals.flags.writeable = evecs.flags.writeable = False
        for name, a in (("weights", w), ("means", m), ("covariances", c),
                        ("eigenvalues", evals), ("eigenvectors", evecs)):
            object.__setattr__(self, name, a)

    @property
    def n_components(self) -> int:
        return self.weights.size

    @property
    def dim(self) -> int:
        return self.means.shape[1]


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
        v = _frozen(self.weight_counts)
        locs = _frozen(self.mean_locs)
        tau = _frozen(self.mean_strengths)
        psi = _frozen(self.scale_mats)
        phi = _frozen(self.dofs)
        if v.ndim != 1 or v.size == 0:
            raise ValueError("weight_counts must be a nonempty 1-D array")
        k = v.size
        if locs.ndim != 2 or locs.shape[0] != k:
            raise ValueError("mean_locs must have shape (K, d)")
        d = locs.shape[1]
        if tau.shape != (k,) or phi.shape != (k,) or psi.shape != (k, d, d):
            raise ValueError("hyperparameter shapes are inconsistent")
        for name, a in (("weight_counts", v), ("mean_locs", locs), ("mean_strengths", tau),
                        ("scale_mats", psi), ("dofs", phi)):
            if not np.isfinite(a).all():
                raise ValueError(f"{name} contain non-finite values")
        if (v <= 0).any():
            raise ValueError("weight_counts must be positive")
        if (tau <= 0).any():
            raise ValueError("mean_strengths must be positive")
        asym = float(np.abs(psi - np.transpose(psi, (0, 2, 1))).max())
        if asym > SYMMETRY_TOL:
            raise ValueError(f"scale_mats asymmetric by {asym:g}")
        object.__setattr__(self, "weight_counts", v)
        object.__setattr__(self, "mean_locs", locs)
        object.__setattr__(self, "mean_strengths", tau)
        object.__setattr__(self, "scale_mats", psi)
        object.__setattr__(self, "dofs", phi)

    @property
    def n_components(self) -> int:
        return self.weight_counts.size

    @property
    def dim(self) -> int:
        return self.mean_locs.shape[1]


@dataclasses.dataclass(frozen=True)
class SufficientStats:
    """Soft per-component first and second moments of a patch matrix; the
    centered scatter of component k is counts[k] * (Q_k - mu_k mu_k^T)."""

    counts: np.ndarray          # (K,) soft sample counts, sum to n
    means: np.ndarray           # (K, d) soft sample means (zero where count is zero)
    second_moments: np.ndarray  # (K, d, d) raw second moments divided by counts

    def __post_init__(self):
        c = _frozen(self.counts)
        m = _frozen(self.means)
        q = _frozen(self.second_moments)
        if c.ndim != 1 or (c < 0).any():
            raise ValueError("counts must be nonnegative")
        k = c.size
        d = m.shape[1] if m.ndim == 2 else -1
        if m.shape != (k, d) or q.shape != (k, d, d):
            raise ValueError("statistic shapes are inconsistent")
        object.__setattr__(self, "counts", c)
        object.__setattr__(self, "means", m)
        object.__setattr__(self, "second_moments", q)

    @property
    def n_components(self) -> int:
        return self.counts.size

    @property
    def dim(self) -> int:
        return self.means.shape[1]


def component_log_densities(gmm: Gmm, points, inflation: float = 0.0) -> np.ndarray:
    """(n, K) matrix of joint log scores log w_k + log N(x; mu_k, C_k + inflation I).

    ``inflation`` is added to every covariance diagonal, which is how
    observation noise of that variance is folded into a clean-signal
    covariance; in the cached eigenbasis it shifts the spectrum.  These
    are the scores that posteriors and mode selection normalize or
    maximize.  One GEMM per component projects the points; no (n, K, d)
    array is formed.
    """
    x = _checked_points(gmm, points, inflation)
    out = np.empty((x.shape[0], gmm.n_components))
    spectra = gmm.eigenvalues + inflation
    consts = gmm.dim * _LOG_2PI + np.log(spectra).sum(axis=1)
    y = np.empty(x.shape)
    with np.errstate(over="ignore", divide="ignore"):
        offsets = np.log(gmm.weights)
        for k, basis in enumerate(gmm.eigenvectors):
            np.matmul(x, basis, out=y)
            y -= gmm.means[k] @ basis
            np.square(y, out=y)
            out[:, k] = offsets[k] - 0.5 * (consts[k] + y @ (1.0 / spectra[k]))
    return out


def _checked_points(gmm: Gmm, points, inflation: float) -> np.ndarray:
    x = _patch_matrix(points)
    if x.shape[1] != gmm.dim:
        raise ValueError(f"points have dimension {x.shape[1]}, model has {gmm.dim}")
    if not 0 <= inflation < np.inf:
        raise ValueError("inflation must be nonnegative and finite")
    return x


def _gamma(n: int, u: float) -> float:
    """Higham's gamma_n = n u / (1 - n u), the relative error bound of an
    n-term dot product at unit roundoff u."""
    return n * u / (1.0 - n * u)


def _screen_modes(gmm: Gmm, points, inflation: float):
    """Float32 argmax of the joint scores, and the rows it cannot certify.

    Returns ``(modes, unsure)``.  For every row not in ``unsure``,
    ``modes`` equals the float64 argmax of ``component_log_densities(gmm,
    points, inflation)``; ``denoise.select_modes`` states
    the bound that certifies it.  Rows are scored _SCREEN_VALUES // (K d)
    at a time against the whitened bases U_k diag(lambda_k + inflation)^-1/2
    of all K components side by side; the centred mean projections ride
    along as one more row of the basis against a column of ones.
    """
    x = _checked_points(gmm, points, inflation)
    n, d = x.shape
    k = gmm.n_components
    spectra = gmm.eigenvalues + inflation
    root_l = np.sqrt((1.0 / spectra).sum(axis=1))
    with np.errstate(divide="ignore"):
        base = np.log(gmm.weights) - 0.5 * (d * _LOG_2PI + np.log(spectra).sum(axis=1))
    centre = gmm.means.mean(axis=0)
    dev = gmm.means - centre
    white = gmm.eigenvectors / np.sqrt(spectra)[:, None, :]
    basis = np.empty((d + 1, k, d), dtype=np.float32)
    basis[:d] = white.transpose(1, 0, 2)
    basis[d] = -np.einsum("kd,kde->ke", dev, white)
    basis = basis.reshape(d + 1, k * d)
    g32, g64 = _gamma(d + 4, _U32), _gamma(d + 4, _U64)
    # E = g32 (|x - c| + |mu - c|) + g64 (|x| + |mu|), with |x| <= |x - c| + |c|
    mean_err = g32 * _row_norms(dev) + g64 * (_row_norms(gmm.means) + np.linalg.norm(centre))
    rows = max(1, _SCREEN_VALUES // (k * d))
    lhs = np.ones((min(rows, n), d + 1), dtype=np.float32)
    buf = np.empty((min(rows, n), k * d), dtype=np.float32)
    modes = np.empty(n, dtype=np.intp)
    unsure = []
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, n, rows):
            centred = x[lo:lo + rows] - centre
            b = centred.shape[0]
            lhs[:b, :d] = centred
            y = np.matmul(lhs[:b], basis, out=buf[:b]).reshape(b, k, d)
            q = np.einsum("bkd,bkd->bk", y, y).astype(np.float64)
            # each score is within g32 q + t + slack of its float64 value,
            # with e = E sqrt(L_k) and t = 2 e sqrt(q) + 3 e^2
            e = ((g32 + g64) * _row_norms(centred)[:, None] + mean_err) * root_l
            t = e * (2.0 * np.sqrt(q) + 3.0 * e)
            upper = base + (g32 - 0.5) * q + t + _SCREEN_SLACK
            win = upper.argmax(axis=1)
            at = np.arange(b), win
            lower = upper[at] - 2.0 * (g32 * q[at] + t[at] + _SCREEN_SLACK)
            upper[at] = -np.inf
            sure = (lower > upper.max(axis=1)) & np.isfinite(q).all(axis=1)
            modes[lo:lo + b] = win
            unsure.append(lo + np.flatnonzero(~sure))
    return modes, np.concatenate(unsure)


def _row_norms(a) -> np.ndarray:
    return np.sqrt(np.einsum("ij,ij->i", a, a))


def _normalize(scores):
    """Posterior rows of a score matrix and each row's log normalizer.

    Posteriors below the smallest normal float64, 2**-1022 (about
    2.2e-308), are set to exactly 0.0 after the division; a subnormal
    operand slows every product it enters on x86, and the moments are
    built from such products.  Each flushed entry moves by less than
    2**-1022, so over n rows a count moves by less than n * 2**-1022 and
    a moment sum by less than that times max x**2: below one ulp of any
    component with mass above about 1e-280.  The log normalizer comes
    from the unflushed row sum.
    """
    top = scores.max(axis=1)
    if not np.isfinite(top).all():
        bad = int(np.flatnonzero(~np.isfinite(top))[0])
        raise DegeneratePatchError(f"patch {bad} has no support under any component")
    z = np.exp(scores - top[:, None])
    total = z.sum(axis=1)
    gamma = z / total[:, None]
    gamma[gamma < _TINY] = 0.0
    return gamma, top + np.log(total)


def responsibilities(gmm: Gmm, patches, inflation: float = 0.0,
                     with_loglik: bool = False):
    """Posterior component memberships for each patch.

    Returns the (n, K) responsibility matrix (rows sum to one) and the
    per-component soft counts; with ``with_loglik`` also the (n,) log
    mixture density of each patch, which is the likelihood term of
    ``log_posterior_objective`` at no extra cost.  Computed through a
    shifted softmax so the result is exact up to rounding even when every
    density underflows.  Every entry is either 0.0 or at least 2**-1022:
    subnormal posteriors are flushed to zero, which moves a count by less
    than n * 2**-1022 (see ``_normalize``).
    """
    gamma, loglik = _normalize(component_log_densities(gmm, patches, inflation))
    if with_loglik:
        return gamma, gamma.sum(axis=0), loglik
    return gamma, gamma.sum(axis=0)


def condition_psd(sigma, floor: float) -> np.ndarray:
    """Project a symmetric matrix, or each of a (K, d, d) stack, onto the
    cone with eigenvalues >= floor.

    Symmetrizes, clamps the spectrum, and reconstructs; this is the
    closest such matrix in Frobenius norm, from one batched eigh for a
    stack.  Inputs that already satisfy the floor are returned symmetrized
    but otherwise untouched, so the operation is idempotent.
    """
    if not 0 < floor < np.inf:
        raise ValueError("floor must be positive and finite")
    a = np.asarray(sigma, dtype=np.float64)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise ValueError("expected a square matrix or a stack of them")
    sym = 0.5 * (a + np.swapaxes(a, -1, -2))
    evals, evecs = np.linalg.eigh(sym)
    low = evals[..., 0] < floor
    if not low.any():
        return sym
    u = evecs[low]
    out = (u * np.maximum(evals[low], floor)[..., None, :]) @ np.swapaxes(u, -1, -2)
    sym[low] = 0.5 * (out + np.swapaxes(out, -1, -2))
    return sym


def log_posterior_objective(gmm_tilde: Gmm, patches, hyper: HyperParams,
                            inflation: float = 0.0) -> float:
    """Data log-likelihood plus the log conjugate prior, up to a constant.

    The likelihood term sums log mixture densities with each covariance
    inflated by ``inflation``.  The prior term drops its normalizer but is
    otherwise the full Dirichlet and normal-inverse-Wishart log density,
    so differences between parameter settings are exact.
    """
    _, loglik = _normalize(component_log_densities(gmm_tilde, patches, inflation))
    return float(loglik.sum()) + _log_prior(gmm_tilde, hyper)


def _log_prior(gmm: Gmm, hyper: HyperParams) -> float:
    """Log Dirichlet and normal-inverse-Wishart density of a model, without
    its normalizer, evaluated in the model's cached eigenbasis."""
    if hyper.n_components != gmm.n_components or hyper.dim != gmm.dim:
        raise ValueError("hyperparameters do not match the model shape")
    d = gmm.dim
    prior = 0.0
    for k, (lam, basis) in enumerate(zip(gmm.eigenvalues, gmm.eigenvectors)):
        v_k = float(hyper.weight_counts[k])
        if v_k != 1.0:
            with np.errstate(divide="ignore"):
                prior += (v_k - 1.0) * float(np.log(gmm.weights[k]))
        dev = (gmm.means[k] - hyper.mean_locs[k]) @ basis
        scale_diag = np.einsum("ij,ij->j", basis, hyper.scale_mats[k] @ basis)
        prior -= 0.5 * (float(hyper.dofs[k]) + d + 2.0) * float(np.log(lam).sum())
        prior -= 0.5 * float(hyper.mean_strengths[k]) * float((dev * dev) @ (1.0 / lam))
        prior -= 0.5 * float(scale_diag @ (1.0 / lam))
    return prior


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


def sufficient_stats(patches, gamma) -> SufficientStats:
    """Accumulate soft counts, means and raw second moments in one pass
    over the patches.

    ``gamma`` must be finite and nonnegative; a NaN, infinite or negative
    entry raises ``ValueError``.  Subnormal entries give the same moments
    as zeros, to within n * 2**-1022 per count (times max x**2 per moment
    sum), but cost a microcode assist per product on x86;
    ``responsibilities`` never returns them.
    """
    x = _patch_matrix(patches)
    g = np.asarray(gamma, dtype=np.float64)
    n, d = x.shape
    if g.shape[0] != n or g.ndim != 2:
        raise ValueError("responsibility matrix does not match the patch matrix")
    k = g.shape[1]
    bad = np.flatnonzero(~(g >= 0.0) | (g == np.inf))
    if bad.size:
        i, j = divmod(int(bad[0]), k)
        raise ValueError(f"responsibility [{i}, {j}] is {float(g[i, j])}; "
                         "responsibilities must be finite and nonnegative")
    counts = g.sum(axis=0)
    means = np.zeros((k, d))
    seconds = np.zeros((k, d, d))
    for j in range(k):
        c = float(counts[j])
        if c <= 0.0:
            continue
        means[j] = (g[:, j] @ x) / c
        raw = (x * g[:, j, None]).T @ x / c
        seconds[j] = 0.5 * (raw + raw.T)
    return SufficientStats(counts=counts, means=means, second_moments=seconds)


def sample_gmm(gmm: Gmm, n: int, rng) -> np.ndarray:
    """Draw n rows from the mixture.  ``rng`` is a Generator or a seed."""
    if n < 1:
        raise ValueError("n must be positive")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    labels = rng.choice(gmm.n_components, size=n, p=gmm.weights)
    out = np.empty((n, gmm.dim))
    for k in np.unique(labels):
        idx = np.flatnonzero(labels == k)
        out[idx] = rng.multivariate_normal(gmm.means[k], gmm.covariances[k],
                                           size=idx.size, method="cholesky")
    return out
