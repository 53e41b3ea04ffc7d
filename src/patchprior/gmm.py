"""Mixture-model containers and numerically stable Gaussian density math.

Everything likelihood-shaped here lives in log scale.  At patch dimension
64 a single Gaussian density underflows float64 in linear scale, so the
building blocks below are cached eigendecompositions, log-sum-exp
reductions, and eigenvalue clamping.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .patches import _integer

__all__ = [
    "Gmm",
    "SufficientStats",
    "DegeneratePatchError",
    "component_log_densities",
    "select_modes",
    "responsibilities",
    "condition_psd",
    "log_posterior_objective",
    "sufficient_stats",
    "sample_gmm",
]

_LOG_2PI = float(np.log(2.0 * np.pi))

# Construction-time tolerances, absolute.
WEIGHT_SUM_TOL = 1e-12
SYMMETRY_TOL = 1e-12

# Smallest covariance eigenvalue an EM or adaptation M-step keeps.
PSD_FLOOR = 1e-4

# Blocked kernels: the values one row-block buffer holds, at most K d per
# row (4 MiB in float64, 2 MiB in float32; 409 rows at K = 20 and d = 64).
_BLOCK_VALUES = 2 ** 19

# Float32 mode screen: unit roundoffs, and the absolute score slack that
# covers underflow and the float64 rounding of the constants.
_U32, _U64 = 2.0 ** -24, 2.0 ** -53
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
    if mat.ndim != 2 or 0 in mat.shape:
        raise ValueError(f"expected a nonempty (n, d) patch matrix, got shape {mat.shape}")
    return mat


def _distinct_rows(x):
    """The distinct rows of x in order of first occurrence, the number of
    times each occurs, the index of its first occurrence and, for each row
    of x, the index of its distinct row, or ``(x, None, None, None)`` when
    no row repeats.

    Rows are equal when their bytes are.  Each row is keyed by a sum of its
    32-bit words times fixed random odd numbers, modulo 2**64, which equal
    rows share; the rows whose keys tie after sorting are compared
    bytewise.  Should two different rows share a key, nothing is merged,
    which costs time but no accuracy.
    """
    n = x.shape[0]
    words = np.ascontiguousarray(x).view(np.uint32)
    odd = 2 * np.random.default_rng(0).integers(2 ** 63, size=words.shape[1],
                                                dtype=np.uint64) + 1
    keys = np.einsum("ij,j->i", words, odd)
    order = np.argsort(keys)
    ranked = keys[order]
    tie = ranked[1:] == ranked[:-1]
    if not tie.any():
        return x, None, None, None
    bits = x.view(np.uint64)
    i = np.flatnonzero(tie)
    if not (bits[order[i]] == bits[order[i + 1]]).all():
        return x, None, None, None
    start = np.flatnonzero(np.concatenate(([True], ~tie)))
    firsts = np.minimum.reduceat(order, start)
    by_first = np.argsort(firsts)
    rank = np.empty_like(by_first)
    rank[by_first] = np.arange(by_first.size)
    index = np.empty(n, dtype=np.intp)
    index[order] = rank[np.cumsum(np.concatenate(([0], ~tie)))]
    firsts = firsts[by_first]
    return x[firsts], np.diff(np.append(start, n))[by_first].astype(np.float64), firsts, index


@dataclasses.dataclass(frozen=True)
class Gmm:
    """Weighted full-covariance Gaussian mixture over d-dimensional vectors.

    Arrays are copied and marked read-only; instances are safe to share.
    Construction factors every covariance once as C_k = U_k diag(lambda_k) U_k^T,
    lambda_k ascending, and rejects any that is not positive-definite (after
    rejecting handed eigenvalues that do not ascend, since that check reads
    the first as the smallest); every density, mode selection and Wiener
    step reuses that factorization.  The EM and adaptation M-steps floor
    their covariances at ``PSD_FLOOR`` and build their models with
    ``_factored`` from the one eigh of that floor, as ``load_model`` builds
    a model from the factors its file carries: a clamped component's
    factors then reproduce its covariance to rounding, not bit for bit,
    and are not the eigh of that covariance.

    Every eigenvalue within d 2^-52 lambda_k,max of ``PSD_FLOOR`` is then
    set to ``PSD_FLOOR``, with lambda_k,max the largest of its component:
    eigh resolves no finer, so an axis that a floor left just above
    ``PSD_FLOOR`` sits on it exactly.  A second snap changes nothing, so a
    model rebuilt from its own factors keeps them bit for bit.
    """

    weights: np.ndarray      # (K,) nonnegative, sums to one
    means: np.ndarray        # (K, d)
    covariances: np.ndarray  # (K, d, d) symmetric
    eigenvalues: np.ndarray = dataclasses.field(init=False, repr=False, compare=False)
    eigenvectors: np.ndarray = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self, factors=None):
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
        if factors is None:
            evals, evecs = np.linalg.eigh(c)
        else:
            evals, evecs = (np.array(f, dtype=np.float64, order="C") for f in factors)
            if evals.shape != (k, d) or evecs.shape != c.shape:
                raise ValueError("eigen-factors do not match the covariances")
        bad = np.flatnonzero(~(np.diff(evals, axis=1) >= 0.0).all(axis=1))
        if bad.size:
            raise ValueError(f"eigenvalues do not ascend in component {int(bad[0])}")
        bad = np.flatnonzero(evals[:, 0] <= 0.0)
        if bad.size:
            raise ValueError(f"covariance of component {int(bad[0])} is not positive-definite "
                             f"(smallest eigenvalue {evals[bad[0], 0]:g})")
        evals[np.abs(evals - PSD_FLOOR) <= d * 2.0 ** -52 * evals[:, -1:]] = PSD_FLOOR
        evals.flags.writeable = evecs.flags.writeable = False
        for name, a in (("weights", w), ("means", m), ("covariances", c),
                        ("eigenvalues", evals), ("eigenvectors", evecs)):
            object.__setattr__(self, name, a)

    @classmethod
    def _factored(cls, weights, means, covariances, eigenvalues, eigenvectors) -> "Gmm":
        """A model from covariances and their eigen-factors, as
        ``_psd_factors`` returns them or a model file carries them: every
        check of ``Gmm()`` runs, the order and positive-definite ones on
        the handed spectrum, and the floor snap, but nothing is decomposed.
        The caller vouches that the factors reproduce the covariances."""
        gmm = cls.__new__(cls)
        for name, a in (("weights", weights), ("means", means), ("covariances", covariances)):
            object.__setattr__(gmm, name, a)
        gmm.__post_init__((eigenvalues, eigenvectors))
        return gmm

    @property
    def n_components(self) -> int:
        return self.weights.size

    @property
    def dim(self) -> int:
        return self.means.shape[1]


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
    maximize.  Rows are scored a block at a time by one GEMM against all
    K components (see ``_scoring_layout``); no (n, K, d) array is formed.
    A point with a NaN or infinite entry is a ValueError that names it.

    Rounding, with v = 2^-53, gamma_n = n v / (1 - n v), c the mean of the
    means and L_k = sum_j 1 / (lambda_kj + inflation): coordinate j of the
    whitened deviation of x from mu_k is a (d+1)-term dot product of
    centred, rounded operands, one of them the mean's projection, itself a
    d-term dot product.  It is off by at most gamma_{2d+4} (|x - c| +
    |mu_k - c|) / sqrt(lambda_kj + inflation) (Cauchy-Schwarz on the unit
    eigenvector), so the whole deviation is off by at most
        e_k = gamma_{2d+4} (|x - c| + |mu_k - c|) sqrt(L_k)
    in Euclidean norm.  Its squared norm q is then off by at most
    gamma_d q + (1 + gamma_d)(2 e_k sqrt(q) + e_k^2), and the score by half
    that plus the rounding of its offset and of the final subtraction.

    With ``inflation`` s > 0 a component folds when at least a quarter of
    its axes (and two), not counting its last, have lambda_kj + s equal to
    its smallest, lambda_k,min + s: ``Gmm`` puts floored eigenvalues at
    ``PSD_FLOOR`` exactly, so a floored spectrum, inflated, is one
    isotropic block.  Its merged axes share a_k = 1 / (lambda_k,min + s),
    and
        q = a_k |x - mu_k|^2 - sum_free w_j (u_j . (x - mu_k))^2,
    w_j = a_k - 1 / (lambda_kj + s), which monotone rounding keeps
    nonnegative, is formed from one column per free axis plus one for
    |x - mu_k|^2, expanded about c.  With R = |x - c| + |mu_k - c| a
    folded q is off by at most
        (2 sqrt(d) + 2) gamma_{2d+12} R^2 / (lambda_k,min + s),
    to first order: the free axes' GEMM as above, with each w_j at most
    a_k, and the cancellation of the expanded norm, weighed by a_k; the
    rounding of a_k and of the w_j, a few v a_k R^2, lies inside it.  The
    components that do not fold keep their whitened columns in the same
    GEMM; a model in which nothing folds, and every call at s = 0, is
    scored exactly as above.
    """
    x = _checked_points(gmm, points, inflation)
    return _layout_scores(x, _scoring_layout(gmm, inflation))


def _checked_points(gmm: Gmm, points, inflation: float) -> np.ndarray:
    """The points as a float64 (n, d) matrix for ``gmm``, with a finite
    ``inflation``; a ValueError names the first point with a NaN or
    infinite entry."""
    x = _patch_matrix(points)
    if x.shape[1] != gmm.dim:
        raise ValueError(f"points have dimension {x.shape[1]}, model has {gmm.dim}")
    if not 0 <= inflation < np.inf:
        raise ValueError("inflation must be nonnegative and finite")
    if not np.isfinite(x).all():
        bad = int(np.flatnonzero(~np.isfinite(x).all(axis=1))[0])
        raise ValueError(f"patch {bad} has a non-finite entry")
    return x


def _scoring_layout(gmm: Gmm, inflation: float, merged=None):
    """The centre c, the float64 scoring basis, the (K,) score offsets and
    the fold record ``(plain, folds, starts, scale)``.

    The basis has d + 1 rows.  Its first columns hold the whitened basis
    U_k diag(lambda_k + inflation)^-1/2 of each plain component, d each,
    in the order of ``plain``; its last row holds -(mu_k - c) times that
    basis.  A row [x - c, 1] times them is each plain component's whitened
    deviation of x from its mean, and log w_k - (d log 2 pi + sum_j
    log(lambda_kj + inflation)) / 2 minus half its squared norm is the
    joint score.  Then come, per folded component (see
    ``component_log_densities``), one column u_kj sqrt(w_j) per axis that
    is not merged, above -(mu_k - c) times it; then one column
    [-2 (mu_k - c), |mu_k - c|^2] per folded component.  The record holds
    the indices of the plain and of the folded components, the first
    ragged column of each folded one and its a_k.

    A component folds where ``merged``, by default the ``_merged_axes``
    mask, merges its axes; an all-False mask gives the unfolded layout.
    """
    d = gmm.dim
    spectra = gmm.eigenvalues + inflation
    with np.errstate(divide="ignore"):
        base = np.log(gmm.weights) - 0.5 * (d * _LOG_2PI + np.log(spectra).sum(axis=1))
    centre = gmm.means.mean(axis=0)
    dev = gmm.means - centre
    merged = _merged_axes(gmm, inflation) if merged is None else merged
    folding = merged.any(axis=1)
    folds, plain = np.flatnonzero(folding), np.flatnonzero(~folding)
    kept = ~merged[folds]
    scale = 1.0 / spectra[folds].min(axis=1)
    columns = np.count_nonzero(kept, axis=1)
    wide, free = plain.size * d, int(columns.sum())
    basis = np.empty((d + 1, wide + free + folds.size))
    white = gmm.eigenvectors[plain]
    white /= np.sqrt(spectra[plain])[:, None, :]
    whitened = basis[:, :wide].reshape(d + 1, plain.size, d)
    whitened[:d] = white.transpose(1, 0, 2)
    whitened[d] = -np.einsum("kd,kde->ke", dev[plain], white)
    ragged = basis[:, wide:wide + free]
    ragged[:d] = gmm.eigenvectors[folds].transpose(1, 0, 2)[:, kept]
    ragged[d] = -np.einsum("kd,kde->ke", dev[folds], gmm.eigenvectors[folds])[kept]
    ragged *= np.sqrt((scale[:, None] - 1.0 / spectra[folds])[kept])
    basis[:d, wide + free:] = -2.0 * dev[folds].T
    basis[d, wide + free:] = np.einsum("kd,kd->k", dev[folds], dev[folds])
    return centre, basis, base, (plain, folds, np.cumsum(columns) - columns, scale)


def _merged_axes(gmm: Gmm, inflation: float) -> np.ndarray:
    """The (K, d) mask of the axes that each component folds at this
    inflation: those but its last whose inflated eigenvalue equals its
    smallest (see ``component_log_densities``), in a component that merges
    at least a quarter of its axes, and two.  It is all False at inflation
    0, where every component is scored plain.

    A kept column of a folded component costs more than a plain one, its
    square and ragged sum against the plain einsum, hence the quarter (at
    d = 64, K = 20: requiring 12 to 28 merged axes ran alike, and
    requiring 2 ran slower than no fold at inflation 12.5)."""
    spectra = gmm.eigenvalues + inflation
    merged = (spectra == spectra.min(axis=1, keepdims=True)) & (inflation > 0)
    merged[:, -1] = False
    merged &= np.count_nonzero(merged, axis=1)[:, None] >= max(2, gmm.dim // 4)
    return merged


def _blocked_forms(x, centre, basis, fold):
    """Yield ``(lo, centred, q)`` for each block of rows of x from row lo:
    the float64 rows minus the centre, and the (b, K) quadratic forms in
    a ``_scoring_layout`` basis with its ``fold`` record, by one GEMM per
    block in the basis dtype: the squared whitened norms of the plain
    components and, when any component folds, the folded forms
    a_k |x - mu_k|^2 - sum_free w_j (u_j . (x - mu_k))^2 of the rest."""
    n, d = x.shape
    plain, folds, starts, scale = fold
    k, wide = plain.size + folds.size, plain.size * d
    free = basis.shape[1] - wide - folds.size
    rows = max(1, _BLOCK_VALUES // (k * d))
    lhs = np.ones((min(rows, n), d + 1), dtype=basis.dtype)
    buf = np.empty((min(rows, n), basis.shape[1]), dtype=basis.dtype)
    for lo in range(0, n, rows):
        centred = x[lo:lo + rows] - centre
        b = centred.shape[0]
        lhs[:b, :d] = centred
        q = np.empty((b, k), dtype=basis.dtype)
        with np.errstate(over="ignore", invalid="ignore"):
            y = np.matmul(lhs[:b], basis, out=buf[:b])
            whitened = y[:, :wide].reshape(b, plain.size, d)
            q[:, plain] = np.einsum("bkd,bkd->bk", whitened, whitened)
            if folds.size:
                ragged = np.square(y[:, wide:wide + free], out=y[:, wide:wide + free])
                norms = np.einsum("ij,ij->i", centred, centred)[:, None] + y[:, wide + free:]
                q[:, folds] = scale * norms - np.add.reduceat(ragged, starts, axis=1)
        yield lo, centred, q


def _layout_scores(x, layout) -> np.ndarray:
    """The (n, K) joint scores of the rows of x in a ``_scoring_layout``."""
    centre, basis, base, fold = layout
    out = np.empty((x.shape[0], base.size))
    for lo, _, q in _blocked_forms(x, centre, basis, fold):
        out[lo:lo + q.shape[0]] = base - 0.5 * q
    return out


def _gamma(n: int, u: float) -> float:
    """Higham's gamma_n = n u / (1 - n u), the relative error bound of an
    n-term dot product at unit roundoff u."""
    return n * u / (1.0 - n * u)


def _mode_plan(gmm: Gmm, inflation: float):
    """``select_modes``' path at this inflation and its one float64 layout,
    from one ``_merged_axes`` mask: "fold" and the folded layout when it has
    at most K d / 2 columns (d per plain component; per folded one, one per
    free axis and its norm column), else "screen" and the unfolded layout."""
    merged = _merged_axes(gmm, inflation)
    columns = merged.size - np.count_nonzero(merged) + np.count_nonzero(merged.any(axis=1))
    path = "fold" if 2 * columns <= merged.size else "screen"
    return path, _scoring_layout(gmm, inflation, merged & (path == "fold"))


def select_modes(gmm: Gmm, points, inflation: float) -> np.ndarray:
    """Index of the highest-posterior component for each patch.

    Scores are weight times density under the component covariance plus
    ``inflation`` on the diagonal; rescaling all weights by a positive
    constant shifts every score equally and cannot change the argmax.  A
    patch with a NaN or infinite entry is a ValueError that names it.

    The result is the argmax of the float64 ``component_log_densities``,
    through the one layout of that kernel that ``_mode_plan`` builds.  The
    modes equal the argmax of the exact scores wherever its top two exact
    scores differ by more than twice the float64 kernel's bound (see its
    docstring); only such rounding-level ties, which the BLAS blocking of
    a float64 call can already flip, may fall either way.

    Fold: at inflation > 0, when the layout folds to at most K d / 2 GEMM
    columns, the modes are the argmax of its float64 scores.  That
    threshold was measured on a 14,641-patch stage at d = 64, K = 20 and
    one BLAS thread, on a floored prior with more or fewer components
    unfloored: the fold took 26 ms at 369 columns, 33 ms at 600 and
    37-41 ms at 695, the screen 34-37 ms at every width, so break-even lay
    between 600 and 695 of the 1,280 columns.

    Screen: every other layout is screened in float32, through the
    unfolded float64 layout cast to float32: on patches and means
    centred on the mean of the means c, the quadratic form q of every
    patch x under every component k is formed in float32.  With u = 2^-24,
    the float64 unit roundoff v = 2^-53, gamma_n(u) = n u / (1 - n u) and
    L_k = sum_j 1 / (lambda_kj + inflation), each eigen-coordinate of
    x - mu_k is off by at most
        E = (gamma_{d+4}(u) + gamma_{2d+4}(v)) (|x - c| + |mu_k - c|)
    (Cauchy-Schwarz on each unit eigenvector; the gamma(v) term is the
    error of the float64 kernel, which forms the same centred products
    with the mean's projection as one more term), so the float32 form q'
    satisfies
        |q' - q| <= B = gamma_{d+4}(u) q' + 2 E sqrt(q' L_k) + 3 E^2 L_k.
    The score -q/2 is then off by at most B / 2; the screen doubles that,
    which also covers the second-order terms and the float64 rounding
    gamma_d(v) q of the squared norm, and adds 1e-6 for underflow and the
    float64 rounding of the constants.  A patch is certified when
    its float32 winner, lowered by B + 1e-6, still beats every other
    component raised by its own B + 1e-6: then the float64 scores order
    the same way.  Every other patch, including any with a non-finite
    float32 value, is rescored in that unfolded float64 layout (about 1%
    of the patches on natural scenes), whose bound is the plain one of
    ``component_log_densities``, even where some component would fold.
    """
    x = _checked_points(gmm, points, inflation)
    return _select(gmm, x, inflation, _mode_plan(gmm, inflation))


def _select(gmm: Gmm, x, inflation: float, plan, reach=None):
    """``select_modes`` of checked rows x through ``plan``, a ``_mode_plan``.

    Given ``reach``, a bound on the norm |x| of every row, it returns the
    modes and the rows' ``_deficit_bounds``, from the intervals that
    selection has already computed: on the screen, the certificate's
    float32 form within its score bound; on the fold and for the screen's
    re-checked rows, the float64 score within ``_score_error`` and the
    screen's slack.  ``_reselect`` reads them."""
    path, layout = plan
    n, d = x.shape
    centre, basis, base, fold = layout
    if path == "fold":
        scores = _layout_scores(x, layout)
        modes = scores.argmax(axis=1)
        if reach is None:
            return modes
        error = _score_error(gmm, inflation, centre, reach) + _SCREEN_SLACK
        return modes, _deficit_bounds((base - error) - scores, error, modes)
    bounds = None if reach is None else (np.empty((base.size, n)), np.empty(n))
    root_l = np.sqrt((1.0 / (gmm.eigenvalues + inflation)).sum(axis=1))
    g32, g64 = _gamma(d + 4, _U32), _gamma(2 * d + 4, _U64)
    mean_err = (g32 + g64) * _row_norms(gmm.means - centre)
    modes = np.empty(n, dtype=np.intp)
    unsure = []
    with np.errstate(over="ignore", invalid="ignore"):
        for lo, centred, q in _blocked_forms(x, centre, basis.astype(np.float32), fold):
            q = q.astype(np.float64)
            b = q.shape[0]
            # each score is within g32 q + t + slack of its float64 value,
            # with e = E sqrt(L_k) and t = 2 e sqrt(q) + 3 e^2
            e = ((g32 + g64) * _row_norms(centred)[:, None] + mean_err) * root_l
            t = e * (2.0 * np.sqrt(q) + 3.0 * e)
            upper = base + (g32 - 0.5) * q + t + _SCREEN_SLACK
            win = upper.argmax(axis=1)
            if bounds is not None:
                error = g32 * q + t + _SCREEN_SLACK
                bounds[0][:, lo:lo + b], bounds[1][lo:lo + b] = _deficit_bounds(
                    0.5 * q - error, error, win)
            at = np.arange(b), win
            lower = upper[at] - 2.0 * (g32 * q[at] + t[at] + _SCREEN_SLACK)
            upper[at] = -np.inf
            sure = (lower > upper.max(axis=1)) & np.isfinite(q).all(axis=1)
            modes[lo:lo + b] = win
            unsure.append(lo + np.flatnonzero(~sure))
    unsure = np.concatenate(unsure)
    scores = _layout_scores(x[unsure], layout)
    modes[unsure] = scores.argmax(axis=1)
    if bounds is None:
        return modes
    error = _score_error(gmm, inflation, centre, reach) + _SCREEN_SLACK
    bounds[0][:, unsure], bounds[1][unsure] = _deficit_bounds(
        (base - error) - scores, error, modes[unsure])
    return modes, bounds


def _score_error(gmm: Gmm, inflation: float, centre, reach) -> float:
    """A bound on the error of a float64 ``_scoring_layout`` score at this
    inflation, plain or folded, for rows of norm at most ``reach``: the
    folded form's bound of ``component_log_densities``, (2 sqrt(d) + 2)
    gamma_{2d+12} a_k R_k^2, at R = reach + |c| + max_k |mu_k - c| and the
    largest a_k, and not halved, which covers second-order terms.  It
    covers the plain bound too, whose terms are at most gamma_d a_k R^2,
    2 sqrt(d) gamma_{2d+4} a_k R^2 and d gamma_{2d+4}^2 a_k R^2, since
    q <= a_k R^2 and L_k <= d a_k."""
    d = gmm.dim
    radius = reach + np.linalg.norm(centre) + _row_norms(gmm.means - centre).max()
    scale = 1.0 / (gmm.eigenvalues[:, 0] + inflation).min()
    return (2.0 * np.sqrt(d) + 2.0) * _gamma(2 * d + 12, _U64) * scale * radius ** 2


def _deficit_bounds(below, error, modes):
    """Bounds on each row's exact score deficits g_k = base_k - score_k,
    which lie within ``error`` of a computed deficit, from the (b, K)
    ``below``, that deficit minus ``error``, which it overwrites: a (K, b)
    array of lower bounds on sqrt(g_k) and a (b,) one of upper bounds on
    sqrt(g) at each row's mode, each rounded outward by 2^-50.  A NaN
    deficit, of a component of weight 0 (base -inf), gets 0, and an
    infinite one, which may be the overflow of a finite g, the largest
    float64."""
    at = np.arange(below.shape[0]), modes
    low = np.empty(below.shape[::-1])
    with np.errstate(invalid="ignore", over="ignore"):
        high = np.sqrt((below[at] + 2.0 * (error if np.ndim(error) == 0 else error[at]))
                       * (1.0 + 2.0 ** -50))
        np.fmin(np.fmax(below, 0.0, out=below).T, np.finfo(np.float64).max, out=low)
        np.sqrt(low, out=low)
        low *= 1.0 - 2.0 ** -50
    return low, high


def _reselect(gmm: Gmm, x, inflation: float, plan, modes, bounds, shift, reach):
    """``_select`` of checked rows x through ``plan``, from the ``modes`` and
    ``_deficit_bounds`` that ``_select`` returned for rows p_i with
    |x_i - p_i| <= ``shift[i]``; returns the modes and the number of rows
    scored again.

    With r_k = shift / sqrt(2 (lambda_k,min + inflation)), the root of
    each exact deficit g_k = q_k / 2 moves by at most r_k: |W_k (x - p)|
    <= |x - p| / sqrt(lambda_k,min + inflation) for the whitening W_k.  A
    row keeps its mode m when base_m - (high + r_m)^2, lowered by
    ``_score_error`` at ``reach``, a bound on |x_i|, and the screen's
    slack, still beats base_k - max(low_k - r_k, 0)^2, raised by the
    same, for every other k: then m is the strict argmax of the float64
    scores of x_i, in any layout and blocking, so ``_select`` returns it
    (its screen certifies only a float64 winner).  Every other row goes
    through ``_select``.  r_k is raised by 2^-40 for the rounding of the
    shift and of an eigenbasis that is orthogonal to rounding only."""
    low, high = bounds
    n = x.shape[0]
    centre, _, base, _ = plan[1]
    slack = _score_error(gmm, inflation, centre, reach) + _SCREEN_SLACK
    step = (1.0 + 2.0 ** -40) / np.sqrt(2.0 * (gmm.eigenvalues[:, 0] + inflation))
    r = np.multiply.outer(step, shift)
    at = modes, np.arange(n)
    with np.errstate(invalid="ignore", over="ignore"):
        lower = base[modes] - slack - np.square(high + r[at])
        upper = np.subtract(low, r, out=r)
        np.maximum(upper, 0.0, out=upper)
        np.subtract((base + slack)[:, None], np.square(upper, out=upper), out=upper)
        upper[at] = -np.inf
        unsure = np.flatnonzero(~(lower > upper.max(axis=0)))
    modes = modes.copy()
    if unsure.size:
        modes[unsure] = _select(gmm, x[unsure], inflation, plan)
    return modes, unsure.size


def _row_norms(a) -> np.ndarray:
    return np.sqrt(np.einsum("ij,ij->i", a, a))


def responsibilities(gmm: Gmm, patches, inflation: float = 0.0):
    """Posterior component memberships for each patch: the E-step's softmax.

    Returns the (n, K) responsibility matrix, the per-component soft counts
    and the (n,) log normalizer of each patch, its log mixture density,
    whose sum is the likelihood term of ``log_posterior_objective``.  Rows
    of scores are shifted by their maximum before ``exp``, so the result is
    exact up to rounding even when every density underflows; posteriors
    below 2**-53 / n are flushed to 0.0 (see ``_softmax``).  A patch with a
    NaN or infinite entry is a ValueError that names it, and a
    ``DegeneratePatchError`` names a patch with no support.
    """
    return _softmax(gmm, _checked_points(gmm, patches, inflation), inflation)


def _softmax(gmm: Gmm, rows, inflation: float, copies=None, firsts=None):
    """``responsibilities`` of m rows that its checks have passed: a float64
    (m, d) matrix of finite rows and a valid ``inflation``.  ``em_fit`` and
    ``adapt`` check their patches once, where they enter, and run every
    E-step through this on the distinct rows, ``copies`` and ``firsts``
    that ``_distinct_rows`` returns.

    ``copies``, if given, holds m positive counts: row i stands for that
    many equal patches, and is scored once.  Its posteriors and log density
    are then multiplied by it, so that rows sum to the copies, and the
    counts and ``loglik.sum()`` are those of all n represented patches;
    ``sufficient_stats`` takes such a matrix as it is.  Without it every
    row stands for one patch and n = m.  Before that scaling, posteriors
    below 2**-53 / n are flushed to 0.0 (the log normalizer keeps the
    unflushed row sum).  Over the n patches that moves each count by less
    than 2**-53 and each moment sum by less than 2**-53 max |x_i x_j|, and
    leaves no subnormal posterior to slow the products of
    ``sufficient_stats`` on x86, which skips every zero.

    A row with no support is a ``DegeneratePatchError`` that names patch
    ``firsts[row]``, the first occurrence of that row, or ``row`` itself
    when ``firsts`` is None.
    """
    scores = _layout_scores(rows, _scoring_layout(gmm, inflation))
    n = rows.shape[0] if copies is None else float(copies.sum())
    top = scores.max(axis=1)
    if not np.isfinite(top).all():
        row = int(np.flatnonzero(~np.isfinite(top))[0])
        patch = row if firsts is None else int(firsts[row])
        raise DegeneratePatchError(f"patch {patch} has no support under any component")
    z = np.exp(np.subtract(scores, top[:, None], out=scores), out=scores)
    total = z.sum(axis=1)
    loglik = top + np.log(total)
    gamma = np.divide(z, total[:, None], out=z)
    gamma[gamma < 2.0 ** -53 / n] = 0.0
    if copies is not None:
        gamma *= copies[:, None]
        loglik *= copies
    return gamma, gamma.sum(axis=0), loglik


def condition_psd(sigma, floor: float) -> np.ndarray:
    """Project a symmetric matrix, or each of a (K, d, d) stack, onto the
    cone with eigenvalues >= floor.

    Symmetrizes, clamps the spectrum, and reconstructs; this is the
    closest such matrix in Frobenius norm, from one batched eigh for a
    stack.  Inputs that already satisfy the floor are returned symmetrized
    but otherwise untouched, so the operation is idempotent.
    """
    return _psd_factors(sigma, floor)[0]


def _psd_factors(sigma, floor: float = PSD_FLOOR):
    """``condition_psd``'s projection and its factors, for ``Gmm._factored``,
    from one batched eigh of the symmetrized stack.  A matrix already on
    the floor is that symmetrization, with the eigh's factors.  A clamped
    one keeps the eigh's eigenvectors U and gets m = max(lambda, floor) as
    its eigenvalues; its matrix is the symmetrized U diag(m) U^T, which
    those factors reproduce to rounding.  Nothing is decomposed again."""
    if not 0 < floor < np.inf:
        raise ValueError("floor must be positive and finite")
    a = np.asarray(sigma, dtype=np.float64)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise ValueError("expected a square matrix or a stack of them")
    sym = 0.5 * (a + np.swapaxes(a, -1, -2))
    evals, evecs = np.linalg.eigh(sym)
    low = evals[..., 0] < floor
    if low.any():
        u, lam = evecs[low], np.maximum(evals[low], floor)
        evals[low] = lam
        out = (u * lam[..., None, :]) @ np.swapaxes(u, -1, -2)
        sym[low] = 0.5 * (out + np.swapaxes(out, -1, -2))
    return sym, evals, evecs


def log_posterior_objective(gmm_tilde: Gmm, patches, generic: Gmm, rho: float,
                            inflation: float = 0.0) -> float:
    """Data log-likelihood plus the log adaptation prior, up to a constant.

    The likelihood term is the sum of the log normalizers that
    ``responsibilities`` returns, with each covariance inflated by
    ``inflation``; the prior term is ``_log_prior``.
    """
    return (float(responsibilities(gmm_tilde, patches, inflation)[2].sum())
            + _log_prior(gmm_tilde, generic, rho))


def _log_prior(gmm: Gmm, generic: Gmm, rho: float) -> float:
    """Log conjugate prior of a model, without its normalizer, under the
    hyperparameters of MAP adaptation toward ``generic`` with relevance
    factor rho (Gauvain & Lee, IEEE TSAP 1994), in the cached eigenbasis:
        rho sum_k [K w_gk log w_k - 1/2 sum_j log lambda_kj - 1/2 tr(C_gk C_k^-1)
                   - 1/2 (mu_k - mu_gk)^T C_k^-1 (mu_k - mu_gk)].
    A generic component of weight 0 has no weight term.
    """
    if not 0 < rho < np.inf:
        raise ValueError("rho must be positive and finite")
    if generic.n_components != gmm.n_components or generic.dim != gmm.dim:
        raise ValueError("generic model does not match the model shape")
    basis, lam = gmm.eigenvectors, gmm.eigenvalues
    dev = np.einsum("kd,kde->ke", gmm.means - generic.means, basis)
    scale = np.einsum("kde,kde->ke", basis, generic.covariances @ basis)
    anchored = generic.weights > 0.0
    with np.errstate(divide="ignore"):
        weight_term = generic.weights[anchored] @ np.log(gmm.weights[anchored])
    return rho * float(gmm.n_components * weight_term
                       - 0.5 * (np.log(lam).sum() + ((dev * dev + scale) / lam).sum()))


def sufficient_stats(patches, gamma) -> SufficientStats:
    """Accumulate soft counts, means and raw second moments in one pass
    over the patches.

    ``gamma`` must be finite and nonnegative; a NaN, infinite or negative
    entry raises ``ValueError``.  Its rows may sum to more than one: a row
    of posteriors scaled by a multiplicity, as ``_softmax`` returns it for
    the distinct rows of ``em_fit`` and ``adapt``, stands for that many
    copies of its patch, and the counts then sum to the number of patches
    represented.  Subnormal entries cost a microcode assist per product on
    x86; ``_softmax`` never returns them.

    A row's support is the set of components where its gamma is positive;
    posteriors are mostly exact zeros once components specialize, and
    ``_softmax`` flushes the tiny ones.  Rows go in the stable order
    of their support, a block at a time, each block gathered through that
    order into one buffer; rows with empty support are dropped.  Rows of
    one block then share most of their support.  A component is live in a
    block when any of its gamma there is positive.  The (b, m, d) products
    gamma_nk x_n of the m live components go through one GEMM from the
    left by [x, 1]^T, and are added into one (d+1, K, d) sum whose last row
    holds the first moments.  The skipped terms are exact zeros, and each
    live component's sum is the same GEMM dot product over the same rows
    as in a pass over all K components, so the moments do not depend on the
    skipping; the row order moves them only by rounding.  Every sum has
    nonnegative weights, so with v = 2^-53 each moment is within
    gamma_{2n+3}(v) times sum_n gamma_nk |x_ni x_nj| / n_k of its exact
    value (x_nj for means), in any row order.  A component with zero count
    keeps zero moments; one whose moments come out non-finite, from a
    non-finite or overflowing patch in its support, is a ValueError that
    names it.
    """
    x = _patch_matrix(patches)
    g = np.asarray(gamma, dtype=np.float64)
    n, d = x.shape
    if g.ndim != 2 or g.shape[0] != n or g.shape[1] == 0:
        raise ValueError(f"expected an ({n}, K) responsibility matrix with K >= 1, got {g.shape}")
    k = g.shape[1]
    bad = np.flatnonzero(~(g >= 0.0) | (g == np.inf))
    if bad.size:
        i, j = divmod(int(bad[0]), k)
        raise ValueError(f"responsibility [{i}, {j}] is {float(g[i, j])}; "
                         "responsibilities must be finite and nonnegative")
    counts = g.sum(axis=0)
    key = np.packbits(g > 0.0, axis=1)
    order = np.lexsort(key.T[::-1])
    # the empty support sorts first
    order = order[n - np.count_nonzero(key.any(axis=1)):]
    rows = max(1, _BLOCK_VALUES // (k * d))
    lhs = np.ones((min(rows, order.size), d + 1))
    buf = np.empty(min(rows, order.size) * k * d)
    compact = np.empty((d + 1) * k * d)
    prod = np.empty((d + 1, k, d))
    sums = np.zeros((d + 1, k, d))
    for lo in range(0, order.size, rows):
        idx = order[lo:lo + rows]
        b = idx.size
        block = np.take(x, idx, axis=0, out=lhs[:b, :d])
        weights = g[idx]
        cols = weights.any(axis=0)
        m = int(np.count_nonzero(cols))
        terms = buf[:b * m * d].reshape(b, m, d)
        np.multiply((weights if m == k else weights[:, cols])[:, :, None],
                    block[:, None, :], out=terms)
        out = prod if m == k else compact[:(d + 1) * m * d].reshape(d + 1, m, d)
        np.matmul(lhs[:b].T, terms.reshape(b, m * d), out=out.reshape(d + 1, m * d))
        if m < k:
            # a contiguous add of the full width beats a strided one of the live columns
            prod.fill(0.0)
            prod[:, cols] = out
        sums += prod
    sums = sums.transpose(1, 0, 2)
    filled = (counts > 0.0)[:, None, None]
    moments = np.divide(sums, counts[:, None, None], out=np.zeros(sums.shape), where=filled)
    bad = np.flatnonzero(~np.isfinite(moments).all(axis=(1, 2)))
    if bad.size:
        raise ValueError(f"moments of component {int(bad[0])} are not finite")
    seconds = moments[:, :d]
    return SufficientStats(counts=counts, means=moments[:, d],
                           second_moments=0.5 * (seconds + seconds.transpose(0, 2, 1)))


def sample_gmm(gmm: Gmm, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n rows from the mixture with the generator ``rng``; ``n`` must be
    an integer of at least 1, else a ValueError names it."""
    if _integer("n", n) < 1:
        raise ValueError("n must be at least 1")
    labels = rng.choice(gmm.n_components, size=n, p=gmm.weights)
    out = np.empty((n, gmm.dim))
    for k in np.unique(labels):
        idx = np.flatnonzero(labels == k)
        out[idx] = rng.multivariate_normal(gmm.means[k], gmm.covariances[k],
                                           size=idx.size, method="cholesky")
    return out
