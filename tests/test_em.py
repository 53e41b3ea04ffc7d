"""Baseline EM training: initialization, M-step, convergence, inflation."""

import numpy as np
import pytest

import patchprior.em as em_module
import patchprior.gmm as gmm_module
from patchprior.em import EmConfig, InsufficientDataError, em_fit
from patchprior.gmm import (
    PSD_FLOOR,
    Gmm,
    condition_psd,
    responsibilities,
    sample_gmm,
    sufficient_stats,
)

from mstep_reference import snapped, snapped_eigh


def record_eigh(monkeypatch, calls=None):
    """Record the input shape of every np.linalg.eigh call, in order; given
    a list ``calls``, also append a copy of each input and of its factors."""
    shapes = []
    real_eigh = np.linalg.eigh

    def eigh(a, *args, **kwargs):
        shapes.append(np.shape(a))
        factors = real_eigh(a, *args, **kwargs)
        if calls is not None:
            calls.append((np.array(a), *(np.array(f) for f in factors)))
        return factors

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    return shapes


def assert_factors_are_eigh(model):
    """The model's cached factors are exactly eigh of its covariances, then
    the floor snap of the Gmm docstring (``snapped_eigh``)."""
    evals, evecs = snapped_eigh(model.covariances)
    assert np.array_equal(model.eigenvalues, evals)
    assert np.array_equal(model.eigenvectors, evecs)


def assert_factors_of_the_floor(model, call, copies=1):
    """The model keeps the factors of one recorded eigh call of the floor,
    each component repeated ``copies`` times: the eigh's eigenvectors
    bit for bit, max(raw, PSD_FLOOR) after the floor snap as eigenvalues,
    and as covariances the eigh's input where nothing is clamped, else the
    symmetrized reconstruction U diag(max(raw, PSD_FLOOR)) U^T."""
    sym, raw, evecs = call
    lam = np.maximum(raw, PSD_FLOOR)
    low = raw[:, 0] < PSD_FLOOR
    u = evecs[low]
    out = (u * lam[low][:, None, :]) @ np.swapaxes(u, 1, 2)
    covs = sym.copy()
    covs[low] = 0.5 * (out + np.swapaxes(out, 1, 2))
    for got, want in ((model.eigenvectors, evecs), (model.eigenvalues, snapped(lam)),
                      (model.covariances, covs)):
        assert np.array_equal(got, np.repeat(want, copies, axis=0))


def record_scored_rows(monkeypatch):
    """Record a copy of the points of every float64 scoring pass, public
    (component_log_densities) or an E-step's."""
    scored = []
    real = gmm_module._layout_scores

    def recorded(points, layout):
        scored.append(np.array(points))
        return real(points, layout)

    monkeypatch.setattr(gmm_module, "_layout_scores", recorded)
    return scored


def rows_with_repeats(rng, n, d):
    """n rows drawn with replacement from n // 4 distinct ones, and those
    that occur, in order of first occurrence."""
    pool = np.concatenate([rng.normal(-3.0, 1.0, (n // 8, d)),
                           rng.normal(3.0, 1.0, (n // 4 - n // 8, d))])
    x = pool[rng.integers(0, pool.shape[0], n)]
    _, first = np.unique(x, axis=0, return_index=True)
    return x, x[np.sort(first)]


def kmeanspp_by_formula(x, k, rng):
    """k-means++ seeding with each seed's distances over the whole matrix."""
    n = x.shape[0]
    centers = np.empty((k, x.shape[1]))
    centers[0] = x[rng.integers(n)]
    dist2 = ((x - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = float(dist2.sum())
        idx = int(rng.choice(n, p=dist2 / total)) if total > 0.0 else int(rng.integers(n))
        centers[j] = x[idx]
        dist2 = np.minimum(dist2, ((x - centers[j]) ** 2).sum(axis=1))
    return centers


class TestKmeansppSeeding:
    @pytest.mark.parametrize("n,d,k", [(1, 64, 1), (511, 64, 5), (1300, 64, 20),
                                       (2049, 9, 7), (40, 3, 40)])
    def test_blocked_distances_match_whole_matrix_formula(self, n, d, k):
        rows = em_module._SEED_BLOCK_VALUES // d
        assert n < rows or n % rows  # the last block is partial or the only one
        x = np.random.default_rng(n).normal(100.0, 40.0, (n, d))
        x[n // 2:n // 2 + 3] = x[0]  # repeated rows give zero distances
        for seed in range(3):
            expect = kmeanspp_by_formula(x, k, np.random.default_rng(seed))
            got = em_module._kmeanspp_centers(x, k, np.random.default_rng(seed))
            assert np.array_equal(got, expect)

    def test_all_rows_equal_falls_back_to_uniform_draws(self):
        x = np.full((1000, 4), 7.0)
        expect = kmeanspp_by_formula(x, 3, np.random.default_rng(0))
        got = em_module._kmeanspp_centers(x, 3, np.random.default_rng(0))
        assert np.array_equal(got, expect)

    @pytest.mark.parametrize("n,d,k", [(1300, 64, 20), (3000, 9, 7), (1000, 4, 3)])
    def test_distinct_rows_draw_the_centers_of_every_row(self, n, d, k):
        # distances over the distinct rows alone, reaching all n through the
        # index, give the draws of the formula over every row; with d = 4
        # every row is equal, so every draw after the first is uniform
        rng = np.random.default_rng(n)
        if d == 4:
            x = np.full((n, d), 7.0)
        else:
            x, _ = rows_with_repeats(rng, n, d)
        rows, copies, _, index = gmm_module._distinct_rows(x)
        assert rows.shape[0] < n and np.array_equal(rows[index], x)
        assert np.array_equal(np.bincount(index), copies)
        for seed in range(3):
            expect = kmeanspp_by_formula(x, k, np.random.default_rng(seed))
            got = em_module._kmeanspp_centers(rows, k, np.random.default_rng(seed), index)
            assert np.array_equal(got, expect)


class TestConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            EmConfig(n_components=0)
        with pytest.raises(ValueError):
            EmConfig(n_components=2, max_iters=0)
        with pytest.raises(ValueError):
            EmConfig(n_components=2, tol=-1.0)


class TestSingleComponent:
    # the M-step forms covariances in one pass, Q - mu mu^T; at pixel scale
    # (mean 128, spread 0.1) that cancels ~1.6e4 down to ~1e-2 and must still
    # match the centred two-pass covariance to atol (gray^2, max abs)
    @pytest.mark.parametrize("loc, scale, atol", [(3.0, 2.0, 1e-9), (128.0, 0.1, 1e-8)],
                             ids=["unit", "pixel"])
    def test_recovers_sample_moments_exactly(self, loc, scale, atol):
        rng = np.random.default_rng(0)
        x = rng.normal(loc, scale, (500, 2))
        model, _ = em_fit(x, EmConfig(n_components=1, max_iters=3, seed=0))
        assert model.weights[0] == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(model.means[0], x.mean(axis=0), atol=1e-9)
        dev = x - x.mean(axis=0)
        ml_cov = dev.T @ dev / x.shape[0]
        assert np.abs(model.covariances[0] - ml_cov).max() <= atol


class TestTwoClusters:
    def test_separated_clusters_recovered(self):
        hits = 0
        for seed in range(10):
            rng = np.random.default_rng(seed)
            a = rng.normal(-5.0, 1.0, (300, 2))
            b = rng.normal(5.0, 1.0, (300, 2))
            x = np.concatenate([a, b])
            model, _ = em_fit(x, EmConfig(n_components=2, max_iters=50, seed=seed))
            centers = np.sort(model.means[:, 0])
            if abs(centers[0] + 5.0) < 0.5 and abs(centers[1] - 5.0) < 0.5:
                hits += 1
        assert hits >= 9

    def test_weights_match_cluster_sizes(self):
        rng = np.random.default_rng(3)
        a = rng.normal(-6.0, 1.0, (100, 1))
        b = rng.normal(6.0, 1.0, (400, 1))
        x = np.concatenate([a, b])
        model, _ = em_fit(x, EmConfig(n_components=2, max_iters=60, seed=1))
        assert np.allclose(np.sort(model.weights), [0.2, 0.8], atol=0.05)


class TestTrace:
    def test_mean_loglik_nondecreasing(self):
        rng = np.random.default_rng(4)
        x = np.concatenate([rng.normal(-2.0, 1.0, (200, 3)),
                            rng.normal(2.0, 1.5, (200, 3))])
        _, trace = em_fit(x, EmConfig(n_components=3, max_iters=40, seed=2))
        diffs = np.diff(trace)
        assert np.all(diffs >= -1e-8)

    def test_stops_on_relative_tolerance(self):
        rng = np.random.default_rng(5)
        x = rng.normal(0.0, 1.0, (300, 2))
        _, loose = em_fit(x, EmConfig(n_components=2, max_iters=100, tol=1e-2, seed=0))
        _, tight = em_fit(x, EmConfig(n_components=2, max_iters=100, tol=1e-10, seed=0))
        assert len(loose) <= len(tight)


class TestDeterminismAndEquivariance:
    def test_same_seed_same_model(self):
        rng = np.random.default_rng(8)
        x = rng.normal(0.0, 1.0, (400, 3))
        cfg = EmConfig(n_components=3, max_iters=15, seed=11)
        a, _ = em_fit(x, cfg)
        b, _ = em_fit(x, cfg)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.means, b.means)
        assert np.array_equal(a.covariances, b.covariances)

    def test_converged_fit_permutation_equivariant(self):
        # with well-separated clusters the converged mixture is unique up to
        # component order, so shuffling the data only permutes components
        rng = np.random.default_rng(9)
        truth = Gmm(weights=np.array([0.5, 0.5]),
                    means=np.array([[-8.0, 0.0], [8.0, 0.0]]),
                    covariances=np.stack([np.eye(2), np.eye(2)]))
        x = sample_gmm(truth, 600, rng)
        cfg = EmConfig(n_components=2, max_iters=200, tol=1e-12, seed=4)
        a, _ = em_fit(x, cfg)
        b, _ = em_fit(x[::-1].copy(), cfg)
        order_a = np.argsort(a.means[:, 0])
        order_b = np.argsort(b.means[:, 0])
        assert np.allclose(a.means[order_a], b.means[order_b], atol=1e-6)
        assert np.allclose(a.weights[order_a], b.weights[order_b], atol=1e-6)


class TestRepeatedRows:
    def test_scores_only_the_distinct_rows(self, monkeypatch):
        x, distinct = rows_with_repeats(np.random.default_rng(30), 400, 3)
        assert distinct.shape[0] < 100
        scored = record_scored_rows(monkeypatch)
        _, trace = em_fit(x, EmConfig(n_components=2, max_iters=4, tol=1e-14, seed=0))
        assert len(scored) == len(trace) == 4
        for points in scored:
            assert np.array_equal(points, distinct)

    def test_matches_em_over_every_row(self):
        # the reference runs the same initialization, E-steps and M-steps
        # over all 400 rows; the weighted pass agrees with it to rounding
        x, _ = rows_with_repeats(np.random.default_rng(31), 400, 3)
        config = EmConfig(n_components=3, max_iters=5, tol=1e-14, seed=2)
        model, trace = em_fit(x, config)
        rng = np.random.default_rng(config.seed)
        # seeded over every row, as _distinct_rows hands over a matrix
        # without repeats
        want = em_module._initialize(x, config, rng, x, None)
        want_trace = []
        for _ in range(config.max_iters):
            gamma, _, loglik = responsibilities(want, x)
            want_trace.append(loglik.mean())
            want = em_module._mstep(x, sufficient_stats(x, gamma), rng)
        assert np.allclose(trace, want_trace, rtol=1e-10, atol=0.0)
        assert np.allclose(model.weights, want.weights, rtol=1e-9, atol=1e-12)
        assert np.allclose(model.means, want.means, rtol=1e-9, atol=1e-9)
        assert np.allclose(model.covariances, want.covariances, rtol=1e-9, atol=1e-9)


class TestEdgeCases:
    def test_too_few_patches_raises(self):
        x = np.zeros((3, 2))
        with pytest.raises(InsufficientDataError):
            em_fit(x, EmConfig(n_components=5))

    @pytest.mark.parametrize("value", [np.nan, np.inf, 1e300], ids=["nan", "inf", "1e300"])
    def test_nonfinite_patch_is_named_before_seeding(self, value, monkeypatch):
        def seeding(*args):
            raise AssertionError("k-means++ ran on a non-finite patch")
        monkeypatch.setattr(em_module, "_kmeanspp_centers", seeding)
        x = np.random.default_rng(3).standard_normal((50, 4))
        x[7, 2] = value
        with pytest.raises(ValueError, match=r"^patch 7 has a non-finite entry or squared norm$"):
            em_fit(x, EmConfig(n_components=3))

    def test_mstep_projects_all_components_with_one_eigh(self, monkeypatch):
        shapes = record_eigh(monkeypatch)
        rng = np.random.default_rng(10)
        x = rng.normal(0.0, 1.0, (200, 3))
        model, _ = em_fit(x, EmConfig(n_components=4, max_iters=1, seed=0))
        # the shared initial covariance once, then one M-step over the whole
        # stack; no spectrum reaches the floor, so the factors are the eigh
        # of the covariances
        assert shapes == [(1, 3, 3), (4, 3, 3)]
        monkeypatch.undo()
        assert_factors_are_eigh(model)

    def test_converged_fit_factors_each_model_once(self, monkeypatch):
        shapes = record_eigh(monkeypatch)
        rng = np.random.default_rng(13)
        x = np.concatenate([rng.normal(-4.0, 1.0, (150, 2)),
                            rng.normal(4.0, 1.0, (150, 2))])
        _, trace = em_fit(x, EmConfig(n_components=2, max_iters=100, tol=1e-6, seed=0))
        assert len(trace) < 100
        # one eigh per model: the initial one and one per M-step, of which
        # there are len(trace) - 1; nothing reaches the floor
        assert shapes == [(1, 2, 2)] + [(2, 2, 2)] * (len(trace) - 1)

    def test_floored_component_keeps_the_floors_factors(self, monkeypatch):
        # one cluster on a line in 3-D, one full-rank: the first two M-steps
        # still mix them; once they separate, each M-step floors the line's
        # component, which keeps the factors of the M-step's one eigh
        rng = np.random.default_rng(14)
        t = rng.uniform(-1.0, 1.0, (150, 1))
        x = np.concatenate([t * np.array([1.0, 2.0, -1.0]),
                            rng.normal(20.0, 1.0, (150, 3))])
        calls = []
        shapes = record_eigh(monkeypatch, calls)
        model, trace = em_fit(x, EmConfig(n_components=2, max_iters=4, seed=0))
        assert len(trace) == 4
        assert shapes == [(1, 3, 3)] + [(2, 3, 3)] * 4
        monkeypatch.undo()
        assert np.count_nonzero(calls[-1][1][:, 0] < PSD_FLOOR) == 1
        assert_factors_of_the_floor(model, calls[-1])
        spectra = np.linalg.eigvalsh(model.covariances)
        assert np.sum(spectra[:, 0] < 2e-4) == 1
        # the line's two floored axes sit on the floor exactly
        assert np.count_nonzero(model.eigenvalues == PSD_FLOOR) == 2

    def test_initial_model_keeps_the_floors_factors(self, monkeypatch):
        # all points on a line: the shared data covariance is floored by
        # one eigh, whose factors all K components keep
        t = np.linspace(0.0, 1.0, 60)[:, None]
        x = np.concatenate([t, 2.0 * t], axis=1)
        calls = []
        shapes = record_eigh(monkeypatch, calls)
        rows, _, _, index = gmm_module._distinct_rows(x)
        model = em_module._initialize(x, EmConfig(n_components=3), np.random.default_rng(0),
                                      rows, index)
        assert shapes == [(1, 2, 2)]
        monkeypatch.undo()
        assert calls[0][1][0, 0] < PSD_FLOOR
        assert_factors_of_the_floor(model, calls[0], copies=3)
        assert np.array_equal(model.covariances, np.repeat(
            condition_psd(np.cov(x, rowvar=False), PSD_FLOOR)[None], 3, axis=0))
        assert np.all(model.eigenvalues[:, 0] == PSD_FLOOR)

    def test_psd_floor_respected(self):
        # rank-deficient data: all points on a line
        t = np.linspace(0.0, 1.0, 100)[:, None]
        x = np.concatenate([t, 2.0 * t], axis=1)
        model, _ = em_fit(x, EmConfig(n_components=1, max_iters=3, seed=0))
        assert np.linalg.eigvalsh(model.covariances[0])[0] >= PSD_FLOOR * (1 - 1e-9)

    def test_responsibilities_of_fit_match_weights(self):
        rng = np.random.default_rng(12)
        x = np.concatenate([rng.normal(-9.0, 1.0, (250, 2)),
                            rng.normal(9.0, 1.0, (250, 2))])
        model, _ = em_fit(x, EmConfig(n_components=2, max_iters=200, tol=1e-13,
                                      seed=5))
        _, counts, _ = responsibilities(model, x)
        # at a fixed point the M-step weight equals the mean responsibility
        assert np.allclose(counts / 500.0, model.weights, atol=1e-8)
