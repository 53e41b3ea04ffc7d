"""Bayesian adaptation of a generic mixture toward image-specific patches."""

import importlib
from pathlib import Path

import numpy as np
import pytest

import patchprior.cli as cli_module
from patchprior import ImageBuffer, extract_patches, save_model, write_pgm
from patchprior.adapt import (
    AdaptationConfig,
    adapt,
    adaptation_mstep,
    mstep_covariance_fast,
)
from patchprior.gmm import (
    PSD_FLOOR,
    DegeneratePatchError,
    Gmm,
    condition_psd,
    log_posterior_objective,
    responsibilities,
    sample_gmm,
    sufficient_stats,
    _log_prior,
)

from mstep_reference import (
    HyperParams,
    centred_scatter,
    derive_hyperparams,
    log_posterior_objective_general,
    log_prior_general,
    mstep_covariance_direct,
    mstep_general,
    posterior_hyperparams,
)
from synthimages import make_smoke_image
from test_em import (
    assert_factors_are_eigh,
    assert_factors_of_the_floor,
    record_eigh,
    record_scored_rows,
    rows_with_repeats,
)
from test_gmm import block_prior, random_gmm, random_spd  # noqa: F401 (fixture)


def blended_mean(stats, generic, k, rho):
    alpha = stats.counts[k] / (stats.counts[k] + rho)
    return alpha * stats.means[k] + (1.0 - alpha) * generic.means[k]


class TestConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            AdaptationConfig(rho=0.0)
        with pytest.raises(ValueError):
            AdaptationConfig(sigma_tilde_sq=-1.0)
        with pytest.raises(ValueError):
            AdaptationConfig(iterations=0)


class TestAnchoringLimits:
    def test_huge_rho_returns_generic(self):
        rng = np.random.default_rng(0)
        generic = random_gmm(rng, 3, 4)
        x = sample_gmm(generic, 300, rng)
        adapted, _ = adapt(generic, x, AdaptationConfig(rho=1e12))
        assert np.allclose(adapted.weights, generic.weights, atol=1e-9)
        assert np.allclose(adapted.means, generic.means, atol=1e-6)
        assert np.allclose(adapted.covariances, generic.covariances, atol=1e-6)

    def test_tiny_rho_is_one_ml_em_step(self):
        rng = np.random.default_rng(1)
        generic = random_gmm(rng, 3, 2, mean_scale=4.0)
        x = sample_gmm(generic, 1000, rng)
        adapted, _ = adapt(generic, x, AdaptationConfig(rho=1e-9))
        gamma, counts, _ = responsibilities(generic, x)
        stats = sufficient_stats(x, gamma)
        assert np.allclose(adapted.weights, counts / 1000.0, atol=1e-9)
        assert np.allclose(adapted.means, stats.means, atol=1e-6)
        for k in range(3):
            ml_cov = centred_scatter(x, gamma[:, k], stats.means[k]) / counts[k]
            assert np.allclose(adapted.covariances[k], ml_cov, atol=1e-5)


class TestCovarianceUpdatePaths:
    def _setup(self, seed, k=3, d=4, n=60):
        rng = np.random.default_rng(seed)
        generic = random_gmm(rng, k, d)
        x = rng.normal(0.0, 1.5, (n, d))
        gamma = rng.dirichlet(np.ones(k), size=n)
        stats = sufficient_stats(x, gamma)
        return rng, generic, x, gamma, stats

    def test_alpha_one_gives_ml_covariance(self):
        rng, generic, x, gamma, stats = self._setup(2)
        k = 0
        mu_tilde = stats.means[k]
        fast = mstep_covariance_fast(stats.second_moments[k], mu_tilde,
                                     generic.means[k], generic.covariances[k],
                                     alpha=1.0)
        ml = centred_scatter(x, gamma[:, k], mu_tilde) / stats.counts[k]
        assert np.allclose(fast, ml, atol=1e-10)

    def test_alpha_zero_gives_generic(self):
        rng, generic, x, gamma, stats = self._setup(3)
        k = 1
        fast = mstep_covariance_fast(stats.second_moments[k], generic.means[k],
                                     generic.means[k], generic.covariances[k],
                                     alpha=0.0)
        assert np.allclose(fast, generic.covariances[k], atol=1e-12)

    @pytest.mark.parametrize("sigma_tilde_sq", [0.0, 2.5])
    def test_fast_matches_direct_random(self, sigma_tilde_sq):
        for seed in range(10):
            rng, generic, x, gamma, stats = self._setup(100 + seed)
            for k in range(3):
                alpha = float(rng.uniform(0.0, 1.0))
                mu_tilde = (alpha * stats.means[k]
                            + (1.0 - alpha) * generic.means[k])
                fast = mstep_covariance_fast(
                    stats.second_moments[k], mu_tilde, generic.means[k],
                    generic.covariances[k], alpha, sigma_tilde_sq)
                direct = mstep_covariance_direct(
                    x, gamma[:, k], mu_tilde, generic.means[k],
                    generic.covariances[k], alpha, sigma_tilde_sq)
                scale = max(np.linalg.norm(direct), 1e-30)
                assert np.linalg.norm(fast - direct) / scale <= 1e-9

    def test_direct_alpha_zero_is_anchor_plus_mean_shift(self):
        rng, generic, x, gamma, stats = self._setup(19)
        mu_tilde = generic.means[0] + np.array([0.5, -0.25, 0.0, 1.0])
        out = mstep_covariance_direct(x, gamma[:, 0], mu_tilde, generic.means[0],
                                      generic.covariances[0], alpha=0.0)
        dev = generic.means[0] - mu_tilde
        want = generic.covariances[0] + np.outer(dev, dev)
        assert np.allclose(out, want, atol=1e-12)

    def test_direct_single_patch_at_mean_zero_scatter(self):
        x = np.array([[1.0, 2.0]])
        resp = np.array([1.0])
        out = mstep_covariance_direct(x, resp, np.array([1.0, 2.0]),
                                      np.zeros(2), np.eye(2), alpha=1.0)
        assert np.allclose(out, 0.0, atol=1e-15)

    def test_direct_rejects_empty_component(self):
        rng, generic, x, gamma, stats = self._setup(4)
        with pytest.raises(ValueError):
            mstep_covariance_direct(x, np.zeros(x.shape[0]), generic.means[0],
                                    generic.means[0], generic.covariances[0],
                                    alpha=0.5)

    def test_fast_scalar_example(self):
        # two unit-responsibility scalar patches {0, 2}: second moment 2,
        # blended mean 1 with a zero-mean anchor at alpha 1 -> variance 1
        out = mstep_covariance_fast(np.array([[2.0]]), np.array([1.0]),
                                    np.array([0.0]), np.array([[3.0]]),
                                    alpha=1.0)
        assert out[0, 0] == pytest.approx(1.0, abs=1e-15)

    def test_adaptation_mstep_paths_agree(self):
        rng, generic, x, gamma, stats = self._setup(5)
        _, means, covs = adaptation_mstep(generic, stats, x.shape[0], rho=2.0)
        alphas = stats.counts / (stats.counts + 2.0)
        for k in range(generic.n_components):
            ref = mstep_covariance_direct(x, gamma[:, k], means[k], generic.means[k],
                                          generic.covariances[k], float(alphas[k]))
            assert np.allclose(covs[k], ref, atol=1e-9)


class TestMstepBlends:
    def test_weight_update_shared_blend(self):
        rng = np.random.default_rng(6)
        generic = random_gmm(rng, 4, 2)
        x = rng.normal(0.0, 1.0, (200, 2))
        gamma, counts, _ = responsibilities(generic, x)
        stats = sufficient_stats(x, gamma)
        rho = 3.0
        weights, _, _ = adaptation_mstep(generic, stats, 200, rho=rho)
        expect = (counts + rho * 4 * generic.weights) / (200.0 + rho * 4)
        assert np.allclose(weights, expect, atol=1e-12)
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_mean_update_blend(self):
        rng = np.random.default_rng(7)
        generic = random_gmm(rng, 2, 3)
        x = rng.normal(0.0, 1.0, (150, 3))
        gamma, _, _ = responsibilities(generic, x)
        stats = sufficient_stats(x, gamma)
        _, means, _ = adaptation_mstep(generic, stats, 150, rho=5.0)
        for k in range(2):
            assert np.allclose(means[k],
                               blended_mean(stats, generic, k, 5.0), atol=1e-12)


class TestConjugatePosterior:
    def _hyper(self, rng, k, d):
        return HyperParams(
            weight_counts=rng.uniform(1.5, 4.0, k),
            mean_locs=rng.standard_normal((k, d)),
            mean_strengths=rng.uniform(0.5, 3.0, k),
            scale_mats=np.array([random_spd(rng, d) for _ in range(k)]),
            dofs=np.full(k, d + rng.uniform(0.5, 2.0)))

    def test_empty_component_keeps_hyper(self):
        rng = np.random.default_rng(8)
        hyper = self._hyper(rng, 2, 3)
        x = rng.normal(0.0, 1.0, (20, 3))
        gamma = np.zeros((20, 2))
        gamma[:, 0] = 1.0
        stats = sufficient_stats(x, gamma)
        post = posterior_hyperparams(hyper, stats)
        assert post.weight_counts[1] == hyper.weight_counts[1]
        assert np.allclose(post.mean_locs[1], hyper.mean_locs[1], atol=0.0)
        assert post.mean_strengths[1] == hyper.mean_strengths[1]
        assert np.allclose(post.scale_mats[1], hyper.scale_mats[1], atol=0.0)
        assert post.dofs[1] == hyper.dofs[1]

    def test_counts_accumulate(self):
        rng = np.random.default_rng(9)
        hyper = self._hyper(rng, 2, 2)
        x = rng.normal(0.0, 1.0, (30, 2))
        gamma = rng.dirichlet(np.ones(2), size=30)
        stats = sufficient_stats(x, gamma)
        post = posterior_hyperparams(hyper, stats)
        assert np.allclose(post.weight_counts,
                           hyper.weight_counts + stats.counts, atol=1e-12)
        assert np.allclose(post.dofs, hyper.dofs + stats.counts, atol=1e-12)
        assert np.allclose(post.mean_strengths,
                           hyper.mean_strengths + stats.counts, atol=1e-12)

    def test_posterior_location_is_precision_weighted(self):
        rng = np.random.default_rng(10)
        hyper = self._hyper(rng, 1, 2)
        x = rng.normal(3.0, 1.0, (50, 2))
        gamma = np.ones((50, 1))
        stats = sufficient_stats(x, gamma)
        post = posterior_hyperparams(hyper, stats)
        tau = hyper.mean_strengths[0]
        want = (tau * hyper.mean_locs[0] + 50.0 * stats.means[0]) / (tau + 50.0)
        assert np.allclose(post.mean_locs[0], want, atol=1e-12)

    def test_scale_gains_scatter_plus_shrinkage_term(self):
        rng = np.random.default_rng(11)
        hyper = self._hyper(rng, 1, 2)
        x = rng.normal(0.0, 1.0, (40, 2))
        gamma = np.ones((40, 1))
        stats = sufficient_stats(x, gamma)
        post = posterior_hyperparams(hyper, stats)
        tau = hyper.mean_strengths[0]
        dev = hyper.mean_locs[0] - stats.means[0]
        want = (hyper.scale_mats[0] + centred_scatter(x, gamma[:, 0], stats.means[0])
                + (tau * 40.0 / (tau + 40.0)) * np.outer(dev, dev))
        assert np.allclose(post.scale_mats[0], want, atol=1e-10)


class TestGeneralMstep:
    def test_flat_weight_prior_gives_ml_weights(self):
        rng = np.random.default_rng(12)
        d = 2
        hyper = HyperParams(
            weight_counts=np.ones(3),
            mean_locs=np.zeros((3, d)),
            mean_strengths=np.full(3, 1e-12),
            scale_mats=np.array([1e-12 * np.eye(d)] * 3),
            dofs=np.full(3, -(d + 2.0) + 1e-12))
        x = rng.normal(0.0, 1.0, (90, d))
        gamma = rng.dirichlet(np.ones(3), size=90)
        stats = sufficient_stats(x, gamma)
        model = mstep_general(hyper, stats, 90)
        assert np.allclose(model.weights, stats.counts / 90.0, atol=1e-9)
        assert np.allclose(model.means, stats.means, atol=1e-9)
        for k in range(3):
            ml_cov = centred_scatter(x, gamma[:, k], stats.means[k]) / stats.counts[k]
            assert np.allclose(model.covariances[k], ml_cov, atol=1e-8)

    def test_matches_simplified_update_via_derived_hyper(self):
        rng = np.random.default_rng(13)
        generic = random_gmm(rng, 3, 3)
        x = rng.normal(0.0, 1.2, (120, 3))
        gamma, _, _ = responsibilities(generic, x)
        stats = sufficient_stats(x, gamma)
        rho = 2.5
        weights, means, covs = adaptation_mstep(generic, stats, 120, rho=rho)
        general = mstep_general(derive_hyperparams(generic, rho), stats, 120)
        for got, want in ((general.weights, weights),
                          (general.means, means),
                          (general.covariances, covs)):
            scale = max(np.linalg.norm(want), 1e-30)
            assert np.linalg.norm(got - want) / scale <= 1e-9


class TestAdaptLoop:
    def test_objectives_nondecreasing(self):
        rng = np.random.default_rng(14)
        generic = random_gmm(rng, 3, 2, mean_scale=3.0)
        target = random_gmm(rng, 3, 2, mean_scale=3.0)
        x = sample_gmm(target, 400, rng)
        _, report = adapt(generic, x, AdaptationConfig(rho=1.0, iterations=6))
        diffs = np.diff(report.objectives)
        assert np.all(diffs >= -1e-6 * np.maximum(1.0, np.abs(report.objectives[:-1])))

    def test_output_on_simplex_and_floored(self):
        rng = np.random.default_rng(15)
        generic = random_gmm(rng, 4, 3)
        x = rng.normal(0.0, 2.0, (50, 3))
        # at sigma_tilde_sq 100 every deflated covariance reaches the floor
        for sigma_tilde_sq in (0.0, 100.0):
            adapted, _ = adapt(generic, x, AdaptationConfig(rho=1.0,
                                                            sigma_tilde_sq=sigma_tilde_sq))
            assert adapted.weights.sum() == pytest.approx(1.0, abs=1e-12)
            smallest = [np.linalg.eigvalsh(c)[0] for c in adapted.covariances]
            assert min(smallest) >= PSD_FLOOR * (1 - 1e-9)
        assert max(smallest) <= PSD_FLOOR * (1 + 1e-9)

    def test_report_contents(self, tmp_path, monkeypatch):
        # `patchprior adapt` records its report in the manifest; compare the
        # lines with the report that the same run returned
        rng = np.random.default_rng(16)
        save_model(random_gmm(rng, 2, 4), tmp_path / "generic.gmmp")
        write_pgm(ImageBuffer(rng.integers(0, 4, (10, 10)).astype(float)),
                  tmp_path / "image.pgm")
        reports = []

        def recorded(*args, **kwargs):
            adapted, report = adapt(*args, **kwargs)
            reports.append(report)
            return adapted, report
        monkeypatch.setattr(cli_module, "adapt", recorded)
        out = tmp_path / "adapted.gmmp"
        assert cli_module.cli_dispatch(["adapt", str(tmp_path / "generic.gmmp"),
                                        str(tmp_path / "image.pgm"), "--out", str(out),
                                        "--rho", "2", "--iters", "2"]) == 0
        (report,) = reports
        assert len(report.logliks) == len(report.log_priors) == 2
        assert report.objectives == tuple(a + b for a, b in
                                          zip(report.logliks, report.log_priors))
        assert report.alphas.shape == (2,)
        assert np.all(report.alphas >= 0.0) and np.all(report.alphas < 1.0)
        assert report.counts.sum() == pytest.approx(81.0, rel=1e-9)
        lines = dict(line.split(" = ", 1)
                     for line in Path(f"{out}.manifest").read_text().splitlines())
        for name in ("objectives", "logliks", "log_priors"):
            assert lines[name] == ",".join(f"{v:.6f}" for v in getattr(report, name))
        assert lines["alphas"] == ",".join(f"{v:.6f}" for v in report.alphas)
        assert lines["counts"] == ",".join(f"{v:.3f}" for v in report.counts)
        assert set(report.seconds) == {"estep", "stats", "mstep", "objective"}
        for phase, seconds in report.seconds.items():
            assert seconds > 0.0
            assert float(lines[f"time_{phase}_seconds"]) == pytest.approx(seconds, abs=1e-6)

    def test_noisy_adaptation_compensates(self):
        # one isotropic component: compensated covariance should track the
        # clean variance, uncompensated absorbs the added noise
        rng = np.random.default_rng(17)
        truth = Gmm(weights=np.array([1.0]), means=np.zeros((1, 2)),
                    covariances=np.array([4.0 * np.eye(2)]))
        generic = Gmm(weights=np.array([1.0]), means=np.zeros((1, 2)),
                      covariances=np.array([3.0 * np.eye(2)]))
        clean = sample_gmm(truth, 5000, rng)
        noisy = clean + rng.normal(0.0, np.sqrt(2.0), clean.shape)
        comp, _ = adapt(generic, noisy, AdaptationConfig(rho=1.0, sigma_tilde_sq=2.0))
        plain, _ = adapt(generic, noisy, AdaptationConfig(rho=1.0))
        err_comp = abs(comp.covariances[0, 0, 0] - 4.0)
        err_plain = abs(plain.covariances[0, 0, 0] - 4.0)
        assert err_comp < err_plain

    def test_mstep_projects_all_components_with_one_eigh(self, monkeypatch):
        rng = np.random.default_rng(21)
        generic = random_gmm(rng, 4, 3)
        shapes = record_eigh(monkeypatch)
        model, _ = adapt(generic, rng.normal(0.0, 1.0, (60, 3)),
                         AdaptationConfig(iterations=2))
        # one eigh of the stack per M-step, which the new model keeps; no
        # spectrum reaches the floor, so the factors are the eigh of the
        # covariances
        assert shapes == [(4, 3, 3), (4, 3, 3)]
        monkeypatch.undo()
        assert_factors_are_eigh(model)

    def test_floored_component_keeps_the_floors_factors(self, monkeypatch):
        # all patches sit near component 0 with unit variance; deflating by
        # sigma_tilde_sq = 5 floors its spectrum, while the components with
        # almost no mass keep their generic covariances; each M-step's one
        # eigh gives the new model its factors
        rng = np.random.default_rng(22)
        generic = random_gmm(rng, 3, 3, mean_scale=10.0)
        x = generic.means[0] + rng.normal(0.0, 1.0, (200, 3))
        calls = []
        shapes = record_eigh(monkeypatch, calls)
        model, _ = adapt(generic, x, AdaptationConfig(sigma_tilde_sq=5.0, iterations=2))
        assert shapes == [(3, 3, 3)] * 2
        monkeypatch.undo()
        assert np.array_equal(calls[-1][1][:, 0] < PSD_FLOOR, [True, False, False])
        assert_factors_of_the_floor(model, calls[-1])
        assert np.linalg.eigvalsh(model.covariances[0])[0] < 2e-4
        assert np.all(model.eigenvalues[0] == PSD_FLOOR)

    def test_fast_and_direct_loops_agree(self):
        rng = np.random.default_rng(18)
        generic = random_gmm(rng, 3, 2)
        x = sample_gmm(generic, 150, rng)
        config = AdaptationConfig(rho=1.5)
        # the second input repeats rows, which adapt scores once and weights
        for patches in (x, x[np.arange(150) % 40]):
            fast, _ = adapt(generic, patches, config)
            # one iteration rebuilt by hand on the two-pass reference
            gamma, counts, _ = responsibilities(generic, patches)
            alphas = counts / (counts + config.rho)
            weights = (counts + config.rho * 3 * generic.weights) / (150 + config.rho * 3)
            means = (alphas[:, None] * (gamma.T @ patches) / counts[:, None]
                     + (1.0 - alphas)[:, None] * generic.means)
            covs = [condition_psd(mstep_covariance_direct(
                        patches, gamma[:, k], means[k], generic.means[k],
                        generic.covariances[k], float(alphas[k])), PSD_FLOOR)
                    for k in range(3)]
            assert np.allclose(fast.weights, weights / weights.sum(), atol=1e-12)
            assert np.allclose(fast.means, means, atol=1e-12)
            assert np.allclose(fast.covariances, covs, atol=1e-9)

    @pytest.mark.parametrize("sigma_tilde_sq", [0.0, 0.3])
    def test_scores_only_the_distinct_rows(self, monkeypatch, sigma_tilde_sq):
        rng = np.random.default_rng(32)
        generic = random_gmm(rng, 3, 3, mean_scale=3.0)
        x, distinct = rows_with_repeats(rng, 300, 3)
        scored = record_scored_rows(monkeypatch)
        _, report = adapt(generic, x, AdaptationConfig(iterations=3,
                                                       sigma_tilde_sq=sigma_tilde_sq))
        assert len(scored) == 3
        for points in scored:
            assert np.array_equal(points, distinct)
        # the report still covers all 300 patches
        assert report.counts.sum() == pytest.approx(300.0, rel=1e-12)
        monkeypatch.undo()
        want = responsibilities(generic, x, sigma_tilde_sq)[2].sum()
        assert report.logliks[0] == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("sigma_tilde_sq", [0.0, 0.3])
    def test_reused_objectives_match_fresh_passes(self, sigma_tilde_sq):
        # objectives[i] comes from iteration i's E-step, which scores the
        # model after i updates (the generic prior at i = 0); it must equal a
        # fresh objective pass over that model, and each likelihood term a
        # fresh density pass
        rng = np.random.default_rng(19)
        generic = random_gmm(rng, 3, 2, mean_scale=3.0)
        x = sample_gmm(random_gmm(rng, 3, 2, mean_scale=3.0), 300, rng)
        _, report = adapt(generic, x, AdaptationConfig(
            rho=1.5, iterations=4, sigma_tilde_sq=sigma_tilde_sq))
        assert len(report.objectives) == 4
        model = generic
        for i in range(4):
            if i:
                model, _ = adapt(generic, x, AdaptationConfig(
                    rho=1.5, iterations=i, sigma_tilde_sq=sigma_tilde_sq))
            # the objective's likelihood term is the E-step's normalizer, and
            # x repeats no row, so the E-step scores the same rows
            fresh = log_posterior_objective(model, x, generic, 1.5, sigma_tilde_sq)
            assert report.objectives[i] == fresh
            loglik = float(responsibilities(model, x, sigma_tilde_sq)[2].sum())
            assert report.logliks[i] == loglik
            assert report.log_priors[i] == _log_prior(model, generic, 1.5)

    @pytest.mark.parametrize("rows, bad", [
        ([[0.0, 0.0]] * 4 + [[1e300, 1e300]], 4),
        ([[0.0, 0.0], [1e300, 1e300], [0.0, 0.0], [1.0, 1.0]], 1),
        ([[0.0, 0.0], [1.0, 0.0], [1e300, 1e300], [1.0, 1.0]], 2),
    ], ids=["after-repeats", "before-repeats", "no-repeats"])
    def test_degenerate_patch_is_named_by_the_callers_index(self, rows, bad):
        # the E-step scores distinct rows; the error must still name the
        # patch as it was handed in
        generic = random_gmm(np.random.default_rng(33), 2, 2)
        with pytest.raises(DegeneratePatchError, match=f"^patch {bad} has no support"):
            adapt(generic, np.array(rows))

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_nonfinite_patch_is_named_before_the_first_estep(self, value, monkeypatch):
        # rows repeat before the bad one, so a distinct-row index would differ
        scored = record_scored_rows(monkeypatch)
        generic = random_gmm(np.random.default_rng(34), 2, 2)
        rows = np.array([[0.0, 0.0]] * 4 + [[1.0, value], [2.0, 2.0]])
        with pytest.raises(ValueError, match="^patch 4 has a non-finite entry$"):
            adapt(generic, rows)
        assert scored == []

    def test_weight_drift_off_simplex_raises(self, monkeypatch):
        # a real check, so python -O cannot strip it
        rng = np.random.default_rng(20)
        generic = random_gmm(rng, 2, 2)
        # the package re-exports the function adapt under the submodule's name
        adapt_module = importlib.import_module("patchprior.adapt")
        real = adapt_module.adaptation_mstep

        def drifting(*args, **kwargs):
            weights, means, covs = real(*args, **kwargs)
            return weights * 1.001, means, covs

        monkeypatch.setattr(adapt_module, "adaptation_mstep", drifting)
        with pytest.raises(ValueError, match="simplex"):
            adapt(generic, rng.normal(0.0, 1.0, (40, 2)))


class TestClosedFormLogPrior:
    """The log prior of ``adapt``'s objective, in closed form from rho,
    against the general conjugate form under ``derive_hyperparams``."""

    @pytest.mark.parametrize("rho", [0.5, 1.0, 16.0])
    @pytest.mark.parametrize("sigma_tilde_sq", [0.0, 30.0])
    def test_matches_general_form(self, block_prior, rho, sigma_tilde_sq):
        # K = 20, d = 64 with spectra down to the floor and one zero-weight
        # component, adapted once and then scored by the second iteration's
        # E-step; its weight stays exactly 0, so its term must be skipped,
        # not taken as 0 * log 0
        patches = extract_patches(make_smoke_image(48), 8, 1) + 50.0
        model, _ = adapt(block_prior, patches, AdaptationConfig(
            rho=rho, iterations=1, sigma_tilde_sq=sigma_tilde_sq))
        _, report = adapt(block_prior, patches, AdaptationConfig(
            rho=rho, iterations=2, sigma_tilde_sq=sigma_tilde_sq))
        zero = np.flatnonzero(block_prior.weights == 0.0)
        assert zero.size == 1 and model.weights[zero[0]] == 0.0
        assert model.eigenvalues.min() < 1.01 * PSD_FLOOR
        hyper = derive_hyperparams(block_prior, rho)
        want = log_prior_general(model, hyper)
        assert np.isfinite(want)
        assert report.log_priors[-1] == pytest.approx(want, rel=1e-9)
        general = log_posterior_objective_general(model, patches, hyper, sigma_tilde_sq)
        assert report.objectives[-1] == pytest.approx(general, rel=1e-9)
