"""Mixture-model primitives: densities, responsibilities, PSD conditioning,
posterior objective, sufficient statistics; and the reference
hyperparameter derivation and general objective that the closed-form
objective is checked against."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from patchprior import add_gaussian_noise, extract_patches
from patchprior.em import EmConfig, em_fit
from patchprior.gmm import (
    DegeneratePatchError,
    Gmm,
    component_log_densities,
    condition_psd,
    log_posterior_objective,
    responsibilities,
    sample_gmm,
    sufficient_stats,
)
from patchprior.gmm import PSD_FLOOR, _BLOCK_VALUES, _psd_factors, _scoring_layout
import patchprior.gmm as gmm_module

from mstep_reference import HyperParams, derive_hyperparams, log_posterior_objective_general
from synthimages import make_smoke_image

TINY = np.finfo(np.float64).tiny


def random_spd(rng, d, lo=0.5, hi=3.0):
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return q @ np.diag(rng.uniform(lo, hi, d)) @ q.T


def random_gmm(rng, k, d, mean_scale=1.0):
    w = rng.dirichlet(np.full(k, 5.0))
    means = rng.normal(0.0, mean_scale, (k, d))
    covs = np.array([0.5 * (c + c.T) for c in (random_spd(rng, d) for _ in range(k))])
    return Gmm(weights=w, means=means, covariances=covs)


def log_gaussian(point, mean, covariance, inflation=0.0):
    """One point under one Gaussian, through the mixture scoring kernel."""
    gmm = Gmm(weights=np.array([1.0]), means=np.atleast_2d(mean),
              covariances=np.asarray(covariance)[None])
    return float(component_log_densities(gmm, np.atleast_2d(point), inflation)[0, 0])


class TestLogGaussian:
    def test_standard_normal_at_origin(self):
        assert log_gaussian(np.zeros(1), np.zeros(1), np.eye(1)) == pytest.approx(
            -0.5 * math.log(2.0 * math.pi), abs=1e-12)

    def test_unit_bivariate_at_mean(self):
        mu = np.array([3.0, -1.0])
        assert log_gaussian(mu, mu, np.eye(2)) == pytest.approx(
            -math.log(2.0 * math.pi), abs=1e-12)

    def test_matches_dense_inverse_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            d = int(rng.integers(1, 6))
            sigma = random_spd(rng, d)
            mu = rng.standard_normal(d)
            p = rng.standard_normal(d)
            dev = p - mu
            direct = (-0.5 * d * math.log(2.0 * math.pi)
                      - 0.5 * math.log(np.linalg.det(sigma))
                      - 0.5 * dev @ np.linalg.inv(sigma) @ dev)
            assert log_gaussian(p, mu, sigma) == pytest.approx(direct, rel=1e-10)

    def test_inflation_equals_explicit_identity_add(self):
        rng = np.random.default_rng(1)
        sigma = random_spd(rng, 4)
        p, mu = rng.standard_normal(4), rng.standard_normal(4)
        inflated = log_gaussian(p, mu, sigma, inflation=2.5)
        explicit = log_gaussian(p, mu, sigma + 2.5 * np.eye(4))
        assert inflated == pytest.approx(explicit, rel=1e-12)

    def test_invariant_under_symmetrization(self):
        rng = np.random.default_rng(2)
        sigma = random_spd(rng, 3)
        skewed = sigma + 1e-13 * np.triu(np.ones((3, 3)), 1)
        p, mu = rng.standard_normal(3), rng.standard_normal(3)
        assert log_gaussian(p, mu, skewed) == pytest.approx(
            log_gaussian(p, mu, sigma), rel=1e-9)

    def test_monotone_decreasing_along_ray(self):
        rng = np.random.default_rng(3)
        sigma = random_spd(rng, 3)
        mu = rng.standard_normal(3)
        direction = rng.standard_normal(3)
        vals = [log_gaussian(mu + t * direction, mu, sigma) for t in (0.0, 0.5, 1.0, 2.0)]
        assert all(b < a for a, b in zip(vals, vals[1:]))


class TestResponsibilities:
    def test_single_component_all_ones(self):
        rng = np.random.default_rng(4)
        gmm = random_gmm(rng, 1, 3)
        x = rng.standard_normal((20, 3))
        gamma, counts, _ = responsibilities(gmm, x)
        assert np.allclose(gamma, 1.0, atol=1e-15)
        assert counts[0] == pytest.approx(20.0, abs=1e-9)

    def test_identical_components_return_weights(self):
        cov = np.eye(2)
        gmm = Gmm(weights=np.array([0.3, 0.7]),
                  means=np.zeros((2, 2)),
                  covariances=np.stack([cov, cov]))
        x = np.random.default_rng(5).standard_normal((15, 2))
        gamma, _, _ = responsibilities(gmm, x)
        assert np.allclose(gamma, [0.3, 0.7], atol=1e-12)

    def test_matches_linear_scale_oracle(self):
        rng = np.random.default_rng(6)
        gmm = random_gmm(rng, 3, 2)
        x = rng.standard_normal((50, 2))
        gamma, counts, _ = responsibilities(gmm, x)
        dens = np.zeros((50, 3))
        for k in range(3):
            dev = x - gmm.means[k]
            inv = np.linalg.inv(gmm.covariances[k])
            det = np.linalg.det(gmm.covariances[k])
            quad = np.einsum("ni,ij,nj->n", dev, inv, dev)
            dens[:, k] = gmm.weights[k] * np.exp(-0.5 * quad) / (
                2.0 * math.pi * math.sqrt(det))
        oracle = dens / dens.sum(axis=1, keepdims=True)
        assert np.allclose(gamma, oracle, atol=1e-9)
        assert np.allclose(counts, oracle.sum(axis=0), atol=1e-9)

    def test_rows_sum_to_one_and_counts_total(self):
        rng = np.random.default_rng(7)
        gmm = random_gmm(rng, 4, 3)
        x = rng.normal(0.0, 2.0, (200, 3))
        gamma, counts, _ = responsibilities(gmm, x)
        assert np.allclose(gamma.sum(axis=1), 1.0, atol=1e-12)
        assert counts.sum() == pytest.approx(200.0, rel=1e-9)

    def test_weight_rescaling_invariance(self):
        rng = np.random.default_rng(8)
        gmm = random_gmm(rng, 3, 2)
        x = rng.standard_normal((30, 2))
        gamma, _, _ = responsibilities(gmm, x)
        # same mixture with weights renormalized from a scaled copy
        scaled = Gmm(weights=(gmm.weights * 7.0) / np.sum(gmm.weights * 7.0),
                     means=gmm.means, covariances=gmm.covariances)
        gamma2, _, _ = responsibilities(scaled, x)
        assert np.allclose(gamma, gamma2, atol=1e-12)

    def test_inflation_changes_scores_consistently(self):
        rng = np.random.default_rng(9)
        gmm = random_gmm(rng, 2, 3)
        x = rng.standard_normal((10, 3))
        inflated = Gmm(weights=gmm.weights, means=gmm.means,
                       covariances=gmm.covariances + 1.7 * np.eye(3))
        gamma_a, _, _ = responsibilities(gmm, x, inflation=1.7)
        gamma_b, _, _ = responsibilities(inflated, x)
        assert np.allclose(gamma_a, gamma_b, atol=1e-12)

    def test_multiplicities_stand_for_repeated_rows(self):
        # the distinct rows scored once and weighted, against the same rows
        # expanded by np.repeat: the same posteriors per patch, counts and
        # summed log-likelihood, to rounding
        rng = np.random.default_rng(23)
        gmm = random_gmm(rng, 4, 3)
        x = rng.normal(0.0, 2.0, (60, 3))
        copies = rng.integers(1, 6, 60)
        gamma, counts, loglik = gmm_module._softmax(gmm, x, 0.5, copies)
        gamma_all, counts_all, loglik_all = responsibilities(
            gmm, np.repeat(x, copies, axis=0), 0.5)
        assert np.allclose(gamma.sum(axis=1), copies, rtol=1e-12, atol=0.0)
        per_patch = np.repeat(gamma / copies[:, None], copies, axis=0)
        assert np.allclose(per_patch, gamma_all, rtol=1e-12, atol=0.0)
        assert np.allclose(counts, counts_all, rtol=1e-12, atol=0.0)
        assert loglik.sum() == pytest.approx(loglik_all.sum(), rel=1e-12)
        assert np.allclose(loglik / copies, loglik_all[np.cumsum(copies) - 1],
                           rtol=1e-12, atol=0.0)

    def test_unit_multiplicities_change_nothing(self):
        rng = np.random.default_rng(24)
        gmm = random_gmm(rng, 3, 2)
        x = rng.standard_normal((40, 2))
        for got, want in zip(gmm_module._softmax(gmm, x, 0.0, np.ones(40)),
                             responsibilities(gmm, x)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("score", ["densities", "responsibilities"])
    def test_nonfinite_patch_named_where_it_enters(self, value, score):
        gmm = random_gmm(np.random.default_rng(26), 3, 4)
        x = np.random.default_rng(27).standard_normal((9, 4))
        x[6, 1] = value
        x[8, 0] = value
        with pytest.raises(ValueError, match="^patch 6 has a non-finite entry$"):
            if score == "densities":
                component_log_densities(gmm, x, 2.0)
            else:
                responsibilities(gmm, x)

    def test_degenerate_patch_raises(self):
        gmm = Gmm(weights=np.array([1.0]), means=np.zeros((1, 1)),
                  covariances=np.ones((1, 1, 1)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the overflow is expected, not reported
            with pytest.raises(DegeneratePatchError):
                responsibilities(gmm, np.array([[1e300]]))

    def test_softmax_names_the_first_occurrence(self):
        # distinct rows 0..2 first seen at patches 0, 4 and 9: the row with
        # no support is named by the patch where it first occurs
        gmm = Gmm(weights=np.array([1.0]), means=np.zeros((1, 1)),
                  covariances=np.ones((1, 1, 1)))
        rows = np.array([[0.5], [1e300], [-1.0]])
        with pytest.raises(DegeneratePatchError,
                           match="^patch 4 has no support under any component$"):
            gmm_module._softmax(gmm, rows, 0.0, np.array([4.0, 5.0, 1.0]), np.array([0, 4, 9]))
        with pytest.raises(DegeneratePatchError, match="^patch 1 has no support"):
            gmm_module._softmax(gmm, rows, 0.0)


@pytest.fixture(scope="module")
def noisy_scene():
    """A K=8 prior fitted to a clean 64x64 smoke scene, and the stride-1
    patches of that scene plus N(0, 10^2) noise."""
    clean = make_smoke_image(64)
    prior, _ = em_fit(extract_patches(clean, 8, 1),
                      EmConfig(n_components=8, max_iters=5, seed=0))
    return prior, extract_patches(add_gaussian_noise(clean, 10.0, seed=0), 8, 1)


class TestSubnormalFlush:
    """Posteriors below 2**-53 / n are exactly zero, n being the number of
    patches the rows represent: over those n no count moves by 2**-53, the
    moments stay within their rounding bound of the unflushed ones, and
    the log normalizer does not move."""

    def _unflushed(self, prior, patches):
        scores = component_log_densities(prior, patches, 100.0)
        top = scores.max(axis=1)
        z = np.exp(scores - top[:, None])
        total = z.sum(axis=1)
        return z / total[:, None], top + np.log(total)

    def _cases(self, patches):
        """The multiplicities to hand over and the patches each row stands
        for: the rows as they are, and each standing for 1 to 4 copies."""
        copies = np.random.default_rng(26).integers(1, 5, patches.shape[0]).astype(float)
        return [(None, np.ones(patches.shape[0])), (copies, copies)]

    def test_subnormal_posteriors_flushed_to_zero(self, noisy_scene):
        prior, patches = noisy_scene
        raw, _ = self._unflushed(prior, patches)
        assert ((raw > 0.0) & (raw < TINY)).any()
        for weights, scale in self._cases(patches):
            threshold = 2.0 ** -53 / scale.sum()
            gamma, _, _ = gmm_module._softmax(prior, patches, 100.0, weights)
            assert np.array_equal(gamma, np.where(raw < threshold, 0.0, raw) * scale[:, None])
            assert ((raw >= TINY) & (raw < threshold) & (gamma == 0.0)).any()
            assert np.allclose(gamma.sum(axis=1), scale, rtol=1e-12, atol=0.0)
            # with copies, n is the represented count and not the row count
            kept = (raw >= threshold) & (raw < 2.0 ** -53 / patches.shape[0]) & (gamma > 0.0)
            assert kept.any() == (weights is not None)

    def test_counts_and_moments_unchanged(self, noisy_scene):
        prior, patches = noisy_scene
        raw, _ = self._unflushed(prior, patches)
        for weights, scale in self._cases(patches):
            gamma, counts, _ = gmm_module._softmax(prior, patches, 100.0, weights)
            flushed_mass = np.where(gamma == 0.0, raw * scale[:, None], 0.0).sum(axis=0)
            assert flushed_mass.any() and (flushed_mass < 2.0 ** -53).all()
            assert np.array_equal(counts, gamma.sum(axis=0))
            assert_moments_within_bound(sufficient_stats(patches, gamma), patches,
                                        raw * scale[:, None])

    def test_loglik_unchanged(self, noisy_scene):
        prior, patches = noisy_scene
        _, loglik = self._unflushed(prior, patches)
        for weights, scale in self._cases(patches):
            assert np.array_equal(gmm_module._softmax(prior, patches, 100.0, weights)[2],
                                  loglik * scale)


class TestConditionPsd:
    def test_identity_unchanged(self):
        out = condition_psd(np.eye(3), 1e-4)
        assert np.array_equal(out, np.eye(3))

    def test_clamps_negative_eigenvalue(self):
        out = condition_psd(np.diag([1.0, -0.5]), 1e-4)
        assert np.allclose(out, np.diag([1.0, 1e-4]), atol=1e-12)

    def test_matches_eigen_clamp_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            a = rng.standard_normal((8, 8))
            sym = 0.5 * (a + a.T)
            out = condition_psd(sym, 1e-3)
            evals, evecs = np.linalg.eigh(sym)
            oracle = evecs @ np.diag(np.maximum(evals, 1e-3)) @ evecs.T
            assert np.allclose(out, oracle, atol=1e-10)
            assert np.linalg.eigvalsh(out)[0] >= 1e-3 * (1.0 - 1e-9)

    def test_idempotent(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((6, 6))
        once = condition_psd(0.5 * (a + a.T), 1e-4)
        twice = condition_psd(once, 1e-4)
        assert np.allclose(twice, once, atol=1e-12)

    def test_symmetrizes_input(self):
        a = np.array([[2.0, 0.3], [0.1, 1.0]])
        out = condition_psd(a, 1e-4)
        assert np.allclose(out, out.T, atol=0.0)
        assert np.allclose(out, 0.5 * (a + a.T), atol=1e-12)

    def test_stack_matches_per_matrix_calls(self):
        rng = np.random.default_rng(12)
        a = rng.standard_normal((6, 5, 5))
        stack = a @ np.swapaxes(a, 1, 2)
        stack[::2] -= 2.0 * np.eye(5)  # every other matrix needs clamping
        stack[1, 0, 1] += 1e-3         # and one is not symmetric
        out = condition_psd(stack, 1e-3)
        clamped = [np.linalg.eigvalsh(0.5 * (m + m.T))[0] < 1e-3 for m in stack]
        assert any(clamped) and not all(clamped)
        assert np.array_equal(out, np.stack([condition_psd(m, 1e-3) for m in stack]))

    @given(st.integers(0, 2 ** 32 - 1))
    def test_output_always_floored(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 7))
        a = rng.normal(0.0, 2.0, (d, d))
        out = condition_psd(0.5 * (a + a.T), 1e-4)
        assert np.linalg.eigvalsh(out)[0] >= 1e-4 * (1.0 - 1e-9)


class TestGmmValidation:
    def test_rejects_unnormalized_weights(self):
        with pytest.raises(ValueError):
            Gmm(weights=np.array([0.6, 0.6]), means=np.zeros((2, 1)),
                covariances=np.ones((2, 1, 1)))

    def test_rejects_asymmetric_covariance(self):
        cov = np.array([[[1.0, 0.5], [0.2, 1.0]]])
        with pytest.raises(ValueError):
            Gmm(weights=np.array([1.0]), means=np.zeros((1, 2)), covariances=cov)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Gmm(weights=np.array([1.0]), means=np.array([[np.nan]]),
                covariances=np.ones((1, 1, 1)))

    def test_rejects_indefinite_covariance_naming_component(self):
        covs = np.stack([np.eye(2), np.diag([1.0, -1e-3])])
        with pytest.raises(ValueError, match="component 1 is not positive-definite"):
            Gmm(weights=np.array([0.5, 0.5]), means=np.zeros((2, 2)), covariances=covs)

    def test_rejects_singular_covariance(self):
        with pytest.raises(ValueError, match="component 0"):
            Gmm(weights=np.array([1.0]), means=np.zeros((1, 2)),
                covariances=np.ones((1, 2, 2)))

    def test_eigenbasis_reconstructs_covariances(self):
        gmm = random_gmm(np.random.default_rng(20), 3, 5)
        rebuilt = np.einsum("kij,kj,klj->kil", gmm.eigenvectors, gmm.eigenvalues,
                            gmm.eigenvectors)
        assert np.allclose(rebuilt, gmm.covariances, atol=1e-12)
        assert not gmm.eigenvalues.flags.writeable
        assert not gmm.eigenvectors.flags.writeable

    def test_arrays_frozen(self):
        gmm = Gmm(weights=np.array([1.0]), means=np.zeros((1, 2)),
                  covariances=np.eye(2)[None])
        with pytest.raises(ValueError):
            gmm.weights[0] = 0.5

    @pytest.mark.parametrize("case,match", [
        ("indefinite", "component 1 is not positive-definite"),
        ("nonfinite means", "means contain non-finite values"),
        ("nonfinite covariances", "covariances contain non-finite values"),
        ("asymmetric", "asymmetric"),
        ("unnormalized", "weights sum to"),
        ("weights of rank 2", "weights must be a nonempty 1-D array"),
        ("means of another count", r"means must have shape \(2, d\), got \(3, 2\)"),
        ("covariances of another shape", r"covariances must have shape \(2, 2, 2\)"),
        ("negative weight", "weights must be nonnegative"),
    ])
    def test_factored_construction_runs_the_same_checks(self, case, match):
        weights, means = np.array([0.5, 0.5]), np.zeros((2, 2))
        covs = np.stack([np.eye(2), np.diag([1.0, 2.0])])
        factors = np.linalg.eigh(covs)
        if case == "weights of rank 2":
            weights = weights[:, None]
        elif case == "means of another count":
            means = np.zeros((3, 2))
        elif case == "covariances of another shape":
            covs = covs[:, :, :1]
        elif case == "negative weight":
            weights = np.array([1.5, -0.5])
        elif case == "indefinite":
            covs[1, 1, 1] = -1e-3
            factors = np.linalg.eigh(covs)
        elif case == "nonfinite means":
            means[1, 0] = np.nan
        elif case == "nonfinite covariances":
            covs[0, 1, 1] = np.inf
        elif case == "asymmetric":
            covs[1, 0, 1] = 0.5
        else:
            weights = np.array([0.6, 0.6])
        with pytest.raises(ValueError, match=match):
            Gmm(weights, means, covs)
        with pytest.raises(ValueError, match=match):
            Gmm._factored(weights, means, covs, *factors)

    def test_factored_construction_checks_the_handed_spectrum(self):
        covs = np.stack([np.eye(2), np.eye(2)])
        evals, evecs = np.linalg.eigh(covs)
        evals[1, 0] = 0.0
        with pytest.raises(ValueError, match="component 1 is not positive-definite"):
            Gmm._factored(np.array([0.5, 0.5]), np.zeros((2, 2)), covs, evals, evecs)
        with pytest.raises(ValueError, match="eigen-factors do not match"):
            Gmm._factored(np.array([0.5, 0.5]), np.zeros((2, 2)), covs, evals[:1], evecs)

    def test_factored_construction_checks_the_order(self):
        # one eigenpair of component 2 swapped: the factors still reproduce
        # the covariance, but its smallest eigenvalue is not the first
        gmm = random_gmm(np.random.default_rng(22), 3, 4)
        evals, evecs = np.linalg.eigh(gmm.covariances)
        evals[2] = evals[2][[1, 0, 2, 3]]
        evecs[2] = evecs[2][:, [1, 0, 2, 3]]
        with pytest.raises(ValueError, match="^eigenvalues do not ascend in component 2$"):
            Gmm._factored(gmm.weights, gmm.means, gmm.covariances, evals, evecs)

    def test_factored_construction_keeps_frozen_copies(self):
        gmm = random_gmm(np.random.default_rng(21), 3, 4)
        evals, evecs = np.linalg.eigh(gmm.covariances)
        built = Gmm._factored(gmm.weights, gmm.means, gmm.covariances, evals, evecs)
        evals[0, 0] = -1.0
        for name in ("weights", "means", "covariances", "eigenvalues", "eigenvectors"):
            assert np.array_equal(getattr(built, name), getattr(gmm, name))
            assert not getattr(built, name).flags.writeable


class TestDeriveHyperparams:
    def test_strength_equals_rho_and_counts_shifted(self):
        rng = np.random.default_rng(12)
        d = 4
        gmm = random_gmm(rng, 3, d)
        hyper = derive_hyperparams(gmm, rho=9.0)
        assert np.allclose(hyper.mean_strengths, 9.0)
        assert np.allclose(hyper.dofs, 9.0 - d - 2.0)
        assert np.allclose(hyper.scale_mats, 9.0 * gmm.covariances, atol=1e-12)
        assert np.allclose(hyper.weight_counts - 1.0, 9.0 * 3 * gmm.weights,
                           atol=1e-12)
        assert np.allclose(hyper.mean_locs, gmm.means, atol=0.0)

    def test_uniform_weights_give_equal_counts(self):
        gmm = Gmm(weights=np.full(4, 0.25), means=np.zeros((4, 2)),
                  covariances=np.stack([np.eye(2)] * 4))
        hyper = derive_hyperparams(gmm, rho=1.0)
        assert np.allclose(hyper.weight_counts, hyper.weight_counts[0])

    def test_rejects_nonpositive_rho(self):
        gmm = Gmm(weights=np.array([1.0]), means=np.zeros((1, 1)),
                  covariances=np.ones((1, 1, 1)))
        with pytest.raises(ValueError):
            derive_hyperparams(gmm, rho=0.0)


def _scalar_conjugate_log_pdf(mu, var, hyper):
    """Exact K=1, d=1 prior log-density via scipy distributions.

    The matrix prior reduces at d=1 to an inverse-gamma on the variance,
    shape dofs/2 and scale scale_mat/2, times a normal on the mean with
    variance var/strength. Normalizing constants included, so objective
    *differences* are convention-free.
    """
    from scipy import stats

    theta = hyper.mean_locs[0, 0]
    tau = hyper.mean_strengths[0]
    psi = hyper.scale_mats[0, 0, 0]
    phi = hyper.dofs[0]
    return (stats.invgamma.logpdf(var, a=phi / 2.0, scale=psi / 2.0)
            + stats.norm.logpdf(mu, loc=theta, scale=math.sqrt(var / tau)))


class TestLogPosteriorObjective:
    def _random_hyper(self, rng, k, d):
        return HyperParams(
            weight_counts=rng.uniform(1.5, 5.0, k),
            mean_locs=rng.standard_normal((k, d)),
            mean_strengths=rng.uniform(0.5, 4.0, k),
            scale_mats=np.array([random_spd(rng, d) for _ in range(k)]),
            dofs=np.full(k, d - 1.0 + rng.uniform(0.5, 3.0)))

    def test_identical_models_zero_difference(self):
        rng = np.random.default_rng(13)
        gmm = random_gmm(rng, 2, 3)
        x = rng.standard_normal((40, 3))
        generic = random_gmm(rng, 2, 3)
        a = log_posterior_objective(gmm, x, generic, 2.0)
        b = log_posterior_objective(gmm, x, generic, 2.0)
        assert a == b

    @staticmethod
    def _assert_matches_scalar_oracle(rng, x, hyper, objective):
        """Differences of ``objective(gmm)`` across ten K=1, d=1 models
        equal those of the exact likelihood plus ``hyper``'s prior, which
        are free of dropped additive constants."""
        from scipy import stats

        def oracle(mu, var):
            loglik = stats.norm.logpdf(x[:, 0], loc=mu, scale=math.sqrt(var)).sum()
            return loglik + _scalar_conjugate_log_pdf(mu, var, hyper)

        def model(mu, var):
            return Gmm(weights=np.array([1.0]), means=np.array([[mu]]),
                       covariances=np.array([[[var]]]))

        models = [(float(rng.normal()), float(rng.uniform(0.5, 2.0)))
                  for _ in range(10)]
        base_obj = objective(model(*models[0]))
        base_oracle = oracle(*models[0])
        for mu, var in models[1:]:
            got = objective(model(mu, var)) - base_obj
            want = oracle(mu, var) - base_oracle
            assert got == pytest.approx(want, rel=1e-9, abs=1e-9)

    def test_scalar_conjugate_oracle(self):
        # the reference general objective, under hyperparameters that no rho
        # derives
        rng = np.random.default_rng(14)
        x = rng.standard_normal((25, 1))
        hyper = self._random_hyper(rng, 1, 1)
        self._assert_matches_scalar_oracle(
            rng, x, hyper, lambda gmm: log_posterior_objective_general(gmm, x, hyper))

    def test_closed_form_scalar_conjugate_oracle(self):
        # the package's objective for relevance factor rho, under the
        # hyperparameters rho implies (dofs rho - 3 > 0 is a proper prior)
        rng = np.random.default_rng(22)
        x = rng.standard_normal((25, 1))
        generic = Gmm(weights=np.array([1.0]), means=np.array([[0.3]]),
                      covariances=np.array([[[1.4]]]))
        self._assert_matches_scalar_oracle(
            rng, x, derive_hyperparams(generic, 9.0),
            lambda gmm: log_posterior_objective(gmm, x, generic, 9.0))

    def test_rejects_bad_rho_and_mismatched_generic(self):
        rng = np.random.default_rng(23)
        gmm = random_gmm(rng, 2, 3)
        x = rng.standard_normal((10, 3))
        for rho in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="rho must be positive and finite"):
                log_posterior_objective(gmm, x, gmm, rho)
        for other in (random_gmm(rng, 3, 3), random_gmm(rng, 2, 2)):
            with pytest.raises(ValueError, match="does not match"):
                log_posterior_objective(gmm, x, other, 1.0)

    def test_likelihood_term_matches_direct_sum(self):
        rng = np.random.default_rng(15)
        gmm = random_gmm(rng, 3, 2)
        x = rng.standard_normal((60, 2))
        gamma, _, loglik = responsibilities(gmm, x)
        scores = component_log_densities(gmm, x)
        # independent accumulation: per-point scaled linear-sum of densities
        direct = 0.0
        for i in range(60):
            m = scores[i].max()
            direct += m + math.log(np.exp(scores[i] - m).sum())
        assert float(loglik.sum()) == pytest.approx(direct, rel=1e-12)
        assert gamma.shape == (60, 3)

    def test_inflation_shifts_likelihood_only(self):
        rng = np.random.default_rng(16)
        gmm = random_gmm(rng, 2, 2)
        x = rng.standard_normal((30, 2))
        inflated_model = Gmm(weights=gmm.weights, means=gmm.means,
                             covariances=gmm.covariances + 0.9 * np.eye(2))
        with_inflation = responsibilities(gmm, x, 0.9)[2].sum()
        explicit = responsibilities(inflated_model, x)[2].sum()
        assert with_inflation == pytest.approx(explicit, rel=1e-12)


class TestSufficientStats:
    def test_matches_naive_loops(self):
        rng = np.random.default_rng(17)
        x = rng.standard_normal((40, 3))
        gamma = rng.dirichlet(np.ones(4), size=40)
        stats = sufficient_stats(x, gamma)
        for k in range(4):
            c = gamma[:, k].sum()
            mean = (gamma[:, k, None] * x).sum(axis=0) / c
            scatter = np.zeros((3, 3))
            second = np.zeros((3, 3))
            for i in range(40):
                dev = x[i] - mean
                scatter += gamma[i, k] * np.outer(dev, dev)
                second += gamma[i, k] * np.outer(x[i], x[i])
            second /= c
            assert stats.counts[k] == pytest.approx(c, rel=1e-12)
            assert np.allclose(stats.means[k], mean, atol=1e-12)
            recovered = c * (stats.second_moments[k] - np.outer(stats.means[k],
                                                                stats.means[k]))
            assert np.allclose(recovered, scatter, atol=1e-9)
            assert np.allclose(stats.second_moments[k], second, atol=1e-12)

    def test_empty_component_zeroed(self):
        x = np.ones((5, 2))
        gamma = np.zeros((5, 2))
        gamma[:, 0] = 1.0
        stats = sufficient_stats(x, gamma)
        assert stats.counts[1] == 0.0
        assert np.all(stats.means[1] == 0.0)
        assert np.all(stats.second_moments[1] == 0.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, 1e300], ids=["nan", "inf", "1e300"])
    def test_nonfinite_moments_name_the_component(self, value):
        x = np.random.default_rng(19).standard_normal((50, 3))
        x[7] = value
        gamma = np.zeros((50, 4))
        gamma[np.arange(50), np.arange(50) % 4] = 1.0
        # 0 times a NaN or infinite entry spoils every component live in its
        # block; 1e300 overflows only its own component's moments
        named = "3" if value == 1e300 else r"\d+"
        with np.errstate(all="ignore"), pytest.raises(
                ValueError, match=rf"^moments of component {named} are not finite$"):
            sufficient_stats(x, gamma)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1e-3])
    def test_bad_responsibilities_rejected(self, value):
        gamma = np.full((5, 2), 0.5)
        gamma[3, 1] = value
        with pytest.raises(ValueError, match=r"responsibility \[3, 1\] .* finite and nonnegative"):
            sufficient_stats(np.ones((5, 2)), gamma)


V = 2.0 ** -53  # float64 unit roundoff
LD = np.longdouble
# the merged-axes mask of an unfolded layout of the 20-component, d = 64 priors
UNFOLDED = np.zeros((20, 64), dtype=bool)


def gamma_n(n):
    return n * V / (1.0 - n * V)


def assert_moments_within_bound(stats, x, g):
    """Counts, means and second moments against np.longdouble references,
    within the bound of the sufficient_stats docstring; zero-count
    components must keep zero moments."""
    n = x.shape[0]
    xl, gl = x.astype(LD), g.astype(LD)
    counts = gl.sum(axis=0)
    slack = gamma_n(2 * n + 3)
    assert np.all(np.abs(stats.counts - counts) <= gamma_n(n) * counts)
    for k in np.flatnonzero(counts == 0):
        assert np.all(stats.means[k] == 0.0) and np.all(stats.second_moments[k] == 0.0)
    for k in np.flatnonzero(counts > 0):
        first = (gl[:, k] @ xl) / counts[k]
        second = (xl * gl[:, k, None]).T @ xl / counts[k]
        assert np.all(np.abs(stats.means[k] - first)
                      <= slack * (g[:, k] @ np.abs(x)) / stats.counts[k]), (n, k)
        magnitude = (np.abs(x) * g[:, k, None]).T @ np.abs(x) / stats.counts[k]
        assert np.all(np.abs(stats.second_moments[k] - second) <= slack * magnitude), (n, k)


class TestBlockSkip:
    """Moments when rows have different supports, so that some components
    have no weight in some row blocks.

    K = 5 and d = 3 with 16-row blocks.  The pass visits the rows in the
    order of their support and drops those whose support is empty: the
    84 such rows of ``sparse_case`` make five full blocks and a short last
    one of 4 rows."""

    @pytest.fixture
    def sixteen_row_blocks(self, monkeypatch):
        monkeypatch.setattr(gmm_module, "_BLOCK_VALUES", 16 * 5 * 3)

    @staticmethod
    def sparse_case():
        rng = np.random.default_rng(40)
        x = rng.uniform(0.0, 255.0, (100, 3))
        g = rng.random((100, 5))
        g[:, 4] = 0.0           # a component with zero count
        g[0:16, 1] = 0.0        # support {0, 2, 3}: a dead column between live ones
        g[32:48] = 0.0          # empty support
        g[48:64, 2] = 0.0       # support {0, 1, 3}
        g[80:96, 0] = 0.0       # support {1, 2, 3}, not at 0
        g[96:, [0, 2]] = 0.0    # support {1, 3}
        return x, g

    def test_moments_within_bound(self, sixteen_row_blocks):
        x, g = self.sparse_case()
        stats = sufficient_stats(x, g)
        assert stats.counts[4] == 0.0
        assert_moments_within_bound(stats, x, g)
        for n in (4, 16, 17, 50):  # one short block up to several
            assert_moments_within_bound(sufficient_stats(x[:n], g[:n]), x[:n], g[:n])

    def test_exact_data_matches_dense_sums(self, sixteen_row_blocks):
        # integer pixels and gamma in {0, 1/2, 1}: every product and sum is
        # exact, so the reordered and skipping pass must give the dense
        # moments bit for bit
        rng = np.random.default_rng(41)
        x = rng.integers(0, 256, (100, 3)).astype(np.float64)
        g = rng.integers(1, 3, (100, 5)) / 2.0   # full supports, except:
        g[0:16, [1, 4]] = 0.0    # {0, 2, 3}
        g[16:32] = 0.0           # empty
        g[32:64:2, :2] = 0.0     # interleaved: {2, 3, 4} ...
        g[33:64:2, 2:] = 0.0     # ... and {0, 1}
        g[80:96, [0, 2]] = 0.0   # {1, 3, 4}
        stats = sufficient_stats(x, g)
        counts = g.sum(axis=0)
        means = (g.T @ x) / counts[:, None]
        seconds = np.einsum("nk,ni,nj->kij", g, x, x) / counts[:, None, None]
        assert np.array_equal(stats.counts, counts)
        assert np.array_equal(stats.means, means)
        assert np.array_equal(stats.second_moments, seconds)

    def test_dead_block_is_not_read(self, sixteen_row_blocks):
        # rows with empty support are dropped wherever they fall: a dead
        # 16-row run and scattered rows off the block boundaries
        x, g = self.sparse_case()
        dead = [3, 17, 18, 50, 77, 99]
        g[dead] = 0.0
        poisoned = x.copy()
        poisoned[32:48] = np.nan
        poisoned[dead] = np.nan
        for a, b in zip(dataclasses.astuple(sufficient_stats(x, g)),
                        dataclasses.astuple(sufficient_stats(poisoned, g))):
            assert np.array_equal(a, b)

    def test_all_blocks_dead(self, sixteen_row_blocks):
        stats = sufficient_stats(np.ones((40, 3)), np.zeros((40, 5)))
        assert not stats.counts.any() and not stats.means.any()
        assert not stats.second_moments.any()


@pytest.fixture(scope="module")
def block_prior():
    """K = 20, d = 64 on the grey scale, spectra from 1e-4 to 1e4 and one
    zero-weight component; the kernels take 409 rows per block here."""
    rng = np.random.default_rng(30)
    k, d = 20, 64
    covs = []
    for _ in range(k):
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        c = (q * np.logspace(-4, 4, d)) @ q.T
        covs.append(0.5 * (c + c.T))
    weights = rng.dirichlet(np.ones(k))
    weights[7] = 0.0
    return Gmm(weights / weights.sum(), rng.uniform(50.0, 200.0, (k, d)), np.stack(covs))


@pytest.fixture(scope="module")
def floored_prior():
    """K = 20, d = 64 on the grey scale: components of rank 4 to 61 with
    spectra from 1 to 1e4, floored at PSD_FLOOR as the M-steps floor them,
    and one at PSD_FLOOR I, as em_fit reseeds a starved component.  One
    also has eight eigenvalues 1e-7 apart just above the floor, which the
    merge by equality must keep apart."""
    rng = np.random.default_rng(33)
    k, d = 20, 64
    covs = np.empty((k, d, d))
    ranks = rng.integers(4, 62, k)
    ranks[11] = 20
    for j, rank in enumerate(ranks):
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        spectrum = np.zeros(d)
        spectrum[:rank] = np.logspace(0, 4, rank)
        if j == 11:
            spectrum[rank:rank + 8] = PSD_FLOOR + 1e-7 * np.arange(1, 9)
        covs[j] = (q * spectrum) @ q.T
    covs[5] = 0.0
    return Gmm._factored(rng.dirichlet(np.ones(k)), rng.uniform(50.0, 200.0, (k, d)),
                         *_psd_factors(covs))


def block_rows(gmm):
    rows = _BLOCK_VALUES // (gmm.n_components * gmm.dim)
    assert rows == 409
    return [1, rows - 1, rows, rows + 1, 3 * rows + 7]


class TestBlockedKernelAccuracy:
    """Both blocked kernels against per-component np.longdouble references,
    with tolerances from the bounds in their docstrings, at row counts on
    either side of the block size."""

    @pytest.fixture(scope="class")
    def points(self, block_prior):
        rng = np.random.default_rng(31)
        n = block_rows(block_prior)[-1]
        near = block_prior.means[rng.integers(0, 20, n)] + rng.normal(0.0, 20.0, (n, 64))
        return np.where(rng.random((n, 1)) < 0.5, near, rng.uniform(0.0, 255.0, (n, 64)))

    @staticmethod
    def reference_scores(gmm, x, inflation):
        """Extended-precision scores and squared forms, one component at a time,
        from the model's own eigendecomposition."""
        d = gmm.dim
        log_2pi = np.log(8 * np.arctan(LD(1)))
        xl = x.astype(LD)
        q = np.empty((x.shape[0], gmm.n_components), dtype=LD)
        offsets = np.empty(gmm.n_components, dtype=LD)
        for k in range(gmm.n_components):
            spectrum = gmm.eigenvalues[k].astype(LD) + LD(inflation)
            y = (xl - gmm.means[k].astype(LD)) @ gmm.eigenvectors[k].astype(LD)
            q[:, k] = (y * y / spectrum).sum(axis=1)
            with np.errstate(divide="ignore"):
                offsets[k] = np.log(LD(gmm.weights[k])) - (d * log_2pi
                                                           + np.log(spectrum).sum()) / 2
        return offsets - q / 2, q.astype(np.float64)

    @staticmethod
    def score_bound(gmm, x, inflation, q, ref, folded=()):
        """The score bound of the component_log_densities docstring, with
        the folded q bound for the ``folded`` components, whose merged axes
        share one inflated eigenvalue exactly."""
        d = gmm.dim
        spectra = gmm.eigenvalues + inflation
        centre = gmm.means.mean(axis=0)
        r = (np.linalg.norm(x - centre, axis=1)[:, None]
             + np.linalg.norm(gmm.means - centre, axis=1))
        e = gamma_n(2 * d + 4) * r * np.sqrt((1.0 / spectra).sum(axis=1))
        q_err = gamma_n(d) * q + (1.0 + gamma_n(d)) * (2.0 * e * np.sqrt(q) + e * e)
        q_err[:, folded] = ((2.0 * np.sqrt(d) + 2.0) * gamma_n(2 * d + 12)
                            * r * r / spectra.min(axis=1))[:, folded]
        with np.errstate(divide="ignore"):
            offset_err = gamma_n(d + 4) * (np.abs(np.log(gmm.weights)) + d * np.log(2 * np.pi)
                                           + np.abs(np.log(spectra)).sum(axis=1) + d)
        return 0.5 * q_err + offset_err + 2.0 * V * np.abs(ref)

    @pytest.mark.parametrize("inflation", [12.5, 40.0, 100.0])
    def test_folded_scores_within_bound(self, floored_prior, points, inflation):
        plain, folded, _, _ = _scoring_layout(floored_prior, inflation)[3]
        # most floored components merge their axes; the fullest ones stay plain
        assert folded.size >= 10 and plain.size >= 1
        ref, q = self.reference_scores(floored_prior, points, inflation)
        bound = self.score_bound(floored_prior, points, inflation, q, ref.astype(np.float64),
                                 folded)
        for n in block_rows(floored_prior):
            err = np.abs(component_log_densities(floored_prior, points[:n], inflation)
                         - ref[:n]).astype(np.float64)
            assert np.all(err <= bound[:n]), (n, float(err.max()))

    def test_fold_width_at_every_inflation(self, floored_prior):
        # the floored axes sit at PSD_FLOOR exactly, so every inflation
        # merges the same axes; the near-floor eight of component 11 stay
        assert np.count_nonzero(floored_prior.eigenvalues == PSD_FLOOR) > 600
        assert np.count_nonzero(floored_prior.eigenvalues[11] == PSD_FLOOR) == 64 - 20 - 8
        widths = {_scoring_layout(floored_prior, s)[1].shape[1]
                  for s in (1e-3, 12.5, 25.0, 50.0, 100.0, 400.0, 2500.0)}
        assert len(widths) == 1 and widths.pop() < 20 * 64

    def test_plain_layout_without_a_fold(self, block_prior, floored_prior):
        # distinct spectra, no inflation and an all-False mask never fold
        for gmm, inflation, merged in ((block_prior, 100.0, None),
                                       (floored_prior, 0.0, None),
                                       (floored_prior, 100.0, UNFOLDED)):
            _, basis, _, (plain, folds, starts, scale) = _scoring_layout(gmm, inflation, merged)
            assert basis.dtype == np.float64 and basis.shape == (65, 20 * 64)
            assert np.array_equal(plain, np.arange(20))
            assert folds.size == starts.size == scale.size == 0
        # the float32 screen's basis is that float64 basis cast, bit for bit,
        # to what rounding each entry of the whitened columns straight to
        # float32 gives
        spectra = floored_prior.eigenvalues + 100.0
        white = floored_prior.eigenvectors / np.sqrt(spectra)[:, None, :]
        direct = np.empty((65, 20, 64), dtype=np.float32)
        direct[:64] = white.transpose(1, 0, 2)
        centre = floored_prior.means.mean(axis=0)
        direct[64] = -np.einsum("kd,kde->ke", floored_prior.means - centre, white)
        assert np.array_equal(basis.astype(np.float32), direct.reshape(65, 20 * 64))

    @pytest.mark.parametrize("inflation", [0.0, 100.0])
    def test_unfolded_model_scores_alike_either_way(self, block_prior, points, inflation):
        # nothing folds in this prior, so its own mask and an all-False one
        # build the same layout and score every row the same, bit for bit
        folded = _scoring_layout(block_prior, inflation)
        unfolded = _scoring_layout(block_prior, inflation, UNFOLDED)
        assert folded[3][1].size == 0
        assert np.array_equal(gmm_module._layout_scores(points, folded),
                              gmm_module._layout_scores(points, unfolded))

    @pytest.mark.parametrize("inflation", [0.0, 100.0])
    def test_scores_within_bound(self, block_prior, points, inflation):
        ref, q = self.reference_scores(block_prior, points, inflation)
        live = np.arange(20) != 7
        assert np.all(ref[:, 7] == -np.inf) and np.isfinite(ref[:, live]).all()
        bound = self.score_bound(block_prior, points, inflation, q,
                                 ref.astype(np.float64))[:, live]
        ref = ref[:, live]
        for n in block_rows(block_prior):
            got = component_log_densities(block_prior, points[:n], inflation)
            assert np.all(got[:, 7] == -np.inf)
            err = np.abs(got[:, live] - ref[:n]).astype(np.float64)
            assert np.all(err <= bound[:n]), (n, float(err.max()))

    def test_moments_within_bound(self, block_prior, points):
        rng = np.random.default_rng(32)
        gamma, _, _ = responsibilities(block_prior, points, 400.0)
        # any nonnegative weights, not only posteriors that sum to one
        gamma = np.where(rng.random(gamma.shape) < 0.3, rng.random(gamma.shape), gamma)
        gamma[:, 7] = 0.0  # the zero-weight component has zero count
        for n in block_rows(block_prior):
            x, g = points[:n], gamma[:n]
            stats = sufficient_stats(x, g)
            assert np.all(stats.means[7] == 0.0) and np.all(stats.second_moments[7] == 0.0)
            assert_moments_within_bound(stats, x, g)


class TestSampleGmm:
    def test_moments_converge(self):
        rng = np.random.default_rng(18)
        gmm = Gmm(weights=np.array([1.0]),
                  means=np.array([[2.0, -1.0]]),
                  covariances=np.array([[[1.5, 0.4], [0.4, 0.8]]]))
        x = sample_gmm(gmm, 200_000, rng)
        assert np.allclose(x.mean(axis=0), [2.0, -1.0], atol=0.02)
        assert np.allclose(np.cov(x.T), gmm.covariances[0], atol=0.03)

    def test_deterministic_given_rng_seed(self):
        gmm = Gmm(weights=np.array([0.4, 0.6]), means=np.zeros((2, 2)),
                  covariances=np.stack([np.eye(2), 2.0 * np.eye(2)]))
        a = sample_gmm(gmm, 100, np.random.default_rng(99))
        b = sample_gmm(gmm, 100, np.random.default_rng(99))
        assert np.array_equal(a, b)
