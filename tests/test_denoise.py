"""Half-quadratic-splitting denoiser: schedule, mode selection, x-update."""

import json
import os
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from patchprior import (
    Gmm,
    HqsSchedule,
    ImageBuffer,
    accumulate_patches,
    add_gaussian_noise,
    component_log_densities,
    denoise,
    extract_patches,
    psnr,
    select_modes,
)
from patchprior.denoise import _hqs, _wiener_maps
from patchprior.em import EmConfig, em_fit
from patchprior.gmm import (PSD_FLOOR, _blocked_forms, _gamma, _merged_axes, _mode_plan,
                            _reselect, _scoring_layout, _select)

from synthimages import make_piecewise_image, make_smoke_image

BASELINES = Path(__file__).parent / "baselines.json"


def check_baseline(key, value):
    """Guard ``value`` against entry ``key`` of baselines.json to 1e-3.

    The file is written only when PATCHPRIOR_UPDATE_BASELINES=1 is set;
    otherwise a missing key fails the test rather than pinning whatever
    the code under test produced.
    """
    data = json.loads(BASELINES.read_text()) if BASELINES.exists() else {}
    if os.environ.get("PATCHPRIOR_UPDATE_BASELINES") == "1":
        data[key] = value
        BASELINES.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    elif key not in data:
        pytest.fail(f"no baseline {key!r} in {BASELINES.name}; "
                    "set PATCHPRIOR_UPDATE_BASELINES=1 to record it")
    else:
        assert value == pytest.approx(data[key], abs=1e-3)


class TestSchedule:
    def test_default_multipliers(self):
        sched = HqsSchedule.default(20.0)
        assert np.allclose(sched.betas, np.array([1, 4, 8, 16, 32]) / 400.0)
        assert np.allclose(sched.mode_inflations, 1.0 / np.asarray(sched.betas))
        assert len(sched.betas) == 5

    @pytest.mark.parametrize("beta", [0.0, -1.0, np.nan, np.inf, 1e-310],
                             ids=["zero", "negative", "nan", "inf", "infinite-reciprocal"])
    def test_rejects_bad_values(self, beta):
        # 1 / 1e-310 overflows: that stage's mode inflation would be infinite
        with pytest.raises(ValueError, match="^betas and their reciprocals must be positive"):
            HqsSchedule(betas=(1.0, beta))


def flat_prior(k=1, d=4, variance=100.0):
    rng = np.random.default_rng(0)
    means = rng.uniform(0.0, 255.0, (k, d))
    covs = np.stack([variance * np.eye(d)] * k)
    return Gmm(weights=np.full(k, 1.0 / k), means=means, covariances=covs)


def spread_prior(prior):
    """The prior with distinct eigenvalues: each covariance plus a diagonal
    from 1 to 2, so that no inflated spectrum folds and select_modes
    takes the float32 screen."""
    spread = np.diag(np.linspace(1.0, 2.0, prior.dim))
    return Gmm(weights=prior.weights, means=prior.means, covariances=prior.covariances + spread)


def partly_folded(prior):
    """The first component of ``prior`` beside the rest of its spread
    prior: at every inflation above 0 that component folds and the others
    stay plain, which on ``flat_prior(k=3, d=16)`` makes a fold of
    2 + 2 * 16 columns, wider than half of K d, so select_modes screens."""
    spread = spread_prior(prior)
    return Gmm(weights=prior.weights, means=prior.means,
               covariances=np.concatenate([prior.covariances[:1], spread.covariances[1:]]))


def mode_path(prior, inflation):
    return _mode_plan(prior, inflation)[0]


def unfolded(prior):
    """The merged-axes mask of the unfolded layout: nothing folds."""
    return np.zeros((prior.n_components, prior.dim), dtype=bool)


class TestModeSelection:
    def test_picks_higher_posterior_component(self):
        d = 4
        prior = Gmm(weights=np.array([0.5, 0.5]),
                    means=np.stack([np.zeros(d), np.full(d, 200.0)]),
                    covariances=np.stack([25.0 * np.eye(d)] * 2))
        patches = np.array([np.full(d, 198.0), np.full(d, 3.0)])
        modes = select_modes(prior, patches, inflation=0.0)
        assert list(modes) == [1, 0]

    def test_invariant_to_weight_rescaling(self):
        rng = np.random.default_rng(1)
        d = 4
        prior = Gmm(weights=np.array([0.25, 0.75]),
                    means=rng.uniform(0, 255, (2, d)),
                    covariances=np.stack([40.0 * np.eye(d)] * 2))
        # renormalizing a scaled weight vector is the identity on the simplex
        scaled = Gmm(weights=(prior.weights * 11.0) / np.sum(prior.weights * 11.0),
                     means=prior.means, covariances=prior.covariances)
        patches = rng.uniform(0, 255, (100, d))
        assert np.array_equal(select_modes(prior, patches, 4.0),
                              select_modes(scaled, patches, 4.0))


def float64_modes(prior, patches, inflation):
    return component_log_densities(prior, patches, inflation).argmax(axis=1)


def float32_modes(prior, patches, inflation):
    """The argmax of the float32 scores alone, before any re-check."""
    centre, basis, base, fold = _scoring_layout(prior, inflation, unfolded(prior))
    return np.concatenate([(base - 0.5 * q).argmax(axis=1) for _, _, q in
                           _blocked_forms(patches, centre, basis.astype(np.float32), fold)])


@pytest.fixture
def rechecked(monkeypatch):
    """Rows that select_modes scores in float64, per call: the rows the
    screen sends back, or every row on the fold."""
    calls = []
    module = sys.modules["patchprior.gmm"]
    original = module._layout_scores

    def counted(points, layout):
        calls.append(len(points))
        return original(points, layout)
    monkeypatch.setattr(module, "_layout_scores", counted)
    return calls


@pytest.fixture
def screened(monkeypatch):
    """The dtype of the basis of every blocked-kernel pass: float32 for the
    screen, float64 for the fold and the re-checks."""
    dtypes = []
    module = sys.modules["patchprior.gmm"]
    original = module._blocked_forms

    def recorded(x, centre, basis, fold):
        dtypes.append(basis.dtype)
        return original(x, centre, basis, fold)
    monkeypatch.setattr(module, "_blocked_forms", recorded)
    return dtypes


@pytest.fixture
def decisions(monkeypatch):
    """Whether each layout built folds any component, and the number of
    ``_merged_axes`` masks, over every call into the gmm module; the test's
    own imports of those names are not counted."""
    record = {"layouts": [], "masks": 0}
    module = sys.modules["patchprior.gmm"]
    layout, merged_axes = module._scoring_layout, module._merged_axes

    def built(gmm, inflation, merged=None):
        out = layout(gmm, inflation, merged)
        record["layouts"].append(bool(out[3][1].size))
        return out

    def masked(gmm, inflation):
        record["masks"] += 1
        return merged_axes(gmm, inflation)
    monkeypatch.setattr(module, "_scoring_layout", built)
    monkeypatch.setattr(module, "_merged_axes", masked)
    return record


def near_tie(covariance):
    """Three components with covariance ``covariance``, two of whose scores
    differ by 1e-8 to 1e-5 nats on every one of 2000 patches: below the
    float32 bound, far above float64 rounding."""
    d = covariance.shape[0]
    means = np.stack([np.full(d, 1000.0), np.full(d, 1000.0), np.full(d, -4000.0)])
    means[1, 0] += 40.0
    prior = Gmm(weights=np.array([0.45, 0.45, 0.1]), means=means,
                covariances=np.stack([covariance] * 3))
    rng = np.random.default_rng(3)
    patches = 0.5 * (means[0] + means[1]) + rng.normal(0.0, 3.0, (2000, d))
    patches[:, 0] = 1020.0 + rng.uniform(-1e-5, 1e-5, 2000)
    return prior, patches


class TestFloat32Screen:
    """select_modes equals the float64 argmax; on a prior that does not
    fold, float32 only decides the rows its rounding bound certifies."""

    def test_realistic_patches_recheck_a_few_rows(self, rechecked, screened):
        clean = make_smoke_image(64)
        fitted, _ = em_fit(extract_patches(clean, 8, 1),
                           EmConfig(n_components=8, max_iters=5, seed=0))
        prior = spread_prior(fitted)
        patches = extract_patches(add_gaussian_noise(clean, 20.0, seed=0), 8, 1)
        checked = 0
        for inflation in (400.0, 100.0, 25.0, 12.5):
            assert mode_path(prior, inflation) == "screen"
            # em_fit and float64_modes score through the same kernel
            rechecked.clear()
            screened.clear()
            modes = select_modes(prior, patches, inflation)
            checked += sum(rechecked)
            assert screened[0] == np.float32
            assert np.array_equal(modes, float64_modes(prior, patches, inflation))
        fraction = checked / (4 * len(patches))
        assert 0.0 < fraction < 0.05

    def test_near_ties_are_decided_in_float64(self, rechecked):
        prior, patches = near_tie(np.diag(np.linspace(20.0, 40.0, 16)))
        assert mode_path(prior, 5.0) == "screen"
        expect = float64_modes(prior, patches, 5.0)
        assert set(expect) == {0, 1}
        assert (float32_modes(prior, patches, 5.0) != expect).any()
        rechecked.clear()
        assert np.array_equal(select_modes(prior, patches, 5.0), expect)
        assert rechecked == [2000]

    def test_floored_spectra_without_inflation(self):
        clean = extract_patches(make_piecewise_image(48), 8, 1)
        prior, _ = em_fit(clean, EmConfig(n_components=6, max_iters=5, seed=0))
        assert prior.eigenvalues.min() < 1.001e-4   # flat regions sit at PSD_FLOOR
        rng = np.random.default_rng(5)
        for patches in (clean, clean + rng.normal(0.0, 0.01, clean.shape)):
            assert np.array_equal(select_modes(prior, patches, 0.0),
                                  float64_modes(prior, patches, 0.0))

    def test_float32_overflow_is_rechecked(self, rechecked):
        # squared forms past 3.4e38, and patches past float32 range entirely
        prior = spread_prior(flat_prior(k=3, d=16))
        assert mode_path(prior, 10.0) == "screen"
        rng = np.random.default_rng(6)
        patches = rng.uniform(0.0, 255.0, (40, 16))
        patches[:10] *= 1e18
        patches[10:20] = -patches[10:20] * 1e37
        expect = float64_modes(prior, patches, 10.0)
        rechecked.clear()
        assert np.array_equal(select_modes(prior, patches, 10.0), expect)
        assert rechecked == [20]

    def test_nan_rows_never_certified(self, rechecked, screened):
        # a NaN patch is named before the screen scores anything
        prior = spread_prior(flat_prior(k=3, d=16))
        assert mode_path(prior, 10.0) == "screen"
        patches = np.random.default_rng(7).uniform(0.0, 255.0, (12, 16))
        patches[4, 3] = np.nan
        with pytest.raises(ValueError, match="^patch 4 has a non-finite entry$"):
            select_modes(prior, patches, 10.0)
        assert rechecked == [] and screened == []


class TestFoldSelection:
    """At inflation > 0 a prior whose float64 layout folds to at most half
    of K d columns is selected through that fold, in float64 alone."""

    def test_each_path_by_its_layout(self, screened, decisions):
        rng = np.random.default_rng(8)
        patches = rng.uniform(0.0, 255.0, (300, 16))
        folding = flat_prior(k=3, d=16)
        spread = spread_prior(folding)
        # one folded component beside two plain ones: a fold of 2 + 2 * 16
        # columns, wider than half of K d
        partly = partly_folded(folding)
        assert _scoring_layout(partly, 10.0)[1].shape[1] == 34
        for prior, inflation, path in ((folding, 10.0, "fold"),
                                       (spread, 10.0, "screen"),
                                       (partly, 10.0, "screen"),
                                       (folding, 0.0, "screen")):
            _, basis, _, fold = _scoring_layout(prior, inflation)
            assert (fold[1].size > 0 and 2 * basis.shape[1] <= 3 * 16) == (path == "fold")
            assert mode_path(prior, inflation) == path
            screened.clear()
            decisions["layouts"].clear()
            decisions["masks"] = 0
            modes = select_modes(prior, patches, inflation)
            # one mask and one layout per call: the folded one on the fold;
            # on the screen the unfolded one, which the re-checks score in
            assert decisions == {"layouts": [path == "fold"], "masks": 1}, path
            assert np.array_equal(modes, float64_modes(prior, patches, inflation))
            assert (np.float32 in screened) == (path == "screen"), path

    def test_path_matches_the_layout_width(self):
        # a floored prior as the M-steps leave it, at inflations across the
        # threshold: the fold path is taken exactly when the layout is narrow
        clean = extract_patches(make_piecewise_image(48), 8, 1)
        prior, _ = em_fit(clean, EmConfig(n_components=6, max_iters=5, seed=0))
        paths = set()
        for inflation in (0.0, 1e-6, 1.0, 12.5, 100.0, 1e4):
            _, basis, _, fold = _scoring_layout(prior, inflation)
            narrow = fold[1].size > 0 and 2 * basis.shape[1] <= 6 * 64
            paths.add(mode_path(prior, inflation))
            assert mode_path(prior, inflation) == ("fold" if narrow else "screen")
        assert paths == {"fold", "screen"}

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_nonfinite_rows_named_before_the_fold(self, rechecked, screened, value):
        # the argmax of a NaN row would be component 0, silently
        prior = flat_prior(k=3, d=16)
        assert mode_path(prior, 10.0) == "fold"
        patches = np.random.default_rng(7).uniform(0.0, 255.0, (12, 16))
        patches[4, 3] = value
        patches[9, 0] = value
        with pytest.raises(ValueError, match="^patch 4 has a non-finite entry$"):
            select_modes(prior, patches, 10.0)
        assert rechecked == [] and screened == []

    def test_near_ties_on_the_fold(self, rechecked, screened):
        prior, patches = near_tie(30.0 * np.eye(16))
        assert mode_path(prior, 5.0) == "fold"
        expect = float64_modes(prior, patches, 5.0)
        assert set(expect) == {0, 1}
        assert (float32_modes(prior, patches, 5.0) != expect).any()
        rechecked.clear()
        screened.clear()
        assert np.array_equal(select_modes(prior, patches, 5.0), expect)
        assert rechecked == [2000] and screened == [np.float64]


class TestCertifiedProbe:
    """A SURE probe run from the prefilter's stage record scores only the
    patches whose mode it cannot certify, and equals a plain denoise()."""

    @pytest.mark.parametrize("probes", [1, 2])
    @pytest.mark.parametrize("delta", [0.5, 50.0])
    @pytest.mark.parametrize("kind", ["folding", "spread", "partly folded"])
    def test_probe_equals_plain_denoise(self, kind, delta, probes):
        folding = flat_prior(k=3, d=16)
        prior = {"folding": folding, "spread": spread_prior(folding),
                 "partly folded": partly_folded(folding)}[kind]
        noisy = add_gaussian_noise(make_piecewise_image(24), 20.0, seed=0)
        record = []
        prefilter, scored = _hqs(noisy, 20.0, prior, record=record)
        n = len(extract_patches(noisy, 4, 1))
        assert scored == (n,) * 5 and len(record) == 5
        assert prefilter.mode_paths == denoise(noisy, 20.0, prior).mode_paths
        rng = np.random.default_rng(1)
        rescored = np.zeros(5, dtype=int)
        for _ in range(probes):
            image = ImageBuffer(noisy.pixels + delta * rng.standard_normal(noisy.pixels.shape))
            got, rows = _hqs(image, 20.0, prior, probe_of=record)
            want = denoise(image, 20.0, prior)
            assert np.array_equal(got.image.pixels, want.image.pixels)
            assert len(got.mode_histograms) == len(want.mode_histograms)
            for a, b in zip(got.mode_histograms, want.mode_histograms):
                assert np.array_equal(a, b)
            assert got.mode_paths == want.mode_paths
            rescored += rows
        if kind == "folding" and delta == 0.5:
            assert rescored.sum() < probes * 5 * n  # rows certified
        if delta == 50.0:
            assert rescored.sum() > 0  # rows rescored

    @pytest.mark.parametrize("covariance,path", [
        (np.diag(np.linspace(20.0, 40.0, 16)), "screen"), (30.0 * np.eye(16), "fold")])
    def test_near_ties_are_scored_again(self, covariance, path):
        # scores 1e-8 to 1e-5 nats apart: a bound that ignored rounding would
        # keep modes that a shift of 1e-7 can flip
        prior, patches = near_tie(covariance)
        plan = _mode_plan(prior, 5.0)
        assert plan[0] == path
        reach = 4.0 * np.abs(patches).max()
        modes, bounds = _select(prior, patches, 5.0, plan, reach)
        assert np.array_equal(modes, float64_modes(prior, patches, 5.0))
        kept, rows = _reselect(prior, patches, 5.0, plan, modes, bounds, np.zeros(2000), reach)
        assert np.array_equal(kept, modes)
        moved = patches + 1e-7 * np.random.default_rng(9).standard_normal(patches.shape)
        shift = np.linalg.norm(moved - patches, axis=1) * (1.0 + 1e-12)
        got, rows = _reselect(prior, moved, 5.0, plan, modes, bounds, shift, reach)
        assert np.array_equal(got, float64_modes(prior, moved, 5.0))
        assert 0 < rows < 2000


class TestWienerShrink:
    def test_eigenbasis_shrink_matches_linear_solve(self):
        rng = np.random.default_rng(4)
        d = 9
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        cov = q @ np.diag(rng.uniform(0.01, 50.0, d)) @ q.T
        cov = 0.5 * (cov + cov.T)
        prior = Gmm(weights=np.array([1.0]), means=rng.uniform(0, 255, (1, d)),
                    covariances=cov[None])
        p = rng.uniform(0, 255, (30, d))
        beta = 0.37
        expect = np.linalg.solve(beta * cov + np.eye(d),
                                 (prior.means[0] + beta * p @ cov).T).T
        shrink, offsets = _wiener_maps(prior, beta)
        assert shrink.shape == (1, d, d) and offsets.shape == (1, d)
        got = p @ shrink[0] + offsets[0]
        assert np.max(np.abs(got - expect)) <= 1e-10

    def test_matches_one_expression_bit_for_bit(self):
        # the batched maps round exactly as each component's one-line
        # affine formula, built alone
        rng = np.random.default_rng(6)
        cov = np.cov(rng.normal(0.0, 30.0, (200, 16)), rowvar=False)
        prior = Gmm(weights=np.full(3, 1 / 3), means=rng.uniform(0, 255, (3, 16)),
                    covariances=np.stack([cov, 2.0 * cov, cov + 5.0 * np.eye(16)]))
        p = rng.uniform(0, 255, (257, 16))
        maps, offsets = _wiener_maps(prior, 0.05)
        for j in range(3):
            basis, mean = prior.eigenvectors[j], prior.means[j]
            lam = 0.05 * prior.eigenvalues[j]
            shrink = (basis * (lam / (lam + 1.0))) @ basis.T
            expect = p @ shrink + (mean - mean @ shrink)
            assert np.array_equal(p @ maps[j] + offsets[j], expect)

    @pytest.mark.parametrize("sigma", [20.0, 50.0])
    @pytest.mark.parametrize("multiplier", [1.0, 32.0])
    def test_floored_spectrum_within_bound(self, sigma, multiplier):
        # 47 of 64 eigenvalues at PSD_FLOOR, as 942 of the benchmark prior's
        # 1,280; the Hadamard basis over 8 is orthogonal in float64 exactly
        # and spreads every axis over every pixel, the worst case of the bound
        rng = np.random.default_rng(11)
        d = 64
        basis = scipy.linalg.hadamard(d) / 8.0
        lam = np.full(d, PSD_FLOOR)
        lam[rng.permutation(d)[:17]] = np.geomspace(1.0, 1e4, 17)
        # Gmm takes eigenpairs in ascending order
        order = np.argsort(lam, kind="stable")
        lam, basis = lam[order], basis[:, order]
        cov = (basis * lam) @ basis.T
        cov = 0.5 * (cov + cov.T)
        mean = rng.uniform(0.0, 255.0, d)
        prior = Gmm._factored(np.array([1.0]), mean[None], cov[None], lam[None], basis[None])
        assert np.count_nonzero(prior.eigenvalues == PSD_FLOOR) == 47
        p = rng.uniform(0.0, 255.0, (200, d))
        beta = multiplier / sigma ** 2
        ld = np.longdouble
        c = (basis.astype(ld) * lam.astype(ld)) @ basis.T.astype(ld)
        a = ld(beta) * c + np.eye(d, dtype=ld)
        rhs = mean.astype(ld) + ld(beta) * (p.astype(ld) @ c)
        expect = longdouble_solve(a, rhs.T).T
        shrink, offsets = _wiener_maps(prior, beta)
        got = p @ shrink[0] + offsets[0]
        # the docstring's bound, per entry of each row
        bound = np.sqrt(d) * _gamma(2 * d + 6, 2.0 ** -53) * (
            np.linalg.norm(p, axis=1) + np.linalg.norm(mean))
        assert (np.abs(got - expect) <= bound[:, None]).all()


def longdouble_solve(a, b):
    """x with a x = b, by Gauss-Jordan elimination in np.longdouble; a is
    symmetric positive-definite, so no pivoting is needed."""
    d = len(a)
    m = np.concatenate([a, b], axis=1).astype(np.longdouble)
    for i in range(d):
        m[i] /= m[i, i]
        others = np.arange(d) != i
        m[others] -= np.outer(m[others, i], m[i])
    return m[:, d:]


def denoise_by_stage_definition(noisy, sigma, prior, schedule):
    """HQS from its public pieces: each stage extracts, selects modes,
    shrinks every mode group found by flatnonzero through its component's
    affine Wiener map, built alone, aggregates and solves the pixel
    update."""
    side = int(round(np.sqrt(prior.dim)))
    data_weight = prior.dim / sigma ** 2
    observed = noisy.pixels
    x = observed.copy()
    histograms = []
    for beta, delta in zip(schedule.betas, schedule.mode_inflations):
        patches = extract_patches(ImageBuffer(x), side, 1)
        modes = select_modes(prior, patches, delta)
        histograms.append(np.bincount(modes, minlength=prior.n_components))
        estimates = patches.copy()
        for j in range(prior.n_components):
            idx = np.flatnonzero(modes == j)
            if idx.size:
                basis, mean = prior.eigenvectors[j], prior.means[j]
                lam = beta * prior.eigenvalues[j]
                shrink = (basis * (lam / (lam + 1.0))) @ basis.T
                estimates[idx] = patches[idx] @ shrink + (mean - mean @ shrink)
        sums, cover = accumulate_patches(estimates, noisy.width, noisy.height)
        x = (data_weight * observed + beta * sums.pixels) / (data_weight + beta * cover.pixels)
    return x, histograms


@pytest.fixture(scope="module")
def small_prior():
    patches = extract_patches(make_smoke_image(48), 4, 1)
    prior, _ = em_fit(patches, EmConfig(n_components=6, max_iters=5, seed=0))
    return prior


class TestStageDefinition:
    @pytest.mark.parametrize("scene", [make_smoke_image, make_piecewise_image])
    @pytest.mark.parametrize("multipliers", [None, (0.5, 3.0, 40.0)])
    def test_denoise_equals_stage_loop_bit_for_bit(self, small_prior, scene, multipliers):
        sigma = 25.0
        noisy = add_gaussian_noise(scene(40), sigma, seed=3)
        schedule = (HqsSchedule.default(sigma) if multipliers is None
                    else HqsSchedule.default(sigma, multipliers))
        out = denoise(noisy, sigma, small_prior, schedule)
        pixels, histograms = denoise_by_stage_definition(noisy, sigma, small_prior, schedule)
        assert np.array_equal(out.image.pixels, pixels)
        assert len(out.mode_histograms) == len(histograms)
        for got, expect in zip(out.mode_histograms, histograms):
            assert np.array_equal(got, expect)
        # more than one mode group in some stage, so the grouping is exercised
        assert max(np.count_nonzero(h) for h in histograms) > 1

    def test_layer_seconds_are_totals_within_the_call(self, small_prior):
        noisy = add_gaussian_noise(make_smoke_image(40), 25.0, seed=3)
        start = time.perf_counter()
        out = denoise(noisy, 25.0, small_prior)
        elapsed = time.perf_counter() - start
        assert set(out.seconds) == {"extract", "select", "shrink", "aggregate", "update"}
        assert all(t > 0.0 for t in out.seconds.values())
        assert sum(out.seconds.values()) <= elapsed


class TestDenoise:
    def test_factors_each_prior_once(self, monkeypatch):
        calls = {"eigh": 0, "cho_factor": 0}

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        counted(np.linalg, "eigh")
        counted(scipy.linalg, "cho_factor")
        prior = flat_prior(k=3, d=16)
        img = add_gaussian_noise(make_piecewise_image(24), 20.0, seed=0)
        out = denoise(img, 20.0, prior)
        assert len(out.mode_histograms) == 5
        assert calls == {"eigh": 1, "cho_factor": 0}

    def test_reference_shape_checked_before_any_stage(self, monkeypatch):
        calls = []
        # the package's `denoise` function shadows the module of that name
        module = sys.modules["patchprior.denoise"]
        plan = module._mode_plan

        def counted(*args):
            calls.append(args)
            return plan(*args)
        monkeypatch.setattr(module, "_mode_plan", counted)
        img = add_gaussian_noise(make_piecewise_image(24), 20.0, seed=0)
        wrong = ImageBuffer(np.zeros((24, 23)))
        with pytest.raises(ValueError, match="different shapes"):
            denoise(img, 20.0, flat_prior(k=2, d=16), reference=wrong)
        assert calls == []
        denoise(img, 20.0, flat_prior(k=2, d=16), reference=img)
        assert len(calls) == 5

    def test_beta_zero_limit_returns_observation(self):
        rng = np.random.default_rng(2)
        img = ImageBuffer(rng.uniform(0.0, 255.0, (16, 16)))
        prior = flat_prior(k=2, d=16)
        sched = HqsSchedule(betas=(1e-12,))
        out = denoise(img, 20.0, prior, sched)
        assert np.max(np.abs(out.image.pixels - img.pixels)) <= 1e-6

    def test_floored_prior_pulls_to_component_mean(self):
        # one component whose covariance sits at the PSD floor: every patch
        # estimate is the mean m, and a huge beta makes the output follow it
        m = 150.0
        d = 16
        prior = Gmm(weights=np.array([1.0]),
                    means=np.array([np.full(d, m)]),
                    covariances=np.array([1e-4 * np.eye(d)]))
        img = ImageBuffer(np.full((12, 12), 60.0))
        sched = HqsSchedule(betas=(100.0,))
        out = denoise(img, 20.0, prior, sched)
        assert np.max(np.abs(out.image.pixels - m)) < 1.0

    def test_x_update_solves_diagonal_system(self):
        # the returned image must satisfy the pixel-wise normal equations of
        # the quadratic x-subproblem for the final stage
        rng = np.random.default_rng(3)
        img = ImageBuffer(rng.uniform(0.0, 255.0, (20, 20)))
        prior = flat_prior(k=3, d=16)
        sigma = 25.0
        sched = HqsSchedule(betas=(0.02,))
        out = denoise(img, sigma, prior, sched)
        # reconstruct the stage's v field: modes under the same inflation
        patches = extract_patches(img, 4, 1)
        modes = select_modes(prior, patches, 50.0)
        beta = 0.02
        v = np.empty_like(patches)
        for k in range(3):
            idx = np.where(modes == k)[0]
            if idx.size == 0:
                continue
            cov = prior.covariances[k]
            a = beta * cov + np.eye(16)
            rhs = prior.means[k][None, :] + beta * (patches[idx] @ cov)
            v[idx] = np.linalg.solve(a, rhs.T).T
        sums, counts = accumulate_patches(v, 20, 20)
        dw = 16.0 / sigma ** 2
        lhs = (dw + beta * counts.pixels) * out.image.pixels
        rhs = dw * img.pixels + beta * sums.pixels
        assert np.max(np.abs(lhs - rhs)) / np.max(np.abs(rhs)) <= 1e-10

    def test_self_trained_prior_gains_on_piecewise_image(self):
        clean = make_piecewise_image(64)
        patches = extract_patches(clean, 8, 1)
        prior, _ = em_fit(patches, EmConfig(n_components=10, max_iters=20,
                                            tol=1e-4, seed=0))
        noisy = add_gaussian_noise(clean, 20.0, seed=1)
        out = denoise(noisy, 20.0, prior, reference=clean)
        gain = psnr(clean, out.image) - psnr(clean, noisy)
        assert gain >= 3.0
        check_baseline("piecewise64_sigma20_selfprior_psnr", round(psnr(clean, out.image), 4))

    def test_reference_trace_has_stage_per_beta(self):
        clean = make_piecewise_image(32)
        noisy = add_gaussian_noise(clean, 15.0, seed=2)
        prior = flat_prior(k=2, d=16, variance=400.0)
        out = denoise(noisy, 15.0, prior, reference=clean)
        assert out.psnr_trace is not None
        assert len(out.psnr_trace) == 5
        assert out.mode_histograms[0].sum() == extract_patches(clean, 4, 1).shape[0]

    def test_mode_paths_per_stage(self):
        img = add_gaussian_noise(make_piecewise_image(24), 20.0, seed=0)
        folding = flat_prior(k=3, d=16)
        assert denoise(img, 20.0, folding).mode_paths == ("fold",) * 5
        assert denoise(img, 20.0, spread_prior(folding)).mode_paths == ("screen",) * 5

    def test_one_mask_and_one_layout_per_stage(self, decisions):
        # folding, non-folding and partly folded priors: each stage makes
        # one merged-axes mask and builds one layout, the folded one only
        # on the fold; the partly folded prior merges axes at every stage
        # and still screens through the unfolded layout alone
        img = add_gaussian_noise(make_piecewise_image(24), 20.0, seed=0)
        folding = flat_prior(k=3, d=16)
        partly = partly_folded(folding)
        inflations = HqsSchedule.default(20.0).mode_inflations
        assert all(_merged_axes(partly, s)[0].any() for s in inflations)
        for prior, path in ((folding, "fold"), (spread_prior(folding), "screen"),
                            (partly, "screen")):
            decisions["layouts"].clear()
            decisions["masks"] = 0
            assert denoise(img, 20.0, prior).mode_paths == (path,) * 5
            assert decisions == {"layouts": [path == "fold"] * 5, "masks": 5}, path

    def test_no_reference_no_trace(self):
        img = ImageBuffer(np.full((10, 10), 90.0))
        out = denoise(img, 10.0, flat_prior(k=1, d=4))
        assert out.psnr_trace is None

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        img = ImageBuffer(rng.uniform(0.0, 255.0, (24, 24)))
        prior = flat_prior(k=3, d=16)
        a = denoise(img, 20.0, prior)
        b = denoise(img, 20.0, prior)
        assert np.array_equal(a.image.pixels, b.image.pixels)

    def test_rejects_non_square_patch_dimension(self):
        img = ImageBuffer(np.zeros((10, 10)))
        prior = flat_prior(k=1, d=5)
        with pytest.raises(ValueError):
            denoise(img, 10.0, prior)

    def test_rejects_nonpositive_sigma(self):
        img = ImageBuffer(np.zeros((10, 10)))
        with pytest.raises(ValueError):
            denoise(img, 0.0, flat_prior())
