"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench/test_perfbench.py

They check the span arithmetic on synthetic spans, the scaling of times
to the reference machine speed, the independent references against
brute-force formulas on tiny inputs, the tracer's wiring into the package,
and that real runs print every metric that BENCHMARK.json names.  The last group runs the benchmark itself and takes
about two minutes.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT / "tests")]

import reference  # noqa: E402
from tracer import METRICS, Tracer, layer_metrics, self_times  # noqa: E402

import patchprior as pp  # noqa: E402


# -- span arithmetic ------------------------------------------------------

def test_self_time_subtracts_direct_children_only():
    spans = [["a", 0.0, 10.0, None],
             ["b", 1.0, 4.0, 0],
             ["c", 2.0, 3.0, 1],      # grandchild: counts against b, not a
             ["d", 6.0, 7.5, 0]]
    assert self_times(spans) == pytest.approx([10.0 - 3.0 - 1.5, 2.0, 1.0, 1.5])


def test_self_time_counts_overlapping_children_once():
    spans = [["a", 0.0, 10.0, None],
             ["b", 1.0, 5.0, 0],
             ["c", 3.0, 6.0, 0],      # overlaps b on [3, 5]
             ["d", 9.0, 12.0, 0]]     # pokes out of a; only [9, 10] is covered
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_layer_metrics_sums_spans_and_passes_counts_through():
    spans = [["denoise.denoise", 0.0, 4.0, None],
             ["gmm.component_log_densities", 0.5, 2.5, 0],
             ["denoise.denoise", 5.0, 6.0, None]]
    counts = {"gmm.component_log_densities.evals": 1000, "sure.denoiser_calls": 2}
    m = layer_metrics(spans, counts)
    assert set(m) == set(METRICS)
    assert m["denoise.denoise.s"] == pytest.approx(5.0)
    assert m["denoise.denoise.self_s"] == pytest.approx(3.0)
    assert m["denoise.denoise.calls"] == 2
    assert m["gmm.component_log_densities.evals_per_s"] == pytest.approx(500.0)
    assert m["sure.denoiser_calls"] == 2
    assert m["em.iterations"] == 0


def test_speed_factor_is_the_reference_over_the_median_kernel_pass():
    import run
    r = run.Run(log=print)
    ref = run.KERNEL_REF_S
    r.kernel_s = [ref, 2 * ref, 2 * ref, 9 * ref]
    assert r.speed_factor() == pytest.approx(0.5)
    assert r.speed_factor(since=3) == pytest.approx(1 / 9)
    r.op("no-op", lambda: None)
    assert len(r.kernel_s) == 4 + run.KERNEL_PASSES
    assert all(0 < t < 10 * ref for t in r.kernel_s[4:])


# -- references against brute force ---------------------------------------

def _tiny_model(rng, k=2, d=4):
    weights = rng.uniform(0.5, 1.5, k)
    means = rng.normal(100.0, 30.0, (k, d))
    covs = []
    for _ in range(k):
        a = rng.normal(0.0, 10.0, (d, d))
        covs.append(a @ a.T + 5.0 * np.eye(d))
    return weights / weights.sum(), means, np.array(covs)


def _density(p, mean, cov):
    dev = p - mean
    d = len(p)
    return math.exp(-0.5 * dev @ np.linalg.inv(cov) @ dev) / math.sqrt(
        (2 * math.pi) ** d * np.linalg.det(cov))


def test_mixture_loglik_matches_explicit_density():
    rng = np.random.default_rng(0)
    w, mu, cov = _tiny_model(rng)
    x = rng.normal(100.0, 20.0, (7, 4))
    brute = np.mean([math.log(sum(wk * _density(p, m, c) for wk, m, c in zip(w, mu, cov)))
                     for p in x])
    assert reference.mixture_mean_loglik(x, w, mu, cov) == pytest.approx(brute, rel=1e-10)


@pytest.mark.parametrize("sigma_tilde_sq", [0.0, 9.0])
def test_adapt_reference_matches_patch_loop(sigma_tilde_sq):
    rng = np.random.default_rng(1)
    w, mu, cov = _tiny_model(rng)
    x = rng.normal(100.0, 20.0, (9, 4))
    rho, k = 2.0, len(w)
    inflated = cov + sigma_tilde_sq * np.eye(4)
    gamma = np.array([[wk * _density(p, m, c) for wk, m, c in zip(w, mu, inflated)]
                      for p in x])
    gamma /= gamma.sum(axis=1, keepdims=True)
    counts = gamma.sum(axis=0)
    alphas, weights, means = reference.adapt_one_iteration(x, w, mu, cov, rho, sigma_tilde_sq)
    for j in range(k):
        xbar = sum(g * p for g, p in zip(gamma[:, j], x)) / counts[j]
        alpha = counts[j] / (counts[j] + rho)
        assert alphas[j] == pytest.approx(alpha, rel=1e-10)
        assert weights[j] == pytest.approx((counts[j] + rho * k * w[j]) / (len(x) + rho * k),
                                           rel=1e-10)
        assert means[j] == pytest.approx(alpha * xbar + (1 - alpha) * mu[j], rel=1e-10)


def test_hqs_reference_matches_dense_operators():
    """Brute force: explicit densities for the mode, the Wiener form
    mu + C (C + I/beta)^-1 (p - mu) for the estimate, and 0/1 extraction
    matrices for the aggregation."""
    rng = np.random.default_rng(2)
    side, h, w_ = 2, 4, 5
    d = side * side
    weights, means, covs = _tiny_model(rng, k=3, d=d)
    noisy = rng.normal(100.0, 25.0, (h, w_))
    sigma = 15.0
    origins = [(r, c) for r in range(h - side + 1) for c in range(w_ - side + 1)]
    extract = []
    for r, c in origins:
        e = np.zeros((d, h * w_))
        for a in range(side):
            for b in range(side):
                e[a * side + b, (r + a) * w_ + (c + b)] = 1.0
        extract.append(e)
    cover = sum(e.T @ np.ones(d) for e in extract)
    y = noisy.ravel()
    x = y.copy()
    for m in reference.STAGE_MULTIPLIERS:
        beta = m / sigma ** 2
        total = np.zeros_like(y)
        for e in extract:
            p = e @ x
            k = int(np.argmax([wk * _density(p, mk, ck + np.eye(d) / beta)
                               for wk, mk, ck in zip(weights, means, covs)]))
            gain = covs[k] @ np.linalg.inv(covs[k] + np.eye(d) / beta)
            total += e.T @ (means[k] + gain @ (p - means[k]))
        x = (d / sigma ** 2 * y + beta * total) / (d / sigma ** 2 + beta * cover)
    got = reference.hqs_denoise(noisy, sigma, weights, means, covs)
    assert np.allclose(got.ravel(), x, rtol=0, atol=1e-9)


def test_model_problems_flags_each_invariant():
    rng = np.random.default_rng(3)
    w, mu, cov = _tiny_model(rng)
    assert reference.model_problems(w, mu, cov, 1e-4) == []
    assert reference.model_problems(w * 1.01, mu, cov, 1e-4)
    skew = cov.copy()
    skew[0, 0, 1] += 1e-3
    assert reference.model_problems(w, mu, skew, 1e-4)
    assert reference.model_problems(w, mu, cov, 1e6)


def test_psnr_nondecreasing_and_pgm_reader(tmp_path):
    clean = np.full((4, 4), 100.0)
    assert reference.psnr_db(clean, clean + 1.0) == pytest.approx(20 * math.log10(255.0))
    assert reference.nondecreasing([1.0, 2.0, 2.0, 3.0])
    assert not reference.nondecreasing([1.0, 0.5])
    pixels = np.array([[0, 10, 32], [9, 255, 13]], dtype=np.float64)
    pp.write_pgm(pp.ImageBuffer(pixels), tmp_path / "a.pgm")
    assert np.array_equal(reference.read_p5(tmp_path / "a.pgm"), pixels)


# -- tracer wiring ---------------------------------------------------------

def test_tracer_patches_every_namespace_and_restores_them():
    import importlib
    denoise_mod = importlib.import_module("patchprior.denoise")
    originals = (pp.denoise, denoise_mod.denoise, denoise_mod.component_log_densities)
    tracer = Tracer()
    tracer.install()
    try:
        assert pp.denoise is not originals[0]
        assert denoise_mod.denoise is pp.denoise
        assert denoise_mod.component_log_densities is not originals[2]
    finally:
        tracer.uninstall()
    assert (pp.denoise, denoise_mod.denoise, denoise_mod.component_log_densities) == originals


def test_tracer_counts_adapt_and_denoise_layers():
    rng = np.random.default_rng(4)
    side = 3
    image = pp.ImageBuffer(rng.uniform(50.0, 200.0, (12, 12)))
    x = pp.extract_patches(image, side, 1).data
    generic, _ = pp.em_fit(x, pp.EmConfig(n_components=3, max_iters=3, seed=0))
    tracer = Tracer()
    tracer.install()
    try:
        pp.adapt(generic, x, pp.AdaptationConfig(iterations=3))
        pp.denoise(image, 10.0, generic)
        with tracer.paused():
            pp.denoise(image, 10.0, generic)
    finally:
        tracer.uninstall()
    m = tracer.metrics()
    assert m["adapt.iterations"] == 3
    assert m["gmm.log_posterior_objective.calls"] == 3
    assert m["denoise.denoise.calls"] == 1
    assert m["patches.extract_patches.calls"] == 5
    assert m["gmm.component_log_densities.evals"] == 3 * 2 * x.shape[0] * 3 + 5 * x.shape[0] * 3
    assert m["linalg.factorizations"] > 0
    assert 0 < m["denoise.denoise.self_s"] < m["denoise.denoise.s"]


# -- whole runs ------------------------------------------------------------

def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace,key", [("0", "end_to_end"), ("1", "per_layer")])
def test_run_prints_every_metric_in_benchmark_json(trace, key):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _run(ROOT, "--workload", "sure-chain", "--seed", "0", "--seconds", "1",
                "--trace", trace)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in spec[key]} == {
        name: v["unit"] for name, v in result["metrics"].items()}
    if trace == "1":
        m = {name: v["value"] for name, v in result["metrics"].items()}
        assert m["cli.adapt.denoise_calls"] == 3 * m["cli.adapt.calls"]
        assert m["sure.denoiser_calls"] == 2 * m["cli.adapt.calls"]


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "denoise", "--seed", "0", "--seconds", "1")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
