"""Public surface: exported names and where invalid parameters are rejected."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import patchprior
from patchprior import (
    AdaptationConfig,
    EmConfig,
    Gmm,
    HqsSchedule,
    ImageBuffer,
    SufficientStats,
    SureConfig,
    accumulate_patches,
    adaptation_mstep,
    add_gaussian_noise,
    component_log_densities,
    condition_psd,
    denoise,
    estimate_sigma_tilde_sq,
    extract_patches,
    sample_gmm,
    sufficient_stats,
)
from patchprior.toy import GENERIC_TRUTH, mean_error

MODULES = ["patchprior"] + [f"patchprior.{m.name}"
                            for m in pkgutil.iter_modules(patchprior.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def test_public_names_are_pinned():
    # a name enters or leaves the public surface only on purpose
    assert sorted(patchprior.__all__) == sorted([
        "__version__", "AdaptationConfig", "AdaptationReport", "BadMagicError",
        "ChecksumError", "DegeneratePatchError", "DenoiseResult", "EmConfig", "Gmm",
        "HqsSchedule", "ImageBuffer", "InsufficientDataError", "ModelFileError", "PSNR_CAP",
        "PgmError", "SufficientStats", "SureConfig", "TruncatedFileError",
        "UnsupportedVersionError", "accumulate_patches", "adapt", "adaptation_mstep",
        "add_gaussian_noise", "component_log_densities", "condition_psd", "denoise",
        "em_fit", "estimate_sigma_tilde_sq", "extract_patches", "load_model",
        "log_posterior_objective", "mstep_covariance_fast", "psnr", "read_pgm",
        "responsibilities", "sample_gmm", "save_model", "select_modes", "sufficient_stats",
        "write_pgm",
    ])
    # the package's name ``denoise`` is the function; the module is in sys.modules
    assert importlib.import_module("patchprior.denoise").__all__ == [
        "HqsSchedule", "DenoiseResult", "denoise"]


def test_scipy_is_not_imported_at_runtime():
    src = str(Path(patchprior.__file__).resolve().parent.parent)
    code = "import sys, patchprior, patchprior.cli; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert proc.stdout.strip() == "False"


def test_package_has_no_assert_and_one_clock():
    # python -O strips assert statements, so a check in src/ must raise; and
    # every timing comes from the one lap timer in timing.py
    asserts, clocks = [], set()
    for path in sorted(Path(patchprior.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                asserts.append(f"{path.name}:{node.lineno}")
            if "perf_counter" in (getattr(node, "attr", None), getattr(node, "id", None),
                                  getattr(node, "name", None)):
                clocks.add(path.name)
    assert asserts == []
    assert clocks == {"timing.py"}


def _denoise(sigma):
    prior = Gmm(np.ones(1), np.zeros((1, 4)), np.eye(4)[None])
    return denoise(ImageBuffer(np.zeros((4, 4))), sigma, prior)


def _mstep(n=3, rho=1.0, sigma_tilde_sq=0.0):
    generic = Gmm(np.full(2, 0.5), np.zeros((2, 2)), np.stack([np.eye(2)] * 2))
    stats = sufficient_stats(np.ones((3, 2)), np.full((3, 2), 0.5))
    return adaptation_mstep(generic, stats, n, rho, sigma_tilde_sq)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("build", [
    lambda v: HqsSchedule(betas=(1.0, v)),
    lambda v: HqsSchedule.default(v),
    lambda v: HqsSchedule.default(20.0, (1.0, v)),
    _denoise,
    lambda v: estimate_sigma_tilde_sq(ImageBuffer(np.zeros((4, 4))), v, lambda img: img),
    lambda v: add_gaussian_noise(ImageBuffer(np.zeros((4, 4))), v, seed=0),
    lambda v: AdaptationConfig(rho=v),
    lambda v: AdaptationConfig(sigma_tilde_sq=v),
    lambda v: _mstep(rho=v),
    lambda v: _mstep(sigma_tilde_sq=v),
    lambda v: EmConfig(n_components=1, tol=v),
    lambda v: condition_psd(-np.eye(2), v),
    lambda v: component_log_densities(Gmm(np.ones(1), np.zeros((1, 2)), np.eye(2)[None]),
                                      np.zeros((3, 2)), v),
], ids=["schedule-betas", "schedule-sigma", "schedule-multipliers", "denoise-sigma",
        "sure-sigma", "noise-sigma", "adapt-rho", "adapt-sigma-tilde-sq",
        "mstep-rho", "mstep-sigma-tilde-sq", "em-tol",
        "condition-psd-floor", "score-inflation"])
def test_nonfinite_parameters_rejected(build, value):
    with pytest.raises(ValueError, match="finite"):
        build(value)


@pytest.mark.parametrize("build, field", [
    (lambda: AdaptationConfig(iterations=2.5), "iterations"),
    (lambda: EmConfig(n_components=2.5), "n_components"),
    (lambda: EmConfig(n_components=1, max_iters=3.0), "max_iters"),
    (lambda: SureConfig(probes=1.5), "probes"),
    (lambda: extract_patches(ImageBuffer(np.zeros((8, 8))), 3.7), "patch_size"),
    (lambda: extract_patches(ImageBuffer(np.zeros((8, 8))), 3, 1.5), "stride"),
    (lambda: accumulate_patches(np.zeros((36, 9)), 8, 8, 1.5), "stride"),
    (lambda: sufficient_stats(np.ones((3, 2)), np.ones((3, 0))), "responsibility matrix"),
    (lambda: sufficient_stats(np.ones((3, 0)), np.ones((3, 2))), "patch matrix"),
    (lambda: _mstep(n=2.5), "n must be an integer"),
    (lambda: sample_gmm(Gmm(np.ones(1), np.zeros((1, 2)), np.eye(2)[None]), 2.5,
                        np.random.default_rng(0)), "n must be an integer"),
    (lambda: sample_gmm(Gmm(np.ones(1), np.zeros((1, 2)), np.eye(2)[None]), 0,
                        np.random.default_rng(0)), "n must be at least 1"),
    (lambda: extract_patches(ImageBuffer(np.zeros((8, 8))), 3, 0), "stride must be positive"),
    (lambda: HqsSchedule(betas=()), "at least one stage"),
], ids=["adapt-iterations", "em-components", "em-max-iters", "sure-probes",
        "patch-size", "extract-stride", "accumulate-stride", "stats-no-components",
        "stats-zero-width", "mstep-n", "sample-n", "sample-zero", "extract-stride-zero",
        "schedule-empty"])
def test_nonintegral_counts_and_empty_widths_rejected(build, field):
    with pytest.raises(ValueError, match=field):
        build()


@pytest.mark.parametrize("build, message", [
    (lambda: component_log_densities(Gmm(np.ones(1), np.zeros((1, 2)), np.eye(2)[None]),
                                     np.zeros((3, 3))), "points have dimension 3, model has 2"),
    (lambda: condition_psd(np.ones((2, 3)), 1.0), "square matrix"),
    (lambda: accumulate_patches(np.zeros(9), 3, 3), "patch matrix, got shape"),
    (lambda: adaptation_mstep(Gmm(np.ones(1), np.zeros((1, 2)), np.eye(2)[None]),
                              sufficient_stats(np.ones((3, 3)), np.ones((3, 1))), 3, 1.0),
     "statistics do not match"),
    (lambda: SufficientStats(np.ones(2), np.zeros((2, 3)), np.zeros((2, 3, 2))),
     "statistic shapes are inconsistent"),
    (lambda: SufficientStats(np.ones(2), np.zeros(3), np.zeros((2, 3, 3))),
     "statistic shapes are inconsistent"),
    (lambda: SufficientStats(np.array([2.0, -1.0]), np.zeros((2, 1)), np.zeros((2, 1, 1))),
     "counts must be nonnegative"),
    (lambda: mean_error(Gmm(np.ones(1), np.zeros((1, 2)), np.eye(2)[None]), GENERIC_TRUTH),
     "component counts differ"),
], ids=["points-dimension", "condition-psd-non-square", "accumulate-1d", "mstep-stats-shape",
        "stats-second-moments-shape", "stats-means-rank", "stats-negative-counts",
        "toy-components"])
def test_malformed_arrays_rejected(build, message):
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize("kwargs, field", [
    ({"rho": 0.0}, "rho"), ({"rho": -1.0}, "rho"), ({"sigma_tilde_sq": -4.0}, "sigma_tilde_sq"),
    ({"n": 0}, "n must be"),
], ids=["rho-zero", "rho-negative", "sigma-tilde-sq-negative", "n-zero"])
def test_mstep_parameters_out_of_range_rejected(kwargs, field):
    # adaptation_mstep is public; it used to return NaN or unnormalized weights
    assert np.isclose(_mstep()[0].sum(), 1.0)
    with pytest.raises(ValueError, match=field):
        _mstep(**kwargs)


def test_numpy_integer_counts_accepted():
    assert EmConfig(n_components=np.int64(2), max_iters=np.int32(3)).max_iters == 3
    image = ImageBuffer(np.zeros((8, 8)))
    assert extract_patches(image, np.int32(3), np.int64(2)).shape == (16, 9)


@pytest.mark.parametrize("sigma", [1e200, 1e-200, 2e154, 5e-155])
@pytest.mark.parametrize("build", [
    HqsSchedule.default,
    _denoise,
    lambda v: estimate_sigma_tilde_sq(ImageBuffer(np.zeros((4, 4))), v, lambda img: img),
], ids=["schedule-sigma", "denoise-sigma", "sure-sigma"])
def test_sigma_without_finite_square_rejected(build, sigma):
    # sigma ** 2 overflows, or 1 / sigma ** 2 does, or the square is 0
    with pytest.raises(ValueError, match="sigma must be positive and finite"):
        build(sigma)


def test_benchmark_spans_resolve():
    # perfbench/tracer.py wraps each (module, attribute) of its SPANS by
    # name; read the table without importing the tracer or its dependencies
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spans = next(ast.literal_eval(node.value)
                 for node in ast.parse(path.read_text()).body
                 if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None) for t in node.targets] == ["SPANS"])
    missing = [f"{module}.{attr}" for module, attr in spans.values()
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert spans and missing == []
