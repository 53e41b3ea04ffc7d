"""End-to-end benchmark of patchprior: one closed-loop client per run.

    python3 perfbench/run.py --workload denoise --seed 0 --seconds 16 --trace 0

One process builds the inputs, trains the generic prior, then calls the
library (or ``cli_dispatch``) in sequence, one round of operations after
another, until ``--seconds`` have passed; a round always runs to its end.
Every output is checked.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
end-to-end metrics with ``--trace 0``; with ``--trace 1`` the rounds run
once untraced and once traced on the same inputs, and the metrics are the
per-layer ones.  See README.md beside this file.
"""

from __future__ import annotations

import os

# BLAS reads its thread count when numpy is first imported, so this must
# come before any import that pulls numpy in.
THREADS = "1"
os.environ["PATCHPRIOR_THREADS"] = THREADS
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_run"   # scratch files and span dumps, inside the checkout
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
from tracer import METRICS as LAYER_METRICS, Tracer  # noqa: E402

# -- problem sizes (README.md explains each choice) ---------------------
K = 20                   # mixture components
PATCH = 8                # patch side, d = 64
CORPUS_SIZE = 128        # side of each of the five corpus images
SETUP_STRIDE = 2         # 18,605 corpus patches for the generic prior
SETUP_EM_ITERS = 5
SETUP_REPEATS = 3        # set-up runs this often; setup_s is the median
SCENE = 128              # denoise and fit scenes
DENOISE_CASES = (("smoke", 20.0), ("piecewise", 50.0))
FIT_EM_ITERS = 2         # EM on the set-up's 18,605-patch corpus
FIT_ADAPT_ITERS = 2
FIT_NOISE_SIGMA = 10.0   # noisy adapt: sigma = sigma_tilde = 10
CHAIN_SCENE = 96
CHAIN_SIGMA = 20
REF_CROP = 20            # side of the crops the references run on
PSD_FLOOR = 1e-4         # EmConfig and AdaptationConfig default
MIN_GAIN_DB = 5.0        # every denoise must beat its noisy input by this
CHAIN_SLACK_DB = 0.05    # adapted prior may trail the generic one by this
REF_ABS_TOL = 1e-3       # gray levels between denoise() and the HQS reference
REF_REL_TOL = 1e-8       # relative error of adapt() against its reference
# Machine speed: the reported times are scaled to the speed at which the
# benchmark's own kernel takes KERNEL_REF_S (see machine_kernel_s).
KERNEL_REF_S = 0.03
KERNEL_PASSES = 3        # kernel passes timed before every operation

END_TO_END = {"setup_s": "s", "round_s": "s", "peak_rss_mib": "MiB"}
WORKLOADS = ("denoise", "fit", "sure-chain")


def _import_program():
    """Put the checkout's src/ and tests/ on the path, or exit non-zero."""
    src, tests = ROOT / "src", ROOT / "tests"
    if not (src / "patchprior" / "__init__.py").is_file() or not (
            tests / "synthimages.py").is_file():
        sys.exit(f"perfbench: {src}/patchprior or {tests}/synthimages.py is missing; "
                 "run from the root of a patchprior checkout")
    sys.path[1:1] = [str(src), str(tests)]


class Run:
    """Counts operations, records timings and collects failed checks."""

    def __init__(self, log):
        self.log = log
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.samples = defaultdict(list)
        self.op_seconds = 0.0   # wall time spent inside program calls
        self.kernel_s = []      # machine_kernel_s passes, spread over the run
        # Checks that call the program run inside this context, which the
        # traced run points at Tracer.paused so they leave no spans.
        self.unmeasured = contextlib.nullcontext

    def op(self, label, fn, *args, **kwargs):
        """Call into the program once; (result, seconds), or (None, None)
        if the call raised."""
        self.kernel_s.extend(machine_kernel_s() for _ in range(KERNEL_PASSES))
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception:  # a failed operation is counted, not fatal
            self.failed += 1
            self.log(f"operation {label} failed:\n{traceback.format_exc()}")
            return None, None
        seconds = time.perf_counter() - start
        self.op_seconds += seconds
        return result, seconds

    def cli(self, argv):
        """One CLI command; a nonzero exit status is a failed operation."""
        pp_cli = importlib.import_module("patchprior.cli")
        code, seconds = self.op(argv[0], pp_cli.cli_dispatch, argv)
        if code is None:
            return None
        if code != 0:
            self.failed += 1
            self.log(f"command {' '.join(argv)} exited {code}")
            return None
        return seconds

    def speed_factor(self, since=0):
        """KERNEL_REF_S over the median kernel pass from pass ``since`` on:
        a wall time times this is the time at the reference speed."""
        return KERNEL_REF_S / statistics.median(self.kernel_s[since:])

    def check(self, ok, what):
        if not ok:
            self.problems.append(what)
            self.log(f"check failed: {what}")

    def check_model(self, label, weights, means, covs):
        for problem in reference.model_problems(weights, means, covs, PSD_FLOOR):
            self.check(False, f"{label}: {problem}")


# -- set-up --------------------------------------------------------------

def build_inputs():
    """Scenes, both corpora and the generic prior; returns a dict."""
    import synthimages
    pp = importlib.import_module("patchprior")
    scenes = {"smoke": synthimages.make_smoke_image(SCENE).pixels,
              "piecewise": synthimages.make_piecewise_image(SCENE).pixels,
              "chain": synthimages.make_smoke_image(CHAIN_SCENE).pixels}
    corpus = synthimages.corpus_patches(CORPUS_SIZE, PATCH, SETUP_STRIDE)
    prior, trace = pp.em_fit(corpus, pp.EmConfig(n_components=K, max_iters=SETUP_EM_ITERS,
                                                 seed=0))
    return {"scenes": scenes, "corpus": corpus, "prior": prior, "trace": trace}


def set_up(run):
    """Build the inputs SETUP_REPEATS times; returns (inputs, the seconds
    of each build)."""
    inputs, first, seconds = None, None, []
    for i in range(SETUP_REPEATS):
        inputs, took = run.op(f"setup {i}", build_inputs)
        if inputs is None:
            return None, None
        seconds.append(took)
        first = first or inputs["prior"]
        run.check(all(np.array_equal(getattr(first, a), getattr(inputs["prior"], a))
                      for a in ("weights", "means", "covariances")),
                  "set-up is not deterministic: priors differ between repeats")
    prior, trace = inputs["prior"], inputs["trace"]
    run.check_model("generic prior", prior.weights, prior.means, prior.covariances)
    run.check(reference.nondecreasing(trace), f"set-up EM trace decreased: {trace}")
    loglik = reference.mixture_mean_loglik(inputs["corpus"], prior.weights, prior.means,
                                           prior.covariances)
    run.check(loglik >= trace[-1] - 1e-9 * abs(trace[-1]),
              f"EM model log-likelihood {loglik} below its last trace value {trace[-1]}")
    return inputs, seconds


def check_references(run, inputs, rng):
    """Compare denoise() and adapt() with the independent references on
    small crops; returns figures for the detail line."""
    pp = importlib.import_module("patchprior")
    prior = inputs["prior"]
    w, mu, cov = prior.weights, prior.means, prior.covariances
    figures = {}

    crop = inputs["scenes"]["smoke"][50:50 + REF_CROP, 30:30 + REF_CROP]
    noisy = crop + rng.normal(0.0, 20.0, crop.shape)
    result, _ = run.op("reference denoise", pp.denoise, pp.ImageBuffer(noisy), 20.0, prior)
    if result is not None:
        expected = reference.hqs_denoise(noisy, 20.0, w, mu, cov)
        worst = float(abs(result.image.pixels - expected).max())
        figures["ref_denoise_max_abs"] = worst
        run.check(worst <= REF_ABS_TOL,
                  f"denoise() differs from the HQS reference by up to {worst:.3g}")

    crop = inputs["scenes"]["piecewise"][45:45 + REF_CROP + 4, 75:75 + REF_CROP + 4]
    for sigma_tilde_sq in (0.0, 25.0):
        pixels = crop + (rng.normal(0.0, sigma_tilde_sq ** 0.5, crop.shape)
                         if sigma_tilde_sq else 0.0)
        x = reference.patch_rows(pixels, PATCH)
        out, _ = run.op("reference adapt", pp.adapt, prior, x,
                        pp.AdaptationConfig(rho=1.0, sigma_tilde_sq=sigma_tilde_sq))
        if out is None:
            continue
        model, report = out
        alphas, weights, means = reference.adapt_one_iteration(x, w, mu, cov, 1.0,
                                                               sigma_tilde_sq)
        worst = max(_rel_err(report.alphas, alphas), _rel_err(model.weights, weights),
                    _rel_err(model.means, means))
        figures[f"ref_adapt_rel_err_st{sigma_tilde_sq:g}"] = worst
        run.check(worst <= REF_REL_TOL,
                  f"adapt() one-iteration update off the reference by {worst:.3g} "
                  f"(sigma_tilde_sq {sigma_tilde_sq:g})")
    return figures


def _rel_err(actual, expected):
    return float(abs(actual - expected).max() / max(1e-300, float(abs(expected).max())))


# -- workloads -----------------------------------------------------------

def denoise_round(run, inputs, rng, work):
    """denoise() of the held-out scenes at sigma 20 and 50, generic prior."""
    pp = importlib.import_module("patchprior")
    for name, sigma in DENOISE_CASES:
        clean = inputs["scenes"][name]
        noisy = clean + rng.normal(0.0, sigma, clean.shape)
        result, seconds = run.op(f"denoise {name}", pp.denoise, pp.ImageBuffer(noisy),
                                 sigma, inputs["prior"])
        if result is None:
            continue
        run.samples["denoise_s"].append(seconds)
        out = reference.psnr_db(clean, result.image.pixels)
        run.samples["denoise_psnr_db"].append(out)
        run.check(out >= reference.psnr_db(clean, noisy) + MIN_GAIN_DB,
                  f"denoise {name} sigma {sigma:g} gained less than {MIN_GAIN_DB} dB")


def fit_round(run, inputs, rng, work):
    """EM on the set-up corpus, then multi-iteration adapt to a clean and a
    noisy scene.  No HQS code runs."""
    pp = importlib.import_module("patchprior")
    prior = inputs["prior"]
    config = pp.EmConfig(n_components=K, max_iters=FIT_EM_ITERS,
                         seed=int(rng.integers(2 ** 31)))
    out, seconds = run.op("em_fit", pp.em_fit, inputs["corpus"], config)
    if out is not None:
        model, trace = out
        run.samples["train_iter_s"].append(seconds / len(trace))
        run.check(reference.nondecreasing(trace), f"EM trace decreased: {trace}")
        run.check_model("em_fit model", model.weights, model.means, model.covariances)

    clean = inputs["scenes"]["piecewise"]
    noisy = inputs["scenes"]["smoke"] + rng.normal(0.0, FIT_NOISE_SIGMA, clean.shape)
    for label, pixels, sigma_tilde_sq in (("clean", clean, 0.0),
                                          ("noisy", noisy, FIT_NOISE_SIGMA ** 2)):
        config = pp.AdaptationConfig(rho=1.0, sigma_tilde_sq=sigma_tilde_sq,
                                     iterations=FIT_ADAPT_ITERS)
        out, seconds = run.op(f"adapt {label}", pp.adapt, prior,
                              _stride1_patches(pixels), config)
        if out is None:
            continue
        model, report = out
        run.samples["adapt_s"].append(seconds)
        run.check_model(f"adapt {label} model", model.weights, model.means,
                        model.covariances)
        run.check(len(report.objectives) == FIT_ADAPT_ITERS,
                  f"adapt {label} ran {len(report.objectives)} iterations")
        if not sigma_tilde_sq:
            # Criterion 5; with sigma_tilde_sq > 0 the deflate-then-floor
            # update does not ascend the reported objective.
            run.check(reference.nondecreasing(report.objectives),
                      f"clean adapt objective decreased: {report.objectives}")


def _stride1_patches(pixels):
    view = np.lib.stride_tricks.sliding_window_view(pixels, (PATCH, PATCH))
    return view.reshape(-1, PATCH * PATCH).copy()


def sure_chain_round(run, inputs, rng, work):
    """noise -> adapt --sigma-tilde sure -> denoise (generic, adapted), all
    through cli_dispatch on files."""
    pp = importlib.import_module("patchprior")
    clean_pgm, generic = work / "clean.pgm", work / "generic.gmmp"
    noisy_pgm, adapted = work / "noisy.pgm", work / "adapted.gmmp"
    for stale in (noisy_pgm, adapted):
        stale.unlink(missing_ok=True)
    clean = reference.read_p5(clean_pgm)
    sigma = str(CHAIN_SIGMA)
    seed = str(int(rng.integers(2 ** 31)))
    if run.cli(["noise", str(clean_pgm), "--sigma", sigma, "--seed", seed,
                "--out", str(noisy_pgm)]) is None:
        return
    noisy = reference.read_p5(noisy_pgm)
    spread = float((noisy - clean).std())
    run.check(abs(spread - CHAIN_SIGMA) < 0.1 * CHAIN_SIGMA,
              f"noise command gave residual std {spread:.3f}, expected {CHAIN_SIGMA}")

    seconds = run.cli(["adapt", str(generic), str(noisy_pgm), "--out", str(adapted),
                       "--sigma-tilde", "sure", "--sigma", sigma])
    if seconds is None:
        return
    run.samples["cli_adapt_s"].append(seconds)
    try:
        with run.unmeasured():
            model = pp.load_model(adapted)
    except pp.ModelFileError as exc:
        run.check(False, f"adapted model does not load: {exc}")
        return
    run.check_model("cli adapted model", model.weights, model.means, model.covariances)
    manifest = dict(line.split(" = ", 1) for line in
                    (work / "adapted.gmmp.manifest").read_text().splitlines())
    run.samples["sure_sigma_tilde_sq"].append(float(manifest["sigma_tilde_sq"]))

    outputs = {}
    for label, model_path in (("generic", generic), ("adapted", adapted)):
        out_pgm = work / f"out_{label}.pgm"
        out_pgm.unlink(missing_ok=True)
        seconds = run.cli(["denoise", str(noisy_pgm), "--sigma", sigma,
                           "--model", str(model_path), "--out", str(out_pgm)])
        if seconds is None:
            continue
        run.samples["cli_denoise_s"].append(seconds)
        outputs[label] = reference.read_p5(out_pgm)
        run.check(reference.psnr_db(clean, outputs[label])
                  >= reference.psnr_db(clean, noisy) + MIN_GAIN_DB,
                  f"denoise command ({label}) gained less than {MIN_GAIN_DB} dB")
    if len(outputs) == 2:
        generic_db = reference.psnr_db(clean, outputs["generic"])
        adapted_db = reference.psnr_db(clean, outputs["adapted"])
        run.samples["chain_psnr_db"].append(adapted_db)
        run.samples["generic_true_mse"].append(float(((outputs["generic"] - clean) ** 2).mean()))
        run.check(adapted_db >= generic_db - CHAIN_SLACK_DB,
                  f"adapted prior {adapted_db:.3f} dB trails generic {generic_db:.3f} dB")


def prepare_sure_chain(run, inputs, work):
    """Write the clean scene and the generic model for the CLI to read."""
    pp = importlib.import_module("patchprior")
    pp.write_pgm(pp.ImageBuffer(inputs["scenes"]["chain"]), work / "clean.pgm")
    pp.save_model(inputs["prior"], work / "generic.gmmp")
    try:
        pp.load_model(work / "generic.gmmp")
    except pp.ModelFileError as exc:
        run.check(False, f"generic model does not load: {exc}")


ROUNDS = {"denoise": denoise_round, "fit": fit_round, "sure-chain": sure_chain_round}


# -- measurement ---------------------------------------------------------

def run_rounds(run, workload, inputs, seed, work, seconds=None, count=None):
    """Whole rounds until ``seconds`` have passed, or exactly ``count``.

    Inputs come from ``seed`` alone, so two calls with the same seed see
    the same inputs.  Returns the seconds each round spent inside program
    calls; the benchmark's own checks are not counted.
    """
    rng = np.random.default_rng([seed, 1])
    rounds = []
    start = time.perf_counter()
    while (len(rounds) < count if count is not None
           else not rounds or time.perf_counter() - start < seconds):
        before = run.op_seconds
        ROUNDS[workload](run, inputs, rng, work)
        rounds.append(run.op_seconds - before)
    return rounds


# -- machine speed -------------------------------------------------------
#
# On a shared host the speed of identical single-threaded work drifts by up
# to 1.8x over tens of minutes, in CPU time as much as in wall time, and no
# length of run averages that away.  A fixed numpy kernel, timed before every
# operation, tracks the drift: it does the shape of work of the program's hot
# path (scoring 64-dimensional rows against K triangular factors, then a
# log-sum-exp and an argmin), but in the benchmark's own code, so no change
# to the program moves it.

_KERNEL_RNG = np.random.default_rng(12345)
_KERNEL_X = _KERNEL_RNG.normal(size=(4096, 64))
_KERNEL_L = np.tril(_KERNEL_RNG.normal(size=(K, 64, 64))) + 8.0 * np.eye(64)


def machine_kernel_s():
    """Seconds of one pass of the fixed kernel."""
    start = time.perf_counter()
    q = np.stack([((_KERNEL_X @ f.T) ** 2).sum(axis=1) for f in _KERNEL_L], axis=1)
    low = q.min(axis=1, keepdims=True)
    np.log(np.exp(low - q).sum(axis=1))
    q.argmin(axis=1)
    return time.perf_counter() - start


def environment_stamp():
    return {"git_sha": _git_sha(), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__,
            "threads": {v: os.environ.get(v) for v in
                        ("PATCHPRIOR_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                         "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}}


def _git_sha():
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none (not a git checkout)"


# Figures named in the README, from the untraced rounds: time medians,
# quality means.
_DETAIL_TIMES = ("denoise_s", "train_iter_s", "adapt_s", "cli_adapt_s", "cli_denoise_s")
_DETAIL_MEANS = ("denoise_psnr_db", "chain_psnr_db", "sure_sigma_tilde_sq", "generic_true_mse")


def _detail(samples):
    out = {k: statistics.median(samples[k]) for k in _DETAIL_TIMES if samples.get(k)}
    out.update({k: statistics.fmean(samples[k]) for k in _DETAIL_MEANS if samples.get(k)})
    return out


def measure(workload, seed, seconds, trace, work, log):
    """One benchmark run; returns the result object for the last line."""
    run = Run(log)
    inputs, setup_wall = set_up(run)
    if inputs is None:
        sys.exit("perfbench: set-up failed, nothing to measure")
    figures = check_references(run, inputs, np.random.default_rng([seed, 0]))
    if workload == "sure-chain":
        prepare_sure_chain(run, inputs, work)
    wall = run_rounds(run, workload, inputs, seed, work, seconds=seconds)
    speed = run.speed_factor()
    untraced, run.samples = run.samples, defaultdict(list)
    # Times in this line are wall times, not scaled by speed_factor.
    detail = {"workload": workload, "seed": seed, "rounds": len(wall),
              "speed_factor": speed, "kernel_median_s": KERNEL_REF_S / speed,
              "setup_s": setup_wall, "round_s": wall, **_detail(untraced), **figures}
    if workload == "sure-chain":
        # SURE's estimate of the prefilter's MSE beside the true MSE of the
        # same generic-prior denoise, as written to file.  Not gated.
        detail["sure_vs_true_mse"] = list(zip(untraced["sure_sigma_tilde_sq"],
                                              untraced["generic_true_mse"]))
    print(json.dumps({"detail": detail}), flush=True)

    if not trace:
        metrics = {"setup_s": statistics.median(setup_wall) * speed,
                   "round_s": statistics.median(wall) * speed,
                   "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        units = END_TO_END
    else:
        since = len(run.kernel_s)
        tracer = Tracer()
        tracer.install()
        run.unmeasured = tracer.paused
        try:
            traced_wall = run_rounds(run, workload, inputs, seed, work, count=len(wall))
        finally:
            tracer.uninstall()
            run.unmeasured = contextlib.nullcontext
        traced = _detail(run.samples)
        # round_s at the reference speed; the detail times are wall times.
        overhead = {"round_s": statistics.median(traced_wall) * run.speed_factor(since)
                    - statistics.median(wall) * speed}
        overhead.update({k: traced[k] - v for k, v in _detail(untraced).items()
                         if k in _DETAIL_TIMES and k in traced})
        print(json.dumps({"tracing_overhead_s": overhead}), flush=True)
        metrics = tracer.metrics()
        units = LAYER_METRICS
        tracer.write(WORK / f"trace-{workload}-seed{seed}.json",
                     {"workload": workload, "seed": seed, "rounds": len(wall),
                      "tracing_overhead_s": overhead, "environment": environment_stamp()})
    return {"correct": not run.problems, "attempted": run.attempted, "failed": run.failed,
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure whole rounds until this many seconds have passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced replay")
    args = parser.parse_args(argv)
    _import_program()
    print(json.dumps({"environment": environment_stamp()}), flush=True)
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK, prefix=f"{args.workload}-"))
    try:
        result = measure(args.workload, args.seed, args.seconds, args.trace, work,
                         log=lambda msg: print(msg, file=sys.stderr, flush=True))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
