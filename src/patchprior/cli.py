"""Command-line entry points for the patch-prior toolbox.

Every run that succeeds writes one manifest next to its primary output,
or else its first input: flat ``key = value`` lines holding the command,
the library version, every parsed flag and argument merged with what the
run computed, the BLAS thread settings, and per-phase wall-clock timings,
so results can be traced back to exactly what produced them.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import _THREAD_VARIABLES, __version__
from .adapt import AdaptationConfig, adapt
from .denoise import _STAGE_MULTIPLIERS, HqsSchedule, _hqs, denoise
from .em import EmConfig, em_fit
from .ioutil import atomic_write_bytes
from .model_io import load_model, save_model
from .patches import _patch_side, add_gaussian_noise, extract_patches, psnr
from .pgm import read_pgm, write_pgm
from .sure import SureConfig, estimate_sigma_tilde_sq
from .timing import LapTimer
from .toy import run_trial

__all__ = ["cli_dispatch", "main"]

log = logging.getLogger(__name__)

_USAGE_EXIT = 2
_FAILURE_EXIT = 1


class UsageError(ValueError):
    """Inconsistent flag combinations detected after parsing."""


def _write_manifest(args, results: dict, seconds: dict, stem) -> None:
    """Write the run record ``<stem>.manifest``.  Its parameters are every
    parsed flag of ``args``, with ``results`` merged in, and the BLAS thread
    settings, which change a model's last bits: each variable as set in the
    environment, or ``unset``."""
    params = {k: v for k, v in {**vars(args), **results}.items()
              if k not in ("command", "func")}
    params.update((var, os.environ.get(var) or "unset")
                  for var in ("PATCHPRIOR_THREADS", *_THREAD_VARIABLES))
    lines = [f"command = {args.command}", f"version = {__version__}"]
    lines += [f"{key} = {params[key]}" for key in sorted(params)]
    lines += [f"time_{key}_seconds = {seconds[key]:.6f}" for key in sorted(seconds)]
    atomic_write_bytes(f"{stem}.manifest", ("\n".join(lines) + "\n").encode("ascii"))


def _comma_list(values, spec: str) -> str:
    return ",".join(format(v, spec) for v in values)


def _checked(text: str, parse, ok, expected: str):
    """``parse(text)`` if it parses and ``ok`` accepts it, else an argparse error."""
    try:
        value = parse(text)
        if ok(value):
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")


def _finite_float(text: str) -> float:
    """argparse type: a float that is neither NaN nor infinite."""
    return _checked(text, float, np.isfinite, "a finite number")


def _sigma_tilde(text: str):
    """argparse type: 'sure', or a nonnegative number with a finite square."""
    return text if text == "sure" else _checked(
        text, float, lambda v: 0 <= v and v * v < np.inf,
        "'sure' or a nonnegative number with a finite square")


def _positive_int(text: str) -> int:
    """argparse type: an integer of at least 1."""
    return _checked(text, int, lambda v: v >= 1, "a positive integer")


def _betas(text: str) -> tuple:
    """argparse type: a comma list of positive, finite numbers, not empty."""
    return _checked(text, lambda t: tuple(float(tok) for tok in t.split(",") if tok.strip()),
                    lambda m: m and all(0 < v < np.inf for v in m),
                    "a comma list of positive, finite numbers")


def _mode_records(result, prefix="") -> dict:
    """Manifest entries of a ``DenoiseResult``: ``<prefix>mode_histogram_<stage>``,
    per HQS stage the comma list of how many patches each component was the
    mode of, and ``<prefix>mode_paths``, the comma list of the stages'
    selection paths."""
    return {f"{prefix}mode_paths": ",".join(result.mode_paths),
            **{f"{prefix}mode_histogram_{stage}": _comma_list(counts, "d")
               for stage, counts in enumerate(result.mode_histograms, start=1)}}


def _prefilter_and_sure(args, noisy, prior, laps):
    """Prefilter ``noisy`` by HQS, estimate its residual variance by SURE with
    the prefilter as baseline, and return both with the prefilter's mode
    histograms and paths and, per stage, the rows that the probes scored
    (``probe_rescored``) as manifest entries.  Each probe runs from the
    prefilter's stage record, scoring only the patches whose mode the
    probe might change.  The probe stream is spawned off ``args.seed``, so
    it is not the noise that ``noise --seed`` draws."""
    record = []
    prefilter, _ = _hqs(noisy, args.sigma, prior, record=record)
    laps.lap("prefilter")
    laps.seconds.update({f"prefilter_{k}": v for k, v in prefilter.seconds.items()})
    probe_seconds, rescored = {}, np.zeros(len(record), dtype=np.int64)

    def probe(image):
        result, rows = _hqs(image, args.sigma, prior, probe_of=record)
        for layer, seconds in result.seconds.items():
            probe_seconds[layer] = probe_seconds.get(layer, 0.0) + seconds
        rescored[:] += rows
        return result.image

    estimate = estimate_sigma_tilde_sq(
        noisy, args.sigma, probe,
        SureConfig(seed=np.random.SeedSequence(args.seed).spawn(1)[0], probes=args.probes),
        baseline=prefilter.image)
    laps.lap("sure")
    laps.seconds.update({f"probe_{k}": v for k, v in probe_seconds.items()})
    return estimate, prefilter.image, {**_mode_records(prefilter, "prefilter_"),
                                       "probe_rescored": _comma_list(rescored, "d")}


def _cmd_train(args, laps):
    corpus = Path(args.corpus)
    if not corpus.is_dir():
        raise UsageError(f"corpus {corpus} is not a directory")
    paths = sorted(corpus.glob("*.pgm"))
    if not paths:
        raise ValueError(f"no .pgm files in {corpus}")
    blocks = [extract_patches(read_pgm(p), args.patch_size, args.stride) for p in paths]
    data = np.concatenate(blocks, axis=0)
    laps.lap("extract")
    config = EmConfig(n_components=args.k, max_iters=args.max_iters, tol=args.tol,
                      seed=args.seed)
    model, trace = em_fit(data, config)
    laps.lap("fit")
    save_model(model, args.out)
    log.info("trained %d components on %d patches, %d iterations",
             args.k, data.shape[0], len(trace))
    return {
        "images": len(paths), "patches": data.shape[0], "iterations_run": len(trace),
        "logliks": _comma_list(trace, ".6f"),
    }, args.out


def _cmd_adapt(args, laps):
    if args.sigma_tilde == "sure":
        if args.sigma is None:
            raise UsageError("--sigma-tilde sure requires --sigma")
        args.seed = SureConfig.seed if args.seed is None else args.seed
        args.probes = SureConfig.probes if args.probes is None else args.probes
    else:
        given = [f"--{name}" for name in ("sigma", "seed", "probes")
                 if getattr(args, name) is not None]
        if given:
            raise UsageError(f"{' and '.join(given)} can be used only with --sigma-tilde sure")
    config = AdaptationConfig(rho=args.rho, iterations=args.iters)
    generic = load_model(args.model)
    side = _patch_side(generic.dim)
    image = read_pgm(args.image)
    laps.lap("read")
    if args.sigma_tilde == "sure":
        sigma_tilde_sq, target, results = _prefilter_and_sure(args, image, generic, laps)
    else:
        sigma_tilde_sq, target, results = args.sigma_tilde ** 2, image, {}
    patches = extract_patches(target, side, args.stride)
    config = dataclasses.replace(config, sigma_tilde_sq=sigma_tilde_sq)
    adapted, report = adapt(generic, patches, config)
    laps.lap("adapt")
    laps.seconds.update(report.seconds)
    save_model(adapted, args.out)
    return {
        **results,
        "sigma_tilde_sq": sigma_tilde_sq, "objectives": _comma_list(report.objectives, ".6f"),
        "logliks": _comma_list(report.logliks, ".6f"),
        "log_priors": _comma_list(report.log_priors, ".6f"),
        "alphas": _comma_list(report.alphas, ".6f"),
        "counts": _comma_list(report.counts, ".3f"),
    }, args.out


def _cmd_denoise(args, laps):
    schedule = HqsSchedule.default(args.sigma, args.betas)
    prior = load_model(args.model)
    noisy = read_pgm(args.input)
    reference = read_pgm(args.ref) if args.ref else None
    laps.lap("read")
    result = denoise(noisy, args.sigma, prior, schedule, reference=reference)
    laps.lap("denoise")
    laps.seconds.update(result.seconds)
    write_pgm(result.image, args.out)
    results = {"betas": _comma_list(schedule.betas, ".8g"),
               "mode_inflations": _comma_list(schedule.mode_inflations, ".8g"),
               **_mode_records(result)}
    if reference is not None:
        print("stage,beta,psnr")
        for i, (beta, value) in enumerate(zip(schedule.betas, result.psnr_trace), start=1):
            print(f"{i},{beta:.8g},{value:.4f}")
        results["psnr_trace"] = _comma_list(result.psnr_trace, ".4f")
    return results, args.out


def _cmd_sure(args, laps):
    prior = load_model(args.model)
    noisy = read_pgm(args.input)
    laps.lap("read")
    estimate, _, records = _prefilter_and_sure(args, noisy, prior, laps)
    print(f"sigma_tilde_sq {estimate:.6f}")
    print(f"ratio {np.sqrt(estimate) / args.sigma:.6f}")
    return {"sigma_tilde_sq": estimate, **records}, f"{args.input}.sure"


def _cmd_noise(args, laps):
    image = read_pgm(args.input)
    laps.lap("read")
    noisy = add_gaussian_noise(image, args.sigma, args.seed)
    laps.lap("noise")
    write_pgm(noisy, args.out)
    return {}, args.out


def _cmd_psnr(args, laps):
    value = psnr(read_pgm(args.reference), read_pgm(args.test))
    laps.lap("psnr")
    print(f"{value:.4f}")
    return {"psnr": f"{value:.4f}"}, f"{args.reference}.psnr"


def _cmd_toy(args, laps):
    trial = run_trial(args.seed, rho=args.rho)
    laps.lap("trial")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    points_path = out_dir / "toy_points.csv"
    lines = ["set,x,y"]
    for name, points in (("generic", trial.generic_points), ("target", trial.target_points)):
        lines += (f"{name},{x:.6f},{y:.6f}" for x, y in points)
    atomic_write_bytes(points_path, ("\n".join(lines) + "\n").encode("ascii"))
    models_path = out_dir / "toy_models.csv"
    lines = ["model,component,weight,mean_x,mean_y,cov_xx,cov_xy,cov_yy"]
    for name, model in (("generic", trial.generic_model),
                        ("scratch", trial.scratch_model),
                        ("adapted", trial.adapted_model)):
        for k in range(model.n_components):
            mu = model.means[k]
            cov = model.covariances[k]
            lines.append(f"{name},{k},{model.weights[k]:.6f},{mu[0]:.6f},{mu[1]:.6f},"
                         f"{cov[0, 0]:.6f},{cov[0, 1]:.6f},{cov[1, 1]:.6f}")
    atomic_write_bytes(models_path, ("\n".join(lines) + "\n").encode("ascii"))
    print(f"scratch_error {trial.scratch_error:.6f}")
    print(f"adapted_error {trial.adapted_error:.6f}")
    return {"points": str(points_path), "models": str(models_path)}, points_path


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="patchprior",
        description="Patch-based denoising with adaptable Gaussian mixture priors.")
    sub = parser.add_subparsers(dest="command", required=True)
    probe_seed = "seed of the SURE probe"

    p = sub.add_parser("train", help="fit a generic prior to a corpus of PGM images")
    p.add_argument("corpus", help="directory of .pgm files")
    p.add_argument("--out", required=True, help="output model file")
    p.add_argument("--k", type=_positive_int, default=20, help="number of mixture components")
    p.add_argument("--patch-size", type=_positive_int, default=8)
    p.add_argument("--stride", type=_positive_int, default=1)
    p.add_argument("--seed", type=int, default=EmConfig.seed)
    p.add_argument("--max-iters", type=_positive_int, default=EmConfig.max_iters)
    p.add_argument("--tol", type=_finite_float, default=EmConfig.tol)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("adapt", help="adapt a generic prior to one image")
    p.add_argument("model", help="generic model file")
    p.add_argument("image", help="adaptation image; the noisy image when "
                                 "--sigma-tilde is 'sure'")
    p.add_argument("--out", required=True, help="output model file")
    p.add_argument("--rho", type=_finite_float, default=AdaptationConfig.rho,
                   help="relevance factor")
    p.add_argument("--sigma-tilde", type=_sigma_tilde, default="0",
                   help="residual noise scale of the adaptation image, or 'sure' "
                        "to pre-filter the image and estimate it")
    p.add_argument("--sigma", type=_finite_float, default=None,
                   help="observation noise scale; only and always with --sigma-tilde sure")
    p.add_argument("--iters", type=_positive_int, default=AdaptationConfig.iterations)
    p.add_argument("--stride", type=_positive_int, default=1)
    p.add_argument("--seed", type=int,
                   help=f"{probe_seed}, only with --sigma-tilde sure (default {SureConfig.seed})")
    p.add_argument("--probes", type=_positive_int,
                   help=f"only with --sigma-tilde sure (default {SureConfig.probes})")
    p.set_defaults(func=_cmd_adapt)

    p = sub.add_parser("denoise", help="restore a noisy image")
    p.add_argument("input", help="noisy .pgm image")
    p.add_argument("--sigma", type=_finite_float, required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--betas", type=_betas, default=_STAGE_MULTIPLIERS,
                   help="comma list of beta multipliers of 1/sigma^2 "
                        f"(default {_comma_list(_STAGE_MULTIPLIERS, 'g')})")
    p.add_argument("--ref", default=None,
                   help="clean reference image; print the per-stage stage,beta,psnr CSV")
    p.set_defaults(func=_cmd_denoise)

    p = sub.add_parser("sure", help="estimate residual noise variance of the "
                                    "built-in denoiser on a noisy image")
    p.add_argument("input")
    p.add_argument("--sigma", type=_finite_float, required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--seed", type=int, default=SureConfig.seed, help=probe_seed)
    p.add_argument("--probes", type=_positive_int, default=SureConfig.probes)
    p.set_defaults(func=_cmd_sure)

    p = sub.add_parser("noise", help="add seeded Gaussian noise to an image")
    p.add_argument("input")
    p.add_argument("--sigma", type=_finite_float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_noise)

    p = sub.add_parser("psnr", help="print the PSNR between two images")
    p.add_argument("reference")
    p.add_argument("test")
    p.set_defaults(func=_cmd_psnr)

    p = sub.add_parser("toy", help="run the two-component 2-D adaptation demo")
    p.add_argument("--out-dir", default=".")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rho", type=_finite_float, default=1.0)
    p.set_defaults(func=_cmd_toy)

    return parser


def cli_dispatch(argv) -> int:
    """Parse argv, run one subcommand and, if it succeeds, write its manifest.

    Returns 0 on success, 2 on usage errors, 1 on runtime failures.
    """
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exit_:  # argparse prints its own message
        return int(exit_.code or 0)
    laps = LapTimer()
    try:
        results, stem = args.func(args, laps)
        _write_manifest(args, results, laps.seconds, stem)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return _USAGE_EXIT
    except (OSError, ValueError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _FAILURE_EXIT
    return 0


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
