"""Print one SHA-256 per output group of patchprior, for bit-identity checks.

    python tests/output_hashes.py

Run it in two checkouts and compare the lines: a change that is meant to
keep every output bit-identical prints the same hashes as its parent.  The
inputs are the benchmark's synthetic ones (no downloads), at one BLAS
thread, because the scoring and moment GEMMs change their last bits with
the thread count.  The groups are ``em_fit`` on the 18,605-patch corpus;
``adapt`` at sigma_tilde_sq 0 and 100, split into the ``model`` (its
parts, ``alphas`` and ``counts``) and the ``report`` (``logliks`` and
``log_priors``), so a change to what the report holds keeps the model
lines; ``objective``, ``log_posterior_objective`` of the generic and both
adapted models on the patches of each adaptation image at its
sigma_tilde_sq; ``scores inflated``, ``component_log_densities`` of the
generic prior and of the fixed prior below at inflation 100 on the
stride-1 patches of a noisy scene, where the generic prior folds most
components and the fixed one none; ``scores partly folded``, the same
scores of the partly folded prior below, which folds three components
beside 17 plain ones; the same ``em_fit`` and ``adapt`` groups on those
patches, which repeat no row, so that the ``distinct`` lines keep their
hashes through a change to how repeated rows are handled;
``denoise`` pixels and mode histograms under the generic and the adapted
prior, under a fixed prior that no EM or adaptation code builds (so a
change to those alone must keep its lines) and under the partly folded
prior, three of whose components fold at every stage, which leaves its
layout too wide to select through, so that every stage plans the float32
screen and builds the unfolded layout alone; ``wiener``, the Wiener step
of every generic component through the ``_wiener_maps`` of each of the
five betas of the sigma-20 default schedule, on fixed patches of that
scene, so that a change to that step alone shows apart from mode
selection, which the ``denoise histograms`` lines follow;
``condition_psd`` on fixed stacks; the files of the CLI chain
``noise`` -> ``adapt --sigma-tilde sure`` -> ``denoise``; and ``sure``,
the ``repr`` of the residual variance that the CLI's prefilter-and-SURE
helper estimates with the generic prior at 2 probes on the sigma-20 smoke
scene, so that a change to how its probes run shows apart from the
chain.  pytest does not collect this file.
"""

import argparse
import os
import sys
import tempfile
from pathlib import Path

# BLAS reads its thread count when numpy is first imported.
for _var in ("PATCHPRIOR_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
             "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import hashlib  # noqa: E402

import numpy as np  # noqa: E402

import patchprior as pp  # noqa: E402
import synthimages  # noqa: E402
from patchprior.cli import _prefilter_and_sure, cli_dispatch  # noqa: E402
from patchprior.denoise import _wiener_maps  # noqa: E402
from patchprior.gmm import PSD_FLOOR, _mode_plan  # noqa: E402
from patchprior.timing import LapTimer  # noqa: E402

# The adapt manifest's result lines; the others are paths, flags and timings.
_MANIFEST_RESULTS = ("sigma_tilde_sq", "objectives", "logliks", "log_priors", "alphas",
                     "counts")


def digest(*parts) -> str:
    """SHA-256 over arrays (dtype, shape and bytes) and byte strings."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, bytes):
            h.update(part)
            continue
        a = np.ascontiguousarray(part)
        h.update(f"{a.dtype} {a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def model_parts(gmm):
    return gmm.weights, gmm.means, gmm.covariances, gmm.eigenvalues, gmm.eigenvectors


def denoise_lines(label, noisy, prior):
    result = pp.denoise(noisy, 20.0, prior)
    return [(f"denoise pixels {label}", digest(result.image.pixels)),
            (f"denoise histograms {label}", digest(*result.mode_histograms))]


def adapt_lines(lines, label, generic, image, sigma_tilde_sq):
    """Append the model and report lines of a 2-iteration ``adapt`` to the
    stride-1 patches of ``image``; returns the adapted model."""
    config = pp.AdaptationConfig(sigma_tilde_sq=sigma_tilde_sq, iterations=2)
    model, report = pp.adapt(generic, pp.extract_patches(image, 8), config)
    label = f"adapt{label} sigma_tilde_sq {sigma_tilde_sq:g}"
    lines += [(f"{label} model", digest(*model_parts(model), report.alphas, report.counts)),
              (f"{label} report", digest(np.array(report.logliks),
                                         np.array(report.log_priors)))]
    return model


def fixed_prior(corpus, k=20):
    """A mixture from plain sample moments: the corpus patches sorted by
    their mean and cut into k equal bands, each band's covariance plus one
    grey level squared on the diagonal."""
    bands = np.array_split(corpus[np.argsort(corpus.mean(axis=1), kind="stable")], k)
    covs = np.stack([np.cov(b, rowvar=False) for b in bands])
    covs = 0.5 * (covs + np.swapaxes(covs, 1, 2)) + np.eye(corpus.shape[1])
    return pp.Gmm(np.array([len(b) for b in bands]) / len(corpus),
                  np.stack([b.mean(axis=0) for b in bands]), covs)


def partly_folded(fixed, inflations):
    """The fixed prior with the lowest 48 eigenvalues of components 0-2 set
    to ``PSD_FLOOR``, rebuilt through ``Gmm()``.  At every inflation above
    0 those three fold, since at least a quarter of their axes share their
    smallest eigenvalue exactly, and the other 17 stay plain; so at each
    of ``inflations`` the layout folds and ``select_modes`` screens."""
    lam = fixed.eigenvalues.copy()
    lam[:3, :48] = PSD_FLOOR
    covs = (fixed.eigenvectors * lam[:, None, :]) @ np.swapaxes(fixed.eigenvectors, 1, 2)
    prior = pp.Gmm(fixed.weights, fixed.means, 0.5 * (covs + np.swapaxes(covs, 1, 2)))
    smallest = np.count_nonzero(prior.eigenvalues == prior.eigenvalues[:, :1], axis=1)
    if not ((smallest[:3] == 48).all() and (smallest[3:] == 1).all()
            and (prior.eigenvalues[:3, 0] == PSD_FLOOR).all()):
        raise SystemExit("output_hashes: the partly folded prior does not fold 3 components")
    if any(_mode_plan(prior, s)[0] != "screen" for s in inflations):
        raise SystemExit("output_hashes: the partly folded prior does not take the screen")
    return prior


def chain_lines(generic, work: Path):
    pp.write_pgm(synthimages.make_smoke_image(96), work / "clean.pgm")
    pp.save_model(generic, work / "generic.gmmp")
    clean, noisy = str(work / "clean.pgm"), str(work / "noisy.pgm")
    generic_path, adapted_path = str(work / "generic.gmmp"), str(work / "adapted.gmmp")
    commands = [
        ["noise", clean, "--sigma", "20", "--seed", "7", "--out", noisy],
        ["adapt", generic_path, noisy, "--out", adapted_path,
         "--sigma-tilde", "sure", "--sigma", "20"],
        ["denoise", noisy, "--sigma", "20", "--model", generic_path,
         "--out", str(work / "generic.pgm")],
        ["denoise", noisy, "--sigma", "20", "--model", adapted_path,
         "--out", str(work / "adapted.pgm")],
    ]
    for argv in commands:
        if cli_dispatch(argv) != 0:
            raise SystemExit(f"output_hashes: {' '.join(argv)} failed")
    manifest = [line for line in (work / "adapted.gmmp.manifest").read_text().splitlines()
                if line.split(" = ", 1)[0] in _MANIFEST_RESULTS]
    files = [(work / name).read_bytes()
             for name in ("noisy.pgm", "adapted.gmmp", "generic.pgm", "adapted.pgm")]
    return [("cli chain", digest("\n".join(manifest).encode(), *files))]


def main() -> None:
    corpus = synthimages.corpus_patches(128, 8, 2)
    generic, trace = pp.em_fit(corpus, pp.EmConfig(n_components=20, max_iters=5, seed=0))
    lines = [("em_fit", digest(*model_parts(generic), np.array(trace)))]

    clean = synthimages.make_piecewise_image(128)
    noisy_smoke = pp.add_gaussian_noise(synthimages.make_smoke_image(128), 10.0, seed=1)
    adapted = {}
    images = {0.0: clean, 100.0: noisy_smoke}
    for sigma_tilde_sq, image in images.items():
        adapted[sigma_tilde_sq] = adapt_lines(lines, "", generic, image, sigma_tilde_sq)
    rho = pp.AdaptationConfig().rho
    lines.append(("objective", digest(np.array([
        pp.log_posterior_objective(model, pp.extract_patches(image, 8), generic, rho,
                                   sigma_tilde_sq)
        for sigma_tilde_sq, image in images.items()
        for model in (generic, *adapted.values())]))))

    distinct = pp.extract_patches(noisy_smoke, 8)
    fixed = fixed_prior(corpus)
    lines.append(("scores inflated", digest(*(pp.component_log_densities(model, distinct, 100.0)
                                              for model in (generic, fixed)))))
    stages = pp.HqsSchedule.default(20.0)
    partly = partly_folded(fixed, (100.0, *stages.mode_inflations))
    lines.append(("scores partly folded",
                  digest(pp.component_log_densities(partly, distinct, 100.0))))
    own, trace = pp.em_fit(distinct, pp.EmConfig(n_components=20, max_iters=5, seed=0))
    lines.append(("em_fit distinct", digest(*model_parts(own), np.array(trace))))
    for sigma_tilde_sq in (0.0, 100.0):
        adapt_lines(lines, " distinct", own, noisy_smoke, sigma_tilde_sq)

    noisy = pp.add_gaussian_noise(synthimages.make_smoke_image(128), 20.0, seed=2)
    lines += denoise_lines("generic", noisy, generic)
    lines += denoise_lines("adapted", noisy, adapted[0.0])
    lines += denoise_lines("fixed", noisy, fixed)
    lines += denoise_lines("partly folded", noisy, partly)
    estimate = _prefilter_and_sure(argparse.Namespace(sigma=20.0, seed=0, probes=2), noisy,
                                   generic, LapTimer())[0]
    lines.append(("sure", repr(estimate)))
    rows = pp.extract_patches(noisy, 8)[::16]
    maps = [_wiener_maps(generic, beta) for beta in stages.betas]
    lines.append(("wiener", digest(*(rows @ shrink[j] + offsets[j]
                                     for shrink, offsets in maps
                                     for j in range(generic.n_components)))))

    a = np.random.default_rng(0).standard_normal((6, 5, 5))
    stack = a @ np.swapaxes(a, 1, 2)
    stack[::2] -= 2.0 * np.eye(5)
    # about half of the fixed prior's 1,280 eigenvalues lie below 2
    lines.append(("condition_psd", digest(pp.condition_psd(stack, 1e-3),
                                          pp.condition_psd(stack[0], 1e-3),
                                          pp.condition_psd(fixed.covariances, 2.0))))

    with tempfile.TemporaryDirectory() as work:
        lines += chain_lines(generic, Path(work))
    for label, value in lines:
        print(f"{value}  {label}")


if __name__ == "__main__":
    main()
