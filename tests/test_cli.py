"""Command-line surface: exit codes, outputs, manifests, determinism."""

import argparse
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from patchprior import ImageBuffer, SureConfig, load_model, read_pgm, save_model, write_pgm
import patchprior.cli as cli_module
from patchprior.cli import cli_dispatch
from patchprior.toy import GENERIC_TRUTH

from synthimages import make_piecewise_image, make_smoke_image
from test_denoise import check_baseline
from test_patches import PGM_BOMB


def read_manifest(path):
    out = {}
    for line in Path(path).read_text().splitlines():
        key, _, value = line.partition(" = ")
        out[key] = value
    return out


def manifest_params(path):
    return {k: v for k, v in read_manifest(path).items()
            if not k.startswith("time_")}


def manifest_seconds(path, names):
    """The ``time_<name>_seconds`` lines of a manifest, each nonnegative."""
    manifest = read_manifest(path)
    seconds = {name: float(manifest[f"time_{name}_seconds"]) for name in names}
    assert all(value >= 0.0 for value in seconds.values()), seconds
    return seconds


# Manifests print seconds to 6 decimals: each value may be off by 5e-7.
_PRINTED = 5e-7


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Corpus directory, clean/noisy smoke images, and a small trained model."""
    root = tmp_path_factory.mktemp("cliws")
    corpus = root / "corpus"
    corpus.mkdir()
    rng = np.random.default_rng(0)
    for i in range(3):
        img = make_piecewise_image(48)
        jitter = ImageBuffer(np.clip(img.pixels + rng.normal(0, 6, img.pixels.shape),
                                     0, 255))
        write_pgm(jitter, corpus / f"img{i}.pgm")
    clean = make_smoke_image(96)
    write_pgm(clean, root / "clean.pgm")
    model = root / "generic.gmmp"
    rc = cli_dispatch(["train", str(corpus), "--out", str(model), "--k", "4",
                       "--patch-size", "6", "--stride", "2", "--seed", "0",
                       "--max-iters", "10", "--tol", "1e-4"])
    assert rc == 0
    return root


class TestPsnr:
    def test_identical_images_sentinel(self, workspace, capsys):
        rc = cli_dispatch(["psnr", str(workspace / "clean.pgm"),
                           str(workspace / "clean.pgm")])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "99.0000"
        manifest = manifest_params(workspace / "clean.pgm.psnr.manifest")
        assert manifest["psnr"] == "99.0000"

    def test_known_difference(self, workspace, tmp_path, capsys):
        a = ImageBuffer(np.zeros((10, 10)))
        b = ImageBuffer(np.ones((10, 10)))
        write_pgm(a, tmp_path / "a.pgm")
        write_pgm(b, tmp_path / "b.pgm")
        rc = cli_dispatch(["psnr", str(tmp_path / "a.pgm"), str(tmp_path / "b.pgm")])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "48.1308"

    def test_oversized_ascii_header_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bomb.pgm"
        path.write_bytes(PGM_BOMB)
        assert cli_dispatch(["psnr", str(path), str(path)]) == 1
        assert "raster is truncated" in capsys.readouterr().err


class TestNoise:
    def test_sigma_zero_identity(self, workspace, tmp_path):
        out = tmp_path / "copy.pgm"
        rc = cli_dispatch(["noise", str(workspace / "clean.pgm"), "--sigma", "0",
                           "--seed", "7", "--out", str(out)])
        assert rc == 0
        assert out.read_bytes() == (workspace / "clean.pgm").read_bytes()

    def test_seeded_determinism(self, workspace, tmp_path):
        outs = []
        for name in ("n1.pgm", "n2.pgm"):
            out = tmp_path / name
            rc = cli_dispatch(["noise", str(workspace / "clean.pgm"),
                               "--sigma", "20", "--seed", "3", "--out", str(out)])
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_manifest_records_parameters(self, workspace, tmp_path):
        out = tmp_path / "n.pgm"
        cli_dispatch(["noise", str(workspace / "clean.pgm"), "--sigma", "15",
                      "--seed", "9", "--out", str(out)])
        manifest = read_manifest(str(out) + ".manifest")
        assert manifest["command"] == "noise"
        assert manifest["sigma"] == "15.0"
        assert manifest["seed"] == "9"
        assert any(k.startswith("time_") for k in manifest)


class TestTrain:
    def test_model_loads_and_matches_request(self, workspace):
        model = load_model(workspace / "generic.gmmp")
        assert model.n_components == 4
        assert model.dim == 36
        manifest = manifest_params(workspace / "generic.gmmp.manifest")
        assert manifest["k"] == "4"
        assert manifest["stride"] == "2"
        assert int(manifest["patches"]) > 1000

    def test_deterministic_across_runs(self, workspace, tmp_path):
        out = tmp_path / "again.gmmp"
        rc = cli_dispatch(["train", str(workspace / "corpus"), "--out", str(out),
                           "--k", "4", "--patch-size", "6", "--stride", "2",
                           "--seed", "0", "--max-iters", "10", "--tol", "1e-4"])
        assert rc == 0
        assert out.read_bytes() == (workspace / "generic.gmmp").read_bytes()

    def test_empty_corpus_fails(self, tmp_path):
        empty = tmp_path / "none"
        empty.mkdir()
        rc = cli_dispatch(["train", str(empty), "--out", str(tmp_path / "m.gmmp")])
        assert rc == 1


class TestAdapt:
    def test_known_sigma_tilde(self, workspace, tmp_path):
        out = tmp_path / "adapted.gmmp"
        rc = cli_dispatch(["adapt", str(workspace / "generic.gmmp"),
                           str(workspace / "clean.pgm"), "--out", str(out),
                           "--rho", "1", "--sigma-tilde", "0"])
        assert rc == 0
        adapted = load_model(out)
        assert adapted.n_components == 4
        assert not Path(str(out) + ".report.txt").exists()
        manifest = manifest_params(str(out) + ".manifest")
        assert manifest["sigma_tilde_sq"] == "0.0"
        assert len(manifest["objectives"].split(",")) == 1
        assert len(manifest["alphas"].split(",")) == 4
        seconds = manifest_seconds(str(out) + ".manifest",
                                   ["adapt", "estep", "stats", "mstep", "objective"])
        phases = sum(v for k, v in seconds.items() if k != "adapt")
        assert phases <= seconds["adapt"] + 5 * _PRINTED

    def test_sure_mode_runs_prefilter(self, workspace, tmp_path, monkeypatch):
        noisy = tmp_path / "noisy.pgm"
        cli_dispatch(["noise", str(workspace / "clean.pgm"), "--sigma", "20",
                      "--seed", "1", "--out", str(noisy)])
        out = tmp_path / "adapted.gmmp"
        runs = []
        real_hqs = cli_module._hqs

        def counted_hqs(*args, **kwargs):
            runs.append(args)
            return real_hqs(*args, **kwargs)
        monkeypatch.setattr(cli_module, "_hqs", counted_hqs)
        rc = cli_dispatch(["adapt", str(workspace / "generic.gmmp"), str(noisy),
                           "--out", str(out), "--sigma-tilde", "sure",
                           "--sigma", "20"])
        assert rc == 0
        manifest = read_manifest(str(out) + ".manifest")
        assert float(manifest["sigma_tilde_sq"]) > 0.0
        # the probe seed and count it used, defaults included
        assert (manifest["seed"], manifest["probes"]) == (str(SureConfig.seed),
                                                          str(SureConfig.probes))
        assert "time_prefilter_seconds" in manifest
        assert "time_sure_seconds" in manifest
        # the prefilter doubles as SURE's baseline: prefilter + one probe
        assert len(runs) == 2

    @pytest.mark.parametrize("bad", [["--rho", "nan"], ["--probes", "0"]])
    def test_bad_sure_mode_settings_fail_before_prefilter(self, workspace, tmp_path,
                                                          monkeypatch, bad):
        runs = []
        monkeypatch.setattr(cli_module, "_hqs", lambda *a, **k: runs.append(a))
        rc = cli_dispatch(["adapt", str(workspace / "generic.gmmp"),
                           str(workspace / "clean.pgm"), "--out", str(tmp_path / "x.gmmp"),
                           "--sigma-tilde", "sure", "--sigma", "20", *bad])
        # both are usage errors, caught while parsing the flags
        assert rc == 2
        assert runs == []

    def test_non_square_model_is_rejected_as_such(self, workspace, tmp_path, capsys):
        # the 2-D toy prior models no square patch; this used to surface as a
        # patch-dimension mismatch after extracting 1x1 patches
        model = tmp_path / "toy.gmmp"
        save_model(GENERIC_TRUTH, model)
        rc = cli_dispatch(["adapt", str(model), str(workspace / "clean.pgm"),
                           "--out", str(tmp_path / "x.gmmp"), "--sigma-tilde", "0"])
        assert rc == 1
        assert "square" in capsys.readouterr().err

    def test_sure_without_sigma_is_usage_error(self, workspace, tmp_path, monkeypatch):
        reads = []
        monkeypatch.setattr(cli_module, "read_pgm", lambda path: reads.append(path))
        monkeypatch.setattr(cli_module, "load_model", lambda path: reads.append(path))
        rc = cli_dispatch(["adapt", str(workspace / "generic.gmmp"),
                           str(workspace / "clean.pgm"),
                           "--out", str(tmp_path / "x.gmmp"),
                           "--sigma-tilde", "sure"])
        assert rc == 2
        assert reads == []

    @pytest.mark.parametrize("value", ["lots", "nan", "inf", "1e200", "-1"])
    def test_bad_sigma_tilde_value(self, workspace, tmp_path, capsys, monkeypatch, value):
        reads = []
        monkeypatch.setattr(cli_module, "read_pgm", lambda path: reads.append(path))
        monkeypatch.setattr(cli_module, "load_model", lambda path: reads.append(path))
        rc = cli_dispatch(["adapt", str(workspace / "generic.gmmp"),
                           str(workspace / "clean.pgm"),
                           "--out", str(tmp_path / "x.gmmp"),
                           f"--sigma-tilde={value}"])
        assert rc == 2
        assert "--sigma-tilde" in capsys.readouterr().err.strip().splitlines()[-1]
        assert reads == []


@pytest.fixture(scope="module")
def noisy(workspace):
    path = workspace / "noisy20.pgm"
    if not path.exists():
        cli_dispatch(["noise", str(workspace / "clean.pgm"), "--sigma", "20",
                      "--seed", "2", "--out", str(path)])
    return path


class TestDenoise:
    def test_improves_psnr_and_is_deterministic(self, workspace, noisy, tmp_path):
        outs = []
        for name in ("d1.pgm", "d2.pgm"):
            out = tmp_path / name
            rc = cli_dispatch(["denoise", str(noisy), "--sigma", "20",
                               "--model", str(workspace / "generic.gmmp"),
                               "--out", str(out)])
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        clean = read_pgm(workspace / "clean.pgm")
        before = read_pgm(noisy)
        after = read_pgm(tmp_path / "d1.pgm")
        mse_before = np.mean((clean.pixels - before.pixels) ** 2)
        mse_after = np.mean((clean.pixels - after.pixels) ** 2)
        assert mse_after < mse_before

    def test_trace_prints_stage_csv(self, workspace, noisy, tmp_path, capsys):
        out = tmp_path / "d.pgm"
        rc = cli_dispatch(["denoise", str(noisy), "--sigma", "20",
                           "--model", str(workspace / "generic.gmmp"),
                           "--out", str(out), "--ref", str(workspace / "clean.pgm")])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "stage,beta,psnr"
        assert len(lines) == 6
        assert lines[1].startswith("1,")
        manifest = manifest_params(str(out) + ".manifest")
        trace = manifest["psnr_trace"].split(",")
        assert len(trace) == len(manifest["betas"].split(",")) == 5
        assert trace == [line.split(",")[2] for line in lines[1:]]

    @pytest.mark.parametrize("betas", ["1,nan", "1,inf", "1,-2", "", ","])
    def test_bad_betas_is_usage_error(self, workspace, noisy, tmp_path, capsys,
                                      monkeypatch, betas):
        # an empty --betas used to run the default schedule
        reads = []
        monkeypatch.setattr(cli_module, "read_pgm", lambda path: reads.append(path))
        monkeypatch.setattr(cli_module, "load_model", lambda path: reads.append(path))
        rc = cli_dispatch(["denoise", str(noisy), "--sigma", "20",
                           "--model", str(workspace / "generic.gmmp"),
                           "--out", str(tmp_path / "d.pgm"), "--betas", betas])
        assert rc == 2
        assert "--betas" in capsys.readouterr().err.strip().splitlines()[-1]
        assert reads == []

    def test_betas_with_an_infinite_reciprocal_named(self, workspace, noisy, tmp_path,
                                                      capsys):
        # 1e-306 / 20^2 is subnormal, so that stage's mode inflation, its
        # reciprocal, would be infinite; the schedule names the betas
        out = tmp_path / "d.pgm"
        rc = cli_dispatch(["denoise", str(noisy), "--sigma", "20",
                           "--model", str(workspace / "generic.gmmp"),
                           "--out", str(out), "--betas", "1,1e-306"])
        message = capsys.readouterr().err.strip().splitlines()[-1]
        assert rc == 1
        assert "betas" in message and "inflation" not in message
        assert not out.exists()

    def test_custom_betas_in_manifest(self, workspace, noisy, tmp_path):
        out = tmp_path / "d.pgm"
        rc = cli_dispatch(["denoise", str(noisy), "--sigma", "20",
                           "--model", str(workspace / "generic.gmmp"),
                           "--out", str(out), "--betas", "1,8,64"])
        assert rc == 0
        manifest = manifest_params(str(out) + ".manifest")
        betas = [float(v) for v in manifest["betas"].split(",")]
        assert betas == pytest.approx([1 / 400, 8 / 400, 64 / 400])

    def test_manifest_times_each_layer(self, workspace, noisy, tmp_path):
        out = tmp_path / "d.pgm"
        rc = cli_dispatch(["denoise", str(noisy), "--sigma", "20",
                           "--model", str(workspace / "generic.gmmp"), "--out", str(out)])
        assert rc == 0
        seconds = manifest_seconds(str(out) + ".manifest",
                                   ["denoise", "extract", "select", "shrink", "aggregate",
                                    "update"])
        layers = sum(v for k, v in seconds.items() if k != "denoise")
        assert layers <= seconds["denoise"] + 5 * _PRINTED

    def test_manifest_changes_with_parameters(self, workspace, noisy, tmp_path):
        a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
        cli_dispatch(["denoise", str(noisy), "--sigma", "20",
                      "--model", str(workspace / "generic.gmmp"), "--out", str(a)])
        cli_dispatch(["denoise", str(noisy), "--sigma", "25",
                      "--model", str(workspace / "generic.gmmp"), "--out", str(b)])
        pa = manifest_params(str(a) + ".manifest")
        pb = manifest_params(str(b) + ".manifest")
        pa.pop("out"), pb.pop("out")
        assert pa != pb
        diff = {k for k in pa if pa[k] != pb[k]}
        assert "sigma" in diff and "betas" in diff and "mode_inflations" in diff


class TestSure:
    def test_prints_estimate_and_ratio(self, workspace, tmp_path, capsys):
        noisy = tmp_path / "noisy.pgm"
        cli_dispatch(["noise", str(workspace / "clean.pgm"), "--sigma", "20",
                      "--seed", "4", "--out", str(noisy)])
        rc = cli_dispatch(["sure", str(noisy), "--sigma", "20",
                           "--model", str(workspace / "generic.gmmp")])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("sigma_tilde_sq ")
        assert lines[1].startswith("ratio ")
        est = float(lines[0].split()[1])
        ratio = float(lines[1].split()[1])
        assert est > 0.0
        assert ratio == pytest.approx(np.sqrt(est) / 20.0, abs=1e-4)
        manifest = manifest_params(tmp_path / "noisy.pgm.sure.manifest")
        assert manifest["command"] == "sure"

    def test_runs_prefilter_and_one_probe(self, workspace, noisy, monkeypatch):
        runs = []
        real_hqs = cli_module._hqs

        def counted_hqs(*args, **kwargs):
            runs.append(args)
            return real_hqs(*args, **kwargs)
        monkeypatch.setattr(cli_module, "_hqs", counted_hqs)
        rc = cli_dispatch(["sure", str(noisy), "--sigma", "20",
                           "--model", str(workspace / "generic.gmmp")])
        assert rc == 0
        manifest = read_manifest(f"{noisy}.sure.manifest")
        assert float(manifest["sigma_tilde_sq"]) > 0.0
        assert "time_prefilter_seconds" in manifest
        assert "time_sure_seconds" in manifest
        # the prefilter doubles as SURE's baseline, as in adapt --sigma-tilde sure
        assert len(runs) == 2

    @pytest.mark.parametrize("command", ["adapt", "sure"])
    def test_probe_is_not_the_noise_of_the_same_seed(self, workspace, noisy, tmp_path,
                                                     monkeypatch, command):
        # noise --seed N draws default_rng(N) normals; a probe drawn from the
        # same stream is the noise itself, and SURE overestimates
        configs = []

        def captured(image, sigma, denoiser, config, baseline=None):
            configs.append(config)
            return 1.0
        monkeypatch.setattr(cli_module, "estimate_sigma_tilde_sq", captured)
        model = str(workspace / "generic.gmmp")
        argv = {
            "adapt": ["adapt", model, str(noisy), "--out", str(tmp_path / "a.gmmp"),
                      "--sigma-tilde", "sure", "--sigma", "20", "--iters", "1"],
            "sure": ["sure", str(noisy), "--sigma", "20", "--model", model],
        }[command]
        assert cli_dispatch([*argv, "--seed", "2"]) == 0
        (config,) = configs
        probe = np.random.default_rng(config.seed).standard_normal(8)
        assert not np.allclose(probe, np.random.default_rng(2).standard_normal(8))


class TestToy:
    def test_writes_csvs(self, tmp_path, capsys):
        rc = cli_dispatch(["toy", "--out-dir", str(tmp_path), "--seed", "1"])
        assert rc == 0
        points = (tmp_path / "toy_points.csv").read_text().splitlines()
        assert points[0] == "set,x,y"
        assert len(points) == 1 + 400 + 20
        models = (tmp_path / "toy_models.csv").read_text().splitlines()
        assert models[0].startswith("model,component,weight")
        assert len(models) == 1 + 3 * 2
        out = capsys.readouterr().out
        assert "scratch_error" in out and "adapted_error" in out


# The exact keys of each command's manifest, past `command` and `version`;
# `time_` keys name the phases that the command times.
THREAD_KEYS = {"PATCHPRIOR_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"}
# one mode histogram per stage of the default five-stage HQS schedule, and
# the stages' selection paths
PREFILTER_HISTOGRAMS = {f"prefilter_mode_histogram_{stage}" for stage in range(1, 6)}
PREFILTER_HISTOGRAMS.add("prefilter_mode_paths")
# the HQS layers that the prefilter and, summed, the SURE probes time
HQS_LAYERS = ("extract", "select", "shrink", "aggregate", "update")
SURE_PHASES = ("prefilter", "sure", *(f"{run}_{layer}" for run in ("prefilter", "probe")
                                      for layer in HQS_LAYERS))
MANIFEST_KEYS = {command: keys | THREAD_KEYS for command, keys in {
    "train": {"corpus", "images", "patches", "k", "patch_size", "stride", "seed",
              "max_iters", "tol", "iterations_run", "logliks", "out",
              "time_extract_seconds", "time_fit_seconds"},
    "adapt": {"model", "image", "out", "rho", "sigma_tilde", "sigma_tilde_sq", "sigma",
              "iters", "stride", "seed", "probes", "objectives", "logliks", "log_priors",
              "alphas", "counts", "probe_rescored", *PREFILTER_HISTOGRAMS,
              *(f"time_{name}_seconds" for name in (
                  "read", *SURE_PHASES, "adapt", "estep", "stats", "mstep", "objective"))},
    "denoise": {"input", "model", "out", "sigma", "betas", "mode_inflations", "ref",
                "mode_paths", *(f"mode_histogram_{stage}" for stage in range(1, 6)),
                *(f"time_{name}_seconds" for name in (
                    "read", "denoise", "extract", "select", "shrink", "aggregate",
                    "update"))},
    "sure": {"input", "model", "sigma", "seed", "probes", "sigma_tilde_sq", "probe_rescored",
             *PREFILTER_HISTOGRAMS,
             *(f"time_{name}_seconds" for name in ("read", *SURE_PHASES))},
    "noise": {"input", "out", "sigma", "seed", "time_read_seconds", "time_noise_seconds"},
    "psnr": {"reference", "test", "psnr", "time_psnr_seconds"},
    "toy": {"seed", "rho", "out_dir", "points", "models", "time_trial_seconds"},
}.items()}


class TestManifests:
    def test_every_parsed_flag_is_a_manifest_key(self):
        # a manifest records vars(args); MANIFEST_KEYS is checked against the
        # written files below
        parser = cli_module._build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        assert set(sub.choices) == set(MANIFEST_KEYS)
        for command, p in sub.choices.items():
            dests = {a.dest for a in p._actions} - {"help", "command", "func"}
            assert dests and dests <= MANIFEST_KEYS[command], command

    def test_every_command_writes_one_parseable_record(self, workspace, tmp_path, capsys):
        model, clean = str(workspace / "generic.gmmp"), str(workspace / "clean.pgm")
        noisy, adapted = tmp_path / "noisy.pgm", tmp_path / "adapted.gmmp"
        denoised = tmp_path / "denoised.pgm"
        runs = [
            ["noise", clean, "--sigma", "20", "--seed", "6", "--out", str(noisy)],
            ["adapt", model, str(noisy), "--out", str(adapted), "--sigma-tilde", "sure",
             "--sigma", "20", "--iters", "3"],
            ["denoise", str(noisy), "--sigma", "20", "--model", model,
             "--out", str(denoised)],
            ["sure", str(noisy), "--sigma", "20", "--model", model],
            ["psnr", clean, str(denoised)],
            ["toy", "--out-dir", str(tmp_path / "toy")],
        ]
        for argv in runs:
            assert cli_dispatch(argv) == 0, argv
        printed = capsys.readouterr().out
        paths = {
            "train": workspace / "generic.gmmp.manifest",
            "noise": f"{noisy}.manifest",
            "adapt": f"{adapted}.manifest",
            "denoise": f"{denoised}.manifest",
            "sure": tmp_path / "noisy.pgm.sure.manifest",
            "psnr": workspace / "clean.pgm.psnr.manifest",
            "toy": tmp_path / "toy" / "toy_points.csv.manifest",
        }
        manifests = {}
        for command, path in paths.items():
            lines = Path(path).read_text().splitlines()
            # perfbench's sure-chain reads a manifest with split(" = ", 1)
            pairs = [line.split(" = ", 1) for line in lines]
            assert all(len(pair) == 2 and pair[0].isidentifier() and pair[1]
                       for pair in pairs), (command, lines)
            keys = [key for key, _ in pairs]
            assert keys[:2] == ["command", "version"]
            # sorted parameters, then the timings sorted by phase name
            params = [k for k in keys[2:] if not k.startswith("time_")]
            phases = [k.removeprefix("time_").removesuffix("_seconds")
                      for k in keys[2 + len(params):]]
            assert keys[2:2 + len(params)] == sorted(params)
            assert phases == sorted(phases)
            assert set(keys[2:]) == MANIFEST_KEYS[command] and len(set(keys)) == len(keys)
            manifests[command] = dict(pairs)
            assert manifests[command]["command"] == command
            for var in THREAD_KEYS:
                assert manifests[command][var] == (os.environ.get(var) or "unset")

        train = manifests["train"]
        logliks = [float(v) for v in train["logliks"].split(",")]
        assert len(logliks) == int(train["iterations_run"])

        adapt = manifests["adapt"]
        k = load_model(model).n_components
        terms = [[float(v) for v in adapt[name].split(",")]
                 for name in ("objectives", "logliks", "log_priors")]
        assert [len(t) for t in terms] == [3, 3, 3]
        for objective, loglik, log_prior in zip(*terms):
            # three printed values, each off by up to _PRINTED, and the sum's rounding
            assert objective == pytest.approx(loglik + log_prior, abs=4 * _PRINTED)
        assert len(adapt["alphas"].split(",")) == k
        patches = (96 - 6 + 1) ** 2
        counts = [float(v) for v in adapt["counts"].split(",")]
        assert sum(counts) == pytest.approx(patches, abs=k * 5e-4)  # 3 decimals each
        # every stage's histogram counts each stride-1 patch of the image once
        histograms = [manifests["denoise"][f"mode_histogram_{stage}"] for stage in range(1, 6)]
        for command in ("adapt", "sure"):
            prefilter = [manifests[command][f"prefilter_mode_histogram_{stage}"]
                         for stage in range(1, 6)]
            assert prefilter == histograms, command
        for line in histograms:
            modes = [int(v) for v in line.split(",")]
            assert len(modes) == k and min(modes) >= 0 and sum(modes) == patches
        # one selection path per stage, the prefilter's those of denoise
        mode_paths = manifests["denoise"]["mode_paths"]
        assert len(mode_paths.split(",")) == 5
        assert set(mode_paths.split(",")) <= {"fold", "screen"}
        for command in ("adapt", "sure"):
            assert manifests[command]["prefilter_mode_paths"] == mode_paths, command
        for command in ("adapt", "sure"):
            # the prefilter's layers within its lap, and the probes' within SURE's
            for run, lap in (("prefilter", "prefilter"), ("probe", "sure")):
                layers = manifest_seconds(paths[command],
                                          [f"{run}_{layer}" for layer in HQS_LAYERS])
                total = float(manifests[command][f"time_{lap}_seconds"])
                assert sum(layers.values()) <= total + 5 * _PRINTED, (command, run)
            # one probe: per stage it scored at most every patch again
            rescored = [int(v) for v in manifests[command]["probe_rescored"].split(",")]
            assert len(rescored) == 5 and all(0 <= v <= patches for v in rescored)
        assert manifests["sure"]["probe_rescored"] == adapt["probe_rescored"]

        # sigma_tilde_sq is written in full by both commands that estimate it,
        # and the same seed gives the same estimate; stdout keeps 6 decimals
        sure = manifests["sure"]
        assert sure["sigma_tilde_sq"] == adapt["sigma_tilde_sq"]
        assert f"sigma_tilde_sq {float(sure['sigma_tilde_sq']):.6f}" in printed

    def test_unset_thread_variable_is_written_unset(self, workspace, tmp_path, monkeypatch):
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        out = tmp_path / "noisy.pgm"
        assert cli_dispatch(["noise", str(workspace / "clean.pgm"), "--sigma", "5",
                             "--out", str(out)]) == 0
        manifest = manifest_params(f"{out}.manifest")
        assert manifest["OMP_NUM_THREADS"] == "unset"
        assert manifest["OPENBLAS_NUM_THREADS"] == "3"


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert cli_dispatch(["transmogrify"]) == 2
        capsys.readouterr()

    def test_missing_required_flag(self, workspace, capsys):
        assert cli_dispatch(["denoise", str(workspace / "clean.pgm")]) == 2
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert cli_dispatch(["--help"]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("command, sigma, extra, code", [
        ("noise", "nan", [], 2),
        ("adapt", "inf", [], 2),
        ("sure", "nan", [], 2),
        ("denoise", "nan", [], 2),
        ("denoise", "-inf", ["--betas", "1,4"], 2),
        ("denoise", "0", [], 1),
        ("denoise", "0", ["--betas", "1,4"], 1),
        ("denoise", "1e200", [], 1),
        ("denoise", "1e-200", ["--betas", "1,4"], 1),
        ("sure", "1e200", [], 1),
        ("sure", "1e-200", [], 1),
        ("adapt-sure", "1e200", [], 1),
    ], ids=["noise-nan", "adapt-inf", "sure-nan", "denoise-nan", "denoise-betas-inf",
            "denoise-zero", "denoise-betas-zero", "denoise-huge", "denoise-betas-tiny",
            "sure-huge", "sure-tiny", "adapt-sure-huge"])
    def test_bad_sigma_is_reported_as_sigma(self, workspace, tmp_path, capsys,
                                            command, sigma, extra, code):
        # non-finite is a usage error in every command; a finite bad value,
        # including one whose square overflows or underflows, fails the same
        # way with or without --betas, and never blames it
        model, clean = str(workspace / "generic.gmmp"), str(workspace / "clean.pgm")
        argv = {
            "noise": ["noise", clean, "--out", str(tmp_path / "o.pgm")],
            "adapt": ["adapt", model, clean, "--out", str(tmp_path / "o.gmmp")],
            "adapt-sure": ["adapt", model, clean, "--out", str(tmp_path / "o.gmmp"),
                           "--sigma-tilde", "sure"],
            "sure": ["sure", clean, "--model", model],
            "denoise": ["denoise", clean, "--model", model, "--out", str(tmp_path / "o.pgm")],
        }[command]
        rc = cli_dispatch([*argv, f"--sigma={sigma}", *extra])
        message = capsys.readouterr().err.strip().splitlines()[-1]
        assert rc == code
        assert ("--sigma" if code == 2 else "sigma") in message
        assert "--betas" not in message

    @pytest.mark.parametrize("sigma_tilde, flags", [
        ([], ["--sigma", "20"]),
        (["--sigma-tilde", "3"], ["--sigma", "20"]),
        ([], ["--seed", "7"]),
        (["--sigma-tilde", "3"], ["--seed", "7"]),
        (["--sigma-tilde", "3"], ["--probes", "5"]),
        (["--sigma-tilde", "3"], ["--seed", "7", "--probes", "5"]),
    ], ids=["default", "known", "seed-default", "seed-known", "probes-known",
            "seed-probes-known"])
    def test_sigma_without_sure_is_usage_error(self, workspace, tmp_path, capsys,
                                               monkeypatch, sigma_tilde, flags):
        # adapt reads --sigma, --seed and --probes only to prefilter and probe
        # for SURE; without it each was recorded in the manifest as if used
        reads = []
        monkeypatch.setattr(cli_module, "read_pgm", lambda path: reads.append(path))
        monkeypatch.setattr(cli_module, "load_model", lambda path: reads.append(path))
        out = tmp_path / "x.gmmp"
        rc = cli_dispatch(["adapt", str(workspace / "generic.gmmp"),
                           str(workspace / "clean.pgm"), "--out", str(out),
                           *sigma_tilde, *flags])
        message = capsys.readouterr().err.strip().splitlines()[-1]
        assert rc == 2
        assert all(f"{flag} " in message for flag in flags[::2])
        assert "--sigma-tilde sure" in message
        assert reads == []
        assert not Path(f"{out}.manifest").exists()

    @pytest.mark.parametrize("command, flag, value", [
        ("train", "--tol", "nan"),
        ("adapt", "--rho", "inf"),
        ("toy", "--rho", "-inf"),
    ], ids=["train-tol", "adapt-rho", "toy-rho"])
    def test_nonfinite_setting_is_usage_error(self, workspace, tmp_path, capsys,
                                              command, flag, value):
        model, clean = str(workspace / "generic.gmmp"), str(workspace / "clean.pgm")
        argv = {
            "train": ["train", str(tmp_path), "--out", str(tmp_path / "o.gmmp")],
            "adapt": ["adapt", model, clean, "--out", str(tmp_path / "o.gmmp")],
            "toy": ["toy", "--out-dir", str(tmp_path)],
        }[command]
        rc = cli_dispatch([*argv, f"{flag}={value}"])
        message = capsys.readouterr().err.strip().splitlines()[-1]
        assert rc == 2
        assert flag in message and "finite" in message

    @pytest.mark.parametrize("value", ["0", "-2", "1.5", "many"])
    @pytest.mark.parametrize("command, flag", [
        ("train", "--k"), ("train", "--patch-size"), ("train", "--stride"),
        ("train", "--max-iters"), ("adapt", "--iters"), ("adapt", "--stride"),
        ("adapt", "--probes"), ("sure", "--probes"),
    ])
    def test_bad_integer_fails_before_any_work(self, workspace, tmp_path, capsys,
                                               monkeypatch, command, flag, value):
        # adapt --sigma-tilde sure used to run both HQS passes, and train to
        # read the corpus, before a stride or k below 1 failed
        reads = []
        monkeypatch.setattr(cli_module, "read_pgm", lambda path: reads.append(path))
        model, clean = str(workspace / "generic.gmmp"), str(workspace / "clean.pgm")
        argv = {
            "train": ["train", str(workspace / "corpus"), "--out", str(tmp_path / "o.gmmp")],
            "adapt": ["adapt", model, clean, "--out", str(tmp_path / "o.gmmp"),
                      "--sigma-tilde", "sure", "--sigma", "20"],
            "sure": ["sure", clean, "--model", model, "--sigma", "20"],
        }[command]
        rc = cli_dispatch([*argv, f"{flag}={value}"])
        message = capsys.readouterr().err.strip().splitlines()[-1]
        assert rc == 2
        assert flag in message and "positive integer" in message
        assert reads == []

    @pytest.mark.parametrize("argv, removed", [
        (["denoise", "in.pgm", "--sigma", "20", "--model", "m.gmmp", "--out", "o.pgm",
          "--ref", "c.pgm"], ["--trace"]),
        (["sure", "in.pgm", "--sigma", "20", "--model", "m.gmmp"], ["--delta", "0.5"]),
    ], ids=["denoise-trace", "sure-delta"])
    def test_removed_flag_is_usage_error(self, capsys, argv, removed):
        # --ref alone asks for the PSNR trace; sure probes with adapt's settings
        assert cli_dispatch([*argv, *removed]) == 2
        assert f"unrecognized arguments: {' '.join(removed)}" in capsys.readouterr().err

    def test_missing_input_file_is_runtime_error(self, workspace, tmp_path, capsys):
        rc = cli_dispatch(["psnr", str(tmp_path / "absent.pgm"),
                           str(workspace / "clean.pgm")])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_corrupt_model_is_runtime_error(self, workspace, tmp_path, capsys):
        bad = tmp_path / "bad.gmmp"
        bad.write_bytes(b"GMMPxxxxgarbage")
        rc = cli_dispatch(["denoise", str(workspace / "clean.pgm"),
                           "--sigma", "20", "--model", str(bad),
                           "--out", str(tmp_path / "o.pgm")])
        assert rc == 1
        capsys.readouterr()
        assert not (tmp_path / "o.pgm.manifest").exists()


class TestConsoleScript:
    def test_entry_point_help(self):
        proc = subprocess.run([sys.executable, "-m", "patchprior.cli", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "train" in proc.stdout


class TestFullPipeline:
    def test_noise_sure_adapt_denoise_regression(self, workspace, tmp_path, capsys):
        root = workspace
        noisy = tmp_path / "noisy.pgm"
        assert cli_dispatch(["noise", str(root / "clean.pgm"), "--sigma", "20",
                             "--seed", "5", "--out", str(noisy)]) == 0
        adapted = tmp_path / "adapted.gmmp"
        assert cli_dispatch(["adapt", str(root / "generic.gmmp"), str(noisy),
                             "--out", str(adapted), "--sigma-tilde", "sure",
                             "--sigma", "20", "--seed", "11"]) == 0
        for model, name in ((root / "generic.gmmp", "dgen.pgm"),
                            (adapted, "dada.pgm")):
            assert cli_dispatch(["denoise", str(noisy), "--sigma", "20",
                                 "--model", str(model),
                                 "--out", str(tmp_path / name)]) == 0
        capsys.readouterr()
        assert cli_dispatch(["psnr", str(root / "clean.pgm"),
                             str(tmp_path / "dgen.pgm")]) == 0
        p_generic = float(capsys.readouterr().out.strip())
        assert cli_dispatch(["psnr", str(root / "clean.pgm"),
                             str(tmp_path / "dada.pgm")]) == 0
        p_adapted = float(capsys.readouterr().out.strip())
        assert p_adapted >= p_generic - 0.05
        check_baseline("cli_pipeline_smoke96_sigma20",
                       {"generic": round(p_generic, 4), "adapted": round(p_adapted, 4)})
