"""Binary model file format: layout, round trips, corruption detection."""

import os
import zlib

import numpy as np
import pytest

from patchprior import (
    AdaptationConfig,
    BadMagicError,
    ChecksumError,
    EmConfig,
    Gmm,
    ModelFileError,
    TruncatedFileError,
    UnsupportedVersionError,
    adapt,
    add_gaussian_noise,
    denoise,
    em_fit,
    extract_patches,
    load_model,
    save_model,
)
from patchprior.gmm import PSD_FLOOR
from patchprior.ioutil import atomic_write_bytes

from synthimages import make_piecewise_image
from test_em import assert_factors_are_eigh
from test_gmm import random_gmm

PARTS = ("weights", "means", "covariances", "eigenvalues", "eigenvectors")


def tiny_model():
    return Gmm(weights=np.array([1.0]), means=np.array([[0.5]]),
               covariances=np.array([[[2.0]]]))


def write_v1(model, path):
    """A version-1 file of the model: no factors after the covariances."""
    body = b"GMMP" + (1).to_bytes(2, "little")
    body += model.n_components.to_bytes(4, "little") + model.dim.to_bytes(4, "little")
    for a in (model.weights, model.means, model.covariances):
        body += a.astype("<f8").tobytes()
    path.write_bytes(body + zlib.crc32(body).to_bytes(4, "little"))


def rewritten(path, offset, values):
    """The file's bytes with float64 ``values`` written from ``offset`` on
    and the checksum made to match."""
    raw = bytearray(path.read_bytes())
    data = np.asarray(values, "<f8").tobytes()
    raw[offset:offset + len(data)] = data
    raw[-4:] = zlib.crc32(bytes(raw[:-4])).to_bytes(4, "little")
    return bytes(raw)


@pytest.fixture(scope="module")
def scene_models():
    """A generic model of a scene with flat regions, and that model adapted
    to a noisy copy at sigma_tilde_sq 25, which floors more axes."""
    image = make_piecewise_image(32)
    generic, _ = em_fit(extract_patches(image, 8, 1), EmConfig(n_components=4, max_iters=3, seed=0))
    noisy = add_gaussian_noise(image, 10.0, seed=3)
    adapted, _ = adapt(generic, extract_patches(noisy, 8),
                       AdaptationConfig(sigma_tilde_sq=25.0, iterations=2))
    return {"em_fit": generic, "adapt": adapted, "noisy": noisy}


def assert_round_trip_exact(model, tmp_path):
    """Every part of a saved and loaded model, the factors included, is the
    model's bit for bit, and re-saving it writes the same bytes."""
    path, again = tmp_path / "m.gmmp", tmp_path / "again.gmmp"
    save_model(model, path)
    back = load_model(path)
    for name in PARTS:
        assert np.array_equal(getattr(back, name), getattr(model, name)), name
    save_model(back, again)
    assert again.read_bytes() == path.read_bytes()


class TestRoundTrip:
    def test_bitwise_exact(self, tmp_path):
        assert_round_trip_exact(random_gmm(np.random.default_rng(0), 5, 7), tmp_path)

    @pytest.mark.parametrize("kind", ["em_fit", "adapt"])
    def test_fitted_model_bitwise_exact(self, tmp_path, scene_models, kind):
        # the M-steps' clamped components keep factors that are not the
        # eigh of their covariances; the file carries them
        assert_round_trip_exact(scene_models[kind], tmp_path)

    def test_reloaded_model_denoises_the_same(self, tmp_path, scene_models):
        path = tmp_path / "adapted.gmmp"
        save_model(scene_models["adapt"], path)
        noisy = scene_models["noisy"]
        here = denoise(noisy, 10.0, scene_models["adapt"])
        back = denoise(noisy, 10.0, load_model(path))
        assert np.array_equal(back.image.pixels, here.image.pixels)
        for a, b in zip(back.mode_histograms, here.mode_histograms):
            assert np.array_equal(a, b)

    def test_round_trip_survives_resave(self, tmp_path):
        rng = np.random.default_rng(1)
        model = random_gmm(rng, 3, 4)
        p1, p2 = tmp_path / "a.gmmp", tmp_path / "b.gmmp"
        save_model(model, p1)
        save_model(load_model(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_floored_factors_survive_the_round_trip(self, tmp_path, scene_models):
        # an EM model of a scene with flat regions: the eigh of its floored
        # covariances scatters about PSD_FLOOR, while the model keeps the
        # floor's factors, on it exactly, and so does the file's reload
        model = scene_models["em_fit"]
        raw = np.linalg.eigvalsh(model.covariances)
        floored = np.abs(raw - PSD_FLOOR) < 1e-8
        assert floored.sum() > 100 and np.any(raw[floored] != PSD_FLOOR)
        assert np.all(model.eigenvalues[floored] == PSD_FLOOR)
        path = tmp_path / "em.gmmp"
        save_model(model, path)
        back = load_model(path)
        assert np.array_equal(back.eigenvalues, model.eigenvalues)
        assert np.array_equal(back.eigenvectors, model.eigenvectors)

    def test_version_1_file_still_loads(self, tmp_path):
        # no factors in the file: the covariances are decomposed afresh
        model = random_gmm(np.random.default_rng(2), 3, 5)
        path = tmp_path / "v1.gmmp"
        write_v1(model, path)
        back = load_model(path)
        for name in ("weights", "means", "covariances"):
            assert np.array_equal(getattr(back, name), getattr(model, name))
        assert_factors_are_eigh(back)

    @pytest.mark.parametrize("failure", ["str-payload", "replace-after-temp-gone"])
    def test_failed_write_keeps_the_old_file(self, tmp_path, monkeypatch, failure):
        # a str payload fails in the write, and the temporary file beside
        # the target is removed; a rename that fails after the temporary
        # file is gone raises its own error, not the failed unlink's
        path = tmp_path / "m.gmmp"
        path.write_bytes(b"old")
        if failure == "str-payload":
            data, error = "new", TypeError
        else:
            def replace(src, dst):
                os.unlink(src)
                raise PermissionError("rename refused")
            monkeypatch.setattr(os, "replace", replace)
            data, error = b"new", PermissionError
        with pytest.raises(error):
            atomic_write_bytes(path, data)
        assert path.read_bytes() == b"old"
        assert list(tmp_path.iterdir()) == [path]


class TestLayout:
    def test_header_fields_little_endian(self, tmp_path):
        path = tmp_path / "t.gmmp"
        save_model(tiny_model(), path)
        raw = path.read_bytes()
        assert raw[:4] == b"GMMP"
        assert int.from_bytes(raw[4:6], "little") == 2
        assert int.from_bytes(raw[6:10], "little") == 1   # components
        assert int.from_bytes(raw[10:14], "little") == 1  # dimension
        assert np.frombuffer(raw[14:22], "<f8")[0] == 1.0  # first weight

    def test_minimal_model_is_58_bytes(self, tmp_path):
        # header 14 (magic 4, version 2, K 4, d 4) + weight, mean and
        # covariance + eigenvalue and eigenvector + trailer 4
        path = tmp_path / "t.gmmp"
        save_model(tiny_model(), path)
        raw = path.read_bytes()
        assert len(raw) == 58
        assert np.array_equal(np.frombuffer(raw[14:54], "<f8"), [1.0, 0.5, 2.0, 2.0, 1.0])


class TestCorruption:
    def test_payload_flip_raises_checksum(self, tmp_path):
        path = tmp_path / "m.gmmp"
        save_model(tiny_model(), path)
        raw = bytearray(path.read_bytes())
        raw[20] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(ChecksumError):
            load_model(path)

    def test_truncation_raises(self, tmp_path):
        path = tmp_path / "m.gmmp"
        save_model(tiny_model(), path)
        raw = path.read_bytes()
        for cut in (0, 5, 13, 20, len(raw) - 1):
            path.write_bytes(raw[:cut])
            with pytest.raises(TruncatedFileError):
                load_model(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        path = tmp_path / "m.gmmp"
        save_model(tiny_model(), path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ModelFileError):
            load_model(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.gmmp"
        save_model(tiny_model(), path)
        raw = bytearray(path.read_bytes())
        raw[0] = ord("X")
        path.write_bytes(bytes(raw))
        with pytest.raises(BadMagicError):
            load_model(path)

    def test_future_version_rejected(self, tmp_path):
        path = tmp_path / "m.gmmp"
        save_model(tiny_model(), path)
        raw = bytearray(path.read_bytes())
        raw[4:6] = (3).to_bytes(2, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(UnsupportedVersionError):
            load_model(path)

    def test_zero_components_rejected(self, tmp_path):
        path = tmp_path / "m.gmmp"
        save_model(tiny_model(), path)
        raw = bytearray(path.read_bytes())
        raw[6:10] = (0).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(ModelFileError):
            load_model(path)

    def test_indefinite_covariance_rejected_at_load(self, tmp_path):
        # the one covariance entry and its eigenvalue, which still agree
        path = tmp_path / "m.gmmp"
        save_model(tiny_model(), path)
        path.write_bytes(rewritten(path, 30, [-2.0, -2.0]))
        with pytest.raises(ModelFileError, match="component 0 is not positive-definite"):
            load_model(path)

    @pytest.mark.parametrize("change, match", [
        ("eigenvector", "eigenvectors are not orthonormal in component 1$"),
        ("eigenvalue", "factors do not reproduce the covariance in component 1$"),
        ("order", "eigenvalues do not ascend in component 1$"),
        ("infinite", "factors do not reproduce the covariance in component 1$"),
    ])
    def test_factors_that_miss_the_covariances_rejected(self, tmp_path, change, match):
        # K = 3, d = 4: the eigenvalues start at byte 14 + 8 (3 + 12 + 48),
        # the eigenvectors 12 doubles later; component 1 is changed
        model = random_gmm(np.random.default_rng(4), 3, 4)
        path = tmp_path / "m.gmmp"
        save_model(model, path)
        values, vectors = 14 + 8 * 63, 14 + 8 * 75
        if change == "eigenvector":
            u = model.eigenvectors[1].copy()
            u[2, 3] += 1e-9
            data = rewritten(path, vectors + 8 * 16, u.ravel())
        elif change == "eigenvalue":
            data = rewritten(path, values + 8 * 4, model.eigenvalues[1] * (1.0 + 1e-9))
        elif change == "infinite":
            # still ascending, and every error is no more than an infinite bound
            data = rewritten(path, values + 8 * 7, [np.inf])
        else:
            # the pairs of axes 0 and 1 swapped: the factors still agree
            data = rewritten(path, values + 8 * 4, model.eigenvalues[1][[1, 0, 2, 3]])
            path.write_bytes(data)
            data = rewritten(path, vectors + 8 * 16,
                             model.eigenvectors[1][:, [1, 0, 2, 3]].ravel())
        path.write_bytes(data)
        with pytest.raises(ModelFileError, match=match):
            load_model(path)

    def test_errors_are_value_errors(self):
        for err in (BadMagicError, UnsupportedVersionError, TruncatedFileError,
                    ChecksumError):
            assert issubclass(err, ModelFileError)
        assert issubclass(ModelFileError, ValueError)
