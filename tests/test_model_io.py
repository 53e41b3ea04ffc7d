"""Binary model file format: layout, round trips, corruption detection."""

import zlib

import numpy as np
import pytest

from patchprior import (
    BadMagicError,
    ChecksumError,
    EmConfig,
    Gmm,
    ModelFileError,
    TruncatedFileError,
    UnsupportedVersionError,
    em_fit,
    extract_patches,
    load_model,
    save_model,
)
from patchprior.gmm import PSD_FLOOR

from synthimages import make_piecewise_image
from test_gmm import random_gmm


def tiny_model():
    return Gmm(weights=np.array([1.0]), means=np.array([[0.5]]),
               covariances=np.array([[[2.0]]]))


class TestRoundTrip:
    def test_bitwise_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        model = random_gmm(rng, 5, 7)
        path = tmp_path / "m.gmmp"
        save_model(model, path)
        back = load_model(path)
        assert np.array_equal(back.weights, model.weights)
        assert np.array_equal(back.means, model.means)
        assert np.array_equal(back.covariances, model.covariances)

    def test_round_trip_survives_resave(self, tmp_path):
        rng = np.random.default_rng(1)
        model = random_gmm(rng, 3, 4)
        p1, p2 = tmp_path / "a.gmmp", tmp_path / "b.gmmp"
        save_model(model, p1)
        save_model(load_model(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_floored_factors_survive_the_round_trip(self, tmp_path):
        # an EM model of a scene with flat regions: the eigh of its floored
        # covariances scatters about PSD_FLOOR, and both the model and the
        # file's reload snap the same axes onto it
        patches = extract_patches(make_piecewise_image(32), 8, 1)
        model, _ = em_fit(patches, EmConfig(n_components=4, max_iters=3, seed=0))
        raw = np.linalg.eigvalsh(model.covariances)
        floored = np.abs(raw - PSD_FLOOR) < 1e-8
        assert floored.sum() > 100 and np.any(raw[floored] != PSD_FLOOR)
        assert np.all(model.eigenvalues[floored] == PSD_FLOOR)
        path = tmp_path / "em.gmmp"
        save_model(model, path)
        back = load_model(path)
        assert np.array_equal(back.eigenvalues, model.eigenvalues)
        assert np.array_equal(back.eigenvectors, model.eigenvectors)

    def test_minimal_model_is_42_bytes(self, tmp_path):
        # header 14 (magic 4, version 2, K 4, d 4) + 3 doubles + trailer 4
        path = tmp_path / "t.gmmp"
        save_model(tiny_model(), path)
        assert path.stat().st_size == 42


class TestLayout:
    def test_header_fields_little_endian(self, tmp_path):
        path = tmp_path / "t.gmmp"
        save_model(tiny_model(), path)
        raw = path.read_bytes()
        assert raw[:4] == b"GMMP"
        assert int.from_bytes(raw[4:6], "little") == 1
        assert int.from_bytes(raw[6:10], "little") == 1   # components
        assert int.from_bytes(raw[10:14], "little") == 1  # dimension
        assert np.frombuffer(raw[14:22], "<f8")[0] == 1.0  # first weight


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
        raw[4:6] = (2).to_bytes(2, "little")
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
        path = tmp_path / "m.gmmp"
        save_model(tiny_model(), path)
        raw = bytearray(path.read_bytes())
        raw[30:38] = np.array([-2.0], "<f8").tobytes()  # the one covariance entry
        raw[38:42] = zlib.crc32(bytes(raw[:38])).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(ModelFileError, match="component 0 is not positive-definite"):
            load_model(path)

    def test_errors_are_value_errors(self):
        for err in (BadMagicError, UnsupportedVersionError, TruncatedFileError,
                    ChecksumError):
            assert issubclass(err, ModelFileError)
        assert issubclass(ModelFileError, ValueError)
