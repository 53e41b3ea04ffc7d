"""Bit-exact mixture model files with a checksum trailer.

Layout, all little-endian: 4-byte magic, u16 format version, u32
component count K, u32 dimension d, then float64 payload (K weights,
K*d means, K*d*d row-major covariances), then the CRC32 of everything
before it as u32.
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
FORMAT_VERSION = 1
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
    """Serialize a model; the write is atomic."""
    body = _HEADER.pack(MAGIC, FORMAT_VERSION, gmm.n_components, gmm.dim)
    body += gmm.weights.astype("<f8").tobytes()
    body += gmm.means.astype("<f8").tobytes()
    body += gmm.covariances.astype("<f8").tobytes()
    atomic_write_bytes(path, body + _TRAILER.pack(zlib.crc32(body)))


def load_model(path) -> Gmm:
    """Read a model back, verifying structure and checksum first."""
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size + _TRAILER.size:
        raise TruncatedFileError(f"{path}: file shorter than the fixed header")
    magic, version, k, d = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise BadMagicError(f"{path}: magic {magic!r}, expected {MAGIC!r}")
    if version != FORMAT_VERSION:
        raise UnsupportedVersionError(f"{path}: format version {version}")
    if k < 1 or d < 1:
        raise ModelFileError(f"{path}: invalid shape K={k}, d={d}")
    expected = _HEADER.size + 8 * (k + k * d + k * d * d) + _TRAILER.size
    if len(raw) < expected:
        raise TruncatedFileError(f"{path}: {len(raw)} bytes, expected {expected}")
    if len(raw) > expected:
        raise ModelFileError(f"{path}: {len(raw) - expected} trailing bytes")
    (stored,) = _TRAILER.unpack_from(raw, expected - _TRAILER.size)
    actual = zlib.crc32(raw[:expected - _TRAILER.size])
    if stored != actual:
        raise ChecksumError(f"{path}: checksum {actual:#010x} != stored {stored:#010x}")
    offset = _HEADER.size
    weights = np.frombuffer(raw, dtype="<f8", count=k, offset=offset)
    offset += 8 * k
    means = np.frombuffer(raw, dtype="<f8", count=k * d, offset=offset).reshape(k, d)
    offset += 8 * k * d
    covs = np.frombuffer(raw, dtype="<f8", count=k * d * d, offset=offset).reshape(k, d, d)
    try:
        return Gmm(weights=weights, means=means, covariances=covs)
    except ValueError as exc:
        raise ModelFileError(f"{path}: {exc}") from exc
