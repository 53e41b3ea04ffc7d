"""PGM image files: binary P5 and ASCII P2 readers, binary P5 writer."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .ioutil import atomic_write_bytes
from .patches import ImageBuffer

__all__ = ["PgmError", "read_pgm", "write_pgm"]

_WHITESPACE = b" \t\r\n\x0b\x0c"


class PgmError(ValueError):
    """Malformed or unsupported PGM content."""


def _next_token(buf: bytes, pos: int):
    """Skip whitespace and # comments, return (token, position after it)."""
    size = len(buf)
    while pos < size:
        byte = buf[pos]
        if byte in _WHITESPACE:
            pos += 1
        elif byte == ord("#"):
            newline = buf.find(b"\n", pos)
            pos = size if newline < 0 else newline + 1
        else:
            break
    start = pos
    while pos < size and buf[pos] not in _WHITESPACE:
        pos += 1
    if start == pos:
        raise PgmError("truncated header")
    return buf[start:pos], pos


def _header_int(buf: bytes, pos: int, what: str):
    token, pos = _next_token(buf, pos)
    try:
        value = int(token)
    except ValueError:
        raise PgmError(f"bad {what}: {token!r}") from None
    if value <= 0:
        raise PgmError(f"bad {what}: {value}")
    return value, pos


def read_pgm(path) -> ImageBuffer:
    """Read a P5 or P2 grayscale file with maximum value 255."""
    buf = Path(path).read_bytes()
    magic, pos = _next_token(buf, 0)
    if magic not in (b"P5", b"P2"):
        raise PgmError(f"unsupported magic {magic!r}")
    width, pos = _header_int(buf, pos, "width")
    height, pos = _header_int(buf, pos, "height")
    maxval, pos = _header_int(buf, pos, "maximum gray value")
    if maxval != 255:
        raise PgmError(f"maximum gray value must be 255, got {maxval}")
    if magic == b"P5":
        # Exactly one whitespace byte separates the header from the raster.
        raster = buf[pos + 1:pos + 1 + width * height]
        if len(raster) != width * height:
            raise PgmError("raster is truncated")
        pixels = np.frombuffer(raster, dtype=np.uint8).reshape(height, width)
        return ImageBuffer(pixels.astype(np.float64))
    # Each sample needs a whitespace byte and a digit, so a header whose
    # raster cannot fit in the rest of the file is rejected before allocating.
    if len(buf) - pos < 2 * width * height:
        raise PgmError("raster is truncated")
    values = np.empty(width * height, dtype=np.float64)
    for i in range(values.size):
        token, pos = _next_token(buf, pos)
        try:
            sample = int(token)
        except ValueError:
            raise PgmError(f"bad sample: {token!r}") from None
        if not 0 <= sample <= 255:
            raise PgmError(f"sample {sample} out of range")
        values[i] = sample
    return ImageBuffer(values.reshape(height, width))


def write_pgm(image: ImageBuffer, path) -> None:
    """Write binary P5, quantizing by clamp-to-[0, 255] and round."""
    quantized = np.clip(np.rint(image.pixels), 0.0, 255.0).astype(np.uint8)
    header = f"P5\n{image.width} {image.height}\n255\n".encode("ascii")
    atomic_write_bytes(path, header + quantized.tobytes())
