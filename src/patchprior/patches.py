"""Image container, overlapping patch operators, noise synthesis, PSNR.

Patch origins form a regular grid: every stride-th offset plus a final
origin flush with each border, so the whole image is always covered.
Both extraction and accumulation exploit the grid instead of looping over
patches: extraction gathers one strided window view, and accumulation adds
one strided slice per patch pixel (plus one for the flush origin).
"""

from __future__ import annotations

import dataclasses

import numpy as np

__all__ = [
    "ImageBuffer",
    "PatchSet",
    "PSNR_CAP",
    "extract_patches",
    "accumulate_patches",
    "add_gaussian_noise",
    "psnr",
]

PSNR_CAP = 99.0
_PEAK = 255.0


@dataclasses.dataclass(frozen=True)
class ImageBuffer:
    """A grayscale image on the [0, 255] intensity scale.

    Values are stored as float64 and may transiently leave the nominal
    range during optimization; they are only quantized at file writes.
    """

    pixels: np.ndarray

    def __post_init__(self):
        px = np.array(self.pixels, dtype=np.float64)
        if px.ndim != 2 or px.size == 0:
            raise ValueError(f"pixels must be a nonempty 2-D array, got shape {px.shape}")
        if not np.isfinite(px).all():
            raise ValueError("pixels contain non-finite values")
        px.flags.writeable = False
        object.__setattr__(self, "pixels", px)

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]


@dataclasses.dataclass(frozen=True)
class PatchSet:
    """Vectorized patches plus the origin grid they came from.

    Row i of ``data`` is the patch at origin (row_starts[i // len(col_starts)],
    col_starts[i % len(col_starts)]), itself flattened row-major.
    """

    data: np.ndarray
    patch_size: int
    stride: int
    row_starts: np.ndarray
    col_starts: np.ndarray

    def __post_init__(self):
        data = np.array(self.data, dtype=np.float64)
        rows = np.array(self.row_starts, dtype=np.intp)
        cols = np.array(self.col_starts, dtype=np.intp)
        s = int(self.patch_size)
        if s < 1 or int(self.stride) < 1:
            raise ValueError("patch_size and stride must be positive")
        if data.ndim != 2 or data.shape != (rows.size * cols.size, s * s):
            raise ValueError("patch data does not match the origin grid")
        for arr in (rows, cols):
            if arr.size == 0 or arr[0] < 0 or (np.diff(arr) <= 0).any():
                raise ValueError("origins must be nonnegative and strictly increasing")
        for arr in (data, rows, cols):
            arr.flags.writeable = False
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "row_starts", rows)
        object.__setattr__(self, "col_starts", cols)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def d(self) -> int:
        return self.data.shape[1]

    def with_values(self, values) -> "PatchSet":
        return dataclasses.replace(self, data=values)


def _coverage_starts(extent: int, patch_size: int, stride: int) -> np.ndarray:
    last = extent - patch_size
    starts = list(range(0, last + 1, stride))
    if starts[-1] != last:
        starts.append(last)
    return np.asarray(starts, dtype=np.intp)


def extract_patches(image: ImageBuffer, patch_size: int, stride: int = 1) -> PatchSet:
    """Slide a patch_size window over the image at the given stride.

    A final row and column of origins is added whenever the stride does
    not land flush on the border, so every pixel belongs to at least one
    patch.
    """
    s = int(patch_size)
    if s < 1:
        raise ValueError("patch_size must be positive")
    if int(stride) < 1:
        raise ValueError("stride must be positive")
    if s > image.height or s > image.width:
        raise ValueError(
            f"patch size {s} exceeds image extent {image.height}x{image.width}")
    rows = _coverage_starts(image.height, s, int(stride))
    cols = _coverage_starts(image.width, s, int(stride))
    view = np.lib.stride_tricks.sliding_window_view(image.pixels, (s, s))
    data = view[np.ix_(rows, cols)].reshape(rows.size * cols.size, s * s)
    return PatchSet(data=np.ascontiguousarray(data), patch_size=s, stride=int(stride),
                    row_starts=rows, col_starts=cols)


def _runs(starts: np.ndarray, stride: int):
    """Split increasing origins into runs spaced ``stride`` apart, as
    (index slice, first origin, last origin + 1): one run on a grid that
    ends flush, two when the flush origin is off the stride."""
    cuts = [0, *(np.flatnonzero(np.diff(starts) != stride) + 1).tolist(), starts.size]
    return [(slice(i, j), int(starts[i]), int(starts[j - 1]) + 1)
            for i, j in zip(cuts[:-1], cuts[1:])]


def _cover(starts: np.ndarray, patch_size: int, extent: int) -> np.ndarray:
    """How many patches along one axis cover each pixel."""
    return np.bincount((starts[:, None] + np.arange(patch_size)).ravel(), minlength=extent)


def accumulate_patches(patches: PatchSet, width: int, height: int):
    """Scatter patch values back onto the pixel grid.

    Returns the per-pixel sum of all covering patch entries and the
    per-pixel cover count.  Dividing the two reproduces an image exactly
    where the patch values are consistent.  Each patch pixel (a, b) adds
    one strided slice per run of origins, so every pixel sums its terms
    in (a, b) order; the cover is the outer product of the row and column
    covers.
    """
    s, stride = patches.patch_size, patches.stride
    rows, cols = patches.row_starts, patches.col_starts
    if rows[-1] + s > height or cols[-1] + s > width:
        raise ValueError("patch origins fall outside the target image")
    sums = np.zeros((height, width))
    grid = patches.data.reshape(rows.size, cols.size, s, s)
    row_runs, col_runs = _runs(rows, stride), _runs(cols, stride)
    for a in range(s):
        for b in range(s):
            for ri, r0, r1 in row_runs:
                for ci, c0, c1 in col_runs:
                    sums[r0 + a:r1 + a:stride, c0 + b:c1 + b:stride] += grid[ri, ci, a, b]
    count = np.outer(_cover(rows, s, height), _cover(cols, s, width)).astype(np.float64)
    return ImageBuffer(sums), ImageBuffer(count)


def add_gaussian_noise(image: ImageBuffer, sigma: float, seed: int) -> ImageBuffer:
    """Add seeded white Gaussian noise; values are not clipped."""
    if not 0 <= sigma < np.inf:
        raise ValueError("sigma must be nonnegative and finite")
    if sigma == 0:
        return ImageBuffer(image.pixels.copy())
    rng = np.random.default_rng(seed)
    return ImageBuffer(image.pixels + rng.normal(0.0, sigma, image.pixels.shape))


def psnr(reference: ImageBuffer, test: ImageBuffer) -> float:
    """Peak signal-to-noise ratio in dB against a 255 peak, capped at 99."""
    if reference.pixels.shape != test.pixels.shape:
        raise ValueError("images have different shapes")
    mse = float(((reference.pixels - test.pixels) ** 2).mean())
    if mse == 0.0:
        return PSNR_CAP
    return min(PSNR_CAP, float(10.0 * np.log10(_PEAK * _PEAK / mse)))
