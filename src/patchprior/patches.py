"""Image container, overlapping patch operators, noise synthesis, PSNR.

Patch origins form a regular grid: every stride-th offset plus a final
origin flush with each border, so the whole image is always covered.
Both extraction and accumulation exploit the grid and run as patch-pixel
sized batches of fancy indexing instead of per-patch loops.
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

    @property
    def origins(self) -> np.ndarray:
        rr, cc = np.meshgrid(self.row_starts, self.col_starts, indexing="ij")
        return np.stack([rr.ravel(), cc.ravel()], axis=1)

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


def accumulate_patches(patches: PatchSet, width: int, height: int):
    """Scatter patch values back onto the pixel grid.

    Returns the per-pixel sum of all covering patch entries and the
    per-pixel cover count.  Dividing the two reproduces an image exactly
    where the patch values are consistent.
    """
    s = patches.patch_size
    rows, cols = patches.row_starts, patches.col_starts
    if rows[-1] + s > height or cols[-1] + s > width:
        raise ValueError("patch origins fall outside the target image")
    sums = np.zeros((height, width))
    count = np.zeros((height, width))
    grid = patches.data.reshape(rows.size, cols.size, s, s)
    for a in range(s):
        ridx = rows + a
        for b in range(s):
            sel = np.ix_(ridx, cols + b)
            sums[sel] += grid[:, :, a, b]
            count[sel] += 1.0
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
