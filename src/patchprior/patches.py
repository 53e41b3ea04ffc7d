"""Image container, overlapping patch operators, noise synthesis, PSNR.

Patches are (n, d) matrices, one flattened square patch per row, taken
at origins on a regular grid: every stride-th offset plus a final origin
flush with each border, so the whole image is always covered.  Neither
operator loops over patches: extraction copies one strided block of the
window view per pair of origin runs, and accumulation rebuilds the grid
and adds one strided slice per patch pixel and block of output rows
(plus one for the flush origin).
"""

from __future__ import annotations

import dataclasses
import math
import operator

import numpy as np

__all__ = [
    "ImageBuffer",
    "PSNR_CAP",
    "extract_patches",
    "accumulate_patches",
    "add_gaussian_noise",
    "psnr",
]

PSNR_CAP = 99.0
_PEAK = 255.0
# Patch-matrix bytes read per block of output rows in accumulate_patches:
# with 8x8 patches at stride 1, 16 rows at 128 wide and 8 at 256 wide,
# which measured fastest.
_AGGREGATE_BYTES = 2 ** 20


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


def _patch_side(dim: int) -> int:
    """Side of a square patch of ``dim`` pixels; any other ``dim`` is an error."""
    side = math.isqrt(dim)
    if side < 1 or side * side != dim:
        raise ValueError(f"dimension {dim} is not a square patch")
    return side


def _coverage_starts(extent: int, patch_size: int, stride: int) -> np.ndarray:
    """Patch origins along one image axis."""
    if stride < 1:
        raise ValueError("stride must be positive")
    if not 1 <= patch_size <= extent:
        raise ValueError(f"patch size {patch_size} does not fit an image side of {extent}")
    last = extent - patch_size
    starts = list(range(0, last + 1, stride))
    if starts[-1] != last:
        starts.append(last)
    return np.asarray(starts, dtype=np.intp)


def _runs(starts: np.ndarray, stride: int):
    """Split increasing origins into runs spaced ``stride`` apart, as
    (index slice, first origin, last origin + 1): one run on a grid that
    ends flush, two when the flush origin is off the stride."""
    cuts = [0, *(np.flatnonzero(np.diff(starts) != stride) + 1).tolist(), starts.size]
    return [(slice(i, j), int(starts[i]), int(starts[j - 1]) + 1)
            for i, j in zip(cuts[:-1], cuts[1:])]


def extract_patches(image: ImageBuffer, patch_size: int, stride: int = 1) -> np.ndarray:
    """Slide a patch_size window over the image at the given stride.

    A final row and column of origins is added whenever the stride does
    not land flush on the border, so every pixel belongs to at least one
    patch.  Returns a fresh C-contiguous (n, patch_size**2) float64
    matrix whose rows run over the origins row-major; it never shares
    memory with the image.  Each pair of origin runs is copied from the
    window view as one strided block.
    """
    s, stride = _integer("patch_size", patch_size), _integer("stride", stride)
    rows = _coverage_starts(image.height, s, stride)
    cols = _coverage_starts(image.width, s, stride)
    view = np.lib.stride_tricks.sliding_window_view(image.pixels, (s, s))
    grid = np.empty((rows.size, cols.size, s, s))
    for ri, r0, r1 in _runs(rows, stride):
        for ci, c0, c1 in _runs(cols, stride):
            grid[ri, ci] = view[r0:r1:stride, c0:c1:stride]
    return grid.reshape(rows.size * cols.size, s * s)


def _window_norms(pixels, side: int) -> np.ndarray:
    """The Euclidean norm of every stride-1 ``side`` x ``side`` window of a
    2-D array, in the row order of ``extract_patches``: sums of ``side``
    squares along the rows, then down the columns, so each norm is within
    a relative gamma_{2 side + 2} of the exact one, all terms being
    nonnegative."""
    windows = np.lib.stride_tricks.sliding_window_view
    rows = windows(np.square(pixels), side, axis=0).sum(axis=-1)
    return np.sqrt(windows(rows, side, axis=1).sum(axis=-1)).ravel()


def _cover(starts: np.ndarray, patch_size: int, extent: int) -> np.ndarray:
    """How many patches along one axis cover each pixel."""
    return np.bincount((starts[:, None] + np.arange(patch_size)).ravel(), minlength=extent)


def accumulate_patches(values, width: int, height: int, stride: int = 1):
    """Scatter patch values, laid out as ``extract_patches`` returns them for
    an image of this extent and stride, back onto the pixel grid.

    Returns the per-pixel sum of all covering patch entries and the
    per-pixel cover count.  Dividing the two reproduces an image exactly
    where the patch values are consistent.  The sum walks blocks of output
    rows, each reading about ``_AGGREGATE_BYTES`` of patch rows so that
    the strided column reads stay in cache; within a block each patch
    pixel (a, b) adds one strided slice per run of origins, so every pixel
    sums its terms in (a, b) order.  The cover is the outer product of the
    row and column covers.
    """
    x = np.asarray(values, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"expected an (n, d) patch matrix, got shape {x.shape}")
    s, stride = _patch_side(x.shape[1]), _integer("stride", stride)
    rows = _coverage_starts(height, s, stride)
    cols = _coverage_starts(width, s, stride)
    if x.shape[0] != rows.size * cols.size:
        raise ValueError(f"{x.shape[0]} patches do not match the {rows.size}x{cols.size} "
                         f"origin grid of a {height}x{width} image at stride {stride}")
    sums = np.zeros((height, width))
    grid = x.reshape(rows.size, cols.size, s, s)
    row_runs, col_runs = _runs(rows, stride), _runs(cols, stride)
    block = max(1, _AGGREGATE_BYTES // (cols.size * x.shape[1] * x.itemsize))
    for y0 in range(0, height, block):
        y1 = min(y0 + block, height)
        for a in range(s):
            for ri, r0, _ in row_runs:
                # the run's origins r0 + m stride with y0 <= r0 + m stride + a < y1
                lo = max(0, -((r0 + a - y0) // stride))
                hi = min(ri.stop - ri.start, -((r0 + a - y1) // stride))
                if lo >= hi:
                    continue
                out = sums[r0 + a + lo * stride:r0 + a + hi * stride:stride]
                src = grid[ri.start + lo:ri.start + hi, :, a]
                for b in range(s):
                    for ci, c0, c1 in col_runs:
                        out[:, c0 + b:c1 + b:stride] += src[:, ci, b]
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


def _integer(name: str, value) -> int:
    """``value`` as an int; a ValueError naming ``name`` for a non-integer."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _check_sigma(sigma) -> None:
    """Raise ValueError unless sigma > 0 and both sigma ** 2 and its
    reciprocal are finite floats: sigma from about 7.5e-155 to 1.3e154."""
    with np.errstate(over="ignore"):
        square = np.float64(sigma) ** 2
        if not (sigma > 0 and 0 < square < np.inf and 1.0 / square < np.inf):
            raise ValueError(f"sigma must be positive and finite, and so must sigma ** 2 "
                             f"and its reciprocal; got {sigma!r}")


def psnr(reference: ImageBuffer, test: ImageBuffer) -> float:
    """Peak signal-to-noise ratio in dB against a 255 peak, capped at 99."""
    if reference.pixels.shape != test.pixels.shape:
        raise ValueError("images have different shapes")
    mse = float(((reference.pixels - test.pixels) ** 2).mean())
    if mse == 0.0:
        return PSNR_CAP
    return min(PSNR_CAP, float(10.0 * np.log10(_PEAK * _PEAK / mse)))
