"""Deterministic synthetic images for the test suite.

All generators are seeded or closed-form so every test run sees
bit-identical pixels. Values live on the [0, 255] intensity scale.
"""

import numpy as np

from patchprior import ImageBuffer, extract_patches


def _grid(size):
    r = np.arange(size, dtype=np.float64)
    return np.meshgrid(r, r, indexing="ij")


def make_piecewise_image(size=64):
    """Blocky cartoon: constant regions and a disk on a gentle ramp."""
    rows, cols = _grid(size)
    img = 40.0 + 30.0 * cols / size
    img[(rows < 0.4 * size) & (cols < 0.5 * size)] = 210.0
    img[rows >= 0.65 * size] = 95.0
    disk = (rows - 0.3 * size) ** 2 + (cols - 0.75 * size) ** 2 < (0.16 * size) ** 2
    img[disk] = 165.0
    return ImageBuffer(img)


def make_stripes(size=128, angle_deg=30.0, period=12.0, lo=38.0, hi=218.0):
    """Sinusoidal stripes at a fixed orientation."""
    rows, cols = _grid(size)
    theta = np.deg2rad(angle_deg)
    phase = (np.cos(theta) * rows + np.sin(theta) * cols) / period
    amp, mid = (hi - lo) / 2.0, (hi + lo) / 2.0
    return ImageBuffer(mid + amp * np.sin(2.0 * np.pi * phase))


def make_blobs(size=128, seed=11, n_blobs=25):
    """Soft Gaussian bumps scattered over a dark background."""
    rows, cols = _grid(size)
    rng = np.random.default_rng(seed)
    img = np.full((size, size), 55.0)
    for _ in range(n_blobs):
        cy, cx = rng.uniform(0.0, size, 2)
        amp = rng.uniform(40.0, 150.0)
        width = rng.uniform(4.0, 12.0)
        img += amp * np.exp(-((rows - cy) ** 2 + (cols - cx) ** 2) / (2.0 * width ** 2))
    return ImageBuffer(np.clip(img, 0.0, 255.0))


def make_rectangles(size=128, seed=12, n_rects=18):
    """Overlapping constant rectangles, a piecewise-flat cartoon."""
    rng = np.random.default_rng(seed)
    img = np.full((size, size), 100.0)
    for _ in range(n_rects):
        r0, c0 = rng.integers(0, size - 8, 2)
        h, w = rng.integers(8, max(9, size // 2), 2)
        img[r0:r0 + h, c0:c0 + w] = rng.uniform(20.0, 235.0)
    return ImageBuffer(img)


def make_checker_ramp(size=128, cell=8):
    """Checkerboard riding a vertical ramp."""
    rows, cols = _grid(size)
    img = 60.0 + 90.0 * rows / size + 50.0 * (((rows // cell) + (cols // cell)) % 2)
    return ImageBuffer(img)


def make_corpus(size=128):
    """Five texture families used to train the shared generic prior.

    Covers every texture family the held-out scene contains (both stripe
    orientations included), so a well-trained generic prior is already a
    decent model of held-out scenes and adaptation refines rather than
    discovers.
    """
    return [
        make_stripes(size, angle_deg=30.0, period=12.0),
        make_stripes(size, angle_deg=75.0, period=9.0, lo=53.0, hi=203.0),
        make_blobs(size, seed=11),
        make_rectangles(size, seed=12),
        make_checker_ramp(size),
    ]


def make_smoke_image(size=128):
    """Held-out piecewise-smooth scene: not in the corpus, same world.

    Rectangles plus stripes at an unseen angle and a bright disk, so a
    generic prior does well and adaptation has something left to gain.
    """
    rows, cols = _grid(size)
    img = 70.0 + 40.0 * cols / size
    img[(rows < 0.45 * size) & (cols > 0.35 * size)] = 190.0
    img[(rows > 0.7 * size) & (cols < 0.6 * size)] = 45.0
    band = (rows > 0.45 * size) & (rows < 0.7 * size)
    theta = np.deg2rad(75.0)
    phase = (np.cos(theta) * rows + np.sin(theta) * cols) / 9.0
    img[band] = 128.0 + 75.0 * np.sin(2.0 * np.pi * phase[band])
    disk = (rows - 0.22 * size) ** 2 + (cols - 0.15 * size) ** 2 < (0.12 * size) ** 2
    img[disk] = 230.0
    return ImageBuffer(img)


def corpus_patches(size=128, patch_size=8, stride=1):
    """Stacked patch matrix over the whole corpus."""
    blocks = [extract_patches(img, patch_size, stride) for img in make_corpus(size)]
    return np.concatenate(blocks, axis=0)
