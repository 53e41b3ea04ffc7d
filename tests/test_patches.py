"""Patch grid, overlap accumulation, noise synthesis, PSNR, PGM files."""

import tracemalloc

import numpy as np
import pytest

import patchprior.patches as patches_module
from patchprior import (
    PSNR_CAP,
    ImageBuffer,
    PgmError,
    accumulate_patches,
    add_gaussian_noise,
    extract_patches,
    psnr,
    read_pgm,
    write_pgm,
)


def reconstruct(patches, width, height, stride):
    sums, counts = accumulate_patches(patches, width, height, stride)
    return sums.pixels / counts.pixels


def grid_origins(extent, size, stride):
    """Every stride-th offset, plus the origin flush with the far border."""
    return sorted(set(range(0, extent - size + 1, stride)) | {extent - size})


# (height, width, size, stride): flush and non-flush borders, one origin
# row, and a patch as large as the image.
GRIDS = pytest.mark.parametrize("height,width,size,stride", [
    (19, 13, 5, 1), (23, 11, 4, 3), (20, 12, 4, 4), (17, 23, 4, 4),
    (5, 13, 5, 1), (4, 17, 4, 3), (6, 6, 6, 1), (6, 6, 6, 3), (6, 9, 6, 2),
    (19, 17, 4, 2), (22, 16, 5, 3),
], ids=["stride-1", "stride-3-flush", "stride-is-size", "stride-is-size-flush",
        "one-origin-row", "one-origin-row-stride-3", "patch-is-image",
        "patch-is-image-stride-3", "patch-is-height-stride-2",
        "stride-2-flush", "stride-3-flush-both"])


def block_rows(width, size, stride):
    """Output rows per block of accumulate_patches at this width."""
    cols = len(grid_origins(width, size, stride))
    return max(1, patches_module._AGGREGATE_BYTES // (cols * size * size * 8))


def assert_matches_per_patch_loop(height, width, size, stride):
    rng = np.random.default_rng(height * width + stride)
    rows = grid_origins(height, size, stride)
    cols = grid_origins(width, size, stride)
    values = rng.uniform(-300.0, 300.0, (len(rows) * len(cols), size * size))
    sums, counts = accumulate_patches(values, width, height, stride)
    # each pixel adds its terms in patch-pixel order, i.e. from the
    # last covering origin to the first, so walk the origins backwards
    expect_sums = np.zeros((height, width))
    expect_counts = np.zeros((height, width))
    grid = values.reshape(len(rows), len(cols), size, size)
    for i in reversed(range(len(rows))):
        for j in reversed(range(len(cols))):
            r, c = rows[i], cols[j]
            expect_sums[r:r + size, c:c + size] += grid[i, j]
            expect_counts[r:r + size, c:c + size] += 1.0
    assert np.array_equal(sums.pixels, expect_sums)
    assert np.array_equal(counts.pixels, expect_counts)


class TestExtraction:
    def test_grid_counts_with_flush_origin(self):
        img = ImageBuffer(np.arange(100, dtype=np.float64).reshape(10, 10))
        ps = extract_patches(img, 8, stride=8)
        # origins 0 and the forced final 2, per axis
        assert ps.shape == (4, 64)
        assert np.array_equal(ps[-1], img.pixels[2:10, 2:10].ravel())

    def test_stride_one_dense_grid(self):
        img = ImageBuffer(np.zeros((64, 64)))
        ps = extract_patches(img, 8, stride=1)
        assert ps.shape == (57 * 57, 64)
        assert ps.dtype == np.float64 and ps.flags.c_contiguous

    def test_patch_rows_are_row_major_pixels(self):
        img = ImageBuffer(np.arange(25, dtype=np.float64).reshape(5, 5))
        ps = extract_patches(img, 2, stride=3)
        # top-left patch covers pixels (0,0),(0,1),(1,0),(1,1)
        assert list(ps[0]) == [0.0, 1.0, 5.0, 6.0]
        # final flush origin is 3 on both axes
        assert list(ps[-1]) == [18.0, 19.0, 23.0, 24.0]

    @GRIDS
    def test_matches_per_origin_loop(self, height, width, size, stride):
        rng = np.random.default_rng(height * width + stride)
        img = ImageBuffer(rng.uniform(0.0, 255.0, (height, width)))
        expect = [img.pixels[r:r + size, c:c + size].ravel()
                  for r in grid_origins(height, size, stride)
                  for c in grid_origins(width, size, stride)]
        ps = extract_patches(img, size, stride)
        assert ps.flags.c_contiguous
        assert np.array_equal(ps, np.array(expect))

    @pytest.mark.parametrize("height,width,size,stride", [
        (10, 10, 8, 1), (8, 8, 8, 1), (8, 8, 8, 5), (7, 9, 7, 1), (9, 7, 7, 3),
    ])
    def test_never_aliases_the_image(self, height, width, size, stride):
        # the denoiser writes its Wiener estimates into the patch matrix
        img = ImageBuffer(np.arange(height * width, dtype=np.float64).reshape(height, width))
        ps = extract_patches(img, size, stride)
        assert not np.shares_memory(ps, img.pixels)
        assert ps.flags.writeable
        ps[:] = -1.0
        assert img.pixels.min() == 0.0

    @pytest.mark.parametrize("height,width,size", [(19, 13, 5), (6, 6, 6), (24, 31, 8)])
    def test_window_norms_are_the_stride_one_row_norms(self, height, width, size):
        # the SURE probe's certificate bounds how far each patch moved by these
        pixels = np.random.default_rng(height + width).uniform(-300.0, 300.0, (height, width))
        expect = np.linalg.norm(extract_patches(ImageBuffer(pixels), size, 1), axis=1)
        got = patches_module._window_norms(pixels, size)
        assert got.shape == expect.shape
        assert np.allclose(got, expect, rtol=1e-14, atol=0.0)

    def test_rejects_patch_larger_than_image(self):
        img = ImageBuffer(np.zeros((5, 5)))
        with pytest.raises(ValueError):
            extract_patches(img, 8, stride=1)


class TestAccumulation:
    @pytest.mark.parametrize("size,stride", [(10, 1), (10, 3), (17, 8), (24, 5)])
    def test_round_trip_average_recovers_image(self, size, stride):
        rng = np.random.default_rng(size * 100 + stride)
        img = ImageBuffer(rng.uniform(0.0, 255.0, (size, size)))
        ps = extract_patches(img, min(8, size), stride=stride)
        back = reconstruct(ps, size, size, stride)
        assert np.max(np.abs(back - img.pixels)) <= 1e-12

    def test_round_trip_rectangular(self):
        rng = np.random.default_rng(0)
        img = ImageBuffer(rng.uniform(0.0, 255.0, (13, 21)))
        ps = extract_patches(img, 4, stride=3)
        back = reconstruct(ps, 21, 13, 3)
        assert np.max(np.abs(back - img.pixels)) <= 1e-12

    def test_interior_coverage_at_stride_one(self):
        img = ImageBuffer(np.zeros((20, 20)))
        ps = extract_patches(img, 4, stride=1)
        _, counts = accumulate_patches(ps, 20, 20)
        # every pixel at least patch_size away from each border sits in s^2 patches
        assert np.all(counts.pixels[4:-4, 4:-4] == 16.0)
        assert counts.pixels[0, 0] == 1.0

    def test_counts_positive_everywhere(self):
        img = ImageBuffer(np.zeros((11, 23)))
        ps = extract_patches(img, 5, stride=4)
        _, counts = accumulate_patches(ps, 23, 11, stride=4)
        assert counts.pixels.min() >= 1.0

    @GRIDS
    def test_matches_per_patch_loop_bit_for_bit(self, height, width, size, stride):
        assert_matches_per_patch_loop(height, width, size, stride)

    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("offset", [-1, 0, 1, None])
    def test_row_block_edges_bit_for_bit(self, offset, stride):
        # heights either side of one block of output rows, and past two
        width, size = 40, 8
        block = block_rows(width, size, stride)
        assert block > size  # a block edge splits the patches that cross it
        height = 2 * block + 3 if offset is None else block + offset
        assert_matches_per_patch_loop(height, width, size, stride)

    @pytest.mark.parametrize("stride", [1, 3])
    def test_one_row_blocks_bit_for_bit(self, monkeypatch, stride):
        # a row wider than the block budget gets one output row per block
        monkeypatch.setattr(patches_module, "_AGGREGATE_BYTES", 1)
        assert block_rows(17, 4, stride) == 1
        assert_matches_per_patch_loop(19, 17, 4, stride)

    def test_rejects_row_count_off_the_grid(self):
        # a 10x10 image at patch size 4 and stride 3 has a 3x3 origin grid
        with pytest.raises(ValueError, match="grid"):
            accumulate_patches(np.zeros((8, 16)), 10, 10, stride=3)
        with pytest.raises(ValueError, match="grid"):
            accumulate_patches(np.zeros((9, 16)), 10, 10, stride=1)

    @pytest.mark.parametrize("d", [0, 2, 15])
    def test_rejects_non_square_patch_dimension(self, d):
        with pytest.raises(ValueError, match="square"):
            accumulate_patches(np.zeros((4, d)), 10, 10)


class TestNoise:
    def test_sigma_zero_is_bitwise_copy(self):
        rng = np.random.default_rng(1)
        img = ImageBuffer(rng.uniform(0.0, 255.0, (16, 16)))
        out = add_gaussian_noise(img, 0.0, seed=7)
        assert np.array_equal(out.pixels, img.pixels)

    def test_seeded_and_deterministic(self):
        img = ImageBuffer(np.full((32, 32), 128.0))
        a = add_gaussian_noise(img, 20.0, seed=3)
        b = add_gaussian_noise(img, 20.0, seed=3)
        c = add_gaussian_noise(img, 20.0, seed=4)
        assert np.array_equal(a.pixels, b.pixels)
        assert not np.array_equal(a.pixels, c.pixels)

    def test_moments_match_large_sample(self):
        img = ImageBuffer(np.full((400, 400), 100.0))
        out = add_gaussian_noise(img, 20.0, seed=5)
        w = out.pixels - 100.0
        assert abs(w.mean()) < 0.5
        assert abs(w.std() - 20.0) < 0.5


class TestPsnr:
    def test_cap_for_identical_images(self):
        img = ImageBuffer(np.full((8, 8), 42.0))
        assert psnr(img, img) == PSNR_CAP == 99.0

    def test_known_value_at_unit_mse(self):
        a = ImageBuffer(np.zeros((10, 10)))
        b = ImageBuffer(np.ones((10, 10)))
        assert psnr(a, b) == pytest.approx(48.1308, abs=1e-4)

    def test_peak_scale_value(self):
        a = ImageBuffer(np.zeros((4, 4)))
        b = ImageBuffer(np.full((4, 4), 255.0))
        assert psnr(a, b) == pytest.approx(0.0, abs=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            psnr(ImageBuffer(np.zeros((4, 4))), ImageBuffer(np.zeros((4, 5))))


class TestImageBuffer:
    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            ImageBuffer(np.zeros(5))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            ImageBuffer(np.array([[np.nan, 0.0]]))

    def test_pixels_frozen(self):
        img = ImageBuffer(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            img.pixels[0, 0] = 1.0


# An ASCII header announcing a 100000 x 100000 raster, followed by 3 samples.
PGM_BOMB = b"P2\n100000 100000\n255\n1 2 3\n"


class TestPgm:
    def test_binary_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        img = ImageBuffer(np.round(rng.uniform(0.0, 255.0, (9, 14))))
        path = tmp_path / "img.pgm"
        write_pgm(img, path)
        back = read_pgm(path)
        assert np.array_equal(back.pixels, img.pixels)

    def test_write_clamps_and_rounds(self, tmp_path):
        img = ImageBuffer(np.array([[-3.2, 0.4], [254.6, 300.0]]))
        path = tmp_path / "img.pgm"
        write_pgm(img, path)
        back = read_pgm(path)
        assert np.array_equal(back.pixels, [[0.0, 0.0], [255.0, 300.0 - 45.0]])

    def test_reads_ascii_variant(self, tmp_path):
        path = tmp_path / "a.pgm"
        path.write_bytes(b"P2\n# comment line\n3 2\n255\n0 10 20\n30 40 255\n")
        img = read_pgm(path)
        assert img.pixels.shape == (2, 3)
        assert img.pixels[1, 2] == 255.0

    def test_binary_header_comments(self, tmp_path):
        payload = bytes(range(6))
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# one\n# two\n3 2\n255\n" + payload)
        img = read_pgm(path)
        assert img.pixels.shape == (2, 3)
        assert img.pixels[0, 0] == 0.0 and img.pixels[1, 2] == 5.0

    def test_rejects_wrong_maxval(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
        with pytest.raises(PgmError):
            read_pgm(path)

    def test_rejects_truncated_raster(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + bytes(10))
        with pytest.raises(PgmError):
            read_pgm(path)

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "b.pgm"
        path.write_bytes(b"P6\n2 2\n255\n" + bytes(12))
        with pytest.raises(PgmError):
            read_pgm(path)

    def test_rejects_out_of_range_ascii(self, tmp_path):
        path = tmp_path / "r.pgm"
        path.write_bytes(b"P2\n2 1\n255\n12 999\n")
        with pytest.raises(PgmError):
            read_pgm(path)

    def test_ascii_header_larger_than_file_fails_before_allocating(self, tmp_path):
        # 10^10 samples would take 74.5 GiB as float64, and the file cannot hold them
        path = tmp_path / "bomb.pgm"
        path.write_bytes(PGM_BOMB)
        tracemalloc.start()
        try:
            with pytest.raises(PgmError):
                read_pgm(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_ascii_single_sample_without_trailing_newline(self, tmp_path):
        path = tmp_path / "one.pgm"
        path.write_bytes(b"P2\n1 1\n255\n7")
        assert read_pgm(path).pixels.tolist() == [[7.0]]
