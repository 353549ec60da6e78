"""Full-image passes in chunks: chunk edges change no result, and peak memory stays near the output.

The passes read `imaging._CHUNK` (bytes per chunk) at call time, so
patching it moves every chunk edge without touching the arithmetic.
"""

import tracemalloc

import numpy as np
import pytest

from rate_alloc import imaging
from rate_alloc.allocation import single_stage_plan
from rate_alloc.analysis import analyze, solve_threshold, sparsity_profile
from rate_alloc.imaging import Image, assemble, dct2_blocks, dct_matrix, partition
from rate_alloc.sensing import build_matrix, reconstruct_plan, sample_plan

BLOCK_SIZES = (2, 4, 8, 16, 32)
# (height, width) at block size b: 4 x 5 blocks either way, so a 3-block
# chunk never divides the block count
SHAPES = {"unpadded": lambda b: (4 * b, 5 * b), "padded": lambda b: (4 * b - 1, 4 * b + 1)}


def image_for(b: int, layout: str) -> Image:
    pixels = np.random.default_rng(b).random(SHAPES[layout](b))
    pixels[:b] = 0.25  # flat blocks: ties and exact zeros among the coefficients
    return Image(pixels)


@pytest.fixture(params=[1, 3], ids=["1 block", "3 blocks"])
def chunk_blocks(request):
    return request.param


class TestChunkEdges:
    @pytest.mark.parametrize("layout", SHAPES)
    @pytest.mark.parametrize("b", BLOCK_SIZES)
    def test_dct_equals_one_product(self, b, layout, chunk_blocks, monkeypatch):
        blocks = partition(image_for(b, layout), b).blocks
        assert len(blocks) % 3 != 0
        m = dct_matrix(b)
        monkeypatch.setattr(imaging, "_CHUNK", chunk_blocks * blocks[0].nbytes)
        assert np.array_equal(dct2_blocks(blocks), m @ blocks @ m.T)

    @pytest.mark.parametrize("layout", SHAPES)
    @pytest.mark.parametrize("b", BLOCK_SIZES)
    def test_sparsity_counts_equal_one_pass(self, b, layout, chunk_blocks, monkeypatch):
        coeffs = dct2_blocks(partition(image_for(b, layout), b).blocks)
        monkeypatch.setattr(imaging, "_CHUNK", chunk_blocks * coeffs[0].nbytes)
        for threshold in (0.0, solve_threshold(coeffs, 0.1), float(np.median(np.abs(coeffs)))):
            want = (np.abs(coeffs) > threshold).sum(axis=(1, 2))
            profile = sparsity_profile(coeffs, threshold)
            assert np.array_equal(profile.per_block_k, want)
            assert profile.overall_ratio == float(want.sum() / coeffs.size)

    @pytest.mark.parametrize("layout", SHAPES)
    @pytest.mark.parametrize("b", BLOCK_SIZES)
    def test_analysis_unchanged(self, b, layout, chunk_blocks, monkeypatch):
        grid = partition(image_for(b, layout), b)
        want = analyze(grid, 0.2)  # these images fit in one default chunk
        assert grid.blocks.nbytes <= imaging._CHUNK
        monkeypatch.setattr(imaging, "_CHUNK", chunk_blocks * grid.blocks[0].nbytes)
        got = analyze(grid, 0.2)
        assert (got.grid, got.rate, got.target_ratio, got.threshold) == (
            want.grid, want.rate, want.target_ratio, want.threshold)
        assert got.sparsity.overall_ratio == want.sparsity.overall_ratio
        assert np.array_equal(got.sparsity.per_block_k, want.sparsity.per_block_k)
        assert np.array_equal(got.bounds, want.bounds)


SIDE, BLOCK = 512, 16
# allowance for ufunc buffers and small arrays, in bytes
SLACK = 1 << 17


def peak_bytes(fn, *args) -> int:
    """Peak bytes numpy and Python allocate during fn(*args), its result included."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def scene():
    image = Image(np.random.default_rng(9).random((SIDE, SIDE)))
    grid = partition(image, BLOCK)
    coeffs = dct2_blocks(grid.blocks)
    matrix = build_matrix(BLOCK, seed=1)
    plan = single_stage_plan(image, BLOCK, 0.1)
    return image, grid, coeffs, matrix, plan, sample_plan(grid, plan.per_block_M, matrix)


def test_default_chunks_match_one_pass(scene):
    grid, coeffs = scene[1:3]
    assert grid.blocks.nbytes > 4 * imaging._CHUNK
    m = dct_matrix(BLOCK)
    assert np.array_equal(coeffs, m @ grid.blocks @ m.T)
    threshold = solve_threshold(coeffs, 0.1)
    want = (np.abs(coeffs) > threshold).sum(axis=(1, 2))
    assert np.array_equal(sparsity_profile(coeffs, threshold).per_block_k, want)


class TestPeakMemory:
    """Each pass allocates its output plus at most one chunk of temporaries."""

    def test_partition_copies_once(self, scene):
        image = scene[0]
        peak = peak_bytes(partition, image, BLOCK)
        assert peak <= image.pixels.nbytes + SLACK

    def test_dct_output_plus_chunk(self, scene):
        grid = scene[1]
        peak = peak_bytes(dct2_blocks, grid.blocks)
        assert peak <= grid.blocks.nbytes + imaging._CHUNK + SLACK

    def test_sparsity_counts_need_one_chunk(self, scene):
        coeffs = scene[2]
        peak = peak_bytes(sparsity_profile, coeffs, 0.01)
        assert peak <= len(coeffs) * 8 + imaging._CHUNK + SLACK

    def test_assemble_copies_once(self, scene):
        image, grid = scene[:2]
        peak = peak_bytes(assemble, grid)
        assert peak <= image.pixels.nbytes + SLACK

    def test_sample_plan_output_plus_product_and_mask(self, scene):
        image, grid, _, matrix, plan, _ = scene
        peak = peak_bytes(sample_plan, grid, plan.per_block_M, matrix)
        # the (blocks, top) product and its bool mask, on top of the (blocks, B^2) output
        product = grid.block_count * int(plan.per_block_M.max()) * 8
        assert peak <= image.pixels.nbytes + product + product // 8 + SLACK

    def test_reconstruct_holds_blocks_and_image(self, scene):
        image, _, _, matrix, plan, measurements = scene
        peak = peak_bytes(reconstruct_plan, plan, measurements, matrix, SIDE, SIDE)
        # the adjoint's (blocks, B^2) array, then the assembled image
        assert peak <= 2 * image.pixels.nbytes + SLACK
