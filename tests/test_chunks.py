"""Full-image passes in chunks: chunk edges change no result, and peak memory stays near the output.

The passes read `imaging._CHUNK` (bytes per chunk) at call time, so
patching it moves every chunk edge without touching the arithmetic.
"""

import tracemalloc
from functools import cache

import numpy as np
import pytest

from rate_alloc import imaging
from rate_alloc.allocation import single_stage_plan
from rate_alloc.analysis import analyze, solve_threshold, sparsity_profile
from rate_alloc.imaging import Image, dct2_blocks, dct_matrix, partition
from rate_alloc.multistage import OracleBoundsPredictor, simulate
from rate_alloc.sensing import build_matrix, psnr, reconstruct_plan, sample_plan

BLOCK_SIZES = (2, 3, 4, 8, 16, 20, 32)
# (height, width) at block size b: 4 x 5 blocks either way, so neither a 3-block
# chunk nor a 15-block one, three whole block rows, divides the block count
SHAPES = {"unpadded": lambda b: (4 * b, 5 * b), "padded": lambda b: (4 * b - 1, 4 * b + 1)}


def image_for(b: int, layout: str) -> Image:
    pixels = np.random.default_rng(b).random(SHAPES[layout](b))
    pixels[:b] = 0.25  # flat blocks: ties and exact zeros among the coefficients
    return Image(pixels)


@pytest.fixture(params=[1, 3, 15], ids=["1 block", "3 blocks", "15 blocks"])
def chunk_blocks(request):
    return request.param


class TestChunkEdges:
    @pytest.mark.parametrize("layout", SHAPES)
    @pytest.mark.parametrize("b", BLOCK_SIZES)
    def test_dct_equals_one_product(self, b, layout, chunk_blocks, monkeypatch):
        # the grid's strided view, against one product over a contiguous copy of its blocks
        blocks = partition(image_for(b, layout), b).blocks
        copy = blocks.reshape(-1, b, b)
        assert blocks.shape[1] % 3 != 0 and not blocks.flags.c_contiguous
        m = dct_matrix(b)
        monkeypatch.setattr(imaging, "_CHUNK", chunk_blocks * copy[0].nbytes)
        assert np.array_equal(dct2_blocks(blocks), m @ copy @ m.T)

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
        monkeypatch.setattr(imaging, "_CHUNK", chunk_blocks * grid.blocks[0, 0].nbytes)
        got = analyze(grid, 0.2)
        assert (got.grid, got.rate, got.target_ratio, got.threshold) == (
            want.grid, want.rate, want.target_ratio, want.threshold)
        assert got.sparsity.overall_ratio == want.sparsity.overall_ratio
        assert np.array_equal(got.sparsity.per_block_k, want.sparsity.per_block_k)
        assert np.array_equal(got.bounds, want.bounds)


BLOCK = 16
# 32 x 32 blocks either way; the padded image leaves 3 pixel rows and 5 columns of padding
SCENES = {"unpadded": (512, 512), "padded": (509, 507)}
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


@cache
def make_scene(layout: str):
    image = Image(np.random.default_rng(9).random(SCENES[layout]))
    grid = partition(image, BLOCK)
    coeffs = dct2_blocks(grid.blocks)
    matrix = build_matrix(BLOCK, seed=1)
    plan = single_stage_plan(image, BLOCK, 0.1)
    return image, grid, coeffs, matrix, plan, sample_plan(grid, plan.per_block_M, matrix)


@pytest.fixture(scope="module")
def scene():
    return make_scene("unpadded")


def test_default_chunks_match_one_pass(scene):
    grid, coeffs = scene[1:3]
    assert grid.blocks.nbytes > 4 * imaging._CHUNK
    m = dct_matrix(BLOCK)
    copy = grid.blocks.reshape(-1, BLOCK, BLOCK)
    assert np.array_equal(coeffs, m @ copy @ m.T)
    threshold = solve_threshold(coeffs, 0.1)
    want = (np.abs(coeffs) > threshold).sum(axis=(1, 2))
    assert np.array_equal(sparsity_profile(coeffs, threshold).per_block_k, want)


class TestPeakMemory:
    """Each pass allocates its output plus at most one chunk of temporaries."""

    def test_partition_copies_once(self):
        for layout in SCENES:
            image, grid = make_scene(layout)[:2]
            peak = peak_bytes(partition, image, BLOCK)
            # a padded grid is zeroed once and the pixels copied in; a grid of whole blocks copies none
            assert peak <= grid.blocks.nbytes + SLACK, layout

    def test_unpadded_partition_copies_nothing(self):
        image = make_scene("unpadded")[0]
        assert peak_bytes(partition, image, BLOCK) <= SLACK

    def test_analysis_holds_no_image_sized_copy(self):
        image, _, coeffs = make_scene("unpadded")[:3]
        tracemalloc.start()
        try:
            result = analyze(partition(image, BLOCK), 0.1)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the coefficients are the one image-sized array; the grid holds the image's own pixels
        assert peak < 1.5 * coeffs.nbytes
        assert held < 0.1 * coeffs.nbytes
        assert result.grid.pixels is image.pixels

    def test_dct_output_plus_chunk(self, scene):
        grid = scene[1]
        peak = peak_bytes(dct2_blocks, grid.blocks)
        assert peak <= grid.blocks.nbytes + imaging._CHUNK + SLACK

    def test_sparsity_counts_need_one_chunk(self, scene):
        coeffs = scene[2]
        peak = peak_bytes(sparsity_profile, coeffs, 0.01)
        assert peak <= len(coeffs) * 8 + imaging._CHUNK + SLACK

    def test_threshold_search_copies_nothing_image_sized(self):
        for layout in SCENES:
            coeffs = make_scene(layout)[2]
            peak = peak_bytes(solve_threshold, coeffs, 0.1)
            # one chunk of magnitudes, the sample and the gathered window, far below one image
            assert peak < coeffs.nbytes // 2, layout

    def test_sample_plan_first_call_adds_one_block_copy(self):
        for layout in SCENES:
            _, grid, _, matrix, plan, _ = make_scene(layout)
            peak = peak_bytes(sample_plan, grid, plan.per_block_M, matrix)
            # every call copies the blocks into (blocks, B^2) rows and drops the copy on return;
            # beside it, the (blocks, top) product is the output, with its bool mask, whose
            # broadcast compare takes SLACK's 128 KiB of buffers and the small arrays 4 KiB more
            product = grid.block_count * int(plan.per_block_M.max()) * 8
            assert peak <= grid.pixels.nbytes + product + product // 8 + SLACK + (1 << 12), layout

    def test_simulate_leaves_no_block_copy_behind(self):
        for layout in SCENES:
            image, _, _, matrix, plan, _ = make_scene(layout)
            result = analyze(partition(image, BLOCK), 0.1)
            runs = {"simulate": lambda: simulate(result, 2, OracleBoundsPredictor(), matrix),
                    "sample_plan": lambda: sample_plan(result.grid, plan.per_block_M, matrix)}
            for name, run in runs.items():
                tracemalloc.start()
                try:
                    run()
                    held = tracemalloc.get_traced_memory()[0]
                finally:
                    tracemalloc.stop()
                # far below one image: the block-order copy went with the call
                assert held < result.grid.pixels.nbytes // 2, (layout, name)

    def test_operator_build_holds_two_copies(self):
        # the QR runs in the draw's own buffer; the Gram check's product is the second copy
        rows_bytes = (32 * 32) ** 2 * 8
        assert peak_bytes(build_matrix, 32, 1) <= 2.5 * rows_bytes

    def test_psnr_sums_chunk_by_chunk(self):
        image = make_scene("unpadded")[0]
        other = Image(image.pixels[::-1])
        assert peak_bytes(psnr, image, other) <= imaging._CHUNK + SLACK

    def test_reconstruct_holds_blocks_and_image(self):
        for layout in SCENES:
            image, grid, _, matrix, plan, measurements = make_scene(layout)
            peak = peak_bytes(reconstruct_plan, plan, measurements, matrix, image.height, image.width)
            # the output image, then a block row's adjoint and its pixel-row copy in image order
            row = grid.cols * BLOCK * BLOCK * 8
            assert peak <= image.pixels.nbytes + 2 * row + SLACK, layout
