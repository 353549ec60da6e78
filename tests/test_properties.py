"""Property tests of the dense sensing path over random shapes and settings.

Images of random (often odd) shapes, block sizes 2-8, rates over the
curve's range and up to five stages: the invariants hold for every draw,
and draws whose stage-1 budget cannot reach every block are rejected with
the documented error rather than failing some other way.  Block sizes are
powers of two, where the BLAS rounds a product's rows the same however
many rows it is given, so a row-by-row reconstruction is held to bit equality.
"""

import math
from functools import cache
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rate_alloc.allocation import uniform_plan
from rate_alloc.imaging import Image, assemble, partition
from rate_alloc.multistage import PREDICTORS, run_simulation
from rate_alloc.sensing import build_matrix, reconstruct_plan, sample_plan

SETTINGS = settings(max_examples=60, deadline=None)
blocks = st.sampled_from([2, 4, 8])
sides = st.integers(1, 41)
seeds = st.integers(0, 2**32 - 1)


@cache
def operator(block):
    return build_matrix(block, 1)


def random_image(seed, h, w) -> Image:
    return Image(np.random.default_rng(seed).random((h, w)))


def round_half_up(x: float) -> int:
    return math.floor(x + 0.5)


@SETTINGS
@given(seed=seeds, h=sides, w=sides, block=blocks)
def test_partition_assemble_round_trip(seed, h, w, block):
    image = random_image(seed, h, w)
    back = assemble(partition(image, block))
    assert np.array_equal(back.pixels, image.pixels)


@SETTINGS
@given(seed=seeds, h=sides, w=sides, block=blocks)
def test_batched_reconstruction_matches_per_block_adjoint(seed, h, w, block):
    image = random_image(seed, h, w)
    grid = partition(image, block)
    matrix = operator(block)
    counts = np.random.default_rng(seed).integers(0, matrix.dim + 1, size=grid.block_count)
    plan = SimpleNamespace(block_size=block, grid_rows=grid.rows, grid_cols=grid.cols)
    recon = reconstruct_plan(plan, sample_plan(grid, counts, matrix), matrix, h, w)

    padded = np.zeros((grid.rows * block, grid.cols * block))
    for i, count in enumerate(counts):
        rows = matrix.rows[:count]
        xh = rows.T @ (rows @ grid.blocks[i].reshape(-1))
        r, c = divmod(i, grid.cols)
        padded[r * block:(r + 1) * block, c * block:(c + 1) * block] = xh.reshape(block, block)
    reference = np.clip(padded[:h, :w], 0.0, 1.0)
    assert np.abs(recon.pixels - reference).max() <= 1e-12


@SETTINGS
@given(seed=seeds, h=sides, w=sides, block=blocks, rate=st.floats(0.01, 1.0),
       stages=st.integers(1, 5), predictor=st.sampled_from(sorted(PREDICTORS)))
def test_simulation_invariants(seed, h, w, block, rate, stages, predictor):
    image = random_image(seed, h, w)
    grid = partition(image, block)
    n, dim, pixels = grid.block_count, block * block, grid.padded_pixel_count
    matrix = operator(block)

    def simulate():
        return run_simulation(image, block, rate, stages, PREDICTORS[predictor](), matrix)

    if stages > 1 and round_half_up(rate / stages * pixels) < n:
        with pytest.raises(ValueError, match="block count"):
            simulate()
        return
    plan = simulate()

    allocated = 0
    cumulative = np.zeros(n, dtype=np.int64)
    for t, state in enumerate(plan.stages, start=1):
        expected_rate = rate / stages if t == 1 else max(t * rate / stages - allocated / pixels, 0.0)
        assert state.stage_rate == pytest.approx(expected_rate, rel=1e-12, abs=1e-15)
        assert state.budget == max(round_half_up(state.stage_rate * pixels), 0)
        assert int(state.stage_M.sum()) == state.budget
        assert state.stage_M.min() >= 0
        if state.problem is not None:
            # the caps over positive target weights leave the program feasible
            assert state.problem.a[state.problem.p > 0].sum() >= 1.0 - 1e-9
        else:
            assert state.diagnostic is None
        cumulative += state.stage_M
        assert np.array_equal(state.cumulative_M, cumulative)
        allocated += state.budget
    assert cumulative.max() <= dim
    assert np.array_equal(plan.final_M, cumulative)
    assert plan.total_measurements == allocated == round_half_up(rate * pixels)
    if stages == 1:
        # a one-stage run is the uniform baseline, padded grids included
        assert np.array_equal(plan.final_M, uniform_plan(image, block, rate).per_block_M)

    records = plan.records
    assert np.array_equal(records.counts, plan.final_M)
    flat = grid.blocks.reshape(n, dim)
    for i, count in enumerate(records.counts):
        reference = matrix.rows[:count] @ flat[i]
        assert np.abs(records.values[i, :count] - reference).max(initial=0.0) <= 1e-12
        assert not records.values[i, count:].any()


@SETTINGS
@given(seed=seeds, h=sides, w=sides, block=blocks, rate=st.floats(0.01, 1.0),
       stages=st.integers(1, 5), predictor=st.sampled_from(sorted(PREDICTORS)))
def test_records_hold_only_the_measured_columns(seed, h, w, block, rate, stages, predictor):
    image = random_image(seed, h, w)
    grid = partition(image, block)
    n, dim = grid.block_count, block * block
    matrix = operator(block)
    counts = np.random.default_rng(seed).integers(0, dim + 1, size=n)
    records = [sample_plan(grid, counts, matrix)]
    if stages == 1 or round_half_up(rate / stages * grid.padded_pixel_count) >= n:
        records.append(run_simulation(image, block, rate, stages, PREDICTORS[predictor](), matrix).records)
    plan = SimpleNamespace(block_size=block, grid_rows=grid.rows, grid_cols=grid.cols)

    for record in records:
        top = int(record.counts.max())
        assert record.values.shape == (n, top)
        assert not record.values[np.arange(top) >= record.counts[:, None]].any()
        # the old wide record and its one adjoint product over the used row prefix
        wide = np.zeros((n, dim))
        wide[:, :top] = record.values
        adjoint = wide[:, :top] @ matrix.rows[:top]
        padded = adjoint.reshape(grid.rows, grid.cols, block, block).swapaxes(1, 2)
        reference = np.clip(padded.reshape(grid.rows * block, grid.cols * block)[:h, :w], 0.0, 1.0)
        assert np.array_equal(reconstruct_plan(plan, record, matrix, h, w).pixels, reference)
