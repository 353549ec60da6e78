"""Seeded orthonormal measurement operator and the linear baseline decoder.

The operator is a B^2 x B^2 matrix with orthonormal rows, built
deterministically from a seed: a standard-normal draw from numpy's PCG64
generator (ziggurat normal variates), orthonormalized by Householder QR,
with each row's sign fixed so its first nonzero entry is positive.  Rows
are consumed in native order, so "the next M rows" needs no extra state
across sampling stages, and the adjoint of the used rows is an exact
orthogonal projection, which makes reconstruction errors easy to reason
about.  Blocks that receive no measurements reconstruct to zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .imaging import BlockGrid, Image, assemble

# the build holds about five dim^2 float64 arrays: 640 MiB at B=64, 10 GiB at B=128
_MAX_BLOCK_SIZE = 64


@dataclass(frozen=True)
class MeasurementMatrix:
    """Orthonormal-row operator, reproducible from its block size and seed."""

    dim: int
    rows: np.ndarray

    def __post_init__(self):
        rows = np.ascontiguousarray(self.rows, dtype=np.float64)
        if rows.shape != (self.dim, self.dim):
            raise ValueError("operator must be square of side dim")
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)


@dataclass(frozen=True)
class Measurements:
    """Every block's measurements, one row per block.

    values[i, :counts[i]] are rows 1..counts[i] of the operator applied to
    block i; `values` is (blocks, dim) and exactly zero beyond each count,
    and `counts` is int64 with each count in [0, dim].
    """

    values: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        counts = np.asarray(self.counts, dtype=np.int64)
        if values.ndim != 2 or counts.shape != values.shape[:1]:
            raise ValueError(f"values {values.shape} need one count per row, not {counts.shape}")
        if counts.size and (counts.min() < 0 or counts.max() > values.shape[1]):
            raise ValueError(f"counts must lie in [0, {values.shape[1]}]")
        if np.any(values, where=np.arange(values.shape[1]) >= counts[:, None]):
            raise ValueError("values beyond a block's count must be zero")
        for arr in (values, counts):
            arr.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "counts", counts)


def build_matrix(block_size: int, seed: int) -> MeasurementMatrix:
    """Deterministic orthonormal-row operator for B x B blocks.

    Generator: numpy PCG64 seeded with `seed`, standard_normal draws in
    C order; rows orthonormalized by QR of the transpose and sign-fixed.
    Retries with seed+1 (at most 8 times) on a rank-deficient draw.  A
    negative seed or a block size above 64 raises ValueError before the draw.
    """
    if block_size < 2:
        raise ValueError("block size must be at least 2")
    if block_size > _MAX_BLOCK_SIZE:
        raise ValueError(f"block size {block_size} is above the operator limit of {_MAX_BLOCK_SIZE}")
    if seed < 0:
        raise ValueError(f"operator seed {seed} must be non-negative")
    dim = block_size * block_size
    for attempt in range(9):
        rng = np.random.Generator(np.random.PCG64(seed + attempt))
        gauss = rng.standard_normal((dim, dim))
        q, _ = np.linalg.qr(gauss.T)
        rows = q.T
        # sign convention: first nonzero entry of each row positive
        first = rows[np.arange(dim), np.argmax(rows != 0, axis=1)]
        rows[first < 0] *= -1.0
        gram_err = np.abs(rows @ rows.T - np.eye(dim)).max()
        if gram_err <= 1e-9:
            return MeasurementMatrix(dim=dim, rows=rows)
    raise RuntimeError(f"rank-deficient draws for seeds {seed}..{seed + 8}")


def sample_rows(
    matrix: MeasurementMatrix, row_start: int, row_end: int, block_vector: np.ndarray
) -> np.ndarray:
    """Rows row_start..row_end (1-based) applied to a (blocks, dim) batch, one row per block."""
    if not (1 <= row_start and row_start - 1 <= row_end <= matrix.dim):
        raise ValueError(f"row range {row_start}..{row_end} out of bounds")
    x = np.asarray(block_vector, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != matrix.dim:
        raise ValueError(f"blocks of shape {x.shape} are not a (blocks, {matrix.dim}) batch")
    return x @ matrix.rows[row_start - 1 : row_end].T


def adjoint_reconstruct(
    matrix: MeasurementMatrix, row_start: int, row_end: int, values: np.ndarray
) -> np.ndarray:
    """Adjoint of the used rows: the projection of x onto their span.

    `values` is a (blocks, rows) batch; the result holds one projection per block.
    """
    if not (1 <= row_start and row_start - 1 <= row_end <= matrix.dim):
        raise ValueError(f"row range {row_start}..{row_end} out of bounds")
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2 or values.shape[1] != row_end - row_start + 1:
        raise ValueError(f"values of shape {values.shape} are not a (blocks, rows) batch")
    return values @ matrix.rows[row_start - 1 : row_end]


def sample_plan(grid: BlockGrid, per_block_M, matrix: MeasurementMatrix) -> Measurements:
    """Single-stage sampling: rows 1..M_i of the operator per block."""
    counts = np.asarray(per_block_M, dtype=np.int64)
    if counts.shape != (grid.block_count,):
        raise ValueError("one count per block required")
    values = np.zeros((grid.block_count, matrix.dim))
    top = int(counts.max(initial=0))
    values[:, :top] = sample_rows(matrix, 1, top, grid.blocks.reshape(grid.block_count, -1))
    values[:, :top][np.arange(top) >= counts[:, None]] = 0.0
    return Measurements(values, counts)


def reconstruct_plan(plan, measurements: Measurements, matrix: MeasurementMatrix,
                     original_h: int, original_w: int) -> Image:
    """Adjoint-reconstruct every block of a plan and reassemble the image.

    `plan` only needs block_size / grid_rows / grid_cols attributes, so
    both single-stage and multi-stage plans work.  Values are zero beyond
    each block's count, so one product over the used row prefix is the
    per-block adjoint of every block at once.  An operator of another
    block size, or a height or width the plan's grid could not have been
    cut from, raises ValueError before the product.
    """
    b = plan.block_size
    n = plan.grid_rows * plan.grid_cols
    if matrix.dim != b * b:
        raise ValueError(f"operator of size {matrix.dim} does not fit {b}x{b} blocks")
    if not (0 <= plan.grid_rows * b - original_h < b and 0 <= plan.grid_cols * b - original_w < b):
        raise ValueError(f"a {original_h}x{original_w} image does not fit a "
                         f"{plan.grid_rows}x{plan.grid_cols} grid of {b}x{b} blocks")
    if measurements.values.shape != (n, b * b):
        raise ValueError(f"measurements of shape {measurements.values.shape} do not fit {n} blocks")
    top = int(measurements.counts.max(initial=0))
    blocks = adjoint_reconstruct(matrix, 1, top, measurements.values[:, :top])
    grid = BlockGrid(
        block_size=b,
        rows=plan.grid_rows,
        cols=plan.grid_cols,
        pad_bottom=plan.grid_rows * b - original_h,
        pad_right=plan.grid_cols * b - original_w,
        blocks=blocks.reshape(n, b, b),
    )
    return assemble(grid)


def psnr(reference: Image, estimate: Image) -> float:
    """Peak signal-to-noise ratio in dB for unit-range images (inf if equal)."""
    if reference.pixels.shape != estimate.pixels.shape:
        raise ValueError("images must share dimensions")
    mse = float(np.mean((reference.pixels - estimate.pixels) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(1.0 / mse)
