"""Seeded orthonormal measurement operator and the linear baseline decoder.

The operator is a B^2 x B^2 matrix with orthonormal rows, built
deterministically from a seed: a standard-normal draw from numpy's PCG64
generator (ziggurat normal variates), orthonormalized in place by LAPACK's
Householder QR, with each row's sign fixed so its first nonzero entry is
positive.  Each seed is drawn once: rows that fail the Gram check raise
instead of being re-drawn under another seed.  Rows are consumed in native order, so "the
next M rows" needs no extra state across sampling stages, and the adjoint
of the used rows is an exact orthogonal projection, which makes
reconstruction errors easy to reason about.  Blocks that receive no
measurements reconstruct to zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import lapack_lite

from . import imaging
from .imaging import BlockGrid, Image, _clamped, _frozen

# the build holds two dim^2 float64 arrays, the rows and their Gram product:
# 256 MiB at B=64, 4 GiB at B=128
_MAX_BLOCK_SIZE = 64


@dataclass(frozen=True)
class MeasurementMatrix:
    """Orthonormal-row operator, reproducible from its block size and seed."""

    rows: np.ndarray

    def __post_init__(self):
        rows = _frozen(self.rows)
        if rows.ndim != 2 or rows.shape[0] != rows.shape[1]:
            raise ValueError(f"operator of shape {rows.shape} is not square")
        if not (-1.0 <= rows.min(initial=0.0) and rows.max(initial=0.0) <= 1.0):  # as in orthonormal rows
            raise ValueError("operator entries must be finite and at most 1 in magnitude")
        object.__setattr__(self, "rows", rows)

    @property
    def dim(self) -> int:
        return self.rows.shape[0]


@dataclass(frozen=True)
class Measurements:
    """Every block's measurements, one row per block.

    values[i, :counts[i]] are rows 1..counts[i] of the operator applied to
    block i; `values` is (blocks, width) and exactly zero beyond each count,
    and `counts` is int64 with each count in [0, width].  The width is any
    number of columns up to the operator's dim; sampling emits the largest count.
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
        if values[np.arange(values.shape[1]) >= counts[:, None]].any():
            raise ValueError("values beyond a block's count must be zero")
        object.__setattr__(self, "values", _frozen(values))
        object.__setattr__(self, "counts", _frozen(counts, np.int64))


def build_matrix(block_size: int, seed: int) -> MeasurementMatrix:
    """Deterministic orthonormal-row operator for B x B blocks.

    Generator: numpy PCG64 seeded with `seed`, standard_normal draws in
    C order; rows orthonormalized by QR of the transpose (LAPACK dgeqrf and
    dorgqr, in the draw's own buffer) and sign-fixed.
    One draw per seed: rows whose Gram matrix is off the identity by more
    than 1e-9 raise RuntimeError naming the seed.  A negative seed or a
    block size above 64 raises ValueError before the draw.
    """
    if block_size < 2:
        raise ValueError("block size must be at least 2")
    if block_size > _MAX_BLOCK_SIZE:
        raise ValueError(f"block size {block_size} is above the operator limit of {_MAX_BLOCK_SIZE}")
    if seed < 0:
        raise ValueError(f"operator seed {seed} must be non-negative")
    dim = block_size * block_size
    rng = np.random.Generator(np.random.PCG64(seed))
    # C order makes this buffer the Fortran layout of the draw's transpose, so LAPACK's QR
    # of that transpose runs in place and leaves Q^T here, row by row: the operator's rows.
    # Householder QR gives orthonormal rows to rounding for any draw, so the check below
    # guards the QR itself, not the draw
    rows = rng.standard_normal((dim, dim))
    tau = np.empty(dim)
    _lapack(lapack_lite.dgeqrf, seed, dim, dim, rows, dim, tau)
    _lapack(lapack_lite.dorgqr, seed, dim, dim, dim, rows, dim, tau)
    # sign convention: first nonzero entry of each row positive
    first = rows[np.arange(dim), np.argmax(rows != 0, axis=1)]
    rows *= np.where(first < 0, -1.0, 1.0)[:, None]
    # |rows rows^T - I|, formed in the one Gram product
    gram = rows @ rows.T
    gram.flat[:: dim + 1] -= 1.0
    gram_err = np.abs(gram, out=gram).max()
    if gram_err > 1e-9:
        raise RuntimeError(f"operator for seed {seed} failed its Gram check: "
                           f"error {gram_err:.3g} > 1e-9")
    return MeasurementMatrix(rows)


def _lapack(routine, seed: int, *args) -> None:
    """Run a LAPACK routine with the work size its own query asks for; raise if it fails.

    A smaller work array changes LAPACK's block size, and with it the bits of the result.
    """
    work = np.empty(1)
    routine(*args, work, -1, 0)
    work = np.empty(int(work[0]))
    info = routine(*args, work, work.size, 0)["info"]
    if info != 0:
        raise RuntimeError(f"operator for seed {seed}: LAPACK {routine.__name__} returned info {info}")


def _row_range(matrix: MeasurementMatrix, row_start: int, row_end: int) -> np.ndarray:
    if not (1 <= row_start and row_start - 1 <= row_end <= matrix.dim):
        raise ValueError(f"row range {row_start}..{row_end} out of bounds")
    return matrix.rows[row_start - 1 : row_end]


def sample_rows(
    matrix: MeasurementMatrix, row_start: int, row_end: int, block_vector: np.ndarray
) -> np.ndarray:
    """Rows row_start..row_end (1-based) applied to a (blocks, dim) batch, one row per block."""
    rows = _row_range(matrix, row_start, row_end)
    x = np.asarray(block_vector, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != matrix.dim:
        raise ValueError(f"blocks of shape {x.shape} are not a (blocks, {matrix.dim}) batch")
    return x @ rows.T


def adjoint_reconstruct(
    matrix: MeasurementMatrix, row_start: int, row_end: int, values: np.ndarray
) -> np.ndarray:
    """Adjoint of the used rows: the projection of x onto their span.

    `values` is a (blocks, rows) batch; the result holds one projection per block.
    """
    rows = _row_range(matrix, row_start, row_end)
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2 or values.shape[1] != len(rows):
        raise ValueError(f"values of shape {values.shape} are not a (blocks, rows) batch")
    return values @ rows


def sample_plan(grid: BlockGrid, per_block_M, matrix: MeasurementMatrix) -> Measurements:
    """Single-stage sampling: rows 1..M_i of the operator per block.

    The record holds one column per row up to the largest M_i, zero beyond each block's own.
    """
    counts = np.asarray(per_block_M, dtype=np.int64)
    if counts.shape != (grid.block_count,):
        raise ValueError("one count per block required")
    top = int(counts.max(initial=0))
    # one product over every block, each as one row: a product per grid row may round differently
    values = sample_rows(matrix, 1, top, grid.blocks.reshape(grid.block_count, -1))
    values[np.arange(top) >= counts[:, None]] = 0.0
    return Measurements(values, counts)


def reconstruct_plan(plan, measurements: Measurements, matrix: MeasurementMatrix,
                     original_h: int, original_w: int) -> Image:
    """Adjoint-reconstruct every block of a plan and reassemble the image.

    `plan` only needs a `grid` attribute, so both single-stage and
    multi-stage plans work.  Values are zero beyond each block's count,
    so a product over the used row prefix is the per-block adjoint of
    every block.  Block row by block row, one row-sized copy in image
    order is clamped and cropped into the output, never read again.
    An operator of another block size, a height or width the plan's grid
    could not have been cut from, records of another block count or
    wider than the operator, or a measurement that is NaN, infinite or
    large enough to overflow a product raise ValueError before any product.
    """
    grid = plan.grid
    b, cols, n = grid.block_size, grid.cols, grid.block_count
    if matrix.dim != b * b:
        raise ValueError(f"operator of size {matrix.dim} does not fit {b}x{b} blocks")
    if not (0 <= grid.padded_height - original_h < b and 0 <= grid.padded_width - original_w < b):
        raise ValueError(f"a {original_h}x{original_w} image does not fit a "
                         f"{grid.rows}x{cols} grid of {b}x{b} blocks")
    values = measurements.values
    if values.shape[0] != n or values.shape[1] > b * b:
        raise ValueError(f"measurements of shape {values.shape} do not fit {n} blocks of {b * b} values")
    top = int(measurements.counts.max(initial=0))
    # as operator entries lie in [-1, 1], no partial sum passes top * max|value|: none overflows, no pixel is NaN
    used, limit = values[:, :top], np.finfo(np.float64).max / (2 * top + 1)
    if not (-limit <= used.min(initial=0.0) and used.max(initial=0.0) <= limit):  # NaN fails both
        raise ValueError(f"measurements must be finite and at most {limit:.3g} in magnitude")
    # numpy takes a one-row product through gemv, which may round unlike the
    # whole product's gemm, so a one-block-wide grid is done in one product
    step = cols if cols > 1 else n
    out = np.empty((original_h, original_w))
    for start in range(0, n, step):
        strip = out[start // cols * b : (start + step) // cols * b]
        blocks = adjoint_reconstruct(matrix, 1, top, values[start : start + step, :top]).reshape(-1, cols, b, b)
        np.clip(blocks.swapaxes(1, 2).reshape(-1, cols * b)[: len(strip), :original_w], 0.0, 1.0, out=strip)
    return _clamped(out)


def psnr(reference: Image, estimate: Image) -> float:
    """Peak signal-to-noise ratio in dB for unit-range images (inf if equal)."""
    if reference.pixels.shape != estimate.pixels.shape:
        raise ValueError("images must share dimensions")
    x, y = reference.pixels.reshape(-1), estimate.pixels.reshape(-1)
    mse = _squared_error(x, y) / x.size
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(1.0 / mse)


def _squared_error(x: np.ndarray, y: np.ndarray) -> float:
    """Sum of (x - y)**2 over two flat arrays, chunk by chunk, with the bits of one np.sum.

    numpy sums a contiguous array of more than 128 items pairwise, splitting
    it at n/2 rounded down to a multiple of 8; splitting at the same places
    down to chunk-sized leaves adds the same partial sums in the same order.
    """
    if x.size <= 128 or x.nbytes <= imaging._CHUNK:
        diff = x - y
        return float(np.square(diff, out=diff).sum())
    half = x.size // 2
    half -= half % 8
    return _squared_error(x[:half], y[:half]) + _squared_error(x[half:], y[half:])
