"""Sparsity analysis of DCT blocks and per-block measurement bounds.

A block's complexity is measured by its sparsity k: the number of DCT
coefficients whose magnitude exceeds a threshold T.  The threshold is
chosen so that the overall fraction of above-threshold coefficients hits
a target ratio, which itself is a logarithmic function of the overall
sampling rate.  Each block is then assigned the classical bound
k * log10(n / k) on the number of measurements needed to recover a
k-sparse length-n signal (the theory's constant factor cancels when the
bounds are only ever used as ratios).

:func:`analyze` runs that pipeline once over a block grid and returns an
:class:`Analysis`, which plans, the simulator and the CLI all read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .imaging import BlockGrid, dct2_blocks


@dataclass(frozen=True)
class CurveParams:
    """Parameters of the fitted sampling-rate -> sparsity-ratio curve.

    The curve is p_s = b * ln(a * (s_r - s_r1) + 1) + p_s1 and passes
    through its anchor point (s_r1, p_s1).
    """

    a: float
    b: float
    s_r1: float
    p_s1: float

    def __post_init__(self):
        if not (self.a > 0 and self.b > 0):
            raise ValueError("curve parameters a and b must be positive")
        if not (0 < self.s_r1 < 1 and 0 < self.p_s1 < 1):
            raise ValueError("curve anchor must lie in (0, 1) x (0, 1)")


DEFAULT_CURVE = CurveParams(a=78.77, b=0.0444, s_r1=0.01, p_s1=0.005)


@dataclass(frozen=True)
class SparsityProfile:
    """Chosen threshold plus the per-block sparsity counts it induces."""

    threshold: float
    overall_ratio: float
    per_block_k: np.ndarray

    def __post_init__(self):
        k = np.asarray(self.per_block_k, dtype=np.int64)
        k.setflags(write=False)
        object.__setattr__(self, "per_block_k", k)


@dataclass(frozen=True)
class BoundsProfile:
    """Per-block measurement bounds m_i >= 0 (m_i = 0 iff k_i = 0)."""

    per_block_m: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.per_block_m, dtype=np.float64)
        if m.ndim != 1 or (m < 0).any():
            raise ValueError("bounds must be a 1-D nonnegative vector")
        m.setflags(write=False)
        object.__setattr__(self, "per_block_m", m)

    @property
    def total(self) -> float:
        return float(self.per_block_m.sum())


def target_sparsity_ratio(s_r: float, params: CurveParams = DEFAULT_CURVE) -> float:
    """Target overall sparsity ratio for a given overall sampling rate."""
    if s_r < params.s_r1:
        raise ValueError(
            f"sampling rate {s_r} below the curve anchor {params.s_r1}"
        )
    p_s = params.b * math.log(params.a * (s_r - params.s_r1) + 1.0) + params.p_s1
    if p_s >= 1.0:
        raise ValueError(f"target sparsity ratio {p_s} out of range at rate {s_r}")
    return p_s


def sparsity_ratio(coeff_blocks, threshold: float) -> float:
    """Fraction of coefficients with |f| > threshold over the padded grid."""
    if threshold < 0:
        raise ValueError("threshold must be nonnegative")
    coeffs = np.asarray(coeff_blocks, dtype=np.float64)
    return float((np.abs(coeffs) > threshold).sum() / coeffs.size)


def solve_threshold(coeff_blocks, target_ps: float) -> float:
    """Exhaustively pick the threshold whose sparsity ratio is nearest the target.

    Candidates are 0 plus every distinct coefficient magnitude; exact ties
    in |ratio - target| resolve to the smaller threshold.
    """
    if not (0 < target_ps <= 1):
        raise ValueError("target sparsity ratio must lie in (0, 1]")
    mags = np.abs(np.asarray(coeff_blocks, dtype=np.float64)).reshape(-1)
    if mags.size == 0:
        raise ValueError("empty coefficient set")
    sorted_mags = np.sort(mags)
    candidates = np.unique(np.concatenate(([0.0], sorted_mags)))
    # count of |f| > T for each candidate T, via one binary search per candidate
    above = mags.size - np.searchsorted(sorted_mags, candidates, side="right")
    distances = np.abs(above / mags.size - target_ps)
    # argmin returns the first minimum; candidates ascend, so ties pick smaller T
    return float(candidates[np.argmin(distances)])


def measurement_bounds(k: int, block_len: int) -> float:
    """Measurement bound k * log10(n / k) for a k-sparse length-n block.

    k is clamped to floor(n / e), where the unclamped expression peaks;
    beyond that point the raw formula decreases and would starve the
    densest blocks, so the monotone envelope is used instead.
    """
    if not (0 <= k <= block_len):
        raise ValueError("sparsity must lie in [0, block length]")
    if k == 0:
        return 0.0
    k_eff = min(k, math.floor(block_len / math.e))
    return k_eff * math.log10(block_len / k_eff)


def sparsity_profile(coeff_blocks, threshold: float) -> SparsityProfile:
    """Per-block sparsity counts under a threshold, plus the overall ratio."""
    coeffs = np.asarray(coeff_blocks, dtype=np.float64)
    per_block = (np.abs(coeffs) > threshold).sum(axis=(1, 2)).astype(np.int64)
    return SparsityProfile(
        threshold=threshold,
        overall_ratio=float(per_block.sum() / coeffs.size),
        per_block_k=per_block,
    )


def _bounds_from_counts(per_block_k: np.ndarray, block_len: int) -> BoundsProfile:
    """Per-block bounds read from a table of :func:`measurement_bounds` over k."""
    top = int(per_block_k.max(initial=0))
    table = np.array([measurement_bounds(k, block_len) for k in range(top + 1)])
    return BoundsProfile(per_block_m=table[per_block_k])


def bounds_profile(coeff_blocks, threshold: float) -> BoundsProfile:
    """Per-block measurement bounds under a threshold."""
    coeffs = np.asarray(coeff_blocks, dtype=np.float64)
    profile = sparsity_profile(coeffs, threshold)
    return _bounds_from_counts(profile.per_block_k, coeffs.shape[-1] * coeffs.shape[-2])


@dataclass(frozen=True)
class Analysis:
    """One pass over a block grid at a rate: threshold, sparsity and bounds.

    The DCT coefficients are not kept; everything downstream needs only
    the per-block counts and bounds derived from them.
    """

    grid: BlockGrid
    rate: float
    target_ratio: float
    sparsity: SparsityProfile
    bounds: BoundsProfile

    @property
    def threshold(self) -> float:
        return self.sparsity.threshold


def analyze(grid: BlockGrid, s_r: float, curve: CurveParams = DEFAULT_CURVE) -> Analysis:
    """The pipeline in order: DCT, target ratio, threshold, sparsity, bounds."""
    if not (0 < s_r <= 1):
        raise ValueError("sampling rate must lie in (0, 1]")
    coeffs = dct2_blocks(grid.blocks)
    target_ps = target_sparsity_ratio(s_r, curve)
    sparsity = sparsity_profile(coeffs, solve_threshold(coeffs, target_ps))
    bounds = _bounds_from_counts(sparsity.per_block_k, grid.block_size * grid.block_size)
    return Analysis(grid, s_r, target_ps, sparsity, bounds)
