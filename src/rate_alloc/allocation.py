"""Integer measurement budgets from real-valued bounds.

Real shares proportional to the per-block measurement bounds are turned
into integer counts by largest-remainder apportionment, so the budget is
conserved exactly; any block pushed past its cap is clamped and the
surplus re-apportioned among the uncapped blocks.  The scale factor the
rate formula needs to make the realized rate match the requested one is
therefore implicit; plans report the implied value for inspection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .analysis import Analysis, analyze
from .imaging import BlockGrid, Image, _frozen, partition


def round_half_up(x: float) -> int:
    """Deterministic half-up rounding used for every budget in the pipeline."""
    return int(math.floor(x + 0.5))


@dataclass(frozen=True)
class AllocationPlan:
    """Exact integer measurement counts for every block of a grid."""

    grid: BlockGrid
    target_rate: float
    per_block_M: np.ndarray
    threshold: Optional[float]

    def __post_init__(self):
        grid = self.grid
        m = np.asarray(self.per_block_M, dtype=np.int64)
        if m.shape != (grid.block_count,):
            raise ValueError(f"counts of shape {m.shape} do not fit a {grid.rows}x{grid.cols} grid")
        if (m < 0).any() or (m > grid.block_size * grid.block_size).any():
            raise ValueError("per-block counts must lie in [0, B^2]")
        object.__setattr__(self, "per_block_M", _frozen(m, np.int64))

    @property
    def total_budget(self) -> int:
        return int(self.per_block_M.sum())

    @property
    def implied_eta(self) -> float:
        """Ratio of the integer budget to the real-valued target budget."""
        return self.total_budget / (self.target_rate * self.grid.padded_pixel_count)


def proportional_shares(bounds, budget: int) -> np.ndarray:
    """Real shares of the budget proportional to the bounds (uniform if all zero)."""
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    m = np.asarray(bounds, dtype=np.float64)
    if m.ndim != 1 or (m < 0).any():
        raise ValueError("bounds must be a 1-D nonnegative vector")
    total = m.sum()
    if total > 0:
        return budget * m / total
    return np.full(m.size, budget / m.size)


def _largest_remainder(shares: np.ndarray, budget: int) -> np.ndarray:
    base = np.floor(shares).astype(np.int64)
    deficit = budget - int(base.sum())
    if deficit < 0 or deficit > shares.size:
        raise ValueError("shares do not sum to the budget")
    # one extra unit per block, largest fractional part first, ties to lower index
    order = np.lexsort((np.arange(shares.size), base - shares))
    base[order[:deficit]] += 1
    return base


def apportion(shares, budget: int, cap) -> np.ndarray:
    """Integer counts summing exactly to the budget, respecting per-block caps.

    Largest-remainder rounding first; then any count above its cap is
    clamped and the surplus re-apportioned among the uncapped blocks in
    proportion to their shares, repeating until stable.
    """
    shares = np.asarray(shares, dtype=np.float64)
    n = shares.size
    caps = np.full(n, cap, dtype=np.int64) if np.isscalar(cap) else np.asarray(cap, dtype=np.int64)
    if budget > int(caps.sum()):
        raise ValueError(f"budget {budget} exceeds total capacity {int(caps.sum())}")

    counts = _largest_remainder(shares, budget)
    capped = np.zeros(n, dtype=bool)
    while True:
        over = ~capped & (counts > caps)
        if not over.any():
            return counts
        surplus = int((counts[over] - caps[over]).sum())
        counts[over] = caps[over]
        capped |= over
        free = np.flatnonzero(~capped)
        counts[free] += _largest_remainder(proportional_shares(shares[free], surplus), surplus)


def plan_from_bounds(
    grid: BlockGrid,
    bounds: np.ndarray,
    s_r: float,
    threshold: Optional[float],
) -> AllocationPlan:
    """Apportion the rate's budget over a grid proportionally to bounds.

    All-zero bounds give every block an equal share: the uniform baseline.
    """
    if not (0 < s_r <= 1):
        raise ValueError("sampling rate must lie in (0, 1]")
    budget = round_half_up(s_r * grid.padded_pixel_count)
    counts = apportion(proportional_shares(bounds, budget), budget, grid.block_size * grid.block_size)
    return AllocationPlan(grid=grid, target_rate=s_r, per_block_M=counts, threshold=threshold)


def adaptive_plan(analysis: Analysis) -> AllocationPlan:
    """Single-pass plan: the budget apportioned in proportion to the analysis's bounds."""
    return plan_from_bounds(analysis.grid, analysis.bounds, analysis.rate, analysis.threshold)


def single_stage_plan(image: Image, block_size: int, s_r: float) -> AllocationPlan:
    """Full single-pass pipeline: partition, analyze, apportion."""
    return adaptive_plan(analyze(partition(image, block_size), s_r))


def uniform_plan(image: Image, block_size: int, s_r: float) -> AllocationPlan:
    """Uniform-rate baseline: every block gets an equal slice of the budget."""
    grid = partition(image, block_size)
    return plan_from_bounds(grid, np.zeros(grid.block_count), s_r, None)
