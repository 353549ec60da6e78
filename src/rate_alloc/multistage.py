"""Multi-stage sampling: uniform first pass, then re-optimized allocations.

Stage 1 samples every block at the same rate.  Each later stage t
predicts a measurement bound per block from the measurements gathered so
far, turns the predictions into a target ratio p, and solves the
KL-divergence program to choose how the stage's budget should tilt the
*cumulative* allocation toward p, given that earlier stages' counts are
already fixed.  Stage rates follow the catch-up rule

    s_r^t = t * s_r / N - (measurements so far) / (padded pixels),

so rounding debt from earlier stages is repaid automatically and the
N-stage total lands on the single-pass budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .allocation import apportion, round_half_up
from .analysis import Analysis, analyze
from .imaging import BlockGrid, Image, _frozen, partition
from .kl_solver import KlAllocProblem, KlAllocSolution, solve
from .sensing import MeasurementMatrix, Measurements, sample_rows

PREDICTION_FLOOR = 1e-9


def stage_rate(t: int, stages: int, s_r: float, allocated_so_far: int, pixels: int) -> float:
    """Expected rate for stage t given what earlier stages actually spent."""
    if not (1 <= t <= stages):
        raise ValueError("stage index out of range")
    if t == 1:
        return s_r / stages
    return max(t * s_r / stages - allocated_so_far / pixels, 0.0)


def _max_stages(s_r: float, pixels: int, blocks: int) -> int:
    """Most stages whose stage-1 budget still reaches every block (1 if none)."""
    stages = int(s_r * pixels / (blocks - 0.5)) + 1
    while stages > 1 and round_half_up(stage_rate(1, stages, s_r, 0, pixels) * pixels) < blocks:
        stages -= 1
    return stages


def check_stages(grid: BlockGrid, s_r: float, stages: int) -> None:
    """Reject a run whose uniform stage 1 cannot give every block a measurement.

    Needs only the grid's shape, so it runs before any analysis or operator.
    """
    if stages < 1:
        raise ValueError("at least one stage required")
    if not (0 < s_r <= 1):
        raise ValueError("sampling rate must lie in (0, 1]")
    n, pixels = grid.block_count, grid.padded_pixel_count
    budget1 = round_half_up(stage_rate(1, stages, s_r, 0, pixels) * pixels)
    if stages > 1 and budget1 < n:
        raise ValueError(
            f"stage-1 budget {budget1} is below the block count {n}; at rate {s_r} and block "
            f"size {grid.block_size} this image allows at most {_max_stages(s_r, pixels, n)} stage(s)"
        )


class BoundsPredictor:
    """Measurement-bound predictor for every block at once, holding no state."""

    def predict(self, values: np.ndarray, counts: np.ndarray,
                true_bounds: np.ndarray) -> np.ndarray:
        """Predicted bounds, shape (blocks,), from the measurements so far.

        Block i's are values[i, :counts[i]]; later columns may already hold
        rows not yet allotted to it, so a predictor reads only that prefix.
        Only the oracle reads `true_bounds`.
        """
        raise NotImplementedError


class OracleBoundsPredictor(BoundsPredictor):
    """Returns the true bounds; an upper bound on any predictor's skill."""

    def predict(self, values, counts, true_bounds):
        return true_bounds


class EnergyBoundsPredictor(BoundsPredictor):
    """Measurement-only heuristic: each block's standard deviation of its values.

    The first value, a DC stand-in, is left out; results are floored at PREDICTION_FLOOR.
    """

    def predict(self, values, counts, true_bounds):
        predicted = np.full(counts.size, PREDICTION_FLOOR)
        # one reduction per distinct count; counts below 2 leave no AC entry
        for count in np.unique(counts[counts >= 2]):
            idx = np.flatnonzero(counts == count)
            spread = np.std(values[idx, 1:count], axis=1)
            predicted[idx] = np.maximum(spread, PREDICTION_FLOOR)
        return predicted


PREDICTORS = {"oracle": OracleBoundsPredictor, "energy": EnergyBoundsPredictor}


def kl_diagnostic(true_m, predicted_m):
    """(cross_entropy, kl) between the normalized bound ratios.

    Predicted entries are floored at a small epsilon before normalizing;
    kl >= 0 with equality iff the ratios coincide.
    """
    true_m = np.asarray(true_m, dtype=np.float64)
    total = true_m.sum()
    if total <= 0:
        raise ValueError("true bounds must have positive total")
    rho = true_m / total
    predicted = np.maximum(np.asarray(predicted_m, dtype=np.float64), PREDICTION_FLOOR)
    rho_hat = predicted / predicted.sum()
    pos = rho > 0
    cross_entropy = float(-(rho[pos] * np.log(rho_hat[pos])).sum())
    entropy = float(-(rho[pos] * np.log(rho[pos])).sum())
    return cross_entropy, cross_entropy - entropy


@dataclass(frozen=True)
class StageState:
    """Everything decided at one sampling stage; stage t is `plan.stages[t - 1]`."""

    stage_rate: float
    budget: int
    alpha: float
    stage_M: np.ndarray
    cumulative_M: np.ndarray
    predicted_bounds: Optional[np.ndarray]
    problem: Optional[KlAllocProblem]
    solution: Optional[KlAllocSolution]
    diagnostic: Optional[tuple]  # (cross_entropy, kl) of the prediction; None if none was scored

    def __post_init__(self):
        for name, dtype in (("stage_M", np.int64), ("cumulative_M", np.int64),
                            ("predicted_bounds", np.float64)):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, _frozen(getattr(self, name), dtype))

    @property
    def beta(self) -> float:
        return 1.0 - self.alpha


@dataclass(frozen=True)
class MultiStagePlan:
    """Outcome of an N-stage run: per-stage states, the records and the grid's shape (not its pixels)."""

    block_size: int
    grid_rows: int
    grid_cols: int
    stages: tuple  # of StageState
    records: Measurements

    @property
    def final_M(self) -> np.ndarray:
        return self.records.counts

    @property
    def total_measurements(self) -> int:
        return int(self.final_M.sum())


def run_simulation(
    image: Image,
    block_size: int,
    s_r: float,
    stages: int,
    predictor: BoundsPredictor,
    matrix: MeasurementMatrix,
) -> MultiStagePlan:
    """Partition, check the stage count, analyze, then :func:`simulate`."""
    grid = partition(image, block_size)
    check_stages(grid, s_r, stages)
    return simulate(analyze(grid, s_r), stages, predictor, matrix)


def simulate(
    analysis: Analysis,
    stages: int,
    predictor: BoundsPredictor,
    matrix: MeasurementMatrix,
) -> MultiStagePlan:
    """Run the N-stage protocol end to end and record every measurement.

    Each stage shares its catch-up budget out, apportions the shares under
    the blocks' headroom and samples the rows it adds.  Stage 1 shares
    equally; a spent stage (budget 0) shares nothing and never predicts;
    any other stage predicts, solves the KL program and shares by its q.
    N = 1 is plain uniform sampling at the full rate.  The analysis
    supplies the grid, the rate and the true bounds, which the oracle
    predictor and the KL diagnostics read.
    """
    grid, s_r = analysis.grid, analysis.rate
    check_stages(grid, s_r, stages)
    n = grid.block_count
    dim = grid.block_size * grid.block_size
    pixels = grid.padded_pixel_count
    if matrix.dim != dim:
        raise ValueError("operator size does not match the block size")
    true_bounds = analysis.bounds

    # every block uses the operator's rows in native order, so column j of `values`
    # is row j+1 applied to all blocks; a stage appends only columns not yet reached
    blocks = grid.blocks.reshape(n, dim)
    values = np.empty((n, 0))
    cumulative = np.zeros(n, dtype=np.int64)
    stage_states = []
    for t in range(1, stages + 1):
        allocated = int(cumulative.sum())
        rate = stage_rate(t, stages, s_r, allocated, pixels)
        budget = round_half_up(rate * pixels)
        predicted = problem = solution = diagnostic = None
        if t == 1:
            # uniform: per-block baseline floor(s_r^1 * B^2), topped up by apportionment
            shares, alpha = np.full(n, budget / n), 1.0
        elif budget == 0:
            # budget already spent (rounding overshoot): zero-measurement stage
            shares, alpha = np.zeros(n), 0.0
        else:
            predicted = np.asarray(predictor.predict(values, cumulative, true_bounds),
                                   dtype=np.float64)
            if true_bounds.sum() > 0:
                diagnostic = kl_diagnostic(true_bounds, predicted)
            alpha = min(max(rate / (t * s_r / stages), 0.0), 1.0)
            # caps a_i: block i can absorb dim - cumulative_i more of the stage's rate * pixels,
            # so sum(a) = (pixels - allocated) / (rate * pixels); the catch-up rate is at
            # most 1 - allocated / pixels while the target rate is <= 1, so sum(a) >= 1
            problem = KlAllocProblem(
                p=np.maximum(predicted, PREDICTION_FLOOR),
                r=cumulative,  # KlAllocProblem divides by the total
                alpha=alpha,
                a=(dim - cumulative) / (rate * pixels),
            )
            solution = solve(problem)
            shares = budget * solution.q
        reached = values.shape[1]
        counts = apportion(shares, budget, dim - cumulative)
        cumulative = cumulative + counts
        top = int(cumulative.max())
        if top > reached:
            values = np.hstack([values, sample_rows(matrix, reached + 1, top, blocks)])
        stage_states.append(
            StageState(
                stage_rate=rate,
                budget=budget,
                alpha=alpha,
                stage_M=counts,
                cumulative_M=cumulative,
                predicted_bounds=predicted,
                problem=problem,
                solution=solution,
                diagnostic=diagnostic,
            )
        )

    # zero the rows computed past a block's count
    values[np.arange(values.shape[1]) >= cumulative[:, None]] = 0.0
    return MultiStagePlan(
        block_size=grid.block_size,
        grid_rows=grid.rows,
        grid_cols=grid.cols,
        stages=tuple(stage_states),
        records=Measurements(values, cumulative),
    )
