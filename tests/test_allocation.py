import itertools
import math

import numpy as np
import pytest

from rate_alloc.allocation import (
    AllocationPlan,
    apportion,
    plan_from_bounds,
    proportional_shares,
    round_half_up,
    single_stage_plan,
    uniform_plan,
)
from rate_alloc.analysis import analyze
from rate_alloc.imaging import Image, partition
from rate_alloc.synthetic import synthetic_image


class TestRounding:
    def test_half_up(self):
        assert round_half_up(921.6) == 922
        assert round_half_up(2.5) == 3
        assert round_half_up(2.4999) == 2
        assert round_half_up(-0.4) == 0


class TestProportionalShares:
    def test_equal_bounds(self):
        shares = proportional_shares(np.ones(4), 100)
        assert shares.tolist() == [25.0, 25.0, 25.0, 25.0]

    def test_weighted(self):
        shares = proportional_shares(np.array([2.0, 1.0, 1.0]), 8)
        assert shares.tolist() == [4.0, 2.0, 2.0]

    def test_zero_bounds_fall_back_to_uniform(self):
        shares = proportional_shares(np.zeros(3), 9)
        assert shares.tolist() == [3.0, 3.0, 3.0]

    def test_conserves_budget(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            m = rng.uniform(0.0, 5.0, size=int(rng.integers(1, 30)))
            shares = proportional_shares(m, 777)
            assert shares.sum() == pytest.approx(777, abs=1e-9)


def brute_force_capped(counts_fixed, shares, budget):
    """Search integer completions minimizing max deviation from ideal shares."""
    total = sum(shares)
    ideal = [budget * s / total for s in shares]
    best = None
    for combo in itertools.product(range(budget + 1), repeat=len(shares) - 1):
        last = budget - sum(combo)
        if last < 0:
            continue
        vec = list(combo) + [last]
        dev = max(abs(v - i) for v, i in zip(vec, ideal))
        if best is None or dev < best[0]:
            best = (dev, vec)
    return best[1]


class TestApportion:
    def test_rule_trace(self):
        assert apportion([2.5, 2.5, 3.0], 8, 100).tolist() == [3, 2, 3]

    def test_integers_unchanged(self):
        assert apportion([4.0, 1.0, 3.0], 8, 10).tolist() == [4, 1, 3]

    def test_cap_redistribution(self):
        # block 0 overflows its cap by 6; the surplus splits 2:16 over the
        # other blocks and largest-remainder rounds that to +1/+5
        result = apportion([1030.0, 2.0, 16.0], 1048, 1024)
        assert result.tolist() == [1024, 3, 21]
        # cross-check the tail against an exhaustive min-max-deviation search
        assert result.tolist()[1:] == brute_force_capped([1024], [2.0, 16.0], 24)

    def test_tie_breaks_to_lower_index(self):
        assert apportion([1.5, 1.5, 1.0], 4, 10).tolist() == [2, 1, 1]

    def test_conservation_and_caps_random(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            cap = int(rng.integers(1, 50))
            budget = int(rng.integers(0, n * cap + 1))
            shares = rng.uniform(0.0, 1.0, size=n)
            shares = budget * shares / shares.sum() if shares.sum() > 0 else np.full(n, budget / n)
            counts = apportion(shares, budget, cap)
            assert counts.sum() == budget
            assert counts.min() >= 0 and counts.max() <= cap

    def test_vector_caps(self):
        counts = apportion([5.0, 5.0, 5.0], 15, np.array([2, 20, 20]))
        assert counts.tolist() == [2, 7, 6]
        assert counts.sum() == 15

    def test_over_capacity_rejected(self):
        with pytest.raises(ValueError):
            apportion([5.0, 5.0], 10, 4)


class TestSingleStagePlan:
    def test_budget_on_padded_dims(self):
        plan = single_stage_plan(synthetic_image("checkerboard"), 32, 0.1)
        assert plan.total_budget == 922  # round(0.1 * 96 * 96)
        assert plan.per_block_M.sum() == 922

    def test_uniform_image_near_uniform(self):
        plan = single_stage_plan(synthetic_image("flat"), 32, 0.1)
        assert np.ptp(plan.per_block_M) <= 1

    def test_textured_block_strictly_favored(self):
        plan = single_stage_plan(synthetic_image("checkerboard"), 32, 0.1)
        m = plan.per_block_M
        center = m[4]
        others = np.delete(m, 4)
        assert center > others.max()

    def test_full_rate_saturates(self):
        plan = single_stage_plan(synthetic_image("checkerboard"), 32, 1.0)
        assert (plan.per_block_M == 1024).all()

    def test_monotone_fairness(self):
        img = synthetic_image("gradient")
        m = single_stage_plan(img, 32, 0.25).per_block_M
        bounds = analyze(partition(img, 32), 0.25).bounds
        for i in range(m.size):
            for j in range(m.size):
                if bounds[i] >= bounds[j]:
                    assert m[i] >= m[j] - 1

    def test_determinism(self):
        img = synthetic_image("gradient")
        a = single_stage_plan(img, 32, 0.3)
        b = single_stage_plan(img, 32, 0.3)
        assert np.array_equal(a.per_block_M, b.per_block_M)
        assert a.threshold == b.threshold

    def test_implied_eta(self):
        plan = single_stage_plan(synthetic_image("flat"), 32, 0.1)
        assert plan.implied_eta == pytest.approx(922 / (0.1 * 9216))

    def test_rate_out_of_range(self):
        with pytest.raises(ValueError):
            single_stage_plan(synthetic_image("flat"), 32, 0.0)

    def test_padding_participates_in_budget(self):
        img = Image(np.full((40, 40), 0.5))  # pads to 64x64 with B=32
        plan = single_stage_plan(img, 32, 0.5)
        assert plan.total_budget == round_half_up(0.5 * 64 * 64)


class TestUniformPlan:
    def test_equal_split(self):
        plan = uniform_plan(synthetic_image("flat"), 32, 0.1)
        assert plan.total_budget == 922
        assert np.ptp(plan.per_block_M) <= 1

    def test_full_rate(self):
        plan = uniform_plan(synthetic_image("flat"), 32, 1.0)
        assert (plan.per_block_M == 1024).all()

    @pytest.mark.parametrize("rate", [0.0, 1.5, math.nan])
    def test_rate_out_of_range(self, rate):
        grid = partition(synthetic_image("flat"), 32)
        with pytest.raises(ValueError, match=r"sampling rate must lie in \(0, 1\]"):
            plan_from_bounds(grid, np.zeros(grid.block_count), rate, None)


class TestPlanType:
    def test_sum_mismatch_rejected(self):
        with pytest.raises(ValueError):
            AllocationPlan(
                block_size=2,
                grid_rows=1,
                grid_cols=2,
                target_rate=0.5,
                total_budget=5,
                per_block_M=np.array([2, 2]),
                threshold=None,
            )

    def test_count_per_block_required(self):
        # three counts summing to the budget of a two-block grid
        with pytest.raises(ValueError, match="do not fit a 1x2 grid"):
            AllocationPlan(
                block_size=2,
                grid_rows=1,
                grid_cols=2,
                target_rate=0.5,
                total_budget=3,
                per_block_M=[1, 1, 1],
                threshold=None,
            )

    def test_cap_violation_rejected(self):
        with pytest.raises(ValueError):
            AllocationPlan(
                block_size=2,
                grid_rows=1,
                grid_cols=2,
                target_rate=0.5,
                total_budget=7,
                per_block_M=np.array([5, 2]),
                threshold=None,
            )
