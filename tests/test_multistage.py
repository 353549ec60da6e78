import math

import numpy as np
import pytest

from conftest import bounds_of
from rate_alloc.allocation import round_half_up, uniform_plan
from rate_alloc.imaging import dct2_blocks, partition
from rate_alloc.multistage import (
    BoundsPredictor,
    EnergyBoundsPredictor,
    OracleBoundsPredictor,
    PREDICTION_FLOOR,
    fixed_ratio,
    kl_diagnostic,
    mixing_coeffs,
    run_simulation,
    stage_rate,
    upper_bounds,
)
from rate_alloc.sensing import build_matrix, sample_rows
from rate_alloc.synthetic import synthetic_image


def predict_bounds_energy(padded_measurements: np.ndarray, stage_M_so_far: int) -> float:
    """Measurement-only heuristic: spread of the AC-like measured values.

    Standard deviation of entries 2..M of the zero-padded measurement
    vector (the first entry acts as a DC stand-in), floored at a small
    epsilon so downstream ratios and logs stay defined.
    """
    values = np.asarray(padded_measurements, dtype=np.float64)[1:stage_M_so_far]
    spread = float(np.std(values)) if values.size else 0.0
    return max(spread, PREDICTION_FLOOR)


class TestStageRate:
    def test_first_stage(self):
        assert stage_rate(1, 2, 0.3, 0, 1024) == 0.15

    def test_catch_up_after_flooring(self):
        # single 32x32 block, stage 1 spent floor(0.15 * 1024) = 153
        rate = stage_rate(2, 2, 0.3, 153, 1024)
        assert rate == pytest.approx(0.3 - 153 / 1024, abs=1e-15)
        assert rate == pytest.approx(0.15058594, abs=1e-7)

    def test_exact_prior_allocation(self):
        assert stage_rate(2, 2, 0.25, 128, 1024) == 0.125

    def test_clamped_at_zero(self):
        assert stage_rate(2, 2, 0.1, 100000, 1024) == 0.0

    def test_bad_stage_index(self):
        with pytest.raises(ValueError):
            stage_rate(3, 2, 0.3, 0, 1024)


class TestMixingCoeffs:
    def test_worked_example(self):
        alpha, beta = mixing_coeffs(2, 2, 0.3, 153, 1024)
        assert alpha == pytest.approx(0.501953125, abs=1e-12)
        assert beta == pytest.approx(0.498046875, abs=1e-12)
        assert alpha + beta == 1.0

    def test_on_target_gives_one_over_t(self):
        alpha, _ = mixing_coeffs(2, 2, 0.25, 128, 1024)
        assert alpha == pytest.approx(0.5, abs=1e-15)
        alpha, _ = mixing_coeffs(4, 4, 0.25, 192, 1024)
        assert alpha == pytest.approx(0.25, abs=1e-12)

    def test_exhausted_budget_clamps(self):
        alpha, beta = mixing_coeffs(2, 2, 0.1, 100000, 1024)
        assert alpha == 0.0 and beta == 1.0

    def test_stage_one_rejected(self):
        with pytest.raises(ValueError):
            mixing_coeffs(1, 2, 0.3, 0, 1024)


class TestFixedRatio:
    def test_uniform_after_stage_one(self):
        assert np.allclose(fixed_ratio(np.array([7, 7, 7])), 1 / 3)

    def test_hand_case(self):
        assert fixed_ratio(np.array([10, 30])).tolist() == [0.25, 0.75]

    def test_sums_to_one(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            cum = rng.integers(1, 1000, size=int(rng.integers(1, 50)))
            assert fixed_ratio(cum).sum() == pytest.approx(1.0, abs=1e-12)

    def test_zero_total_rejected(self):
        with pytest.raises(ValueError):
            fixed_ratio(np.zeros(3))


class TestUpperBounds:
    def test_worked_example(self):
        rate = 0.3 - 153 / 1024
        a = upper_bounds(np.array([153]), rate, 1024, 32)
        assert a[0] == pytest.approx(871 / (rate * 1024), abs=1e-12)
        assert a[0] == pytest.approx(5.6485, abs=1e-4)

    def test_exhausted_block(self):
        a = upper_bounds(np.array([1024, 100]), 0.1, 2048, 32)
        assert a[0] == 0.0

    def test_small_rate_large_headroom(self):
        a = upper_bounds(np.array([0]), 1e-4, 1024, 32)
        assert a[0] > 1000

    def test_caps_always_feasible(self):
        # sum(a) >= 1 whenever the overall target rate is at most 1
        rng = np.random.default_rng(62)
        for _ in range(200):
            n = int(rng.integers(1, 30))
            b = 32
            pixels = n * b * b
            s_r = float(rng.uniform(0.01, 1.0))
            stages = int(rng.integers(2, 9))
            t = int(rng.integers(2, stages + 1))
            target = t * s_r / stages * pixels
            cum = rng.integers(1, b * b + 1, size=n)
            allocated = min(int(cum.sum()), int(target))
            cum = np.minimum(cum, b * b)
            rate = stage_rate(t, stages, s_r, allocated, pixels)
            if rate <= 0:
                continue
            assert upper_bounds(cum, rate, pixels, b).sum() >= 1.0 - 1e-9


class TestPredictors:
    def test_oracle_matches_analysis(self, matrix32):
        # the oracle predicts the bounds of the image's own coefficients, bit for bit
        img = synthetic_image("gradient")
        plan = run_simulation(img, 32, 0.2, 2, OracleBoundsPredictor(), matrix32)
        coeffs = dct2_blocks(partition(img, 32).blocks)
        expected = bounds_of(coeffs, plan.threshold)
        assert np.array_equal(plan.stages[1].predicted_bounds, expected)

    def test_flat_block_near_zero(self):
        coeffs = dct2_blocks(np.full((1, 8, 8), 0.5))
        oracle = OracleBoundsPredictor()
        oracle.begin_run(bounds_of(coeffs, 0.5))
        predicted = oracle.predict(np.zeros((1, 64)), np.array([1]))
        assert predicted[0] == pytest.approx(
            math.log10(64), abs=1e-12
        )  # only the DC coefficient survives

    def test_energy_floor_on_zero(self):
        assert predict_bounds_energy(np.zeros(64), 10) == PREDICTION_FLOOR
        assert predict_bounds_energy(np.zeros(64), 0) == PREDICTION_FLOOR

    def test_energy_scales_with_contrast(self):
        rng = np.random.default_rng(64)
        y = rng.standard_normal(64)
        one = predict_bounds_energy(y, 32)
        two = predict_bounds_energy(2 * y, 32)
        assert two == pytest.approx(2 * one, rel=1e-12)

    def test_energy_separates_textures(self, matrix32):
        flat = np.full(1024, 0.5)
        rng = np.random.default_rng(65)
        textured = np.clip(0.5 + 0.5 * rng.standard_normal(1024), 0, 1)
        m = 100
        y_flat = np.zeros(1024)
        y_flat[:m] = sample_rows(matrix32, 1, m, flat)
        y_tex = np.zeros(1024)
        y_tex[:m] = sample_rows(matrix32, 1, m, textured)
        assert predict_bounds_energy(y_tex, m) > predict_bounds_energy(y_flat, m)

    def test_batched_energy_matches_per_block(self):
        rng = np.random.default_rng(67)
        counts = rng.integers(0, 65, size=300)
        values = np.where(np.arange(64) < counts[:, None], rng.standard_normal((300, 64)), 0.0)
        values[:5] = 0.0  # flat blocks fall to the floor
        batched = EnergyBoundsPredictor().predict(values, counts)
        assert batched.shape == (300,)
        for i in range(300):
            assert batched[i] == predict_bounds_energy(values[i], int(counts[i]))

    def test_oracle_returns_true_bounds(self):
        bounds = np.array([0.5, 2.0, 1.0])
        oracle = OracleBoundsPredictor()
        oracle.begin_run(bounds)
        assert np.array_equal(oracle.predict(np.zeros((3, 4)), np.array([1, 1, 1])), bounds)

    def test_base_class_is_abstract(self):
        with pytest.raises(NotImplementedError):
            BoundsPredictor().predict(np.zeros(4), None)


class TestKlDiagnostic:
    def test_proportional_is_zero(self):
        m = np.array([1.0, 2.0, 3.0])
        ce, kl = kl_diagnostic(m, 7 * m)
        assert kl == pytest.approx(0.0, abs=1e-12)

    def test_hand_value(self):
        ce, kl = kl_diagnostic(np.array([1.0, 1.0]), np.array([1.0, 3.0]))
        assert ce == pytest.approx(-0.5 * math.log(0.25) - 0.5 * math.log(0.75), abs=1e-14)
        assert kl == pytest.approx(math.log(2) - 0.5 * math.log(3), abs=1e-14)
        assert kl == pytest.approx(0.1438410362258904)

    def test_nonnegative(self):
        rng = np.random.default_rng(66)
        for _ in range(50):
            n = int(rng.integers(1, 20))
            _, kl = kl_diagnostic(rng.uniform(0.1, 5, n), rng.uniform(0.1, 5, n))
            assert kl >= -1e-12

    def test_zero_total_rejected(self):
        with pytest.raises(ValueError):
            kl_diagnostic(np.zeros(3), np.ones(3))


class TestRunSimulation:
    def test_single_stage_equals_uniform_plan(self, matrix32):
        img = synthetic_image("checkerboard")
        plan = run_simulation(img, 32, 0.1, 1, OracleBoundsPredictor(), matrix32)
        uniform = uniform_plan(img, 32, 0.1)
        assert np.array_equal(plan.final_M, uniform.per_block_M)
        assert plan.total_measurements == uniform.total_budget

    def test_stage_budgets_exact(self, matrix32):
        img = synthetic_image("checkerboard")
        for stages in (2, 5, 8):
            plan = run_simulation(img, 32, 0.3, stages, OracleBoundsPredictor(), matrix32)
            pixels = 9216
            allocated = 0
            for state in plan.stages:
                expected_rate = stage_rate(state.stage_index, stages, 0.3, allocated, pixels)
                assert state.stage_rate == pytest.approx(expected_rate, abs=1e-12)
                assert state.budget == round_half_up(state.stage_rate * pixels)
                assert state.stage_M.sum() == state.budget
                allocated += state.budget
            assert abs(plan.total_measurements - round_half_up(0.3 * pixels)) <= stages

    def test_records_are_row_prefixes(self, matrix32):
        img = synthetic_image("gradient")
        for predictor in (OracleBoundsPredictor(), EnergyBoundsPredictor()):
            plan = run_simulation(img, 32, 0.3, 5, predictor, matrix32)
            records = plan.records
            assert np.array_equal(records.counts, plan.final_M)
            assert records.counts.max() <= 1024
            blocks = partition(img, 32).blocks
            for i, count in enumerate(records.counts):
                reference = sample_rows(matrix32, 1, int(count), blocks[i].reshape(-1))
                assert np.abs(records.values[i, :count] - reference).max() <= 1e-12
                assert not records.values[i, count:].any()

    def test_oracle_favors_textured_block(self, matrix32):
        img = synthetic_image("checkerboard")
        plan = run_simulation(img, 32, 0.1, 2, OracleBoundsPredictor(), matrix32)
        stage2 = plan.stages[1]
        assert stage2.stage_M[4] > np.delete(stage2.stage_M, 4).max()
        assert plan.final_M[4] > np.delete(plan.final_M, 4).max()

    def test_oracle_dominates_uniform_in_kl(self, matrix32):
        for kind in ("checkerboard", "gradient"):
            img = synthetic_image(kind)
            plan = run_simulation(img, 32, 0.1, 2, OracleBoundsPredictor(), matrix32)
            grid = partition(img, 32)
            coeffs = dct2_blocks(grid.blocks)
            true_m = bounds_of(coeffs, plan.threshold)
            uniform = uniform_plan(img, 32, 0.1).per_block_M
            _, kl_adaptive = kl_diagnostic(true_m, plan.final_M.astype(float))
            _, kl_uniform = kl_diagnostic(true_m, uniform.astype(float))
            assert kl_adaptive <= kl_uniform

    def test_alpha_beta_recorded(self, matrix32):
        img = synthetic_image("checkerboard")
        plan = run_simulation(img, 32, 0.3, 2, OracleBoundsPredictor(), matrix32)
        first, second = plan.stages
        assert (first.alpha, first.beta) == (1.0, 0.0)
        assert 0 < second.alpha <= 1 and second.alpha + second.beta == 1.0
        assert second.problem is not None and second.solution is not None
        assert first.problem is None and first.predicted_bounds is None

    def test_diagnostics_present_for_later_stages(self, matrix32):
        img = synthetic_image("checkerboard")
        plan = run_simulation(img, 32, 0.2, 3, OracleBoundsPredictor(), matrix32)
        assert plan.diagnostics[0] is None
        for diag in plan.diagnostics[1:]:
            ce, kl = diag
            assert kl >= -1e-12

    def test_oracle_diagnostic_is_zero_kl(self, matrix32):
        # the oracle predicts the true bounds, so stage KL must vanish
        img = synthetic_image("checkerboard")
        plan = run_simulation(img, 32, 0.2, 2, OracleBoundsPredictor(), matrix32)
        _, kl = plan.diagnostics[1]
        assert kl <= 1e-9

    def test_energy_predictor_runs(self, matrix32):
        img = synthetic_image("checkerboard")
        plan = run_simulation(img, 32, 0.1, 3, EnergyBoundsPredictor(), matrix32)
        assert plan.total_measurements == pytest.approx(922, abs=3)
        assert (plan.final_M <= 1024).all()

    def test_determinism(self, matrix32):
        img = synthetic_image("gradient")
        a = run_simulation(img, 32, 0.25, 4, EnergyBoundsPredictor(), matrix32)
        b = run_simulation(img, 32, 0.25, 4, EnergyBoundsPredictor(), matrix32)
        assert np.array_equal(a.final_M, b.final_M)
        for sa, sb in zip(a.stages, b.stages):
            assert np.array_equal(sa.stage_M, sb.stage_M)

    def test_starved_first_stage_rejected(self, matrix32):
        img = synthetic_image("flat")
        # stage-1 budget round(0.01 * 9216 / 64) = 1 < 9 blocks
        with pytest.raises(ValueError, match="block count"):
            run_simulation(img, 32, 0.01, 64, OracleBoundsPredictor(), matrix32)

    def test_starved_first_stage_names_largest_feasible_stages(self, matrix32):
        img = synthetic_image("flat")
        # 0.01 * 9216 = 92.16: stage 1 gets round(92.16 / N) >= 9 up to N = 10
        with pytest.raises(ValueError, match=r"at most 10 stage\(s\)"):
            run_simulation(img, 32, 0.01, 11, OracleBoundsPredictor(), matrix32)
        assert run_simulation(img, 32, 0.01, 10, OracleBoundsPredictor(), matrix32).stages[0].budget == 9
        # 0.01 * 576 = 5.76 on 3x3 blocks of 8: any second stage starves stage 1
        with pytest.raises(ValueError, match=r"at most 1 stage\(s\)"):
            run_simulation(synthetic_image("flat", 8), 8, 0.01, 2, OracleBoundsPredictor(),
                           build_matrix(8, 1))

    def test_full_rate_saturates_all_blocks(self, matrix32):
        img = synthetic_image("checkerboard")
        plan = run_simulation(img, 32, 1.0, 2, OracleBoundsPredictor(), matrix32)
        assert (plan.final_M == 1024).all()
