import dataclasses
import math

import numpy as np
import pytest

from conftest import bounds_of
from rate_alloc import multistage
from rate_alloc.allocation import round_half_up, uniform_plan
from rate_alloc.analysis import analyze
from rate_alloc.imaging import Image, dct2_blocks, partition
from rate_alloc.multistage import (
    BoundsPredictor,
    EnergyBoundsPredictor,
    OracleBoundsPredictor,
    PREDICTION_FLOOR,
    PREDICTORS,
    kl_diagnostic,
    run_simulation,
    stage_rate,
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


def arrays_in(obj):
    """Every ndarray reachable from a result through dataclass attributes and tuples."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from arrays_in(item)
    elif dataclasses.is_dataclass(obj):
        for value in vars(obj).values():
            yield from arrays_in(value)


def one_block_run(rate, stages, matrix):
    """A run on one textured 32x32 block (1024 pixels) with the oracle predictor."""
    img = Image(np.random.default_rng(68).random((32, 32)))
    return run_simulation(img, 32, rate, stages, OracleBoundsPredictor(), matrix)


def spent_stage_run(predictor=None):
    """One 2x2 block at rate 0.3 over two stages: stage 1 spends round(0.6) = 1 of
    the 4 pixels, which leaves stage 2 a rate of 0.3 - 1/4 and a budget of round(0.2) = 0."""
    img = Image(np.full((2, 2), 0.5))
    return run_simulation(img, 2, 0.3, 2, predictor or OracleBoundsPredictor(), build_matrix(2, 1))


def on_target_run(stages, matrix):
    """Checkerboard at rate 0.25: each stage's 0.25 / N * 9216 is whole, so no debt carries."""
    return run_simulation(synthetic_image("checkerboard"), 32, 0.25, stages,
                          OracleBoundsPredictor(), matrix)


class TestMixingCoeffs:
    def test_worked_example(self, matrix32):
        # stage 1 spends round(0.15 * 1024) = 154, so stage 2's rate is 0.3 - 154/1024
        # of the cumulative 0.3: alpha = 1 - 154 / 307.2
        second = one_block_run(0.3, 2, matrix32).stages[1]
        assert second.alpha == pytest.approx(1 - 154 / 307.2, abs=1e-12)
        assert second.alpha == pytest.approx(0.498697917, abs=1e-9)
        assert second.beta == pytest.approx(154 / 307.2, abs=1e-12)
        assert second.alpha + second.beta == 1.0

    def test_on_target_gives_one_over_t(self, matrix32):
        assert on_target_run(2, matrix32).stages[1].alpha == pytest.approx(0.5, abs=1e-15)
        later = on_target_run(4, matrix32).stages[1:]
        for t, state in enumerate(later, start=2):
            assert state.alpha == pytest.approx(1 / t, abs=1e-12)

    def test_exhausted_budget_clamps(self):
        spent = spent_stage_run().stages[1]
        assert spent.alpha == 0.0 and spent.beta == 1.0


class TestFixedRatio:
    def test_uniform_after_stage_one(self, matrix32):
        # stage 1 gives each of the 9 blocks 576 / 9 = 64
        assert np.allclose(on_target_run(4, matrix32).stages[1].problem.r, 1 / 9)

    def test_hand_case(self, matrix32):
        plan = on_target_run(4, matrix32)
        held = [114, 114, 114, 114, 243, 114, 113, 113, 113]
        assert plan.stages[1].cumulative_M.tolist() == held
        assert plan.stages[2].problem.r.tolist() == [c / 1152 for c in held]

    def test_sums_to_one(self, matrix32):
        for kind in ("checkerboard", "gradient"):
            for predictor in (OracleBoundsPredictor(), EnergyBoundsPredictor()):
                plan = run_simulation(synthetic_image(kind), 32, 0.3, 5, predictor, matrix32)
                for prev, state in zip(plan.stages, plan.stages[1:]):
                    held = prev.cumulative_M
                    assert np.array_equal(state.problem.r, held / held.sum())
                    assert state.problem.r.sum() == pytest.approx(1.0, abs=1e-12)


class TestUpperBounds:
    def test_worked_example(self, matrix32):
        # 1024 - 154 = 870 rows left for a stage handing out (0.3 - 154/1024) * 1024
        second = one_block_run(0.3, 2, matrix32).stages[1]
        assert second.problem.a[0] == pytest.approx(870 / (second.stage_rate * 1024), abs=1e-12)
        assert second.problem.a[0] == pytest.approx(5.6789, abs=1e-4)

    def test_exhausted_block(self, matrix32):
        # at rate 0.9 over 6 stages the oracle fills the textured block before the last stage
        prev, last = run_simulation(synthetic_image("checkerboard"), 32, 0.9, 6,
                                    OracleBoundsPredictor(), matrix32).stages[-2:]
        assert prev.cumulative_M[4] == 1024
        assert last.problem.a[4] == 0.0
        assert (np.delete(last.problem.a, 4) > 0).all()

    def test_small_rate_large_headroom(self, matrix32):
        # 20 stages at rate 0.01: stage 3 hands out one measurement of 1023 free rows
        third = one_block_run(0.01, 20, matrix32).stages[2]
        assert third.budget == 1
        assert third.problem.a[0] > 1000

    def test_caps_always_feasible(self):
        # sum(a) >= 1 on every solved stage whenever the overall target rate is at most 1
        rng = np.random.default_rng(62)
        matrix = build_matrix(8, seed=1)
        for _ in range(200):
            h, w = 8 * rng.integers(1, 6, size=2)
            rate = float(rng.uniform(0.01, 1.0))
            stages = int(rng.integers(2, 9))
            if round_half_up(rate / stages * h * w) < h * w // 64:
                continue  # a starved first stage is rejected before any caps exist
            plan = run_simulation(Image(rng.random((h, w))), 8, rate, stages,
                                  OracleBoundsPredictor(), matrix)
            for state in plan.stages:
                if state.problem is not None:
                    assert state.problem.a.sum() >= 1.0 - 1e-9


class TestPredictors:
    def test_oracle_matches_analysis(self, matrix32):
        # the oracle predicts the bounds of the image's own coefficients, bit for bit
        grid = partition(synthetic_image("gradient"), 32)
        result = analyze(grid, 0.2)
        plan = multistage.simulate(result, 2, OracleBoundsPredictor(), matrix32)
        assert plan.grid is result.grid
        expected = bounds_of(dct2_blocks(grid.blocks), result.threshold)
        assert np.array_equal(plan.stages[1].predicted_bounds, expected)

    def test_flat_block_near_zero(self):
        coeffs = dct2_blocks(np.full((1, 8, 8), 0.5))
        predicted = OracleBoundsPredictor().predict(np.zeros((1, 64)), np.array([1]),
                                                    bounds_of(coeffs, 0.5))
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
        y_flat[:m] = sample_rows(matrix32, 1, m, flat[None])[0]
        y_tex = np.zeros(1024)
        y_tex[:m] = sample_rows(matrix32, 1, m, textured[None])[0]
        assert predict_bounds_energy(y_tex, m) > predict_bounds_energy(y_flat, m)

    def test_batched_energy_matches_per_block(self):
        rng = np.random.default_rng(67)
        counts = rng.integers(0, 65, size=300)
        values = np.where(np.arange(64) < counts[:, None], rng.standard_normal((300, 64)), 0.0)
        values[:5] = 0.0  # flat blocks fall to the floor
        batched = EnergyBoundsPredictor().predict(values, counts, None)
        assert batched.shape == (300,)
        for i in range(300):
            assert batched[i] == predict_bounds_energy(values[i], int(counts[i]))

    def test_oracle_returns_true_bounds(self):
        bounds = np.array([0.5, 2.0, 1.0])
        oracle = OracleBoundsPredictor()
        assert np.array_equal(oracle.predict(np.zeros((3, 4)), np.array([1, 1, 1]), bounds), bounds)

    def test_base_class_is_abstract(self):
        with pytest.raises(NotImplementedError):
            BoundsPredictor().predict(np.zeros(4), None, None)

    def test_shared_oracle_serves_each_run_its_own_bounds(self, monkeypatch):
        # a second run on the same oracle, started inside the first run's stage-2 solve,
        # leaves the first run's later stages as they are when it runs alone
        matrix = build_matrix(8, seed=1)
        oracle = OracleBoundsPredictor()
        gradient, checker = synthetic_image("gradient", 8), synthetic_image("checkerboard", 8)
        solo = run_simulation(gradient, 8, 0.3, 3, oracle, matrix)
        solo_checker = run_simulation(checker, 8, 0.3, 3, oracle, matrix)
        solve, calls, nested = multistage.solve, [], []

        def solve_starting_another_run(problem):
            calls.append(problem)
            if len(calls) == 1:
                nested.append(run_simulation(checker, 8, 0.3, 3, oracle, matrix))
            return solve(problem)

        monkeypatch.setattr(multistage, "solve", solve_starting_another_run)
        interleaved = run_simulation(gradient, 8, 0.3, 3, oracle, matrix)
        assert len(nested) == 1 and len(calls) > 2
        assert interleaved.final_M.tolist() == solo.final_M.tolist()
        assert ([state.stage_M.tolist() for state in interleaved.stages]
                == [state.stage_M.tolist() for state in solo.stages])
        assert nested[0].final_M.tolist() == solo_checker.final_M.tolist()

    @pytest.mark.parametrize("name", sorted(PREDICTORS))
    def test_results_read_only_and_predictors_stateless(self, name, matrix32):
        predictor = PREDICTORS[name]()
        plan = run_simulation(synthetic_image("gradient"), 32, 0.3, 3, predictor, matrix32)
        arrays = list(arrays_in(plan))
        solved = plan.stages[1]
        for expected in (solved.stage_M, solved.cumulative_M, solved.predicted_bounds,
                         solved.problem.p, solved.problem.r, solved.problem.a, solved.solution.q,
                         plan.records.values, plan.records.counts):
            assert any(array is expected for array in arrays)
        assert [array.shape for array in arrays if array.flags.writeable] == []
        assert vars(predictor) == {}


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
        for rate in (0.1, 0.3):
            plan = run_simulation(img, 32, rate, 1, OracleBoundsPredictor(), matrix32)
            uniform = uniform_plan(img, 32, rate)
            assert np.array_equal(plan.final_M, uniform.per_block_M)
            assert plan.total_measurements == uniform.total_budget

    def test_records_are_row_prefixes(self, matrix32):
        runs = [("gradient", 5, OracleBoundsPredictor()), ("gradient", 5, EnergyBoundsPredictor())]
        runs += [("checkerboard", stages, OracleBoundsPredictor()) for stages in (2, 5, 8)]
        for kind, stages, predictor in runs:
            img = synthetic_image(kind)
            plan = run_simulation(img, 32, 0.3, stages, predictor, matrix32)
            records = plan.records
            assert plan.final_M is records.counts
            assert records.counts.max() <= 1024
            blocks = partition(img, 32).blocks.reshape(-1, 32, 32)
            for i, count in enumerate(records.counts):
                reference = matrix32.rows[:count] @ blocks[i].reshape(-1)
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
            true_m = bounds_of(coeffs, analyze(grid, 0.1).threshold)
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
        assert plan.stages[0].diagnostic is None
        for state in plan.stages[1:]:
            ce, kl = state.diagnostic
            assert kl >= -1e-12

    def test_oracle_diagnostic_is_zero_kl(self, matrix32):
        # the oracle predicts the true bounds, so stage KL must vanish
        img = synthetic_image("checkerboard")
        plan = run_simulation(img, 32, 0.2, 2, OracleBoundsPredictor(), matrix32)
        _, kl = plan.stages[1].diagnostic
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

    def test_operator_size_must_match_block_size(self, matrix32):
        result = analyze(partition(synthetic_image("flat", 8), 8), 0.2)
        with pytest.raises(ValueError, match="operator size does not match the block size"):
            multistage.simulate(result, 2, OracleBoundsPredictor(), matrix32)

    def test_prior_must_be_a_nonnegative_vector_per_block(self, matrix32):
        result = analyze(partition(synthetic_image("checkerboard"), 32), 0.1)
        for prior in (np.ones(8), np.ones((9, 1)), -result.bounds, np.full(9, np.nan), np.full(9, np.inf)):
            with pytest.raises(ValueError, match="stage-1 prior"):
                multistage.simulate(result, 2, OracleBoundsPredictor(), matrix32, prior)

    def test_prior_must_measure_every_block_before_a_later_stage(self, monkeypatch):
        # a black block's bound is 0, so sharing stage 1 by the bounds leaves it at 0;
        # one stage may (the single-pass plan), a later stage's KL program may not
        pixels = np.random.default_rng(0).random((64, 64))
        pixels[:16, :16] = 0.0
        result = analyze(partition(Image(pixels), 16), 0.3)
        matrix16 = build_matrix(16, 1)
        assert multistage.simulate(result, 1, OracleBoundsPredictor(), matrix16, result.bounds).final_M[0] == 0
        calls = []
        monkeypatch.setattr(multistage, "sample_rows", lambda *args: calls.append(args))
        for prior in (result.bounds, np.r_[1e-6, np.ones(15)]):
            with pytest.raises(ValueError, match="a later stage needs every block measured"):
                multistage.simulate(result, 2, OracleBoundsPredictor(), matrix16, prior)
        assert calls == []

    def test_starved_first_stage_rejected(self, matrix32):
        img = synthetic_image("flat")
        # stage-1 budget round(0.01 * 9216 / 64) = 1 < 9 blocks
        with pytest.raises(ValueError, match="block count"):
            run_simulation(img, 32, 0.01, 64, OracleBoundsPredictor(), matrix32)
        # the stage check runs before the analysis, so it checks the rate itself
        for rate in (0.0, 1.5, math.nan):
            with pytest.raises(ValueError, match=r"sampling rate must lie in \(0, 1\]"):
                multistage.check_stages(partition(img, 32), rate, 2)
        with pytest.raises(ValueError, match=r"sampling rate must lie in \(0, 1\]"):
            run_simulation(img, 32, 1.5, 2, OracleBoundsPredictor(), matrix32)

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
        # one 4x4 block at rate 1: round(16 / N) >= 1 up to N = 32, far past 16 / 1.5
        with pytest.raises(ValueError, match=r"at most 32 stage\(s\)"):
            run_simulation(Image(np.full((4, 4), 0.5)), 4, 1.0, 33, OracleBoundsPredictor(),
                           build_matrix(4, 1))

    def test_spent_stage_takes_nothing_and_never_predicts(self):
        class Refusing(BoundsPredictor):
            def predict(self, values, counts, true_bounds):
                raise AssertionError("a spent stage must not predict")

        plan = spent_stage_run(Refusing())
        first, spent = plan.stages
        assert first.budget == 1 and first.stage_M.tolist() == [1]
        assert spent.stage_rate == pytest.approx(0.05, abs=1e-15) and spent.stage_rate < 0.05
        assert spent.budget == 0
        assert (spent.alpha, spent.beta) == (0.0, 1.0)
        assert spent.stage_M.tolist() == [0] and spent.cumulative_M.tolist() == [1]
        assert spent.predicted_bounds is None and spent.problem is None and spent.solution is None
        assert first.diagnostic is None and spent.diagnostic is None
        assert plan.final_M.tolist() == [1] and plan.records.counts.tolist() == [1]

    def test_headroom_caps_a_later_stage(self):
        # 1 x 3 blocks of 3x3 at rate 0.5: stage 2 shares its 7 as q ~ [0.92, 0.04, 0.04],
        # which rounds to 7 for block 0 past its headroom of 9 - 3; the cap moves one on
        img = Image(np.random.default_rng(184).random((3, 8)) ** 3)
        plan = run_simulation(img, 3, 0.5, 2, EnergyBoundsPredictor(), build_matrix(3, 1))
        first, second = plan.stages
        assert first.stage_M.tolist() == [3, 2, 2] and second.budget == 7
        assert second.stage_M.tolist() == [6, 1, 0] and plan.final_M.tolist() == [9, 3, 2]

    def test_full_rate_saturates_all_blocks(self, matrix32):
        img = synthetic_image("checkerboard")
        plan = run_simulation(img, 32, 1.0, 2, OracleBoundsPredictor(), matrix32)
        assert (plan.final_M == 1024).all()
