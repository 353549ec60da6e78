import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import bounds_of, planted
from rate_alloc import analysis
from rate_alloc.analysis import (
    Analysis,
    CurveParams,
    DEFAULT_CURVE,
    analyze,
    measurement_bounds,
    solve_threshold,
    sparsity_profile,
    target_sparsity_ratio,
)
from rate_alloc.allocation import apportion, proportional_shares
from rate_alloc.imaging import Image, dct2_blocks, partition
from rate_alloc.synthetic import KINDS, synthetic_image


class TestCurve:
    def test_formula_value(self):
        # direct evaluation: 0.0444 * ln(78.77 * 0.09 + 1) + 0.005
        assert target_sparsity_ratio(0.1, DEFAULT_CURVE) == pytest.approx(
            0.097820073713332886, abs=1e-15
        )

    def test_anchor_for_any_params(self):
        params = CurveParams(a=5.0, b=0.2, s_r1=0.03, p_s1=0.07)
        assert target_sparsity_ratio(params.s_r1, params) == params.p_s1

    def test_below_anchor_rejected(self):
        with pytest.raises(ValueError):
            target_sparsity_ratio(0.005, DEFAULT_CURVE)

    @pytest.mark.parametrize("rate", [0.0, -0.1, 1.5, math.nan])
    def test_rate_range_checked_before_anchor(self, rate):
        with pytest.raises(ValueError, match=r"sampling rate must lie in \(0, 1\]"):
            target_sparsity_ratio(rate, DEFAULT_CURVE)

    def test_saturated_ratio_rejected(self):
        params = CurveParams(a=100.0, b=5.0, s_r1=0.01, p_s1=0.5)
        with pytest.raises(ValueError):
            target_sparsity_ratio(0.9, params)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            CurveParams(a=-1.0, b=0.1, s_r1=0.01, p_s1=0.005)


class TestSparsityRatio:
    def test_zero_threshold_all_nonzero(self):
        blocks = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        assert sparsity_profile(blocks, 0.0).overall_ratio == 1.0

    def test_above_max_is_zero(self):
        blocks = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        assert sparsity_profile(blocks, 5.0).overall_ratio == 0.0

    def test_hand_count_two_blocks(self):
        blocks = np.array([[[1.0, 2.0], [3.0, 4.0]], [[0.0, 0.0], [0.0, 5.0]]])
        # magnitudes above 2.5: {3, 4, 5} out of 8
        assert sparsity_profile(blocks, 2.5).overall_ratio == 3 / 8

    def test_strict_inequality(self):
        blocks = np.array([[[2.0, 2.0], [2.0, 2.0]]])
        assert sparsity_profile(blocks, 2.0).overall_ratio == 0.0


def exhaustive_threshold(coeff_blocks, target_ps):
    """Reference: sort every magnitude, score every candidate, first minimum wins."""
    mags = np.abs(np.asarray(coeff_blocks, dtype=np.float64)).reshape(-1)
    sorted_mags = np.sort(mags)
    candidates = np.unique(np.concatenate(([0.0], sorted_mags)))
    # count of |f| > T for each candidate T, via one binary search per candidate
    above = mags.size - np.searchsorted(sorted_mags, candidates, side="right")
    distances = np.abs(above / mags.size - target_ps)
    # argmin returns the first minimum; candidates ascend, so ties pick smaller T
    return float(candidates[np.argmin(distances)])


def assert_bit_equal(coeffs, target):
    """The linear-time selection returns the exhaustive search's float, bit for bit."""
    got = solve_threshold(coeffs, target)
    assert type(got) is float
    assert got.hex() == exhaustive_threshold(coeffs, target).hex()


class TestSolveThreshold:
    BLOCK = np.array([[[1.0, 2.0], [3.0, 4.0]]])

    def test_target_one_gives_zero(self):
        assert solve_threshold(self.BLOCK, 1.0) == 0.0

    def test_exact_half(self):
        assert solve_threshold(self.BLOCK, 0.5) == 2.0

    def test_nearest_candidate(self):
        # candidates {0,1,2,3,4} give ratios {1,.75,.5,.25,0}; 0.5 is nearest 0.6
        assert solve_threshold(self.BLOCK, 0.6) == 2.0

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(11)
        cases = [(rng.standard_normal((3, 4, 4)), float(rng.uniform(0.01, 1.0))) for _ in range(25)]
        cases.append((np.random.default_rng(12).standard_normal((4, 4, 4)), 0.3))
        # 1/49 * 49 rounds below 1, so the count search starts one short of k = 1 (T = 48)
        cases.append((np.arange(1.0, 50.0), 1 / 49))
        for blocks, target in cases:
            assert_bit_equal(blocks, target)

    def test_ratio_non_increasing_in_threshold(self):
        rng = np.random.default_rng(13)
        blocks = rng.standard_normal((2, 8, 8))
        candidates = np.sort(np.unique(np.concatenate(([0.0], np.abs(blocks).ravel()))))
        ratios = [sparsity_profile(blocks, t).overall_ratio for t in candidates]
        assert all(a >= b for a, b in zip(ratios, ratios[1:]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            solve_threshold(np.empty((0, 2, 2)), 0.5)
        with pytest.raises(ValueError, match=r"target sparsity ratio must lie in \(0, 1\]"):
            solve_threshold(self.BLOCK, 0.0)


def seeded(draw_values):
    return st.builds(lambda seed, n: draw_values(np.random.default_rng(seed), n),
                     st.integers(0, 2**32 - 1), st.integers(1, 300))


COEFFICIENT_SETS = st.one_of(
    seeded(lambda rng, n: rng.standard_normal(n)),
    # half-integer grid: many exact ties between magnitudes
    st.lists(st.integers(-6, 6), min_size=1, max_size=300).map(lambda v: np.array(v) / 2),
    # three levels only
    st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=1, max_size=300).map(np.array),
    # mostly exact zeros
    seeded(lambda rng, n: rng.standard_normal(n) * (rng.random(n) < rng.uniform(0, 0.3))),
    # one value repeated, and n = 1
    st.builds(np.full, st.integers(1, 300), st.sampled_from([0.0, -0.0, 0.25, -3.0, 1e300])),
    st.floats(allow_nan=False).map(lambda v: np.array([v])),
)


def targets(n):
    """Uniform in (0, 1], an exact ratio k/n that a candidate can hit, or one ulp below it."""
    return st.one_of(st.floats(0.0, 1.0, exclude_min=True),
                     st.integers(1, n).map(lambda k: k / n),
                     st.integers(1, n).map(lambda k: math.nextafter(k / n, 0.0)))


def seeded_texture(seed, h, w):
    """A smooth ramp plus clipped noise."""
    rng = np.random.default_rng(seed)
    ramp = np.linspace(0.0, 1.0, w)[None, :] * np.ones((h, 1))
    return Image(np.clip(0.6 * ramp + 0.4 * rng.random((h, w)), 0.0, 1.0))


class TestThresholdSelection:
    @settings(max_examples=400, deadline=None)
    @given(data=st.data(), coeffs=COEFFICIENT_SETS)
    def test_equals_exhaustive_search(self, data, coeffs):
        assert_bit_equal(coeffs, data.draw(targets(coeffs.size)))

    @settings(max_examples=400, deadline=None)
    @given(data=st.data(), coeffs=COEFFICIENT_SETS)
    def test_sampled_window_equals_exhaustive_search(self, data, coeffs):
        # with the floor at 1, sets of 8 or more magnitudes are searched through a sampled window
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(analysis, "_SAMPLE_FLOOR", 1)
            assert_bit_equal(coeffs, data.draw(targets(coeffs.size)))

    @pytest.mark.parametrize("case, target", [
        ("rank below window", 0.5),
        ("rank above window", 0.9),
        ("window starts at hi", 0.5),
    ])
    def test_missed_window_is_widened(self, case, target, monkeypatch):
        n = 20_000
        positions = analysis._sample_positions(n)
        rng = np.random.default_rng(19)
        if case == "window starts at hi":
            # the sample's ranks around the target all read 3; the ones below them are lo
            coeffs = np.where(rng.random(n) < 0.3, 1.0, 3.0)
        else:
            # the sampled magnitudes lie on one side of all the others
            sampled, rest = (10.0, 1.0) if case == "rank below window" else (1.0, 10.0)
            coeffs = rest + rng.random(n)
            coeffs[positions] = sampled + rng.random(positions.size)
        window_pass, passes = analysis._window_pass, []
        monkeypatch.setattr(analysis, "_window_pass",
                            lambda *args: passes.append(args[1:]) or window_pass(*args))
        assert_bit_equal(coeffs, target)
        assert len(passes) > 1

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), image=st.sampled_from([*KINDS, "texture"]),
           block=st.sampled_from([8, 16]))
    def test_equals_exhaustive_search_on_images(self, data, image, block):
        if image == "texture":
            pixels = seeded_texture(7, 5 * block + 3, 4 * block - 5)
        else:
            pixels = synthetic_image(image, block)
        coeffs = dct2_blocks(partition(pixels, block).blocks)
        assert_bit_equal(coeffs, data.draw(targets(coeffs.size)))

    def test_ratio_crossing_ties_pick_smaller(self):
        # target 0.375 lies halfway between the ratios 0.5 (T=2) and 0.25 (T=3)
        assert solve_threshold(np.array([1.0, 2.0, 3.0, 4.0]), 0.375) == 2.0
        # 0.75 lies halfway between the ratios 1 (T=0) and 0.5 (T=2)
        assert solve_threshold(np.array([2.0, 2.0, 3.0, 3.0]), 0.75) == 0.0

    def test_input_not_mutated(self):
        coeffs = np.random.default_rng(17).standard_normal((6, 4, 4))
        before = coeffs.copy()
        solve_threshold(coeffs, 0.3)
        assert np.array_equal(coeffs, before)

    def test_read_only_input_accepted(self):
        coeffs = np.random.default_rng(18).standard_normal((6, 4, 4))
        coeffs.setflags(write=False)
        assert solve_threshold(coeffs, 0.3) == exhaustive_threshold(coeffs, 0.3)


def block_sparsity(block, threshold):
    return int(sparsity_profile(np.asarray(block)[None], threshold).per_block_k[0])


class TestBlockSparsity:
    def test_zero_block(self):
        assert block_sparsity(np.zeros((4, 4)), 1.0) == 0

    def test_all_above_zero(self):
        assert block_sparsity(np.full((4, 4), 0.1), 0.0) == 16

    def test_hand_case(self):
        assert block_sparsity(np.array([[0.1, 5.0], [5.0, 0.2]]), 1.0) == 2


class TestMeasurementBounds:
    def test_empty_block(self):
        assert measurement_bounds(0, 1024) == 0.0

    def test_direct_value(self):
        assert measurement_bounds(102, 1024) == pytest.approx(
            102 * math.log10(1024 / 102), abs=1e-12
        )
        assert measurement_bounds(102, 1024) == pytest.approx(102.17337805754522)

    def test_clamped_at_peak(self):
        # beyond n/e the raw formula decreases; the clamp keeps the peak value
        peak = math.floor(1024 / math.e)
        assert peak == 376
        assert measurement_bounds(1024, 1024) == measurement_bounds(376, 1024)
        assert measurement_bounds(1024, 1024) == pytest.approx(163.60215400376873)

    def test_monotone_in_k(self):
        for n in (16, 64, 256, 1024):
            values = [measurement_bounds(k, n) for k in range(n + 1)]
            assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            measurement_bounds(17, 16)


class TestProfiles:
    def test_all_zero_grid(self):
        assert not bounds_of(np.zeros((4, 2, 2)), 0.0).any()

    def test_identical_blocks_equal_bounds(self):
        rng = np.random.default_rng(14)
        block = rng.standard_normal((4, 4))
        assert np.ptp(bounds_of(np.stack([block] * 5), 0.5)) == 0.0

    def test_textured_block_dominates(self):
        flat = np.full((8, 8), 0.5)
        checker = (np.add.outer(np.arange(8), np.arange(8)) % 2).astype(float)
        coeffs = dct2_blocks(np.stack([flat, flat, checker, flat]))
        m = bounds_of(coeffs, 1e-6)
        assert m[2] > m[[0, 1, 3]].max()
        # a flat block keeps only its DC coefficient: k = 1, bound log10(64)
        assert m[0] == pytest.approx(math.log10(64), abs=1e-12)
        assert bounds_of(coeffs[:1], 0.5)[0] == m[0]

    def test_overall_ratio_identity(self):
        rng = np.random.default_rng(15)
        blocks = rng.standard_normal((6, 4, 4))
        profile = sparsity_profile(blocks, 0.8)
        assert profile.overall_ratio == profile.per_block_k.sum() / blocks.size

    def test_bounds_equal_per_block_formula(self):
        rng = np.random.default_rng(16)
        blocks = rng.standard_normal((200, 8, 8)) * rng.exponential(size=(200, 1, 1))
        for threshold in (0.0, 0.3, 1.0, 10.0):
            k = sparsity_profile(blocks, threshold).per_block_k
            expected = [measurement_bounds(int(v), 64) for v in k]
            assert bounds_of(blocks, threshold).tolist() == expected

    def test_negative_bounds_rejected(self):
        with pytest.raises(ValueError):
            proportional_shares(np.array([-1.0]), 1)
        with pytest.raises(ValueError, match="budget must be nonnegative"):
            proportional_shares(np.array([1.0]), -1)


class TestAnalyze:
    def test_one_pass_matches_the_steps(self):
        img = synthetic_image("checkerboard", 8)
        grid = partition(img, 8)
        result = analyze(grid, 0.2)
        coeffs = dct2_blocks(grid.blocks)
        assert result.grid is grid and result.rate == 0.2
        assert result.target_ratio == target_sparsity_ratio(0.2)
        assert result.threshold == solve_threshold(coeffs, result.target_ratio)
        sparsity = sparsity_profile(coeffs, result.threshold)
        assert np.array_equal(result.sparsity.per_block_k, sparsity.per_block_k)
        assert result.sparsity.overall_ratio == sparsity.overall_ratio
        expected = bounds_of(coeffs, result.threshold)
        assert np.array_equal(result.bounds, expected)
        assert result.bounds.dtype == np.float64 and not result.bounds.flags.writeable

    def test_keeps_no_coefficients(self):
        result = analyze(partition(synthetic_image("gradient", 8), 8), 0.1)
        fields = {f.name for f in dataclasses.fields(Analysis)}
        assert fields == {"grid", "rate", "target_ratio", "sparsity", "bounds"}
        with pytest.raises(dataclasses.FrozenInstanceError):
            result.rate = 0.5

    def test_rate_out_of_range_rejected(self):
        grid = partition(synthetic_image("flat", 8), 8)
        for rate in (0.0, 1.5):
            with pytest.raises(ValueError):
                analyze(grid, rate)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), b=st.sampled_from([4, 8, 16, 32]),
       rows=st.integers(1, 11), cols=st.integers(1, 11), rate=st.floats(0.02, 0.6))
def test_analysis_recovers_planted_sparsity(seed, b, rows, cols, rate):
    # plant the count nearest the target, ties to the larger as the threshold search breaks
    # them: every block's planted AC count plus its DC term is what analyze returns
    n, size = rows * cols, rows * cols * b * b
    target = target_sparsity_ratio(rate)
    low = int(target * size)
    total = low + (abs(low / size - target) >= abs((low + 1) / size - target))
    assume(n <= total)
    rng = np.random.default_rng(seed)
    ks = apportion(proportional_shares(rng.random(n), total - n), total - n, b * b - 1)
    result = analyze(partition(planted(rng, rows, cols, b, ks), b), rate)
    assert np.array_equal(result.sparsity.per_block_k, ks + 1)
