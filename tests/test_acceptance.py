"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own pass/fail report.
"""

import math
import time

import numpy as np
import pytest

from conftest import bounds_of, random_problem
from rate_alloc.allocation import round_half_up, single_stage_plan, uniform_plan
from rate_alloc.analysis import DEFAULT_CURVE, target_sparsity_ratio
from rate_alloc.imaging import Image, dct2_blocks, dct_matrix, partition
from rate_alloc.kl_solver import (
    KlAllocProblem,
    STATUS_NEWTON,
    _newton,
    kkt_residual,
    oracle_solve,
    q_total,
    solve,
)
from rate_alloc.multistage import OracleBoundsPredictor, kl_diagnostic, run_simulation
from rate_alloc.sensing import (
    adjoint_reconstruct,
    build_matrix,
    psnr,
    reconstruct_plan,
    sample_plan,
    sample_rows,
)
from rate_alloc.synthetic import synthetic_image

SWEEP_RATES = (0.01, 0.04, 0.1, 0.25, 0.3, 0.4, 0.5)


@pytest.fixture(scope="module")
def solver_corpus():
    """1000 random programs solved by both routes, with wall time."""
    rng = np.random.default_rng(20240810)
    start = time.perf_counter()
    entries = []
    for _ in range(1000):
        prob = random_problem(rng)
        sol = solve(prob)
        ref = oracle_solve(prob)
        residual = kkt_residual(prob, sol.q, sol.mu_star)
        entries.append((prob, sol, ref, residual))
    return entries, time.perf_counter() - start


def test_c01_solver_oracle_equivalence(solver_corpus):
    entries, elapsed = solver_corpus
    sizes = {p.size for p, _, _, _ in entries}
    assert len(entries) >= 1000
    assert min(sizes) >= 1 and max(sizes) <= 512
    worst_gap = worst_sum = worst_kkt = 0.0
    for _, sol, ref, residual in entries:
        worst_gap = max(worst_gap, float(np.abs(sol.q - ref.q).max()))
        worst_sum = max(worst_sum, abs(float(sol.q.sum()) - 1.0))
        worst_kkt = max(worst_kkt, residual)
    assert worst_gap <= 1e-8
    assert worst_sum <= 1e-10
    assert worst_kkt <= 1e-8
    assert elapsed < 10.0
    print(
        f"\ncriterion 1 PASS: 1000 problems, gap {worst_gap:.2e}, "
        f"sum dev {worst_sum:.2e}, kkt {worst_kkt:.2e}, {elapsed:.2f}s"
    )


def test_c02_hand_worked_instance():
    prob = KlAllocProblem(p=[0.6, 0.3, 0.1], r=[1 / 3] * 3, alpha=0.5, a=[0.5, 1.0, 1.0])
    assert prob.beta / prob.alpha == 1.0  # initialization lands on mu = 1
    sol = solve(prob)
    assert np.abs(sol.q - np.array([0.5, 0.5, 0.0])).max() <= 1e-12
    assert abs(sol.mu_star - 25 / 9) <= 1e-12
    assert sol.status == STATUS_NEWTON
    assert sol.iterations <= 3
    assert all(kind == "newton" for _, kind in sol.trace)
    print(
        f"\ncriterion 2 PASS: q={sol.q.tolist()}, mu*={sol.mu_star!r}, "
        f"{sol.iterations} newton steps"
    )


def test_c03_lemma_one_direction():
    rng = np.random.default_rng(33)
    pairs = degenerate = violations = 0
    while pairs < 10000:
        prob = random_problem(rng, n=int(rng.integers(1, 129)))
        root = oracle_solve(prob).mu_star
        pos = prob.p > 0
        hi = float(((prob.a[pos] + prob.beta * prob.r[pos] / prob.alpha) / prob.p[pos]).max())
        for _ in range(20):
            if pairs >= 10000:
                break
            mu = float(rng.uniform(1e-9, hi))
            step = _newton(prob, mu)
            pairs += 1
            if step is None:
                degenerate += 1
                continue
            tol = 1e-12 * max(1.0, abs(root))
            lhs = 0 if abs(step - mu) <= tol else math.copysign(1, step - mu)
            rhs = 0 if abs(root - mu) <= tol else math.copysign(1, root - mu)
            if lhs != rhs:
                violations += 1
    assert pairs == 10000
    assert pairs - degenerate > 1000  # the property must actually be exercised
    assert violations == 0
    print(
        f"\ncriterion 3 PASS: 10000 pairs, {degenerate} degenerate excluded, "
        "0 violations"
    )


def test_c04_newton_termination_exactness(solver_corpus):
    entries, _ = solver_corpus
    checked = 0
    worst = 0.0
    for prob, sol, _, _ in entries:
        if sol.status == STATUS_NEWTON:
            checked += 1
            worst = max(worst, abs(q_total(prob, sol.mu_star) - 1.0))
    assert checked > 100
    assert worst <= 1e-12
    print(f"\ncriterion 4 PASS: {checked} newton-converged solves, worst |Q-1| {worst:.2e}")


def test_c05_conservation_and_caps():
    rng = np.random.default_rng(55)
    images = [synthetic_image(kind) for kind in ("flat", "checkerboard", "gradient")]
    images.append(Image(rng.random((70, 50))))  # padded 96x64 grid
    checked = 0
    for image in images:
        for s_r in SWEEP_RATES:
            plan = single_stage_plan(image, 32, s_r)
            assert plan.per_block_M.sum() == round_half_up(s_r * plan.padded_pixel_count)
            assert plan.per_block_M.min() >= 0
            assert plan.per_block_M.max() <= 1024
            checked += 1
        full = single_stage_plan(image, 32, 1.0)
        assert (full.per_block_M == 1024).all()
    print(f"\ncriterion 5 PASS: {checked} (image, rate) plans conserve exactly; rate 1 saturates")


def test_c06_curve_anchor():
    assert target_sparsity_ratio(0.01, DEFAULT_CURVE) == 0.005
    print("\ncriterion 6 PASS: target ratio at the anchor rate is exactly 0.005")


def test_c07_transform_and_operator_algebra(matrix32):
    for b in (4, 8, 16, 32):
        m = dct_matrix(b)
        assert np.abs(m.T @ m - np.eye(b)).max() <= 1e-12
    rng = np.random.default_rng(77)
    for b in (4, 8, 32):
        blocks = rng.standard_normal((1, b, b))
        m = dct_matrix(b)
        assert np.abs(m.T @ dct2_blocks(blocks) @ m - blocks).max() <= 1e-10
    gram_err = np.abs(matrix32.rows @ matrix32.rows.T - np.eye(1024)).max()
    assert gram_err <= 1e-9
    worst_pyth = 0.0
    for _ in range(50):
        x = rng.standard_normal((1, 1024))
        m = int(rng.integers(0, 1025))
        xh = adjoint_reconstruct(matrix32, 1, m, sample_rows(matrix32, 1, m, x))
        worst_pyth = max(
            worst_pyth, abs((x**2).sum() - (xh**2).sum() - ((x - xh) ** 2).sum())
        )
    assert worst_pyth <= 1e-9
    print(
        f"\ncriterion 7 PASS: dct orthogonality/round-trip ok, "
        f"operator gram {gram_err:.2e}, pythagoras {worst_pyth:.2e}"
    )


def test_c08_multistage_bookkeeping(matrix32):
    image = synthetic_image("checkerboard")
    blocks = partition(image, 32).blocks
    pixels = 9216
    for stages in (2, 5, 8):
        plan = run_simulation(image, 32, 0.3, stages, OracleBoundsPredictor(), matrix32)
        allocated = 0
        for state in plan.stages:
            assert state.stage_M.sum() == state.budget
            assert state.budget == round_half_up(state.stage_rate * pixels)
            allocated += state.budget
        assert plan.total_measurements == allocated
        assert abs(plan.total_measurements - round_half_up(0.3 * pixels)) <= stages
        assert plan.final_M.max() <= 1024
        records = plan.records
        assert np.array_equal(records.counts, plan.final_M)
        for i, count in enumerate(records.counts):
            reference = matrix32.rows[:count] @ blocks[i].reshape(-1)
            assert np.abs(records.values[i, :count] - reference).max() <= 1e-12
            assert not records.values[i, count:].any()
    single = run_simulation(image, 32, 0.3, 1, OracleBoundsPredictor(), matrix32)
    uniform = uniform_plan(image, 32, 0.3)
    assert np.array_equal(single.final_M, uniform.per_block_M)
    print("\ncriterion 8 PASS: stages exact for N in {2,5,8}; N=1 identical to uniform")


def test_c09_adaptive_benefit():
    start = time.perf_counter()
    image = synthetic_image("checkerboard")
    matrix = build_matrix(32, seed=1)
    grid = partition(image, 32)

    adaptive = single_stage_plan(image, 32, 0.1)
    uniform = uniform_plan(image, 32, 0.1)
    multi = run_simulation(image, 32, 0.1, 2, OracleBoundsPredictor(), matrix)

    center = 4  # the textured block of the 3x3 synthetic
    for counts in (adaptive.per_block_M, multi.final_M):
        assert counts[center] > np.delete(counts, center).max()

    def quality(counts):
        records = sample_plan(grid, counts, matrix)
        recon = reconstruct_plan(adaptive, records, matrix, image.height, image.width)
        return psnr(image, recon)

    psnr_uniform = quality(uniform.per_block_M)
    psnr_single = quality(adaptive.per_block_M)
    psnr_multi = quality(multi.final_M)
    assert psnr_single >= psnr_uniform
    assert psnr_multi >= psnr_uniform

    coeffs = dct2_blocks(grid.blocks)
    true_m = bounds_of(coeffs, adaptive.threshold)
    _, kl_multi = kl_diagnostic(true_m, multi.final_M.astype(float))
    _, kl_uniform = kl_diagnostic(true_m, uniform.per_block_M.astype(float))
    assert kl_multi <= kl_uniform

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(
        f"\ncriterion 9 PASS: psnr uniform {psnr_uniform:.3f} <= single {psnr_single:.3f}, "
        f"multi {psnr_multi:.3f}; kl {kl_multi:.2e} <= {kl_uniform:.2e}; {elapsed:.2f}s"
    )


def test_c10_solver_efficiency_large_n():
    rng = np.random.default_rng(1010)
    iterations = []
    for _ in range(150):
        prob = random_problem(rng, n=1024)
        sol = solve(prob)  # raises SolverInternalError if the cap is hit
        iterations.append(sol.iterations)
        assert sol.iterations < 10 * 1024 + 100
    median = float(np.median(iterations))
    assert median <= 30
    print(
        f"\ncriterion 10 PASS: n=1024 corpus, median {median:.0f} iterations, "
        f"max {max(iterations)}"
    )
