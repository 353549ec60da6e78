"""The benchmark's four workloads: seeded ops and their output checks.

Each `*_ops` function turns a workload seed into a fixed cycle of `Op`s.  An op's
`run` is what the benchmark times; its `check` runs outside the timed
region, raises `CheckFailure` on a wrong output and otherwise returns the
bytes of the op's integer outputs, from which the run's SHA-256 digest is
made.  Ops call the package through module attributes
(`allocation.single_stage_plan`, ...) so the traced run sees every call.

Every input comes from the seed; image sizes, rates and stage counts are
fixed per workload, so all seeds do the same amount of work and only the
content changes.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import inputs
from rate_alloc import allocation, analysis, imaging, kl_solver, multistage, sensing

OPERATOR_SEED = 1
KKT_LIMIT = 1e-8
FLOAT_RTOL = 1e-12


class CheckFailure(Exception):
    """An op returned a wrong output."""


@dataclass
class Op:
    """One op of a workload's cycle.

    `mpix` is the padded megapixels it processes; `tags` label its trace
    span; `image` and `block` let the traced run measure the input's share
    of distinct DCT magnitudes; simulate's check sets `psnr`; `traced_run`
    runs a cli command with the tracer installed in the child process.
    """

    label: str
    run: Callable[[], object]
    check: Callable[[object], bytes]
    mpix: float = 0.0
    tags: dict = field(default_factory=dict)
    image: imaging.Image | None = None
    block: int = 0
    psnr: float | None = None
    traced_run: Callable[[Path], object] | None = None


def expect(condition, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


def round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def padded_pixels(image: imaging.Image, block: int) -> int:
    return -(-image.height // block) * block * -(-image.width // block) * block


def close(a: float, b: float) -> bool:
    return a == b or abs(a - b) <= FLOAT_RTOL * max(abs(a), abs(b))


def check_counts(counts, blocks: int, cap: int, total: int, what: str) -> np.ndarray:
    counts = np.asarray(counts, dtype=np.int64)
    expect(counts.size == blocks, f"{what}: {counts.size} counts for {blocks} blocks")
    expect(int(counts.sum()) == total, f"{what}: counts sum to {int(counts.sum())}, budget {total}")
    expect(counts.min() >= 0 and counts.max() <= cap, f"{what}: count outside [0, {cap}]")
    return counts


def distinct_mag_share(image: imaging.Image, block: int) -> float:
    """Share of distinct DCT magnitudes: an input property, not a timing."""
    coeffs = imaging.dct2_blocks(imaging.partition(image, block).blocks)
    return np.unique(np.abs(coeffs)).size / coeffs.size


# ---------------------------------------------------------------------------
# plan: single-pass allocation plus the sparsity map, per image
# ---------------------------------------------------------------------------

PLAN_BLOCK = 16
PLAN_RATES = (0.1, 0.3)


def plan_ops(seed: int, smoke: bool) -> list:
    rng = np.random.default_rng(seed)
    ops = []
    for side in (512,) if smoke else (512, 1024, 2048):
        images = {
            "textured": imaging.Image(inputs.texture(rng, side)),
            "cartoon": imaging.Image(inputs.cartoon(rng, side, block=PLAN_BLOCK)),
        }
        for rate in PLAN_RATES:
            for texture, image in images.items():
                ops.append(_plan_op(image, side, texture, rate))
    return ops


def _plan_op(image, side, texture, rate) -> Op:
    b = PLAN_BLOCK
    pixels = padded_pixels(image, b)
    blocks = pixels // (b * b)

    def run():
        plan = allocation.single_stage_plan(image, b, rate)
        coeffs = imaging.dct2_blocks(imaging.partition(image, b).blocks)
        return plan, analysis.sparsity_profile(coeffs, plan.threshold)

    def check(result):
        plan, profile = result
        budget = round_half_up(rate * pixels)
        expect(plan.total_budget == budget, f"budget {plan.total_budget}, want {budget}")
        counts = check_counts(plan.per_block_M, blocks, b * b, budget, "plan")
        k = np.asarray(profile.per_block_k, dtype=np.int64)
        expect(k.size == blocks and k.min() >= 0 and k.max() <= b * b, "sparsity outside [0, B^2]")
        return counts.tobytes() + k.tobytes()

    return Op(f"plan {side} {texture} r{rate}", run, check, pixels / 1e6,
              {"texture": texture}, image, b)


# ---------------------------------------------------------------------------
# simulate: multi-stage run, adjoint reconstruction and PSNR, per image
# ---------------------------------------------------------------------------

SIM_BLOCK = 16
SIM_RATE = 0.1
# (side, stages, predictor); predictors alternate op by op
SIM_CONFIGS = ((1024, 2, "energy"), (1024, 2, "oracle"), (2048, 4, "energy"), (2048, 4, "oracle"))


def simulate_ops(seed: int, smoke: bool) -> list:
    rng = np.random.default_rng(seed)
    configs = SIM_CONFIGS[:2] if smoke else SIM_CONFIGS
    images = {side: imaging.Image(inputs.texture(rng, side)) for side in dict.fromkeys(c[0] for c in configs)}
    matrix = sensing.build_matrix(SIM_BLOCK, OPERATOR_SEED)
    return [_simulate_op(images[side], side, stages, predictor, matrix)
            for side, stages, predictor in configs]


def _simulate_op(image, side, stages, predictor, matrix) -> Op:
    b, s_r = SIM_BLOCK, SIM_RATE
    pixels = padded_pixels(image, b)
    blocks = pixels // (b * b)

    def run():
        plan = multistage.run_simulation(
            image, b, s_r, stages, multistage.PREDICTORS[predictor](), matrix)
        recon = sensing.reconstruct_plan(plan, plan.records, matrix, image.height, image.width)
        return plan, sensing.psnr(image, recon)

    def check(result):
        plan, quality = result
        expect(len(plan.stages) == stages, f"{len(plan.stages)} stages, want {stages}")
        allocated, out = 0, b""
        cumulative = np.zeros(blocks, dtype=np.int64)
        for t, state in enumerate(plan.stages, start=1):
            # the catch-up rule: stage t spends what brings the total to t/N of the budget
            rate = s_r / stages if t == 1 else max(t * s_r / stages - allocated / pixels, 0.0)
            expect(close(state.stage_rate, rate), f"stage {t} rate {state.stage_rate}, want {rate}")
            budget = max(round_half_up(rate * pixels), 0)
            expect(state.budget == budget, f"stage {t} budget {state.budget}, want {budget}")
            counts = check_counts(state.stage_M, blocks, b * b, budget, f"stage {t}")
            cumulative += counts
            allocated += budget
            expect(np.array_equal(state.cumulative_M, cumulative), f"stage {t} cumulative counts")
            out += counts.tobytes()
        total = round_half_up(s_r * pixels)
        expect(plan.total_measurements == total == allocated,
               f"{plan.total_measurements} measurements, want {total}")
        final = check_counts(plan.final_M, blocks, b * b, total, "final")
        expect(np.array_equal(final, cumulative), "final counts differ from the stage sum")
        expect(math.isfinite(quality) and quality > 0, f"PSNR {quality}")
        op.psnr = quality
        return out

    op = Op(f"simulate {side} N{stages} {predictor}", run, check, pixels / 1e6,
            {"texture": "textured"}, image, b)
    return op


# ---------------------------------------------------------------------------
# solve: the KL allocation program on a seeded stream of programs
# ---------------------------------------------------------------------------

SOLVE_PROGRAMS = 600
SOLVE_SIZES = (16, 16384)


def solve_ops(seed: int, smoke: bool) -> list:
    rng = np.random.default_rng(seed)
    count, (low, high) = (40, (16, 256)) if smoke else (SOLVE_PROGRAMS, SOLVE_SIZES)
    sizes = inputs.log_uniform_sizes(rng, count, low, high)
    # alpha, cap total and zeroed share, each stratified like the sizes
    params = zip(*(inputs.stratified(rng, count) for _ in range(3)))
    return [_solve_op(kl_solver.KlAllocProblem(**inputs.kl_program(rng, int(n), *u)), i)
            for i, (n, u) in enumerate(zip(sizes, params))]


def _solve_op(problem, index) -> Op:
    verified = []

    def run():
        return kl_solver.solve(problem)

    def check(solution):
        q = np.asarray(solution.q, dtype=np.float64)
        expect(q.size == problem.size, "solution length")
        if not verified:
            # the oracle costs about as much as a few solves, so it checks
            # each program once; later repeats must then match bit for bit
            gap = float(np.abs(q - kl_solver.oracle_solve(problem).q).max())
            residual = kl_solver.kkt_residual(problem, q, solution.mu_star)
            expect(gap <= KKT_LIMIT, f"program {index}: oracle gap {gap:.3e}")
            expect(residual <= KKT_LIMIT, f"program {index}: KKT residual {residual:.3e}")
            verified.append(True)
        return q.tobytes() + np.float64(solution.mu_star).tobytes() + np.int64(len(solution.trace)).tobytes()

    return Op(f"solve n={problem.size}", run, check, 0.0, {"n": problem.size})


# ---------------------------------------------------------------------------
# cli: rate-alloc commands, each in a child process, on P2 and P5 files
# ---------------------------------------------------------------------------

CLI_BLOCK = 32
CLI_RATE = 0.1
CLI_TIMEOUT_S = 120
CLI_COMMANDS = (
    ("allocate", "P5", ()),
    ("analyze", "P5", ()),
    ("simulate", "P5", ("--stages", "4", "--predictor", "energy", "--seed", str(OPERATOR_SEED))),
    ("compare", "P5", ("--stages", "2", "--seed", str(OPERATOR_SEED))),
    ("allocate", "P2", ()),
)


def cli_ops(seed: int, smoke: bool, workdir: Path, env: dict, traced_cli: Path) -> list:
    rng = np.random.default_rng(seed)
    side = 256 if smoke else 1024
    samples = inputs.quantize(inputs.texture(rng, side))
    workdir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for fmt in ("P5", "P2"):
        paths[fmt] = workdir / f"input-{fmt}.pgm"
        paths[fmt].write_bytes(inputs.pgm_bytes(samples, fmt))
    image = imaging.Image(samples / 255.0)
    refs = _cli_references(image)
    return [_cli_op(command, fmt, extra, paths[fmt], workdir / f"out-{i}", image, refs, env, traced_cli)
            for i, (command, fmt, extra) in enumerate(CLI_COMMANDS)]


def _cli_references(image) -> dict:
    """What each command must report, computed in this process."""
    b, s_r = CLI_BLOCK, CLI_RATE
    matrix = sensing.build_matrix(b, OPERATOR_SEED)
    coeffs = imaging.dct2_blocks(imaging.partition(image, b).blocks)
    threshold = analysis.solve_threshold(coeffs, analysis.target_sparsity_ratio(s_r))
    sim = multistage.run_simulation(image, b, s_r, 4, multistage.EnergyBoundsPredictor(), matrix)
    recon = sensing.reconstruct_plan(sim, sim.records, matrix, image.height, image.width)
    plan = allocation.single_stage_plan(image, b, s_r)
    multi2 = multistage.run_simulation(image, b, s_r, 2, multistage.OracleBoundsPredictor(), matrix)
    return {
        "plan": plan,
        "threshold": threshold,
        "sparsity": analysis.sparsity_profile(coeffs, threshold).per_block_k.tolist(),
        "simulation": sim,
        "psnr": sensing.psnr(image, recon),
        "budgets": [allocation.uniform_plan(image, b, s_r).total_budget,
                    plan.total_budget, multi2.total_measurements],
    }


def _csv_ints(path: Path) -> list:
    return [int(v) for line in path.read_text().splitlines() for v in line.split(",")]


def _cli_op(command, fmt, extra, path, out, image, refs, env, traced_cli) -> Op:
    args = [command, "--image", str(path), "--block-size", str(CLI_BLOCK),
            "--rate", str(CLI_RATE), "--out", str(out), *extra]
    plain = [sys.executable, "-m", "rate_alloc.cli", *args]
    tags = {"command": command, "format": fmt, "texture": "textured"}
    pixels = padded_pixels(image, CLI_BLOCK)
    blocks, cap = pixels // CLI_BLOCK**2, CLI_BLOCK**2
    budget = round_half_up(CLI_RATE * pixels)

    def launch(argv):
        shutil.rmtree(out, ignore_errors=True)
        return subprocess.run(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              timeout=CLI_TIMEOUT_S)

    def run():
        return launch(plain)

    def traced_run(spans_file):
        return launch([sys.executable, str(traced_cli), str(spans_file), "--", *args])

    def check(proc):
        expect(proc.returncode == 0,
               f"{command} {fmt}: exit {proc.returncode}: {proc.stderr.decode(errors='replace')[-400:]}")
        tags["bytes_written"] = sum(f.stat().st_size for f in out.iterdir())
        if command == "allocate":
            doc = json.loads((out / "plan.json").read_text())
            check_counts(doc["per_block_m"], blocks, cap, budget, "allocate")
            counts = refs["plan"].per_block_M.tolist()
            expect(doc["per_block_m"] == counts and doc["budget"] == budget,
                   "allocate: plan differs from the in-process plan")
            expect(_csv_ints(out / "measurements.csv") == counts, "allocate: measurements.csv")
            return np.asarray(counts, dtype=np.int64).tobytes()
        if command == "analyze":
            doc = json.loads((out / "summary.json").read_text())
            expect(close(doc["threshold"], refs["threshold"]), "analyze: threshold differs")
            sparsity = _csv_ints(out / "sparsity.csv")
            expect(sparsity == refs["sparsity"], "analyze: sparsity map differs")
            return np.asarray(sparsity, dtype=np.int64).tobytes()
        if command == "simulate":
            doc = json.loads((out / "simulation.json").read_text())
            sim = refs["simulation"]
            check_counts(doc["final_m"], blocks, cap, budget, "simulate")
            expect(doc["final_m"] == sim.final_M.tolist(), "simulate: final counts differ")
            expect([s["stage_m"] for s in doc["stage_reports"]] == [s.stage_M.tolist() for s in sim.stages],
                   "simulate: stage counts differ")
            expect(close(doc["psnr_db"], refs["psnr"]), "simulate: PSNR differs")
            return np.asarray(doc["final_m"], dtype=np.int64).tobytes()
        doc = json.loads((out / "compare.json").read_text())
        expect([row["budget"] for row in doc] == refs["budgets"], "compare: budgets differ")
        expect(all(math.isfinite(row["psnr_db"]) for row in doc), "compare: PSNR not finite")
        return np.asarray(refs["budgets"], dtype=np.int64).tobytes()

    return Op(f"cli {command} {fmt}", run, check, pixels / 1e6, tags,
              image, CLI_BLOCK, traced_run=traced_run)
