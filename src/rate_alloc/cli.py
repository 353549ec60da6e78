"""Command-line front end.

Subcommands: analyze (sparsity/bounds maps), allocate (single-pass plan),
simulate (multi-stage run with reconstruction), solve (the allocation
program from a JSON file), compare (uniform vs adaptive side by side).
Exit codes: 0 success, 2 input error, 3 verification failure,
4 infeasible problem, 1 internal error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import allocation, analysis, imaging, kl_solver, multistage, sensing
from .synthetic import KINDS, synthetic_image

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INPUT = 2
EXIT_VERIFY = 3
EXIT_INFEASIBLE = 4


def _write_atomic(path: Path, data) -> None:
    """Write via temp file + rename so readers never see partial output.

    The temp file is created with mode 0o666, which the system narrows by
    the umask, so outputs get the permissions of any new file.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = data if isinstance(data, bytes) else data.encode("utf-8")
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _heatmap_csv(values, rows: int, cols: int, fmt: str) -> str:
    grid = np.asarray(values).reshape(rows, cols)
    return "\n".join(",".join(fmt % v for v in row) for row in grid) + "\n"


def _curve(args) -> analysis.CurveParams:
    if args.curve is None:
        return analysis.DEFAULT_CURVE
    parts = args.curve.split(",")
    if len(parts) != 4:
        raise ValueError("--curve expects four comma-separated values: a,b,sr1,ps1")
    a, b, sr1, ps1 = (float(part) for part in parts)
    return analysis.CurveParams(a=a, b=b, s_r1=sr1, p_s1=ps1)


def _grid(args):
    """Check every flag that needs no pixels, then load and partition the image: (image, grid, curve)."""
    if args.block_size < 2:
        raise ValueError(f"--block-size {args.block_size} must be at least 2")
    imaging._check_block_size(args.block_size)
    curve = _curve(args)
    analysis.target_sparsity_ratio(args.rate, curve)
    image = (imaging.load_pgm(args.image) if args.synthetic is None
             else synthetic_image(args.synthetic, args.block_size))
    return image, imaging.partition(image, args.block_size), curve


def cmd_analyze(args) -> int:
    _, grid, curve = _grid(args)
    result = analysis.analyze(grid, args.rate, curve)
    profile, bounds = result.sparsity, result.bounds
    total_bounds = float(bounds.sum())

    out = Path(args.out)
    _write_atomic(out / "sparsity.csv", _heatmap_csv(profile.per_block_k, grid.rows, grid.cols, "%d"))
    _write_atomic(out / "bounds.csv", _heatmap_csv(bounds, grid.rows, grid.cols, "%.6g"))
    summary = {
        "threshold": result.threshold,
        "target_sparsity_ratio": result.target_ratio,
        "overall_sparsity_ratio": profile.overall_ratio,
        "total_bounds": total_bounds,
        "grid": [grid.rows, grid.cols],
        "block_size": args.block_size,
        "curve": dataclasses.asdict(curve),
    }
    _write_atomic(out / "summary.json", json.dumps(summary, indent=2) + "\n")
    print(f"threshold {result.threshold:.10g}  sparsity ratio {profile.overall_ratio:.10g}  total bounds {total_bounds:.10g}")
    return EXIT_OK


def _plan_json(plan: allocation.AllocationPlan) -> str:
    doc = {
        "block_size": plan.grid.block_size,
        "grid": [plan.grid.rows, plan.grid.cols],
        "rate": plan.target_rate,
        "budget": plan.total_budget,
        "threshold": plan.threshold,
        "implied_eta": plan.implied_eta,
        "per_block_m": plan.per_block_M.tolist(),
    }
    return json.dumps(doc, indent=2) + "\n"


def cmd_allocate(args) -> int:
    _, grid, curve = _grid(args)
    plan = allocation.adaptive_plan(analysis.analyze(grid, args.rate, curve))
    out = Path(args.out)
    _write_atomic(out / "plan.json", _plan_json(plan))
    _write_atomic(out / "measurements.csv", _heatmap_csv(plan.per_block_M, grid.rows, grid.cols, "%d"))
    print(f"total measurements {plan.total_budget}  implied eta {plan.implied_eta:.10g}")
    return EXIT_OK


def _sense(args):
    """Build the operator and analyze the image once: (image, analysis, operator, predictor)."""
    image, grid, curve = _grid(args)
    # the stage count, then the operator's seed and size, before the DCT
    multistage.check_stages(grid, args.rate, args.stages)
    matrix = sensing.build_matrix(args.block_size, args.seed)
    predictor = multistage.PREDICTORS[args.predictor]()
    return image, analysis.analyze(grid, args.rate, curve), matrix, predictor


def cmd_simulate(args) -> int:
    image, result, matrix, predictor = _sense(args)
    plan = multistage.simulate(result, args.stages, predictor, matrix)
    grid = result.grid
    recon = sensing.reconstruct_plan(plan, plan.records, matrix, image.height, image.width)
    quality = sensing.psnr(image, recon)

    out = Path(args.out)
    stage_docs = []
    for t, state in enumerate(plan.stages, start=1):
        stage_docs.append(
            {
                "stage": t,
                "rate": state.stage_rate,
                "budget": state.budget,
                "alpha": state.alpha,
                "beta": state.beta,
                "stage_m": state.stage_M.tolist(),
                "cumulative_m": state.cumulative_M.tolist(),
                "diagnostics": None
                if state.diagnostic is None
                else {"cross_entropy": state.diagnostic[0], "kl": state.diagnostic[1]},
            }
        )
        _write_atomic(
            out / f"stage_{t:02d}.csv",
            _heatmap_csv(state.cumulative_M, grid.rows, grid.cols, "%d"),
        )
    report = {
        "block_size": grid.block_size,
        "grid": [grid.rows, grid.cols],
        "rate": result.rate,
        "stages": len(plan.stages),
        "seed": args.seed,
        "predictor": args.predictor,
        "threshold": result.threshold,
        "total_measurements": plan.total_measurements,
        "final_m": plan.final_M.tolist(),
        "psnr_db": None if math.isinf(quality) else quality,
        "identical": math.isinf(quality),
        "stage_reports": stage_docs,
    }
    _write_atomic(out / "simulation.json", json.dumps(report, indent=2) + "\n")
    _write_atomic(out / "reconstruction.pgm", imaging.encode_pgm(recon))
    print("PSNR: identical" if math.isinf(quality) else f"PSNR: {quality:.4f} dB")
    return EXIT_OK


def cmd_solve(args) -> int:
    problem = kl_solver.problem_from_json(Path(args.problem).read_text())
    solution = kl_solver.solve(problem)
    print(kl_solver.solution_to_json(solution))
    if args.verify:
        reference = kl_solver.oracle_solve(problem)
        gap = float(np.abs(solution.q - reference.q).max())
        residual = kl_solver.kkt_residual(problem, solution.q, solution.mu_star)
        print(f"verify: oracle gap {gap:.3e}  kkt residual {residual:.3e}", file=sys.stderr)
        if gap > 1e-8 or residual > 1e-8:
            print(f"error: solver disagrees with oracle (gap {gap:.3e}, residual {residual:.3e})",
                  file=sys.stderr)
            return EXIT_VERIFY
    return EXIT_OK


def cmd_compare(args) -> int:
    image, result, matrix, predictor = _sense(args)

    def score(stages, prior=None):
        # one simulate run per row, reduced to counts and PSNR before the next is built
        plan = multistage.simulate(result, stages, predictor, matrix, prior)
        recon = sensing.reconstruct_plan(plan, plan.records, matrix, image.height, image.width)
        return plan.final_M, sensing.psnr(image, recon)

    # every row is scored before the table prints, multi-N first so that its error is the one raised
    multi = score(args.stages)
    rows = [("uniform", score(1)), ("single-stage", score(1, result.bounds)), (f"multi-{args.stages}", multi)]
    print(f"{'allocation':<14}{'budget':>8}  {'psnr_db':>10}  {'kl_to_bounds':>12}")
    report = []
    for name, (counts, quality) in rows:
        budget = int(counts.sum())
        kl = (multistage.kl_diagnostic(result.bounds, counts.astype(np.float64))[1]
              if result.bounds.sum() > 0 else 0.0)
        quality_text = "identical" if math.isinf(quality) else f"{quality:.4f}"
        print(f"{name:<14}{budget:>8}  {quality_text:>10}  {kl:>12.6f}")
        report.append(
            {
                "allocation": name,
                "budget": budget,
                "psnr_db": None if math.isinf(quality) else quality,
                "kl_to_bounds": kl,
            }
        )
    if args.out:
        _write_atomic(Path(args.out) / "compare.json", json.dumps(report, indent=2) + "\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rate-alloc",
        description="Measurement-bounds-proportional sampling budgets for block compressed sensing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, needs_out=True):
        source = p.add_mutually_exclusive_group(required=True)
        source.add_argument("--image", help="input PGM (P2 or P5)")
        source.add_argument("--synthetic", choices=KINDS, help="use a built-in test image")
        p.add_argument("--block-size", type=int, default=32)
        p.add_argument("--rate", type=float, required=True, help="overall sampling rate in (0, 1]")
        p.add_argument("--curve", help="curve parameters a,b,sr1,ps1")
        if needs_out:
            p.add_argument("--out", required=True, help="output directory")

    p_analyze = sub.add_parser("analyze", help="sparsity threshold, per-block sparsity and bounds maps")
    add_common(p_analyze)
    p_analyze.set_defaults(func=cmd_analyze)

    p_alloc = sub.add_parser("allocate", help="single-pass measurement allocation plan")
    add_common(p_alloc)
    p_alloc.set_defaults(func=cmd_allocate)

    def add_sensing(p):
        p.add_argument("--stages", type=int, default=2)
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--predictor", choices=sorted(multistage.PREDICTORS), default="oracle")

    p_sim = sub.add_parser("simulate", help="multi-stage sampling simulation with reconstruction")
    add_common(p_sim)
    add_sensing(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_solve = sub.add_parser("solve", help="solve an allocation program from JSON")
    p_solve.add_argument("problem", help="problem JSON file")
    p_solve.add_argument("--verify", action="store_true", help="cross-check against the bisection oracle")
    p_solve.set_defaults(func=cmd_solve)

    p_cmp = sub.add_parser("compare", help="uniform vs adaptive allocations on one image")
    add_common(p_cmp, needs_out=False)
    add_sensing(p_cmp)
    p_cmp.add_argument("--out", help="optional report directory")
    p_cmp.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except kl_solver.InfeasibleProblemError as exc:
        print(f"error: infeasible problem: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
