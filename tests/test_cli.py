import argparse
import json
import os
import re
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rate_alloc
from rate_alloc import cli, kl_solver
from rate_alloc.analysis import analyze
from rate_alloc.imaging import Image, encode_pgm, load_pgm, partition
from rate_alloc.synthetic import synthetic_image

HAND_PROBLEM = {
    "p": [0.6, 0.3, 0.1],
    "r": [1 / 3, 1 / 3, 1 / 3],
    "alpha": 0.5,
    "a": [0.5, 1.0, 1.0],
}


def run(*argv):
    return cli.main([str(a) for a in argv])


class TestAnalyze:
    def test_textured_block_maximal_in_bounds_csv(self, tmp_path):
        out = tmp_path / "out"
        assert run("analyze", "--synthetic", "checkerboard", "--rate", 0.1, "--out", out) == 0
        rows = [line.split(",") for line in (out / "bounds.csv").read_text().splitlines()]
        grid = np.array([[float(v) for v in row] for row in rows])
        assert grid.shape == (3, 3)
        assert grid[1, 1] == grid.max()
        assert grid[1, 1] > np.sort(grid.ravel())[-2]
        summary = json.loads((out / "summary.json").read_text())
        assert summary["grid"] == [3, 3]
        assert 0 <= summary["overall_sparsity_ratio"] <= 1

    def test_flat_image_near_uniform(self, tmp_path):
        out = tmp_path / "out"
        assert run("analyze", "--synthetic", "flat", "--rate", 0.1, "--out", out) == 0
        rows = [line.split(",") for line in (out / "bounds.csv").read_text().splitlines()]
        grid = np.array([[float(v) for v in row] for row in rows])
        assert np.ptp(grid) <= 1e-9

    def test_missing_file_exits_two(self, tmp_path, capsys):
        rc = run("analyze", "--image", tmp_path / "absent.pgm", "--rate", 0.1, "--out", tmp_path)
        assert rc == 2
        assert "absent.pgm" in capsys.readouterr().err

    def test_real_pgm_input(self, tmp_path):
        rng = np.random.default_rng(71)
        path = tmp_path / "img.pgm"
        path.write_bytes(encode_pgm(Image(rng.random((40, 56)))))
        assert run("analyze", "--image", path, "--rate", 0.25, "--out", tmp_path / "o") == 0


class TestAllocate:
    def test_conservation_printed_and_stored(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("allocate", "--synthetic", "checkerboard", "--rate", 0.1, "--out", out) == 0
        assert "total measurements 922" in capsys.readouterr().out
        plan = json.loads((out / "plan.json").read_text())
        assert plan["budget"] == 922
        assert sum(plan["per_block_m"]) == 922

    def test_full_rate_saturates_csv(self, tmp_path):
        out = tmp_path / "out"
        assert run("allocate", "--synthetic", "flat", "--rate", 1.0, "--out", out) == 0
        rows = (out / "measurements.csv").read_text().splitlines()
        assert all(v == "1024" for row in rows for v in row.split(","))

    def test_failed_write_leaves_no_temp_file(self, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "plan.json").mkdir(parents=True)
        assert run("allocate", "--synthetic", "flat", "--rate", 0.1, "--out", out) == 2
        assert "Is a directory" in capsys.readouterr().err
        assert [path.name for path in out.iterdir()] == ["plan.json"]

    def test_curve_override(self, tmp_path):
        out = tmp_path / "out"
        rc = run(
            "allocate", "--synthetic", "flat", "--rate", 0.1,
            "--curve", "78.77,0.0444,0.01,0.005", "--out", out,
        )
        assert rc == 0
        assert run("allocate", "--synthetic", "flat", "--rate", 0.1,
                   "--curve", "bad", "--out", out) == 2

    @pytest.mark.parametrize(
        "data", [b"P2 1 1 255 " + b"9" * 400, b"P2 1000000 1000000 255 1 2"], ids=["sample", "header"]
    )
    def test_oversized_p2_exits_two(self, tmp_path, capsys, data):
        path = tmp_path / "big.pgm"
        path.write_bytes(data)
        assert run("allocate", "--image", path, "--rate", 0.1, "--out", tmp_path / "out") == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "data, message",
        [
            (b"P2 1 1 255 " + b"9" * 5000, "error: sample exceeds maxval 255 in payload of "),
            (b"P2 " + b"9" * 5000 + b" 1 255 0", "error: width at byte 3 is 5000 digits long"),
        ],
        ids=["sample", "header"],
    )
    def test_overlong_p2_field_exits_two(self, tmp_path, capsys, data, message):
        path = tmp_path / "long.pgm"
        path.write_bytes(data)
        assert run("allocate", "--image", path, "--rate", 0.1, "--out", tmp_path / "out") == 2
        assert capsys.readouterr().err.startswith(message)


class TestOutputPermissions:
    @staticmethod
    def mode(path):
        return stat.S_IMODE(path.stat().st_mode)

    def test_outputs_follow_current_umask(self, tmp_path):
        # a child process reports the umask it inherited, so this one's stays as it is
        probe = subprocess.run([sys.executable, "-c", "import os; print(os.umask(0))"],
                               capture_output=True, text=True, check=True, timeout=60)
        umask = int(probe.stdout)
        out = tmp_path / "out"
        assert run("allocate", "--synthetic", "flat", "--rate", 0.1, "--out", out) == 0
        assert self.mode(out / "plan.json") == 0o666 & ~umask
        assert sorted(p.name for p in out.iterdir()) == ["measurements.csv", "plan.json"]

    @pytest.mark.parametrize("umask", [0o022, 0o027], ids=oct)
    def test_outputs_follow_child_umask(self, tmp_path, umask):
        env = dict(os.environ, PYTHONPATH=str(Path(rate_alloc.__file__).parents[1]))
        out = tmp_path / "out"
        subprocess.run([sys.executable, "-m", "rate_alloc.cli", "allocate", "--synthetic", "flat",
                        "--rate", "0.1", "--out", str(out)],
                       env=env, umask=umask, check=True, capture_output=True, timeout=60)
        assert self.mode(out / "plan.json") == 0o666 & ~umask


class TestSimulate:
    def test_outputs_and_metadata(self, tmp_path, capsys, cached_operator):
        out = tmp_path / "sim"
        rc = run(
            "simulate", "--synthetic", "checkerboard", "--rate", 0.1,
            "--stages", 2, "--seed", 1, "--out", out,
        )
        assert rc == 0
        assert "PSNR" in capsys.readouterr().out
        report = json.loads((out / "simulation.json").read_text())
        assert report["total_measurements"] == sum(report["final_m"])
        assert len(report["stage_reports"]) == 2
        assert report["stage_reports"][0]["diagnostics"] is None
        assert report["stage_reports"][1]["diagnostics"]["kl"] >= -1e-12
        assert (out / "stage_01.csv").exists() and (out / "stage_02.csv").exists()
        recon = load_pgm(out / "reconstruction.pgm")
        assert (recon.height, recon.width) == (96, 96)
        result = analyze(partition(synthetic_image("checkerboard"), 32), 0.1)
        assert (report["rate"], report["threshold"], report["block_size"], report["grid"]) == (
            result.rate, result.threshold, 32, [result.grid.rows, result.grid.cols])
        for t, stage in enumerate(report["stage_reports"], start=1):
            assert stage["stage"] == t
            assert stage["beta"] == 1.0 - stage["alpha"]

    def test_single_stage_matches_uniform_allocation(self, tmp_path, cached_operator):
        out = tmp_path / "sim1"
        rc = run(
            "simulate", "--synthetic", "gradient", "--rate", 0.1,
            "--stages", 1, "--seed", 5, "--out", out,
        )
        assert rc == 0
        report = json.loads((out / "simulation.json").read_text())
        from rate_alloc.allocation import uniform_plan

        uniform = uniform_plan(synthetic_image("gradient"), 32, 0.1)
        assert report["final_m"] == uniform.per_block_M.tolist()

    def test_reruns_byte_identical(self, tmp_path):
        args = ["simulate", "--synthetic", "checkerboard", "--rate", 0.1,
                "--stages", 3, "--seed", 9, "--predictor", "energy"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run(*args, "--out", out_a) == 0
        assert run(*args, "--out", out_b) == 0
        for path in sorted(out_a.iterdir()):
            assert path.read_bytes() == (out_b / path.name).read_bytes()


class TestSolve:
    def test_hand_problem(self, tmp_path, capsys):
        path = tmp_path / "prob.json"
        path.write_text(json.dumps(HAND_PROBLEM))
        assert run("solve", path) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["q"] == pytest.approx([0.5, 0.5, 0.0], abs=1e-12)
        assert doc["mu"] == pytest.approx(25 / 9, abs=1e-12)
        assert doc["status"] == "converged-by-newton"

    def test_verify_flag_passes(self, tmp_path):
        path = tmp_path / "prob.json"
        path.write_text(json.dumps(HAND_PROBLEM))
        assert run("solve", path, "--verify") == 0

    def test_verification_failure_exits_three(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "prob.json"
        path.write_text(json.dumps(HAND_PROBLEM))
        real = kl_solver.oracle_solve

        def skewed(problem):
            sol = real(problem)
            wrong = sol.q.copy()
            wrong[0] += 0.1
            return kl_solver.KlAllocSolution(
                q=wrong, mu_star=sol.mu_star, trace=sol.trace, status=sol.status,
            )

        monkeypatch.setattr(kl_solver, "oracle_solve", skewed)
        assert run("solve", path, "--verify") == 3
        out, err = capsys.readouterr()
        solution = kl_solver.solve(kl_solver.problem_from_json(path.read_text()))
        assert out == kl_solver.solution_to_json(solution) + "\n"
        number = r"\d\.\d{3}e[+-]\d{2}"
        assert re.fullmatch(
            rf"verify: oracle gap ({number})  kkt residual ({number})\n"
            rf"error: solver disagrees with oracle \(gap \1, residual \2\)\n", err)

    def test_p_equals_r_returns_r(self, tmp_path, capsys):
        path = tmp_path / "prob.json"
        path.write_text(json.dumps({"p": [0.25, 0.75], "r": [0.25, 0.75],
                                    "alpha": 0.5, "a": [1.0, 1.0]}))
        assert run("solve", path) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["q"] == pytest.approx([0.25, 0.75], abs=1e-12)

    def test_wide_bracket_converges_and_verifies(self, tmp_path, capsys):
        # the upper bracket is ~1e206 and the root 1.5: ~640 bisection steps apart
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"p": [1, 1e-200], "r": [0.5, 0.5], "alpha": 0.5, "a": [1e6, 1e6]}))
        assert run("solve", path) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["q"], doc["mu"]) == ([1.0, 0.0], 1.5)
        assert run("solve", path, "--verify") == 0

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"p": [0.6, -0.3, 0.1]}, "p entries must be nonnegative"),
            ({"r": [0.5, 0.5, 0.0]}, "r entries must be strictly positive"),
            ({"a": [0.5, -1.0, 1.0]}, "caps must be finite and nonnegative"),
            ({"a": [0.5, float("inf"), 1.0]}, "caps must be finite and nonnegative"),
            ({"r": [0.5, 0.5]}, "p, r, a must share one length"),
            ({"alpha": 0}, "alpha must lie in (0, 1]"),
            ({"alpha": 1.5}, "alpha must lie in (0, 1]"),
            ({"p": [10**400, 1, 1]}, "problem JSON field 'p': int too large to convert to float"),
            ({"p": [0.6, float("nan"), 0.1]}, "p must be a non-empty finite vector"),
            ({"p": [], "r": [], "a": []}, "p must be a non-empty finite vector"),
        ],
        ids=["p-negative", "r-zero", "a-negative", "a-infinite", "lengths", "alpha-zero", "alpha-above-one",
             "p-overflow", "p-nan", "empty"],
    )
    def test_value_checks_exit_two(self, tmp_path, capsys, change, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**HAND_PROBLEM, **change}))
        assert run("solve", path) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_infeasible_exits_four(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"p": [1.0], "r": [1.0], "alpha": 0.5, "a": [0.2]}))
        assert run("solve", path) == 4

    def test_malformed_json_exits_two(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert run("solve", path) == 2

    @pytest.mark.parametrize(
        "text, field",
        [
            ("[1, 2]", "object"),
            ('"x"', "object"),
            (json.dumps({**HAND_PROBLEM, "alpha": None}), "'alpha'"),
            (json.dumps({**HAND_PROBLEM, "alpha": [0.5]}), "'alpha'"),
            (json.dumps({**HAND_PROBLEM, "p": {"x": 1}}), "'p'"),
            ("[" * 100_000 + "]" * 100_000, "nests"),
            (json.dumps({**HAND_PROBLEM, "alpha": "0.5"}), "'alpha'"),
            (json.dumps({**HAND_PROBLEM, "alpha": True}), "'alpha'"),
            (json.dumps({**HAND_PROBLEM, "p": ["0.5", "0.3", "0.2"]}), "'p'"),
            (json.dumps({**HAND_PROBLEM, "p": [[0.6], [0.3], [0.1]]}), "'p'"),
            (json.dumps({**HAND_PROBLEM, "r": [True, 1, 1]}), "'r'"),
            (json.dumps({**HAND_PROBLEM, "a": 1.0}), "'a'"),
        ],
        ids=["list", "string", "alpha-null", "alpha-list", "p-object", "deep",
             "alpha-string", "alpha-bool", "p-strings", "p-nested", "r-bool", "a-scalar"],
    )
    def test_wrong_shape_exits_two(self, tmp_path, capsys, text, field):
        path = tmp_path / "shape.json"
        path.write_text(text)
        assert run("solve", path) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err


class TestCompare:
    def test_adaptive_kl_not_worse(self, tmp_path, capsys, cached_operator):
        out = tmp_path / "cmp"
        rc = run("compare", "--synthetic", "checkerboard", "--rate", 0.1,
                 "--stages", 2, "--seed", 1, "--out", out)
        assert rc == 0
        report = json.loads((out / "compare.json").read_text())
        by_name = {row["allocation"]: row for row in report}
        assert by_name["single-stage"]["kl_to_bounds"] <= by_name["uniform"]["kl_to_bounds"]
        assert by_name["multi-2"]["kl_to_bounds"] <= by_name["uniform"]["kl_to_bounds"]
        budgets = {row["budget"] for row in report}
        assert len(budgets) == 1

    def test_flat_image_psnrs_close(self, tmp_path, cached_operator):
        out = tmp_path / "cmp"
        rc = run("compare", "--synthetic", "flat", "--rate", 0.1,
                 "--stages", 2, "--seed", 1, "--out", out)
        assert rc == 0
        report = json.loads((out / "compare.json").read_text())
        values = [row["psnr_db"] for row in report]
        assert max(values) - min(values) <= 0.1


class TestSharedSensing:
    def test_compare_multi_row_is_the_simulation(self, tmp_path, cached_operator):
        args = ["--synthetic", "checkerboard", "--rate", 0.1, "--stages", 3, "--seed", 4,
                "--predictor", "energy", "--out"]
        assert run("simulate", *args, tmp_path / "sim") == 0
        assert run("compare", *args, tmp_path / "cmp") == 0
        simulation = json.loads((tmp_path / "sim" / "simulation.json").read_text())
        multi = json.loads((tmp_path / "cmp" / "compare.json").read_text())[-1]
        assert multi["allocation"] == "multi-3"
        assert multi["budget"] == simulation["total_measurements"]
        assert multi["psnr_db"] == simulation["psnr_db"]

    @pytest.mark.parametrize("flag", ["--stages", "--seed", "--predictor"])
    def test_flag_declared_alike(self, flag):
        commands = next(action for action in cli.build_parser()._actions
                        if isinstance(action, argparse._SubParsersAction)).choices
        simulate, compare = (
            next(action for action in commands[name]._actions if flag in action.option_strings)
            for name in ("simulate", "compare"))
        assert (simulate.default, simulate.choices, simulate.type) == (
            compare.default, compare.choices, compare.type)


class TestImageSource:
    @pytest.mark.parametrize("command", ["analyze", "allocate", "simulate", "compare"])
    def test_both_sources_exit_two(self, command, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            run(command, "--synthetic", "flat", "--image", tmp_path / "absent.pgm",
                "--rate", 0.1, "--out", tmp_path / "out")
        assert exit_info.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["analyze", "allocate", "simulate", "compare"])
    def test_no_source_exits_two(self, command, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            run(command, "--rate", 0.1, "--out", tmp_path / "out")
        assert exit_info.value.code == 2
        assert "one of the arguments --image --synthetic is required" in capsys.readouterr().err


def replace_everywhere(monkeypatch, module, name, replacement):
    """Swap a function in its module and in every rate_alloc module that holds it."""
    original = getattr(module, name)
    monkeypatch.setattr(module, name, replacement)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "rate_alloc" and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, replacement)


def forbid(monkeypatch, why, *targets):
    """Fail the test if any (module, name) function is called."""
    def forbidden(*args, **kwargs):
        pytest.fail(why)

    for module, name in targets:
        replace_everywhere(monkeypatch, module, name, forbidden)


class TestOnePass:
    COMMANDS = {
        "analyze": ("--out",),
        "allocate": ("--out",),
        "simulate": ("--stages", 3, "--predictor", "energy", "--out"),
        "compare": ("--stages", 2, "--out"),
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_each_command_analyzes_once(self, command, tmp_path, monkeypatch):
        from rate_alloc import analysis, imaging

        calls = {}
        for module, name in ((imaging, "partition"), (imaging, "dct2_blocks"),
                             (analysis, "solve_threshold")):
            def counted(*args, _name=name, _fn=getattr(module, name), **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _fn(*args, **kwargs)

            replace_everywhere(monkeypatch, module, name, counted)
        argv = [command, "--synthetic", "checkerboard", "--block-size", 8, "--rate", 0.2,
                *self.COMMANDS[command], tmp_path / "out"]
        assert run(*argv) == 0
        assert calls == {"partition": 1, "dct2_blocks": 1, "solve_threshold": 1}


class TestFailFast:
    @pytest.mark.parametrize("command", ["simulate", "compare"])
    def test_starved_stages_exit_before_operator(self, command, tmp_path, monkeypatch, capsys):
        from rate_alloc import sensing

        forbid(monkeypatch, "build_matrix called before the stage-count check", (sensing, "build_matrix"))
        rc = run(command, "--synthetic", "checkerboard", "--rate", 0.1, "--block-size", 64,
                 "--stages", 500, "--out", tmp_path / "out")
        assert rc == 2
        err = capsys.readouterr().err
        assert "block count" in err
        assert re.search(r"at most \d+ stage\(s\)", err)

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    @pytest.mark.parametrize("flags, message", [
        (("--seed", -1), "operator seed -1 must be non-negative"),
        (("--block-size", 128), "block size 128 is above the operator limit of 64"),
        (("--stages", 0), "at least one stage required"),
    ])
    def test_bad_operator_exits_before_analysis(self, command, flags, message, tmp_path, monkeypatch, capsys):
        from rate_alloc import imaging

        forbid(monkeypatch, "image analyzed or operator drawn before the operator's inputs were checked",
               (imaging, "dct2_blocks"), (np.random, "PCG64"))
        rc = run(command, "--synthetic", "checkerboard", "--rate", 0.1, *flags, "--out", tmp_path / "out")
        assert rc == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command, source", [
        ("analyze", ("--synthetic", "flat")),
        ("allocate", ("--image", "small.pgm")),
    ])
    def test_block_size_limit_exits_before_allocating(self, command, source, tmp_path, monkeypatch, capsys):
        from rate_alloc import imaging

        forbid(monkeypatch, "image transformed before the block size was checked", (imaging, "dct2_blocks"))
        (tmp_path / "small.pgm").write_bytes(encode_pgm(Image(np.full((4, 3), 0.5))))
        monkeypatch.chdir(tmp_path)
        rc = run(command, *source, "--rate", 0.1, "--block-size", 1025, "--out", tmp_path / "out")
        assert rc == 2
        assert "block size 1025 is above the limit of 1024" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, source", [
        ("analyze", ("--synthetic", "flat")),
        ("simulate", ("--synthetic", "checkerboard")),
        ("allocate", ("--image", "small.pgm")),
    ])
    @pytest.mark.parametrize("size", [0, -3, 1])
    def test_block_size_below_two_named(self, command, source, size, tmp_path, monkeypatch, capsys):
        from rate_alloc import imaging

        forbid(monkeypatch, "image built or read before the block size was checked", (imaging, "Image"))
        (tmp_path / "small.pgm").write_bytes(encode_pgm(Image(np.full((4, 3), 0.5))))
        monkeypatch.chdir(tmp_path)
        rc = run(command, *source, "--rate", 0.1, "--block-size", size, "--out", tmp_path / "out")
        assert rc == 2
        assert f"--block-size {size} must be at least 2" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["analyze", "allocate", "simulate", "compare"])
    @pytest.mark.parametrize("source", [("--image", "f.pgm"), ("--synthetic", "flat")], ids=["image", "synthetic"])
    @pytest.mark.parametrize("flags, message", [
        (("--block-size", 1025), "block size 1025 is above the limit of 1024"),
        (("--rate", 2), "sampling rate must lie in (0, 1]"),
        (("--rate", 0.005), "sampling rate 0.005 below the curve anchor 0.01"),
        (("--curve", "1,2"), "--curve expects four comma-separated values: a,b,sr1,ps1"),
        (("--curve", "inf,0.0444,0.1,0.005"), "target sparsity ratio nan out of range at rate 0.1"),
        (("--rate", 0.99, "--curve", "78.77,0.5,0.01,0.005"),
         "target sparsity ratio 2.184600295729254 out of range at rate 0.99"),
        (("--curve", "78.77,0.0444,0,0.005"), "curve anchor must lie in (0, 1) x (0, 1)"),
    ], ids=["block-size", "rate-range", "rate-anchor", "curve-arity", "curve-target", "curve-saturated",
            "curve-anchor"])
    def test_flags_checked_before_image_is_read(self, command, source, flags, message, tmp_path, monkeypatch,
                                                capsys):
        from rate_alloc import imaging, synthetic

        forbid(monkeypatch, "image read or built before the flags that need no pixels were checked",
               (imaging, "load_pgm"), (synthetic, "synthetic_image"))
        rc = run(command, *source, "--rate", 0.1, *flags, "--out", tmp_path / "out")
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["analyze", "allocate", "simulate", "compare"])
    @pytest.mark.parametrize("flags, message", [
        (("--rate", 0.005), "below the curve anchor"),
        (("--rate", 0.99, "--curve", "78.77,0.5,0.01,0.005"), "out of range"),
        (("--rate", 0.1, "--curve", "inf,0.0444,0.1,0.005"), "out of range"),
    ])
    def test_bad_rate_or_curve_exits_before_dct(self, command, flags, message, tmp_path, monkeypatch, capsys):
        from rate_alloc import imaging

        forbid(monkeypatch, "image transformed or operator drawn before the rate and curve were checked",
               (imaging, "dct2_blocks"), (np.random, "PCG64"))
        rc = run(command, "--synthetic", "checkerboard", *flags, "--out", tmp_path / "out")
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
