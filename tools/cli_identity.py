"""Byte-identity sweep of the rate-alloc CLI between two checkouts.

    python3 tools/cli_identity.py PARENT CHANGE [--quick]

PARENT and CHANGE are two checkouts of this repository.  The script runs
`analyze`, `allocate`, `simulate` and `compare` from each checkout's
`src/` on the same seeded inputs and compares, byte for byte, the exit
code, stdout, stderr and every file the command writes.  It prints one
line per run that differs and a summary, and exits 1 if any run differs.

Inputs: seeded texture and cartoon PGMs at 1024x1024, 509x507 and
501x509, a texture at 100x2047, whose B=32 block rows are larger than
one DCT chunk, a texture at 1000x20, one block wide at B=32 and with a
partial last block column at B=8 and 16, plus the three `--synthetic`
kinds; block sizes 8, 16 and 32;
rates 0.1 and 0.3; both predictors; `--stages` 1 and 3; and, per input,
an infeasible stage count and a rate of 0, which must fail alike.
`--quick` keeps the 509x507 and synthetic inputs at B=8 and 16 only.
Needs only the standard library and numpy; each run is a child process,
so a checkout's imports never mix with the other's, and two runs go at a
time.
"""

from __future__ import annotations

import argparse
import itertools
import os
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

SHAPES = ((1024, 1024), (509, 507), (501, 509))
WIDE = (100, 2047)  # 64 blocks of 32x32 a row, 512 KiB, past imaging._CHUNK
NARROW = (1000, 20)  # one partial block column at B=32: reconstructed in one product, then cropped
SYNTHETIC = ("flat", "checkerboard", "gradient")
BLOCKS = (8, 16, 32)
RATES = ("0.1", "0.3")
PREDICTORS = ("oracle", "energy")
STAGES = ("1", "3")
INFEASIBLE_STAGES = "100000"


def texture(rng: np.random.Generator, h: int, w: int) -> np.ndarray:
    """1/f noise by FFT, rescaled to [0, 1]: nearly every DCT magnitude distinct."""
    spectrum = np.fft.rfft2(rng.standard_normal((h, w)))
    freq = np.hypot(np.fft.fftfreq(h)[:, None], np.fft.rfftfreq(w)[None, :])
    freq[0, 0] = 1.0
    field = np.fft.irfft2(spectrum / freq, s=(h, w))
    return (field - field.min()) / (field.max() - field.min())


def cartoon(rng: np.random.Generator, h: int, w: int) -> np.ndarray:
    """Flat palette rectangles on an 8-pixel lattice plus a few 16x16 checker cells: many ties."""
    palette = np.linspace(0.0, 1.0, 8)
    pixels = np.full((h, w), rng.choice(palette))
    for _ in range(40):
        rh, rw = rng.integers(1, h // 24 + 2), rng.integers(1, w // 24 + 2)
        y, x = 8 * int(rng.integers(0, h // 8)), 8 * int(rng.integers(0, w // 8))
        pixels[y : y + 8 * rh, x : x + 8 * rw] = rng.choice(palette)
    checker = np.add.outer(np.arange(16), np.arange(16)) % 2
    for _ in range(max(1, h * w // 16384)):
        y, x = int(rng.integers(0, h - 15)), int(rng.integers(0, w - 15))
        lo, hi = np.sort(rng.choice(palette, size=2, replace=False))
        pixels[y : y + 16, x : x + 16] = lo + (hi - lo) * checker
    return pixels


def write_pgm(path: Path, pixels: np.ndarray) -> None:
    h, w = pixels.shape
    samples = np.rint(pixels * 255.0).astype(np.uint8)
    path.write_bytes(f"P5\n{w} {h}\n255\n".encode("ascii") + samples.tobytes())


def inputs(workdir: Path, quick: bool) -> list:
    """(label, source flags) per input image; PGMs are written into workdir."""
    sources = []
    for seed, (kind, make) in enumerate((("texture", texture), ("cartoon", cartoon))):
        for h, w in SHAPES[1:2] if quick else SHAPES + ((WIDE, NARROW) if kind == "texture" else ()):
            path = workdir / f"{kind}-{h}x{w}.pgm"
            write_pgm(path, make(np.random.default_rng([seed, h, w]), h, w))
            sources.append((path.stem, ("--image", str(path))))
    return sources + [(kind, ("--synthetic", kind)) for kind in SYNTHETIC]


def runs(sources: list, quick: bool) -> list:
    """(name, argv after the command's module) for every run of the sweep."""
    out = []
    for (label, source), block, rate in itertools.product(sources, BLOCKS[:2] if quick else BLOCKS, RATES):
        common = (*source, "--block-size", str(block), "--rate", rate, "--out", "out")
        tag = f"{label} B{block} r{rate}"
        out += [(f"{command} {tag}", (command, *common)) for command in ("analyze", "allocate")]
        for command, predictor, stages in itertools.product(("simulate", "compare"), PREDICTORS, STAGES):
            out.append((f"{command} {tag} {predictor} N{stages}",
                        (command, *common, "--stages", stages, "--predictor", predictor, "--seed", "1")))
    for label, source in sources:
        for command in ("simulate", "compare"):
            out.append((f"{command} {label} infeasible N{INFEASIBLE_STAGES}",
                        (command, *source, "--block-size", "16", "--rate", "0.1",
                         "--stages", INFEASIBLE_STAGES, "--out", "out")))
        out.append((f"analyze {label} rate 0", ("analyze", *source, "--rate", "0", "--out", "out")))
    return out


def outcome(checkout: Path, argv: tuple, cwd: Path) -> tuple:
    """Exit code, stdout, stderr and {relative path: bytes} of one run in an empty cwd."""
    cwd.mkdir(parents=True)
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    proc = subprocess.run([sys.executable, "-m", "rate_alloc.cli", *argv], cwd=cwd, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    files = {str(p.relative_to(cwd)): p.read_bytes() for p in sorted(cwd.rglob("*")) if p.is_file()}
    shutil.rmtree(cwd)
    return proc.returncode, proc.stdout, proc.stderr, files


def differences(parent: tuple, change: tuple) -> list:
    parts = [name for name, a, b in zip(("exit code", "stdout", "stderr"), parent, change) if a != b]
    files_a, files_b = parent[3], change[3]
    parts += [f"file {name}" for name in sorted(files_a.keys() | files_b.keys())
              if files_a.get(name) != files_b.get(name)]
    return parts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--quick", action="store_true", help="a small subset of the sweep")
    args = parser.parse_args(argv)
    checkouts = (args.parent.resolve(), args.change.resolve())
    for checkout in checkouts:
        if not (checkout / "src" / "rate_alloc" / "cli.py").is_file():
            parser.error(f"{checkout} is not a rate-alloc checkout")

    with tempfile.TemporaryDirectory(prefix="cli-identity-") as tmp:
        workdir = Path(tmp)
        todo = runs(inputs(workdir, args.quick), args.quick)

        def compare(index_run):
            index, (name, run_argv) = index_run
            results = [outcome(checkout, run_argv, workdir / side / str(index))
                       for side, checkout in zip(("parent", "change"), checkouts)]
            return name, results[0][0], differences(*results)

        differing, exits = 0, Counter()
        with ThreadPoolExecutor(2) as pool:
            for name, code, parts in pool.map(compare, enumerate(todo)):
                exits[code] += 1
                if parts:
                    differing += 1
                    print(f"DIFFERS {name}: {', '.join(parts)}", flush=True)
    codes = ", ".join(f"exit {code}: {count}" for code, count in sorted(exits.items()))
    print(f"{len(todo)} runs ({codes}); {differing} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
