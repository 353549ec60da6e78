"""Seeded input generators for the rate-alloc benchmark.

Every generator draws from a numpy Generator that the caller derives
from the workload seed, so one seed always gives the same inputs.  The
program under test only ever receives the generated images, programs
and files, never the seed.
"""

from __future__ import annotations

import numpy as np


def texture(rng: np.random.Generator, side: int) -> np.ndarray:
    """1/f noise made by FFT, rescaled to [0, 1].

    Almost every DCT magnitude of such an image is distinct, which is the
    hard case for a threshold search that sorts all magnitudes.
    """
    spectrum = np.fft.rfft2(rng.standard_normal((side, side)))
    freq = np.hypot(np.fft.fftfreq(side)[:, None], np.fft.rfftfreq(side)[None, :])
    freq[0, 0] = 1.0
    field = np.fft.irfft2(spectrum / freq, s=(side, side))
    lo, hi = field.min(), field.max()
    return (field - lo) / (hi - lo)


# cartoon images: palette size, rectangle count per megapixel, rectangle
# edge lattice and share of checkerboard cells
CARTOON_LEVELS = 8
CARTOON_RECTS_PER_MPIX = 40
CARTOON_GRID_STEP = 8
CARTOON_CHECKER_SHARE = 0.02


def cartoon(rng: np.random.Generator, side: int, block: int) -> np.ndarray:
    """Flat rectangles on a flat background plus dense checker blocks.

    Intensities come from a small palette and rectangle edges lie on a
    coarse lattice, so many blocks share identical DCT coefficients: the
    magnitudes are heavy with ties.  About 2% of the `block`-sized cells
    hold a checkerboard of two palette levels, the densest spectrum a
    block can have.
    """
    palette = np.linspace(0.0, 1.0, CARTOON_LEVELS)
    pixels = np.full((side, side), rng.choice(palette))
    step = CARTOON_GRID_STEP
    cells = side // step
    for _ in range(max(1, round(CARTOON_RECTS_PER_MPIX * side * side / 2**20))):
        h, w = rng.integers(cells // 16 + 1, cells // 3 + 2, size=2)
        y = int(rng.integers(0, cells - h + 1)) * step
        x = int(rng.integers(0, cells - w + 1)) * step
        pixels[y : y + h * step, x : x + w * step] = rng.choice(palette)
    grid = side // block
    count = max(1, round(CARTOON_CHECKER_SHARE * grid * grid))
    checker = (np.add.outer(np.arange(block), np.arange(block)) % 2).astype(np.float64)
    for cell in rng.choice(grid * grid, size=count, replace=False):
        row, col = divmod(int(cell), grid)
        lo, hi = np.sort(rng.choice(palette, size=2, replace=False))
        pixels[row * block : (row + 1) * block, col * block : (col + 1) * block] = lo + (hi - lo) * checker
    return pixels


def stratified(rng: np.random.Generator, count: int) -> np.ndarray:
    """`count` uniforms in [0, 1), one per equal-width stratum, shuffled.

    Each stratum holds exactly one draw, so the mix of values, and with it
    the total work of what they parametrise, is nearly the same for every
    seed.
    """
    return rng.permutation((np.arange(count) + rng.random(count)) / count)


def log_uniform_sizes(rng: np.random.Generator, count: int, low: int, high: int) -> np.ndarray:
    """`count` sizes log-uniform in [low, high], stratified and shuffled."""
    strata = stratified(rng, count)
    return np.rint(np.exp(np.log(low) + strata * np.log(high / low))).astype(np.int64)


def kl_program(rng: np.random.Generator, n: int, u_alpha: float, u_cap: float, u_zero: float) -> dict:
    """Raw arrays of one KL allocation program (p, r, alpha, a) of size n.

    Target weights span e^-25..1 and half the programs zero out a share
    of them uniform in [0, 0.4); alpha is log-uniform in [1e-6, 1]; the
    caps over positive-weight coordinates total a value uniform in
    [1.001, 4], so every program is feasible.  The three `u_*` arguments
    are uniforms in [0, 1) that fix alpha, the cap total and the zeroed
    share; drawn stratified across a stream of programs, they keep its
    mix of easy and hard programs the same for every seed.
    """
    p = np.exp(-rng.uniform(0.0, 25.0, size=n))
    if u_zero >= 0.5:
        p[rng.random(n) < 0.8 * (u_zero - 0.5)] = 0.0
    if not (p > 0).any():
        p[int(rng.integers(n))] = 1.0
    r = rng.exponential(size=n) + 1e-3
    alpha = float(np.exp(np.log(1e-6) * (1.0 - u_alpha)))
    a = rng.uniform(0.0, 2.0, size=n)
    a *= (1.001 + 2.999 * u_cap) / a[p > 0].sum()
    return {"p": p, "r": r, "alpha": alpha, "a": a}


def quantize(pixels: np.ndarray) -> np.ndarray:
    """8-bit samples of a unit-range image, rounded half up."""
    return np.floor(pixels * 255.0 + 0.5).astype(np.uint8)


def pgm_bytes(samples: np.ndarray, magic: str) -> bytes:
    """A P5 (binary) or P2 (ASCII, 16 samples a line) PGM with maxval 255."""
    h, w = samples.shape
    header = f"{magic}\n{w} {h}\n255\n".encode("ascii")
    if magic == "P5":
        return header + samples.astype(np.uint8).tobytes()
    if magic != "P2":
        raise ValueError(f"unknown PGM magic {magic!r}")
    flat = samples.reshape(-1).tolist()
    lines = (" ".join(map(str, flat[i : i + 16])) for i in range(0, len(flat), 16))
    return header + "\n".join(lines).encode("ascii") + b"\n"
