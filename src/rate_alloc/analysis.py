"""Sparsity analysis of DCT blocks and per-block measurement bounds.

A block's complexity is measured by its sparsity k: the number of DCT
coefficients whose magnitude exceeds a threshold T.  The threshold is
chosen so that the overall fraction of above-threshold coefficients hits
a target ratio, which itself is a logarithmic function of the overall
sampling rate.  Each block is then assigned the classical bound
k * log10(n / k) on the number of measurements needed to recover a
k-sparse length-n signal (the theory's constant factor cancels when the
bounds are only ever used as ratios).

:func:`analyze` runs that pipeline once over a block grid and returns an
:class:`Analysis`, which plans, the simulator and the CLI all read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .imaging import BlockGrid, _chunks, _frozen, dct2_blocks


@dataclass(frozen=True)
class CurveParams:
    """Parameters of the fitted sampling-rate -> sparsity-ratio curve.

    The curve is p_s = b * ln(a * (s_r - s_r1) + 1) + p_s1 and passes
    through its anchor point (s_r1, p_s1).
    """

    a: float
    b: float
    s_r1: float
    p_s1: float

    def __post_init__(self):
        if not (self.a > 0 and self.b > 0):
            raise ValueError("curve parameters a and b must be positive")
        if not (0 < self.s_r1 < 1 and 0 < self.p_s1 < 1):
            raise ValueError("curve anchor must lie in (0, 1) x (0, 1)")


DEFAULT_CURVE = CurveParams(a=78.77, b=0.0444, s_r1=0.01, p_s1=0.005)


@dataclass(frozen=True)
class SparsityProfile:
    """Chosen threshold plus the per-block sparsity counts it induces."""

    threshold: float
    overall_ratio: float
    per_block_k: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "per_block_k", _frozen(self.per_block_k, np.int64))


def target_sparsity_ratio(s_r: float, params: CurveParams = DEFAULT_CURVE) -> float:
    """Target overall sparsity ratio for a given overall sampling rate."""
    if not (0 < s_r <= 1):
        raise ValueError("sampling rate must lie in (0, 1]")
    if s_r < params.s_r1:
        raise ValueError(
            f"sampling rate {s_r} below the curve anchor {params.s_r1}"
        )
    p_s = params.b * math.log(params.a * (s_r - params.s_r1) + 1.0) + params.p_s1
    if not p_s < 1.0:  # NaN (an infinite a at s_r = s_r1) fails too
        raise ValueError(f"target sparsity ratio {p_s} out of range at rate {s_r}")
    return p_s


# sets of up to this many magnitudes are searched whole, without a sample; tests lower it
_SAMPLE_FLOOR = 4096
# fractional part of the golden ratio
_PHI = 0.6180339887498949


def _sample_positions(n: int) -> np.ndarray:
    """Where the threshold search samples n magnitudes: floor(frac(i * phi) * n) for i < m.

    m is about 2 n^(2/3), and 0 when that would read every magnitude.  The
    positions form a low-discrepancy sequence, spread evenly over the array
    and unaligned with its block layout.
    """
    m = max(_SAMPLE_FLOOR, int(2 * n ** (2 / 3)))
    return (np.arange(m if m < n else 0) * _PHI % 1.0 * n).astype(np.intp)


def _window_pass(flat: np.ndarray, a: float, b: float) -> tuple[int, np.ndarray]:
    """One chunked pass: the count of magnitudes below a, and a fresh array of those in [a, b]."""
    below, window = 0, []
    for part in _chunks(flat.size, flat.itemsize):
        mags = np.abs(flat[part])
        outside = mags < a
        below += np.count_nonzero(outside)
        outside |= mags > b
        window.append(mags[~outside])
    return below, np.concatenate(window)


def solve_threshold(coeff_blocks, target_ps: float) -> float:
    """The threshold whose sparsity ratio is nearest the target.

    Candidates are 0 plus every distinct coefficient magnitude; exact ties
    in |ratio - target| resolve to the smaller threshold.  The result is
    the threshold an exhaustive search over all candidates would pick,
    found by selection inside a window of magnitudes instead: a sample
    places the window, one chunked pass gathers it, and a window that
    misses the candidates around the target is widened and gathered again.
    The sample changes only the cost, never the result.  Coefficients must
    not be NaN.
    """
    if not (0 < target_ps <= 1):
        raise ValueError("target sparsity ratio must lie in (0, 1]")
    flat = np.asarray(coeff_blocks, dtype=np.float64).reshape(-1)
    n = flat.size
    if n == 0:
        raise ValueError("empty coefficient set")
    # The ratio above/n falls as T rises, so |ratio - target| falls while the
    # ratio exceeds the target and rises after.  For n < 2**52 distinct counts
    # give distinct floats, so the first minimum is one of the two candidates
    # around the crossing.  k is the largest count whose ratio is at most the
    # target, by the same float division as the scoring below.
    target = float(target_ps)
    k = min(int(target * n), n)
    while k < n and (k + 1) / n <= target:
        k += 1
    while k / n > target:
        k -= 1
    if k == n:  # target 1: T = 0 hits it exactly
        return 0.0
    # hi, the (n - k)-th smallest magnitude, is the smallest candidate with at
    # most k magnitudes above it; lo, the candidate just below it, has more
    rank = n - k - 1
    # The window [a, b] lies around the rank's place among m sampled magnitudes.
    # It holds hi iff the magnitudes below a leave the rank inside it, and lo
    # too unless hi is its smallest value and some magnitude lies below a.
    # Short of both, the margin grows until the window is the whole range
    # [0, inf], which holds both.  Without a sample the first window is that.
    sample = np.abs(flat[_sample_positions(n)])
    m = sample.size
    centre, margin = rank * m / n, 1.0 + 4.0 * math.sqrt(m)
    while True:
        first, last = math.floor(centre - margin), math.ceil(centre + margin)
        kth = [i for i in (first, last) if 0 <= i < m]
        if kth:
            sample.partition(kth)
        below, window = _window_pass(flat, sample[first] if first >= 0 else 0.0,
                                     sample[last] if last < m else math.inf)
        at = rank - below
        if 0 <= at < window.size:
            window.partition(at)
            hi = window[at]
            under = window[:at] < hi
            if hi == 0.0 or below == 0 or under.any():
                break
        margin *= 4.0
    if hi == 0.0:  # no candidate lies below 0
        return 0.0
    lo = window[:at].max(where=under, initial=0.0)
    # the magnitudes not gathered and not below a lie above b, so above hi
    over = np.count_nonzero(window[at + 1:] > hi) + n - below - window.size
    above = np.array([n - below - np.count_nonzero(under), over])
    distances = np.abs(above / n - target)
    # ties pick the smaller threshold, as argmin over ascending candidates does
    return float(hi if distances[1] < distances[0] else lo)


def measurement_bounds(k: int, block_len: int) -> float:
    """Measurement bound k * log10(n / k) for a k-sparse length-n block.

    k is clamped to floor(n / e), where the unclamped expression peaks;
    beyond that point the raw formula decreases and would starve the
    densest blocks, so the monotone envelope is used instead.
    """
    if not (0 <= k <= block_len):
        raise ValueError("sparsity must lie in [0, block length]")
    if k == 0:
        return 0.0
    k_eff = min(k, math.floor(block_len / math.e))
    return k_eff * math.log10(block_len / k_eff)


def sparsity_profile(coeff_blocks, threshold: float) -> SparsityProfile:
    """Per-block sparsity counts under a threshold, plus the overall ratio."""
    coeffs = np.asarray(coeff_blocks, dtype=np.float64)
    per_block = np.empty(len(coeffs), dtype=np.int64)
    block_len = math.prod(coeffs.shape[1:])
    # a block's mask bytes read as whole words; a True byte is one set bit
    word = np.dtype(f"u{math.gcd(block_len, 8)}")
    # chunk by chunk, so the magnitudes and their mask stay chunk-sized
    for part in _chunks(len(coeffs), block_len * coeffs.itemsize):
        mask = (np.abs(coeffs[part]) > threshold).reshape(-1, block_len)
        per_block[part] = np.bitwise_count(mask.view(word)).sum(axis=1)
    return SparsityProfile(
        threshold=threshold,
        overall_ratio=float(per_block.sum() / coeffs.size),
        per_block_k=per_block,
    )


def bounds_profile(per_block_k: np.ndarray, block_len: int) -> np.ndarray:
    """Read-only per-block bounds, 0 iff k = 0, from a :func:`measurement_bounds` table over k."""
    top = int(per_block_k.max(initial=0))
    table = np.array([measurement_bounds(k, block_len) for k in range(top + 1)])
    return _frozen(table[per_block_k])


@dataclass(frozen=True)
class Analysis:
    """One pass over a block grid at a rate: threshold, sparsity and bounds.

    The DCT coefficients are not kept; everything downstream needs only
    the per-block counts and bounds derived from them.
    """

    grid: BlockGrid
    rate: float
    target_ratio: float
    sparsity: SparsityProfile
    bounds: np.ndarray  # read-only per-block measurement bounds

    @property
    def threshold(self) -> float:
        return self.sparsity.threshold


def analyze(grid: BlockGrid, s_r: float, curve: CurveParams = DEFAULT_CURVE) -> Analysis:
    """The pipeline in order: target ratio, DCT, threshold, sparsity, bounds."""
    target_ps = target_sparsity_ratio(s_r, curve)  # rejects a bad rate or curve before the DCT
    coeffs = dct2_blocks(grid.blocks)
    sparsity = sparsity_profile(coeffs, solve_threshold(coeffs, target_ps))
    bounds = bounds_profile(sparsity.per_block_k, grid.block_size * grid.block_size)
    return Analysis(grid, s_r, target_ps, sparsity, bounds)
