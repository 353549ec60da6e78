from functools import cache

import numpy as np
import pytest

from rate_alloc import sensing
from rate_alloc.analysis import bounds_profile, sparsity_profile
from rate_alloc.kl_solver import KlAllocProblem
from rate_alloc.sensing import build_matrix


def random_problem(rng, n=None, alpha=None, cap_total=None):
    """A random allocation program mixing the awkward cases.

    Some target weights forced to zero, some caps forced to zero, alpha
    occasionally pinned at 1 (no fixed part), and the positive-weight cap
    total scaled down to values barely above feasibility.
    """
    if n is None:
        n = int(rng.integers(1, 513))
    w = rng.exponential(size=n)
    if n > 1 and rng.random() < 0.5:
        w[rng.random(n) < rng.uniform(0.0, 0.4)] = 0.0
    if w.sum() == 0:
        w[int(rng.integers(n))] = 1.0
    r = rng.exponential(size=n) + 1e-3
    if alpha is None:
        alpha = 1.0 if rng.random() < 0.1 else float(rng.uniform(0.05, 1.0))
    a = rng.uniform(0.0, 2.0, size=n)
    if n > 1 and rng.random() < 0.4:
        a[rng.random(n) < 0.2] = 0.0
    pos = w > 0
    if cap_total is None:
        cap_total = 1.001 if rng.random() < 0.2 else float(rng.uniform(1.001, 4.0))
    current = a[pos].sum()
    if current <= 0:
        a[pos] = cap_total / pos.sum()
    else:
        a = a * (cap_total / current)
    return KlAllocProblem(p=w, r=r, alpha=alpha, a=a)


def upper_bracket(prob):
    """The largest breakpoint mu: past it every positive-weight coordinate sits at its cap."""
    pos = prob.p > 0
    return float(((prob.a[pos] + prob.beta * prob.r[pos] / prob.alpha) / prob.p[pos]).max())


def bounds_of(coeff_blocks, threshold):
    """Per-block bounds under a threshold, by the counts-to-bounds table `analyze` uses."""
    coeffs = np.asarray(coeff_blocks, dtype=np.float64)
    k = sparsity_profile(coeffs, threshold).per_block_k
    return bounds_profile(k, coeffs.shape[-1] * coeffs.shape[-2])


# operators are read-only records, so one build per (block size, seed) serves the session
operator = cache(build_matrix)


@pytest.fixture(scope="session")
def matrix32():
    return operator(32, 1)


@pytest.fixture
def cached_operator(monkeypatch):
    """Commands run under this fixture reuse the session's operators instead of drawing anew."""
    monkeypatch.setattr(sensing, "build_matrix", operator)
