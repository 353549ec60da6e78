"""Exact solver for the KL-divergence measurement-allocation program.

The program picks an allocation ratio q on the simplex, boxed by per-
coordinate caps, so that the blended ratio alpha*q + beta*r is as close
as possible (in KL divergence weighted by the target p) to p:

    minimize    -sum_i p_i * log(alpha * q_i + beta * r_i)
    subject to  sum_i q_i = 1,   0 <= q_i <= a_i.

The KKT conditions give a water-filling closed form driven by a single
multiplier mu:

    q_i(mu) = clamp(mu * p_i - beta * r_i / alpha, 0, a_i)

and the root of Q(mu) = sum_i q_i(mu) = 1 pins mu.  Q is piecewise linear
and non-decreasing, with kinks where a coordinate leaves its lower clamp
(mu = offset_i / p_i) or reaches its cap (mu = (a_i + offset_i) / p_i).
So the root is found as in the continuous quadratic knapsack (Helgason,
Kennington & Lall, Math. Program. 1980; Kiwiel, Math. Program. 2008): a
binary search over the sorted kinks finds the linear segment that holds
it, and one Newton step solves that segment's line exactly.

:func:`oracle_solve` is a deliberately naive pure-bisection solver kept
as an independent cross-check, and :func:`kkt_residual` re-derives the
multipliers to measure how badly a candidate solution violates the
first-order conditions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

_SUM_TOL = 1e-12
NEWTON = "newton"
BISECTION = "bisection"
STATUS_NEWTON = "converged-by-newton"
STATUS_BISECTION = "converged-with-bisection"


class InfeasibleProblemError(Exception):
    """The caps cannot absorb the unit budget: sum of a_i over p_i > 0 is < 1."""


def _as_ratio(vec, name: str) -> np.ndarray:
    # a copy, so a later write to the caller's array cannot reach the problem
    v = np.array(vec, dtype=np.float64).reshape(-1)
    if v.size == 0 or not np.isfinite(v).all():
        raise ValueError(f"{name} must be a non-empty finite vector")
    total = v.sum()
    if total <= 0:
        raise ValueError(f"{name} must have positive total weight")
    # only renormalize when needed so already-normalized input passes through
    # bit-identically (q must depend on weights only through their ratios)
    if abs(total - 1.0) > _SUM_TOL:
        v = v / total
    v.setflags(write=False)
    return v


@dataclass(frozen=True)
class KlAllocProblem:
    """Target ratio p, fixed ratio r, adjustable fraction alpha, caps a.

    A program whose kinks overflow float64, or where no float lies strictly
    between the two kinks of a coordinate with a positive cap (so that its
    q can only be 0 or the cap), raises ValueError.
    """

    p: np.ndarray
    r: np.ndarray
    alpha: float
    a: np.ndarray

    def __post_init__(self):
        p = _as_ratio(self.p, "p")
        r = _as_ratio(self.r, "r")
        if (p < 0).any():
            raise ValueError("p entries must be nonnegative")
        if (r <= 0).any():
            raise ValueError("r entries must be strictly positive")
        a = np.array(self.a, dtype=np.float64).reshape(-1)
        if (a < 0).any() or not np.isfinite(a).all():
            raise ValueError("caps must be finite and nonnegative")
        if not (p.size == r.size == a.size):
            raise ValueError("p, r, a must share one length")
        if not (0 < self.alpha <= 1):
            raise ValueError("alpha must lie in (0, 1]")
        a.setflags(write=False)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "a", a)
        pos = p > 0
        if a[pos].sum() < 1.0 - _SUM_TOL:
            raise InfeasibleProblemError(
                "caps over positive-weight coordinates sum below 1"
            )
        # Q's kinks: where each positive-weight coordinate leaves 0 and where it reaches its cap
        p, a = p[pos], a[pos]
        with np.errstate(over="ignore"):
            offsets = self.offsets[pos]
            kinks = np.concatenate([offsets / p, (a + offsets) / p])
        if not np.isfinite(kinks).all():
            raise ValueError("program's breakpoints overflow float64")
        if ((np.nextafter(kinks[:p.size], np.inf) >= kinks[p.size:]) & (a > 0)).any():
            raise ValueError("program's breakpoints collapse at float resolution")
        kinks.sort()
        kinks = kinks[np.concatenate([[True], kinks[1:] != kinks[:-1]])]  # distinct, ascending
        kinks.setflags(write=False)
        object.__setattr__(self, "_kinks", kinks)

    @property
    def beta(self) -> float:
        return 1.0 - self.alpha

    @property
    def size(self) -> int:
        return self.p.size

    @cached_property
    def offsets(self) -> np.ndarray:
        """The fixed-part offsets beta * r_i / alpha, computed once per problem."""
        offsets = self.beta * self.r / self.alpha
        offsets.setflags(write=False)
        return offsets


@dataclass(frozen=True)
class KlAllocSolution:
    q: np.ndarray
    mu_star: float
    trace: tuple  # of (mu, step kind)

    def __post_init__(self):
        q = np.asarray(self.q, dtype=np.float64)
        q.setflags(write=False)
        object.__setattr__(self, "q", q)

    @property
    def iterations(self) -> int:
        return len(self.trace)

    @property
    def status(self) -> str:
        """converged-by-newton if the last step solved a segment's line, else converged-with-bisection."""
        return STATUS_NEWTON if self.trace and self.trace[-1][1] == NEWTON else STATUS_BISECTION


def q_of_mu(problem: KlAllocProblem, mu: float) -> np.ndarray:
    """Closed-form allocation clamp(mu * p - beta * r / alpha, 0, a)."""
    raw = mu * problem.p - problem.offsets
    return np.minimum(np.maximum(raw, 0.0), problem.a)


def q_total(problem: KlAllocProblem, mu: float) -> float:
    """Q(mu): total allocation, a piecewise-linear non-decreasing function."""
    return float(q_of_mu(problem, mu).sum())


def _segments(problem: KlAllocProblem, mu: float):
    """Masks of the center (0 < mu*p - offset < a) and upper (positive, >= a) coordinates.

    Every other coordinate is lower-clamped, boundary values included.
    """
    raw = mu * problem.p - problem.offsets
    positive = raw > 0.0
    return positive & (raw < problem.a), positive & (raw >= problem.a)


def _newton(problem: KlAllocProblem, mu: float):
    """The root of the linear segment Q takes at mu, or None.

    Within one segment Q(mu) = mu * P - O + A with P the center weight,
    O the center offsets, and A the capped mass, so Q = 1 is solved by
    mu = (1 + O - A) / P.  A nonpositive numerator or zero denominator
    means the segment's line never reaches 1: a degenerate step.
    """
    center, upper = _segments(problem, mu)
    denom = problem.p[center].sum()
    numer = 1.0 + problem.offsets[center].sum() - problem.a[upper].sum()
    if denom <= 0.0 or numer <= 0.0:
        return None
    return float(numer / denom)


def _solution(problem: KlAllocProblem, mu: float, trace: list) -> KlAllocSolution:
    return KlAllocSolution(q=q_of_mu(problem, mu), mu_star=float(mu), trace=tuple(trace))


def solve(problem: KlAllocProblem) -> KlAllocSolution:
    """Find q and the multiplier root by a breakpoint search and one Newton step.

    A binary search over the sorted distinct kinks of the positive-weight
    coordinates finds the first kink where Q >= 1; the largest kink caps
    every such coordinate, so one always qualifies.  The root lies on the
    segment that ends there, and a Newton step from its midpoint solves
    that segment's line.  A degenerate step means Q is flat at 1 on the
    segment, where every mu gives the same q, so the midpoint is returned.
    The trace holds each probed kink, then the Newton root if one was taken.
    """
    kinks = problem._kinks
    lo, hi = 0, kinks.size - 1
    trace = []
    while lo < hi:
        mid = (lo + hi) // 2
        trace.append((float(kinks[mid]), BISECTION))
        if q_total(problem, kinks[mid]) >= 1.0:
            hi = mid
        else:
            lo = mid + 1
    mu = 0.5 * ((kinks[lo - 1] if lo else 0.0) + kinks[lo])
    root = _newton(problem, mu)
    if root is not None:
        trace.append((root, NEWTON))
        mu = root
    return _solution(problem, mu, trace)


def oracle_solve(problem: KlAllocProblem) -> KlAllocSolution:
    """Independent reference solver: bisection on sign(Q - 1) to float resolution; the bracket end with Q nearer 1."""
    lo, hi = 0.0, float(problem._kinks[-1])  # every positive-weight coordinate capped: Q >= 1
    trace = []
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        trace.append((mid, BISECTION))
        if q_total(problem, mid) < 1.0:
            lo = mid
        else:
            hi = mid
    return _solution(problem, min(lo, hi, key=lambda mu: abs(q_total(problem, mu) - 1.0)), trace)


def kkt_residual(problem: KlAllocProblem, q: np.ndarray, mu_star: float) -> float:
    """Worst first-order-condition violation of a candidate solution.

    Reconstructs the multipliers nu = 1/mu*, lambda (active lower bounds)
    and pi (active caps) and returns the max over per-coordinate
    stationarity violations, complementary-slackness products, negative
    multiplier magnitudes, and the budget violation |sum(q) - 1|.
    Coordinates pinned by a_i = 0 have both constraints active, so their
    free multipliers absorb any gradient and they contribute nothing.
    """
    q = np.asarray(q, dtype=np.float64)
    p, r, a = problem.p, problem.r, problem.a
    alpha, beta = problem.alpha, problem.beta
    nu = 1.0 / mu_star

    mix = alpha * q + beta * r
    grad = np.zeros(problem.size)
    ok = (p > 0) & (mix > 0)
    grad[ok] = alpha * p[ok] / mix[ok]

    pinned = a == 0
    lam = np.where((q == 0.0) & ~pinned, np.maximum(nu - grad, 0.0), 0.0)
    pi = np.where((q == a) & ~pinned, np.maximum(grad - nu, 0.0), 0.0)

    stationarity = np.abs(-grad - lam + pi + nu)
    stationarity[pinned] = 0.0
    slack = np.maximum(np.abs(lam * q), np.abs(pi * (q - a)))
    negativity = np.maximum(np.maximum(-lam, -pi), 0.0)
    return float(
        max(
            stationarity.max(),
            slack.max(),
            negativity.max(),
            abs(q.sum() - 1.0),
        )
    )


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------

def problem_from_json(text: str) -> KlAllocProblem:
    """Parse {"p": [...], "r": [...], "alpha": x, "a": [...]} (beta derived).

    alpha must be a JSON number and p, r, a flat arrays of them; any other
    document raises ValueError, naming the field at fault.
    """
    try:
        doc = json.loads(text)
    except RecursionError:
        raise ValueError("problem JSON nests too deeply to parse") from None
    if not isinstance(doc, dict):
        raise ValueError(f"problem JSON must be an object, not {type(doc).__name__}")
    fields = {}
    for name in ("p", "r", "alpha", "a"):
        if name not in doc:
            raise ValueError(f"problem JSON missing field '{name}'")
        value = doc[name]
        # type(), not isinstance(): JSON true and false load as bool, a subclass of int
        items = [value] if name == "alpha" else value
        if not isinstance(items, list) or not all(type(v) in (int, float) for v in items):
            kind = "a number" if name == "alpha" else "a flat array of numbers"
            raise ValueError(f"problem JSON field '{name}' must be {kind}")
        try:
            fields[name] = float(value) if name == "alpha" else np.asarray(value, dtype=np.float64)
        except OverflowError as exc:
            raise ValueError(f"problem JSON field '{name}': {exc}") from None
    return KlAllocProblem(**fields)


def solution_to_json(solution: KlAllocSolution) -> str:
    return json.dumps(
        {
            "q": solution.q.tolist(),
            "mu": solution.mu_star,
            "status": solution.status,
            "iterations": solution.iterations,
        }
    )
