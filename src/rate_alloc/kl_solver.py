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
and non-decreasing, so Newton's method lands on the exact root, a fixed
point of the Newton map where the solver stops, as soon as an iterate
shares its linear segment with the root; a Newton step that degenerates
or escapes the known bracket is replaced by bisection.
The bracket updates are justified by the step direction itself: an
increasing step means the current point lies below the root, a decreasing
step means it lies above (and this holds in both directions).

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


class SolverInternalError(RuntimeError):
    """Iteration cap exceeded; indicates a solver bug, not a bad problem."""


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
    """Target ratio p, fixed ratio r, adjustable fraction alpha, caps a."""

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
        if a[p > 0].sum() < 1.0 - _SUM_TOL:
            raise InfeasibleProblemError(
                "caps over positive-weight coordinates sum below 1"
            )

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
    status: str

    def __post_init__(self):
        q = np.asarray(self.q, dtype=np.float64)
        q.setflags(write=False)
        object.__setattr__(self, "q", q)

    @property
    def iterations(self) -> int:
        return len(self.trace)


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


def _upper_bracket(problem: KlAllocProblem) -> float:
    """A mu at which every positive-weight coordinate is capped, so Q >= 1."""
    pos = problem.p > 0
    return float(((problem.a[pos] + problem.offsets[pos]) / problem.p[pos]).max())


def _solution(problem: KlAllocProblem, mu: float, trace: list, status: str) -> KlAllocSolution:
    return KlAllocSolution(q=q_of_mu(problem, mu), mu_star=float(mu), trace=tuple(trace), status=status)


def solve(problem: KlAllocProblem) -> KlAllocSolution:
    """Find q and the multiplier root via Newton with a bisection fallback.

    Every iterate tightens a [lo, hi] bracket; a degenerate Newton step, or
    one escaping the bracket, is replaced by the bracket midpoint.  Stops at
    a fixed point of the Newton map (converged-by-newton if no bisection
    step was taken), on a flat segment where Q(mu) is exactly 1, or when
    the bracket is exhausted at float resolution.
    """
    hi0 = _upper_bracket(problem)
    lo, hi = 0.0, hi0
    eps = 1e-12 * hi0
    if problem.beta == 0.0:
        mu = hi0 / 2.0
    else:
        mu = min(max(problem.beta / problem.alpha, lo + eps), hi - eps)

    trace = []
    cap = 10 * problem.size + 2200  # bisection alone exhausts any double bracket in ~2,100 halvings
    for _ in range(cap):
        candidate = _newton(problem, mu)
        if candidate is not None:
            if candidate == mu:
                # fixed point: mu already solves its own segment's line
                bisected = any(kind == BISECTION for _, kind in trace)
                return _solution(problem, mu, trace, STATUS_BISECTION if bisected else STATUS_NEWTON)
            if candidate > mu:
                lo = max(lo, mu)
            else:
                hi = min(hi, mu)
            if lo < candidate < hi:
                trace.append((candidate, NEWTON))
                mu = candidate
                continue
        else:
            total = q_total(problem, mu)
            if total < 1.0:
                lo = max(lo, mu)
            elif total > 1.0:
                hi = min(hi, mu)
            else:
                # flat segment sitting exactly on Q = 1
                return _solution(problem, mu, trace, STATUS_BISECTION)
        mid = 0.5 * (lo + hi)
        trace.append((mid, BISECTION))
        if not (lo < mid < hi):
            # bracket exhausted at float resolution: mid is the root's kink
            return _solution(problem, mid, trace, STATUS_BISECTION)
        mu = mid
    raise SolverInternalError(f"no convergence within {cap} iterations")


def oracle_solve(problem: KlAllocProblem) -> KlAllocSolution:
    """Independent reference solver: plain bisection on sign(Q - 1) down to float resolution."""
    lo, hi = 0.0, _upper_bracket(problem)
    trace = []
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        trace.append((mid, BISECTION))
        if q_total(problem, mid) < 1.0:
            lo = mid
        else:
            hi = mid
    return _solution(problem, mid, trace, STATUS_BISECTION)


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
