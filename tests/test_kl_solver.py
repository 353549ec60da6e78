import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_problem
from rate_alloc.kl_solver import (
    InfeasibleProblemError,
    KlAllocProblem,
    STATUS_BISECTION,
    STATUS_NEWTON,
    _newton,
    _segments,
    kkt_residual,
    oracle_solve,
    problem_from_json,
    q_of_mu,
    q_total,
    solution_to_json,
    solve,
)


@dataclass(frozen=True)
class SegmentSets:
    """Index partition by clamp state at a given mu (0-based indices)."""

    lower: frozenset
    center: frozenset
    upper: frozenset


def _q_slope(problem: KlAllocProblem, mu: float) -> float:
    """Q'(mu): the summed target weight of the un-clamped coordinates."""
    return float(problem.p[_segments(problem, mu)[0]].sum())


def _segment_sets(problem: KlAllocProblem, mu: float) -> SegmentSets:
    """Partition coordinates into lower-clamped / interior / capped at mu."""
    center, upper = _segments(problem, mu)
    return SegmentSets(
        lower=frozenset(np.flatnonzero(~(center | upper)).tolist()),
        center=frozenset(np.flatnonzero(center).tolist()),
        upper=frozenset(np.flatnonzero(upper).tolist()),
    )


def objective(problem: KlAllocProblem, q: np.ndarray) -> float:
    """The program's objective -sum_i p_i * log(alpha * q_i + beta * r_i)."""
    q = np.asarray(q, dtype=np.float64)
    mix = problem.alpha * q + problem.beta * problem.r
    pos = problem.p > 0
    if (mix[pos] <= 0).any():
        raise ValueError("nonpositive mixture under a positive target weight")
    return float(-(problem.p[pos] * np.log(mix[pos])).sum())


def hand_problem():
    """Worked instance: p=[0.6,0.3,0.1], r uniform, alpha=beta=0.5, a=[0.5,1,1].

    KKT case analysis: at the root, coordinate 0 is capped at 0.5,
    coordinate 1 is interior with q = mu*0.3 - 1/3, coordinate 2 is at
    zero; sum(q)=1 forces mu = 25/9 and q = [0.5, 0.5, 0].
    """
    return KlAllocProblem(p=[0.6, 0.3, 0.1], r=[1 / 3, 1 / 3, 1 / 3], alpha=0.5, a=[0.5, 1.0, 1.0])


class TestClosedForm:
    def test_zero_weight_coordinate_stays_zero(self):
        prob = KlAllocProblem(p=[0.5, 0.5, 0.0], r=[1 / 3] * 3, alpha=0.5, a=[1, 1, 1])
        for mu in (0.1, 1.0, 10.0):
            assert q_of_mu(prob, mu)[2] == 0.0

    def test_small_mu_all_zero(self):
        prob = hand_problem()
        assert not q_of_mu(prob, 1e-9).any()

    def test_hand_values_at_mu_one(self):
        prob = hand_problem()
        q = q_of_mu(prob, 1.0)
        assert q[0] == pytest.approx(0.6 - 1 / 3, abs=1e-15)
        assert q[1] == 0.0 and q[2] == 0.0

    def test_q_total_and_slope(self):
        prob = hand_problem()
        assert q_total(prob, 1.0) == pytest.approx(0.6 - 1 / 3, abs=1e-15)
        assert _q_slope(prob, 1.0) == pytest.approx(0.6)

    def test_saturation_beyond_bracket(self):
        prob = hand_problem()
        mu_big = max((prob.a[i] + prob.beta * prob.r[i] / prob.alpha) / prob.p[i] for i in range(3))
        assert q_total(prob, mu_big + 1.0) == pytest.approx(prob.a.sum())

    def test_slope_matches_finite_difference(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            prob = random_problem(rng, n=int(rng.integers(2, 12)))
            off = prob.beta * prob.r / prob.alpha
            pos = prob.p > 0
            # breakpoints: where a coordinate leaves the lower clamp or caps
            points = np.concatenate(
                [off[pos] / prob.p[pos], (prob.a[pos] + off[pos]) / prob.p[pos]]
            )
            points = np.unique(points[points > 0])
            for left, right in zip(points, points[1:]):
                if right - left < 1e-9:
                    continue
                mid = 0.5 * (left + right)
                h = 0.25 * (right - left)
                fd = (q_total(prob, mid + h) - q_total(prob, mid - h)) / (2 * h)
                assert fd == pytest.approx(_q_slope(prob, mid), rel=1e-9, abs=1e-12)


class TestSegmentSets:
    def test_hand_instance_at_one(self):
        sets = _segment_sets(hand_problem(), 1.0)
        assert sets.center == {0}
        assert sets.lower == {1, 2}
        assert sets.upper == frozenset()

    def test_hand_instance_near_root_segment(self):
        sets = _segment_sets(hand_problem(), 20 / 9)
        assert sets.upper == {0}
        assert sets.center == {1}
        assert sets.lower == {2}

    def test_partition_property(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            prob = random_problem(rng)
            sets = _segment_sets(prob, float(rng.uniform(0.01, 5.0)))
            union = sets.lower | sets.center | sets.upper
            assert union == set(range(prob.size))
            assert len(sets.lower) + len(sets.center) + len(sets.upper) == prob.size

    def test_single_positive_weight(self):
        prob = KlAllocProblem(p=[0.0, 1.0], r=[0.5, 0.5], alpha=0.5, a=[1.0, 2.0])
        for mu in (0.5, 2.0, 50.0):
            sets = _segment_sets(prob, mu)
            # the zero-weight coordinate never leaves the lower clamp
            assert 0 in sets.lower
            assert (sets.center | sets.upper) <= {1}

    def test_boundary_goes_to_lower_and_upper(self):
        # mu*p - beta*r/alpha hits exactly 0 for coord 0 and exactly a for coord 1
        prob = KlAllocProblem(p=[0.25, 0.75], r=[0.5, 0.5], alpha=0.5, a=[2.0, 2.5])
        # offsets are [0.5, 0.5]; at mu=2 coord0 raw = 0; at mu=4 coord1 raw = 2.5
        sets = _segment_sets(prob, 2.0)
        assert 0 in sets.lower
        sets = _segment_sets(prob, 4.0)
        assert 1 in sets.upper


class TestNewtonStep:
    def test_first_step_from_one(self):
        assert _newton(hand_problem(), 1.0) == pytest.approx(20 / 9, abs=1e-15)

    def test_second_step(self):
        assert _newton(hand_problem(), 20 / 9) == pytest.approx(25 / 9, abs=1e-14)

    def test_fixed_point_at_root(self):
        prob = hand_problem()
        root = solve(prob).mu_star
        assert _newton(prob, root) == pytest.approx(root, abs=1e-14)

    def test_degenerate_step_signal(self):
        prob = hand_problem()
        # at tiny mu every coordinate sits at the lower clamp: no slope
        assert _newton(prob, 1e-12) is None


class TestSolve:
    def test_hand_instance(self):
        sol = solve(hand_problem())
        assert np.abs(sol.q - np.array([0.5, 0.5, 0.0])).max() <= 1e-12
        assert sol.mu_star == pytest.approx(25 / 9, abs=1e-12)
        assert sol.status == STATUS_NEWTON
        assert sol.iterations <= 3
        assert all(kind == "newton" for _, kind in sol.trace)

    def test_single_coordinate_forced(self):
        sol = solve(KlAllocProblem(p=[1.0], r=[1.0], alpha=0.5, a=[2.0]))
        assert sol.q.tolist() == [1.0]
        assert sol.mu_star == pytest.approx(2.0)

    def test_identity_when_target_matches_fixed(self):
        rng = np.random.default_rng(23)
        for alpha in (0.1, 0.5, 1.0):
            w = rng.uniform(0.2, 1.0, size=6)
            ratio = w / w.sum()
            prob = KlAllocProblem(p=ratio, r=ratio, alpha=alpha, a=np.full(6, 1.0))
            sol = solve(prob)
            assert np.abs(sol.q - ratio).max() <= 1e-14
            assert objective(prob, sol.q) == pytest.approx(
                -(ratio * np.log(ratio)).sum(), abs=1e-12
            )

    def test_sum_constraint(self):
        rng = np.random.default_rng(24)
        for _ in range(50):
            sol = solve(random_problem(rng))
            assert abs(sol.q.sum() - 1.0) <= 1e-10

    def test_q_reevaluates_from_mu(self):
        rng = np.random.default_rng(25)
        for _ in range(25):
            prob = random_problem(rng)
            sol = solve(prob)
            assert np.array_equal(sol.q, q_of_mu(prob, sol.mu_star))

    def test_newton_termination_is_exact(self):
        rng = np.random.default_rng(26)
        seen = 0
        for _ in range(200):
            prob = random_problem(rng)
            sol = solve(prob)
            if sol.status == STATUS_NEWTON:
                seen += 1
                assert abs(q_total(prob, sol.mu_star) - 1.0) <= 1e-12
                assert _newton(prob, sol.mu_star) == sol.mu_star
                assert all(kind == "newton" for _, kind in sol.trace)
        assert seen > 50  # the pure-Newton path must be common

    def test_control_flow_pinned(self):
        # statuses and step kinds of a fixed corpus, 73 of whose solves take a
        # bisection step; the digest is that of the earlier clamp-code loop's runs
        rng = np.random.default_rng(35)
        flow = []
        for _ in range(400):
            sol = solve(random_problem(rng))
            flow.append([sol.status, [kind for _, kind in sol.trace]])
        assert sum("bisection" in kinds for _, kinds in flow) == 73
        digest = hashlib.sha256(json.dumps(flow).encode()).hexdigest()
        assert digest == "b57e4559988dacf8f81090692294ba8bf0f66cc8da718e4ba6de11c5dc67791e"

    def test_flat_segment_root_matches_oracle(self):
        # caps sum to exactly 1: Q plateaus at 1, any mu on the plateau works
        prob = KlAllocProblem(p=[0.5, 0.5], r=[0.5, 0.5], alpha=0.5, a=[0.5, 0.5])
        sol = solve(prob)
        ref = oracle_solve(prob)
        assert np.abs(sol.q - ref.q).max() <= 1e-8
        assert abs(sol.q.sum() - 1.0) <= 1e-10

    def test_flat_segment_exit_pinned(self):
        # the start mu = beta / alpha = 9 caps both heavy coordinates: Q(9) is exactly 1, flat
        prob = KlAllocProblem(p=[0.45, 0.45, 0.1], r=[0.01, 0.01, 0.98], alpha=0.1, a=[0.5, 0.5, 1.0])
        sol = solve(prob)
        assert sol.q.tolist() == [0.5, 0.5, 0.0]
        assert (sol.mu_star, sol.trace, sol.status) == (9.0, (), STATUS_BISECTION)

    def test_arrays_copied_from_caller(self):
        p, r, a = np.array([0.5, 0.5]), np.array([0.25, 0.75]), np.ones(2)
        prob = KlAllocProblem(p=p, r=r, alpha=0.5, a=a)
        offsets = prob.offsets.copy()
        p[0], r[0], a[0] = 0.9, 0.9, 0.9
        assert prob.p.tolist() == [0.5, 0.5]
        assert prob.r.tolist() == [0.25, 0.75]
        assert prob.a.tolist() == [1.0, 1.0]
        assert np.array_equal(prob.offsets, offsets)

    def test_infeasible_rejected(self):
        with pytest.raises(InfeasibleProblemError):
            KlAllocProblem(p=[1.0], r=[1.0], alpha=0.5, a=[0.5])

    def test_zero_total_fixed_ratio_rejected(self):
        # r is normalized by its total, so all-zero fixed weights give no ratio
        with pytest.raises(ValueError, match="positive total"):
            KlAllocProblem(p=[1.0, 1.0, 1.0], r=np.zeros(3), alpha=0.5, a=[1.0, 1.0, 1.0])

    def test_zero_weight_zero_cap_mixtures(self):
        prob = KlAllocProblem(
            p=[0.0, 0.4, 0.6, 0.0], r=[0.25] * 4, alpha=0.8, a=[0.0, 0.9, 0.9, 2.0]
        )
        sol = solve(prob)
        assert sol.q[0] == 0.0 and sol.q[3] == 0.0
        assert np.abs(sol.q - oracle_solve(prob).q).max() <= 1e-8

    def test_beta_zero_starts_and_solves(self):
        rng = np.random.default_rng(27)
        for _ in range(20):
            prob = random_problem(rng, alpha=1.0)
            sol = solve(prob)
            assert np.abs(sol.q - oracle_solve(prob).q).max() <= 1e-8

    def test_scale_free_bit_identical(self):
        rng = np.random.default_rng(28)
        w = rng.uniform(0.1, 5.0, size=9)
        r = rng.uniform(0.1, 1.0, size=9)
        a = np.full(9, 0.8)
        raw = solve(KlAllocProblem(p=w, r=r, alpha=0.4, a=a))
        normed = solve(KlAllocProblem(p=w / w.sum(), r=r, alpha=0.4, a=a))
        assert np.array_equal(raw.q, normed.q)

    def test_oracle_agreement_small_corpus(self):
        rng = np.random.default_rng(29)
        for _ in range(300):
            prob = random_problem(rng, n=int(rng.integers(1, 65)))
            sol = solve(prob)
            ref = oracle_solve(prob)
            assert np.abs(sol.q - ref.q).max() <= 1e-8

    def test_q_total_monotone_in_mu(self):
        rng = np.random.default_rng(290)
        for _ in range(40):
            prob = random_problem(rng, n=int(rng.integers(1, 50)))
            pos = prob.p > 0
            hi = float(((prob.a[pos] + prob.beta * prob.r[pos] / prob.alpha) / prob.p[pos]).max())
            mus = np.sort(rng.uniform(1e-9, 1.5 * hi, size=12))
            totals = [q_total(prob, float(mu)) for mu in mus]
            assert all(a <= b + 1e-12 for a, b in zip(totals, totals[1:]))


class TestOracle:
    def test_single_coordinate(self):
        assert oracle_solve(KlAllocProblem(p=[1.0], r=[1.0], alpha=0.5, a=[2.0])).q.tolist() == [1.0]

    def test_hand_instance(self):
        ref = oracle_solve(hand_problem())
        assert np.abs(ref.q - np.array([0.5, 0.5, 0.0])).max() <= 1e-10
        assert ref.status == STATUS_BISECTION


class TestHardRegime:
    """Weights over e^-25..1 with zeroed shares and alpha down to 1e-6, as in the solve workload."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.one_of(st.integers(1, 64), st.integers(65, 2048)),
        log_alpha=st.floats(math.log(1e-6), 0.0),
        zero_share=st.one_of(st.just(0.0), st.floats(0.0, 0.4)),
        cap_total=st.floats(1.001, 4.0),
    )
    def test_oracle_gap_kkt_and_iteration_cap(self, seed, n, log_alpha, zero_share, cap_total):
        rng = np.random.default_rng(seed)
        p = np.exp(-rng.uniform(0.0, 25.0, size=n))
        p[rng.random(n) < zero_share] = 0.0
        if not (p > 0).any():
            p[int(rng.integers(n))] = 1.0
        a = rng.uniform(0.0, 2.0, size=n)
        a *= cap_total / a[p > 0].sum()
        prob = KlAllocProblem(
            p=p, r=rng.exponential(size=n) + 1e-3, alpha=math.exp(log_alpha), a=a
        )
        sol = solve(prob)
        assert np.abs(sol.q - oracle_solve(prob).q).max() <= 1e-8
        assert kkt_residual(prob, sol.q, sol.mu_star) <= 1e-8
        assert sol.iterations <= 10 * n + 100  # narrow brackets: far below solve()'s cap of 10n + 2200


class TestWideBracket:
    """Weights spanning 300 decades, so the upper bracket lies up to ~1e300 above the root."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 32),
        log_alpha=st.floats(math.log(0.05), 0.0),
    )
    def test_solver_and_oracle_agree(self, seed, n, log_alpha):
        rng = np.random.default_rng(seed)
        p = 10.0 ** rng.uniform(-300.0, 0.0, size=n)
        a = rng.uniform(0.0, 2.0, size=n) * 10.0 ** rng.uniform(0.0, 4.0)
        a *= max(1.001 / a.sum(), 1.0)
        prob = KlAllocProblem(p=p, r=rng.exponential(size=n) + 1e-3, alpha=math.exp(log_alpha), a=a)
        sol = solve(prob)
        assert np.abs(sol.q - oracle_solve(prob).q).max() <= 1e-8
        assert kkt_residual(prob, sol.q, sol.mu_star) <= 1e-8
        assert sol.iterations <= 10 * n + 2200


class TestLemmaOneProperty:
    def test_step_direction_matches_root_side(self):
        rng = np.random.default_rng(30)
        pairs = degenerate = 0
        while pairs < 2000:
            prob = random_problem(rng, n=int(rng.integers(1, 40)))
            root = oracle_solve(prob).mu_star
            pos = prob.p > 0
            hi = float(((prob.a[pos] + prob.beta * prob.r[pos] / prob.alpha) / prob.p[pos]).max())
            for _ in range(10):
                mu = float(rng.uniform(1e-9, hi))
                step = _newton(prob, mu)
                pairs += 1
                if step is None:
                    degenerate += 1
                    continue
                tol = 1e-12 * max(1.0, abs(root))
                lhs = 0 if abs(step - mu) <= tol else math.copysign(1, step - mu)
                rhs = 0 if abs(root - mu) <= tol else math.copysign(1, root - mu)
                assert lhs == rhs, (prob, mu, step, root)
        assert degenerate < pairs  # the property must actually get exercised

    def test_fixed_point_iff_shared_segment(self):
        prob = hand_problem()
        root = solve(prob).mu_star
        root_sets = _segment_sets(prob, root)
        # a point sharing the root's segment maps straight onto the root
        for mu in (2.5, 2.7, 2.9):
            if _segment_sets(prob, mu) == root_sets:
                assert _newton(prob, mu) == pytest.approx(root, abs=1e-13)

    def test_degenerate_rate_near_initialization(self):
        rng = np.random.default_rng(31)
        sampled = degenerate = 0
        for _ in range(400):
            prob = random_problem(rng)
            if prob.beta == 0.0:
                continue
            anchor = prob.beta / prob.alpha
            for _ in range(5):
                mu = anchor * float(rng.uniform(0.9, 1.1))
                if mu <= 0:
                    continue
                sampled += 1
                if _newton(prob, mu) is None:
                    degenerate += 1
        assert sampled > 1000
        assert degenerate / sampled < 0.01


class TestKktResidual:
    def test_hand_solution_clean(self):
        prob = hand_problem()
        sol = solve(prob)
        assert kkt_residual(prob, sol.q, sol.mu_star) <= 1e-10

    def test_interior_case_clean(self):
        ratio = np.array([0.2, 0.3, 0.5])
        prob = KlAllocProblem(p=ratio, r=ratio, alpha=0.5, a=np.ones(3))
        sol = solve(prob)
        assert kkt_residual(prob, sol.q, sol.mu_star) <= 1e-12

    def test_perturbation_detected(self):
        prob = hand_problem()
        sol = solve(prob)
        bad = sol.q.copy()
        bad[1] += 1e-3
        bad = bad / bad.sum()
        assert kkt_residual(prob, bad, sol.mu_star) > 1e-4

    def test_random_corpus_clean(self):
        rng = np.random.default_rng(32)
        for _ in range(100):
            prob = random_problem(rng)
            sol = solve(prob)
            assert kkt_residual(prob, sol.q, sol.mu_star) <= 1e-8


class TestObjective:
    def test_zero_kl_value(self):
        ratio = np.array([0.25, 0.75])
        prob = KlAllocProblem(p=ratio, r=ratio, alpha=0.3, a=np.ones(2))
        assert objective(prob, ratio) == pytest.approx(-(ratio * np.log(ratio)).sum())

    def test_hand_value(self):
        prob = hand_problem()
        # mixture alpha*q + beta*r = [5/12, 5/12, 1/6]
        expected = -(0.6 * math.log(5 / 12) + 0.3 * math.log(5 / 12) + 0.1 * math.log(1 / 6))
        assert objective(prob, np.array([0.5, 0.5, 0.0])) == pytest.approx(expected, abs=1e-14)

    def test_solution_beats_random_feasible(self):
        rng = np.random.default_rng(33)
        for _ in range(40):
            prob = random_problem(rng, n=int(rng.integers(2, 30)))
            if prob.beta == 0.0 and (prob.a[prob.p > 0] == 0).any():
                continue  # objective undefined on pinned positive-weight coords
            sol = solve(prob)
            best = objective(prob, sol.q)
            for _ in range(10):
                w = rng.exponential(size=prob.size)
                w[prob.p == 0] = 0.0
                q = np.minimum(w / max(w.sum(), 1e-300), prob.a)
                deficit = 1.0 - q.sum()
                # push the remainder into coordinates with spare capacity
                for i in np.argsort(prob.a - q)[::-1]:
                    room = prob.a[i] - q[i]
                    take = min(room, deficit)
                    q[i] += take
                    deficit -= take
                    if deficit <= 1e-15:
                        break
                if deficit > 1e-12 or (prob.beta == 0.0 and ((prob.p > 0) & (q <= 0)).any()):
                    continue
                assert best <= objective(prob, q) + 1e-9

    def test_nonpositive_mixture_rejected(self):
        prob = KlAllocProblem(p=[1.0], r=[1.0], alpha=1.0, a=[2.0])
        with pytest.raises(ValueError):
            objective(prob, np.array([0.0]))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=12,
)
# documents shaped like a problem, each field present or not, well typed or not;
# fields of two in-range numbers often make a valid problem
PAIRS = st.lists(st.floats(0.0, 4.0), min_size=2, max_size=2)
PROBLEM_DOCUMENTS = st.fixed_dictionaries(
    {},
    optional={
        "p": PAIRS | JSON_VALUES,
        "r": PAIRS | JSON_VALUES,
        "alpha": st.floats(0.0, 1.0) | JSON_VALUES,
        "a": PAIRS | JSON_VALUES,
    },
)


class TestSerialization:
    def test_problem_round_trip_full_precision(self):
        rng = np.random.default_rng(34)
        prob = random_problem(rng, n=7)
        text = json.dumps({"p": prob.p.tolist(), "r": prob.r.tolist(), "alpha": prob.alpha,
                           "a": prob.a.tolist()})
        back = problem_from_json(text)
        assert np.array_equal(back.p, prob.p)
        assert np.array_equal(back.r, prob.r)
        assert np.array_equal(back.a, prob.a)
        assert back.alpha == prob.alpha

    def test_solution_json_shape(self):
        sol = solve(hand_problem())
        doc = json.loads(solution_to_json(sol))
        assert set(doc) == {"q", "mu", "status", "iterations"}
        assert doc["mu"] == sol.mu_star
        assert doc["iterations"] == sol.iterations

    def test_missing_field_rejected(self):
        with pytest.raises(ValueError):
            problem_from_json('{"p": [1.0], "alpha": 0.5}')

    @settings(max_examples=300, deadline=None)
    @given(document=st.one_of(JSON_VALUES, PROBLEM_DOCUMENTS))
    def test_any_document_parses_or_raises_value_error(self, document):
        # an infeasible but well-formed problem has its own error (CLI exit 4)
        try:
            problem = problem_from_json(json.dumps(document))
        except (ValueError, InfeasibleProblemError):
            return
        assert isinstance(problem, KlAllocProblem)
        # only JSON numbers get through: no strings, booleans or nested arrays
        assert type(document["alpha"]) in (int, float)
        for name in ("p", "r", "a"):
            assert all(type(v) in (int, float) for v in document[name])
