"""Engine tests on scalar toy spaces, where brute-force simulation is the
oracle, and against a run that takes one gap per step, on the toys and on
the fixtures."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tfp import cli, hpd_core, matrix_solver, psi_family, thompson
from tfp.fixpoint_engine import error_bound, iterate_pair
from tfp.fixtures import fixture_path

FIXTURES = [
    "check_fail_power.json",
    "check_pass_constant.json",
    "example_4_1.json",
    "example_4_2.json",
    "quadratic_pass.json",
]


def real_line(x, y):
    return abs(x - y)


def real_line_gaps(points):
    return [real_line(x, y) for x, y in zip(points, points[1:])]


def stepwise(distance, t1, t2, u0, *, gap_tol=1e-12, max_iter=500):
    """The engine's contract, one map and one gap per step: the oracle.
    Returns (points, gaps, stop_reason)."""
    points, gaps = [u0], []
    for k in range(1, max_iter + 1):
        u = t1(points[-1]) if k % 2 == 1 else t2(points[-1])
        gap = distance(points[-1], u)
        points.append(u)
        gaps.append(gap)
        if gap <= gap_tol:
            return points, gaps, "gap_tol"
    return points, gaps, "max_iter"


def counted(t, calls):
    def step(x):
        calls.append(x)
        return t(x)

    return step


def raising_at(step, t1, t2):
    """The alternating maps, raising on map call number ``step``."""
    calls = []

    def make(t):
        def apply(x):
            calls.append(x)
            if len(calls) == step:
                raise RuntimeError(f"map call {step}")
            return t(x)

        return apply

    return make(t1), make(t2), calls


def climb(x):
    """Gaps of 1, which do not shrink, up to 10, then a gap of 0."""
    return min(x + 1.0, 10.0)


class TestErrorBound:
    def test_degenerate_alpha(self):
        assert error_bound(0.0, 0.7, 1) == pytest.approx(0.7)
        assert error_bound(0.0, 0.7, 2) == 0.0
        assert error_bound(0.0, 0.7, 5) == 0.0

    def test_direct_formula(self):
        assert error_bound(0.5, 0.5, 3) == pytest.approx(0.25)

    @settings(max_examples=60, deadline=None)
    @given(
        alpha=st.floats(min_value=1e-6, max_value=0.99),
        d01=st.floats(min_value=0.0, max_value=1e6),
        n=st.integers(min_value=1, max_value=50),
    )
    def test_step_identity(self, alpha, d01, n):
        assert error_bound(alpha, d01, n + 1) == pytest.approx(alpha * error_bound(alpha, d01, n))

    def test_validation(self):
        with pytest.raises(ValueError):
            error_bound(1.0, 1.0, 1)
        with pytest.raises(ValueError):
            error_bound(0.5, -1.0, 1)
        with pytest.raises(ValueError):
            error_bound(0.5, 1.0, 0)


class TestIteratePair:
    def test_constant_maps(self):
        trace = iterate_pair(real_line_gaps, lambda x: 3.0, lambda x: 3.0, 10.0)
        assert trace.points[1] == 3.0
        assert trace.points[-1] == 3.0
        assert trace.stop_reason == "gap_tol"
        assert trace.gaps[-1] == 0.0

    def test_halving_maps_geometric(self):
        trace = iterate_pair(real_line_gaps, lambda x: x / 2, lambda x: x / 2, 1.0)
        for k, point in enumerate(trace.points):
            assert point == pytest.approx(2.0**-k)
        # a-priori bound: d(u_n, 0) <= 2**-(n-1)
        for n in range(1, len(trace.points)):
            assert abs(trace.points[n]) <= error_bound(0.5, trace.gaps[0], n) + 1e-15
            assert error_bound(0.5, trace.gaps[0], n) == pytest.approx(2.0 ** -(n - 1))

    def test_alternation_order(self):
        calls = []
        trace = iterate_pair(
            real_line_gaps,
            lambda x: calls.append("t1") or x / 4,
            lambda x: calls.append("t2") or x / 5,
            1.0,
            gap_tol=1e-4,
        )
        assert calls[:4] == ["t1", "t2", "t1", "t2"]
        assert trace.points[1] == 0.25

    def test_matches_brute_force_simulation(self):
        trace = iterate_pair(real_line_gaps, lambda x: x / 4, lambda x: x / 5, 1.0)
        value = 1.0
        for k in range(1, len(trace.points)):
            value = value / 4 if k % 2 == 1 else value / 5
            assert trace.points[k] == pytest.approx(value, abs=1e-14)
        assert trace.points[-1] == pytest.approx(0.0, abs=1e-12)

    def test_trace_shape_invariants(self):
        trace = iterate_pair(real_line_gaps, lambda x: x / 3, lambda x: x / 2, 8.0)
        assert len(trace.gaps) == len(trace.points) - 1
        assert all(g2 <= g1 for g1, g2 in zip(trace.gaps, trace.gaps[1:]))

    def test_gap_contraction_with_certified_alpha(self):
        alpha = psi_family.alpha_effective(psi_family.linear(0.0, 1 / 3, 1 / 4))
        trace = iterate_pair(real_line_gaps, lambda x: x / 4, lambda x: x / 5, 1.0)
        assert trace.points[0] == 1.0
        for g1, g2 in zip(trace.gaps, trace.gaps[1:]):
            assert g2 <= alpha * g1 + 1e-12

    def test_max_iterations_carries_partial_trace(self):
        trace = iterate_pair(
            real_line_gaps,
            lambda x: x * 0.99,
            lambda x: x * 0.99,
            1.0,
            gap_tol=1e-12,
            max_iter=5,
        )
        assert trace.stop_reason == "max_iter"
        assert len(trace.points) == 6

    def test_rejects_an_empty_budget(self):
        with pytest.raises(ValueError, match="max_iter must be at least 1, got 0"):
            iterate_pair(real_line_gaps, lambda x: x / 4, lambda x: x / 5, 1.0, max_iter=0)

    def test_tolerances_are_keyword_only(self):
        # a call that still passes alpha before u0 fails instead of
        # starting from alpha
        with pytest.raises(TypeError):
            iterate_pair(real_line_gaps, lambda x: x / 4, lambda x: x / 5, 0.5, 1.0)
        with pytest.raises(TypeError):
            iterate_pair(real_line_gaps, lambda x: x / 4, lambda x: x / 5, 1.0, 1e-3)

    def test_order_identity_on_toy(self):
        fwd = iterate_pair(real_line_gaps, lambda x: x / 4, lambda x: x / 5, 1.0)
        rev = iterate_pair(real_line_gaps, lambda x: x / 5, lambda x: x / 4, 1.0)
        assert abs(fwd.points[-1] - rev.points[-1]) <= 1e-9


# (t1, t2, u0, gap_tol, max_iter): geometric, alternating, constant,
# slow, non-shrinking and oscillating toys
TOYS = [
    (lambda x: x / 2, lambda x: x / 2, 1.0, 1e-12, 500),
    (lambda x: x / 4, lambda x: x / 5, 1.0, 1e-12, 500),
    (lambda x: x / 3, lambda x: x / 2, 8.0, 1e-12, 500),
    (lambda x: 3.0, lambda x: 3.0, 10.0, 1e-12, 500),
    (lambda x: x * 0.99, lambda x: x * 0.99, 1.0, 1e-12, 5),
    (lambda x: x * 0.9, lambda x: x * 0.8, 1.0, 1e-6, 500),
    (lambda x: x * 0.9, lambda x: x * 0.8, 1.0, 0.0, 100),
    (climb, climb, 0.0, 1e-12, 500),
    (lambda x: 1.0 - x, lambda x: 1.0 - x, 0.25, 1e-12, 37),
    (lambda x: -x / 2, lambda x: 1.5 * x, 1.0, 1e-12, 200),
]


class TestBlockedGaps:
    """The engine takes the gaps of a block of steps in one call; its trace
    and its errors are those of the one-gap-per-step oracle."""

    @pytest.mark.parametrize("t1, t2, u0, gap_tol, max_iter", TOYS)
    def test_toys_match_stepwise(self, t1, t2, u0, gap_tol, max_iter):
        points, gaps, stop = stepwise(real_line, t1, t2, u0, gap_tol=gap_tol, max_iter=max_iter)
        trace = iterate_pair(real_line_gaps, t1, t2, u0, gap_tol=gap_tol, max_iter=max_iter)
        assert trace.points == points
        assert trace.gaps == gaps
        assert trace.stop_reason == stop

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        r1=st.floats(min_value=0.01, max_value=1.5),
        r2=st.floats(min_value=0.01, max_value=1.5),
        gap_tol=st.sampled_from([0.0, 1e-15, 1e-12, 1e-6, 0.1]),
        max_iter=st.integers(min_value=1, max_value=120),
    )
    def test_geometric_toys_match_stepwise(self, r1, r2, gap_tol, max_iter):
        t1, t2 = (lambda x: r1 * x), (lambda x: r2 * x)
        points, gaps, stop = stepwise(real_line, t1, t2, 1.0, gap_tol=gap_tol, max_iter=max_iter)
        trace = iterate_pair(real_line_gaps, t1, t2, 1.0, gap_tol=gap_tol, max_iter=max_iter)
        assert (trace.points, trace.gaps, trace.stop_reason) == (points, gaps, stop)

    @pytest.mark.parametrize("name", FIXTURES)
    def test_fixtures_match_stepwise(self, name):
        problem, x0, options = cli.load_problem(fixture_path(name))
        x0 = hpd_core.pd_point(hpd_core.identity(problem.n) if x0 is None else x0)
        t1, t2 = matrix_solver.maps_for(problem)
        kwargs = {"gap_tol": options.gap_tol, "max_iter": options.max_iter}
        points, gaps, stop = stepwise(thompson.distance, t1, t2, x0, **kwargs)
        trace = iterate_pair(thompson.gaps, t1, t2, x0, **kwargs)
        assert trace.gaps == gaps
        assert trace.stop_reason == stop
        assert len(trace.points) == len(points)
        for ours, theirs in zip(trace.points, points):
            assert np.array_equal(ours.matrix, theirs.matrix)
            assert np.array_equal(ours.dec.eigenvalues, theirs.dec.eigenvalues)

    @pytest.mark.parametrize(
        "t1, t2, u0",
        [
            (lambda x: x / 2, lambda x: x / 2, 1.0),
            (lambda x: x / 4, lambda x: x / 4, 3.0),
            (lambda x: x / 4, lambda x: x / 5, 1.0),
            (lambda x: x / 3, lambda x: x / 2, 8.0),
            (lambda x: x * 0.9, lambda x: x * 0.9, 1.0),
            (lambda x: 3.0, lambda x: 3.0, 10.0),
        ],
    )
    def test_no_map_past_the_stop_on_geometric_toys(self, t1, t2, u0):
        calls = []
        trace = iterate_pair(real_line_gaps, counted(t1, calls), counted(t2, calls), u0)
        assert trace.stop_reason == "gap_tol"
        assert len(calls) == trace.iterations

    @pytest.mark.parametrize("max_iter", [1, 2, 3, 4, 5, 7, 16, 17, 40, 101])
    def test_max_iter_holds(self, max_iter):
        calls = []
        t1, t2 = counted(climb, calls), counted(lambda x: 1.0 - x, calls)
        trace = iterate_pair(real_line_gaps, t1, t2, 0.0, max_iter=max_iter)
        assert trace.stop_reason == "max_iter"
        assert trace.iterations == len(calls) == max_iter
        assert len(trace.points) == max_iter + 1

    def test_map_error_after_the_stop_is_not_raised(self):
        # climb stops at step 11, inside the block of steps 10-17: the
        # maps raise on step 12, which a stepwise run never makes
        t1, t2, calls = raising_at(12, climb, climb)
        points, gaps, stop = stepwise(real_line, t1, t2, 0.0)
        assert stop == "gap_tol" and len(gaps) == 11
        calls.clear()
        trace = iterate_pair(real_line_gaps, t1, t2, 0.0)
        assert len(calls) == 12  # the block went past the stop
        assert (trace.points, trace.gaps, trace.stop_reason) == (points, gaps, stop)

    @pytest.mark.parametrize("step", [1, 2, 4, 7, 10])
    def test_map_error_before_the_stop_is_raised_at_its_step(self, step):
        t1, t2, calls = raising_at(step, climb, climb)
        with pytest.raises(RuntimeError, match=f"map call {step}$"):
            stepwise(real_line, t1, t2, 0.0)
        calls.clear()
        seen = []

        def gaps(points):
            seen.extend(real_line_gaps(points))
            return real_line_gaps(points)

        with pytest.raises(RuntimeError, match=f"map call {step}$"):
            iterate_pair(gaps, t1, t2, 0.0)
        assert len(calls) == step
        assert seen == [1.0] * (step - 1)  # every gap before the failing step was taken

    def test_gaps_error_on_a_block_is_retaken_pair_by_pair(self):
        sizes = []

        def pairs_only(points):
            sizes.append(len(points))
            if len(points) > 2:
                raise ArithmeticError("block")
            return real_line_gaps(points)

        points, gaps, stop = stepwise(real_line, climb, climb, 0.0)
        trace = iterate_pair(pairs_only, climb, climb, 0.0)
        assert (trace.points, trace.gaps, trace.stop_reason) == (points, gaps, stop)
        assert max(sizes) > 2 and sizes.count(2) == trace.iterations

    @pytest.mark.parametrize("bad, raised", [(7, True), (11, True), (12, False), (15, False)])
    def test_gap_error_is_raised_only_before_the_stop(self, bad, raised):
        # points are (step, value) with climb's values, which stop at step
        # 11, in the block of steps 10-17; the gap of step ``bad`` fails
        def step(u):
            return u[0] + 1, climb(u[1])

        def distance(u, v):
            if v[0] == bad:
                raise ArithmeticError(f"gap {bad}")
            return real_line(u[1], v[1])

        def gaps(points):
            return [distance(u, v) for u, v in zip(points, points[1:])]

        start = (0, 0.0)
        if raised:
            with pytest.raises(ArithmeticError, match=f"gap {bad}"):
                stepwise(distance, step, step, start)
            with pytest.raises(ArithmeticError, match=f"gap {bad}"):
                iterate_pair(gaps, step, step, start)
        else:
            expected = stepwise(distance, step, step, start)
            trace = iterate_pair(gaps, step, step, start)
            assert (trace.points, trace.gaps, trace.stop_reason) == expected
