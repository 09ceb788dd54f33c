"""Engine tests on scalar toy spaces, where brute-force simulation is the
oracle, and against a run that takes one gap per step, on the toys, the
fixtures and known-answer problems."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import known_answer_files
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


def never(x, y):
    """A bound that never decides: every step may be past the stop."""
    return math.inf


def always(x, y):
    """A bound that always decides: one gap per step."""
    return 0.0


def doubled(x, y):
    """A bound above the distance, which may let maps run past the stop."""
    return 2.0 * real_line(x, y)


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

    @settings(max_examples=60)
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
        for d01 in (-1.0, math.nan):
            with pytest.raises(ValueError, match="d01 must be nonnegative"):
                error_bound(0.5, d01, 1)
        with pytest.raises(ValueError, match="^n must be at least 1, got 0$"):
            error_bound(0.5, 1.0, 0)

    @pytest.mark.parametrize("n", [2.5, True, math.nan, "2"])
    def test_iterate_number_is_a_count(self, n):
        # read by the field rule of every count: no alpha**1.5 for 2.5,
        # and no bound of iterate 1 for True
        with pytest.raises(ValueError, match=f"^n must be an integer, got {re.escape(repr(n))}$"):
            error_bound(0.5, 1.0, n)

    def test_an_integral_float_iterate_number_reads_as_its_int(self):
        assert error_bound(0.5, 1.0, 3.0) == error_bound(0.5, 1.0, 3) == 0.5

    @pytest.mark.parametrize("ks", [range(1, 201), range(5, 12), range(3, 3)])
    def test_a_range_of_iterates_has_each_iterates_bits(self, ks):
        alpha, d01 = 0.3, 0.7123456789
        bounds = error_bound(alpha, d01, ks)
        assert [b.hex() for b in bounds] == [error_bound(alpha, d01, k).hex() for k in ks]

    def test_a_range_of_iterates_is_checked(self):
        with pytest.raises(ValueError, match="^n must be at least 1, got 0$"):
            error_bound(0.5, 1.0, range(0, 3))
        with pytest.raises(ValueError, match="d01 must be nonnegative"):
            error_bound(0.5, -1.0, range(1, 3))


class TestIteratePair:
    def test_constant_maps(self):
        trace = iterate_pair(real_line_gaps, lambda x: 3.0, lambda x: 3.0, 10.0, bound=real_line)
        assert trace.points[1] == 3.0
        assert trace.points[-1] == 3.0
        assert trace.stop_reason == "gap_tol"
        assert trace.gaps[-1] == 0.0

    def test_halving_maps_geometric(self):
        trace = iterate_pair(real_line_gaps, lambda x: x / 2, lambda x: x / 2, 1.0, bound=real_line)
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
            bound=real_line,
            gap_tol=1e-4,
        )
        assert calls[:4] == ["t1", "t2", "t1", "t2"]
        assert trace.points[1] == 0.25

    def test_matches_brute_force_simulation(self):
        trace = iterate_pair(real_line_gaps, lambda x: x / 4, lambda x: x / 5, 1.0, bound=real_line)
        value = 1.0
        for k in range(1, len(trace.points)):
            value = value / 4 if k % 2 == 1 else value / 5
            assert trace.points[k] == pytest.approx(value, abs=1e-14)
        assert trace.points[-1] == pytest.approx(0.0, abs=1e-12)

    def test_trace_shape_invariants(self):
        trace = iterate_pair(real_line_gaps, lambda x: x / 3, lambda x: x / 2, 8.0, bound=real_line)
        assert len(trace.gaps) == len(trace.points) - 1
        assert all(g2 <= g1 for g1, g2 in zip(trace.gaps, trace.gaps[1:]))

    def test_gap_contraction_with_certified_alpha(self):
        alpha = psi_family.alpha_effective(psi_family.linear(0.0, 1 / 3, 1 / 4))
        trace = iterate_pair(real_line_gaps, lambda x: x / 4, lambda x: x / 5, 1.0, bound=real_line)
        assert trace.points[0] == 1.0
        for g1, g2 in zip(trace.gaps, trace.gaps[1:]):
            assert g2 <= alpha * g1 + 1e-12

    def test_max_iterations_carries_partial_trace(self):
        trace = iterate_pair(
            real_line_gaps,
            lambda x: x * 0.99,
            lambda x: x * 0.99,
            1.0,
            bound=real_line,
            gap_tol=1e-12,
            max_iter=5,
        )
        assert trace.stop_reason == "max_iter"
        assert len(trace.points) == 6

    def test_rejects_an_empty_budget(self):
        with pytest.raises(ValueError, match="max_iter must be at least 1, got 0"):
            iterate_pair(real_line_gaps, lambda x: x / 4, lambda x: x / 5, 1.0, bound=real_line, max_iter=0)

    def test_tolerances_are_keyword_only(self):
        # a call that still passes alpha before u0 fails instead of
        # starting from alpha
        with pytest.raises(TypeError):
            iterate_pair(real_line_gaps, lambda x: x / 4, lambda x: x / 5, 0.5, 1.0, bound=real_line)
        with pytest.raises(TypeError):
            iterate_pair(real_line_gaps, lambda x: x / 4, lambda x: x / 5, 1.0, 1e-3, bound=real_line)

    def test_the_bound_is_required(self):
        with pytest.raises(TypeError, match="bound"):
            iterate_pair(real_line_gaps, lambda x: x / 4, lambda x: x / 5, 1.0)

    def test_order_identity_on_toy(self):
        fwd = iterate_pair(real_line_gaps, lambda x: x / 4, lambda x: x / 5, 1.0, bound=real_line)
        rev = iterate_pair(real_line_gaps, lambda x: x / 5, lambda x: x / 4, 1.0, bound=real_line)
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


BOUNDS = [real_line, always, never, doubled]


class TestBlockedGaps:
    """The engine leaves the gaps of the steps its bound rules out as the
    stop pending and takes a block of them in one call; its trace and its
    errors are those of the one-gap-per-step oracle, whatever the bound."""

    @pytest.mark.parametrize("bound", BOUNDS)
    @pytest.mark.parametrize("t1, t2, u0, gap_tol, max_iter", TOYS)
    def test_toys_match_stepwise(self, t1, t2, u0, gap_tol, max_iter, bound):
        points, gaps, stop = stepwise(real_line, t1, t2, u0, gap_tol=gap_tol, max_iter=max_iter)
        trace = iterate_pair(real_line_gaps, t1, t2, u0, bound=bound, gap_tol=gap_tol, max_iter=max_iter)
        assert trace.points == points
        assert trace.gaps == gaps
        assert trace.stop_reason == stop

    @settings(max_examples=60)
    @given(
        r1=st.floats(min_value=0.01, max_value=1.5),
        r2=st.floats(min_value=0.01, max_value=1.5),
        gap_tol=st.sampled_from([0.0, 1e-15, 1e-12, 1e-6, 0.1]),
        max_iter=st.integers(min_value=1, max_value=120),
        bound=st.sampled_from(BOUNDS),
    )
    def test_geometric_toys_match_stepwise(self, r1, r2, gap_tol, max_iter, bound):
        t1, t2 = (lambda x: r1 * x), (lambda x: r2 * x)
        points, gaps, stop = stepwise(real_line, t1, t2, 1.0, gap_tol=gap_tol, max_iter=max_iter)
        trace = iterate_pair(real_line_gaps, t1, t2, 1.0, bound=bound, gap_tol=gap_tol, max_iter=max_iter)
        assert (trace.points, trace.gaps, trace.stop_reason) == (points, gaps, stop)

    @staticmethod
    def assert_matches_stepwise(path):
        # the solver's own metric and bound; no map runs past the stop
        problem, x0, options = cli.load_problem(path)
        x0 = hpd_core.pd_point(hpd_core.identity(problem.n) if x0 is None else x0)
        calls = []
        t1, t2 = (counted(t, calls) for t in matrix_solver.maps_for(problem))
        kwargs = {"gap_tol": options.gap_tol, "max_iter": options.max_iter}
        points, gaps, stop = stepwise(thompson.distance, t1, t2, x0, **kwargs)
        calls.clear()
        trace = iterate_pair(thompson.gaps, t1, t2, x0, bound=thompson.spectral_distance, **kwargs)
        assert trace.gaps == gaps
        assert trace.stop_reason == stop
        assert len(trace.points) == len(points) == len(calls) + 1
        for ours, theirs in zip(trace.points, points):
            assert np.array_equal(ours.matrix, theirs.matrix)
            assert np.array_equal(ours.dec.eigenvalues, theirs.dec.eigenvalues)

    @pytest.mark.parametrize("name", FIXTURES)
    def test_fixtures_match_stepwise(self, name):
        self.assert_matches_stepwise(fixture_path(name))

    @pytest.mark.parametrize("n", [5, 8, 16])
    def test_known_answer_problems_match_stepwise(self, tmp_path, n):
        for path in known_answer_files(tmp_path, n, 4, 7):
            self.assert_matches_stepwise(path)

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
        trace = iterate_pair(real_line_gaps, counted(t1, calls), counted(t2, calls), u0, bound=real_line)
        assert trace.stop_reason == "gap_tol"
        assert len(calls) == trace.iterations

    @pytest.mark.parametrize("gap_tol, max_iter", [(2.0**-10, 2000), (0.0, 2000), (0.0, 100)])
    def test_one_gaps_call_per_run(self, gap_tol, max_iter):
        # the halving maps' gaps 2**-k exceed gap_tol until the stop (at 0.0,
        # until they underflow to 0 at step 1076), so every gap waits for the
        # stop, or for max_iter, and all are taken in one call
        sizes = []

        def gaps(points):
            sizes.append(len(points) - 1)
            return real_line_gaps(points)

        def halve(x):
            return x / 2

        _, _, stop = stepwise(real_line, halve, halve, 1.0, gap_tol=gap_tol, max_iter=max_iter)
        trace = iterate_pair(gaps, halve, halve, 1.0, bound=real_line, gap_tol=gap_tol, max_iter=max_iter)
        assert trace.stop_reason == stop == ("max_iter" if max_iter == 100 else "gap_tol")
        assert sizes == [trace.iterations]

    @pytest.mark.parametrize("bound", [real_line, never])
    @pytest.mark.parametrize("max_iter", [1, 2, 3, 4, 5, 7, 16, 17, 40, 101])
    def test_max_iter_holds(self, max_iter, bound):
        calls = []
        t1, t2 = counted(climb, calls), counted(lambda x: 1.0 - x, calls)
        trace = iterate_pair(real_line_gaps, t1, t2, 0.0, bound=bound, max_iter=max_iter)
        assert trace.stop_reason == "max_iter"
        assert trace.iterations == len(calls) == max_iter
        assert len(trace.points) == max_iter + 1

    def test_map_error_after_the_stop_is_not_raised(self):
        # climb stops at step 11; under a bound that never decides the maps
        # run on, and raise on step 12, which a stepwise run never makes
        t1, t2, calls = raising_at(12, climb, climb)
        points, gaps, stop = stepwise(real_line, t1, t2, 0.0)
        assert stop == "gap_tol" and len(gaps) == 11
        calls.clear()
        trace = iterate_pair(real_line_gaps, t1, t2, 0.0, bound=never)
        assert len(calls) == 12  # the maps ran past the stop
        assert (trace.points, trace.gaps, trace.stop_reason) == (points, gaps, stop)

    @pytest.mark.parametrize("bound", [real_line, never])
    @pytest.mark.parametrize("step", [1, 2, 4, 7, 10])
    def test_map_error_before_the_stop_is_raised_at_its_step(self, step, bound):
        t1, t2, calls = raising_at(step, climb, climb)
        with pytest.raises(RuntimeError, match=f"map call {step}$"):
            stepwise(real_line, t1, t2, 0.0)
        calls.clear()
        seen = []

        def gaps(points):
            seen.extend(real_line_gaps(points))
            return real_line_gaps(points)

        with pytest.raises(RuntimeError, match=f"map call {step}$"):
            iterate_pair(gaps, t1, t2, 0.0, bound=bound)
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
        trace = iterate_pair(pairs_only, climb, climb, 0.0, bound=never)
        assert (trace.points, trace.gaps, trace.stop_reason) == (points, gaps, stop)
        assert max(sizes) > 2 and sizes.count(2) == trace.iterations

    @pytest.mark.parametrize("bad, raised", [(7, True), (11, True), (12, False), (15, False)])
    def test_gap_error_is_raised_only_before_the_stop(self, bad, raised):
        # points are (step, value) with climb's values, which stop at step
        # 11; under a bound that never decides, all max_iter steps are made
        # before any gap is taken, and the gap of step ``bad`` fails
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
                iterate_pair(gaps, step, step, start, bound=never)
        else:
            expected = stepwise(distance, step, step, start)
            trace = iterate_pair(gaps, step, step, start, bound=never)
            assert (trace.points, trace.gaps, trace.stop_reason) == expected

    @pytest.mark.parametrize("bound", [real_line, never])
    def test_map_error_after_many_pending_steps(self, bound):
        # gaps of 1 never stop the run, so steps 1-39 are pending when the
        # map of step 40 raises: their gaps are taken, then the error raised
        def step_up(x):
            return x + 1.0

        t1, t2, calls = raising_at(40, step_up, step_up)
        taken = []

        def distance(x, y):
            taken.append(real_line(x, y))
            return taken[-1]

        with pytest.raises(RuntimeError, match="map call 40$"):
            stepwise(distance, t1, t2, 0.0)
        expected, taken[:], calls[:] = list(taken), [], []

        def gaps(points):
            return [distance(x, y) for x, y in zip(points, points[1:])]

        with pytest.raises(RuntimeError, match="map call 40$"):
            iterate_pair(gaps, t1, t2, 0.0, bound=bound)
        assert len(calls) == 40
        assert taken == expected == [1.0] * 39

    @pytest.mark.parametrize("bound", [lambda u, v: real_line(u[1], v[1]), never])
    def test_gap_error_after_many_pending_steps(self, bound):
        # points are (step, value), a gap of 1 per step, so no step stops
        # the run and every step up to max_iter is pending when the gaps are
        # taken; the gap of step 40 fails after the 39 before it were read
        def step(u):
            return u[0] + 1, u[1] + 1.0

        def distance(u, v):
            if v[0] == 40:
                raise ArithmeticError("gap 40")
            return real_line(u[1], v[1])

        read = []

        def reading(u, v):
            read.append(distance(u, v))
            return read[-1]

        with pytest.raises(ArithmeticError, match="gap 40"):
            stepwise(reading, step, step, (0, 0.0))
        expected, read[:] = list(read), []

        def gaps(points):
            found = [distance(u, v) for u, v in zip(points, points[1:])]
            read.extend(found)
            return found

        with pytest.raises(ArithmeticError, match="gap 40"):
            iterate_pair(gaps, step, step, (0, 0.0), bound=bound)
        assert read == expected == [1.0] * 39
