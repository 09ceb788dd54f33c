"""Engine tests on scalar toy spaces, where brute-force simulation is the oracle."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tfp import psi_family
from tfp.fixpoint_engine import error_bound, iterate_pair


def real_line(x, y):
    return abs(x - y)


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
        trace = iterate_pair(real_line, lambda x: 3.0, lambda x: 3.0, 10.0)
        assert trace.points[1] == 3.0
        assert trace.points[-1] == 3.0
        assert trace.stop_reason == "gap_tol"
        assert trace.gaps[-1] == 0.0

    def test_halving_maps_geometric(self):
        trace = iterate_pair(real_line, lambda x: x / 2, lambda x: x / 2, 1.0)
        for k, point in enumerate(trace.points):
            assert point == pytest.approx(2.0**-k)
        # a-priori bound: d(u_n, 0) <= 2**-(n-1)
        for n in range(1, len(trace.points)):
            assert abs(trace.points[n]) <= error_bound(0.5, trace.gaps[0], n) + 1e-15
            assert error_bound(0.5, trace.gaps[0], n) == pytest.approx(2.0 ** -(n - 1))

    def test_alternation_order(self):
        calls = []
        trace = iterate_pair(
            real_line,
            lambda x: calls.append("t1") or x / 4,
            lambda x: calls.append("t2") or x / 5,
            1.0,
            gap_tol=1e-4,
        )
        assert calls[:4] == ["t1", "t2", "t1", "t2"]
        assert trace.points[1] == 0.25

    def test_matches_brute_force_simulation(self):
        trace = iterate_pair(real_line, lambda x: x / 4, lambda x: x / 5, 1.0)
        value = 1.0
        for k in range(1, len(trace.points)):
            value = value / 4 if k % 2 == 1 else value / 5
            assert trace.points[k] == pytest.approx(value, abs=1e-14)
        assert trace.points[-1] == pytest.approx(0.0, abs=1e-12)

    def test_trace_shape_invariants(self):
        trace = iterate_pair(real_line, lambda x: x / 3, lambda x: x / 2, 8.0)
        assert len(trace.gaps) == len(trace.points) - 1
        assert all(g2 <= g1 for g1, g2 in zip(trace.gaps, trace.gaps[1:]))

    def test_gap_contraction_with_certified_alpha(self):
        alpha = psi_family.alpha_effective(psi_family.linear(0.0, 1 / 3, 1 / 4))
        trace = iterate_pair(real_line, lambda x: x / 4, lambda x: x / 5, 1.0)
        assert trace.points[0] == 1.0
        for g1, g2 in zip(trace.gaps, trace.gaps[1:]):
            assert g2 <= alpha * g1 + 1e-12

    def test_max_iterations_carries_partial_trace(self):
        trace = iterate_pair(
            real_line,
            lambda x: x * 0.99,
            lambda x: x * 0.99,
            1.0,
            gap_tol=1e-12,
            max_iter=5,
        )
        assert trace.stop_reason == "max_iter"
        assert len(trace.points) == 6

    def test_tolerances_are_keyword_only(self):
        # a call that still passes alpha before u0 fails instead of
        # starting from alpha
        with pytest.raises(TypeError):
            iterate_pair(real_line, lambda x: x / 4, lambda x: x / 5, 0.5, 1.0)
        with pytest.raises(TypeError):
            iterate_pair(real_line, lambda x: x / 4, lambda x: x / 5, 1.0, 1e-3)

    def test_order_identity_on_toy(self):
        fwd = iterate_pair(real_line, lambda x: x / 4, lambda x: x / 5, 1.0)
        rev = iterate_pair(real_line, lambda x: x / 5, lambda x: x / 4, 1.0)
        assert abs(fwd.points[-1] - rev.points[-1]) <= 1e-9
