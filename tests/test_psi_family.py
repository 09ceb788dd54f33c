"""Control-function family tests.

The certified constant of the linear kind is cross-checked by brute-force
grid search: maximize b/a over all grid pairs where some hypothesis branch
holds.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tfp import psi_family
from tfp.errors import NotInPsiAlpha


def brute_force_alpha(spec, grid=120):
    """Independent oracle: sup of b/a for (a, b) in (0, 10]^2 where a
    hypothesis branch of the implication holds."""
    values = np.linspace(1e-3, 10.0, grid)
    worst = 0.0
    for a in values:
        for b in values:
            if (
                b <= psi_family.evaluate(spec, a, a, b)
                or b <= psi_family.evaluate(spec, b, a, a)
                or b <= psi_family.evaluate(spec, a, b, a)
            ):
                worst = max(worst, b / a)
    return worst


class TestEvaluate:
    def test_scaled_first(self):
        spec = psi_family.scaled_first(0.5)
        assert psi_family.evaluate(spec, 2, 7, 9) == pytest.approx(1.0)

    def test_linear(self):
        spec = psi_family.linear(0.0, 1 / 3, 1 / 4)
        assert psi_family.evaluate(spec, 5, 3, 4) == pytest.approx(2.0)

    def test_scaled_max(self):
        spec = psi_family.scaled_max(0.9)
        assert psi_family.evaluate(spec, 1, 2, 3) == pytest.approx(2.7)

    def test_rejects_negative_arguments(self):
        with pytest.raises(ValueError):
            psi_family.evaluate(psi_family.scaled_first(0.5), -1, 0, 0)

    def test_monotone_in_each_argument(self):
        specs = [
            psi_family.scaled_first(0.7),
            psi_family.linear(0.2, 0.3, 0.3),
            psi_family.scaled_max(0.8),
        ]
        grid = np.geomspace(1e-3, 1e2, 8)
        for spec in specs:
            for a in grid:
                for b in grid:
                    for c in grid:
                        base = psi_family.evaluate(spec, a, b, c)
                        assert psi_family.evaluate(spec, a * 1.5, b, c) >= base
                        assert psi_family.evaluate(spec, a, b * 1.5, c) >= base
                        assert psi_family.evaluate(spec, a, b, c * 1.5) >= base


class TestAlphaEffective:
    def test_linear_branch_maximum(self):
        # derived by solving each hypothesis branch for b/a:
        # max{(m+n)/(1-o), (n+o)/(1-m), (m+o)/(1-n)} = 0.75
        spec = psi_family.linear(0.2, 0.3, 0.3)
        assert psi_family.alpha_effective(spec) == pytest.approx(0.75, abs=1e-12)

    def test_linear_matches_brute_force(self):
        for weights in [(0.2, 0.3, 0.3), (0.0, 1 / 3, 1 / 4), (0.1, 0.1, 0.7)]:
            spec = psi_family.linear(*weights)
            certified = psi_family.alpha_effective(spec)
            observed = brute_force_alpha(spec)
            assert observed <= certified + 1e-9
            assert observed == pytest.approx(certified, abs=0.02)

    def test_scaled_first_passthrough(self):
        assert psi_family.alpha_effective(psi_family.scaled_first(0.4)) == 0.4

    def test_invariant_gate_on_construction(self):
        with pytest.raises(NotInPsiAlpha):
            psi_family.linear(0.5, 0.4, 0.3)

    def test_hand_built_constant_at_one(self):
        spec = psi_family.PsiSpec("scaled_first", (1.0,))
        with pytest.raises(NotInPsiAlpha):
            psi_family.alpha_effective(spec)


class TestMembership:
    def test_builtins_pass(self):
        assert psi_family.validate_membership(psi_family.scaled_first(0.5))
        assert psi_family.validate_membership(psi_family.scaled_max(0.99))
        assert psi_family.validate_membership(psi_family.linear(0.2, 0.3, 0.3))

    def test_hand_built_outside_class_fails(self):
        spec = psi_family.PsiSpec("scaled_first", (1.0,))
        assert not psi_family.validate_membership(spec)
        assert psi_family.membership_counterexamples(spec)

    def test_grid_size_validated(self):
        with pytest.raises(ValueError):
            psi_family.validate_membership(psi_family.scaled_first(0.5), grid_size=1)

    @settings(max_examples=25)
    @given(alpha=st.floats(min_value=0.0, max_value=0.999))
    def test_scaled_kinds_members_for_any_alpha(self, alpha):
        assert psi_family.validate_membership(psi_family.scaled_first(alpha), grid_size=16)
        assert psi_family.validate_membership(psi_family.scaled_max(alpha), grid_size=16)

    @settings(max_examples=25)
    @given(
        m=st.floats(min_value=0.0, max_value=0.9),
        n=st.floats(min_value=0.0, max_value=0.9),
        o=st.floats(min_value=0.0, max_value=0.9),
    )
    def test_linear_members_when_weights_admit(self, m, n, o):
        if m + n + o >= 0.999:
            return
        spec = psi_family.linear(m, n, o)
        try:
            psi_family.alpha_effective(spec)
        except NotInPsiAlpha:
            return
        assert psi_family.validate_membership(spec, grid_size=16)
