"""Solver tests.

Closed-form oracles: the all-constant problem collapses to one map
application; the linear-in-X problem X**2 = 3I + X has the scalar solution
(1 + sqrt(13))/2 * I; the orthogonal-coefficient type2 pair is solved
exactly by the identity.
"""

import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import apply_F, random_nonsingular, random_pd, random_pd_in_ball, random_unitary
from tfp import cli, hpd_core, matrix_solver, thompson
from tfp.errors import (
    ConditionsNotVerified,
    DimensionMismatch,
    MaxIterationsExceeded,
    NonHermitianInput,
    NotPositiveDefinite,
    ResidualToleranceExceeded,
    TfpError,
    X0DomainError,
)
from tfp.fixpoint_engine import error_bound
from tfp.fixtures import fixture_path

GOLDEN_QUADRATIC = (1 + math.sqrt(13)) / 2  # root of x**2 = 3 + x


def load(name):
    return cli.load_problem(fixture_path(name))


def fewer_samples(options, samples=60):
    return dataclasses.replace(options, samples=samples)


# (r, s, l) with 3l < rs/(r+s) in floating point, yet 3l(1/r + 1/s) == 1.0
ALPHA_ROUNDS_TO_ONE = (2.957228580204214, 4.804828014488629, 0.610189432575844)


@st.composite
def type2_exponents_at_the_bound(draw):
    """(r, s, l) with r, s in (1, 8] and l within 4 ulps of rs/(3(r+s)),
    where alpha = 3l(1/r + 1/s) is 1 up to rounding."""
    r = draw(st.floats(1.0, 8.0, exclude_min=True))
    s = draw(st.floats(1.0, 8.0, exclude_min=True))
    bound = r * s / (3.0 * (r + s))
    return r, s, bound + draw(st.integers(-4, 4)) * math.ulp(bound)


class TestMatrixFunctionSpec:
    def test_power_identity_map(self):
        x = random_pd(np.random.default_rng(0), 3)
        np.testing.assert_allclose(apply_F(matrix_solver.power(1), x), x, atol=1e-12)

    def test_power_sqrt(self):
        out = apply_F(matrix_solver.power(0.5), np.diag([4.0, 9.0]))
        np.testing.assert_allclose(out, np.diag([2.0, 3.0]), atol=1e-13)

    def test_constant_map(self):
        spec = matrix_solver.constant(np.eye(2))
        x = random_pd(np.random.default_rng(1), 2)
        np.testing.assert_allclose(apply_F(spec, x), np.eye(2))

    def test_power_exponent_range(self):
        with pytest.raises(ValueError):
            matrix_solver.power(0.0)
        with pytest.raises(ValueError):
            matrix_solver.power(1.5)
        matrix_solver.power(-1.0)

    @pytest.mark.parametrize("exponent", ["0.5", True])
    def test_power_exponent_is_a_finite_number(self, exponent):
        # as a problem file's exponent is: not read through float()
        with pytest.raises(ValueError, match=f"^exponent must be a finite number, got {re.escape(repr(exponent))}$"):
            matrix_solver.power(exponent)

    def test_constant_requires_pd(self):
        with pytest.raises(NotPositiveDefinite):
            matrix_solver.constant(np.diag([1.0, -1.0]))

    def test_constant_rejects_an_empty_matrix(self):
        message = "constant function value has shape (0, 0), expected (n, n) with n >= 1"
        with pytest.raises(DimensionMismatch, match=re.escape(message)):
            matrix_solver.constant(np.zeros((0, 0)))


class TestProblemValidation:
    def test_type1_rejects_singular_coefficient(self):
        with pytest.raises(ValueError, match="singular"):
            matrix_solver.problem_type1(
                n=2,
                A=[np.diag([1.0, 0.0])],
                Q1=np.eye(2),
                Q2=np.eye(2),
                s=2,
                F=matrix_solver.power(0.5),
                G=matrix_solver.power(0.5),
                a=1,
                l=0.5,
            )

    def test_type1_rejects_large_l(self):
        with pytest.raises(ValueError, match="l < s"):
            matrix_solver.problem_type1(
                n=2, A=[np.eye(2)], Q1=np.eye(2), Q2=np.eye(2), s=2,
                F=matrix_solver.power(0.5), G=matrix_solver.power(0.5), a=1, l=2.5,
            )

    def test_type2_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            matrix_solver.problem_type2(
                n=2, A=[0.5 * np.eye(2)], r=2, s=3,
                F=matrix_solver.power(0.5), G=matrix_solver.power(0.5), a=1, l=0.1,
            )

    def test_type1_rejects_no_coefficient(self):
        with pytest.raises(ValueError, match="at least one coefficient matrix is required"):
            matrix_solver.problem_type1(
                n=2, A=[], Q1=np.eye(2), Q2=np.eye(2), s=2,
                F=matrix_solver.power(0.5), G=matrix_solver.power(0.5), a=1, l=0.5,
            )

    def test_type1_rejects_dimension_zero(self):
        # n is a count, read by the rule a file's key 'n' obeys
        empty = np.zeros((0, 0))
        with pytest.raises(ValueError, match=re.escape("n must be at least 1, got 0")):
            matrix_solver.problem_type1(
                n=0, A=[empty], Q1=empty, Q2=empty, s=2,
                F=matrix_solver.power(0.5), G=matrix_solver.power(0.5), a=1, l=0.5,
            )

    @pytest.mark.parametrize(
        "build", [matrix_solver.problem_type1, matrix_solver.problem_type2], ids=["type1", "type2"]
    )
    def test_an_integral_float_n_is_stored_as_an_int(self, build):
        # 2.0 is a count, as a problem file's "n": 2.0 is
        args = dict(n=2.0, A=[np.eye(2)], s=3, F=matrix_solver.power(0.5), G=matrix_solver.power(0.5), a=1, l=0.1)
        args.update(dict(Q1=np.eye(2), Q2=np.eye(2)) if build is matrix_solver.problem_type1 else dict(r=2))
        n = build(**args).n
        assert type(n) is int and n == 2

    def test_type2_rejects_an_exponent_not_above_one(self):
        # alpha = 3l(1/r + 1/s) = 0.045 < 1: only the exponent check rejects it
        with pytest.raises(ValueError, match="r and s must exceed 1, got r=1.0, s=2.0"):
            matrix_solver.problem_type2(
                n=2, A=[np.eye(2)], r=1, s=2,
                F=matrix_solver.power(0.5), G=matrix_solver.power(0.5), a=1, l=0.01,
            )

    def test_type2_rejects_large_l(self):
        # 3l < rs/(r+s) = 1.2 requires l < 0.4
        with pytest.raises(ValueError, match="3l"):
            matrix_solver.problem_type2(
                n=2, A=[np.eye(2)], r=2, s=3,
                F=matrix_solver.power(0.5), G=matrix_solver.power(0.5), a=1, l=0.4,
            )

    @pytest.mark.parametrize(
        "build, key, name",
        [
            (matrix_solver.problem_type1, "Q1", "Q1"),
            (matrix_solver.problem_type1, "Q2", "Q2"),
            (matrix_solver.problem_type1, "F", "F value"),
            (matrix_solver.problem_type2, "G", "G value"),
        ],
        ids=["type1-Q1", "type1-Q2", "type1-F", "type2-G"],
    )
    def test_rejects_a_matrix_of_the_wrong_size(self, build, key, name):
        args = dict(n=2, A=[np.eye(2)], s=3, F=matrix_solver.power(0.5), G=matrix_solver.power(0.5), a=1, l=0.1)
        args.update(dict(Q1=np.eye(2), Q2=np.eye(2)) if build is matrix_solver.problem_type1 else dict(r=2))
        args[key] = matrix_solver.constant(np.eye(3)) if key in ("F", "G") else np.eye(3)
        with pytest.raises(DimensionMismatch, match=re.escape(f"{name} has shape (3, 3), expected (2, 2)")):
            build(**args)

    @pytest.mark.parametrize(
        "build", [matrix_solver.problem_type1, matrix_solver.problem_type2], ids=["type1", "type2"]
    )
    @pytest.mark.parametrize("a", [math.nan, math.inf])
    def test_rejects_a_non_finite_ball_radius(self, build, a):
        args = dict(n=2, A=[np.eye(2)], s=3, F=matrix_solver.power(0.5), G=matrix_solver.power(0.5), a=a, l=0.1)
        args.update(dict(Q1=np.eye(2), Q2=np.eye(2)) if build is matrix_solver.problem_type1 else dict(r=2))
        with pytest.raises(ValueError, match=re.escape(f"a must be a finite number, got {a}")):
            build(**args)

    @settings(max_examples=300)
    @given(type2_exponents_at_the_bound())
    @example(ALPHA_ROUNDS_TO_ONE)
    def test_type2_accepts_only_a_computed_alpha_below_one(self, exponents):
        r, s, l = exponents
        try:
            problem = matrix_solver.problem_type2(
                n=2, A=[np.eye(2)], r=r, s=s, F=matrix_solver.power(0.5), G=matrix_solver.power(0.5), a=1, l=l
            )
        except ValueError as exc:
            assert str(exc) == f"contraction exponent must satisfy 0 < 3l < rs/(r+s), got l={l}, r={r}, s={s}"
            return
        alpha = matrix_solver.alpha_for(problem)
        assert alpha < 1.0
        assert error_bound(alpha, 1.0, 2) >= 0.0

    def test_alpha_formulas(self):
        problem1, _, _ = load("example_4_1.json")
        assert matrix_solver.alpha_for(problem1) == pytest.approx(1.0 / 2.0)
        problem2, _, _ = load("example_4_2.json")
        assert matrix_solver.alpha_for(problem2) == pytest.approx(3 * 0.3 * (1 / 2 + 1 / 3))

    def test_ball_radius_readings(self):
        problem1, _, _ = load("example_4_1.json")
        assert matrix_solver.ball_radius(problem1) == 10.0
        problem2, _, _ = load("example_4_2.json")
        assert matrix_solver.ball_radius(problem2) == 4.0


class TestMaps:
    def test_type1_constant_map_is_constant(self):
        problem, _, _ = load("check_pass_constant.json")
        t1, _ = matrix_solver.maps_for(problem)
        rng = np.random.default_rng(2)
        out1 = t1(random_pd(rng, 2))
        out2 = t1(random_pd(rng, 2))
        np.testing.assert_allclose(out1, out2, atol=1e-14)
        np.testing.assert_allclose(out1, math.sqrt(2) * np.eye(2), atol=1e-12)

    def test_type1_first_iterate_oracle(self):
        # independent oracle via numpy: T1(I) = (Q1 + A* A) ** (1/2)
        problem, _, _ = load("example_4_1.json")
        t1, _ = matrix_solver.maps_for(problem)
        got = t1(np.eye(3))
        a1 = problem.A[0]
        rhs = problem.Q1 + a1.conj().T @ a1
        lam, vec = np.linalg.eigh(rhs)
        expected = (vec * np.sqrt(lam)) @ vec.conj().T
        np.testing.assert_allclose(got, expected, atol=1e-10)

    def test_type2_identity_fixed_point(self):
        problem, _, _ = load("example_4_2.json")
        t1, t2 = matrix_solver.maps_for(problem)
        np.testing.assert_allclose(t1(np.eye(3)), np.eye(3), atol=1e-12)
        np.testing.assert_allclose(t2(np.eye(3)), np.eye(3), atol=1e-12)

    def test_type2_unitary_power_one(self):
        u = random_unitary(3, 9)
        t = matrix_solver.build_map(None, [u], matrix_solver.power(1), 2.0)
        np.testing.assert_allclose(t(np.eye(3)), np.eye(3), atol=1e-12)

    def test_type2_two_terms_constant(self):
        t = matrix_solver.build_map(
            None, [np.eye(2), np.eye(2)], matrix_solver.constant(np.eye(2)), 3.0
        )
        np.testing.assert_allclose(t(np.eye(2)), 2 ** (1 / 3) * np.eye(2), atol=1e-12)


class TestRightHandSide:
    """``_rhs`` from F's decomposition against the matrix it stands for."""

    EPS = np.finfo(np.float64).eps

    @settings(max_examples=60)
    @given(
        n=st.integers(min_value=1, max_value=8),
        m=st.integers(min_value=1, max_value=3),
        count=st.integers(min_value=1, max_value=4),
        with_q=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_equals_the_sum_of_congruences(self, n, m, count, with_q, seed):
        # Each of the three products of length-n sums behind a term, in
        # either order of evaluation, is off by at most n * eps times the
        # product of its operands' Frobenius norms; with V unitary those
        # come to sqrt(n) * ||A_i||_F^2 * max(mu) per product, so a term is
        # off by at most 3 * n**1.5 * eps * ||A_i||_F^2 * max(mu) each way,
        # and the sums and the halving add eps * ||RHS||_F: 8 * n**1.5 * eps
        # times the scale below bounds the difference.
        rng = np.random.default_rng(seed)
        x = random_pd_in_ball(n, 2.0, rng, shape=(count,))
        a_list = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in range(m)]
        q = random_pd_in_ball(n, 2.0, rng).matrix if with_q else None
        mu, vectors = x.dec
        got = matrix_solver._rhs(q, matrix_solver._factors(a_list), mu, vectors)

        f = (vectors * mu[..., None, :]) @ vectors.conj().swapaxes(-1, -2)
        want = sum(a.conj().T @ f @ a for a in a_list) + (0 if q is None else q)
        scale = sum(hpd_core.frobenius_norm(a) ** 2 for a in a_list) * mu.max(axis=-1)
        scale = scale + (0.0 if q is None else hpd_core.frobenius_norm(q))
        assert np.all(hpd_core.frobenius_norm(got - want) <= 8 * n**1.5 * self.EPS * scale)
        assert np.array_equal(got, got.conj().swapaxes(-1, -2))
        for i in range(count):
            alone = matrix_solver._rhs(q, matrix_solver._factors(a_list), mu[i], vectors[i])
            assert alone.tobytes() == got[i].tobytes()


class TestResiduals:
    def test_type2_identity_solution(self):
        problem, _, _ = load("example_4_2.json")
        r1, r2 = matrix_solver.residuals(problem, np.eye(3))
        assert r1 <= 1e-12 and r2 <= 1e-12

    def test_constant_problem_closed_form(self):
        problem, _, _ = load("check_pass_constant.json")
        r1, r2 = matrix_solver.residuals(problem, math.sqrt(2) * np.eye(2))
        assert r1 <= 1e-12 and r2 <= 1e-12

    def test_quadratic_closed_form(self):
        problem, _, _ = load("quadratic_pass.json")
        r1, r2 = matrix_solver.residuals(problem, GOLDEN_QUADRATIC * np.eye(2))
        assert r1 <= 1e-10 and r2 <= 1e-10

    def test_overflowing_power_is_a_named_error(self):
        # X**2 overflows at X = 1e200 I; the residuals would be inf - inf
        eye = np.eye(2)
        problem = matrix_solver.problem_type1(
            n=2, A=[eye], Q1=eye, Q2=eye, s=2,
            F=matrix_solver.power(1), G=matrix_solver.power(1), a=1, l=1,
        )
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TfpError, match=r"candidate solution \*\* 2 contains non-finite"):
                matrix_solver.residuals(problem, 1e200 * eye)


    def test_rejects_a_stack_of_matrices_and_a_wrong_size(self):
        problem, _, _ = load("quadratic_pass.json")
        eye = np.eye(2)
        for x, shape in ((np.stack([eye, 2 * eye]), "(2, 2, 2)"), (np.eye(3), "(3, 3)")):
            message = f"candidate solution has shape {shape}, expected (2, 2)"
            with pytest.raises(DimensionMismatch, match=re.escape(message)):
                matrix_solver.residuals(problem, x)


class TestEigensolveBudget:
    """Every eigensolve is a call to ``hpd_core.eig_hermitian``; ``eig_calls``
    lists (argument, whether eigenvectors were asked for), one matrix or
    one stack per call."""

    @pytest.fixture
    def eig_calls(self, monkeypatch):
        calls = []
        eig = hpd_core.eig_hermitian

        def counting(m, *args, **kwargs):
            calls.append((m, kwargs.get("vectors", True)))
            return eig(m, *args, **kwargs)

        monkeypatch.setattr(hpd_core, "eig_hermitian", counting)
        monkeypatch.setattr(matrix_solver, "eig_hermitian", counting)
        return calls

    @pytest.mark.parametrize("name", ["example_4_1.json", "example_4_2.json"])
    def test_maps_build_without_eigensolves_and_residuals_decompose_a_matrix_once(self, eig_calls, name):
        # every term of both residuals reads X's spectrum
        problem, _, _ = load(name)
        x = random_pd_in_ball(problem.n, 0.5, 4)
        eig_calls.clear()  # problem validation decomposes Q1, Q2 and A* A
        matrix_solver.maps_for(problem)
        assert len(eig_calls) == 0
        matrix_solver.residuals(problem, x.matrix)
        assert len(eig_calls) == 1
        matrix_solver.residuals(problem, x)
        assert len(eig_calls) == 1

    @pytest.mark.parametrize("name, max_iter", [("example_4_1.json", 20), ("example_4_2.json", 200)])
    def test_two_eigensolves_per_iteration(self, eig_calls, name, max_iter):
        # matrices decomposed: one for the map's root and one for the gap
        # per iteration, plus x0 and the certificate of the solution; the
        # gaps of a block of steps are decomposed in one stacked call
        problem, x0, options = load(name)
        options = dataclasses.replace(options, force=True, max_iter=max_iter)
        eig_calls.clear()
        try:
            result = matrix_solver.solve(problem, x0=x0, options=options)
        except MaxIterationsExceeded as exc:
            result = exc.result
        iterations = result.trace.iterations
        assert iterations > 1
        sizes = [math.prod(np.shape(m)[:-2]) for m, _ in eig_calls]
        # the identity start is known without an eigensolve
        start = 0 if x0 is None else 1
        assert sum(sizes) == 2 * iterations + 1 + start
        # eigenvectors for the map's root only, and for x0 and the certificate
        assert sum(size for size, (_, vectors) in zip(sizes, eig_calls) if vectors) == iterations + 1 + start
        if name == "example_4_1.json":
            assert len(eig_calls) < 2 * iterations + 2

    def test_trace_rows_decompose_nothing(self, eig_calls):
        problem, x0, options = load("example_4_2.json")
        result = matrix_solver.solve(problem, x0=x0, options=options)
        before = len(eig_calls)
        rows = cli.trace_rows(problem, result.trace)
        assert len(rows) == result.trace.iterations
        assert len(eig_calls) == before

    @pytest.mark.parametrize("kind, per_sample", [("type1", 4), ("type1-identities", 3), ("type2", 1)])
    def test_condition_sample_costs(self, eig_calls, kind, per_sample):
        # matrices decomposed, in stacks: type1: d(F(X), G(Y)), d(X, Y) and
        # the roots of T1(X) and T2(X), where d(F(X), G(Y)) is d(X, Y) when
        # F and G are both X -> X**1 (quadratic_pass's); type2: d(X, Y),
        # with F(X) and G(X) read from X's spectrum
        if kind == "type1-identities":
            problem = load("quadratic_pass.json")[0]
        elif kind == "type1":
            problem = dataclasses.replace(load("quadratic_pass.json")[0], G=matrix_solver.power(0.5))
        else:
            problem = matrix_solver.problem_type2(
                n=3, A=[random_unitary(3, 5)], r=2, s=3,
                F=matrix_solver.power(0.5), G=matrix_solver.power(-0.25), a=0.5, l=0.3,
            )
        counts = []
        for samples in (15, 30):
            eig_calls.clear()
            matrix_solver.check_conditions(problem, samples=samples, seed=8)
            counts.append(sum(math.prod(np.shape(m)[:-2]) for m, _ in eig_calls))
            assert not any(vectors for _, vectors in eig_calls)
        assert counts[1] - counts[0] == per_sample * 15

    def test_gram_check_computes_no_eigenvectors(self, eig_calls):
        # one Gram matrix A_i* A_i per coefficient, eigenvalues only; Q1 and
        # Q2 become points, with eigenvectors
        rng = np.random.default_rng(12)
        matrix_solver.problem_type1(
            n=3, A=[random_nonsingular(rng, 3) for _ in range(2)], Q1=random_pd(rng, 3), Q2=random_pd(rng, 3),
            s=2, F=matrix_solver.power(0.5), G=matrix_solver.power(0.5), a=1, l=1,
        )
        assert [vectors for _, vectors in eig_calls] == [False, False, True, True]


class TestValidationBudget:
    """Matrices are checked against the Hermitian tolerance where they come
    in, not again inside the iteration or the sampling loop."""

    @pytest.fixture
    def hermitian_checks(self, monkeypatch):
        calls = []
        check = hpd_core.require_hermitian

        def counting(m, name="matrix", n=None):
            calls.append(name)
            return check(m, name, n)

        monkeypatch.setattr(hpd_core, "require_hermitian", counting)
        return calls

    def test_forced_solve_checks_do_not_grow_with_iterations(self, hermitian_checks):
        problem, x0, options = load("example_4_1.json")
        counts = []
        for max_iter in (10, 20):
            hermitian_checks.clear()
            with pytest.raises(MaxIterationsExceeded):
                matrix_solver.solve(problem, x0=x0, options=dataclasses.replace(options, force=True, max_iter=max_iter))
            counts.append(len(hermitian_checks))
        assert counts[0] == counts[1]

    def test_condition_check_checks_do_not_grow_with_samples(self, hermitian_checks):
        problem = load("quadratic_pass.json")[0]
        counts = []
        for samples in (15, 30):
            hermitian_checks.clear()
            matrix_solver.check_conditions(problem, samples=samples, seed=8)
            counts.append(len(hermitian_checks))
        assert counts[0] == counts[1]

    def test_certificate_does_not_check_the_solution_again(self, hermitian_checks):
        # the map's root made the returned matrix exactly Hermitian, so
        # only the start, which comes in from outside (a file x0), is checked
        problem, x0, options = load("example_4_2.json")
        assert x0 is not None
        hermitian_checks.clear()
        matrix_solver.solve(problem, x0=x0, options=dataclasses.replace(options, force=True))
        assert hermitian_checks == ["starting point"]

    def test_identity_start_is_neither_checked_nor_decomposed(self, hermitian_checks, monkeypatch):
        problem, x0, options = load("quadratic_pass.json")
        assert x0 is None
        eig_calls = []
        eig = hpd_core.eig_hermitian

        def counting(m, *args, **kwargs):
            eig_calls.append(m)
            return eig(m, *args, **kwargs)

        class Started(Exception):
            pass

        def started(gaps, t1, t2, u0, **kwargs):
            raise Started(u0)

        monkeypatch.setattr(hpd_core, "eig_hermitian", counting)
        monkeypatch.setattr(matrix_solver, "iterate_pair", started)
        hermitian_checks.clear()
        with pytest.raises(Started) as info:
            matrix_solver.solve(problem, options=dataclasses.replace(options, force=True))
        assert hermitian_checks == [] and eig_calls == []
        start = info.value.args[0]
        np.testing.assert_array_equal(start.matrix, np.eye(problem.n))
        np.testing.assert_array_equal(start.dec.eigenvalues, np.ones(problem.n))

    def test_overflowing_right_hand_side_is_a_named_error(self):
        # Q1 + A* F(X) A overflows to inf; eigh alone would return NaN
        # eigenvalues for it without an error
        big = 1e308 * np.eye(2)
        problem = matrix_solver.problem_type1(
            n=2, A=[2 * np.eye(2)], Q1=big, Q2=big, s=2,
            F=matrix_solver.power(1), G=matrix_solver.power(1), a=1, l=1,
        )
        np.testing.assert_array_equal(problem.Q1.dec.eigenvalues, [1e308, 1e308])
        t1, _ = matrix_solver.maps_for(problem)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(TfpError, match="non-finite"):
            t1(hpd_core.pd_point(big))


class TestWitnessBudget:
    """A condition's witness, with X and Y as matrix literals, is built when
    a sample becomes its worst, not for every sample."""

    @pytest.fixture
    def literal_builds(self, monkeypatch):
        calls = []
        build = matrix_solver.matrix_to_literal

        def counting(m):
            calls.append(m)
            return build(m)

        monkeypatch.setattr(matrix_solver, "matrix_to_literal", counting)
        return calls

    @pytest.mark.parametrize("name", ["check_fail_power.json", "example_4_1.json", "example_4_2.json"])
    def test_literals_built_for_new_worst_samples_only(self, literal_builds, name):
        problem, _, options = load(name)
        report = matrix_solver.check_conditions(problem, samples=200, seed=options.seed)
        assert all(stat.worst is not None for stat in report.conditions.values())
        assert len(literal_builds) <= 50


class TestConditionChecker:
    def test_constant_fixture_passes_all(self):
        problem, _, _ = load("check_pass_constant.json")
        report = matrix_solver.check_conditions(problem, samples=80, seed=3)
        assert report.passed
        assert set(report.conditions) == {"A", "B", "C"}

    def test_failing_fixture_b_with_genuine_witness(self):
        problem, _, _ = load("check_fail_power.json")
        report = matrix_solver.check_conditions(problem, samples=80, seed=5)
        assert not report.passed
        assert not report.conditions["B"].passed
        assert report.conditions["A"].passed and report.conditions["C"].passed
        worst = report.conditions["B"].worst
        x = hpd_core.matrix_from_literal(worst["X"])
        y = hpd_core.matrix_from_literal(worst["Y"])
        lhs = thompson.distance(
            apply_F(problem.F, x), apply_F(problem.G, y)
        )
        rhs = problem.l * thompson.distance(x, y)
        assert lhs > rhs
        assert lhs == pytest.approx(worst["lhs"], rel=1e-9)
        assert rhs == pytest.approx(worst["rhs"], rel=1e-9)

    def test_quadratic_fixture_passes_all(self):
        problem, _, _ = load("quadratic_pass.json")
        report = matrix_solver.check_conditions(problem, samples=80, seed=9)
        assert report.passed

    @pytest.mark.parametrize("name, kind", [("check_pass_constant.json", "type1"), ("example_4_2.json", "type2")])
    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("samples", 0, "samples must be at least 1, got 0"),
            ("samples", 2.5, "samples must be an integer, got 2.5"),
            ("samples", True, "samples must be an integer, got True"),
            ("seed", -1, "seed must be at least 0, got -1"),
            ("seed", 1.5, "seed must be an integer, got 1.5"),
        ],
    )
    def test_fewer_than_one_sample_rejected(self, monkeypatch, name, kind, field, value, message):
        # a sample count or seed is refused by its field rule before any
        # draw, not by numpy's SeedSequence or as one sample for True
        problem, _, _ = load(name)
        assert problem.kind == kind
        monkeypatch.setattr(matrix_solver, "sample_ball_pairs", lambda *args: pytest.fail("drew"))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            matrix_solver.check_conditions(problem, **{field: value})

    @pytest.mark.parametrize(
        "a, cause",
        [
            # two samples of the radius-400 ball are up to e^800 apart
            (400, "Thompson ratio pencil contains non-finite entries"),
            (1000, "ball of radius 1000 is too wide to sample: exp(1000) overflows"),
        ],
    )
    def test_breakdown_is_conditions_not_verified_with_its_cause(self, a, cause):
        problem, x0, options = load("quadratic_pass.json")
        problem = dataclasses.replace(problem, a=a)
        # the named error reports the overflow, with no numpy warning
        with pytest.raises(ConditionsNotVerified) as excinfo:
            matrix_solver.check_conditions(problem, options.samples, options.seed)
        assert str(excinfo.value) == f"condition check broke down: {cause}"
        assert excinfo.value.report is None
        assert type(excinfo.value.__cause__) is NonHermitianInput
        assert str(excinfo.value.__cause__) == cause
        with pytest.raises(ConditionsNotVerified) as solved:
            matrix_solver.solve(problem, x0=x0, options=options)
        assert str(solved.value) == str(excinfo.value)
        assert solved.value.report is None

    def test_type1_report_deterministic(self):
        problem, _, _ = load("example_4_1.json")
        r1 = matrix_solver.check_conditions(problem, samples=40, seed=7)
        r2 = matrix_solver.check_conditions(problem, samples=40, seed=7)
        assert r1.to_jsonable() == r2.to_jsonable()

    def test_recorded_outcome_first_example(self):
        # regression fixture: with the shipped seed, (A) has violations while
        # the sampled (B) and (C) hold
        problem, _, options = load("example_4_1.json")
        report = matrix_solver.check_conditions(problem, samples=60, seed=options.seed)
        assert not report.conditions["A"].passed
        assert report.conditions["B"].passed
        assert report.conditions["C"].passed

    def test_type2_a_violation_constant_too_large(self):
        # with a = 0.5, exp(r*a) = e and a constant function at 4I the bound
        # lambda_max(F(X)) <= exp(r*a)/m fails on every sample
        problem = matrix_solver.problem_type2(
            n=2, A=[np.eye(2)], r=2, s=3,
            F=matrix_solver.constant(4 * np.eye(2)),
            G=matrix_solver.constant(4 * np.eye(2)),
            a=0.5, l=0.3,
        )
        report = matrix_solver.check_conditions(problem, samples=40, seed=1)
        assert not report.conditions["A"].passed
        assert report.conditions["A"].failures == 40
        worst = report.conditions["A"].worst
        assert worst["lhs"] == pytest.approx(4.0)
        assert worst["rhs"] == pytest.approx(math.exp(1.0))

    def test_type2_inverse_bound_rejects_small_constants(self):
        # a constant small enough for the forward (B) bounds still breaks the
        # inverse bound lambda_max(F(X)**-1) <= m * w(Y/X)**l near w = 1, so
        # no constant-function type2 problem can pass (B)
        problem = matrix_solver.problem_type2(
            n=2, A=[np.eye(2)], r=2, s=3,
            F=matrix_solver.constant(np.eye(2) / 16.0),
            G=matrix_solver.constant(np.eye(2) / 16.0),
            a=2, l=0.3,
        )
        report = matrix_solver.check_conditions(problem, samples=40, seed=2)
        assert report.conditions["A"].passed
        assert not report.conditions["B"].passed
        assert "^-1" in report.conditions["B"].worst["inequality"]

    def test_recorded_outcome_second_example(self):
        problem, _, options = load("example_4_2.json")
        report = matrix_solver.check_conditions(problem, samples=60, seed=options.seed)
        assert report.conditions["A"].passed
        assert not report.conditions["B"].passed
        worst = report.conditions["B"].worst
        assert worst["lhs"] > worst["rhs"]


class TestConditionRecorder:
    """``ConditionStat.record`` is the one rule that judges a block of
    samples: each sample by its term of largest margin, the first term on
    a tie, and the witness by the first sample of the largest margin."""

    @staticmethod
    def points(count, seed=0):
        return random_pd_in_ball(2, 1.0, seed, (count,))

    @staticmethod
    def witness(x, y=None):
        """The witness of a block of stacks X (and Y): their matrices of sample i."""
        return lambda i: {"X": x.matrix[i]} if y is None else {"X": x.matrix[i], "Y": y.matrix[i]}

    def test_tie_between_terms_reports_the_first_label(self):
        x = self.points(2)
        stat = matrix_solver.ConditionStat("T")
        # sample 0: both terms have margin 1; sample 1: only the second fails
        terms = [("first", np.array([2.0, 0.0]), 1.0), ("second", np.array([3.0, 1.5]), 2.0)]
        stat.record(range(2), terms, self.witness(x))
        assert (stat.checked, stat.failures, stat.worst_margin) == (2, 1, 1.0)
        assert stat.worst == {
            "sample": 0, "inequality": "first", "lhs": 2.0, "rhs": 1.0, "X": hpd_core.matrix_to_literal(x.matrix[0]),
        }

    def test_a_sample_failing_several_terms_counts_once(self):
        stat = matrix_solver.ConditionStat("T")
        terms = [("first", np.array([2.0, 0.0]), 1.0), ("second", np.array([5.0, 0.0]), 1.0)]
        stat.record(range(2), terms, self.witness(self.points(2)))
        assert (stat.checked, stat.failures) == (2, 1)
        assert (stat.worst["inequality"], stat.worst["lhs"]) == ("second", 5.0)

    def test_later_block_with_equal_worst_margin_keeps_the_earlier_witness(self):
        x, y = self.points(2, seed=1), self.points(2, seed=2)
        stat = matrix_solver.ConditionStat("T")
        stat.record(range(2), [("t", np.array([0.5, 1.0]), 0.0)], self.witness(x, y))
        stat.record(range(2, 4), [("u", np.array([1.0, 0.25]), 0.0)], self.witness(y, x))
        assert (stat.checked, stat.failures, stat.worst_margin) == (4, 4, 1.0)
        assert (stat.worst["sample"], stat.worst["inequality"]) == (1, "t")
        assert stat.worst["X"] == hpd_core.matrix_to_literal(x.matrix[1])
        assert stat.worst["Y"] == hpd_core.matrix_to_literal(y.matrix[1])

    def test_one_term_counts_as_a_single_inequality(self):
        # lhs per sample against a shared rhs: margins -0.1, 0.5, 0.5, -0.4
        x, y = self.points(4, seed=3), self.points(4, seed=4)
        lhs = np.array([0.1, 0.7, 0.7, -0.2])
        stat = matrix_solver.ConditionStat("T", literal_failures=0)
        stat.record(range(10, 14), [("lhs <= rhs", lhs, 0.2)], self.witness(x, y))
        assert (stat.checked, stat.failures, stat.worst_margin) == (4, 2, 0.7 - 0.2)
        assert stat.worst == {
            "sample": 11,
            "inequality": "lhs <= rhs",
            "lhs": 0.7,
            "rhs": 0.2,
            "X": hpd_core.matrix_to_literal(x.matrix[1]),
            "Y": hpd_core.matrix_to_literal(y.matrix[1]),
        }
        assert stat.literal_failures == 0

    @staticmethod
    def stacked_record(stat, first, terms, x, y=None):
        """The recorder as first stacked: each sample's term by ``np.argmax``
        over the stacked margins, so the first NaN margin wins too."""
        labels, lhs, rhs = zip(*terms)
        batch = x.matrix.shape[:1]
        lhs, rhs = (np.stack([np.broadcast_to(side, batch) for side in sides]) for sides in (lhs, rhs))
        term, samples = np.argmax(lhs - rhs, axis=0), np.arange(batch[0])
        lhs, rhs = lhs[term, samples], rhs[term, samples]
        margin = lhs - rhs
        stat.checked += margin.size
        stat.failures += int(np.count_nonzero(margin > matrix_solver.CONDITION_TOL))
        i = int(np.argmax(margin))
        if margin[i] > stat.worst_margin:
            stat.worst_margin = float(margin[i])
            stat.worst = {
                "sample": first + i,
                "inequality": labels[term[i]],
                "lhs": float(lhs[i]),
                "rhs": float(rhs[i]),
                "X": hpd_core.matrix_to_literal(x.matrix[i]),
            }
            if y is not None:
                stat.worst["Y"] = hpd_core.matrix_to_literal(y.matrix[i])

    def test_running_maximum_keeps_the_argmax_rules(self):
        # ties, infinities and NaN margins (inf - inf on a very wide ball):
        # the first of equal margins and the first NaN win, as in argmax
        rng = np.random.default_rng(11)
        pool = np.array([0.0, 1.0, 2.0, 1e-9, 3e-9, -1.0, math.inf, -math.inf, math.nan])
        x, y = self.points(5, seed=6), self.points(5, seed=7)

        def side():
            return float(rng.choice(pool)) if rng.random() < 0.3 else rng.choice(pool, 5)

        for _ in range(300):
            stats = matrix_solver.ConditionStat("T"), matrix_solver.ConditionStat("T")
            for first in (0, 5, 10):
                terms = [(f"t{k}", side(), side()) for k in range(rng.integers(1, 5))]
                with np.errstate(invalid="ignore"):
                    stats[0].record(range(first, first + 5), terms, self.witness(x, y))
                    self.stacked_record(stats[1], first, terms, x, y)
                got, want = (json.dumps(stat.to_jsonable()) for stat in stats)
                assert got == want

    def test_equal_map_distances_name_the_first_map(self):
        # Q1 = Q2 and F = G, so d(T1(X), I) and d(T2(X), I) are equal
        # bit for bit, and condition (C) names T1
        problem, _, options = load("check_pass_constant.json")
        pairs = hpd_core.sample_ball_pairs(problem.n, problem.a, np.random.default_rng(5).spawn(3), 20)
        terms, _, _ = matrix_solver._type1_terms(problem)(pairs)["C"]
        (_, d1, _), (_, d2, _) = terms
        assert np.array_equal(d1, d2)
        report = matrix_solver.check_conditions(problem, samples=options.samples, seed=options.seed)
        assert report.conditions["C"].worst["inequality"] == "d(T1(X),I) <= a"


class TestSolve:
    @pytest.mark.parametrize("name", ["gap_tol", "residual_tol"])
    @pytest.mark.parametrize("value", [-1.0, -1e-300, math.nan, math.inf])
    def test_negative_or_nan_tolerance_is_rejected(self, name, value):
        # not a "likely inconsistent" verdict on a residual of 2.4e-13; a
        # tolerance is a finite number, as in a problem file
        problem, x0, options = load("quadratic_pass.json")
        message = f"^{name} must be {'at least 0' if value < 0 else 'a finite number'}, got {value}$"
        with pytest.raises(ValueError, match=message):
            matrix_solver.solve(problem, x0=x0, options=dataclasses.replace(options, **{name: value}))
        with pytest.raises(ValueError, match=message):
            matrix_solver.SolveOptions(**{name: value})
        assert getattr(matrix_solver.SolveOptions(**{name: 0.0}), name) == 0.0

    @pytest.mark.parametrize(
        "name, value, minimum", [("seed", -1, 0), ("max_iter", 0, 1), ("max_iter", -3, 1), ("samples", 0, 1)]
    )
    def test_out_of_range_count_is_rejected_before_sampling(self, monkeypatch, name, value, minimum):
        # not numpy's "expected non-negative integer" for a seed, and not a
        # max_iter refused only after the condition check has run
        problem, x0, options = load("quadratic_pass.json")
        monkeypatch.setattr(matrix_solver, "check_conditions", lambda *args: pytest.fail("sampled"))
        message = f"^{name} must be at least {minimum}, got {value}$"
        with pytest.raises(ValueError, match=message):
            matrix_solver.solve(problem, x0=x0, options=dataclasses.replace(options, **{name: value}))
        with pytest.raises(ValueError, match=message):
            matrix_solver.SolveOptions(**{name: value})
        assert getattr(matrix_solver.SolveOptions(**{name: minimum}), name) == minimum

    @pytest.mark.parametrize("name", ["max_iter", "samples", "seed"])
    @pytest.mark.parametrize("value", [10.5, math.inf, True, np.int64(3)], ids=["10.5", "inf", "True", "int64"])
    def test_a_count_must_be_an_integer(self, monkeypatch, name, value):
        # not a bare TypeError from the engine, the sampler or numpy's
        # SeedSequence, and not a run with no budget for an infinite
        # max_iter; a numpy integer is a count like the int it equals
        problem, x0, options = load("quadratic_pass.json")

        def outcome(count):
            try:
                result = matrix_solver.solve(problem, x0=x0, options=dataclasses.replace(options, **{name: count}))
            except MaxIterationsExceeded as exc:
                result = exc.result
            return result.trace.gaps, result.residual1, result.residual2, result.report.to_jsonable()

        if isinstance(value, np.integer):
            assert getattr(matrix_solver.SolveOptions(**{name: value}), name) is value
            assert outcome(value) == outcome(3)
            return
        monkeypatch.setattr(matrix_solver, "check_conditions", lambda *args: pytest.fail("sampled"))
        message = f"^{name} must be an integer, got {value}$"
        with pytest.raises(ValueError, match=message):
            matrix_solver.solve(problem, x0=x0, options=dataclasses.replace(options, **{name: value}))
        with pytest.raises(ValueError, match=message):
            matrix_solver.SolveOptions(**{name: value})

    def test_constant_problem_two_iterations(self):
        problem, x0, options = load("check_pass_constant.json")
        result = matrix_solver.solve(problem, x0=x0, options=fewer_samples(options))
        assert result.trace.iterations == 2
        assert result.trace.gaps[-1] == 0.0
        np.testing.assert_allclose(result.solution, math.sqrt(2) * np.eye(2), atol=1e-12)
        assert result.report is not None and result.report.passed

    def test_quadratic_scalar_oracle(self):
        problem, x0, options = load("quadratic_pass.json")
        result = matrix_solver.solve(problem, x0=x0, options=fewer_samples(options))
        np.testing.assert_allclose(
            result.solution, GOLDEN_QUADRATIC * np.eye(2), atol=1e-10
        )
        assert max(result.residual1, result.residual2) <= 1e-10
        assert result.dist_to_identity <= problem.a

    def test_second_example_converges_to_identity(self):
        problem, x0, options = load("example_4_2.json")
        result = matrix_solver.solve(problem, x0=x0, options=options)
        assert np.abs(result.solution - np.eye(3)).max() <= 1e-10
        assert max(result.residual1, result.residual2) <= 1e-12
        assert result.trace.iterations <= 30
        assert matrix_solver.alpha_for(problem) == pytest.approx(0.75)

    def test_x0_outside_ball_rejected(self):
        problem, _, options = load("quadratic_pass.json")
        for x0 in (10.0 * np.eye(2), np.diag([1.0, -1.0])):
            with pytest.raises(X0DomainError):
                matrix_solver.solve(problem, x0=x0, options=options)

    def test_x0_not_positive_definite_states_its_reason_once(self):
        problem, _, options = load("example_4_2.json")
        with pytest.raises(X0DomainError) as excinfo:
            matrix_solver.solve(problem, x0=np.diag([1.0, -1.0, 1.0]), options=options)
        assert str(excinfo.value) == (
            "starting point must be positive definite (min eigenvalue -1.000e+00, floor 6.661e-16)"
        )
        assert isinstance(excinfo.value.__cause__, NotPositiveDefinite)

    @pytest.mark.parametrize(
        "x0, shape",
        [(np.stack([np.eye(2)] * 2), "(2, 2, 2)"), (np.eye(3), "(3, 3)"), (hpd_core.pd_point(np.eye(3)), "(3, 3)")],
        ids=["stack", "matrix", "point"],
    )
    def test_x0_of_a_bad_shape_is_named(self, x0, shape):
        problem, _, options = load("quadratic_pass.json")
        with pytest.raises(DimensionMismatch, match=re.escape(f"starting point has shape {shape}, expected (2, 2)")):
            matrix_solver.solve(problem, x0=x0, options=dataclasses.replace(options, force=True))

    def test_failing_conditions_block_unforced_solve(self):
        problem, x0, options = load("check_fail_power.json")
        with pytest.raises(ConditionsNotVerified) as excinfo:
            matrix_solver.solve(problem, x0=x0, options=fewer_samples(options))
        assert excinfo.value.report is not None
        assert not excinfo.value.report.conditions["B"].passed

    def test_forced_solve_of_failing_fixture_converges(self):
        # both maps are X -> (I + X)**(1/2); the pair is consistent even
        # though the sampled contraction condition fails
        problem, x0, options = load("check_fail_power.json")
        forced = dataclasses.replace(options, force=True)
        result = matrix_solver.solve(problem, x0=x0, options=forced)
        golden = (1 + math.sqrt(5)) / 2
        np.testing.assert_allclose(result.solution, golden * np.eye(2), atol=1e-10)

    def test_converged_but_not_certified(self):
        problem, x0, options = load("quadratic_pass.json")
        strict = dataclasses.replace(options, residual_tol=1e-30)
        with pytest.raises(ResidualToleranceExceeded) as excinfo:
            matrix_solver.solve(problem, x0=x0, options=strict)
        result = excinfo.value.result
        assert result.trace.stop_reason == "gap_tol"
        assert result.trace.iterations == 19
        assert min(result.residual1, result.residual2) > strict.residual_tol
        assert f"residual {max(result.residual1, result.residual2):.3e} exceeds tolerance 1.000e-30" in str(
            excinfo.value
        )

    def test_first_example_stalls_in_two_cycle(self):
        problem, x0, options = load("example_4_1.json")
        with pytest.raises(MaxIterationsExceeded) as excinfo:
            matrix_solver.solve(problem, x0=x0, options=options)
        partial = excinfo.value.result
        assert partial is not None
        assert partial.trace.stop_reason == "max_iter"
        assert partial.trace.iterations == options.max_iter
        # the alternating gaps plateau at the two-cycle diameter
        assert partial.trace.gaps[-1] == pytest.approx(0.2284, abs=5e-3)
        assert max(partial.residual1, partial.residual2) > 1e-3


class TestSolverInvariants:
    def test_sum_collapse_bound(self):
        rng = np.random.default_rng(50)
        for _ in range(8):
            n = 3
            factors = matrix_solver._factors([random_nonsingular(rng, n) for _ in range(3)])
            m_val, n_val = random_pd_in_ball(n, 1.5, rng), random_pd_in_ball(n, 1.5, rng)
            lhs = thompson.distance(
                matrix_solver._rhs(None, factors, *m_val.dec),
                matrix_solver._rhs(None, factors, *n_val.dec),
            )
            assert lhs <= thompson.distance(m_val, n_val) + 1e-9

    def test_map_contraction_on_passing_problems(self):
        half_power = matrix_solver.problem_type1(
            n=2, A=[np.eye(2)], Q1=np.eye(2), Q2=np.eye(2), s=2,
            F=matrix_solver.power(0.5), G=matrix_solver.power(0.5), a=1, l=0.5,
        )
        cases = [
            load("check_pass_constant.json")[0],
            load("quadratic_pass.json")[0],
            half_power,
        ]
        rng = np.random.default_rng(51)
        for problem in cases:
            report = matrix_solver.check_conditions(problem, samples=40, seed=13)
            assert report.passed
            t1, t2 = matrix_solver.maps_for(problem)
            ratio = problem.l / problem.s
            for _ in range(20):
                x = random_pd_in_ball(problem.n, problem.a, rng)
                y = random_pd_in_ball(problem.n, problem.a, rng)
                lhs = thompson.distance(t1(x), t2(y))
                assert lhs <= ratio * thompson.distance(x, y) + 1e-9

    def test_ball_invariance_where_conditions_pass(self):
        rng = np.random.default_rng(52)
        problem, _, _ = load("quadratic_pass.json")  # condition (C) passes
        t1, t2 = matrix_solver.maps_for(problem)
        for _ in range(15):
            x = random_pd_in_ball(problem.n, problem.a, rng)
            assert thompson.distance_to_identity(t1(x)) <= problem.a + 1e-9
            assert thompson.distance_to_identity(t2(x)) <= problem.a + 1e-9
        problem2, _, _ = load("example_4_2.json")  # condition (A) passes
        radius = matrix_solver.ball_radius(problem2)
        t1, t2 = matrix_solver.maps_for(problem2)
        for _ in range(10):
            x = random_pd_in_ball(problem2.n, radius, rng)
            assert thompson.distance_to_identity(t1(x)) <= radius + 1e-9
            assert thompson.distance_to_identity(t2(x)) <= radius + 1e-9

    def test_limit_independent_of_start(self):
        problem, x0, options = load("example_4_2.json")
        res_a = matrix_solver.solve(problem, x0=x0, options=options)
        res_b = matrix_solver.solve(
            problem, x0=random_pd_in_ball(3, 4.0, 123), options=options
        )
        assert thompson.distance(res_a.solution, res_b.solution) <= 1e-8

    def test_order_identity_on_matrix_problem(self):
        problem, x0, options = load("example_4_2.json")
        t1, t2 = matrix_solver.maps_for(problem)
        x0 = hpd_core.pd_point(x0)
        from tfp.fixpoint_engine import iterate_pair

        fwd = iterate_pair(thompson.gaps, t1, t2, x0, bound=thompson.spectral_distance, max_iter=200)
        rev = iterate_pair(thompson.gaps, t2, t1, x0, bound=thompson.spectral_distance, max_iter=200)
        assert thompson.distance(fwd.points[-1], rev.points[-1]) <= 1e-9
