"""Stacked condition sampling against the sequential oracle.

``matrix_solver.check_conditions`` draws and evaluates its samples in
stacked blocks, from three streams spawned from its seed.
``sampling_oracle`` draws and checks the same samples one at a time from
the same streams.  Every CLI output that depends on the check (the
report, the stdout of ``check`` and of an unforced ``solve``, the solve's
files) must be byte-identical between the two, whatever the block size,
and the stacked checker must decompose exactly the matrices the oracle
decomposes, in a number of ``eig_hermitian`` calls that does not grow
with the sample count.  The sampled pairs themselves must be the
oracle's draws of one pair at a time, bit for bit, from two generator
calls per block, and a third for U where it is read.  A pair is drawn in X's eigenbasis; the oracle shares that recipe,
so the witnesses are checked against distances recomputed from their
matrices, and the margins against those of the pairs drawn as matrices,
X and Y each from its own Haar unitary, as the sampler drew them before.
"""

import json
import math

import numpy as np
import pytest

import sampling_oracle
from helpers import (
    GENERAL_BRANCH,
    CountingGenerator,
    apply_F,
    general_branch_file,
    known_answer_files,
    random_pd_in_ball,
)
from test_thompson import log_error
from tfp import cli, hpd_core, matrix_solver, thompson
from tfp.fixtures import fixture_path

FIXTURES = [
    "check_fail_power.json",
    "check_pass_constant.json",
    "example_4_1.json",
    "example_4_2.json",
    "quadratic_pass.json",
]


def cli_outputs(tmp_path, capsys, label, argv, outputs):
    """Exit code, stdout, stderr and output file bytes of one CLI run whose
    output paths are ``outputs`` (names under a fresh directory)."""
    out_dir = tmp_path / label
    out_dir.mkdir(parents=True)
    code = cli.main([*argv, "--out", str(out_dir / outputs[0])])
    captured = capsys.readouterr()
    files = {name: (out_dir / name).read_bytes() for name in outputs if (out_dir / name).exists()}
    return code, captured.out.replace(str(out_dir), "OUT"), captured.err.replace(str(out_dir), "OUT"), files


def assert_same_as_oracle(tmp_path, capsys, monkeypatch, argv, outputs=("report.json",)):
    stacked = cli_outputs(tmp_path, capsys, "stacked", argv, outputs)
    monkeypatch.setattr(matrix_solver, "check_conditions", sampling_oracle.check_conditions)
    oracle = cli_outputs(tmp_path, capsys, "oracle", argv, outputs)
    monkeypatch.undo()
    assert stacked == oracle
    return stacked


def streams(seed):
    """The (spectra, gauss, frame) streams a check with ``seed`` draws from."""
    return tuple(np.random.default_rng(seed).spawn(3))


def ks_statistic(a, b):
    """The two-sample Kolmogorov-Smirnov statistic: the largest distance
    between the empirical distribution functions of a and b."""
    values = np.concatenate([a, b])
    cdf_a = np.searchsorted(np.sort(a), values, side="right") / len(a)
    cdf_b = np.searchsorted(np.sort(b), values, side="right") / len(b)
    return float(np.max(np.abs(cdf_a - cdf_b)))


# The two-sample KS critical value at alpha = 0.001 for 2000 values
# against 2000: sqrt(-ln(alpha / 2) / 2) * sqrt(2 / 2000), about 0.0616.
KS_SAMPLES = 2000
KS_BOUND = math.sqrt(-math.log(0.001 / 2) / 2) * math.sqrt(2 / KS_SAMPLES)


def frame_margins(problem, pairs):
    """Each condition's margin per pair of a block, as the check counts it:
    the largest lhs - rhs of its terms."""
    family = matrix_solver._type1_terms if problem.kind == matrix_solver.TYPE1 else matrix_solver._type2_terms
    terms_of = family(problem)
    return {
        name: np.max([np.broadcast_to(lhs - rhs, (len(pairs),)) for _, lhs, rhs in terms], axis=0)
        for name, (terms, _, _) in terms_of(pairs).items()
    }


def matrix_margins(problem, x, y):
    """The same margins of stacks of points X and Y, each condition
    evaluated on the matrices, as the check did before it sampled in X's
    eigenbasis."""

    def distance(a, b):
        return thompson._ratio_distances(*thompson._ratios(a, b))

    f_x, g_x = apply_F(problem.F, x), apply_F(problem.G, x)
    w_xy, w_yx = thompson._ratios(x, y)
    if problem.kind == matrix_solver.TYPE2:
        m, exp_ra = problem.m, math.exp(matrix_solver.ball_radius(problem))
        lam_f, lam_g = f_x.dec.eigenvalues, g_x.dec.eigenvalues
        forward = lam_f[:, -1], lam_g[:, -1]
        inverse = 1.0 / lam_f[:, 0], 1.0 / lam_g[:, 0]
        a = np.max(
            [forward[0] - exp_ra / m, inverse[0] - m * exp_ra, forward[1] - exp_ra / m, inverse[1] - m * exp_ra],
            axis=0,
        )
        b = np.max(
            [
                forward[0] - w_xy**problem.l / (m * 2.0**problem.r),
                forward[1] - w_xy**problem.l / (m * 2.0**problem.s),
                inverse[0] - m * w_yx**problem.l,
                inverse[1] - m * w_yx**problem.l,
            ],
            axis=0,
        )
        return {"A": a, "B": b}
    d_q = distance(problem.Q1, problem.Q2)
    d_fg = distance(f_x, apply_F(problem.G, y))
    d_c = [thompson.distance_to_identity(t(x)) - problem.a for t in matrix_solver.maps_for(problem)]
    return {"A": d_q - d_fg, "B": d_fg - problem.l * thompson._ratio_distances(w_xy, w_yx), "C": np.maximum(*d_c)}


class TestDrawsMatchTheOracle:
    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    @pytest.mark.parametrize("radius", [0.0, 0.3, 2.5, 700.0])
    @pytest.mark.parametrize("with_u", [True, False])
    def test_pairs_are_byte_identical(self, n, radius, with_u):
        # successive blocks from one triple, so each starts where the
        # previous one left the streams; a block whose U is read draws it,
        # and one whose U is not gives its pairs with U = I
        triple, oracle_triple = streams(n), streams(n)
        for count in [7, 200]:
            pairs = hpd_core.sample_ball_pairs(n, radius, triple, count)
            u = pairs.x_dec().vectors if with_u else None
            for i in range(count):
                lam_x, lam_y, w, u_i = sampling_oracle.sample_pair(n, radius, oracle_triple, with_u)
                got = [pairs.lam_x[i], pairs.lam_y[i], pairs.w[i], *pairs.matrices(i)]
                want = [lam_x, lam_y, w, *(p.matrix for p in sampling_oracle.pair_points(lam_x, lam_y, w, u_i))]
                if with_u:
                    got.append(u[i])
                    want.append(u_i)
                for a, b in zip(got, want):
                    assert a.dtype == b.dtype and a.shape == b.shape
                    assert a.tobytes() == b.tobytes()
        for got, want in zip(triple, oracle_triple):
            assert got.bit_generator.state == want.bit_generator.state

    def test_uniform_is_low_plus_range_times_random(self):
        # the sampler draws ``uniform``'s values from ``random``: a numpy
        # whose ``uniform`` computes them otherwise must fail here
        for radius in [0.0, 0.3, 2.5, 700.0, *np.geomspace(1e-300, 700.0, 20)]:
            low, high = -radius, radius
            expected = np.random.default_rng(9).uniform(low, high, 1000)
            got = low + (high - low) * np.random.default_rng(9).random(1000)
            assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("count", [1, 7, 200])
    def test_generator_calls_per_block(self, count):
        # the spectra and W, then U's draws when U is first read; a
        # witness draws nothing
        triple = tuple(CountingGenerator(np.random.PCG64(seed)) for seed in (3, 4, 5))
        pairs = hpd_core.sample_ball_pairs(3, 1.5, triple, count)
        pairs.matrices(count - 1)
        assert [stream.calls for stream in triple] == [1, 0, 1]
        pairs.x_dec(), pairs.y_dec(), pairs.matrices(0)
        assert [stream.calls for stream in triple] == [1, 1, 1]

    def test_distances_keep_their_distribution(self):
        # d(X, Y) of pairs drawn in X's eigenbasis against pairs of points
        # drawn each from its own Haar unitary, as the sampler drew them
        pairs = hpd_core.sample_ball_pairs(3, 1.5, streams(1), KS_SAMPLES)
        new = thompson._ratio_distances(*thompson._frame_ratios(pairs.lam_x, pairs.lam_y, pairs.w))
        points = random_pd_in_ball(3, 1.5, 2, (KS_SAMPLES, 2))
        old = thompson._ratio_distances(*thompson._ratios(points[:, 0], points[:, 1]))
        assert ks_statistic(new, old) <= KS_BOUND
        # the statistic sees a ball 10 % wider
        wider = hpd_core.sample_ball_pairs(3, 1.65, streams(3), KS_SAMPLES)
        wide = thompson._ratio_distances(*thompson._frame_ratios(wider.lam_x, wider.lam_y, wider.w))
        assert ks_statistic(wide, old) > KS_BOUND

    @pytest.mark.parametrize("name", ["example_4_1.json", "quadratic_pass.json", "example_4_2.json"])
    def test_margins_keep_their_distribution(self, name):
        # each condition's margins over 2000 pairs drawn in X's eigenbasis
        # and judged there, against 2000 pairs drawn as matrices and judged
        # on the matrices; KS_BOUND was fixed before either was drawn
        problem, _, _ = cli.load_problem(fixture_path(name))
        radius = matrix_solver.ball_radius(problem)
        with np.errstate(all="ignore"):
            new = frame_margins(problem, hpd_core.sample_ball_pairs(problem.n, radius, streams(4), KS_SAMPLES))
            points = random_pd_in_ball(problem.n, radius, 5, (KS_SAMPLES, 2))
            old = matrix_margins(problem, points[:, 0], points[:, 1])
        assert set(new) == set(old)
        for condition in new:
            if np.ptp(old[condition]) > 0:
                assert ks_statistic(new[condition], old[condition]) <= KS_BOUND, condition
            else:  # a margin that reads no sample, such as (A)'s with Q1 = Q2
                np.testing.assert_allclose(new[condition], old[condition])


class TestWitnessesAreWhatWasMeasured:
    """A witness's X and Y, read back from the report, give its sides
    again when the distances are recomputed from the matrices: a W for W*
    or a swapped base in the eigenbasis sampler would not.  At n = 2 W
    and W* give pencils of one spectrum (|W_12| = |W_21|), so the n = 3
    fixtures carry the W for W* case."""

    @pytest.mark.parametrize("name", ["check_fail_power.json", "example_4_1.json", "quadratic_pass.json"])
    def test_type1(self, name):
        problem, _, options = cli.load_problem(fixture_path(name))
        report = matrix_solver.check_conditions(problem, options.samples, options.seed)
        for condition in ("A", "B"):
            worst = report.conditions[condition].worst
            x, y = (hpd_core.pd_point(hpd_core.matrix_from_literal(worst[side])) for side in "XY")
            f_x, g_y = apply_F(problem.F, x), apply_F(problem.G, y)
            d_fg, d_xy = thompson.distance(f_x, g_y), thompson.distance(x, y)
            tol = log_error(problem.n, x, y, f_x, g_y)
            if condition == "A":
                assert worst["rhs"] == pytest.approx(d_fg, abs=tol)
            else:
                assert worst["lhs"] == pytest.approx(d_fg, abs=tol)
                assert worst["rhs"] == pytest.approx(problem.l * d_xy, abs=problem.l * tol)
            x_c = hpd_core.pd_point(hpd_core.matrix_from_literal(report.conditions["C"].worst["X"]))
            d_c = max(thompson.distance_to_identity(t(x_c)) for t in matrix_solver.maps_for(problem))
            assert report.conditions["C"].worst["lhs"] == pytest.approx(d_c, abs=log_error(problem.n, x_c))

    def test_type2(self):
        problem, _, options = cli.load_problem(fixture_path("example_4_2.json"))
        report = matrix_solver.check_conditions(problem, options.samples, options.seed)
        worst = report.conditions["B"].worst
        x, y = (hpd_core.pd_point(hpd_core.matrix_from_literal(worst[side])) for side in "XY")
        tol = log_error(problem.n, x, y)
        # rhs is w(X/Y)^l / (m 2^r) or m w(Y/X)^l, each a power of a ratio
        # of d(X, Y) = max(log w(X/Y), log w(Y/X))
        w_xy, w_yx = (float(w) for w in thompson._ratios(x, y))
        assert thompson.distance(x, y) == pytest.approx(max(math.log(w_xy), math.log(w_yx)), abs=tol)
        m, l = problem.m, problem.l
        lam_f, lam_g = (apply_F(spec, x).dec.eigenvalues for spec in (problem.F, problem.G))
        lhs, rhs = {
            "lambda_max(F(X)) <= w(X/Y)^l/(m*2^r)": (lam_f[-1], w_xy**l / (m * 2.0**problem.r)),
            "lambda_max(G(X)) <= w(X/Y)^l/(m*2^s)": (lam_g[-1], w_xy**l / (m * 2.0**problem.s)),
            "lambda_max(F(X)^-1) <= m*w(Y/X)^l": (1.0 / lam_f[0], m * w_yx**l),
            "lambda_max(G(X)^-1) <= m*w(Y/X)^l": (1.0 / lam_g[0], m * w_yx**l),
        }[worst["inequality"]]
        assert math.log(worst["lhs"]) == pytest.approx(math.log(lhs), abs=tol)
        assert math.log(worst["rhs"]) == pytest.approx(math.log(rhs), abs=l * tol)


class TestReportsMatchTheOracle:
    @pytest.mark.parametrize("name", FIXTURES)
    def test_fixture_at_its_shipped_seed(self, tmp_path, capsys, monkeypatch, name):
        code, out, _, files = assert_same_as_oracle(
            tmp_path, capsys, monkeypatch, ["check", str(fixture_path(name))]
        )
        assert code in (0, 3) and "condition A" in out
        assert json.loads(files["report.json"])["samples"] == 200

    @pytest.mark.parametrize("name", FIXTURES)
    def test_fixture_with_samples_and_seed_flags(self, tmp_path, capsys, monkeypatch, name):
        argv = ["check", str(fixture_path(name)), "--samples", "30", "--seed", "13"]
        _, _, _, files = assert_same_as_oracle(tmp_path, capsys, monkeypatch, argv)
        assert json.loads(files["report.json"])["seed"] == 13

    @pytest.mark.parametrize("n", [3, 8, 16])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_known_answer_problems(self, tmp_path, capsys, monkeypatch, n, seed):
        for i, path in enumerate(known_answer_files(tmp_path, n, 4, seed)):
            argv = ["check", str(path)]
            code, _, _, _ = assert_same_as_oracle(tmp_path / f"p{i}", capsys, monkeypatch, argv)
            # condition (B) fails on every known-answer problem
            assert code == 3

    @pytest.mark.parametrize("label", GENERAL_BRANCH)
    @pytest.mark.parametrize("flags", [[], ["--samples", "30", "--seed", "13"]], ids=["shipped", "flags"])
    def test_a_constant_beside_a_power_or_another_constant(self, tmp_path, capsys, monkeypatch, label, flags):
        # d(F(X), G(Y)) is a pencil between two points: the constant's own
        # point against a power's, one per sample, or against another
        # constant's, one for all samples
        argv = ["check", str(general_branch_file(tmp_path, label)), *flags]
        code, out, _, files = assert_same_as_oracle(tmp_path, capsys, monkeypatch, argv)
        assert code == 3 and "condition A" in out
        if label == "two-constants-far-Q":  # one literal violation for all samples counts for each
            report = json.loads(files["report.json"])
            assert report["conditions"]["A"]["literal_failures"] == report["samples"]

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_sample_counts_at_the_block_boundary(self, tmp_path, capsys, monkeypatch, offset):
        n = 16
        block = hpd_core._block_size(n)
        assert block > 2
        for samples in {1, block + offset}:
            for i, path in enumerate(known_answer_files(tmp_path, n, 2, 5)):
                argv = ["check", str(path), "--samples", str(samples)]
                out_dir = tmp_path / f"s{samples}_p{i}"
                _, _, _, files = assert_same_as_oracle(out_dir, capsys, monkeypatch, argv)
                assert json.loads(files["report.json"])["conditions"]["A"]["checked"] == samples

    @pytest.mark.parametrize("name", FIXTURES)
    def test_unforced_solve(self, tmp_path, capsys, monkeypatch, name):
        argv = ["solve", str(fixture_path(name))]
        code, out, _, files = assert_same_as_oracle(
            tmp_path, capsys, monkeypatch, argv, outputs=("trace.csv", "trace.json")
        )
        assert code in (0, 3, 4)
        assert (code == 3) == (not files)


class TestReportsDoNotDependOnTheBlockSize:
    """A check's report is the same whether its samples fall into blocks
    of 3 or of the default size."""

    def assert_same_in_blocks_of_three(self, tmp_path, capsys, monkeypatch, path, counts):
        problem, _, _ = cli.load_problem(path)
        for samples in counts:
            argv = ["check", str(path), "--samples", str(samples)]
            default = cli_outputs(tmp_path, capsys, f"default_{samples}", argv, ("report.json",))
            monkeypatch.setattr(hpd_core, "_BLOCK_ENTRIES", 3 * problem.n**2)
            monkeypatch.setattr(hpd_core, "_BLOCK_FLOOR", 1)
            assert hpd_core._block_size(problem.n) == 3
            small = cli_outputs(tmp_path, capsys, f"small_{samples}", argv, ("report.json",))
            monkeypatch.undo()
            assert small == default
            assert json.loads(default[3]["report.json"])["conditions"]["A"]["checked"] == samples

    def test_example_4_1(self, tmp_path, capsys, monkeypatch):
        path = fixture_path("example_4_1.json")
        self.assert_same_in_blocks_of_three(tmp_path, capsys, monkeypatch, path, [2, 3, 4, 200])

    def test_known_answer_problem_at_n_16(self, tmp_path, capsys, monkeypatch):
        # 65 samples are one more than a default block at n = 16
        (path,) = known_answer_files(tmp_path, 16, 1, 5)
        assert hpd_core._block_size(16) == 64
        self.assert_same_in_blocks_of_three(tmp_path, capsys, monkeypatch, path, [4, 65])


class TestMatricesDecomposed:
    """``eig_hermitian`` decomposes one matrix or one stack per call;
    ``eig_calls`` lists the leading (stack) shape of each call and whether
    it asked for eigenvectors."""

    @pytest.fixture
    def eig_calls(self, monkeypatch):
        calls = []
        eig = hpd_core.eig_hermitian

        def counting(m, *args, **kwargs):
            calls.append((np.shape(m)[:-2], kwargs.get("vectors", True)))
            return eig(m, *args, **kwargs)

        monkeypatch.setattr(hpd_core, "eig_hermitian", counting)
        monkeypatch.setattr(matrix_solver, "eig_hermitian", counting)
        return calls

    @pytest.mark.parametrize("name", FIXTURES)
    def test_stacked_checker_decomposes_the_oracles_matrices(self, eig_calls, name):
        problem, _, options = cli.load_problem(fixture_path(name))
        matrices = []
        for check in (matrix_solver.check_conditions, sampling_oracle.check_conditions):
            eig_calls.clear()
            check(problem, options.samples, options.seed)
            matrices.append(sum(math.prod(shape) for shape, _ in eig_calls))
            # every sampled quantity reads eigenvalues only
            assert not any(vectors for _, vectors in eig_calls)
        assert matrices[0] == matrices[1]

    @pytest.mark.parametrize("name", FIXTURES)
    def test_calls_per_check_do_not_grow_with_samples(self, eig_calls, name):
        # type1: d(Q1, Q2), d(F(X), G(Y)) and d(X, Y) (one call for both
        # when F and G are powers), each with a second eigensolve on its
        # wide pencils, and the roots of T1(X) and T2(X) in one call;
        # type2: d(X, Y) and its wide pencils
        problem, _, options = cli.load_problem(fixture_path(name))
        per_check = 8 if problem.kind == matrix_solver.TYPE1 else 2
        for samples in (20, 1000):
            eig_calls.clear()
            matrix_solver.check_conditions(problem, samples, options.seed)
            assert len(eig_calls) <= per_check
