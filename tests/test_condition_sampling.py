"""Stacked condition sampling against the sequential oracle.

``matrix_solver.check_conditions`` draws and evaluates its samples in
stacked blocks, from two streams spawned from its seed.  ``sampling_oracle``
draws and checks the same samples one at a time from the same streams.
Every CLI output that depends on the check (the report, the stdout of
``check`` and of an unforced ``solve``, the solve's files) must be
byte-identical between the two, whatever the block size, and the stacked
checker must decompose exactly the matrices the oracle decomposes,
in a number of ``eig_hermitian`` calls that does not grow with the sample
count.  The sampled points themselves must be the oracle's three-call
draws, bit for bit, from two generator calls per stack, and their
distances must keep the distribution of the points drawn one at a time
from one generator, as the sampler drew them before it took two streams.
"""

import json
import math

import numpy as np
import pytest

import sampling_oracle
from helpers import CountingGenerator, known_answer_files
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
    """The (spectra, gauss) pair a check with ``seed`` draws from."""
    return tuple(np.random.default_rng(seed).spawn(2))


def assert_same_points(point, expected, shape, n):
    assert point.matrix.shape == shape + (n, n)
    for got, want in zip((point.matrix, *point.dec), (expected.matrix, *expected.dec)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def thompson_distances(pairs):
    """d(X, Y) of each pair of an (S, 2) stack, as a check computes it."""
    return thompson._ratio_distances(*thompson._ratios(pairs[:, 0], pairs[:, 1]))


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


class TestDrawsMatchTheOracle:
    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    @pytest.mark.parametrize("radius", [0.0, 0.3, 2.5, 700.0])
    def test_points_are_byte_identical(self, n, radius):
        # successive stacks from one pair, so each starts where the
        # previous one left both streams
        pair, oracle_pair = streams(n), streams(n)
        for shape in [(7, 2), (200, 2)]:
            point = hpd_core.random_pd_in_ball(n, radius, pair, shape)
            expected = sampling_oracle.random_pd_in_ball(n, radius, oracle_pair, shape)
            assert_same_points(point, expected, shape, n)
        for got, want in zip(pair, oracle_pair):
            assert got.bit_generator.state == want.bit_generator.state

    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    @pytest.mark.parametrize("radius", [0.0, 0.3, 2.5, 700.0])
    def test_a_point_from_one_generator_is_the_three_call_recipe(self, n, radius):
        rng, oracle_rng = np.random.default_rng(n), np.random.default_rng(n)
        for seed, oracle_seed in [(rng, oracle_rng), (rng, oracle_rng), (n, n)]:
            point = hpd_core.random_pd_in_ball(n, radius, seed)
            expected = sampling_oracle.random_pd_in_ball(n, radius, oracle_seed)
            assert_same_points(point, expected, (), n)
        assert rng.bit_generator.state == oracle_rng.bit_generator.state

    def test_uniform_is_low_plus_range_times_random(self):
        # the sampler draws ``uniform``'s values from ``random``: a numpy
        # whose ``uniform`` computes them otherwise must fail here
        for radius in [0.0, 0.3, 2.5, 700.0, *np.geomspace(1e-300, 700.0, 20)]:
            low, high = -radius, radius
            expected = np.random.default_rng(9).uniform(low, high, 1000)
            got = low + (high - low) * np.random.default_rng(9).random(1000)
            assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("count", [1, 7, 200])
    def test_two_generator_calls_per_stack(self, count):
        spectra, gauss = (CountingGenerator(np.random.PCG64(seed)) for seed in (3, 4))
        hpd_core.random_pd_in_ball(3, 1.5, (spectra, gauss), (count, 2))
        assert (spectra.calls, gauss.calls) == (1, 1)
        rng = CountingGenerator(np.random.PCG64(3))
        hpd_core.random_pd_in_ball(3, 1.5, rng, (count, 2))
        assert rng.calls == 2
        rng.calls = 0
        hpd_core.random_pd_in_ball(3, 1.5, rng)
        assert rng.calls == 2

    def test_distances_keep_their_distribution(self):
        # d(X, Y) of pairs from two streams against pairs drawn point by
        # point from one generator, as the sampler drew them before
        new = thompson_distances(hpd_core.random_pd_in_ball(3, 1.5, streams(1), (KS_SAMPLES, 2)))
        old = thompson_distances(sampling_oracle.random_pd_in_ball(3, 1.5, 2, (KS_SAMPLES, 2)))
        assert ks_statistic(new, old) <= KS_BOUND
        # the statistic sees a ball 10 % wider
        wider = thompson_distances(hpd_core.random_pd_in_ball(3, 1.65, streams(3), (KS_SAMPLES, 2)))
        assert ks_statistic(wider, old) > KS_BOUND


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

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_sample_counts_at_the_block_boundary(self, tmp_path, capsys, monkeypatch, offset):
        n = 16
        block = matrix_solver._BLOCK_ENTRIES // (n * n)
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
            monkeypatch.setattr(matrix_solver, "_BLOCK_ENTRIES", 3 * problem.n**2)
            assert matrix_solver._block_size(problem.n) == 3
            small = cli_outputs(tmp_path, capsys, f"small_{samples}", argv, ("report.json",))
            monkeypatch.undo()
            assert small == default
            assert json.loads(default[3]["report.json"])["conditions"]["A"]["checked"] == samples

    def test_example_4_1(self, tmp_path, capsys, monkeypatch):
        path = fixture_path("example_4_1.json")
        self.assert_same_in_blocks_of_three(tmp_path, capsys, monkeypatch, path, [2, 3, 4, 200])

    def test_known_answer_problem_at_n_16(self, tmp_path, capsys, monkeypatch):
        # 257 samples are one more than a default block at n = 16
        (path,) = known_answer_files(tmp_path, 16, 1, 5)
        assert matrix_solver._block_size(16) == 256
        self.assert_same_in_blocks_of_three(tmp_path, capsys, monkeypatch, path, [4, 257])


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
        # type1: d(Q1, Q2), d(F(X), G(Y)) and d(X, Y), each with a second
        # eigensolve on its wide pencils, and the roots of T1(X) and T2(X);
        # type2: d(X, Y) and its wide pencils
        problem, _, options = cli.load_problem(fixture_path(name))
        per_check = 8 if problem.kind == matrix_solver.TYPE1 else 2
        for samples in (20, 1000):
            eig_calls.clear()
            matrix_solver.check_conditions(problem, samples, options.seed)
            assert len(eig_calls) <= per_check
