"""Traced passes give exact work counts that repeat, and leave no patches."""

import pytest
import tfp
from tfp import cli, fixpoint_engine, hpd_core, matrix_solver
from tfp.fixtures import fixture_path

import harness
import tracing
import workloads

KEYS = ("check_pass_constant:check", "example_4_2:solve", "example_4_2:plot")


def _traced_run(work):
    work.mkdir()
    ops = workloads.fixtures_cli(work, fixture_path("example_4_2.json").parent, seed=0)
    run = harness.run_passes([op for op in ops if op.key in KEYS], seconds=0, trace=True)
    assert all(not record.problems for record in run.records)
    profiles = tracing.pass_profiles(run.tracer, run.ops)
    assert list(profiles) == [1]
    return profiles[1]


def test_two_traced_runs_count_the_same_work(tmp_path):
    first = _traced_run(tmp_path / "a")
    second = _traced_run(tmp_path / "b")
    assert tracing.work_counts(first) == tracing.work_counts(second)
    assert first["calls"]["hpd_core.eig_hermitian"] > 0
    assert first["iterations"] > 0
    assert first["counts"]["matrix_solver.check_conditions.samples"] == 200


def test_self_time_is_span_time_minus_children(tmp_path):
    profile = _traced_run(tmp_path / "run")
    for name, self_s in profile["self_s"].items():
        assert 0.0 <= self_s <= profile["incl_s"][name] + 1e-12
    metrics = tracing.layer_metrics(profile, profile)
    assert metrics["cli.trace_rows.rows"] == metrics["fixpoint_engine.iterations"]
    assert 0.0 < metrics["hpd_core.eig_recomputed_ratio"] < 1.0


def test_uninstall_restores_every_name(tmp_path):
    before = [
        (hpd_core, "eig_hermitian"), (matrix_solver, "eig_hermitian"), (matrix_solver, "iterate_pair"),
        (fixpoint_engine, "iterate_pair"), (cli, "main"), (tfp, "solve"), (matrix_solver, "maps_for"),
    ]
    originals = [getattr(module, attr) for module, attr in before]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert matrix_solver.eig_hermitian is hpd_core.eig_hermitian
        assert all(getattr(m, a) is not o for (m, a), o in zip(before, originals))
    finally:
        tracer.uninstall()
    assert all(getattr(m, a) is o for (m, a), o in zip(before, originals))


def test_tail_has_ten_samples_beyond_it():
    values = [float(i) for i in range(30)]
    value, pct = harness.tail(values)
    assert pct == 66 and 18.0 < value < 20.0
    assert harness.tail(values + [100.0] * 20) == (value, pct)
    assert harness.tail(values[:19]) == (9.0, 50)
    assert harness.tail(values[:25])[1] == 60


def test_harrell_davis_is_a_quantile_estimate():
    assert harness.harrell_davis([3.0] * 30, 0.75) == pytest.approx(3.0)
    assert harness.harrell_davis([float(i) for i in range(101)], 0.5) == pytest.approx(50.0)
