"""Tests of the benchmark itself: reproducible inputs, failure counting,
and a tracer that changes no result.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

import json
from pathlib import Path

import pytest

import gradedet
from gradedet import run_property_sweeps
from gradedet.oracles import SUITES, SweepReport
from perfbench import calibrate, inputs, run, workloads
from perfbench.tracer import Tracer

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture
def workdir(tmp_path):
    return str(tmp_path)


@pytest.mark.parametrize("name", ["det_large", "cli_jobs"])
def test_input_digest_follows_the_seed(name, workdir):
    first = workloads.make(name, 7, workdir)
    again = workloads.make(name, 7, workdir)
    other = workloads.make(name, 8, workdir)
    try:
        assert first.digest == again.digest
        assert first.digest != other.digest
    finally:
        for w in (first, again, other):
            w.close()


def test_seeds_change_coefficients_not_structure():
    alg = gradedet.preset("dual_numbers", 2)

    def draw(seed):
        src = inputs.Source("shape", f"value:{seed}")
        nu = inputs.degree_vector(src, alg, 6)
        x, _ = inputs.udl_matrix(src, alg, nu, 0.5)
        return nu, [[e.coeffs for e in row] for row in x.entries]

    (nu1, x1), (nu2, x2) = draw(1), draw(2)
    assert nu1 == nu2
    assert x1 != x2
    assert [[set(c) for c in row] for row in x1] == (
        [[set(c) for c in row] for row in x2])


def test_sweeps_digest_follows_the_seed():
    assert workloads.Sweeps(3).digest == workloads.Sweeps(3).digest
    assert workloads.Sweeps(3).digest != workloads.Sweeps(4).digest


def _corrupt_first_product(monkeypatch):
    """Makes the first U D L input carry a wrong expected determinant."""
    original = inputs.udl_matrix
    calls = []

    def corrupted(src, alg, nu, density):
        x, product = original(src, alg, nu, density)
        calls.append(1)
        return x, (product + alg.one() if len(calls) == 1 else product)

    monkeypatch.setattr(inputs, "udl_matrix", corrupted)


@pytest.mark.parametrize("name", ["det_large", "cli_jobs"])
def test_corrupted_expected_value_counts_as_failure(name, workdir,
                                                    monkeypatch):
    _corrupt_first_product(monkeypatch)
    w = workloads.make(name, 1, workdir)
    try:
        outcome = w.run(0, passes=2, units=w.units[:2])
        assert w.check(outcome) == (4, 2)
        metrics = w.metrics(outcome, 4, 2)
        # two correct ops over the latencies of all four
        assert metrics["ops_per_s"] == pytest.approx(
            2 / sum(map(sum, outcome.latencies)))
    finally:
        w.close()


def test_failed_sweep_instance_counts_as_failure(monkeypatch):
    def broken(seed):
        report = SweepReport("broken")
        report.compare("tag", 1, 2)
        report.compare("tag", 3, 3)
        return report

    w = workloads.Sweeps(0)
    w.units = [broken]
    monkeypatch.setattr(gradedet.oracles, "broken", broken, raising=False)
    outcome = w.run(0, passes=1)
    assert w.check(outcome) == (2, 1)


def test_changing_sweep_instance_count_counts_as_failure(monkeypatch):
    sizes = iter((2, 3))

    def growing(seed):
        report = SweepReport("growing")
        for _ in range(next(sizes)):
            report.hold("tag", True)
        return report

    w = workloads.Sweeps(0)
    w.units = [growing]
    monkeypatch.setattr(gradedet.oracles, "growing", growing,
                        raising=False)
    outcome = w.run(0, passes=2)
    assert outcome.extra["instances"] == [2, 3]
    assert w.check(outcome) == (5, 1)


def test_sweeps_count_the_instances_verify_counts():
    w = workloads.Sweeps(5)
    w.units = [fn for suite in ("grading", "algebra")
                   for fn in SUITES[suite]]
    outcome = w.run(0, passes=1)
    reports = run_property_sweeps(5, suites=["grading", "algebra"])
    assert outcome.extra["instances"] == [sum(r.instances for r in reports)]
    assert len(outcome.latencies[0]) == outcome.extra["instances"][0]


def _traced_matches_untraced(w, ops):
    plain = w.run(0, passes=1, units=ops)
    tracer = Tracer()
    with tracer:
        traced = w.run(0, passes=1, units=ops)
    assert w.results_of(plain) == w.results_of(traced)
    assert w.check(plain)[1] == 0
    return tracer.report()


def test_tracing_changes_no_det_large_result(workdir):
    w = workloads.make("det_large", 2, workdir)
    layers = _traced_matches_untraced(
        w, [op for op in w.units if " n=7 " in op.label][:3])
    assert layers["gdet.det_of_commuting.calls"] == 3
    assert layers["sampling.invert.attempts"] == 0
    assert layers["oracles.sweep_grading.s"] == 0
    assert layers["algebra.element_mul.calls"] > 0
    assert gradedet.gdet_sigma.__module__ == "gradedet.gdet"
    assert not hasattr(gradedet.gdet_sigma, "__wrapped__")


def test_tracing_changes_no_cli_result(workdir):
    w = workloads.make("cli_jobs", 2, workdir)
    try:
        ops = [op for op in w.units if op.label.endswith("n=3")
               or op.label.startswith(("twist", "solve-sigma"))]
        layers = _traced_matches_untraced(w, ops)
    finally:
        w.close()
    assert layers["cli.main.calls"] == len(ops)
    assert layers["serialize.parse.self_s"] > 0
    assert 0 < layers["algebra.twist.hits"] <= layers["algebra.twist.calls"]


def test_tracing_changes_no_sweep_result():
    w = workloads.Sweeps(1)
    w.units = list(SUITES["grading"]) + list(SUITES["algebra"])
    layers = _traced_matches_untraced(w, w.units)
    assert layers["oracles.sweep_grading.s"] > 0
    assert layers["oracles.sweep_berezinian.s"] == 0
    assert layers["grading.value.calls"] > 0
    assert gradedet.oracles.sweep_grading is SUITES["grading"][0]


def test_calibration_follows_the_local_reference_time():
    cal = calibrate.Calibrator()
    cal.times = [float(t) for t in range(20)]
    cal.seconds = [2 * calibrate.REF_NOMINAL_S] * 10 + (
        [calibrate.REF_NOMINAL_S / 2] * 10)
    assert cal.factor(3.0, 3.1) == pytest.approx(0.5)
    assert cal.factor(15.0, 15.2) == pytest.approx(2.0)
    assert cal.factor(50.0, 51.0) == pytest.approx(2.0)   # nearest ones


def test_metrics_scale_with_the_calibration_factor(workdir):
    w = workloads.make("det_large", 4, workdir)
    outcome = w.run(0, passes=3, units=w.units[:12])
    attempted, failed = w.check(outcome)
    plain = w.metrics(outcome, attempted, failed)
    doubled = w.metrics(outcome, attempted, failed, lambda s, e: 2.0)
    assert doubled["ops_per_s"] == pytest.approx(plain["ops_per_s"] / 2)
    for name in ("op_p50_ms", "op_p90_ms"):
        assert doubled[name] == pytest.approx(2 * plain[name])


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(
        run.END_TO_END_UNITS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == (
        run.per_layer_units())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
