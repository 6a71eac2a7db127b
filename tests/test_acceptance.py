"""Acceptance suite: twelve exact-arithmetic criteria, one output line each.

Every check is an exact equality over rationals or cyclotomic integers;
there are no tolerances. Run with ``pytest tests/test_acceptance.py -s``
to see the per-criterion lines. The whole file finishes well under a
minute.
"""

from gradedet.oracles import (sweep_berezinian, sweep_crossed_route,
                              sweep_dieudonne, sweep_gdet0_multiplicative,
                              sweep_gdet_sigma_laws, sweep_ordering_formula,
                              sweep_permutation_matrices,
                              sweep_quaternion_values,
                              sweep_row_decomposition,
                              sweep_sigma_independence, sweep_trace,
                              sweep_twisted_tables)


def _criterion(label, sweep, instances, min_checks=1):
    # instances is the exact count at seed 0; min_checks the required floor
    report = sweep(seed=0)
    ok = (report.ok and report.instances >= min_checks
          and report.instances == instances)
    print(f"criterion {label}: {'PASS' if ok else 'FAIL'} "
          f"({report.instances} exact checks)")
    assert report.instances >= min_checks, (report.name, report.instances)
    assert report.instances == instances, (report.name, report.instances)
    assert report.ok, (report.name, report.failures[:3])


def test_01_worked_quaternion_values():
    _criterion("01 worked quaternion values", sweep_quaternion_values, 93)


def test_02_twisted_multiplication_tables():
    _criterion("02 twisted multiplication tables", sweep_twisted_tables, 54)


def test_03_sigma_independence():
    _criterion("03 sigma independence of gdet0/trace/gber0",
               sweep_sigma_independence, 16128, min_checks=200)


def test_04_multiplicativity_and_normalization():
    # at least 200 invertible degree-zero pairs per preset
    _criterion("04 gdet0 multiplicative + diagonal normalization",
               sweep_gdet0_multiplicative, 920, min_checks=800)


def test_05_ordering_formula():
    # at least 200 matrices, each re-expanded under 100 random orderings
    _criterion("05 ordering-independent expansion formula",
               sweep_ordering_formula, 20200, min_checks=20200)


def test_06_sigma_determinant_laws():
    _criterion("06 gdet_sigma law suite", sweep_gdet_sigma_laws, 476)


def test_07_permutation_matrices():
    _criterion("07 permutation matrices and signs",
               sweep_permutation_matrices, 360)


def test_08_crossed_product_route():
    _criterion("08 crossed-product route agreement", sweep_crossed_route, 55)


def test_09_dieudonne_diagram():
    # at least 100 invertible quaternionic matrices, all 8 multipliers
    _criterion("09 dieudonne norm diagram", sweep_dieudonne, 800,
               min_checks=800)


def test_10_berezinian():
    _criterion("10 berezinian laws and worked values", sweep_berezinian, 1133)


def test_11_graded_trace():
    _criterion("11 graded trace laws", sweep_trace, 360)


def test_12_row_decomposition():
    _criterion("12 row decomposition route", sweep_row_decomposition, 30)
