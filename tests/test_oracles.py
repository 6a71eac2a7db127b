"""Independent computation paths and the property-sweep harness."""

import pytest

from gradedet.algebra import det_gauss, preset
from gradedet.errors import InvalidParams
from gradedet.gdet import (all_ns_multipliers, canonical_sigma,
                           det_of_commuting, gdet0, gdet_sigma)
from gradedet.gmatrix import GradedMatrix, graded_trace, j_sigma
from gradedet.oracles import (SUITES, SweepReport, complex_embedding,
                              dieudonne_norm_check, gdet_via_row_decomposition,
                              printed_quaternion_multipliers, quaternion_norm,
                              run_property_sweeps, sweep_crossed_route,
                              sweep_grading, sweep_matrix_identities,
                              sweep_row_decomposition, trace_via_twist)
from gradedet.sampling import make_rng, rand_matrix
from gradedet.scalars import cyclo, rational

from full_system import NonCommutingEntries, leibniz_det_commutative

Q = preset("quaternions")
I, J, K = (Q.basis_element(s) for s in "ijk")
ZERO = Q.group.zero()
JT = J.degree_of()
X = GradedMatrix(Q, [ZERO, JT], [ZERO, JT], [[Q.one(), J], [J, Q.one()]])


def test_sweep_report_mechanics():
    r = SweepReport("demo")
    r.compare("t1", 1, 1)
    assert r.ok and r.instances == 1
    r.compare(lambda: "lazy", 1, 2)
    assert not r.ok
    assert r.failures[0][0] == "lazy"
    r.hold("t2", True)
    r.hold("t3", False, note="must hold")
    assert r.instances == 4 and len(r.failures) == 2
    other = SweepReport("other")
    other.compare("t4", 0, 0)
    r.absorb(other)
    assert r.instances == 5
    doc = r.to_doc()
    assert doc["name"] == "demo" and doc["instances"] == 5
    assert len(doc["failures"]) == 2


def test_run_property_sweeps_deterministic():
    a = [r.to_doc() for r in run_property_sweeps(seed=7, suites=["algebra"])]
    b = [r.to_doc() for r in run_property_sweeps(seed=7, suites=["algebra"])]
    assert a == b
    assert all(not doc["failures"] for doc in a)
    with pytest.raises(InvalidParams):
        run_property_sweeps(suites=["nonexistent"])
    assert set(SUITES) == {"grading", "algebra", "gmatrix", "gdet",
                           "berezinian"}


@pytest.mark.parametrize("sweep, instances", [(sweep_grading, 1020),
                                              (sweep_matrix_identities, 208)])
def test_sweeps_outside_acceptance(sweep, instances):
    # the acceptance suite runs every other sweep
    report = sweep(seed=0)
    assert report.instances == instances
    assert report.ok, report.failures[:3]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_crossed_product_sweeps_at_more_seeds(seed):
    for sweep in (sweep_crossed_route, sweep_row_decomposition):
        report = sweep(seed=seed)
        assert report.ok, report.failures[:3]


def test_trace_via_twist_matches():
    rng = make_rng("oracle-trace")
    x = rand_matrix(rng, Q, [ZERO, JT, K.degree_of()])
    for sigma in all_ns_multipliers(Q.lam):
        assert trace_via_twist(x, sigma) == graded_trace(x)


def test_leibniz_det_commutative():
    ga = preset("group_algebra", 3)
    rng = make_rng("oracle-leibniz")
    y = rand_matrix(rng, ga, [ga.group.zero()] * 3,
                    mu=[ga.group.zero()] * 3)
    base = leibniz_det_commutative(y)
    assert base == det_of_commuting(y.entries, y.algebra)
    for _ in range(5):
        assert leibniz_det_commutative(y, rng=rng) == base
    # J_sigma output over the twisted quaternions, which are commutative
    x = rand_matrix(rng, Q, [ZERO, JT, K.degree_of()])
    y = j_sigma(x, canonical_sigma(Q))
    assert leibniz_det_commutative(y) == det_of_commuting(y.entries,
                                                          y.algebra)
    with pytest.raises(NonCommutingEntries):
        leibniz_det_commutative(
            GradedMatrix(Q, [ZERO, JT], [ZERO, JT],
                         [[I, J], [J, I]]))


def test_complex_embedding_frozen():
    m = GradedMatrix(Q, [ZERO], [ZERO], [[Q.one() * 2 + I - K * 3]])
    rows = complex_embedding(m)
    i = cyclo(1, 4)
    assert rows[0][0] == rational(2) + i
    assert rows[0][1] == -i * 3
    assert rows[1][0] == -i * 3
    assert rows[1][1] == rational(2) - i
    with pytest.raises(InvalidParams):
        complex_embedding(GradedMatrix(
            preset("dual_numbers", 2),
            [preset("dual_numbers", 2).group.zero()],
            [preset("dual_numbers", 2).group.zero()],
            [[preset("dual_numbers", 2).one()]]))


def test_quaternion_norm():
    assert quaternion_norm(Q.one() * 2) == rational(4)
    assert quaternion_norm(Q.one() + I - J * 2 + K) == rational(7)
    assert quaternion_norm(Q.zero()) == rational(0)


def test_dieudonne_frozen_example():
    # gdet of the worked 2x2 is 2 and the embedded 4x4 determinant is 4
    assert det_gauss(complex_embedding(X)) == rational(4)
    report = dieudonne_norm_check(X)
    assert report.ok
    assert report.instances == 8


def test_row_decomposition_matches():
    for sigma in all_ns_multipliers(Q.lam)[:4]:
        assert gdet_via_row_decomposition(X, sigma) == gdet_sigma(X, sigma)
    rng = make_rng("oracle-rows")
    y = rand_matrix(rng, Q, [ZERO, JT])
    for sigma in all_ns_multipliers(Q.lam)[:2]:
        assert gdet_via_row_decomposition(y, sigma) == gdet_sigma(y, sigma)
    assert gdet_via_row_decomposition(X, all_ns_multipliers(Q.lam)[0]) \
        == gdet0(X)


def test_printed_multipliers():
    first, second = printed_quaternion_multipliers()
    assert first != second
    assert first.group == Q.group and second.group == Q.group
