"""Graded determinants: orderings, worked values, independent formulas."""

import pytest

from gradedet.algebra import make_algebra, preset, transport, twist
from gradedet.errors import (InvalidOrdering, NotDegreeZero, NotSquare,
                             OddEntries)
from gradedet.gdet import (all_ns_multipliers, canonical_ordering,
                           canonical_sigma, det_of_commuting, gdet0,
                           gdet0_leibniz, gdet0_via_crossed, gdet_sigma,
                           is_valid_ordering, permutation_cycles,
                           permutation_sign, random_ordering)
from gradedet.gmatrix import (GradedMatrix, diagonal, identity, j_sigma,
                              j_sigma_exponents, matmul)
from gradedet.grading import (Bicharacter, GradingGroup, GroupElement,
                              Multiplier, is_ns_multiplier,
                              solve_ns_multiplier)
from gradedet.oracles import _odd_line_tensor
from gradedet.sampling import (make_rng, parity_split,
                               rand_parity_constant_degrees, rand_matrix)
from gradedet.scalars import rational

Q = preset("quaternions")
I, J, K = (Q.basis_element(s) for s in "ijk")
ZERO = Q.group.zero()
JT = J.degree_of()

X = GradedMatrix(Q, [ZERO, JT], [ZERO, JT], [[Q.one(), J], [J, Q.one()]])
Y = GradedMatrix(Q, [ZERO, JT], [ZERO, JT], [[Q.one(), J], [-J, Q.one()]])


def test_permutation_helpers():
    assert permutation_sign((0, 1, 2)) == 1
    assert permutation_sign((1, 0, 2)) == -1
    assert permutation_sign((1, 2, 0)) == 1
    assert [tuple(c) for c in permutation_cycles((3, 4, 1, 0, 2))] == \
        [(0, 3), (1, 4, 2)]
    assert canonical_ordering((3, 4, 1, 0, 2)) == (0, 3, 1, 4, 2)
    assert canonical_ordering((0, 1)) == (0, 1)


def test_valid_orderings():
    pi = (3, 4, 1, 0, 2)
    assert is_valid_ordering(pi, (0, 3, 1, 4, 2))
    # each cycle may start anywhere but must stay contiguous
    assert is_valid_ordering(pi, (3, 0, 4, 2, 1))
    assert is_valid_ordering(pi, (1, 4, 2, 0, 3))
    assert not is_valid_ordering(pi, (0, 1, 3, 4, 2))
    assert not is_valid_ordering(pi, (0, 3, 2, 4, 1))
    assert not is_valid_ordering(pi, (0, 3, 1, 4))
    rng = make_rng("orderings")
    for _ in range(50):
        assert is_valid_ordering(pi, random_ordering(pi, rng))


def test_worked_quaternion_values():
    assert gdet0(X) == Q.one() * 2
    assert gdet0(Y) == Q.zero()
    sigmas = all_ns_multipliers(Q.lam)
    assert len(sigmas) == 8
    for sigma in sigmas:
        assert gdet_sigma(X, sigma) == Q.one() * 2
        assert gdet_sigma(Y, sigma) == Q.zero()


def test_sigma_dependent_values_at_trivial_grading():
    # with both degrees zero the entries are forced inhomogeneous and the
    # value genuinely depends on sigma(j~, j~)
    x0 = GradedMatrix(Q, [ZERO, ZERO], [ZERO, ZERO], X.entries)
    y0 = GradedMatrix(Q, [ZERO, ZERO], [ZERO, ZERO], Y.entries)
    seen = {2: 0, 0: 0}
    for sigma in all_ns_multipliers(Q.lam):
        sjj = sigma.value(JT, JT)
        # the off-diagonal product j*j = -1 now carries sigma(j~, j~)
        assert gdet_sigma(x0, sigma) == Q.one() - J * J * sjj
        assert gdet_sigma(y0, sigma) == Q.one() + J * J * sjj
        if sjj == rational(1):
            assert gdet_sigma(x0, sigma) == Q.one() * 2
            assert gdet_sigma(y0, sigma) == Q.zero()
            seen[2] += 1
        else:
            assert gdet_sigma(x0, sigma) == Q.zero()
            assert gdet_sigma(y0, sigma) == Q.one() * 2
            seen[0] += 1
    assert seen == {2: 4, 0: 4}


def test_gdet0_requires_degree_zero():
    m = GradedMatrix(Q, [JT], [ZERO], [[J]])
    with pytest.raises(NotSquare):
        gdet0(m)
    sq = GradedMatrix(Q, [ZERO], [ZERO], [[J]])
    with pytest.raises(NotDegreeZero) as exc:
        gdet0(sq)
    assert str(exc.value) == ("gdet0 needs a homogeneous matrix of degree "
                              "0, got degree <0,1>")
    with pytest.raises(NotDegreeZero) as exc:
        gdet0_leibniz(sq)
    assert str(exc.value) == ("gdet0_leibniz needs a homogeneous matrix of "
                              "degree 0, got degree <0,1>")
    mixed = GradedMatrix(Q, [ZERO, ZERO], [ZERO, ZERO], X.entries)
    with pytest.raises(NotDegreeZero) as exc:
        gdet0(mixed)
    assert str(exc.value).endswith("got degree Inhomogeneous")
    # odd and of nonzero degree: the degree is reported, not the parity
    dn = preset("dual_numbers", 2)
    zero = dn.group.zero()
    odd = GradedMatrix(dn, [zero], [zero], [[dn.basis_element("eps1")]])
    with pytest.raises(NotDegreeZero) as exc:
        gdet0(odd)
    assert str(exc.value) == ("gdet0 needs a homogeneous matrix of degree "
                              "0, got degree <1,0>")


def test_gdet_sigma_rejects_odd():
    dn = preset("dual_numbers", 2)
    sigma = solve_ns_multiplier(dn.lam)
    zero = dn.group.zero()
    e1 = dn.basis_element("eps1")
    e12 = e1 * dn.basis_element("eps2")
    odd = e1.degree_of()
    m = GradedMatrix(dn, [zero], [zero], [[e1]])
    with pytest.raises(OddEntries) as exc:
        gdet_sigma(m, sigma)
    assert str(exc.value) == ("gdet_sigma: entry (0,0) has an odd-degree "
                              "component eps1; expansion order would matter")
    # even entries, odd components at (0,1) and (1,0) of different degrees:
    # the first in row-major order is reported
    nu = [zero, odd]
    m = GradedMatrix(dn, nu, nu, [[dn.one(), e12], [dn.one(), dn.one()]])
    with pytest.raises(OddEntries) as exc:
        gdet_sigma(m, sigma)
    assert str(exc.value) == ("gdet_sigma: homogeneous component of odd "
                              "degree <0,1>")
    # an odd entry is reported before any odd component
    m = GradedMatrix(dn, nu, nu, [[dn.one(), e12], [dn.one(), e1]])
    with pytest.raises(OddEntries) as exc:
        gdet_sigma(m, sigma)
    assert str(exc.value) == ("gdet_sigma: entry (1,1) has an odd-degree "
                              "component eps1; expansion order would matter")


def test_multiplicative_and_diagonal():
    prod = matmul(X, X)
    assert gdet0(prod) == gdet0(X) * gdet0(X)
    a = Q.one() * rational(3, 7)
    d = diagonal(Q, [ZERO, JT, JT], [Q.one(), Q.one(), a])
    assert gdet0(d) == a
    assert gdet0(identity(Q, [ZERO, JT])) == Q.one()
    empty = GradedMatrix(Q, [], [], [])
    assert gdet0(empty) == Q.one()


def test_leibniz_matches_and_validates():
    rng = make_rng("leibniz")
    for alg in (Q, preset("clifford", 1, 1)):
        zero = alg.group.zero()
        for n in (1, 2, 3):
            x = rand_matrix(rng, alg, [zero] * n)
            assert gdet0_leibniz(x) == gdet0(x)
    with pytest.raises(InvalidOrdering):
        gdet0_leibniz(X, orderings={(1, 0): (0, 1, 2)})
    x3 = identity(Q, [ZERO] * 3)
    # (0,2,1) walks the 3-cycle of (1,2,0) backwards
    with pytest.raises(InvalidOrdering):
        gdet0_leibniz(x3, orderings={(1, 2, 0): (0, 2, 1)})
    with pytest.raises(InvalidOrdering):
        gdet0_leibniz(x3, orderings={(0, 1): (0, 1)})


def test_leibniz_ordering_invariance():
    rng = make_rng("ordering-choice")
    x = rand_matrix(rng, Q, [ZERO, JT, K.degree_of()])
    base = gdet0(x)
    from itertools import permutations
    for _ in range(10):
        orderings = {pi: random_ordering(pi, rng)
                     for pi in permutations(range(3))}
        assert gdet0_leibniz(x, orderings=orderings) == base


def test_crossed_route():
    rng = make_rng("crossed")
    for alg in (Q, preset("clifford", 0, 2)):
        zero = alg.group.zero()
        for n in (1, 2, 3):
            x = rand_matrix(rng, alg, [zero] * n)
            assert gdet0_via_crossed(x) == gdet0(x)


def test_crossed_route_without_homogeneous_units():
    # dual numbers have no invertible element outside degree 0, so the
    # crossed route must adjoin one through a tensor factor
    dn = preset("dual_numbers", 2)
    zero = dn.group.zero()
    both = dn.group.element([1, 1])
    e12 = dn.basis_element("eps1") * dn.basis_element("eps2")
    x = GradedMatrix(dn, [zero, both], [zero, both],
                     [[dn.one() * 2, e12], [e12, dn.one()]])
    assert x.degree_of() == zero
    assert gdet0_via_crossed(x) == gdet0(x)
    assert gdet0(x) == dn.one() * 2


def test_crossed_route_over_z4_with_odd_generator():
    # span{1, x} with deg x = 1 odd in Z4: degree 2 has no element, so the
    # route adjoins t_2 from the even crossed product over {0, 2}
    lam = Bicharacter(GradingGroup([4]), 2, [[1]])
    alg = make_algebra([[0], [1]], {(0, 0): {0: 1}, (0, 1): {1: 1},
                                    (1, 0): {1: 1}}, lam, ("1", "x"))
    nu = [lam.group.zero(), lam.group.element([2])]
    x = diagonal(alg, nu, [alg.one() * 3, alg.one() * 5])
    assert gdet0(x) == alg.one() * 15
    assert gdet0_via_crossed(x) == gdet0(x)


def test_det_of_commuting_small():
    ga = preset("group_algebra", 3)
    g = ga.basis_element(ga.labels[1])
    one = ga.one()
    entries = ((one * 2, g), (g * g, one))
    got = det_of_commuting(entries, ga)
    assert got == one * 2 - g * g * g
    assert det_of_commuting((), ga) == one


def test_sigma_family():
    assert is_ns_multiplier(Q.lam, solve_ns_multiplier(Q.lam))
    assert canonical_sigma(Q) is canonical_sigma(Q)
    for sigma in all_ns_multipliers(Q.lam):
        assert is_ns_multiplier(Q.lam, sigma)


def _route_algebras():
    z22 = GradingGroup([2, 2])
    return [Q, preset("clifford", 1, 1), preset("dual_numbers", 2),
            preset("grassmann", 4), preset("group_algebra", 2, 3),
            preset("crossed_product", z22,
                   Multiplier(z22, 2, [[1, 1], [0, 1]])),
            preset("clock_shift", 3), _odd_line_tensor()]


@pytest.mark.parametrize("alg", _route_algebras(), ids=lambda a: a.name)
def test_det_sigma_matches_det_of_j_sigma(alg):
    """gdet_sigma feeds the kernel from X; the reference builds J_sigma(X)
    over the twisted algebra and takes its determinant."""
    rng = make_rng(f"route:{alg.name}")
    evens, _ = parity_split(alg)
    nonzero = [d for d in evens if d] or evens
    samples = []
    for n in (1, 2, 3):
        nu = rand_parity_constant_degrees(rng, alg, n)
        samples += [rand_matrix(rng, alg, nu),
                    rand_matrix(rng, alg, nu, rng.choice(nonzero)),
                    rand_matrix(rng, alg, nu, rng.choice(evens))
                    + rand_matrix(rng, alg, nu, rng.choice(nonzero))]
    beyond_sign = False
    for sigma in all_ns_multipliers(alg.lam):
        n_ord = sigma.root_order
        for x in samples:
            want = transport(det_of_commuting(j_sigma(x, sigma).entries,
                                              twist(alg, sigma)), alg)
            got = gdet_sigma(x, sigma)
            assert got == want and repr(got) == repr(want)
            exps = j_sigma_exponents(alg.degrees, x.col_degrees, sigma)
            beyond_sign |= any(2 * ex[k] not in (0, n_ord)
                               for row, erow in zip(x.entries, exps)
                               for e, ex in zip(row, erow) for k in e.coeffs)
    # only clock_shift(3)'s order-3 multiplier has factors other than +-1
    assert beyond_sign == (alg.name == "clock_shift(3)")


def test_gdet0_forms_degrees_once_per_degree_pair(monkeypatch):
    nu = [ZERO, JT] * 5
    x = rand_matrix(make_rng("degree-pairs"), Q, nu)
    want = gdet0(x)  # fills the multiplier and twisted-table caches
    built = []
    init = GroupElement.__init__

    def counting(self, group, residues):
        built.append(residues)
        init(self, group, residues)

    monkeypatch.setattr(GroupElement, "__init__", counting)
    assert gdet0(x) == want
    # 2 distinct degrees make 4 (mu_i, nu_j) pairs; a degree formed per
    # entry would be 100 elements at least
    assert len(built) <= 3 * 4
