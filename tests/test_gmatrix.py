"""Graded matrices: degrees, products, trace, J, inversion, permutations."""

from collections import Counter

import pytest

from gradedet import algebra
from gradedet.algebra import (INHOMOGENEOUS, invert_element, preset,
                              solve_linear, transport, twist)
from gradedet.errors import (DegreeMismatch, InhomogeneousScalar,
                             InvalidParams, MissingUnit, MixedAlgebras,
                             NotSquare, Singular)
from gradedet.gdet import canonical_sigma
from gradedet.grading import GradingGroup, Multiplier
from gradedet.gmatrix import (GradedMatrix, change_basis, diagonal,
                              graded_trace, identity, invert_matrix, j_sigma,
                              matmul, permutation_matrix, scalar_action,
                              shift_degrees, superrank, zero_matrix)
from gradedet.oracles import _odd_line_tensor
from gradedet.sampling import (make_rng, rand_degrees, rand_invertible,
                               rand_matrix, sorted_degrees)
from gradedet.scalars import rational

from full_system import full_system_inverse

Q = preset("quaternions")
I, J, K = (Q.basis_element(s) for s in "ijk")
ZERO = Q.group.zero()
JT = J.degree_of()

X = GradedMatrix(Q, [ZERO, JT], [ZERO, JT], [[Q.one(), J], [J, Q.one()]])
Y = GradedMatrix(Q, [ZERO, JT], [ZERO, JT], [[Q.one(), J], [-J, Q.one()]])


def test_degree_bookkeeping():
    assert X.degree_of() == ZERO
    assert X.is_homogeneous_of(ZERO)
    assert not X.is_homogeneous_of(JT)
    m = GradedMatrix(Q, [ZERO], [ZERO], [[Q.one() + J]])
    assert m.degree_of() is INHOMOGENEOUS
    assert zero_matrix(Q, [ZERO], [JT]).degree_of() == ZERO


def test_constructor_checks():
    with pytest.raises(InvalidParams):
        GradedMatrix(Q, [ZERO], [ZERO], [[Q.one()], [Q.one()]])
    with pytest.raises(InvalidParams):
        GradedMatrix(Q, [ZERO], [ZERO, JT], [[Q.one()]])
    with pytest.raises(MixedAlgebras):
        GradedMatrix(Q, [ZERO], [ZERO], [[preset("grassmann", 2).one()]])
    # plain scalars are lifted to multiples of the unit
    m = GradedMatrix(Q, [ZERO], [ZERO], [[rational(5)]])
    assert m.entry(0, 0) == Q.one() * 5


def test_ranks():
    nu = [ZERO, JT, JT]
    assert superrank(Q.lam, nu) == (3, 0)
    dn = preset("dual_numbers", 2)
    odd = dn.group.element([1, 0])
    assert superrank(dn.lam, [dn.group.zero(), odd, odd]) == (1, 2)


def test_matmul_and_errors():
    prod = matmul(X, Y)
    assert prod == GradedMatrix(Q, [ZERO, JT], [ZERO, JT],
                                [[Q.one() * 2, J * 2],
                                 [Q.zero(), Q.zero()]])
    assert matmul(X, X).entry(0, 0) == Q.one() + J * J
    with pytest.raises(DegreeMismatch):
        matmul(X, GradedMatrix(Q, [JT], [JT], [[Q.one()]]))
    with pytest.raises(MixedAlgebras):
        matmul(X, identity(preset("dual_numbers", 2),
                           [preset("dual_numbers", 2).group.zero()] * 2))
    assert (X @ Y) == matmul(X, Y)
    # homogeneous factors of nonzero degrees dx, dy give degree dx + dy
    rng = make_rng("matmul-degrees")
    for alg in (Q, preset("dual_numbers", 2)):
        pool = [d for d in sorted_degrees(alg) if d]
        nonzero = 0
        for dx in pool:
            for dy in pool:
                nu = rand_degrees(rng, alg, 3)
                prod = matmul(rand_matrix(rng, alg, nu, dx),
                              rand_matrix(rng, alg, nu, dy))
                assert prod.is_homogeneous_of(dx + dy)
                nonzero += prod != zero_matrix(alg, nu, nu)
        assert nonzero


def test_addition_and_scaling():
    assert X - X == zero_matrix(Q, [ZERO, JT], [ZERO, JT])
    assert X + X == X * 2
    with pytest.raises(DegreeMismatch):
        X + identity(Q, [ZERO, ZERO])


def test_scalar_action():
    # (a.X)^i_j = lambda(a~, mu_i) a X^i_j
    ax = scalar_action(I, X)
    lam = Q.lam
    for i, mu in enumerate(X.row_degrees):
        for j in range(2):
            assert ax.entry(i, j) == (I * X.entry(i, j)) * lam.value(
                I.degree_of(), mu)
    with pytest.raises(InhomogeneousScalar):
        scalar_action(Q.one() + I, X)


def test_trace_values():
    assert graded_trace(X) == Q.one() * 2
    assert graded_trace(identity(Q, [ZERO, JT, JT])) == Q.one() * 3
    dn = preset("dual_numbers", 2)
    odd = [dn.group.element([1, 0]), dn.group.element([0, 1])]
    # Tr(I) = (r_even - r_odd) 1
    assert graded_trace(identity(dn, odd)) == dn.one() * (-2)
    assert graded_trace(identity(dn, [dn.group.zero()] + odd)) == -dn.one()


def test_trace_cyclic_with_factor():
    zero_j = [ZERO, JT]
    a = GradedMatrix(Q, zero_j, zero_j,
                     [[Q.zero(), J], [Q.zero(), Q.zero()]])
    b = GradedMatrix(Q, zero_j, zero_j,
                     [[Q.zero(), Q.zero()], [I, Q.zero()]])
    x, y = a.degree_of(), b.degree_of()
    lhs = graded_trace(matmul(a, b))
    rhs = graded_trace(matmul(b, a)) * Q.lam.value(x, y)
    assert lhs == rhs
    # A-linearity in a homogeneous scalar
    s = I * rational(2, 3)
    assert graded_trace(scalar_action(s, a) + scalar_action(s, b)) == \
        s * (graded_trace(a) + graded_trace(b))
    with pytest.raises(InhomogeneousScalar):
        scalar_action(Q.one() + I, a)


def test_invert_matrix():
    xinv = invert_matrix(X)
    want = GradedMatrix(Q, [ZERO, JT], [ZERO, JT],
                        [[Q.one(), -J], [-J, Q.one()]])
    assert xinv == want * rational(1, 2)
    assert matmul(X, xinv) == identity(Q, [ZERO, JT])
    assert matmul(xinv, X) == identity(Q, [ZERO, JT])
    with pytest.raises(Singular):
        invert_matrix(Y)
    with pytest.raises(Singular):
        invert_matrix(zero_matrix(Q, [ZERO], [ZERO]))


def test_invert_rectangular_degrees():
    # a degree-j~ matrix inverts to a matrix with swapped degree vectors
    m = GradedMatrix(Q, [JT], [ZERO], [[J]])
    minv = invert_matrix(m)
    assert minv.row_degrees == (ZERO,)
    assert minv.col_degrees == (JT,)
    assert matmul(m, minv) == identity(Q, [JT])


def test_j_sigma_frozen_entry():
    sigma = canonical_sigma(Q)
    tw = twist(Q, sigma)
    jx = j_sigma(X, sigma)
    assert jx.algebra is tw
    assert jx.entry(0, 0) == tw.one()
    assert jx.entry(0, 1) == tw.basis_element("j")
    # the (1,0) entry picks up sigma(j~, j~)^(-1)
    corr = sigma.value(JT, JT)
    assert jx.entry(1, 0) * corr == tw.basis_element("j")


def test_j_sigma_morphism():
    # J(XY) = sigma(x, y)^(-1) J(X) J(Y) for homogeneous X, Y; both are
    # degree 0 here so the correction disappears
    sigma = canonical_sigma(Q)
    assert j_sigma(matmul(X, Y), sigma) == matmul(j_sigma(X, sigma),
                                                  j_sigma(Y, sigma))


def test_permutation_matrices():
    nu = [ZERO, JT, K.degree_of()]
    p12 = permutation_matrix(Q, (0, 2, 1), nu)
    p01 = permutation_matrix(Q, (1, 0, 2), nu)
    assert p12.degree_of() == ZERO
    assert matmul(p12, p12) == identity(Q, nu)
    composed = tuple((1, 0, 2)[v] for v in (0, 2, 1))
    assert matmul(p01, p12) == permutation_matrix(Q, composed, nu)
    assert permutation_matrix(Q, (0, 1, 2), nu) == identity(Q, nu)
    with pytest.raises(InvalidParams):
        permutation_matrix(Q, (0, 0, 1), nu)
    dn = preset("dual_numbers", 2)
    with pytest.raises(MissingUnit):
        permutation_matrix(dn, (1, 0), [dn.group.element([1, 0])] * 2)


def test_permutation_custom_units():
    nu = [JT, JT]
    swapped = permutation_matrix(Q, (1, 0), nu, units={JT: J * 7})
    assert swapped.entry(0, 1) == invert_element(J * 7) * (J * 7)
    assert matmul(swapped, swapped) == identity(Q, nu)
    with pytest.raises(InvalidParams):
        permutation_matrix(Q, (1, 0), nu, units={JT: I})


def test_change_basis():
    p = permutation_matrix(Q, (1, 0), [ZERO, JT])
    moved = change_basis(X, p)
    assert moved == matmul(invert_matrix(p), matmul(X, p))
    assert graded_trace(moved) == graded_trace(X)
    with pytest.raises(NotSquare):
        change_basis(GradedMatrix(Q, [ZERO], [JT], [[J]]), p)
    with pytest.raises(DegreeMismatch):
        change_basis(X, identity(Q, [ZERO, ZERO]))
    with pytest.raises(DegreeMismatch):
        change_basis(X, diagonal(Q, [ZERO, JT], [Q.one(), J]))


def test_shift_degrees():
    it = I.degree_of()
    shifted = shift_degrees(X, it)
    assert shifted.row_degrees == (it, it + JT)
    assert shifted.col_degrees == shifted.row_degrees
    assert shifted.entries == X.entries
    assert shifted.degree_of() == X.degree_of()
    assert shift_degrees(shifted, it).row_degrees == (ZERO, JT)


def _inversion_algebras():
    return [Q, preset("clifford", 2, 1), preset("dual_numbers", 2),
            preset("grassmann", 3), preset("grassmann", 4),
            preset("group_algebra", 2, 3),
            preset("crossed_product", GradingGroup([2, 2]),
                   Multiplier(GradingGroup([2, 2]), 2, [[1, 1], [0, 1]])),
            preset("clock_shift", 3), _odd_line_tensor()]


@pytest.mark.parametrize("alg", _inversion_algebras(), ids=lambda a: a.name)
def test_invert_matrix_matches_the_full_system(alg):
    rng = make_rng(f"invert:{alg.name}")
    pool = sorted_degrees(alg)
    samples = []
    for n in (1, 2, 3) if alg.dim <= 9 else (1, 2):
        nu = rand_degrees(rng, alg, n)
        mu = rand_degrees(rng, alg, n)
        x = rand_invertible(rng, alg, nu)
        d = rng.choice(pool)
        # 2 + b is invertible for b squaring to a scalar or of finite order
        b = alg.basis_element(rng.choice(
            [k for k in range(alg.dim) if k != alg.unit_index]))
        samples += [
            matmul(x, diagonal(alg, nu, [alg.from_scalar(2) + b] * n)),
            x, rand_matrix(rng, alg, nu, d), rand_matrix(rng, alg, nu, d, mu),
            x + rand_matrix(rng, alg, nu, rng.choice(pool)),
            # the last column times zero: singular, of x's degree
            matmul(x, diagonal(alg, nu, [alg.one()] * (n - 1)
                               + [alg.zero()])),
            zero_matrix(alg, mu, nu)]
    seen = Counter()
    for x in samples:
        want = full_system_inverse(x)
        if want is None:
            with pytest.raises(Singular):
                invert_matrix(x)
        else:
            assert invert_matrix(x) == want
        deg = x.degree_of()
        seen[deg is INHOMOGENEOUS, want is not None] += 1
    assert seen[False, True] and seen[False, False] and seen[True, True]


def test_homogeneous_inverse_solves_one_piece_per_column(monkeypatch):
    nu = [ZERO, JT, I.degree_of()]
    x = rand_invertible(make_rng("pieces"), Q, nu)
    sizes = []

    def recording(matrix, rhs):
        # sparse int rows over the columns 0..n-1, int right-hand sides
        assert all(type(x) is int and 0 <= c < len(matrix)
                   for row in matrix for c, x in row.items())
        assert all(type(x) is int for row in rhs for x in row)
        sizes.append(len(matrix))
        return solve_linear(matrix, rhs)

    monkeypatch.setattr(algebra, "solve_linear", recording)
    assert matmul(x, invert_matrix(x)) == identity(Q, nu)
    # one 3x3 system per distinct column degree, never the 12x12 system
    assert sizes == [3, 3, 3]
