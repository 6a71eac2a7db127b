"""Parity blocks, UDL factorization, and the graded Berezinian."""

import json
import sys
from fractions import Fraction

import pytest

from gradedet import algebra, berezinian, cli, gdet
from gradedet.algebra import (_solve_grid, invert_element, make_algebra,
                              preset, twist, unit_degrees)
from gradedet.berezinian import (ber_super, ber_super_components, gber,
                                 gber0, gber_via_ber_super, udl)
from gradedet.errors import (GradedetError, IncompatibleGroups, InvalidParams,
                             NotParitySorted, NotSquare, OddDegree,
                             OddEntries, Singular, SingularOddBlock)
from gradedet.gdet import (all_ns_multipliers, det_of_commuting, gdet0,
                           gdet_sigma)
from gradedet.gmatrix import (GradedMatrix, identity, invert_matrix,
                              j_sigma, j_sigma_exponents, matmul)
from gradedet.grading import (Bicharacter, GradingGroup, Multiplier,
                              is_ns_multiplier, parity)
from gradedet.oracles import _odd_line_tensor
from gradedet.sampling import (make_rng, parity_split, rand_component,
                               rand_degrees, rand_invertible,
                               rand_invertible_parity_blocks, rand_matrix,
                               rand_parity_sorted_degrees, sorted_degrees)
from gradedet.scalars import CycloScalar, cyclo, rational
from gradedet.serialize import format_matrix

from full_system import (all_fractions, decoded_schur, element_schur,
                         parity_blocks, previous_gber, walked_split)


TRIPPED = {berezinian: ("gber", "det_of_commuting"),
           gdet: ("gdet0", "gdet_sigma", "det_of_commuting"),
           sys.modules[__name__]: ("gber", "gdet0", "gdet_sigma",
                                   "det_of_commuting")}


@pytest.fixture(autouse=True)
def fraction_tripwire(monkeypatch):
    """Every gber value computed in this file, through gber0 too, and
    every gdet0, gdet_sigma and det_of_commuting value has Fraction
    coefficients and no float; returns the calls seen per function."""
    calls = {}
    for module, names in TRIPPED.items():
        for name in names:
            calls[name] = 0
            monkeypatch.setattr(module, name,
                                _checked(getattr(module, name), name, calls))
    return calls


def _checked(exact, name, calls):
    def checked(*args, **kwargs):
        value = exact(*args, **kwargs)
        assert all_fractions(value), f"{name} gave {value.coeffs!r}"
        calls[name] += 1
        return value

    return checked


DN = preset("dual_numbers", 2)
ZERO = DN.group.zero()
E1, E2 = DN.basis_element("eps1"), DN.basis_element("eps2")
ODD1, ODD2 = E1.degree_of(), E2.degree_of()

# a 1|1 invertible even matrix over the dual numbers
NU = (ZERO, ODD1)
M = GradedMatrix(DN, NU, NU,
                 [[DN.one() * 2, E1], [E1 * 3, DN.one()]])


def test_parity_blocks():
    b = parity_blocks(M)
    assert b.superrank == (1, 1)
    assert b.even_degrees == (ZERO,)
    assert b.odd_degrees == (ODD1,)
    assert b.x00.entry(0, 0) == DN.one() * 2
    assert b.x01.entry(0, 0) == E1
    assert b.x10.entry(0, 0) == E1 * 3
    assert b.x11.entry(0, 0) == DN.one()


def test_parity_blocks_rejects_unsorted():
    nu = (ODD1, ZERO)
    m = GradedMatrix(DN, nu, nu, [[DN.one(), E1 * 2], [E1, DN.one()]])
    with pytest.raises(NotParitySorted):
        parity_blocks(m)


def test_udl():
    u, d, lo = udl(M)
    assert matmul(u, matmul(d, lo)) == M
    assert u.degree_of() == ZERO and lo.degree_of() == ZERO
    assert d.is_homogeneous_of(M.degree_of())
    assert u.entry(1, 0).is_zero() and lo.entry(0, 1).is_zero()
    assert gber0(u) == DN.one()
    assert gber0(lo) == DN.one()
    # D carries the whole Berezinian
    assert gber0(d) == gber0(M)


def test_gber_worked_value():
    # Schur = 2 - eps1 * 1 * 3 eps1 = 2 (odd squares vanish), X11 = 1
    assert gber0(M) == DN.one() * 2
    got = gber0(GradedMatrix(DN, NU, NU,
                             [[DN.one(), E1], [-E1, DN.one() * 2]]))
    # Schur = 1 + eps1 eps1 / 2 = 1, X11 = 2
    assert got == DN.one() * rational(1, 2)


def test_the_tripwire_sees_every_gber(fraction_tripwire):
    gber0(M)
    gber(M, all_ns_multipliers(DN.lam)[-1])
    assert fraction_tripwire["gber"] == 2
    assert not all_fractions(DN.from_scalar(CycloScalar(1, (0.5,))))


def test_the_tripwire_sees_every_determinant(fraction_tripwire):
    # a value of root order 3 pads its constant term with a zero
    q = preset("quaternions")
    zeta = q.from_scalar(cyclo(1, 3))
    x = GradedMatrix(q, [q.group.zero()], [q.group.zero()], [[zeta]])
    assert gdet0(x) == zeta
    assert gdet_sigma(x, all_ns_multipliers(q.lam)[-1]) == zeta
    assert det_of_commuting([[zeta]], q) == zeta
    assert fraction_tripwire["gdet0"] == 1
    assert fraction_tripwire["gdet_sigma"] == 1
    # gdet0 and gdet_sigma reach det_of_commuting too
    assert fraction_tripwire["det_of_commuting"] == 3


def test_gber_needs_even_homogeneous():
    m = GradedMatrix(DN, NU, NU, [[DN.one() + E1 * E2, E1],
                                  [E1, DN.one()]])
    with pytest.raises(OddDegree):
        gber0(m)
    odd = GradedMatrix(DN, NU, NU,
                       [[E2 * 2, E1 * E2], [E1 * E2 * 5, E2]])
    assert odd.degree_of() == ODD2
    with pytest.raises(OddDegree):
        gber0(odd)


def test_gber_singular_odd_block():
    m = GradedMatrix(DN, NU, NU, [[DN.one(), E1], [E1, DN.zero()]])
    with pytest.raises(SingularOddBlock):
        gber0(m)
    with pytest.raises(SingularOddBlock):
        udl(m)
    for sigma in all_ns_multipliers(DN.lam):
        with pytest.raises(SingularOddBlock):
            gber_via_ber_super(m, sigma)


def test_gber_singular_schur_complement():
    # X11 = 1 is invertible, the Schur complement is 0
    m = GradedMatrix(DN, NU, NU, [[DN.zero(), DN.zero()],
                                  [DN.zero(), DN.one()]])
    with pytest.raises(Singular) as info:
        gber0(m)
    assert type(info.value) is Singular
    assert "Schur complement is not invertible" in str(info.value)
    # a 2|1 matrix whose Schur complement [[1, 1], [1, 1]] is singular
    nu = (ZERO, ZERO, ODD1)
    one, zero = DN.one(), DN.zero()
    m = GradedMatrix(DN, nu, nu, [[one, one, E1], [one, one, zero],
                                  [zero, zero, one * 3]])
    with pytest.raises(Singular) as info:
        gber0(m)
    assert "Schur complement is not invertible" in str(info.value)


def test_gber_inverts_one_element(monkeypatch):
    # gber solves twice: X11^(-1) in the block step and one 1x1 system,
    # for P = Gdet(Schur) Gdet(X11); the element is read off the system's
    # integer grid, which is scale / T times P
    seen = []

    def recording(alg, a, order, table, scale, *rest):
        seen.append((a, order, scale))
        return _solve_grid(alg, a, order, table, scale, *rest)

    rng = make_rng("one-inversion")
    x = rand_invertible_parity_blocks(
        rng, DN, rand_parity_sorted_degrees(rng, DN, 2, 2), 2)
    sigma = all_ns_multipliers(DN.lam)[3]
    want = gber_via_ber_super(x, sigma)
    monkeypatch.setattr(berezinian, "_solve_grid", recording)
    assert gber(x, sigma) == want
    assert [len(a) for a, _, _ in seen] == [2, 1]
    (cell,), = seen[1][0]
    order, scale = seen[1][1:]
    t_den = algebra._int_table(DN, order)[1]
    p = algebra._decode(DN, order, ((idx, Fraction(v * t_den, scale))
                                    for idx, v in cell.items()))
    blocks, schur = decoded_schur(x)
    assert p == gdet_sigma(schur, sigma) * gdet_sigma(blocks.x11, sigma)


def _order_three_algebra():
    """grassmann:2 times the group algebra of Z_3 on the basis t^a / f(a),
    f = (1, 1/2, 1), twisted by a symmetric order-3 multiplier: lambda is
    unchanged, and the structure constants are cube roots of unity times
    +-1/2, +-1, +-2 or +-4, so the integer table is scaled by T = 2 over
    Z[zeta_3]."""
    group = GradingGroup([2, 3])
    lam = Bicharacter(group, 2, [[1, 0], [0, 0]])
    subsets = [(), (1,), (2,), (1, 2)]
    basis = [(xs, a) for xs in subsets for a in range(3)]
    f = (Fraction(1), Fraction(1, 2), Fraction(1))
    structure = {}
    for i, (xs, a) in enumerate(basis):
        for j, (ys, b) in enumerate(basis):
            if set(xs) & set(ys):
                continue
            sign = (-1) ** sum(x > y for x in xs for y in ys)
            k = basis.index((tuple(sorted(xs + ys)), (a + b) % 3))
            structure[i, j] = {k: sign * f[(a + b) % 3] / (f[a] * f[b])}
    base = make_algebra(
        [(len(xs) % 2, a) for xs, a in basis], structure, lam,
        name="grassmann_t3",
        labels=[f"xi{''.join(map(str, xs))}t{a}" for xs, a in basis])
    return twist(base, Multiplier(group, 3, [[0, 0], [0, 1]]))


SCHUR_ALGEBRAS = {"dual_numbers:2": lambda: DN,
                  "grassmann:3": lambda: preset("grassmann", 3),
                  "odd_line": _odd_line_tensor,
                  "order_three": _order_three_algebra}


@pytest.mark.parametrize("name", sorted(SCHUR_ALGEBRAS))
def test_integer_schur_matches_element_products(name):
    alg = SCHUR_ALGEBRAS[name]()
    rng = make_rng(f"integer-schur-{name}")
    if name == "order_three":
        assert algebra._int_table(alg, 1)[:2] == (3, 2)
    evens = [d for d in unit_degrees(alg)
             if not parity(alg.lam, d)]
    for r0, r1 in ((1, 1), (2, 1), (1, 2), (2, 2), (3, 2)):
        nu = rand_parity_sorted_degrees(rng, alg, r0, r1)
        degree = rng.choice(sorted(evens, key=lambda d: d.residues))
        x = rand_invertible_parity_blocks(rng, alg, nu, r1, degree)
        # rows scaled by powers of zeta_3 bring Q(zeta_3) coefficients in
        zetas = [cyclo(rng.randrange(3), 3) for _ in nu]
        for y in (x, GradedMatrix(alg, nu, nu,
                                  [[e * z for e in row]
                                   for row, z in zip(x.entries, zetas)])):
            blocks, schur = decoded_schur(y)
            assert schur == element_schur(y)
            assert all(all_fractions(e) for row in schur.entries
                       for e in row)
            u, dmat, lo = udl(y)
            assert dmat.entries[0][:r0] == schur.entries[0]
            assert matmul(u, matmul(dmat, lo)) == y
            x11inv = invert_matrix(blocks.x11)
            assert u.entries[0][r0:] == (blocks.x01 @ x11inv).entries[0]


def _torsor_sigma(alg):
    """An NS multiplier of order 6 on _order_three_algebra: the solved one
    at order 6 plus 2 at the Z_3 diagonal, so that J_sigma factors and
    the sigma(d,d) prefactor reach cube roots of unity."""
    base = all_ns_multipliers(alg.lam)[0].at_order(6)
    exps = [list(row) for row in base.exponents]
    exps[1][1] += 2
    sigma = Multiplier(alg.group, 6, exps)
    assert is_ns_multiplier(alg.lam, sigma)
    return sigma


@pytest.mark.parametrize("name", sorted(SCHUR_ALGEBRAS))
def test_schur_of_the_twisted_conversion_is_j_sigma_of_the_schur(name):
    # J_sigma is a functor: the block step on X converted over the twisted
    # table with the J_sigma factors folded in (as gber converts) decodes
    # to J_sigma of the base-table Schur complement, and to the inverse of
    # J_sigma(X11)
    alg = SCHUR_ALGEBRAS[name]()
    rng = make_rng(f"functor-schur-{name}")
    sigmas = all_ns_multipliers(alg.lam)
    if name == "order_three":
        sigmas.append(_torsor_sigma(alg))
    degrees = sorted((d for d in unit_degrees(alg)
                      if d and not parity(alg.lam, d)),
                     key=lambda d: d.residues) or [alg.group.zero()]
    for r0, r1 in ((1, 1), (2, 1), (1, 2), (2, 2)):
        for sigma in sigmas:
            nu = rand_parity_sorted_degrees(rng, alg, r0, r1)
            x = rand_invertible_parity_blocks(rng, alg, nu, r1,
                                              rng.choice(degrees))
            d, r0 = berezinian._split(x, "test")
            twisted = twist(alg, sigma)
            conversion = algebra._int_entries(
                x.entries, twisted, j_sigma_exponents(alg.degrees, nu, sigma),
                sigma.root_order)
            inverse, schur = berezinian._schur(twisted, conversion, d, nu, r0)
            blocks, base_schur = decoded_schur(x)
            nu0, nu1 = nu[:r0], nu[r0:]
            order = conversion[2]
            assert GradedMatrix(twisted, nu0, nu0, algebra._decode_grid(
                twisted, order, *schur)) == j_sigma(base_schur, sigma)
            assert GradedMatrix(twisted, nu1, nu1, algebra._decode_grid(
                twisted, order, *inverse)) == invert_matrix(
                    j_sigma(blocks.x11, sigma))


SUPERRANKS = ((0, 0), (0, 1), (0, 2), (1, 0), (2, 0), (1, 1), (2, 1),
              (1, 2), (2, 2), (3, 2))


@pytest.mark.parametrize("name", sorted(SCHUR_ALGEBRAS))
def test_gber_matches_the_previous_route(name):
    # the integer route against previous_gber (element determinants, one
    # element inversion, element products) and the super oracle, with
    # rows also scaled by powers of zeta_3; the values print alike
    # wherever the twisted table's root order divides X's
    alg = SCHUR_ALGEBRAS[name]()
    rng = make_rng(f"previous-gber-{name}")
    sigmas = all_ns_multipliers(alg.lam)
    if name == "order_three":
        sigmas.append(_torsor_sigma(alg))
    degrees = sorted((d for d in unit_degrees(alg)
                      if d and not parity(alg.lam, d)),
                     key=lambda d: d.residues) or [alg.group.zero()]
    reached, printed = set(), 0
    for r0, r1 in SUPERRANKS:
        for sigma in sigmas:
            nu = rand_parity_sorted_degrees(rng, alg, r0, r1)
            x = rand_invertible_parity_blocks(rng, alg, nu, r1,
                                              rng.choice(degrees))
            zetas = [cyclo(rng.randrange(3), 3) for _ in nu]
            scaled = GradedMatrix(alg, nu, nu,
                                  [[e * z for e in row]
                                   for row, z in zip(x.entries, zetas)])
            root = sigma.root_order
            grid = j_sigma_exponents(alg.degrees, nu, sigma)
            d = x.degree_of()
            if 2 * r1 * (r0 - r1) * sigma.exponent(d, d) % root:
                reached.add("prefactor")
            for y in (x, scaled):
                got, previous = gber(y, sigma), previous_gber(y, sigma)
                assert got == previous == gber_via_ber_super(y, sigma)
                # a J_sigma factor other than +-1 on a nonzero coefficient
                if any(2 * exps[k] % root
                       for row, erow in zip(y.entries, grid)
                       for e, exps in zip(row, erow) for k in e.coeffs):
                    reached.add("factor")
                tw_order = algebra._int_table(twist(alg, sigma), 1)[0]
                if algebra._int_entries(y.entries, alg)[2] % tw_order == 0:
                    assert repr(got) == repr(previous)
                    printed += 1
    assert printed
    want = {"factor", "prefactor"} if name == "order_three" else set()
    assert reached == want


def test_gber_writes_its_value_at_the_conversion_order():
    # entries of root orders 3 and 4: zeta_3 comes back written at order
    # 12, the order of X's conversion, as before
    x = GradedMatrix(DN, NU, NU, [[DN.from_scalar(cyclo(1, 3)),
                                   E1 * cyclo(1, 4)], [E1, DN.one()]])
    assert gber0(x) == DN.from_scalar(cyclo(1, 3))
    assert repr(gber0(x)) == "-1 + z^2"
    # X at order 3 and a twisted table at order 6: the value is decoded
    # once at order 6, where the element products wrote each coefficient
    # at order 3 (zeta_6 = 1 + zeta_3)
    alg = _order_three_algebra()
    sigma = _torsor_sigma(alg)
    z, w = cyclo(1, 3), -cyclo(2, 3)
    nu = (alg.group.element((0, 2)), alg.group.element((1, 2)))
    x = GradedMatrix(alg, nu, nu, [
        [alg.element({"xit2": z, "xi12t2": -6 * z}),
         alg.element({"xi1t2": -9 * z})],
        [alg.element({"xi1t2": 9 * w}),
         alg.element({"xit2": w, "xi12t2": 5 * w})]])
    got = gber(x, sigma)
    assert got == previous_gber(x, sigma) == gber_via_ber_super(x, sigma)
    assert algebra._int_table(twist(alg, sigma), 1)[0] == 6
    assert repr(got) == "(z)*xit0 + (-11*z)*xi12t0"
    assert repr(previous_gber(x, sigma)) == (
        "(1 + z)*xit0 + (-11 - 11*z)*xi12t0")
    # an odd line over Z_3 x Z_2 and sigma of order 6: the J_sigma factor
    # zeta_3 falls only on zero entries, so gber writes zeta_3 at order 3,
    # as gdet_sigma does, where the factors of the whole diagonal blocks
    # once made it order 6
    group = GradingGroup([3, 2])
    line = make_algebra(
        [group.zero(), group.element((0, 1))],
        {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}},
        Bicharacter(group, 2, [[0, 0], [0, 1]]), labels=["1", "xi"])
    sigma = Multiplier(group, 6, [[2, 0], [0, 3]])
    nu = [group.element(d) for d in ((1, 0), (2, 0), (0, 1))]
    o, one = line.zero(), line.one()
    x = GradedMatrix(line, nu, nu, [[line.from_scalar(z), o, o],
                                    [o, one, o], [o, o, one]])
    got = gber(x, sigma)
    assert got == gber_via_ber_super(x, sigma) == line.from_scalar(z)
    assert repr(got) == repr(gdet_sigma(x, sigma)) == "z"


Q = preset("quaternions")
NOT_NS = Multiplier(Q.group, 2, [[1, 1], [1, 0]])


def test_gdet_sigma_and_gber_refuse_a_sigma_that_is_not_ns():
    nu = [Q.group.element((1, 1)), Q.group.element((1, 0))]
    x = rand_matrix(make_rng("not-ns"), Q, nu)
    with pytest.raises(InvalidParams, match="not an NS multiplier"):
        gdet_sigma(x, NOT_NS)
    with pytest.raises(InvalidParams, match="not an NS multiplier"):
        gber(x, NOT_NS)
    # the NS multipliers still agree, and the checks of today come first
    values = [gdet_sigma(x, s) for s in all_ns_multipliers(Q.lam)]
    assert all(v == values[0] for v in values)
    wide = GradedMatrix(Q, nu, nu[:1], [[Q.one()], [Q.zero()]])
    with pytest.raises(NotSquare):
        gdet_sigma(wide, NOT_NS)
    odd = GradedMatrix(DN, NU, NU, [[DN.one(), E1], [E1, DN.one()]])
    trivial = Multiplier(DN.group, 1, [[0, 0], [0, 0]])
    with pytest.raises(OddEntries):
        gdet_sigma(odd, trivial)
    with pytest.raises(SingularOddBlock):
        gber(GradedMatrix(DN, NU, NU, [[DN.one(), E1], [E1, DN.zero()]]),
             trivial)
    with pytest.raises(InvalidParams, match="not an NS multiplier"):
        gber(M, trivial)
    # a sigma over another group is refused as such, before any exponent
    # is read (a rank-1 sigma used to raise IndexError here)
    with pytest.raises(IncompatibleGroups):
        gdet_sigma(x, Multiplier(GradingGroup([2]), 2, [[1]]))


def test_gber_morphism():
    rng = make_rng("gber-morphism")
    for _ in range(8):
        nu = rand_parity_sorted_degrees(rng, DN, 2, 1)
        x = rand_invertible_parity_blocks(rng, DN, nu, 1)
        y = rand_invertible_parity_blocks(rng, DN, nu, 1)
        assert gber0(matmul(x, y)) == gber0(x) * gber0(y)


def test_gber_matches_super_oracle():
    rng = make_rng("gber-oracle")
    for _ in range(4):
        nu = rand_parity_sorted_degrees(rng, DN, 1, 2)
        x = rand_invertible_parity_blocks(rng, DN, nu, 2)
        for sigma in all_ns_multipliers(DN.lam)[:4]:
            assert gber(x, sigma) == gber_via_ber_super(x, sigma)
            assert gber(x, sigma) == gber0(x)


def test_ber_super_requires_supercommutative():
    with pytest.raises(InvalidParams):
        ber_super(M)


def test_grassmann_one_one():
    gr = preset("grassmann", 2)
    nu = (gr.group.zero(), gr.group.element((1,)))
    a, b, c, d = Fraction(3), Fraction(5), Fraction(7), Fraction(2)
    x = GradedMatrix(gr, nu, nu,
                     [[gr.from_scalar(a), gr.basis_element("xi1") * b],
                      [gr.basis_element("xi2") * c, gr.from_scalar(d)]])
    want = gr.element({"1": a / d, "xi12": -b * c / (d * d)})
    assert gber0(x) == want


def test_ber_super_classic_diagonal():
    # over the twisted (already supercommutative) Grassmann algebra the
    # classical two-block formula applies directly
    gr = preset("grassmann", 2)
    from gradedet.algebra import twist
    from gradedet.gdet import canonical_sigma
    tw = twist(gr, canonical_sigma(gr))
    nu = (tw.group.zero(), tw.group.element((1,)))
    y = GradedMatrix(tw, nu, nu,
                     [[tw.one() * 6, tw.zero()], [tw.zero(), tw.one() * 3]])
    assert ber_super(y) == tw.one() * 2
    assert ber_super_components(y) == (tw.one() * 6, tw.one() * 3)


def test_block_values_and_even_reduction():
    rng = make_rng("gber-blocks")
    nu = rand_parity_sorted_degrees(rng, DN, 2, 1)
    x00 = rand_invertible(rng, DN, nu[:2])
    x11 = rand_invertible(rng, DN, nu[2:])
    grid = [[DN.zero()] * 3 for _ in range(3)]
    for i in range(2):
        for j in range(2):
            grid[i][j] = x00.entry(i, j)
    grid[2][2] = x11.entry(0, 0)
    bd = GradedMatrix(DN, nu, nu, grid)
    assert gber0(bd) == gdet0(x00) * invert_element(gdet0(x11))
    # no odd part at all: the Berezinian is the determinant
    quat = preset("quaternions")
    q_nu = [quat.group.zero(), quat.basis_element("j").degree_of()]
    q = rand_invertible(rng, quat, q_nu)
    assert gber0(q) == gdet0(q)
    assert gber0(identity(DN, nu)) == DN.one()



GR = preset("grassmann", 2)
G0, G1 = GR.group.zero(), GR.group.element((1,))
XI, ONE, NIL = GR.basis_element("xi1"), GR.one(), GR.zero()
INHOMOGENEOUS = ("OddDegree",
                 "{} needs a homogeneous matrix, got an inhomogeneous one")
ODD = ("OddDegree", "{} needs an even homogeneous degree, got <1>")
NOT_SQUARE = ("NotSquare", "a parity-block split needs a square matrix with "
              "equal row and column degree vectors")
UNSORTED = ("NotParitySorted", "degree vector parities [1, 0] are not "
            "sorted even-then-odd; permute the basis first (see "
            "permutation_matrix)")
# name -> (X, the outcomes of gber0, udl and ber_super): an error's name and
# message ("{}" stands for the routine's name), or the repr of the value
SPLIT_CASES = {
    "inhomogeneous": (GradedMatrix(GR, [G0, G1], [G0, G1],
                                   [[ONE, XI + ONE], [XI, ONE]]),
                      (INHOMOGENEOUS,) * 3),
    "odd_degree": (GradedMatrix(GR, [G0, G1], [G0, G1],
                                [[XI, ONE], [ONE, XI]]), (ODD,) * 3),
    # the degree is checked before the shape and the parity order
    "odd_and_not_square": (GradedMatrix(GR, [G0, G1], [G0], [[XI], [ONE]]),
                           (ODD,) * 3),
    "inhomogeneous_and_unsorted": (
        GradedMatrix(GR, [G1, G0], [G1, G0], [[ONE, XI + ONE], [XI, ONE]]),
        (INHOMOGENEOUS,) * 3),
    "unsorted": (GradedMatrix(GR, [G1, G0], [G1, G0],
                              [[ONE, XI], [XI, ONE]]), (UNSORTED,) * 3),
    "not_square": (GradedMatrix(GR, [G0, G1], [G0], [[ONE], [XI]]),
                   (NOT_SQUARE,) * 3),
    "unequal_degree_vectors": (GradedMatrix(GR, [G0, G1], [G0, G0],
                                            [[ONE, NIL], [NIL, XI]]),
                               (NOT_SQUARE,) * 3),
    "zero": (GradedMatrix(GR, [G0, G1], [G0, G1], [[NIL, NIL], [NIL, NIL]]),
             (("SingularOddBlock", "the odd-odd block is not invertible"),)
             * 3),
    "zero_even": (GradedMatrix(GR, [G0], [G0], [[NIL]]),
                  (("Singular", "Gdet_sigma of the Schur complement is not "
                    "invertible; the matrix is not invertible"),
                   "([1], [0], [1])", "0")),
    "empty": (GradedMatrix(GR, [], [], []), ("1", "([], [], [])", "1")),
}


@pytest.mark.parametrize("name", list(SPLIT_CASES))
def test_block_split_outcomes_are_pinned(name):
    # the split reads the degree and the parities off the degree index and
    # builds no block; each refusal keeps the type, message and order of
    # the split that walked the degrees and built the parity blocks first
    x, outcomes = SPLIT_CASES[name]
    for fn, outcome in zip((gber0, udl, ber_super), outcomes):
        if isinstance(outcome, str):
            assert repr(fn(x)) == outcome
            continue
        error, text = outcome
        with pytest.raises(Exception) as exc:
            fn(x)
        assert type(exc.value).__name__ == error
        routine = fn.__name__.split("0")[0]
        assert str(exc.value) == text.format(routine)


SPLIT_DRAW_ALGEBRAS = {
    "dual_numbers:2": lambda: DN,
    "grassmann:3": lambda: preset("grassmann", 3),
    "quaternions": lambda: preset("quaternions"),
    "order_three": _order_three_algebra,
    "twisted_dual_numbers:2": lambda: twist(DN, all_ns_multipliers(DN.lam)[3]),
}
SPLIT_DRAW_KINDS = ("square", "not_square", "inhomogeneous", "odd_degree",
                    "unsorted", "zero")


def _split_outcome(split, x):
    """(d, r0) from split(x, "split"), or the type and message of its
    refusal."""
    try:
        return split(x, "split")
    except GradedetError as exc:
        return type(exc), str(exc)


def _walked_outcome(x, what):
    d, blocks = walked_split(x, what)
    return d, len(blocks.even_degrees)


@pytest.mark.parametrize("name", sorted(SPLIT_DRAW_ALGEBRAS))
def test_split_matches_the_walked_split(name):
    # seeded square, non-square, inhomogeneous, odd-degree, unsorted and
    # zero matrices: the split on the degree index has the outcome, value
    # or refusal, of the split that walked every degree pair and built the
    # parity blocks
    alg = SPLIT_DRAW_ALGEBRAS[name]()
    rng = make_rng(f"split-{name}")
    pool = sorted_degrees(alg)
    evens = parity_split(alg)[0]
    reached = set()
    for kind in SPLIT_DRAW_KINDS * 20:
        n = rng.randint(1, 3)
        nu = sorted(rand_degrees(rng, alg, n),
                    key=lambda d: parity(alg.lam, d))
        # a degree of either parity, so that two refusals can compete
        mu, degree = nu, rng.choice(evens if kind == "square" else pool)
        if kind == "not_square":
            mu = rand_degrees(rng, alg, rng.choice((n, n + 1)))
        elif kind == "unsorted":
            nu = mu = nu[::-1]
        x = rand_matrix(rng, alg, nu, degree, mu)
        if kind in ("inhomogeneous", "zero"):
            grid = [[alg.zero() if kind == "zero" else e for e in row]
                    for row in x.entries]
            if kind == "inhomogeneous":
                i, j = rng.randrange(len(mu)), rng.randrange(n)
                grid[i][j] += rand_component(rng, alg, rng.choice(pool),
                                             nonzero=True)
            x = GradedMatrix(alg, mu, nu, grid)
        got = _split_outcome(berezinian._split, x)
        assert got == _split_outcome(_walked_outcome, x)
        error = got[0] if isinstance(got[0], type) else None
        reached.add("split" if error is None else error.__name__ + (
            " inhomogeneous" if "inhomogeneous" in got[1] else ""))
    want = {"split", "NotSquare", "OddDegree inhomogeneous"}
    if parity_split(alg)[1]:
        want |= {"OddDegree", "NotParitySorted"}
    assert reached == want


def test_gber_on_the_index_builds_no_graded_matrix(monkeypatch, tmp_path,
                                                   capsys):
    # the split reads the superrank and the degree vector off X: gber and
    # ber_super_components build no block as a matrix, and a CLI gber job
    # builds the document's matrix only
    path = tmp_path / "m.json"
    path.write_text(json.dumps(format_matrix(M)))
    sigmas = all_ns_multipliers(DN.lam)
    ys = [j_sigma(M, sigma) for sigma in sigmas]
    want = [(gber_via_ber_super(M, sigma), ber_super_components(y))
            for sigma, y in zip(sigmas, ys)]
    built = []
    init = GradedMatrix.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(GradedMatrix, "__init__", counted)
    assert [(gber(M, sigma), ber_super_components(y))
            for sigma, y in zip(sigmas, ys)] == want
    assert built == []
    assert cli.main(["gber", "--algebra", "preset:dual_numbers:2",
                     "--matrix", str(path), "--sigma", "auto"]) == 0
    assert json.loads(capsys.readouterr().out)["result"] == [
        {"b": "1", "c": "2"}]
    assert len(built) == 1
