"""Parity blocks, UDL factorization, and the graded Berezinian."""

import sys
from fractions import Fraction

import pytest

from gradedet import berezinian, gdet
from gradedet.algebra import invert_element, preset
from gradedet.berezinian import (ber_super, ber_super_components, gber,
                                 gber0, gber_via_ber_super, parity_blocks,
                                 udl)
from gradedet.errors import (InvalidParams, NotParitySorted, OddDegree,
                             Singular, SingularOddBlock)
from gradedet.gdet import (all_ns_multipliers, det_of_commuting, gdet0,
                           gdet_sigma)
from gradedet.gmatrix import GradedMatrix, identity, matmul
from gradedet.sampling import (make_rng, rand_invertible,
                               rand_invertible_parity_blocks,
                               rand_parity_sorted_degrees)
from gradedet.scalars import CycloScalar, cyclo, rational

from full_system import all_fractions


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
    def checked(*args):
        value = exact(*args)
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
