"""Grading groups, commutation factors, parity, and multiplier solving."""

import random
from math import gcd, prod

import pytest
from hypothesis import given, settings, strategies as st

from gradedet.algebra import preset
from gradedet.errors import InvalidCommutationFactor, InvalidParams, TooLarge
from gradedet.gdet import all_ns_multipliers
from gradedet.gmatrix import j_sigma_exponents
from gradedet.grading import (Bicharacter, GradingGroup, Multiplier,
                              generator_parities,
                              is_commutation_factor, is_ns_multiplier,
                              lambda_twist, parity, solve_ns_multiplier,
                              trivial_multiplier)
from gradedet.oracles import printed_quaternion_multipliers
from gradedet.scalars import ONE, cyclo, rational

Z22 = GradingGroup([2, 2])

moduli_lists = st.lists(st.integers(1, 4), min_size=1, max_size=3)


@given(moduli_lists, st.data())
def test_group_arithmetic(moduli, data):
    g = GradingGroup(moduli)
    pick = st.tuples(*(st.integers(0, m - 1) for m in moduli))
    x = g.element(data.draw(pick))
    y = g.element(data.draw(pick))
    assert x + y == y + x
    assert x + g.zero() == x
    assert x - x == g.zero()
    assert -(-x) == x
    assert (x + y) - y == x


def test_group_validation():
    with pytest.raises(InvalidParams):
        GradingGroup([0, 2])
    with pytest.raises(InvalidParams):
        Z22.element([1])
    assert Z22.order == 4
    assert Z22.element([3, 5]) == Z22.element([1, 1])
    assert list(Z22.elements())[0] == Z22.zero()


def test_bicharacter_well_definedness():
    # exponent 1 on a Z_2 factor is ill defined at root order 3
    with pytest.raises(InvalidParams):
        Bicharacter(Z22, 3, [[0, 1], [1, 0]])
    f = Bicharacter(Z22, 2, [[0, 1], [1, 0]])
    x, y = Z22.element([1, 0]), Z22.element([0, 1])
    assert f.exponent(x, y) == 1
    assert f.value(x, y) == rational(-1)
    assert f.value(x, x) == ONE


def test_bicharacter_biadditive():
    f = Bicharacter(Z22, 2, [[0, 1], [1, 0]])
    for x in Z22.elements():
        for y in Z22.elements():
            assert f.value(x, y) == cyclo(f.exponent(x, y), 2)
            for z in Z22.elements():
                assert f.value(x + y, z) == f.value(x, z) * f.value(y, z)
                assert f.value(x, y + z) == f.value(x, y) * f.value(x, z)


def test_is_commutation_factor():
    assert is_commutation_factor(Bicharacter(Z22, 2, [[0, 1], [1, 0]]))
    assert is_commutation_factor(Bicharacter(Z22, 2, [[1, 1], [1, 1]]))
    assert not is_commutation_factor(Bicharacter(Z22, 2, [[0, 1], [0, 0]]))
    z33 = GradingGroup([3, 3])
    assert is_commutation_factor(Bicharacter(z33, 3, [[0, 1], [2, 0]]))
    assert not is_commutation_factor(Bicharacter(z33, 3, [[1, 0], [0, 0]]))


def test_parity_quaternions_all_even():
    lam = preset("quaternions").lam
    assert all(parity(lam, x) == 0 for x in lam.group.elements())


def test_parity_additive():
    for name, params in (("dual_numbers", (2,)), ("grassmann", (2,)),
                         ("clifford", (1, 1))):
        lam = preset(name, *params).lam
        gens = generator_parities(lam)
        for x in lam.group.elements():
            want = sum(r * p for r, p in zip(x.residues, gens)) % 2
            assert parity(lam, x) == want
            for y in lam.group.elements():
                assert parity(lam, x + y) == (parity(lam, x)
                                              + parity(lam, y)) % 2


def test_dual_number_generators_odd():
    lam = preset("dual_numbers", 2).lam
    assert generator_parities(lam) == (1, 1)


def test_solve_ns_multiplier():
    for name, params in (("quaternions", ()), ("dual_numbers", (2,)),
                         ("clifford", (0, 2)), ("clifford", (1, 1))):
        lam = preset(name, *params).lam
        sigma = solve_ns_multiplier(lam)
        assert is_ns_multiplier(lam, sigma)


def _steps(moduli, n):
    """An exponent at (i, j) is well defined on the moduli at root order n
    exactly when it is a multiple of n / gcd(n, m_i, m_j)."""
    return [[n // gcd(n, a, b) for b in moduli] for a in moduli]


def _moduli(max_order=None):
    lists = st.lists(st.sampled_from((1, 2, 3, 4, 6, 8)),
                     min_size=1, max_size=3)
    if max_order is None:
        return lists
    return lists.filter(lambda ms: prod(ms) <= max_order)


@st.composite
def commutation_factors(draw, max_order=None):
    """lambda with exponent matrix B at root order N: B_ji = -B_ij, B_ii
    in {0, N/2}, each entry well defined on the moduli."""
    moduli = draw(_moduli(max_order))
    n = draw(st.sampled_from((2, 4, 6, 8, 12)))
    k = len(moduli)
    step = _steps(moduli, n)
    b = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            if i == j:
                b[i][i] = (draw(st.sampled_from((0, n // 2)))
                           if (n // 2) % step[i][i] == 0 else 0)
            else:
                b[i][j] = step[i][j] * draw(
                    st.integers(0, n // step[i][j] - 1))
                b[j][i] = -b[i][j]
    return Bicharacter(GradingGroup(moduli), n, b)


def _exponent_map(draw, cls, group, n, symmetric=False):
    """A random well-defined exponent matrix at root order n."""
    k = group.rank
    step = _steps(group.moduli, n)
    b = [[step[i][j] * draw(st.integers(0, n // step[i][j] - 1))
          for j in range(k)] for i in range(k)]
    if symmetric:
        b = [[b[min(i, j)][max(i, j)] for j in range(k)] for i in range(k)]
    return cls(group, n, b)


@st.composite
def bicharacters(draw, max_order):
    """Any bicharacter, skew or not, at any root order."""
    group = GradingGroup(draw(_moduli(max_order)))
    n = draw(st.sampled_from((1, 2, 3, 4, 6, 8, 12)))
    return _exponent_map(draw, Bicharacter, group, n)


@settings(deadline=None)
@given(commutation_factors())
def test_solver_needs_no_retry(lam):
    assert is_commutation_factor(lam)
    assert is_ns_multiplier(lam, solve_ns_multiplier(lam))


@settings(deadline=None, max_examples=200)
@given(_moduli(max_order=64), st.sampled_from((1, 2, 3, 4, 6, 8, 12)),
       st.data())
def test_j_sigma_exponents_split_biadditively(moduli, n, data):
    """The row/column/pair split equals the exponent of the J_sigma factor
    sigma(g + a - b, b) sigma(a, g)^(-1) for every degree pair (a, b)."""
    group = GradingGroup(moduli)
    sigma = _exponent_map(data.draw, Multiplier, group, n)
    degree = st.builds(group.element, st.tuples(
        *(st.integers(0, m - 1) for m in moduli)))
    degrees = data.draw(st.lists(degree, min_size=1, max_size=6))
    nu = data.draw(st.lists(degree, min_size=1, max_size=4))
    grid = j_sigma_exponents(degrees, nu, sigma)
    for a, row in zip(nu, grid):
        for b, exps in zip(nu, row):
            assert exps == [(sigma.exponent(g + a - b, b)
                             - sigma.exponent(a, g)) % n for g in degrees]


# The definitions the generator-pair checks replace, exhaustive over all
# pairs of group elements.

def pointwise_is_commutation_factor(f):
    elems = list(f.group.elements())
    return all((f.exponent(x, y) + f.exponent(y, x)) % f.root_order == 0
               for x in elems for y in elems)


def pointwise_is_ns_multiplier(lam, sigma):
    tw = lambda_twist(lam, sigma)
    n = tw.root_order
    elems = list(lam.group.elements())
    parities = {x: parity(lam, x) for x in elems}
    for x in elems:
        for y in elems:
            want = 0
            if parities[x] and parities[y]:
                if n % 2:
                    return False
                want = n // 2
            if tw.exponent(x, y) != want:
                return False
    return True


def _outcome(check, *args):
    try:
        return check(*args)
    except InvalidCommutationFactor:
        return "raises"


@settings(deadline=None, max_examples=300)
@given(st.one_of(commutation_factors(max_order=64), bicharacters(64)),
       st.sampled_from(("solved", "symmetric", "any", "random")),
       st.data())
def test_generator_checks_match_pointwise(lam, kind, data):
    assert is_commutation_factor(lam) == pointwise_is_commutation_factor(lam)
    group = lam.group
    if kind == "random" or not is_commutation_factor(lam):
        n = data.draw(st.sampled_from((1, 2, 3, 4, 6, 8, 12)))
        sigma = _exponent_map(data.draw, Multiplier, group, n)
    else:
        # the solver's output times a symmetric map (which twists nothing,
        # so the product is still an NS multiplier) or times any map
        sigma = solve_ns_multiplier(lam)
        if kind != "solved":
            extra = _exponent_map(data.draw, Multiplier, group,
                                  sigma.root_order,
                                  symmetric=kind == "symmetric")
            sigma = Multiplier(group, sigma.root_order,
                               [[a + b for a, b in zip(r, t)] for r, t in
                                zip(sigma.exponents, extra.exponents)])
    want = _outcome(pointwise_is_ns_multiplier, lam, sigma)
    got = _outcome(is_ns_multiplier, lam, sigma)
    if want == "raises":
        # lambda(x, x) is not +-1 somewhere, so lam is not skew and has no
        # NS multiplier; only a generator with that defect raises here
        assert got in ("raises", False)
    else:
        assert got == want


def test_enumerate_counts():
    assert len(all_ns_multipliers(preset("quaternions").lam)) == 8
    assert len(all_ns_multipliers(preset("dual_numbers", 2).lam)) == 8
    assert len(all_ns_multipliers(preset("clifford", 1, 1).lam)) == 64


def test_enumerate_size_limit():
    # over (Z_2)^k the family has 2^(k(k+1)/2) members: k = 5 (clifford:2,2)
    # is the largest accepted, k = 6 is refused before any is built
    assert len(all_ns_multipliers(preset("clifford", 2, 2).lam)) == 2 ** 15
    group = GradingGroup([2] * 6)
    lam = Bicharacter(group, 2, [[int(a == b) for b in range(6)]
                                 for a in range(6)])
    with pytest.raises(TooLarge):
        all_ns_multipliers(lam)


def test_enumerate_is_exactly_the_solution_set():
    lam = preset("quaternions").lam
    found = all_ns_multipliers(lam)
    assert len(set((s.root_order, s.exponents) for s in found)) == len(found)
    for sigma in found:
        assert is_ns_multiplier(lam, sigma)
    # brute force over every exponent matrix at the same root order
    brute = 0
    group = lam.group
    for c11 in range(2):
        for c12 in range(2):
            for c21 in range(2):
                for c22 in range(2):
                    m = Multiplier(group, 2, [[c11, c12], [c21, c22]])
                    brute += is_ns_multiplier(lam, m)
    assert brute == len(found)


def test_printed_multipliers_are_solutions():
    lam = preset("quaternions").lam
    found = all_ns_multipliers(lam)
    for sigma in printed_quaternion_multipliers():
        assert is_ns_multiplier(lam, sigma)
        assert any(sigma == s for s in found)


def test_lambda_twist_gives_super_rule():
    for name, params in (("quaternions", ()), ("dual_numbers", (2,)),
                         ("clifford", (1, 1))):
        lam = preset(name, *params).lam
        for sigma in (solve_ns_multiplier(lam),
                      *all_ns_multipliers(lam)[:3]):
            twisted = lambda_twist(lam, sigma)
            for x in lam.group.elements():
                for y in lam.group.elements():
                    sign = (-1) ** (parity(lam, x) * parity(lam, y))
                    assert twisted.value(x, y) == rational(sign)


def test_trivial_multiplier_keeps_lambda():
    lam = preset("quaternions").lam
    assert lambda_twist(lam, trivial_multiplier(lam.group)) == lam


def test_is_ns_multiplier_rejects():
    lam = preset("quaternions").lam
    assert not is_ns_multiplier(lam, trivial_multiplier(lam.group))


def test_bicharacter_order_change():
    f = Bicharacter(Z22, 2, [[0, 1], [1, 0]])
    g = f.at_order(4)
    assert g == f
    x, y = Z22.element([1, 0]), Z22.element([0, 1])
    assert g.value(x, y) == f.value(x, y)
    assert f.inverse().value(x, y) == ONE / f.value(x, y)
    # equal maps hash equally, whatever root order expresses them
    assert len({f, g}) == 1


def previous_is_ns_multiplier(lam, sigma):
    """is_ns_multiplier as it was built before it read the exponent
    matrices directly: a GroupElement per generator for the parities and
    a validated lambda_twist at the common root order."""
    if lam.group != sigma.group:
        return False
    f = tuple(parity(lam, lam.group.generator(i))
              for i in range(lam.group.rank))
    tw = lambda_twist(lam, sigma)
    half, k = tw.root_order // 2, lam.group.rank
    return all(tw.exponents[i][j] == half * f[i] * f[j]
               for i in range(k) for j in range(k))


PRESET_LAMBDAS = {
    "quaternions": preset("quaternions").lam,
    "clifford:1,1": preset("clifford", 1, 1).lam,
    "clifford:0,2": preset("clifford", 0, 2).lam,
    "clifford:2,1": preset("clifford", 2, 1).lam,
    "dual_numbers:2": preset("dual_numbers", 2).lam,
    "grassmann:3": preset("grassmann", 3).lam,
    "group_algebra:2,3": preset("group_algebra", 2, 3).lam,
    "crossed_product:2,2": preset(
        "crossed_product", Z22, Multiplier(Z22, 2, [[0, 1], [0, 0]])).lam,
    "clock_shift:3": preset("clock_shift", 3).lam,
    "clock_shift:4": preset("clock_shift", 4).lam,
}


@pytest.mark.parametrize("name", sorted(PRESET_LAMBDAS))
def test_is_ns_multiplier_matches_the_previous_construction(name):
    lam = PRESET_LAMBDAS[name]
    family = all_ns_multipliers(lam)
    for sigma in family:
        assert is_ns_multiplier(lam, sigma) is True
        assert previous_is_ns_multiplier(lam, sigma) is True
    rng = random.Random(f"ns-{name}")
    moduli, k = lam.group.moduli, lam.group.rank
    for _ in range(200 // len(PRESET_LAMBDAS)):
        n = rng.choice((1, 2, 3, 4, 6, 8, 12))
        step = _steps(moduli, n)
        sigma = Multiplier(lam.group, n, [
            [step[i][j] * rng.randrange(n // step[i][j]) for j in range(k)]
            for i in range(k)])
        assert is_ns_multiplier(lam, sigma) == previous_is_ns_multiplier(
            lam, sigma)
    # another group is never NS
    other = trivial_multiplier(GradingGroup([5]))
    assert not is_ns_multiplier(lam, other)


def test_is_ns_multiplier_raises_as_before():
    # lambda(g, g) = zeta_3 is not +-1: both constructions refuse it with
    # the same message
    lam = Bicharacter(GradingGroup([3, 2]), 6, [[2, 0], [0, 3]])
    sigma = trivial_multiplier(lam.group)
    with pytest.raises(InvalidCommutationFactor) as new:
        is_ns_multiplier(lam, sigma)
    with pytest.raises(InvalidCommutationFactor) as old:
        previous_is_ns_multiplier(lam, sigma)
    assert str(new.value) == str(old.value)
    assert "zeta_6^2" in str(new.value) and "<1,0>" in str(new.value)
