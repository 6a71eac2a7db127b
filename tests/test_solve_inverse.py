"""algebra.solve_inverse, the integer graded solve behind every inverse,
against the full scalar system of tests/full_system.py, and the tripwire
that no coefficient of an inverse is anything but a Fraction."""

import random

from hypothesis import given, settings, strategies as st

from gradedet.algebra import preset, solve_inverse, twist, unit_degrees
from gradedet.grading import GradingGroup, Multiplier
from gradedet.gmatrix import GradedMatrix
from gradedet.sampling import sorted_degrees

from full_system import all_fractions, full_grid_inverse
from test_det_of_commuting import (_random_multiplier, _random_scalar,
                                   _root_orders)

ROOT_ORDERS = (1, 3, 4, 6, 12)
SPECS = [("quaternions",), ("clifford", 1, 1), ("clifford", 2, 1),
         ("clifford", 0, 2), ("dual_numbers", 2), ("grassmann", 3),
         ("grassmann", 4), ("group_algebra", 2, 3), ("group_algebra", 4),
         ("crossed_product",), ("clock_shift", 3),
         ("twisted_clock_shift", 3), ("twisted_clock_shift", 6)]
KINDS = ("homogeneous", "shape", "inhomogeneous")


def _algebra(spec, rng):
    """The preset of spec; twisted_clock_shift twists clock_shift(3) by a
    random multiplier at the given root order."""
    if spec == ("crossed_product",):
        group = GradingGroup([2, 2])
        return preset("crossed_product", group,
                      Multiplier(group, 2, [[1, 1], [0, 1]]))
    if spec[0] == "twisted_clock_shift":
        alg = preset("clock_shift", 3)
        return twist(alg, _random_multiplier(rng, alg.group, spec[1]))
    return preset(*spec)


def _element(rng, alg, indices, order, fill):
    return alg.element({k: _random_scalar(rng, order) for k in indices
                        if rng.random() < fill})


def _draw(rng, alg, order, n, kind, singular):
    """(entries, mu, nu) of one draw.  homogeneous: mu = nu and a degree
    with a unit, so that most draws are invertible; shape: any mu, nu and
    degree, so that many systems are not square; inhomogeneous: entries
    over every basis vector plus a scalar diagonal.  A singular draw has
    one column zero."""
    pool = sorted_degrees(alg)
    nu = [rng.choice(pool) for _ in range(n)]
    mu = [rng.choice(pool) for _ in range(n)] if kind == "shape" else nu
    fill = 0.3 if alg.dim > 9 else 0.7
    if kind == "inhomogeneous":
        entries = [[_element(rng, alg, range(alg.dim), order, fill)
                    for _ in nu] for _ in mu]
        for i in range(n):
            entries[i][i] = entries[i][i] + alg.from_scalar(rng.randint(1, 3))
    else:
        units = sorted(unit_degrees(alg), key=lambda d: d.residues)
        d = rng.choice(pool if kind == "shape" else units)
        entries = [[_element(rng, alg, alg.component_indices(d - mi + nj),
                             order, fill) for nj in nu] for mi in mu]
    if singular:
        j = rng.randrange(n)
        for row in entries:
            row[j] = alg.zero()
    return entries, mu, nu


@settings(deadline=None, max_examples=150)
@given(spec=st.sampled_from(SPECS), order=st.sampled_from(ROOT_ORDERS),
       n=st.integers(1, 3), kind=st.sampled_from(KINDS),
       singular=st.booleans(), seed=st.integers(0, 2 ** 32))
def test_solve_inverse_matches_the_full_system(spec, order, n, kind,
                                               singular, seed):
    rng = random.Random(seed)
    alg = _algebra(spec, rng)
    n = min(n, 2) if alg.dim > 9 else n
    entries, mu, nu = _draw(rng, alg, order, n, kind, singular)
    degree = GradedMatrix(alg, mu, nu, entries).degree_of()
    got = solve_inverse(alg, entries, mu, nu, degree)
    want = full_grid_inverse(alg, entries)
    assert (got is None) == (want is None)
    if singular:
        assert got is None
    if got is None:
        return
    # With one non-rational root order N in play, every coefficient on
    # both routes is at order N or rational (order 1), so the
    # representations must agree; with two, the full system's orders
    # depend on which entries its elimination combines, and only the
    # values are compared.
    same_form = len(_root_orders(entries, alg)) <= 1
    for grow, wrow in zip(got, want):
        for g, w in zip(grow, wrow):
            assert g == w
            assert all_fractions(g)
            if same_form:
                assert ({k: (c.order, c.coeffs) for k, c in g.coeffs.items()}
                        == {k: (c.order, c.coeffs)
                            for k, c in w.coeffs.items()})

