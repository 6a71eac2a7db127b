"""Seeded random instances for tests and verification sweeps.

Every sampler takes an explicit random.Random so runs are reproducible:
the same seed always yields the same instances.  Coefficients are sparse
rationals with numerators and denominators bounded by 10.  Invertible
matrices come from rejection sampling with exact singularity detection,
falling back to a unitriangular-times-diagonal product that is invertible
by construction, so samplers never return a singular matrix.
"""

import random
from fractions import Fraction

from .algebra import unit_witness
from .errors import MissingUnit, Singular
from .gmatrix import (GradedMatrix, block_matrix, diagonal, identity,
                      invert_matrix, matmul, zero_matrix)
from .grading import parity

# rejection-sampling attempts before the constructive fallbacks
INVERTIBLE_ATTEMPTS = 5
PARITY_BLOCKS_ATTEMPTS = 4
# the share of basis coefficients drawn in a random component
DENSITY = 0.75


def make_rng(seed=0):
    return random.Random(seed)


def rand_fraction(rng, nonzero=False):
    while True:
        num = rng.randint(-10, 10)
        if num == 0 and nonzero:
            continue
        den = rng.randint(2, 10) if rng.random() < 0.25 else 1
        return Fraction(num, den)


def rand_component(rng, algebra, degree, nonzero=False):
    """A random element of the homogeneous component A^degree; the zero
    element when the component is empty (regardless of nonzero)."""
    idxs = algebra.component_indices(degree)
    if not idxs:
        return algebra.zero()
    for _ in range(20):
        coeffs = {}
        for k in idxs:
            if rng.random() < DENSITY:
                c = rand_fraction(rng)
                if c:
                    coeffs[k] = c
        if coeffs or not nonzero:
            return algebra.element(coeffs)
    return algebra.basis_element(idxs[0])


def sorted_degrees(algebra):
    return sorted(algebra.realized_degrees(), key=lambda d: d.residues)


def parity_split(algebra):
    """Realized degrees of A split into (even, odd), each sorted."""
    evens, odds = [], []
    for d in sorted_degrees(algebra):
        (odds if parity(algebra.lam, d) else evens).append(d)
    return evens, odds


def rand_degrees(rng, algebra, n):
    """A degree vector drawn from the realized degrees of A."""
    pool = sorted_degrees(algebra)
    return tuple(rng.choice(pool) for _ in range(n))


def rand_parity_constant_degrees(rng, algebra, n):
    """A degree vector whose entries share one parity, so that degree-even
    matrices over it have entries of even degree."""
    evens, odds = parity_split(algebra)
    pool = odds if (odds and rng.random() < 0.35) else evens
    return tuple(rng.choice(pool) for _ in range(n))


def rand_parity_sorted_degrees(rng, algebra, r0, r1):
    """r0 even degrees followed by r1 odd degrees, all realized in A."""
    evens, odds = parity_split(algebra)
    if r1 and not odds:
        raise MissingUnit(f"{algebra.name} has no realized odd degrees")
    return (tuple(rng.choice(evens) for _ in range(r0))
            + tuple(rng.choice(odds) for _ in range(r1)))


def rand_matrix(rng, algebra, nu, degree=None, mu=None):
    """A random homogeneous matrix of the given degree (default 0) with row
    degrees mu (default nu) and column degrees nu."""
    mu = nu if mu is None else mu
    x = algebra.group.zero() if degree is None else degree
    grid = [[rand_component(rng, algebra, x - mi + nj)
             for nj in nu] for mi in mu]
    return GradedMatrix(algebra, mu, nu, grid)


def rand_unitriangular(rng, algebra, nu, r0, upper=True):
    """The degree-0 block matrix [[I, B], [0, I]] (upper) or
    [[I, 0], [B, I]] over nu split after r0 entries, with B random."""
    nu0, nu1 = nu[:r0], nu[r0:]
    i0, i1 = identity(algebra, nu0), identity(algebra, nu1)
    if upper:
        return block_matrix(i0, rand_matrix(rng, algebra, nu1, mu=nu0),
                            zero_matrix(algebra, nu1, nu0), i1)
    return block_matrix(i0, zero_matrix(algebra, nu0, nu1),
                        rand_matrix(rng, algebra, nu0, mu=nu1), i1)


def rand_invertible(rng, algebra, nu, degree=None):
    """A random invertible homogeneous matrix of the given degree (default
    0).  Rejection sampling first; if every attempt is singular, build
    U D L with U, L block-unitriangular (split in the middle) and D an
    invertible diagonal, which needs a unit of the requested degree in
    A."""
    x = algebra.group.zero() if degree is None else degree
    for _ in range(INVERTIBLE_ATTEMPTS):
        cand = rand_matrix(rng, algebra, nu, x)
        try:
            invert_matrix(cand)
            return cand
        except Singular:
            continue
    w = unit_witness(algebra, x)
    if w is None:
        raise MissingUnit(
            f"cannot build an invertible degree-{x.residues} matrix: "
            f"{algebra.name} has no invertible element of that degree")
    d = diagonal(algebra, nu, [w[0] * rand_fraction(rng, nonzero=True)
                               for _ in nu])
    u = rand_unitriangular(rng, algebra, nu, len(nu) // 2)
    lo = rand_unitriangular(rng, algebra, nu, len(nu) // 2, upper=False)
    return matmul(matmul(u, d), lo)


def rand_invertible_parity_blocks(rng, algebra, nu, r1, degree=None):
    """A random invertible homogeneous even-degree matrix over parity-sorted
    nu whose odd-odd block is invertible too (the shape the Berezinian
    needs).  Fallback: block-unitriangular times block-diagonal."""
    x = algebra.group.zero() if degree is None else degree
    n = len(nu)
    r0 = n - r1
    for _ in range(PARITY_BLOCKS_ATTEMPTS):
        cand = rand_matrix(rng, algebra, nu, x)
        try:
            invert_matrix(cand)
        except Singular:
            continue
        block = [[cand.entry(i, j) for j in range(r0, n)]
                 for i in range(r0, n)]
        try:
            invert_matrix(GradedMatrix(algebra, nu[r0:], nu[r0:], block))
            return cand
        except Singular:
            continue
    d0 = rand_invertible(rng, algebra, nu[:r0], x)
    d1 = rand_invertible(rng, algebra, nu[r0:], x)
    d = block_matrix(d0, zero_matrix(algebra, nu[:r0], nu[r0:]),
                     zero_matrix(algebra, nu[r0:], nu[:r0]), d1)
    u = rand_unitriangular(rng, algebra, nu, r0)
    lo = rand_unitriangular(rng, algebra, nu, r0, upper=False)
    return matmul(matmul(u, d), lo)
