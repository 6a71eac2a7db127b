"""Seeded input generators that own their randomness.

Every matrix here is drawn from ``random.Random`` streams that the
benchmark creates, never through ``gradedet.sampling``, so a change in how
the library's samplers consume randomness cannot change what the benchmark
measures.  Matrices are built as U D L with unitriangular U and L and a
diagonal D of degree 0, so their graded determinant is known by
construction: the product of D's diagonal.
"""

import hashlib
import random
from fractions import Fraction

from gradedet import GradedMatrix, cyclo, parity, scalar_action
from gradedet.serialize import canonical_json


class Source:
    """Two random streams for one input.  ``shape`` picks what is nonzero
    and where: degree vectors, basis vectors, cells, multipliers.  ``value``
    picks the rational coefficients.  A workload keys ``shape`` by the
    input's place in its plan and ``value`` by the seed as well, so that
    every seed gives inputs of the same structure, and so of the same
    cost, with other coefficients."""

    def __init__(self, shape_key, value_key):
        self.shape = random.Random(shape_key)
        self.value = random.Random(value_key)


def fraction(rng):
    """A nonzero rational with numerator in [-9, 9] and, a quarter of the
    time, a denominator in [2, 9]."""
    num = rng.choice((-9, -8, -7, -6, -5, -4, -3, -2, -1,
                      1, 2, 3, 4, 5, 6, 7, 8, 9))
    den = rng.randint(2, 9) if rng.random() < 0.25 else 1
    return Fraction(num, den)


def component(src, alg, degree, fill=0.5):
    """A random element of the homogeneous component of ``degree`` with
    exactly max(1, round(fill * m)) of its m basis vectors; zero when the
    algebra has no basis vector of that degree.  Fixed counts keep the cost
    of an input steady from seed to seed."""
    idxs = alg.component_indices(degree)
    if not idxs:
        return alg.zero()
    chosen = src.shape.sample(idxs, max(1, round(fill * len(idxs))))
    return alg.element({k: fraction(src.value) for k in sorted(chosen)})


def unit_of_degree_zero(src, alg, fill=0.5):
    """A degree-0 element with a nonzero scalar part; in every algebra used
    here the rest of the degree-0 component is nilpotent, so the element is
    invertible."""
    others = [k for k in alg.component_indices(alg.group.zero())
              if k != alg.unit_index]
    chosen = src.shape.sample(others, round(fill * len(others)))
    coeffs = {k: fraction(src.value) for k in sorted(chosen)}
    coeffs[alg.unit_index] = fraction(src.value)
    return alg.element(coeffs)


def degree_vector(src, alg, n, odd=0):
    """n degrees: n - odd even ones followed by ``odd`` odd ones, drawn from
    the degrees the algebra realizes."""
    evens, odds = [], []
    for d in sorted(alg.realized_degrees(), key=lambda d: d.residues):
        (odds if parity(alg.lam, d) else evens).append(d)
    return (tuple(src.shape.choice(evens) for _ in range(n - odd))
            + tuple(src.shape.choice(odds) for _ in range(odd)))


def _triangular(src, alg, nu, upper, density):
    """Unitriangular, with exactly round(density * n(n-1)/2) nonzero
    entries off the diagonal."""
    n = len(nu)
    one, zero = alg.one(), alg.zero()
    grid = [[one if i == j else zero for j in range(n)] for i in range(n)]
    cells = [(i, j) if upper else (j, i)
             for i in range(n) for j in range(i + 1, n)]
    for i, j in sorted(src.shape.sample(cells,
                                        round(density * len(cells)))):
        grid[i][j] = component(src, alg, nu[j] - nu[i])
    return GradedMatrix(alg, nu, nu, grid)


def udl_matrix(src, alg, nu, density):
    """(X, P): X = U D L of degree 0 over the degree vector nu, with
    P = gdet0(X) by construction.  The trailing principal blocks of X are
    invertible too, so X also has the shape the Berezinian needs when nu
    is parity-sorted.  The product skips the zeros of the triangular
    factors, which keeps the set-up phase short."""
    diag = [unit_of_degree_zero(src, alg) for _ in nu]
    u = _triangular(src, alg, nu, True, density).entries
    lo = _triangular(src, alg, nu, False, density).entries
    n = len(nu)
    dl = [[diag[k] * lo[k][j] if lo[k][j] else None for j in range(n)]
          for k in range(n)]
    grid = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = alg.zero()
            for k in range(max(i, j), n):
                if u[i][k] and dl[k][j] is not None:
                    acc = acc + u[i][k] * dl[k][j]
            row.append(acc)
        grid.append(row)
    product = alg.one()
    for d in diag:
        product = product * d
    return GradedMatrix(alg, nu, nu, grid), product


def shifted_matrix(src, alg, x, product, sigma, degree):
    """(a.X, value): the module action of a homogeneous ``a`` of the given
    nonzero even degree on a degree-0 X with gdet0(X) = product, and the
    value gdet_sigma(a.X) must have by the scalar law
    a^n gdet0(X) sigma(deg a, deg a)^(n(n-1)/2)."""
    a = component(src, alg, degree, 1.0)
    n = x.nrows
    power = alg.one()
    for _ in range(n):
        power = power * a
    k = sigma.exponent(degree, degree) * (n * (n - 1) // 2)
    value = (power * product) * cyclo(k % sigma.root_order,
                                      sigma.root_order)
    return scalar_action(a, x), value


def random_matrix(src, alg, nu, fill):
    """A random, generally inhomogeneous square matrix over nu whose every
    entry has round(fill * dim) nonzero coefficients."""
    k = round(fill * alg.dim)
    grid = [[alg.element({b: fraction(src.value) for b in
                          sorted(src.shape.sample(range(alg.dim), k))})
             for _ in nu] for _ in nu]
    return GradedMatrix(alg, nu, nu, grid)


def digest(items):
    """SHA-256 prefix over a list of JSON-able input descriptions."""
    h = hashlib.sha256()
    for item in items:
        h.update(canonical_json(item).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]
