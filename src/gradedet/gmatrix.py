"""Graded matrices over a graded algebra.

A matrix carries a row degree vector mu, a column degree vector nu and
entries in the algebra; it is homogeneous of degree x when entry (i,j)
is homogeneous of degree x - mu_i + nu_j.  This module provides the
homogeneity bookkeeping, products, the left module action, the J_sigma
transform into the twisted algebra (a root-of-unity rescaling of each
stored coefficient), the graded trace, inversion through the graded
solve of algebra.solve_inverse and permutation matrices built from
homogeneous units.  Operations on endomorphism matrices (equal row and
column degree vectors) share one precondition, _require_endo.
"""

from .algebra import (AlgebraElement, INHOMOGENEOUS, _dot, degree_index,
                      invert_element, solve_inverse, twist, unit_witness)
from .errors import (DegreeMismatch, InhomogeneousScalar, InvalidParams,
                     MissingUnit, MixedAlgebras, NotSquare, Singular)
from .grading import parity
from .scalars import cyclo


def superrank(lam, degrees):
    """(r_even, r_odd) through the parity of lam."""
    r1 = sum(parity(lam, d) for d in degrees)
    return len(degrees) - r1, r1


def _coerce_degrees(group, degrees):
    return tuple(d if hasattr(d, "residues") else group.element(d)
                 for d in degrees)


class GradedMatrix:
    __slots__ = ("algebra", "row_degrees", "col_degrees", "entries")

    def __init__(self, algebra, row_degrees, col_degrees, entries):
        self.algebra = algebra
        self.row_degrees = _coerce_degrees(algebra.group, row_degrees)
        self.col_degrees = _coerce_degrees(algebra.group, col_degrees)
        m, n = len(self.row_degrees), len(self.col_degrees)
        rows = []
        if len(entries) != m:
            raise InvalidParams(f"expected {m} rows, got {len(entries)}")
        for row in entries:
            if len(row) != n:
                raise InvalidParams(f"expected {n} columns, got {len(row)}")
            out = []
            for e in row:
                if isinstance(e, AlgebraElement):
                    if e.algebra is not algebra and e.algebra != algebra:
                        raise MixedAlgebras(
                            f"entry from {e.algebra!r} in a matrix over "
                            f"{algebra!r}")
                    out.append(e)
                else:
                    out.append(algebra.from_scalar(e))
            rows.append(tuple(out))
        self.entries = tuple(rows)

    @property
    def nrows(self):
        return len(self.row_degrees)

    @property
    def ncols(self):
        return len(self.col_degrees)

    def entry(self, i, j):
        return self.entries[i][j]

    def is_endo(self):
        return self.row_degrees == self.col_degrees

    def degree_of(self):
        """The homogeneous degree, INHOMOGENEOUS, or the group zero for the
        zero matrix (homogeneous of every degree)."""
        pairs, grid = _degree_pairs(self.row_degrees, self.col_degrees)
        found = [set() for _ in pairs]
        for row, prow in zip(self.entries, grid):
            for e, p in zip(row, prow):
                found[p].update(e.coeffs)
        degrees = self.algebra.degrees
        degs = {g + (mu - nu) for (mu, nu), ks in zip(pairs, found)
                for g in {degrees[k] for k in ks}}
        degs = degs or {self.algebra.group.zero()}
        return next(iter(degs)) if len(degs) == 1 else INHOMOGENEOUS

    def is_homogeneous_of(self, x):
        """Entry (i,j) may hold e_k only when deg e_k + mu_i = x + nu_j,
        which is decided on the numbers of the algebra's degree index."""
        index = degree_index(self.algebra)
        target, empty = index.number(x), frozenset()
        rows = map(index.shifted, index.numbers(self.row_degrees))
        cols = [index.add(target, b) for b in index.numbers(self.col_degrees)]
        for row, allowed in zip(self.entries, rows):
            for e, t in zip(row, cols):
                if not e.coeffs.keys() <= allowed.get(t, empty):
                    return False
        return True

    def map_entries(self, fn):
        return GradedMatrix(self.algebra, self.row_degrees, self.col_degrees,
                            [[fn(e) for e in row] for row in self.entries])

    def __add__(self, other):
        if not isinstance(other, GradedMatrix):
            return NotImplemented
        self._check_compatible(other)
        return GradedMatrix(self.algebra, self.row_degrees, self.col_degrees,
                            [[a + b for a, b in zip(r1, r2)]
                             for r1, r2 in zip(self.entries, other.entries)])

    def __sub__(self, other):
        if not isinstance(other, GradedMatrix):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return self.map_entries(lambda e: -e)

    def __mul__(self, s):
        if isinstance(s, (GradedMatrix, AlgebraElement)):
            return NotImplemented
        return self.map_entries(lambda e: e * s)

    __rmul__ = __mul__

    def _check_compatible(self, other):
        if other.algebra is not self.algebra and other.algebra != self.algebra:
            raise MixedAlgebras(
                f"matrices over {self.algebra!r} and {other.algebra!r}")
        if (self.row_degrees != other.row_degrees
                or self.col_degrees != other.col_degrees):
            raise DegreeMismatch(
                "matrix addition needs identical degree vectors")

    def __matmul__(self, other):
        if not isinstance(other, GradedMatrix):
            return NotImplemented
        return matmul(self, other)

    def __eq__(self, other):
        if not isinstance(other, GradedMatrix):
            return NotImplemented
        return (self.algebra == other.algebra
                and self.row_degrees == other.row_degrees
                and self.col_degrees == other.col_degrees
                and self.entries == other.entries)

    __hash__ = None

    def __repr__(self):
        rows = "; ".join(", ".join(repr(e) for e in row)
                         for row in self.entries)
        return f"[{rows}]"


def _degree_pairs(mu, nu):
    """(pairs, grid): the distinct (mu_i, nu_j), each distinct mu with
    each distinct nu, and grid[i][j], the index of (mu_i, nu_j) in pairs."""
    rows = {a: s for s, a in enumerate(dict.fromkeys(mu))}
    cols = {b: t for t, b in enumerate(dict.fromkeys(nu))}
    pairs = [(a, b) for a in rows for b in cols]
    col_index = [cols[b] for b in nu]
    return pairs, [[s + t for t in col_index]
                   for s in [rows[a] * len(cols) for a in mu]]


def _require_endo(x, what):
    if not x.is_endo():
        raise NotSquare(f"{what} needs a square matrix with equal row and "
                        "column degree vectors")


def identity(algebra, degrees):
    degrees = _coerce_degrees(algebra.group, degrees)
    n = len(degrees)
    one, zero = algebra.one(), algebra.zero()
    return GradedMatrix(algebra, degrees, degrees,
                        [[one if i == j else zero for j in range(n)]
                         for i in range(n)])


def zero_matrix(algebra, row_degrees, col_degrees):
    zero = algebra.zero()
    return GradedMatrix(algebra, row_degrees, col_degrees,
                        [[zero for _ in col_degrees] for _ in row_degrees])


def block_matrix(b00, b01, b10, b11):
    """The 2x2 block matrix [[B00, B01], [B10, B11]]: its row degrees are
    those of B00 then B10, its column degrees those of B00 then B01."""
    return GradedMatrix(
        b00.algebra, b00.row_degrees + b10.row_degrees,
        b00.col_degrees + b01.col_degrees,
        [r0 + r1 for r0, r1 in zip(b00.entries, b01.entries)]
        + [r0 + r1 for r0, r1 in zip(b10.entries, b11.entries)])


def diagonal(algebra, degrees, elems):
    degrees = _coerce_degrees(algebra.group, degrees)
    n = len(degrees)
    if len(elems) != n:
        raise InvalidParams("diagonal needs one entry per degree")
    zero = algebra.zero()
    return GradedMatrix(algebra, degrees, degrees,
                        [[elems[i] if i == j else zero for j in range(n)]
                         for i in range(n)])


def matmul(x, y):
    if y.algebra is not x.algebra and y.algebra != x.algebra:
        raise MixedAlgebras(f"matrices over {x.algebra!r} and {y.algebra!r}")
    if x.col_degrees != y.row_degrees:
        raise DegreeMismatch(
            f"inner degree vectors differ: {list(x.col_degrees)} vs "
            f"{list(y.row_degrees)}")
    alg = x.algebra
    table = alg.table
    cols = [[row[j].coeffs for row in y.entries] for j in range(y.ncols)]
    out = []
    for xrow in x.entries:
        xrow = [e.coeffs for e in xrow]
        out.append([AlgebraElement(alg, _dot(table, xrow, col))
                    for col in cols])
    return GradedMatrix(alg, x.row_degrees, y.col_degrees, out)


def scalar_action(a, x):
    """Left module action: (a.X)^i_j = lambda(deg a, mu_i) a X^i_j, the
    factor moving a past the row basis vector of degree mu_i."""
    da = a.degree_of()
    if da is INHOMOGENEOUS:
        raise InhomogeneousScalar(
            "the module action needs a homogeneous scalar")
    lam = x.algebra.lam
    out = []
    for i, mu in enumerate(x.row_degrees):
        factor = lam.value(da, mu)
        out.append([(a * e) * factor for e in x.entries[i]])
    return GradedMatrix(x.algebra, x.row_degrees, x.col_degrees, out)


def j_sigma_exponents(degrees, nu, sigma):
    """grid[i][j][k] = e: J_sigma multiplies the coefficient of basis
    vector k, of degree g = degrees[k], in entry (i,j) of a matrix with
    degree vector nu by zeta_N^e, N = sigma.root_order.  Biadditivity
    splits e into a column vector, a row vector and a pair scalar,
      sigma(g + nu_i - nu_j, nu_j) - sigma(nu_i, g) = sigma(g, nu_j)
        - sigma(nu_i, g) + sigma(nu_i, nu_j) - sigma(nu_j, nu_j) (mod N),
    so no degree is added and entries of equal (nu_i, nu_j) share a list."""
    ex, n = sigma.exponent, sigma.root_order
    rows = {d: [ex(d, g) for g in degrees] for d in dict.fromkeys(nu)}
    cols = {d: [ex(g, d) for g in degrees] for d in rows}
    pairs, grid = _degree_pairs(nu, nu)
    exps = [[(s + c - r) % n for r, c in zip(rows[a], cols[b])]
            for a, b in pairs for s in [ex(a, b) - ex(b, b)]]
    return [[exps[p] for p in prow] for prow in grid]


def j_sigma(x, sigma):
    """The twist transform, valued over twist(A, sigma): the coefficient
    of a basis vector e of degree g in X^i_j is multiplied by
    sigma(d, nu_j) sigma(nu_i, g)^(-1), where d = g + nu_i - nu_j is the
    degree of the homogeneous component it belongs to; inhomogeneous input
    thus transforms componentwise: cyclo(e, N), e from j_sigma_exponents."""
    _require_endo(x, "J_sigma")
    twisted = twist(x.algebra, sigma)
    nu, n_ord = x.col_degrees, sigma.root_order
    grid = [[AlgebraElement(twisted, {k: cyclo(exps[k], n_ord) * c
                                      for k, c in e.coeffs.items()})
             for e, exps in zip(row, erow)]
            for row, erow in zip(x.entries, j_sigma_exponents(
                x.algebra.degrees, nu, sigma))]
    return GradedMatrix(twisted, nu, nu, grid)


def graded_trace(x):
    """Sum over homogeneous components of degree d of
    sum_i lambda(nu_i, d + nu_i) X^i_i."""
    _require_endo(x, "the graded trace")
    lam = x.algebra.lam
    acc = x.algebra.zero()
    for i, nui in enumerate(x.col_degrees):
        for d, part in x.entries[i][i].homogeneous_components().items():
            acc = acc + part * lam.value(nui, d + nui)
    return acc


def invert_matrix(x):
    """The two-sided inverse of a square matrix, from the graded solve of
    X Y = I (algebra.solve_inverse); the inverse of a homogeneous matrix
    of degree d is homogeneous of degree -d."""
    if x.nrows != x.ncols:
        raise NotSquare("only square matrices can be inverted")
    alg = x.algebra
    grid = solve_inverse(alg, x.entries, x.row_degrees, x.col_degrees,
                         x.degree_of())
    if grid is None:
        raise Singular(f"matrix is not invertible over {alg.name}")
    return GradedMatrix(alg, x.col_degrees, x.row_degrees, grid)


def _check_permutation(pi, n):
    pi = tuple(int(v) for v in pi)
    if sorted(pi) != list(range(n)):
        raise InvalidParams(f"{pi} is not a permutation of 0..{n - 1}")
    return pi


def permutation_matrix(algebra, pi, nu, units=None):
    """P(pi)^i_j = delta^i_(pi(j)) t_(nu_i)^(-1) t_(nu_j), homogeneous of
    degree 0; pi -> P(pi) is a group morphism because the units cancel in
    products.  Units default to the witnesses found by unit_degrees; a
    units map {degree: invertible homogeneous element} overrides."""
    nu = _coerce_degrees(algebra.group, nu)
    n = len(nu)
    pi = _check_permutation(pi, n)
    ts = {}
    tinvs = {}
    for d in set(nu):
        if units is not None and d in units:
            t = units[d]
            if t.degree_of() != d:
                raise InvalidParams(
                    f"supplied unit for degree {d!r} has degree "
                    f"{t.degree_of()!r}")
            ts[d] = t
            tinvs[d] = invert_element(t)
            continue
        pair = unit_witness(algebra, d)
        if pair is None:
            raise MissingUnit(
                f"no invertible homogeneous element of degree {d!r} in "
                f"{algebra.name}; supply units from a crossed-product "
                "tensor factor")
        ts[d], tinvs[d] = pair
    zero = algebra.zero()
    grid = [[zero for _ in range(n)] for _ in range(n)]
    for j in range(n):
        i = pi[j]
        grid[i][j] = tinvs[nu[i]] * ts[nu[j]]
    return GradedMatrix(algebra, nu, nu, grid)


def shift_degrees(x, shift):
    """Regrade by a constant: both degree vectors move by the same group
    element, entries unchanged (the homogeneous degree is unchanged)."""
    return GradedMatrix(x.algebra,
                        [d + shift for d in x.row_degrees],
                        [d + shift for d in x.col_degrees],
                        [list(row) for row in x.entries])
