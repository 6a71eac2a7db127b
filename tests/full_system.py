"""The inverse oracle: X Y = I as one scalar system over every basis vector,
solved by Gauss-Jordan elimination on CycloScalars.  It shares no code with
algebra.solve_inverse beyond the table product, so the tests can hold the
integer solve against it.  The Schur complement oracle forms
X00 - X01 X11^(-1) X10 from element-level matrix products, so the tests
can hold the Berezinian's integer block step against it.  previous_gber
is the Berezinian as it was computed before it ran on the integer layer
from end to end: two determinants decoded and transported, one element
inversion and four element products.  leibniz_det_commutative is the n!
term reference for det_of_commuting, and change_basis the base change
P^(-1) X P the tests move matrices by."""

import itertools
from fractions import Fraction

from gradedet import scalars
from gradedet.algebra import (INHOMOGENEOUS, _decode_grid, _int_entries,
                              _table_product, invert_element, twist)
from gradedet.berezinian import _schur, _split, parity_blocks
from gradedet.errors import (DegreeMismatch, GradedetError, NotInvertible,
                             Singular)
from gradedet.gdet import _det_sigma, _require_ns, permutation_sign
from gradedet.gmatrix import GradedMatrix, _require_endo, invert_matrix
from gradedet.scalars import ONE, ZERO, cyclo


def solve_scalar_system(matrix, rhs):
    """Solve M X = R over the scalar field by Gauss-Jordan elimination.
    R is given as rows; returns the solution rows, or None if M is
    singular."""
    n = len(matrix)
    w = len(rhs[0]) if rhs else 0
    aug = [list(matrix[i]) + list(rhs[i]) for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col]), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        inv_p = scalars.inv(aug[col][col])
        row = aug[col]
        for j in range(col, n + w):
            if row[j]:
                row[j] = row[j] * inv_p
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                other = aug[r]
                for j in range(col, n + w):
                    if row[j]:
                        other[j] = other[j] - f * row[j]
    return [row[n:] for row in aug]


def left_regular_matrix(a):
    """The matrix of x |-> a*x on the basis, as scalar rows."""
    alg = a.algebra
    cols = [_table_product(alg.table, a.coeffs, {j: ONE}, {})
            for j in range(alg.dim)]
    return [[col.get(k, ZERO) for col in cols] for k in range(alg.dim)]


def full_grid_inverse(alg, entries):
    """The grid Y with X Y = I from the whole n*dim scalar system, whose
    (i, k) block is the left-regular matrix of X^i_k, or None if it is
    singular."""
    n, dim = len(entries), alg.dim
    blocks = [[left_regular_matrix(e) for e in row] for row in entries]
    m = [[blocks[i][k][r][c] for k in range(n) for c in range(dim)]
         for i in range(n) for r in range(dim)]
    rhs = [[ONE if (i, r) == (j, alg.unit_index) else ZERO
            for j in range(n)] for i in range(n) for r in range(dim)]
    sol = solve_scalar_system(m, rhs)
    if sol is None:
        return None
    return [[alg.element({c: sol[k * dim + c][j] for c in range(dim)})
             for j in range(n)] for k in range(n)]


def full_system_inverse(x):
    """X^(-1) from the whole scalar system, or None if X is singular."""
    grid = full_grid_inverse(x.algebra, x.entries)
    if grid is None:
        return None
    return GradedMatrix(x.algebra, x.col_degrees, x.row_degrees, grid)


def element_schur(x):
    """X00 - X01 @ invert_matrix(X11) @ X10 for a parity-sorted X, each
    product and the difference taken entry by entry on elements."""
    b = parity_blocks(x)
    return b.x00 - b.x01 @ invert_matrix(b.x11) @ b.x10


def decoded_schur(x):
    """(blocks, S) for a parity-sorted X of even degree: the parity blocks
    and the Schur complement of the integer block step, decoded at the
    root order of X's conversion."""
    d, blocks = _split(x, "test")
    conversion = _int_entries(x.entries, x.algebra)
    _, schur = _schur(x.algebra, conversion, d, blocks)
    nu0 = blocks.even_degrees
    return blocks, GradedMatrix(x.algebra, nu0, nu0, _decode_grid(
        x.algebra, conversion[2], *schur))


def previous_gber(x, sigma):
    """gber through elements after the block step: Gdet_sigma of the
    decoded Schur complement and of X11, each read back in the base
    algebra, P = det0 det1 inverted as an element, and
    (det0 (P^(-1) det0)) sigma(d,d)^(-r1(r0-r1))."""
    d, blocks = _split(x, "gber")
    schur = decoded_schur(x)[1]
    twisted = _require_ns(x.algebra, twist(x.algebra, sigma), "gber")
    r0, r1 = blocks.superrank
    det0 = _det_sigma(schur, sigma, twisted)
    det1 = _det_sigma(blocks.x11, sigma, twisted)
    try:
        inv1 = invert_element(det0 * det1) * det0
    except NotInvertible as exc:
        raise Singular(
            "Gdet_sigma of the Schur complement is not invertible; the "
            "matrix is not invertible") from exc
    n_ord = sigma.root_order
    exp = (-r1 * (r0 - r1) * sigma.exponent(d, d)) % n_ord
    return (det0 * inv1) * cyclo(exp, n_ord)


def all_fractions(a):
    """True when every stored coefficient of the element a is a Fraction:
    an int / int reaching a coefficient would leave a float here."""
    return all(type(f) is Fraction for c in a.coeffs.values()
               for f in c.coeffs)


class NonCommutingEntries(GradedetError):
    pass


def leibniz_det_commutative(y, rng=None):
    """Classical Leibniz determinant of a matrix whose entries pairwise
    commute (validated).  With an rng, the factors inside every term are
    multiplied in a shuffled order, which must not change the value.  It
    is the reference the test suite holds det_of_commuting to: n! terms,
    no shared intermediate values, no sweep."""
    _require_endo(y, "leibniz_det_commutative")
    alg = y.algebra
    flat = [e for row in y.entries for e in row]
    for a, b in itertools.combinations(flat, 2):
        if a * b != b * a:
            raise NonCommutingEntries(
                "two entries do not commute; the Leibniz sum would be "
                "order-dependent")
    n = y.nrows
    acc = alg.zero()
    for pi in itertools.permutations(range(n)):
        factors = [y.entries[i][pi[i]] for i in range(n)]
        if rng is not None:
            rng.shuffle(factors)
        term = alg.one()
        for f in factors:
            term = term * f
        if permutation_sign(pi) < 0:
            term = -term
        acc = acc + term
    return acc


def change_basis(x, p):
    """P^(-1) X P, with the transported degree vector taken from P's
    columns."""
    _require_endo(x, "base change")
    if p.row_degrees != x.col_degrees:
        raise DegreeMismatch(
            f"base-change rows {list(p.row_degrees)} do not match the "
            f"matrix degree vector {list(x.col_degrees)}")
    if p.degree_of() is INHOMOGENEOUS or p.degree_of():
        raise DegreeMismatch("base-change matrices must be homogeneous of "
                             "degree 0")
    return invert_matrix(p) @ x @ p
