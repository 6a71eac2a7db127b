"""The inverse oracle: X Y = I as one scalar system over every basis vector,
solved by Gauss-Jordan elimination on CycloScalars.  It shares no code with
algebra.solve_inverse beyond the table product, so the tests can hold the
integer solve against it.  The Schur complement oracle forms
X00 - X01 X11^(-1) X10 from element-level matrix products, so the tests
can hold the Berezinian's integer block step against it."""

from fractions import Fraction

from gradedet import scalars
from gradedet.algebra import _table_product
from gradedet.berezinian import parity_blocks
from gradedet.gmatrix import GradedMatrix, invert_matrix
from gradedet.scalars import ONE, ZERO


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


def all_fractions(a):
    """True when every stored coefficient of the element a is a Fraction:
    an int / int reaching a coefficient would leave a float here."""
    return all(type(f) is Fraction for c in a.coeffs.values()
               for f in c.coeffs)
