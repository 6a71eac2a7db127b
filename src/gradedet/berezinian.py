"""Parity block decomposition, UDL factorization, and the graded
Berezinian.

For a parity-sorted degree vector (even degrees first), a homogeneous
even-degree invertible matrix X factors as U D L with unitriangular U, L
and block-diagonal D = diag(Schur complement, X11).  The graded Berezinian
is sigma(x,x)^(-r1(r0-r1)) Gdet_sigma(X00 - X01 X11^(-1) X10)
Gdet_sigma(X11)^(-1); ber_super is the classical Berezinian over a
supercommutative algebra.  udl, gber and ber_super share one block step:
_split (the even-degree check and the even block size r0, read off the
degree index, with no block built) and _schur (X11^(-1) from the shared
integer solve and X00 - X01 X11^(-1) X10 through the integer table, as
ints over one denominator, on a conversion the caller made with
_int_entries; udl and ber_super convert X plainly).

gber and the oracle route gber_via_ber_super both take the Schur
complement of J_sigma(X) over the twisted table, which is J_sigma of the
Schur complement (J_sigma is a functor).  They differ in how J_sigma is
applied: the oracle forms J_sigma(X) element by element (j_sigma), gber
folds its factors into its one conversion, as gdet_sigma does.  They
differ in the inverse: gber stays on ints to one decode, with Berkowitz
over the twisted table for both blocks and one 1x1 solve on the base
table for P = Gdet_sigma(Schur) Gdet_sigma(X11), while the oracle takes
element determinants and an element inverse.  And in the prefactor:
gber multiplies by sigma(d,d)^(-r1(r0-r1)), which the oracle's twisted
products and inverse contribute unasked.
"""

from fractions import Fraction
from math import lcm

from .algebra import (_decode, _decode_grid, _dot, _int_entries,
                      _int_residue, _int_table, _solve_grid, _table_product,
                      degree_index, invert_element, is_supercommutative,
                      transport, twist)
from .errors import (InvalidParams, NotParitySorted, OddDegree, Singular,
                     SingularOddBlock)
from .gdet import _berkowitz, _require_ns, canonical_sigma, det_of_commuting
from .gmatrix import (GradedMatrix, _require_endo, block_matrix, identity,
                      j_sigma, j_sigma_exponents, zero_matrix)
from .scalars import cyclo, euler_phi


def _even_rank(parities):
    """r0, the number of even degrees of a degree vector with these
    parities, when they are sorted (all even degrees before all odd
    ones); NotParitySorted otherwise."""
    r0 = parities.count(0)
    if any(parities[:r0]) or not all(parities[r0:]):
        raise NotParitySorted(
            f"degree vector parities {parities} are not sorted "
            "even-then-odd; permute the basis first (see "
            "permutation_matrix)")
    return r0


def _split(x, what):
    """(d, r0) for X homogeneous of even degree d whose degree vector has
    its r0 even degrees first; OddDegree, NotSquare or NotParitySorted
    otherwise, in that order.  d comes from X's first stored coefficient
    (the group zero for the zero matrix) and is confirmed by
    is_homogeneous_of, and the degree index gives the parities; no
    block is built."""
    alg = x.algebra
    d = alg.group.zero()
    for mu, row in zip(x.row_degrees, x.entries):
        j = next((j for j, e in enumerate(row) if e.coeffs), None)
        if j is not None:
            k = next(iter(row[j].coeffs))
            d = alg.degrees[k] + (mu - x.col_degrees[j])
            break
    if not x.is_homogeneous_of(d):
        raise OddDegree(f"{what} needs a homogeneous matrix, got an "
                        "inhomogeneous one")
    index = degree_index(alg)
    if index.parity(index.number(d)):
        raise OddDegree(f"{what} needs an even homogeneous degree, got "
                        f"{d!r}")
    _require_endo(x, "a parity-block split")
    return d, _even_rank([index.parity(b)
                          for b in index.numbers(x.col_degrees)])


def _schur(alg, conversion, d, nu, r0):
    """The block arithmetic shared by the Berezinian routes, on X of even
    degree d with degree vector nu whose first r0 degrees are even (as
    _split returns them), converted over alg by the caller,
    conversion = _int_entries(...) = (a, D, N, T, table):
    ((y, e), (s, whole)) for X11^(-1) = _decode_grid(alg, N, y, e) and
    the Schur complement S = X00 - X01 X11^(-1) X10 =
    _decode_grid(alg, N, s, whole).

    X11^(-1) is solved as y / e on the X11 sub-grid at degree d
    (_solve_grid).  Each table product carries one T, so _dot sums
    X01 (-y) X10 to -T^2 D^2 e X01 X11^(-1) X10, onto T^2 D e D X00: s
    is that sum, over whole = T^2 D^2 e."""
    nu1 = nu[r0:]
    a, den, order, t_den, table = conversion
    found = _solve_grid(alg, [row[r0:] for row in a[r0:]], order, table,
                        den * t_den, nu1, nu1, d)
    if found is None:
        raise SingularOddBlock("the odd-odd block is not invertible")
    y, e = found
    neg_y = [[{s: -v for s, v in row[j].items()} for row in y]
             for j in range(len(y))]
    left = [[_dot(table, row[r0:], col) for col in neg_y] for row in a[:r0]]
    right = [[row[j] for row in a[r0:]] for j in range(r0)]
    scale = t_den * t_den * den * e
    s = [[_dot(table, lrow, col, {t: scale * v for t, v in a00.items()})
          for a00, col in zip(arow, right)]
         for arow, lrow in zip(a, left)]
    return found, (s, scale * den)


def udl(x):
    """X = U D L with U = [[I, X01 X11^(-1)], [0, I]],
    D = diag(X00 - X01 X11^(-1) X10, X11), L = [[I, 0], [X11^(-1) X10, I]].
    U and L are homogeneous of degree 0, D of the degree of X."""
    d, r0 = _split(x, "udl")
    alg, a, nu = x.algebra, x.entries, x.col_degrees
    conversion = _int_entries(a, alg)
    inverse, schur = _schur(alg, conversion, d, nu, r0)
    order = conversion[2]
    nu0, nu1 = nu[:r0], nu[r0:]
    x11inv = GradedMatrix(alg, nu1, nu1, _decode_grid(alg, order, *inverse))
    schur = GradedMatrix(alg, nu0, nu0, _decode_grid(alg, order, *schur))
    x01 = GradedMatrix(alg, nu0, nu1, [row[r0:] for row in a[:r0]])
    x10 = GradedMatrix(alg, nu1, nu0, [row[:r0] for row in a[r0:]])
    x11 = GradedMatrix(alg, nu1, nu1, [row[r0:] for row in a[r0:]])
    i0, i1 = identity(alg, nu0), identity(alg, nu1)
    z01, z10 = zero_matrix(alg, nu0, nu1), zero_matrix(alg, nu1, nu0)
    u = block_matrix(i0, x01 @ x11inv, z10, i1)
    dmat = block_matrix(schur, z01, z10, x11)
    lmat = block_matrix(i0, z01, x11inv @ x10, i1)
    return u, dmat, lmat


def _invert_ints(alg, g, den, order, table, t_den):
    """(y, e) with (g / den)^(-1) = y / e for an int dict g over the
    integer table of alg at root order N (scaled by t_den), or None when
    it is not invertible: one 1x1 _solve_grid at the degree of g, which
    is homogeneous."""
    g = {idx: v for idx, v in g.items() if v}
    if not g:
        return None
    zero = (alg.group.zero(),)
    degree = alg.degrees[next(iter(g)) // euler_phi(order)]
    found = _solve_grid(alg, [[g]], order, table, den * t_den, zero, zero,
                        degree)
    return None if found is None else (found[0][0][0], found[1])


def gber(x, sigma):
    """sigma(d,d)^(-r1(r0-r1)) Gdet_sigma(Schur) Gdet_sigma(X11)^(-1) on a
    homogeneous invertible matrix X of even degree d with parity-sorted
    degrees.  sigma must be an NS multiplier, as for gdet_sigma;
    InvalidParams otherwise, after the block step's checks, which read d
    and the superrank off the degree index and build no block.

    It runs on ints from one conversion of J_sigma(X) to one decode: X is
    converted over the twisted algebra with the J_sigma factors folded
    in (_int_entries with the j_sigma_exponents grid, as gdet_sigma
    converts), at the root order of that conversion, made a multiple of
    the base table's and, when the prefactor is not +-1, of sigma's; each
    coefficient of the value is written at that order, or at 1 when it
    is rational.  J_sigma is a functor, so the block step on that
    conversion gives J_sigma(Schur), and J_sigma(X11) is its odd-odd
    block.  Both blocks are even (X has even degree, and the degrees
    within a diagonal block share one parity), so Berkowitz applies over
    the twisted table.

    P = Gdet_sigma(Schur) Gdet_sigma(X11) is formed and inverted by one
    1x1 solve on the base table, and P^(-1) Gdet_sigma(Schur) is then a
    left, hence two-sided, inverse of Gdet_sigma(X11).  A singular P
    names the Schur complement: once the block step has inverted X11,
    J_sigma(X11) J_sigma(X11^(-1)) = sigma(d,-d) I, and both factors
    have even entries, which commute over the twisted algebra, so
    Gdet_sigma(X11) is a unit."""
    d, r0 = _split(x, "gber")
    alg = x.algebra
    twisted = twist(alg, sigma)
    r1 = x.nrows - r0
    root = sigma.root_order
    exp = (-r1 * (r0 - r1) * sigma.exponent(d, d)) % root
    conversion = _int_entries(
        x.entries, twisted, j_sigma_exponents(alg.degrees, x.col_degrees,
                                              sigma),
        root, lcm(_int_table(alg, 1)[0], root if 2 * exp % root else 1))
    _, (s, whole) = _schur(twisted, conversion, d, x.col_degrees, r0)
    _require_ns(alg, twisted, "gber")
    a, den, order, t_tw, tw_table = conversion
    _, t_den, table = _int_table(alg, order)
    m = euler_phi(order)

    def gdet(block, scale):
        # Gdet_sigma(B) = g / den for block the ints of scale J_sigma(B)
        n = len(block)
        if not n:
            return {alg.unit_index * m: 1}, 1
        return _berkowitz(block, tw_table), scale ** n * t_tw ** (n - 1)

    g0, den0 = gdet(s, whole)
    g1, den1 = gdet([row[r0:] for row in a[r0:]], den)
    found = _invert_ints(alg, _table_product(table, g0, g1, {}),
                         t_den * den0 * den1, order, table, t_den)
    if found is None:
        raise Singular(
            "Gdet_sigma of the Schur complement is not invertible; the "
            "matrix is not invertible")
    p_inv, e = found
    # Gdet(X11)^(-1) = P^(-1) Gdet(Schur), over T e den0
    inv1 = _table_product(table, p_inv, g0, {})
    # sigma(d,d)^(-r1(r0-r1)) as ints, through one more product (one T)
    pre = dict(enumerate(_int_residue(cyclo(exp, root), order, 1),
                         alg.unit_index * m))
    ber = _table_product(table, pre, _table_product(table, g0, inv1, {}),
                         {})
    scale = t_den ** 3 * den0 ** 2 * e
    return _decode(alg, order,
                   ((idx, Fraction(v, scale)) for idx, v in ber.items()))


def gber0(x):
    """gber with the fixed internal multiplier; the value is independent of
    that choice on degree-0 matrices."""
    return gber(x, canonical_sigma(x.algebra))


def ber_super_components(y):
    """(det(Schur), det(Y11)) of the classical Berezinian over a
    supercommutative algebra, before combining."""
    if not is_supercommutative(y.algebra):
        raise InvalidParams(
            f"{y.algebra.name} is not supercommutative; ber_super applies "
            "to matrices over a twisted algebra")
    d, r0 = _split(y, "ber_super")
    conversion = _int_entries(y.entries, y.algebra)
    _, schur = _schur(y.algebra, conversion, d, y.col_degrees, r0)
    comp0 = det_of_commuting(_decode_grid(y.algebra, conversion[2], *schur),
                             y.algebra)
    comp1 = det_of_commuting([row[r0:] for row in y.entries[r0:]],
                             y.algebra)
    return comp0, comp1


def ber_super(y):
    """det(Y00 - Y01 Y11^(-1) Y10) det(Y11)^(-1), everything in Y's own
    (supercommutative) algebra.  det(Y11) is a unit once the block step
    has inverted Y11: det(Y11) det(Y11^(-1)) = 1, the entries being even,
    hence commuting."""
    comp0, comp1 = ber_super_components(y)
    return comp0 * invert_element(comp1)


def gber_via_ber_super(x, sigma):
    """The oracle path: the classical Berezinian of J_sigma(X) over the
    twisted algebra, read back in the base algebra.  Exactly equals
    gber(x, sigma); the sigma(x,x) prefactor of the direct formula is what
    the twisted products and inverses contribute."""
    return transport(ber_super(j_sigma(x, sigma)), x.algebra)
