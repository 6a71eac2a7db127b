"""Parity block decomposition, UDL factorization, and the graded
Berezinian.

For a parity-sorted degree vector (even degrees first), a homogeneous
even-degree invertible matrix X factors as U D L with unitriangular U, L
and block-diagonal D = diag(Schur complement, X11).  The graded Berezinian
is sigma(x,x)^(-r1(r0-r1)) Gdet_sigma(X00 - X01 X11^(-1) X10)
Gdet_sigma(X11)^(-1); ber_super is the independent classical-Berezinian
path over the twisted (supercommutative) algebra, which matches gber
exactly once the sigma bookkeeping between the twisted product and the
base product is carried out.  udl, gber and ber_super share one block
step, _schur: the even-degree check, the parity split, X11^(-1) and the
Schur complement.  The step is a user of the integer layer of
algebra.py: X is converted once, X11^(-1) comes from the shared integer
solve as ints over one denominator, X01 X11^(-1) X10 is summed through
the integer table, and the Schur complement is decoded once.  gber
inverts one element: with P = Gdet_sigma(Schur) Gdet_sigma(X11),
Gdet_sigma(X11)^(-1) = P^(-1) Gdet_sigma(Schur).  The oracle route
applies J_sigma before that step and gber after it, so the two routes
share only block arithmetic.
"""

from fractions import Fraction

from .algebra import (INHOMOGENEOUS, _decode, _decode_grid, _dot,
                      _int_entries, _solve_grid, _try_invert,
                      invert_element, is_supercommutative, transport)
from .errors import (InvalidParams, NotInvertible, NotParitySorted,
                     OddDegree, Singular, SingularOddBlock)
from .gdet import _det_sigma, _ns_twist, canonical_sigma, det_of_commuting
from .gmatrix import (GradedMatrix, _require_endo, block_matrix, identity,
                      j_sigma, zero_matrix)
from .grading import parity
from .scalars import cyclo


class ParityBlocks:
    """The four parity blocks of a matrix and the even and odd degrees of
    its degree vector."""

    def __init__(self, x00, x01, x10, x11, even_degrees, odd_degrees):
        self.x00, self.x01, self.x10, self.x11 = x00, x01, x10, x11
        self.even_degrees = even_degrees
        self.odd_degrees = odd_degrees

    @property
    def superrank(self):
        return len(self.even_degrees), len(self.odd_degrees)


def parity_blocks(x):
    """Split a square matrix with a parity-sorted degree vector (all even
    degrees before all odd ones) into its four parity blocks."""
    _require_endo(x, "a parity-block split")
    lam = x.algebra.lam
    parities = [parity(lam, d) for d in x.col_degrees]
    r0 = parities.count(0)
    if any(parities[:r0]) or not all(parities[r0:]):
        raise NotParitySorted(
            f"degree vector parities {parities} are not sorted "
            "even-then-odd; permute the basis first (see "
            "permutation_matrix/change_basis)")
    nu0 = x.col_degrees[:r0]
    nu1 = x.col_degrees[r0:]

    def block(rows, cols, rdeg, cdeg):
        return GradedMatrix(x.algebra, rdeg, cdeg,
                            [[x.entries[i][j] for j in cols] for i in rows])

    n = x.nrows
    even_idx, odd_idx = range(r0), range(r0, n)
    return ParityBlocks(
        x00=block(even_idx, even_idx, nu0, nu0),
        x01=block(even_idx, odd_idx, nu0, nu1),
        x10=block(odd_idx, even_idx, nu1, nu0),
        x11=block(odd_idx, odd_idx, nu1, nu1),
        even_degrees=nu0,
        odd_degrees=nu1,
    )


def _schur(x, what):
    """The block arithmetic shared by the Berezinian routes: checks that X
    is homogeneous of even degree d, splits it into parity blocks and
    returns (d, blocks, inverse, S) for X11^(-1) = _decode_grid(alg,
    *inverse) and the Schur complement S = X00 - X01 X11^(-1) X10.

    X is converted once (_int_entries: D X over the table scaled by T)
    and X11^(-1) is solved as y / e on the X11 sub-grid at degree d
    (_solve_grid).  Each table product carries one T, so _dot sums
    X01 (-y) X10 to -T^2 D^2 e X01 X11^(-1) X10, onto T^2 D e D X00: S
    is that sum over T^2 D^2 e, decoded once."""
    d = x.degree_of()
    if d is INHOMOGENEOUS:
        raise OddDegree(f"{what} needs a homogeneous matrix, got an "
                        "inhomogeneous one")
    if parity(x.algebra.lam, d):
        raise OddDegree(f"{what} needs an even homogeneous degree, got "
                        f"{d!r}")
    blocks = parity_blocks(x)
    alg, nu0, nu1 = x.algebra, blocks.even_degrees, blocks.odd_degrees
    r0 = len(nu0)
    a, den, order, t_den, table = _int_entries(x.entries, alg)
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
    whole = scale * den
    grid = []
    for arow, lrow in zip(a, left):
        out = []
        for a00, col in zip(arow, right):
            acc = _dot(table, lrow, col,
                       {s: scale * v for s, v in a00.items()})
            out.append(_decode(alg, order, ((s, Fraction(v, whole))
                                            for s, v in acc.items() if v)))
        grid.append(out)
    schur = GradedMatrix(alg, nu0, nu0, grid)
    return d, blocks, (order, y, e), schur


def udl(x):
    """X = U D L with U = [[I, X01 X11^(-1)], [0, I]],
    D = diag(X00 - X01 X11^(-1) X10, X11), L = [[I, 0], [X11^(-1) X10, I]].
    U and L are homogeneous of degree 0, D of the degree of X."""
    _, blocks, inverse, schur = _schur(x, "udl")
    alg = x.algebra
    nu0, nu1 = blocks.even_degrees, blocks.odd_degrees
    x11inv = GradedMatrix(alg, nu1, nu1, _decode_grid(alg, *inverse))
    i0, i1 = identity(alg, nu0), identity(alg, nu1)
    z01, z10 = zero_matrix(alg, nu0, nu1), zero_matrix(alg, nu1, nu0)
    u = block_matrix(i0, blocks.x01 @ x11inv, z10, i1)
    dmat = block_matrix(schur, z01, z10, blocks.x11)
    lmat = block_matrix(i0, z01, x11inv @ blocks.x10, i1)
    return u, dmat, lmat


def gber(x, sigma):
    """sigma(x,x)^(-r1(r0-r1)) Gdet_sigma(Schur) Gdet_sigma(X11)^(-1) on a
    homogeneous even-degree invertible matrix with parity-sorted degrees.
    Both blocks are even by construction (X has even degree, and the
    degrees within a diagonal block share one parity), so the determinants
    skip gdet_sigma's input checks.  sigma must be an NS multiplier, as
    for gdet_sigma; InvalidParams otherwise, after the block step's checks.
    P = Gdet_sigma(Schur) Gdet_sigma(X11) is invertible exactly when both
    factors are, and P^(-1) Gdet_sigma(Schur) is then a left, hence
    two-sided, inverse of Gdet_sigma(X11); only a singular P inverts
    Gdet_sigma(X11) alone, to name the singular factor."""
    d, blocks, _, schur = _schur(x, "gber")
    twisted = _ns_twist(x.algebra, sigma, "gber")
    r0, r1 = blocks.superrank
    det0 = _det_sigma(schur, sigma, twisted)
    det1 = _det_sigma(blocks.x11, sigma, twisted)
    try:
        inv1 = invert_element(det0 * det1) * det0
    except NotInvertible as exc:
        if _try_invert(det1) is None:
            raise Singular("Gdet_sigma of the odd-odd block is not "
                           "invertible") from exc
        raise Singular(
            "Gdet_sigma of the Schur complement is not invertible; the "
            "matrix is not invertible") from exc
    n_ord = sigma.root_order
    exp = (-r1 * (r0 - r1) * sigma.exponent(d, d)) % n_ord
    return (det0 * inv1) * cyclo(exp, n_ord)


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
    _, blocks, _, schur = _schur(y, "ber_super")
    comp0 = det_of_commuting(schur.entries, y.algebra)
    comp1 = det_of_commuting(blocks.x11.entries, y.algebra)
    return comp0, comp1


def ber_super(y):
    """det(Y00 - Y01 Y11^(-1) Y10) det(Y11)^(-1), everything in Y's own
    (supercommutative) algebra."""
    comp0, comp1 = ber_super_components(y)
    try:
        inv1 = invert_element(comp1)
    except NotInvertible as exc:
        raise Singular("det of the odd-odd block is not invertible") from exc
    return comp0 * inv1


def gber_via_ber_super(x, sigma):
    """The oracle path: the classical Berezinian of J_sigma(X) over the
    twisted algebra, read back in the base algebra.  Exactly equals
    gber(x, sigma); the sigma(x,x) prefactor of the direct formula is what
    the twisted products and inverses contribute."""
    return transport(ber_super(j_sigma(x, sigma)), x.algebra)
