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
Schur complement.  The oracle route applies J_sigma before that step and
gber after it, so the two routes share only block arithmetic.
"""

from .algebra import INHOMOGENEOUS, invert_element, transport
from .errors import (InvalidParams, NotInvertible, NotParitySorted,
                     OddDegree, Singular, SingularOddBlock)
from .gdet import _det_sigma, canonical_sigma, det_of_commuting
from .gmatrix import (GradedMatrix, _require_endo, block_matrix, identity,
                      invert_matrix, j_sigma, zero_matrix)
from .grading import is_ns_multiplier, parity, trivial_multiplier
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
    returns (d, blocks, X11^(-1), X00 - X01 X11^(-1) X10)."""
    d = x.degree_of()
    if d is INHOMOGENEOUS:
        raise OddDegree(f"{what} needs a homogeneous matrix, got an "
                        "inhomogeneous one")
    if parity(x.algebra.lam, d):
        raise OddDegree(f"{what} needs an even homogeneous degree, got "
                        f"{d!r}")
    blocks = parity_blocks(x)
    try:
        x11inv = invert_matrix(blocks.x11)
    except Singular as exc:
        raise SingularOddBlock(
            "the odd-odd block is not invertible") from exc
    schur = blocks.x00 - blocks.x01 @ x11inv @ blocks.x10
    return d, blocks, x11inv, schur


def udl(x):
    """X = U D L with U = [[I, X01 X11^(-1)], [0, I]],
    D = diag(X00 - X01 X11^(-1) X10, X11), L = [[I, 0], [X11^(-1) X10, I]].
    U and L are homogeneous of degree 0, D of the degree of X."""
    _, blocks, x11inv, schur = _schur(x, "udl")
    alg = x.algebra
    nu0, nu1 = blocks.even_degrees, blocks.odd_degrees
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
    for gdet_sigma."""
    d, blocks, _, schur = _schur(x, "gber")
    r0, r1 = blocks.superrank
    det0 = _det_sigma(schur, sigma)
    det1 = _det_sigma(blocks.x11, sigma)
    try:
        inv1 = invert_element(det1)
    except NotInvertible as exc:
        raise Singular(
            "Gdet_sigma of the odd-odd block is not invertible") from exc
    try:
        invert_element(det0)
    except NotInvertible as exc:
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
    if not is_ns_multiplier(y.algebra.lam, trivial_multiplier(y.algebra.group)):
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
