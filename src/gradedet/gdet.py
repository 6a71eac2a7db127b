"""Graded determinants.

gdet0 is the determinant of degree-0 graded matrices, computed as a
classical determinant of the J_sigma transform over the twisted algebra
with a fixed internal multiplier; its value is multiplier-independent.
gdet0_leibniz is the independent explicit formula: a signed sum over
permutations of entry products taken in an admissible order (cycles
consecutive), entirely inside the base algebra.  gdet_sigma extends
det o J_sigma to homogeneous and inhomogeneous matrices whose component
degrees and entry degrees are all even, where the twisted entries commute.
gdet0_via_crossed is a third route through conjugation by invertible
homogeneous units, adjoined from a crossed-product tensor factor when the
algebra lacks them.

Every classical determinant here, and both of the Berezinian's, is
_berkowitz (Berkowitz, division-free, on ints).  det_of_commuting wraps
it with the conversion and the decode; gdet0 and gdet_sigma pass it X's
entries and the J_sigma exponent grid of an NS multiplier, and gber
makes the same conversion of X (_int_entries over the twisted algebra
with that grid) and runs _berkowitz on its blocks.

Entry products of odd degree do not commute after twisting, so determinants
over them would depend on expansion order; such inputs raise OddEntries
instead of returning an arbitrary value.
"""

import itertools
from fractions import Fraction

from .algebra import (_decode, _int_entries, _operator_column,
                      _table_product, adjoined_units, degree_index,
                      is_supercommutative, tensor_embed_left,
                      tensor_project_left, transport, twist, unit_witness)
from .errors import (InvalidOrdering, InvalidParams, NotCrossedProduct,
                     NotDegreeZero, OddEntries, TooLarge)
from .gmatrix import _require_endo, j_sigma_exponents, shift_degrees
from .grading import Multiplier, parity, solve_ns_multiplier

# gdet0_leibniz sums n! terms: 40,320 at n = 8, ten times that at n = 9
LEIBNIZ_MAX_N = 8
# all_ns_multipliers lists 2^bits multipliers: 32,768 over (Z_2)^5
NS_FAMILY_MAX_BITS = 15


# ---------------------------------------------------------------------------
# orderings

def permutation_cycles(pi):
    """Disjoint cycles, each started at its least element, sorted by least
    element."""
    seen = [False] * len(pi)
    cycles = []
    for s in range(len(pi)):
        if seen[s]:
            continue
        cycle = [s]
        seen[s] = True
        t = pi[s]
        while t != s:
            cycle.append(t)
            seen[t] = True
            t = pi[t]
        cycles.append(cycle)
    return cycles


def permutation_sign(pi):
    """(-1)^(n - c) for the c cycles of pi on n points."""
    return -1 if (len(pi) - len(permutation_cycles(pi))) % 2 else 1


def canonical_ordering(pi):
    """The ordering that lists each cycle from its least element, cycles
    sorted by least element."""
    return tuple(itertools.chain.from_iterable(permutation_cycles(pi)))


def is_valid_ordering(pi, seq):
    """True iff seq lists all indices once, each cycle of pi consecutively
    in pi-order (started anywhere), cycles in any order."""
    n = len(pi)
    seq = tuple(seq)
    if sorted(seq) != list(range(n)):
        return False
    start = seq[0]
    for t in range(1, n):
        nxt = pi[seq[t - 1]]
        if nxt == start:
            start = seq[t]
        elif nxt != seq[t]:
            return False
    return pi[seq[-1]] == start


def random_ordering(pi, rng):
    """A uniformly random valid ordering: shuffle the cycle order and
    rotate each cycle to a random start."""
    cycles = permutation_cycles(pi)
    rng.shuffle(cycles)
    out = []
    for cycle in cycles:
        k = rng.randrange(len(cycle))
        out.extend(cycle[k:] + cycle[:k])
    return tuple(out)


# ---------------------------------------------------------------------------
# shared checks

def _require_even(x, what):
    """Every entry component and every homogeneous component degree must
    have even parity; zero entries pass vacuously.  Entries are checked
    first, so an odd entry is reported before an odd component.  Parity is
    additive, so once every entry component is even, a component of entry
    (i,j) is odd exactly when mu_i and nu_j differ in parity.  Parities
    come from the algebra's degree index (algebra.degree_index)."""
    alg = x.algebra
    index = degree_index(alg)
    odd = index.odd()
    for i, row in enumerate(x.entries if odd else ()):
        for j, e in enumerate(row):
            if not odd.isdisjoint(e.coeffs):
                k = next(k for k in e.coeffs if k in odd)
                raise OddEntries(
                    f"{what}: entry ({i},{j}) has an odd-degree "
                    f"component {alg.labels[k]}; expansion order "
                    "would matter")
    par = index.parity
    row_parities = [par(a) for a in index.numbers(x.row_degrees)]
    col_parities = [par(b) for b in index.numbers(x.col_degrees)]
    if len({*row_parities, *col_parities}) < 2:
        return  # no (mu_i, nu_j) pair differs in parity
    for mu, p_mu, row in zip(x.row_degrees, row_parities, x.entries):
        for nu, p_nu, e in zip(x.col_degrees, col_parities, row):
            if e.coeffs and p_mu != p_nu:
                d = alg.degrees[next(iter(e.coeffs))] + mu - nu
                raise OddEntries(
                    f"{what}: homogeneous component of odd degree {d!r}")


def _require_degree_zero(x, what):
    if not x.is_homogeneous_of(degree_index(x.algebra).zero):
        raise NotDegreeZero(f"{what} needs a homogeneous matrix of degree 0, "
                            f"got degree {x.degree_of()!r}")


# ---------------------------------------------------------------------------
# commuting determinant

def det_of_commuting(entries, algebra, grid=None, root=1):
    """Classical determinant by Berkowitz's division-free algorithm
    (S. J. Berkowitz, IPL 18 (1984) 147-150), O(n^4) ring products.  It
    never divides, so it is sound over the zero divisors of a twisted
    algebra; the caller guarantees that all entries pairwise commute.
    With a grid, entry (i,j) is entries[i][j] with its coefficient at e_k
    times zeta_root^grid[i][j][k]: _det_sigma passes the J_sigma factors.

    It runs on plain ints: every coefficient is put over one common
    denominator D and written in the power basis of Z[zeta_N] (see
    _int_table, whose table constants carry one more denominator T).
    Each degree-i term of p[i] is a product of i scaled entries formed
    with i - 1 table products, so det A is _berkowitz's p[n] / (D^n
    T^(n-1)) exactly.  _int_entries converts the entries in one walk: a
    rational coefficient p/q of e_k becomes the one int p D/q at index
    k phi(N), and only the other coefficients are written out as
    residues."""
    n = len(entries)
    if n == 0:
        return algebra.one()
    a, d, order, t_den, table = _int_entries(entries, algebra, grid, root)
    scale = d ** n * t_den ** (n - 1)
    return _decode(algebra, order,
                   ((idx, Fraction(x, scale))
                    for idx, x in _berkowitz(a, table).items() if x))


def _berkowitz(a, table):
    """p[n] of Berkowitz's recurrence on the n x n integer grid a (n >= 1,
    indices as in _int_entries) over the integer table: det A times
    T^(n-1) for the table's scale T, as a dict of ints that may hold
    zeros.  The recurrence runs on -A: p[k] is e_k of the leading block,
    det A = p[n] needs no final sign, and each R M^k S of the Toeplitz
    column is negated once.

    Step r's mat-vecs are flat integer scatters: the vector maps j*E + b
    (E = len(table)) to the coefficient of index b in (A^k S)_j, and each
    nonzero goes through _operator_column j*E + b, the rows of a_ij e_b
    in ascending order (built on first use and kept for the call), up to
    row r: the rows below r are the next A^k S, row r is R A^k S.  Only
    the Toeplitz combination calls _table_product."""
    n = len(a)
    size = len(table)
    ops = {}                # operator columns, built on first use
    p = [None]              # p[0] = 1 stays implicit
    for r in range(n):
        col = [None, a[r][r]]
        low, stop = r * size, (r + 1) * size
        v = {i * size + t: x for i in range(r) for t, x in a[i][r].items()}
        for k in range(r):
            w = {}
            for key, x in v.items():
                op = ops.get(key)
                if op is None:
                    op = ops[key] = _operator_column(a, table, key)
                for t, c in op:
                    if t >= stop:
                        break
                    w[t] = w[t] + x * c if t in w else x * c
            v, rv = {}, {}
            for t, y in w.items():
                if y:
                    if t < low:
                        v[t] = y
                    else:
                        rv[t - low] = y if k % 2 else -y
            col.append(rv)
        nxt = [None]
        for i in range(1 if r < n - 1 else r + 1, r + 2):
            acc = dict(col[i])
            if i <= r:
                for t, c in p[i].items():
                    acc[t] = acc[t] + c if t in acc else c
            for j in range(1, i):
                if col[i - j] and p[j]:
                    _table_product(table, col[i - j], p[j], acc)
            nxt.append(acc)
        p = nxt
    return p[-1]


# ---------------------------------------------------------------------------
# the sigma family and the fixed internal multiplier

def _ns_family(lam):
    """The first element of all_ns_multipliers(lam) and the exponent
    positions it toggles: the upper triangle over the Z_2 factors when the
    family is enumerated, none otherwise."""
    base = solve_ns_multiplier(lam)
    moduli = lam.group.moduli
    if lam.root_order > 2 or any(m > 2 for m in moduli):
        return base, []
    k = len(moduli)
    return base.at_order(2), [(i, j) for i in range(k) for j in range(i, k)
                              if moduli[i] == moduli[j] == 2]


def all_ns_multipliers(lam):
    """Every NS multiplier of lam at root order 2 when the group is
    2-torsion and lam's root order is 1 or 2: the solver's output times
    each symmetric 0/1 exponent matrix, toggled in row-major upper-triangle
    order with the last position varying fastest, so the first element is
    the solver's output.  Elsewhere the single solved multiplier, at lam's
    root order.  The family has 2^(k(k+1)/2) members over (Z_2)^k; more
    than NS_FAMILY_MAX_BITS free exponents (k > 5) raise TooLarge."""
    base, free = _ns_family(lam)
    if len(free) > NS_FAMILY_MAX_BITS:
        raise TooLarge(f"the NS multiplier family has 2^{len(free)} members; "
                       f"{len(free)} free exponents are above the limit "
                       f"{NS_FAMILY_MAX_BITS}")
    out = []
    for bits in itertools.product((0, 1), repeat=len(free)):
        exps = [list(row) for row in base.exponents]
        for (i, j), bit in zip(free, bits):
            if bit:
                exps[i][j] += 1
                if i != j:
                    exps[j][i] += 1
        out.append(Multiplier(lam.group, base.root_order, exps))
    return out


def canonical_sigma(algebra):
    """The fixed internal multiplier: all_ns_multipliers(algebra.lam)[0],
    computed without enumerating the family.  No result of gdet0 depends
    on this choice; the test suite sweeps the alternatives."""
    if algebra._canonical_sigma is None:
        algebra._canonical_sigma = _ns_family(algebra.lam)[0]
    return algebra._canonical_sigma


# ---------------------------------------------------------------------------
# determinants

def _det_sigma(x, sigma, twisted):
    """det(J_sigma(X)) over the twisted algebra twist(A, sigma), read back
    in the base algebra, without building J_sigma(X): the kernel reads
    each coefficient of X times zeta_N^e, e = sigma(g, nu_j) -
    sigma(nu_i, g) + sigma(nu_i, nu_j) - sigma(nu_j, nu_j)
    (gmatrix.j_sigma_exponents), as j_sigma does.  Unchecked: a square,
    even X."""
    grid = j_sigma_exponents(x.algebra.degrees, x.col_degrees, sigma)
    return transport(det_of_commuting(x.entries, twisted, grid,
                                      sigma.root_order), x.algebra)


def _require_ns(algebra, twisted, what):
    """twisted = twist(algebra, sigma), or InvalidParams when sigma is not
    an NS multiplier of algebra, read off the memoized twist in one
    attribute once warm (algebra.is_supercommutative)."""
    if not is_supercommutative(twisted):
        raise InvalidParams(
            f"{what}: sigma is not an NS multiplier of {algebra.name}, so "
            "the entries of J_sigma(X) need not commute; "
            "all_ns_multipliers lists the NS multipliers")
    return twisted


def gdet_sigma(x, sigma):
    """det(J_sigma(X)) on a square matrix whose entry and component degrees
    are all even, for an NS multiplier sigma (all_ns_multipliers): only
    then do the entries of J_sigma(X) commute, as det_of_commuting needs.
    A sigma that is not NS raises InvalidParams, after the input checks."""
    _require_endo(x, "gdet_sigma")
    _require_even(x, "gdet_sigma")
    twisted = twist(x.algebra, sigma)
    return _det_sigma(x, sigma, _require_ns(x.algebra, twisted, "gdet_sigma"))


def gdet0(x):
    """The graded determinant of a degree-0 matrix, computed through a
    fixed internal multiplier; the value is independent of that choice."""
    _require_endo(x, "gdet0")
    _require_degree_zero(x, "gdet0")
    _require_even(x, "gdet0")
    sigma = canonical_sigma(x.algebra)
    return _det_sigma(x, sigma, twist(x.algebra, sigma))


def gdet0_leibniz(x, orderings=None):
    """The explicit signed sum: for each permutation pi, the entries
    X^s_pi(s) are multiplied in the base algebra following an ordering that
    keeps each cycle of pi consecutive.  All valid orderings give the same
    value; supplying invalid ones raises InvalidOrdering.  Matrices with
    more than LEIBNIZ_MAX_N rows raise TooLarge."""
    _require_endo(x, "gdet0_leibniz")
    if x.nrows > LEIBNIZ_MAX_N:
        raise TooLarge(f"gdet0_leibniz sums n! terms; n = {x.nrows} is "
                       f"above the limit {LEIBNIZ_MAX_N}")
    _require_degree_zero(x, "gdet0_leibniz")
    _require_even(x, "gdet0_leibniz")
    n = x.nrows
    supplied = {}
    if orderings:
        for key, seq in orderings.items():
            key = tuple(int(v) for v in key)
            if sorted(key) != list(range(n)):
                raise InvalidOrdering(
                    f"{key} is not a permutation of 0..{n - 1}")
            if not is_valid_ordering(key, seq):
                raise InvalidOrdering(
                    f"ordering {tuple(seq)} does not list the cycles of "
                    f"{key} consecutively")
            supplied[key] = tuple(seq)
    acc = x.algebra.zero()
    for pi in itertools.permutations(range(n)):
        seq = supplied.get(pi) or canonical_ordering(pi)
        term = x.algebra.one()
        for s in seq:
            term = term * x.entries[s][pi[s]]
            if term.is_zero():
                break
        if permutation_sign(pi) < 0:
            term = -term
        acc = acc + term
    return acc


def _conjugated_det(x, witnesses):
    """det of (w_i X^i_j w_j^{-1}): all conjugated entries have degree 0,
    hence are central, and the classical determinant applies."""
    ws = [witnesses[d][0] for d in x.col_degrees]
    winvs = [witnesses[d][1] for d in x.col_degrees]
    grid = [[(ws[i] * e) * winvs[j] for j, e in enumerate(row)]
            for i, row in enumerate(x.entries)]
    return det_of_commuting(grid, x.algebra)


def gdet0_via_crossed(x):
    """gdet0 through conjugation into degree 0 by homogeneous units
    t_(nu_i): det(P X P^{-1}) with P = diag(t_(nu_1), ..., t_(nu_n)).

    Units are taken from the algebra itself when every needed degree has
    one; a constant regrading (which changes no entry) is tried to move the
    degree vector onto unit degrees; otherwise the units are adjoined by
    tensoring with the even crossed product, and the result is read off
    the t_0 component, which every determinant term lands in.  Raises
    NotCrossedProduct when the degree vector mixes parities.
    """
    _require_endo(x, "gdet0_via_crossed")
    _require_degree_zero(x, "gdet0_via_crossed")
    _require_even(x, "gdet0_via_crossed")
    alg = x.algebra
    nu = x.col_degrees
    zero = alg.group.zero()
    shifts = [zero]
    shifts.extend(-d for d in dict.fromkeys(nu) if d)
    for shift in shifts:
        shifted = [d + shift for d in nu]
        pairs = {d: unit_witness(alg, d) for d in set(shifted)}
        if all(p is not None for p in pairs.values()):
            return _conjugated_det(shift_degrees(x, shift), pairs)
    parities = {d: parity(alg.lam, d) for d in set(nu)}
    shift = zero
    if any(parities.values()):
        if len(set(parities.values())) > 1:
            raise NotCrossedProduct(
                "degree vector mixes parities; odd degrees admit no "
                "invertible homogeneous elements to conjugate with")
        shift = -nu[0]
    shifted = [d + shift for d in nu]
    big, ts, tinvs = adjoined_units(alg, shifted)
    grid = []
    for i, row in enumerate(x.entries):
        ti = ts[shifted[i]]
        out = []
        for j, e in enumerate(row):
            out.append((ti * tensor_embed_left(big, e)) * tinvs[shifted[j]])
        grid.append(out)
    det = det_of_commuting(grid, big)
    return tensor_project_left(big, det)
