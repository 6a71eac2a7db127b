"""Finite abelian grading groups, commutation factors, parity splitting,
multipliers, and the solver/enumerator for supercommutativity-inducing
multipliers.

A grading group is a product of cyclic groups Z_m1 x ... x Z_mk.  All
bicharacters and multipliers are represented by a single k x k exponent
matrix B over Z_N, encoding f(x, y) = zeta_N^(x^T B y).  This covers every
root-of-unity-valued factor; general field-valued factors are out of scope.
"""

import itertools
from math import gcd, lcm, prod

from .errors import (IncompatibleGroups, IncompatibleRootOrders,
                     InvalidCommutationFactor, InvalidParams,
                     NoSolutionAtThisRootOrder, UnsupportedGroup)
from .scalars import cyclo


class GradingGroup:
    """Gamma = Z_m1 x ... x Z_mk with componentwise addition."""

    __slots__ = ("moduli",)

    def __init__(self, moduli):
        moduli = tuple(int(m) for m in moduli)
        if any(m < 1 for m in moduli):
            raise InvalidParams(
                "moduli must be >= 1; free factors Z are not supported "
                "(grading groups must be finite)")
        self.moduli = moduli

    @property
    def rank(self):
        return len(self.moduli)

    @property
    def order(self):
        return prod(self.moduli)

    def element(self, residues):
        return GroupElement(self, residues)

    def zero(self):
        return GroupElement(self, (0,) * self.rank)

    def generator(self, i):
        return GroupElement(self, tuple(int(j == i) for j in range(self.rank)))

    def elements(self):
        """All elements, in lexicographic order of residue vectors."""
        for residues in itertools.product(*(range(m) for m in self.moduli)):
            yield GroupElement(self, residues)

    def __eq__(self, other):
        return isinstance(other, GradingGroup) and self.moduli == other.moduli

    def __hash__(self):
        return hash(self.moduli)

    def __repr__(self):
        return f"GradingGroup({list(self.moduli)})"


class GroupElement:
    __slots__ = ("group", "residues")

    def __init__(self, group, residues):
        residues = tuple(int(r) for r in residues)
        if len(residues) != group.rank:
            raise InvalidParams(
                f"element {residues} has wrong length for moduli {group.moduli}")
        self.group = group
        self.residues = tuple(r % m for r, m in zip(residues, group.moduli))

    def __add__(self, other):
        if self.group != other.group:
            raise IncompatibleGroups(
                f"{self.group!r} vs {other.group!r}")
        return GroupElement(self.group,
                            (a + b for a, b in zip(self.residues, other.residues)))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return GroupElement(self.group, (-r for r in self.residues))

    def __eq__(self, other):
        return (isinstance(other, GroupElement)
                and self.group == other.group
                and self.residues == other.residues)

    def __hash__(self):
        return hash((self.group.moduli, self.residues))

    def __bool__(self):
        return any(self.residues)

    def __repr__(self):
        return f"<{','.join(map(str, self.residues))}>"


class Bicharacter:
    """A biadditive map f(x, y) = zeta_N^(x^T B y) on a grading group.

    Well-definedness requires B_ij * m_i = B_ij * m_j = 0 (mod N) for all
    i, j, which is checked at construction.  Biadditivity holds by
    construction of the exponent form.
    """

    __slots__ = ("group", "root_order", "exponents")

    def __init__(self, group, root_order, exponents):
        root_order = int(root_order)
        if root_order < 1:
            raise InvalidParams("root order must be >= 1")
        k = group.rank
        rows = tuple(tuple(int(e) % root_order for e in row) for row in exponents)
        if len(rows) != k or any(len(row) != k for row in rows):
            raise InvalidParams(
                f"exponent matrix must be {k}x{k} for moduli {group.moduli}")
        for i in range(k):
            for j in range(k):
                e = rows[i][j]
                if (e * group.moduli[i]) % root_order or \
                        (e * group.moduli[j]) % root_order:
                    raise InvalidParams(
                        f"exponent {e} at ({i},{j}) is not well defined on "
                        f"moduli {group.moduli} at root order {root_order}")
        self.group = group
        self.root_order = root_order
        self.exponents = rows

    def exponent(self, x, y):
        """x^T B y mod N."""
        total = 0
        for i, xi in enumerate(x.residues):
            if xi:
                row = self.exponents[i]
                for j, yj in enumerate(y.residues):
                    if yj:
                        total += xi * row[j] * yj
        return total % self.root_order

    def value(self, x, y):
        return cyclo(self.exponent(x, y), self.root_order)

    def inverse(self):
        """The pointwise inverse map, with exponent matrix -B."""
        return type(self)(self.group, self.root_order,
                          [[-e for e in row] for row in self.exponents])

    def at_order(self, root_order):
        """The same map re-expressed at a multiple of its root order."""
        if root_order % self.root_order:
            raise IncompatibleRootOrders(
                f"{root_order} is not a multiple of {self.root_order}")
        step = root_order // self.root_order
        return type(self)(self.group, root_order,
                          [[e * step for e in row] for row in self.exponents])

    def __eq__(self, other):
        if not isinstance(other, Bicharacter):
            return NotImplemented
        if self.group != other.group:
            return False
        n = lcm(self.root_order, other.root_order)
        a = [[e * (n // self.root_order) for e in row] for row in self.exponents]
        b = [[e * (n // other.root_order) for e in row] for row in other.exponents]
        return a == b

    def __hash__(self):
        # equal maps have equal reduced forms: divide out the common gcd
        g = gcd(self.root_order, *itertools.chain(*self.exponents))
        return hash((self.group.moduli, self.root_order // g,
                     tuple(tuple(e // g for e in row)
                           for row in self.exponents)))

    def __repr__(self):
        return (f"{type(self).__name__}(moduli={list(self.group.moduli)}, "
                f"root_order={self.root_order}, "
                f"exponents={[list(r) for r in self.exponents]})")


class Multiplier(Bicharacter):
    """A biadditive multiplier, same representation as a bicharacter but
    without any skew condition."""


def trivial_multiplier(group):
    return Multiplier(group, 1, [[0] * group.rank for _ in range(group.rank)])


def _common_order(f, g):
    n = lcm(f.root_order, g.root_order)
    a = [[e * (n // f.root_order) for e in row] for row in f.exponents]
    b = [[e * (n // g.root_order) for e in row] for row in g.exponents]
    return n, a, b


def is_commutation_factor(f):
    """Exhaustive skew check f(x,y) f(y,x) = 1 on Gamma x Gamma; biadditivity
    holds by representation."""
    n = f.root_order
    elems = list(f.group.elements())
    for x in elems:
        for y in elems:
            if (f.exponent(x, y) + f.exponent(y, x)) % n:
                return False
    return True


def parity(lam, x):
    """0 if lam(x,x) = 1, 1 if lam(x,x) = -1.

    These are the only possible values of lam(x,x) for a commutation factor,
    and the induced map is an additive group morphism to Z_2.
    """
    e = lam.exponent(x, x)
    if e == 0:
        return 0
    if lam.root_order % 2 == 0 and e == lam.root_order // 2:
        return 1
    raise InvalidCommutationFactor(
        f"lambda(x,x) = zeta_{lam.root_order}^{e} is not +-1 at x={x!r}")


def generator_parities(lam):
    return tuple(parity(lam, lam.group.generator(i))
                 for i in range(lam.group.rank))


def lambda_twist(lam, sigma):
    """The twisted commutation factor lambda^sigma(x,y) =
    lambda(x,y) sigma(x,y) sigma(y,x)^(-1), with exponent matrix
    B + C - C^T."""
    if lam.group != sigma.group:
        raise IncompatibleGroups(
            f"bicharacter on {lam.group!r} vs multiplier on {sigma.group!r}")
    n, b, c = _common_order(lam, sigma)
    k = lam.group.rank
    twisted = [[(b[i][j] + c[i][j] - c[j][i]) % n for j in range(k)]
               for i in range(k)]
    return Bicharacter(lam.group, n, twisted)


def is_ns_multiplier(lam, sigma):
    """True iff the twisted factor is the super sign rule through parity:
    lambda^sigma(x,y) = (-1)^(parity(x) parity(y)) for all x, y."""
    if lam.group != sigma.group:
        return False
    tw = lambda_twist(lam, sigma)
    n = tw.root_order
    elems = list(lam.group.elements())
    parities = {x.residues: parity(lam, x) for x in elems}
    for x in elems:
        for y in elems:
            want = 0
            if parities[x.residues] and parities[y.residues]:
                if n % 2:
                    return False
                want = n // 2
            if tw.exponent(x, y) != want:
                return False
    return True


def solve_ns_multiplier(lam):
    """A multiplier sigma with lambda^sigma equal to the super sign rule.

    Solves C - C^T = -B + (N/2) f f^T (mod N) greedily, where f is the
    generator parity vector: C_ij = target_ij for i < j, zero elsewhere.
    The target is skew with zero diagonal, and it inherits B's torsion
    constraints (an odd generator has B_ii = N/2, so (N/2) m_i = 0 mod N),
    so C is always a well-defined multiplier.  A result that fails the
    final check raises NoSolutionAtThisRootOrder.
    """
    group = lam.group
    n = lam.root_order
    k = group.rank
    f = generator_parities(lam)
    if n % 2 and any(f):
        raise NoSolutionAtThisRootOrder(
            f"odd parities need -1 in the root-of-unity group, but the root "
            f"order is {n}; retry with root order {2 * n}")
    half = (n // 2) if n % 2 == 0 else 0
    c = [[(-lam.exponents[i][j] + half * f[i] * f[j]) % n if i < j else 0
          for j in range(k)] for i in range(k)]
    sigma = Multiplier(group, n, c)
    if not is_ns_multiplier(lam, sigma):
        raise NoSolutionAtThisRootOrder(
            f"greedy solution fails verification at root order {n}")
    return sigma


def ns_multiplier(lam):
    """One multiplier whose twist is the super sign rule, retrying at a
    doubled root order if the solver reports the current order cannot host
    a solution."""
    try:
        return solve_ns_multiplier(lam)
    except NoSolutionAtThisRootOrder:
        return solve_ns_multiplier(lam.at_order(2 * lam.root_order))


def enumerate_ns_multipliers(lam):
    """The full set of solutions, as the coset of the solved multiplier by
    all symmetric biadditive maps.

    Only supported over 2-torsion groups (all moduli <= 2) at root order 2,
    where the symmetric maps are enumerable as symmetric 0/1 exponent
    matrices.  The first element is the solver's output; the rest follow by
    toggling the free upper-triangle positions (row-major order, last
    position varying fastest).
    """
    group = lam.group
    if any(m > 2 for m in group.moduli):
        raise UnsupportedGroup(
            f"enumeration needs 2-torsion moduli, got {group.moduli}; "
            "use solve_ns_multiplier instead")
    if lam.root_order not in (1, 2):
        raise UnsupportedGroup(
            f"enumeration needs root order 2, got {lam.root_order}")
    base = solve_ns_multiplier(lam)
    if base.root_order == 1:
        base = Multiplier(group, 2, [[e * 2 for e in row]
                                     for row in base.exponents])
    k = group.rank
    free = [(i, j) for i in range(k) for j in range(i, k)
            if group.moduli[i] == 2 and group.moduli[j] == 2]
    out = []
    for bits in itertools.product((0, 1), repeat=len(free)):
        exps = [list(row) for row in base.exponents]
        for (i, j), bit in zip(free, bits):
            if bit:
                exps[i][j] = (exps[i][j] + 1) % 2
                if i != j:
                    exps[j][i] = (exps[j][i] + 1) % 2
        out.append(Multiplier(group, 2, exps))
    return out
