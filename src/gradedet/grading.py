"""Finite abelian grading groups, commutation factors, parity splitting,
multipliers, and the solver for supercommutativity-inducing multipliers.

A grading group is a product of cyclic groups Z_m1 x ... x Z_mk.  All
bicharacters and multipliers are represented by a single k x k exponent
matrix B over Z_N, encoding f(x, y) = zeta_N^(x^T B y).  This covers every
root-of-unity-valued factor; general field-valued factors are out of scope.
Two such maps agree on all of Gamma x Gamma exactly when they agree on the
k^2 generator pairs, so every check here compares exponent matrices.
"""

import itertools
from math import gcd, lcm, prod

from .errors import (IncompatibleGroups, IncompatibleRootOrders,
                     InvalidCommutationFactor, InvalidParams,
                     NoSolutionAtThisRootOrder)
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
        _, a, b = _common_order(self, other)
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
    """The least common root order and both exponent matrices at it."""
    n = lcm(f.root_order, g.root_order)
    return n, f.at_order(n).exponents, g.at_order(n).exponents


def is_commutation_factor(f):
    """The skew law f(x,y) f(y,x) = 1, decided on the generator pairs as
    B + B^T = 0 (mod N); biadditivity holds by representation."""
    b, n, k = f.exponents, f.root_order, f.group.rank
    return all((b[i][j] + b[j][i]) % n == 0
               for i in range(k) for j in range(k))


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
    """parity(lam, g_i) for each generator g_i, read off the diagonal
    exponents B_ii = 0 or N/2 of lam."""
    n, out = lam.root_order, []
    for i, row in enumerate(lam.exponents):
        e = row[i]
        if e and 2 * e != n:
            raise InvalidCommutationFactor(
                f"lambda(x,x) = zeta_{n}^{e} is not +-1 at "
                f"x={lam.group.generator(i)!r}")
        out.append(1 if e else 0)
    return tuple(out)


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
    lambda^sigma(x,y) = (-1)^(parity(x) parity(y)) for all x, y.  Both
    sides are biadditive, so this compares the exponent matrix
    B + C - C^T of lambda^sigma (lambda_twist) with (N/2) f f^T, f the
    generator parities, at the common root order N, on the exponent
    matrices alone."""
    if lam.group != sigma.group:
        return False
    f = generator_parities(lam)
    n = lcm(lam.root_order, sigma.root_order)
    s, t, half = n // lam.root_order, n // sigma.root_order, n // 2
    b, c = lam.exponents, sigma.exponents
    return all((s * b[i][j] + t * (c[i][j] - c[j][i])
                - half * f[i] * f[j]) % n == 0
               for i in range(len(f)) for j in range(len(f)))


def solve_ns_multiplier(lam):
    """A multiplier sigma at lam's root order with lambda^sigma equal to
    the super sign rule.

    Solves C - C^T = -B + (N/2) f f^T (mod N) greedily, where f is the
    generator parity vector: C_ij = target_ij for i < j, zero elsewhere.
    An odd generator has B_ii = N/2 (generator_parities raises otherwise,
    at odd N included), so the target is skew with zero diagonal and
    inherits B's torsion constraints ((N/2) m_i = 0 mod N): C is always a
    well-defined multiplier, and it passes the final check exactly when
    lam is skew.  A non-skew lam raises NoSolutionAtThisRootOrder.
    """
    n = lam.root_order
    k = lam.group.rank
    f = generator_parities(lam)
    c = [[(-lam.exponents[i][j] + n // 2 * f[i] * f[j]) % n if i < j else 0
          for j in range(k)] for i in range(k)]
    sigma = Multiplier(lam.group, n, c)
    if not is_ns_multiplier(lam, sigma):
        raise NoSolutionAtThisRootOrder(
            f"greedy solution fails verification at root order {n}")
    return sigma
