"""Finite-dimensional graded algebras given by homogeneous structure
constants.

An algebra is a basis with degrees, a distinguished unit basis vector, and a
sparse table e_i e_j = sum_k c_ij^k e_k over exact scalars.  Construction
validates degree additivity, associativity, the unit law and
lambda-commutativity exhaustively (the basis is finite), naming the
offending triple on failure; associativity is checked on the integer
structure table, which stays cached for the determinant.  Presets cover
the standard examples; the multiplier twist and the graded tensor product
build new algebras from old ones.  Elements and matrices over the algebra
are inverted by one exact linear solve, restricted to the graded pieces
the inverse can occupy (_solve_grid), so singularity is detected by
exact rank.  The solve shares the determinant kernel's integer layer:
X's coefficients converted in one walk (_int_entries), the operator
columns of X on the integer structure table (_operator_column), and
the decoder from indexed Fractions back to elements (_decode).  It
eliminates fraction-free on ints with scalars.solve_linear, the one
exact elimination of the library, and returns the inverse as ints over
one denominator, which solve_inverse decodes.  J_sigma
reaches the layer only through the conversion, which folds its factors
into X's coefficients.  The Berezinian is the third user of the layer,
from one such conversion of X over the twisted algebra to one decode: it
solves X11^(-1) on the converted grid, forms X00 - X01 X11^(-1) X10 on
the twisted integer table, and inverts the element P = Gdet(Schur)
Gdet(X11) by a 1x1 _solve_grid on the base table, taking
Gdet(X11)^(-1) = P^(-1) Gdet(Schur) (a one-sided inverse is two-sided
in a finite-dimensional algebra).
"""

import itertools
from fractions import Fraction
from functools import lru_cache
from math import lcm

from . import scalars
from .errors import (DegreeViolation, IncompatibleGroups, InvalidParams,
                     MixedAlgebras, NoUnit, NotAssociative, NotCrossedProduct,
                     NotInvertible, NotLambdaCommutative)
from .grading import (Bicharacter, GradingGroup, Multiplier,
                      is_ns_multiplier, lambda_twist, parity,
                      solve_ns_multiplier, trivial_multiplier)
from .scalars import (MINUS_ONE, ONE, ZERO, CycloScalar, as_scalar, coerce_to,
                      cyclo, euler_phi, solve_linear)


class _Inhomogeneous:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Inhomogeneous"


INHOMOGENEOUS = _Inhomogeneous()


# ---------------------------------------------------------------------------
# determinants of scalar matrices

def det_gauss(matrix):
    """Determinant of a square scalar matrix by exact elimination."""
    n = len(matrix)
    m = [list(r) for r in matrix]
    det = ONE
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col]), None)
        if piv is None:
            return ZERO
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        pivot = m[col][col]
        det = det * pivot
        inv_p = scalars.inv(pivot)
        for r in range(col + 1, n):
            if m[r][col]:
                f = m[r][col] * inv_p
                for j in range(col, n):
                    if m[col][j]:
                        m[r][j] = m[r][j] - f * m[col][j]
    return det


# ---------------------------------------------------------------------------
# elements

class AlgebraElement:
    """A sparse linear combination of basis vectors; zero coefficients are
    never stored."""

    __slots__ = ("algebra", "coeffs")

    def __init__(self, algebra, coeffs):
        self.algebra = algebra
        self.coeffs = {k: c for k, c in coeffs.items() if c}

    def _check_same(self, other):
        if other.algebra is not self.algebra and other.algebra != self.algebra:
            raise MixedAlgebras(
                f"elements of {self.algebra!r} and {other.algebra!r}")

    def __add__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self._check_same(other)
        acc = dict(self.coeffs)
        for k, c in other.coeffs.items():
            acc[k] = acc[k] + c if k in acc else c
        return AlgebraElement(self.algebra, acc)

    def __sub__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return AlgebraElement(self.algebra,
                              {k: -c for k, c in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            self._check_same(other)
            return AlgebraElement(self.algebra, _table_product(
                self.algebra.table, self.coeffs, other.coeffs, {}))
        return self.scalar_mul(other)

    def __rmul__(self, other):
        # scalars commute with everything, so left scalar action is the same
        return self.scalar_mul(other)

    def __truediv__(self, other):
        if isinstance(other, AlgebraElement):
            return NotImplemented
        return self.scalar_mul(scalars.inv(as_scalar(other)))

    def scalar_mul(self, s):
        s = as_scalar(s)
        return AlgebraElement(self.algebra,
                              {k: s * c for k, c in self.coeffs.items()})

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        if other.algebra is not self.algebra and other.algebra != self.algebra:
            return False
        return self.coeffs == other.coeffs

    __hash__ = None

    def __bool__(self):
        return bool(self.coeffs)

    def is_zero(self):
        return not self.coeffs

    def degree_of(self):
        """The unique degree of a homogeneous element, INHOMOGENEOUS for a
        mix, and degree 0 for the zero element (which is homogeneous of
        every degree)."""
        degs = {self.algebra.degrees[k] for k in self.coeffs}
        if not degs:
            return self.algebra.group.zero()
        if len(degs) == 1:
            return next(iter(degs))
        return INHOMOGENEOUS

    def homogeneous_components(self):
        out = {}
        for k, c in self.coeffs.items():
            d = self.algebra.degrees[k]
            out.setdefault(d, {})[k] = c
        return {d: AlgebraElement(self.algebra, m) for d, m in out.items()}

    def __repr__(self):
        if not self.coeffs:
            return "0"
        labels = self.algebra.labels
        parts = []
        for k in sorted(self.coeffs):
            c = self.coeffs[k]
            text = scalars._display(c)
            if labels[k] == "1":
                parts.append(text)
            elif text == "1":
                parts.append(labels[k])
            elif text == "-1":
                parts.append(f"-{labels[k]}")
            else:
                parts.append(f"({text})*{labels[k]}")
        return " + ".join(parts)


# ---------------------------------------------------------------------------
# algebras

class GradedAlgebra:
    """Immutable after construction; carries memo caches for twists, unit
    witnesses, tensor products, the determinant's integer tables, the
    document digest and the formatted document."""

    def __init__(self, group, lam, labels, degrees, unit_index, table, name):
        self.group = group
        self.lam = lam
        self.labels = tuple(labels)
        self.degrees = tuple(degrees)
        self.unit_index = unit_index
        self.table = table
        self.name = name
        self._label_index = {lab: i for i, lab in enumerate(self.labels)}
        self._components = {}
        for i, d in enumerate(self.degrees):
            self._components.setdefault(d, []).append(i)
        self._components = {d: tuple(v) for d, v in self._components.items()}
        self._twist_cache = {}
        self._tensor_cache = {}
        self._unit_witnesses = None
        self._canonical_sigma = None
        self._supercommutative = None  # is_supercommutative, on first use
        self._cp_index = None  # residues -> basis index, for crossed products
        self._int_tables = {}  # root order -> _int_table's result
        self._degree_index = None  # degree_index, filled on first use
        self._digest = None  # serialize.digest_algebra, filled on first use
        self._document = None  # cli's twist output, filled on first use
        self._table_order = None  # serialize.check_root_orders, likewise

    @property
    def dim(self):
        return len(self.labels)

    def realized_degrees(self):
        return set(self._components)

    def component_indices(self, degree):
        return self._components.get(degree, ())

    def index_of(self, label):
        if label not in self._label_index:
            raise InvalidParams(f"unknown basis label {label!r} in {self.name}")
        return self._label_index[label]

    def basis_element(self, key):
        idx = key if isinstance(key, int) else self.index_of(key)
        return AlgebraElement(self, {idx: ONE})

    def element(self, mapping):
        coeffs = {}
        for key, val in mapping.items():
            idx = key if isinstance(key, int) else self.index_of(key)
            s = as_scalar(val)
            coeffs[idx] = coeffs[idx] + s if idx in coeffs else s
        return AlgebraElement(self, coeffs)

    def zero(self):
        return AlgebraElement(self, {})

    def one(self):
        return AlgebraElement(self, {self.unit_index: ONE})

    def from_scalar(self, s):
        return AlgebraElement(self, {self.unit_index: as_scalar(s)})

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, GradedAlgebra):
            return NotImplemented
        return (self.group == other.group
                and self.lam == other.lam
                and self.labels == other.labels
                and self.degrees == other.degrees
                and self.unit_index == other.unit_index
                and self.table == other.table)

    __hash__ = None

    def __repr__(self):
        return f"GradedAlgebra({self.name}, dim={self.dim})"


class DegreeIndex:
    """The degrees met by the checks on matrices over one algebra, numbered
    0, 1, ... in the order met, so that the checks compare and look up
    small ints; a degree is looked up by its residues.  basis[k] is the
    number of deg e_k, and zero is the group zero, numbered first.  Sums
    and parities of numbers are memoized, and so are the homogeneous
    components shifted by a degree.  Nothing is dropped: the index grows
    only with the degrees met, to at most |Gamma| numbers and |Gamma|^2
    sums."""

    __slots__ = ("group", "lam", "zero", "basis", "_degrees", "_numbers",
                 "_sums", "_parities", "_shifted", "_odd")

    def __init__(self, algebra):
        self.group, self.lam = algebra.group, algebra.lam
        self._degrees, self._numbers = [], {}
        self._sums, self._parities, self._shifted = {}, {}, {}
        self._odd = None
        self.zero = self.group.zero()
        self.basis = self.numbers((self.zero, *algebra.degrees))[1:]

    def number(self, d):
        """The number of the degree d, given on first meeting."""
        if d.group is not self.group and d.group != self.group:
            raise IncompatibleGroups(f"{d.group!r} vs {self.group!r}")
        n = self._numbers.get(d.residues)
        if n is None:
            n = self._numbers[d.residues] = len(self._degrees)
            self._degrees.append(d)
        return n

    def numbers(self, degrees):
        """[number(d) for d in degrees], keyed by residues: a degree in
        the index's own group object costs one dict lookup."""
        got, group = self._numbers, self.group
        out = [got.get(d.residues) if d.group is group else None
               for d in degrees]
        return out if None not in out else [self.number(d) for d in degrees]

    def add(self, a, b):
        """The number of the sum of the degrees numbered a and b."""
        s = self._sums.get((a, b))
        if s is None:
            s = self._sums[a, b] = self.number(self._degrees[a]
                                               + self._degrees[b])
        return s

    def parity(self, a):
        p = self._parities.get(a)
        if p is None:
            p = self._parities[a] = parity(self.lam, self._degrees[a])
        return p

    def odd(self):
        """The basis vectors of odd degree."""
        if self._odd is None:
            self._odd = frozenset(k for k, a in enumerate(self.basis)
                                  if self.parity(a))
        return self._odd

    def shifted(self, a):
        """{number of g + degree a: the basis vectors of degree g}."""
        out = self._shifted.get(a)
        if out is None:
            out = {}
            for k, g in enumerate(self.basis):
                out.setdefault(self.add(g, a), set()).add(k)
            out = self._shifted[a] = {s: frozenset(ks)
                                      for s, ks in out.items()}
        return out


def degree_index(algebra):
    """algebra's DegreeIndex, built on first use and kept on the algebra."""
    if algebra._degree_index is None:
        algebra._degree_index = DegreeIndex(algebra)
    return algebra._degree_index


def is_supercommutative(algebra):
    """True when algebra's lambda is the parity sign rule, that is when
    the trivial multiplier is an NS multiplier of it, decided once per
    algebra: twist(A, sigma) is supercommutative exactly when sigma is an
    NS multiplier of A, and twist memoizes its result."""
    if algebra._supercommutative is None:
        algebra._supercommutative = is_ns_multiplier(
            algebra.lam, trivial_multiplier(algebra.group))
    return algebra._supercommutative


def _cell_constant(c):
    """A structure constant as stored in a table: the shared ONE or
    MINUS_ONE when it equals +1 or -1 (rationals are always root order 1),
    otherwise c itself.  _table_product recognises the shared objects by
    identity."""
    if c.order == 1:
        if c.coeffs[0] == 1:
            return ONE
        if c.coeffs[0] == -1:
            return MINUS_ONE
    return c


def _normalize_structure(structure, dim):
    """Accepts {(i,j): {k: c}} or {(i,j): [(k, c), ...]}; returns the
    sparse tuple-of-tuples table.  A target listed twice in one cell gets
    the sum of its constants, in the place of its first listing; targets
    whose constants sum to zero are dropped."""
    table = [[() for _ in range(dim)] for _ in range(dim)]
    for (i, j), cell in structure.items():
        items = cell.items() if isinstance(cell, dict) else cell
        constants = {}
        for k, c in items:
            k, c = int(k), as_scalar(c)
            constants[k] = constants[k] + c if k in constants else c
        table[i][j] = tuple((k, _cell_constant(c))
                            for k, c in constants.items() if c)
    return tuple(tuple(r) for r in table)


def _table_product(table, left, right, acc):
    """Add left*right, two sparse coefficient dicts multiplied through
    the structure table, into the dict acc and return acc; acc may be left
    holding zero coefficients, which AlgebraElement drops.  Empty cells are
    skipped before ci*cj is formed.  A cell constant that is the shared ONE
    or MINUS_ONE (see _cell_constant) adds or subtracts ci*cj without
    multiplying by it; a table whose +-1 constants are other objects gives
    the same products, only slower.  The integer tables (_int_table) run
    through here with int coefficients: algebra validation, and the
    Toeplitz combination of det_of_commuting, whose mat-vecs scatter
    through operator columns instead."""
    for i, ci in left.items():
        row = table[i]
        for j, cj in right.items():
            cell = row[j]
            if not cell:
                continue
            cij = ci * cj
            for k, c in cell:
                if c is ONE:
                    acc[k] = acc[k] + cij if k in acc else cij
                elif c is MINUS_ONE:
                    acc[k] = acc[k] - cij if k in acc else -cij
                else:
                    prod = cij * c
                    acc[k] = acc[k] + prod if k in acc else prod
    return acc


def _dot(table, row, col, acc=None):
    """sum_i row[i] col[i] over coefficient dicts, for i < len(col), added
    into the dict acc (a new one when None) and returned; it may hold zero
    coefficients."""
    if acc is None:
        acc = {}
    for a, b in zip(row, col):
        if a and b:
            _table_product(table, a, b, acc)
    return acc


def table_root_order(algebra):
    """The lcm of the root orders of algebra's structure constants."""
    return lcm(*(c.order for row in algebra.table for cell in row
                 for _, c in cell))


def _int_table(algebra, order):
    """(N, T, table): N is the lcm of order and table_root_order(algebra),
    and table is the structure table over Z[zeta_N] scaled by T, the lcm
    of the constants' denominators.  Basis vector k times zeta^a becomes
    index k*phi(N) + a, so cell (k*phi(N) + a, l*phi(N) + b) is T times
    cell (k, l) times zeta^(a+b).  Equal cells are stored once.  Cached on
    the algebra under order and N, which share one table."""
    tables = algebra._int_tables
    if order not in tables:
        full = lcm(order, table_root_order(algebra))
        if full not in tables:
            m = euler_phi(full)
            t = lcm(*(f.denominator for row in algebra.table for cell in row
                      for _, c in cell for f in c.coeffs))
            out, distinct = [], {}
            for row in algebra.table:
                # cell (k, l) times zeta^s for s < 2m - 1: one residue per
                # constant, then a shift modulo Phi_N per power of zeta
                shifted = []
                for cell in row:
                    res, powers = [(k, _int_residue(c, full, t))
                                   for k, c in cell], []
                    # padded to phi(N) ints, so that _reduce pads no
                    # Fraction zeros
                    res = [(k, r + [0] * (m - len(r))) for k, r in res]
                    for _ in range(2 * m - 1):
                        got = tuple((k * m + u, x) for k, r in res
                                    for u, x in enumerate(r) if x)
                        powers.append(distinct.setdefault(got, got))
                        res = [(k, scalars._reduce([0] + r, full))
                               for k, r in res]
                    shifted.append(powers)
                # cell (k, l) times zeta^(a+b) depends on a + b only
                for a in range(m):
                    out.append(tuple(cells[a + b] for cells in shifted
                                     for b in range(m)))
            tables[full] = (full, t, tuple(out))
        tables[order] = tables[full]
    return tables[order]


def _int_residue(c, order, scale):
    """scale * c as integers in the power basis of Z[zeta_order], constant
    term first, with no zeros padded after the last stored coefficient;
    scale clears c's denominators."""
    if c.order not in (1, order):
        c = coerce_to(c, order)
    return [f.numerator * (scale // f.denominator) for f in c.coeffs]


def _int_entries(entries, algebra, grid=None, root=1, order=1):
    """The square grid of elements entries over Z[zeta_N], for the integer
    kernels: (a, D, N, T, table), where a[i][j] maps index k phi(N) + s
    to the int coefficient of e_k zeta_N^s in D times entries[i][j] with
    its coefficient at e_k multiplied by zeta_root^grid[i][j][k] (by 1
    when grid is None), D is the lcm of the denominators and (N, T,
    table) is _int_table at the lcm of order and the root orders of those
    products.

    One walk makes each entry's dict and collects the denominators and N,
    which counts root only when some factor is not +-1.  A rational c
    with factor +-1 (e = 0 or 2e = root) waits as its signed numerator
    and denominator, to become one int at index k phi(N); the other
    coefficients are multiplied by cyclo(e, root) and written out by
    _int_residue at indices k phi(N) + s."""
    if grid is None:
        grid = [[[0] * algebra.dim] * len(row) for row in entries]
    half = root // 2 if root % 2 == 0 else -1
    a, rationals, others, dens = [], [], [], set()
    for row, erow in zip(entries, grid):
        arow = []
        for entry, ex in zip(row, erow):
            cell = {}
            for k, c in entry.coeffs.items():
                e = ex[k]
                if c.order == 1 and (not e or e == half):
                    num, q = c.coeffs[0].as_integer_ratio()
                    dens.add(q)
                    rationals.append((cell, k, -num if e else num, q))
                else:
                    if e:
                        c = cyclo(e, root) * c
                    order = lcm(order, c.order)
                    dens.update(f.denominator for f in c.coeffs)
                    others.append((cell, k, c))
            arow.append(cell)
        a.append(arow)
    order, t_den, table = _int_table(algebra, order)
    m = euler_phi(order)
    d = lcm(*dens)
    over = {q: d // q for q in dens}
    for cell, k, x, q in rationals:
        cell[k * m] = x * over[q]
    for cell, k, c in others:
        for s, x in enumerate(_int_residue(c, order, d), k * m):
            if x:
                cell[s] = x
    return a, d, order, t_den, table


def _operator_column(a, table, key):
    """Column key = j*E + b (E = len(table)) of the integer grid a from
    _int_entries, read as an operator on the integer table: the pairs
    (i*E + t, c), ascending, with a[i][j] e_b = sum of c e_t.  A
    coefficient that sums to zero may stay.  det_of_commuting scatters
    through these columns, and _solve_grid reads its systems off them."""
    size = len(table)
    j, b = divmod(key, size)
    acc = {}
    base = 0
    for row in a:
        for ka, x in row[j].items():
            for t, c in table[ka][b]:
                t += base
                acc[t] = acc[t] + x * c if t in acc else x * c
        base += size
    return sorted(acc.items())


def _decode(algebra, order, pairs):
    """The element of algebra with coefficient x at e_k zeta_N^s, N =
    order, for each pair (k phi(N) + s, x) of an index as in _int_entries
    and a Fraction; zero x are skipped."""
    m = euler_phi(order)
    coeffs = {}
    for idx, x in pairs:
        if x:
            k, s = divmod(idx, m)
            coeffs.setdefault(k, [scalars._F0] * m)[s] = x
    return AlgebraElement(algebra, {k: CycloScalar(order, v)
                                    for k, v in coeffs.items()})


def _validate_algebra(alg):
    """alg's unit index, after checking every pair or triple of basis
    vectors; the first failure raises.  The checks after degree
    additivity run on the integer table, left cached on alg."""
    labels, degrees, table, name = alg.labels, alg.degrees, alg.table, alg.name
    dim = len(labels)
    # degree additivity
    for i in range(dim):
        for j in range(dim):
            want = degrees[i] + degrees[j]
            for k, c in table[i][j]:
                if degrees[k] != want:
                    raise DegreeViolation(
                        f"{name}: product {labels[i]}*{labels[j]} hits "
                        f"{labels[k]} of degree {degrees[k]!r}, expected "
                        f"{want!r}")
    # the integer table at the lambda values' root order: e_i is index
    # i*phi(N), and every cell carries the scale that clears denominators
    factors = [[alg.lam.value(a, b) for b in degrees] for a in degrees]
    alg._int_tables.clear()
    order, scale, itab = _int_table(alg, lcm(*(f.order for row in factors
                                               for f in row)))
    m = euler_phi(order)
    icells = [[dict(row[j * m]) for j in range(dim)] for row in itab[::m]]
    ivecs = [{k * m: 1} for k in range(dim)]
    # unit: a basis vector acting as identity on both sides
    unit_index = next((u for u in range(dim) if all(
        icells[u][j] == {j * m: scale} == icells[j][u]
        for j in range(dim))), None)
    if unit_index is None:
        raise NoUnit(f"{name}: no basis vector acts as a two-sided unit")
    if degrees[unit_index] != alg.group.zero():
        raise NoUnit(
            f"{name}: unit {labels[unit_index]} has nonzero degree "
            f"{degrees[unit_index]!r}")
    # associativity: both sides carry scale^2.  The zero-filtered comparison
    # runs only when the raw dicts differ, since equal dicts stay equal
    # after filtering.
    for i in range(dim):
        for j in range(dim):
            left_ij = icells[i][j]
            for k in range(dim):
                if not left_ij and not icells[j][k]:
                    continue  # both sides are zero
                lhs = _table_product(itab, left_ij, ivecs[k], {})
                rhs = _table_product(itab, ivecs[i], icells[j][k], {})
                if lhs != rhs and ({t: c for t, c in lhs.items() if c}
                                   != {t: c for t, c in rhs.items() if c}):
                    raise NotAssociative(
                        f"{name}: ({labels[i]}*{labels[j]})*{labels[k]} != "
                        f"{labels[i]}*({labels[j]}*{labels[k]})")
    # lambda-commutativity: e_i e_j against e_j (lambda e_i), both scaled
    for i in range(dim):
        for j in range(dim):
            lam_i = {i * m + s: x for s, x in enumerate(
                _int_residue(factors[i][j], order, 1)) if x}
            flipped = _table_product(itab, ivecs[j], lam_i, {})
            if icells[i][j] != {k: c for k, c in flipped.items() if c}:
                raise NotLambdaCommutative(
                    f"{name}: {labels[i]}*{labels[j]} != "
                    f"lambda({degrees[i]!r},{degrees[j]!r}) "
                    f"{labels[j]}*{labels[i]}")
    return unit_index


def make_algebra(degrees, structure, lam, labels=None, validate=True,
                 name="algebra", unit_index=None):
    group = lam.group
    degrees = tuple(d if hasattr(d, "residues") else group.element(d)
                    for d in degrees)
    dim = len(degrees)
    if labels is None:
        labels = tuple(f"b{i}" for i in range(dim))
    labels = tuple(labels)
    if len(labels) != dim or len(set(labels)) != dim:
        raise InvalidParams(f"{name}: labels must be {dim} distinct strings")
    table = _normalize_structure(structure, dim)
    if not validate and unit_index is None:
        raise InvalidParams(f"{name}: unit_index is required when validation "
                            "is skipped")
    out = GradedAlgebra(group, lam, labels, degrees, unit_index, table, name)
    if validate:
        out.unit_index = _validate_algebra(out)
    return out


# ---------------------------------------------------------------------------
# presets

def _subset_algebra(n, prefix, group, lam, degree, product, name):
    """The algebra on the monomials e_S of n generators, S running over the
    subsets of range(n) by size, then lexicographically; e_S is labelled
    prefix followed by the 1-based members of S ("1" for the empty set)
    and has degree degree(S).  product(a, b, sign) gives the coefficient of
    e_a e_b on e_(a xor b), or 0 when the product vanishes; sign is
    (-1)^(inversions) from sorting anticommuting generators of a and b."""
    subsets = [s for size in range(n + 1)
               for s in itertools.combinations(range(n), size)]
    index = {s: i for i, s in enumerate(subsets)}
    labels = ["1" if not s else prefix + "".join(str(i + 1) for i in s)
              for s in subsets]
    structure = {}
    for si, a in enumerate(subsets):
        for sj, b in enumerate(subsets):
            sign = (-1) ** sum(x > y for x in a for y in b)
            c = product(a, b, sign)
            target = tuple(sorted(set(a) ^ set(b)))
            structure[(si, sj)] = ({index[target]: scalars.rational(c)}
                                   if c else {})
    return make_algebra([group.element(degree(s)) for s in subsets],
                        structure, lam, labels, name=name)


def _quaternions():
    group = GradingGroup([2, 2])
    lam = Bicharacter(group, 2, [[0, 1], [1, 0]])
    labels = ("1", "i", "j", "k")
    degrees = [(0, 0), (1, 0), (0, 1), (1, 1)]
    one, i, j, k = 0, 1, 2, 3
    m1 = scalars.rational(-1)
    structure = {
        (one, one): {one: 1}, (one, i): {i: 1}, (one, j): {j: 1}, (one, k): {k: 1},
        (i, one): {i: 1}, (j, one): {j: 1}, (k, one): {k: 1},
        (i, i): {one: m1}, (j, j): {one: m1}, (k, k): {one: m1},
        (i, j): {k: 1}, (j, i): {k: m1},
        (j, k): {i: 1}, (k, j): {i: m1},
        (k, i): {j: 1}, (i, k): {j: m1},
    }
    return make_algebra(degrees, structure, lam, labels, name="quaternions")


def _clifford(p, q):
    """Clifford algebra Cl(p,q): n = p+q anticommuting generators, the first
    p squaring to +1 and the rest to -1.  Generator e_i has degree the i-th
    standard vector with a trailing 1; the basis is the ascending monomials
    e_I with signs accumulated by adjacent transpositions (a convention
    choice; other normal forms differ by an algebra isomorphism)."""
    n = p + q
    group = GradingGroup([2] * (n + 1))
    lam = Bicharacter(group, 2, [[int(a == b) for b in range(n + 1)]
                                 for a in range(n + 1)])
    return _subset_algebra(
        n, "e", group, lam,
        lambda s: [int(t in s) for t in range(n)] + [len(s) % 2],
        lambda a, b, sign: sign * (-1) ** sum(
            t >= p for t in set(a) & set(b)),
        name=f"clifford({p},{q})")


def _dual_numbers(n):
    """n odd square-zero generators over (Z_2)^n; distinct generators
    commute (their degrees pair trivially), so this is the truncated
    polynomial algebra on eps_1..eps_n."""
    group = GradingGroup([2] * n)
    lam = Bicharacter(group, 2, [[int(a == b) for b in range(n)]
                                 for a in range(n)])
    return _subset_algebra(
        n, "eps", group, lam, lambda s: [int(t in s) for t in range(n)],
        lambda a, b, sign: 0 if set(a) & set(b) else 1,
        name=f"dual_numbers({n})")


def _grassmann(n):
    """n anticommuting square-zero odd generators over Z_2."""
    group = GradingGroup([2])
    lam = Bicharacter(group, 2, [[1]])
    return _subset_algebra(
        n, "xi", group, lam, lambda s: [len(s) % 2],
        lambda a, b, sign: 0 if set(a) & set(b) else sign,
        name=f"grassmann({n})")


def _residue_label(gamma):
    return "t" + "_".join(str(r) for r in gamma.residues)


def _crossed(sigma, name, lam=None):
    """The crossed product over the even degrees of lam: one basis vector
    t_g per even g, with t_g t_h = sigma(g, h) t_(g+h).  It is
    lam-commutative when sigma(g, h) sigma(h, g)^(-1) = lam(g, h) on even
    degrees; lam defaults to the factor sigma induces, under which every
    degree is even."""
    if lam is None:
        lam = lambda_twist(trivial_multiplier(sigma.group), sigma)
    elems = [g for g in lam.group.elements() if not parity(lam, g)]
    index = {g.residues: i for i, g in enumerate(elems)}
    labels = [_residue_label(g) for g in elems]
    structure = {}
    for i, a in enumerate(elems):
        for j, b in enumerate(elems):
            structure[(i, j)] = {index[(a + b).residues]: sigma.value(a, b)}
    alg = make_algebra(elems, structure, lam, labels, name=name)
    alg._cp_index = index
    return alg


def _group_algebra(group):
    return _crossed(trivial_multiplier(group),
                    f"group_algebra{list(group.moduli)}")


def _crossed_product(group, sigma):
    if sigma.group != group:
        raise InvalidParams(
            f"multiplier lives on {sigma.group!r}, not {group!r}")
    return _crossed(sigma, f"crossed_product{list(group.moduli)}")


def _clock_shift(n):
    """The graded division algebra on Z_n x Z_n generated by a clock and a
    shift with YX = zeta_n XY: basis u_(a,b) = X^a Y^b, u_g u_h =
    zeta_n^(b c) u_(g+h) for g=(a,b), h=(c,d)."""
    group = GradingGroup([n, n])
    sigma = Multiplier(group, n, [[0, 0], [1, 0]])
    return _crossed(sigma, f"clock_shift({n})")


def preset(name, *params):
    """Build a named algebra preset.

    quaternions | clifford(p,q) | dual_numbers(n) | grassmann(n) |
    group_algebra(m1,...,mk) | crossed_product(group, sigma) |
    clock_shift(n)
    """
    return _preset_cached(name, _freeze_params(params))


def _freeze_params(params):
    out = []
    for p in params:
        if isinstance(p, GradingGroup):
            out.append(("group", p.moduli))
        elif isinstance(p, Bicharacter):
            out.append(("map", p.group.moduli, p.root_order, p.exponents))
        else:
            out.append(p)
    return tuple(out)


def _thaw_param(p):
    if isinstance(p, tuple) and p and p[0] == "group":
        return GradingGroup(p[1])
    if isinstance(p, tuple) and p and p[0] == "map":
        return Multiplier(GradingGroup(p[1]), p[2], p[3])
    return p


@lru_cache(maxsize=None)
def _preset_cached(name, frozen):
    params = tuple(_thaw_param(p) for p in frozen)
    try:
        if name == "quaternions":
            if params:
                raise InvalidParams("quaternions takes no parameters")
            return _quaternions()
        if name == "clifford":
            p, q = (int(v) for v in params)
            if p < 0 or q < 0:
                raise InvalidParams("clifford needs p, q >= 0")
            return _clifford(p, q)
        if name == "dual_numbers":
            (n,) = (int(v) for v in params)
            if n < 1:
                raise InvalidParams("dual_numbers needs n >= 1")
            return _dual_numbers(n)
        if name == "grassmann":
            (n,) = (int(v) for v in params)
            if n < 1:
                raise InvalidParams("grassmann needs n >= 1")
            return _grassmann(n)
        if name == "group_algebra":
            if len(params) == 1 and isinstance(params[0], GradingGroup):
                return _group_algebra(params[0])
            return _group_algebra(GradingGroup([int(v) for v in params]))
        if name == "crossed_product":
            group, sigma = params
            return _crossed_product(group, sigma)
        if name == "clock_shift":
            (n,) = (int(v) for v in params)
            if n < 1:
                raise InvalidParams("clock_shift needs n >= 1")
            return _clock_shift(n)
    except (TypeError, ValueError) as exc:
        raise InvalidParams(f"bad parameters {params!r} for preset {name}: "
                            f"{exc}") from exc
    raise InvalidParams(f"unknown preset {name!r}")


# ---------------------------------------------------------------------------
# twist and tensor

def twist(algebra, sigma, validate=False):
    """The same underlying space with product a*b = sigma(deg a, deg b) ab;
    the result is lambda^sigma-commutative.  Twisting by a biadditive map
    preserves associativity, degrees and the unit, so validation is off by
    default (tests re-validate small instances)."""
    if sigma.group != algebra.group:
        raise IncompatibleGroups(
            f"multiplier on {sigma.group!r} cannot twist an algebra over "
            f"{algebra.group!r}")
    key = (sigma.root_order, sigma.exponents)
    out = algebra._twist_cache.get(key)
    if out is None:
        degrees = algebra.degrees
        structure = {
            (i, j): [(k, sigma.value(degrees[i], degrees[j]) * c)
                     for k, c in cell]
            for i, row in enumerate(algebra.table)
            for j, cell in enumerate(row) if cell}
        out = make_algebra(degrees, structure,
                           lambda_twist(algebra.lam, sigma), algebra.labels,
                           validate=False, name=f"twist({algebra.name})",
                           unit_index=algebra.unit_index)
        algebra._twist_cache[key] = out
    # a cached twist is validated too
    if validate:
        _validate_algebra(out)
    return out


def graded_tensor(a, b):
    """Graded tensor product over the shared (group, lambda):
    (a1 (x) b1)(a2 (x) b2) = lambda(deg b1, deg a2) (a1 a2) (x) (b1 b2).
    This rule preserves associativity and lambda-commutativity, so the
    result is not validated."""
    if a.group != b.group or a.lam != b.lam:
        raise IncompatibleGroups(
            f"tensor factors must share group and commutation factor: "
            f"{a.name} vs {b.name}")
    cached = a._tensor_cache.get(id(b))
    if cached is not None and cached[0] is b:
        return cached[1]
    dim_b = b.dim
    labels = []
    degrees = []
    for la, da in zip(a.labels, a.degrees):
        for lb, db in zip(b.labels, b.degrees):
            labels.append(f"{la}|{lb}")
            degrees.append(da + db)
    structure = {}
    for i1, da1 in enumerate(a.degrees):
        for j1, db1 in enumerate(b.degrees):
            left = i1 * dim_b + j1
            for i2, da2 in enumerate(a.degrees):
                factor = a.lam.value(db1, da2)
                cell_a = a.table[i1][i2]
                if not cell_a:
                    continue
                for j2 in range(dim_b):
                    cell_b = b.table[j1][j2]
                    if not cell_b:
                        continue
                    right = i2 * dim_b + j2
                    acc = {}
                    for k, ca in cell_a:
                        for l, cb in cell_b:
                            flat = k * dim_b + l
                            prod = factor * ca * cb
                            acc[flat] = acc.get(flat, ZERO) + prod
                    structure[(left, right)] = acc
    unit = a.unit_index * dim_b + b.unit_index
    out = make_algebra(degrees, structure, a.lam, labels, validate=False,
                       name=f"{a.name}(x){b.name}", unit_index=unit)
    out._tensor_factors = (a, b)
    a._tensor_cache[id(b)] = (b, out)
    return out


def tensor_factors(t):
    factors = getattr(t, "_tensor_factors", None)
    if factors is None:
        raise InvalidParams(f"{t.name} is not a graded tensor product")
    return factors


def tensor_embed_left(t, a):
    """a |-> a (x) 1."""
    left, right = tensor_factors(t)
    if a.algebra is not left and a.algebra != left:
        raise MixedAlgebras(f"{a.algebra.name} is not the left factor of "
                            f"{t.name}")
    dim_b = right.dim
    return AlgebraElement(
        t, {i * dim_b + right.unit_index: c for i, c in a.coeffs.items()})


def tensor_embed_right(t, b):
    """b |-> 1 (x) b."""
    left, right = tensor_factors(t)
    if b.algebra is not right and b.algebra != right:
        raise MixedAlgebras(f"{b.algebra.name} is not the right factor of "
                            f"{t.name}")
    dim_b = right.dim
    return AlgebraElement(
        t, {left.unit_index * dim_b + j: c for j, c in b.coeffs.items()})


def tensor_project_left(t, elem):
    """Inverse of tensor_embed_left on its image: reads off the a (x) 1
    components and checks nothing else is present."""
    left, right = tensor_factors(t)
    dim_b = right.dim
    out = {}
    for flat, c in elem.coeffs.items():
        i, j = divmod(flat, dim_b)
        if j != right.unit_index:
            raise InvalidParams(
                f"element has a component outside A (x) 1: "
                f"{t.labels[flat]}")
        out[i] = c
    return AlgebraElement(left, out)


# ---------------------------------------------------------------------------
# inversion and units

def solve_inverse(alg, entries, mu, nu, degree):
    """The grid Y with X Y = I for the square grid X of elements of alg
    with row degrees mu and column degrees nu, or None when X is singular;
    a right inverse is two-sided in a finite-dimensional algebra.  X is
    converted by _int_entries, solved by _solve_grid and decoded."""
    a, d, order, t_den, table = _int_entries(entries, alg)
    found = _solve_grid(alg, a, order, table, d * t_den, mu, nu, degree)
    return None if found is None else _decode_grid(alg, order, *found)


def _solve_grid(alg, a, order, table, scale, mu, nu, degree):
    """(y, den) for the inverse Y of the square grid X over alg, or None
    when X is singular: den > 0, and Y^k_j has the coefficient
    y[k][j][b phi(N) + s] / den at e_b zeta_N^s (N = order; absent keys
    are zero).  a is D X as an integer grid from _int_entries, over the
    integer table scaled by T, and scale is D T, so X Y = I reads
    M y = D T e.

    X has row degrees mu and column degrees nu.  For X homogeneous of
    degree d, Y is homogeneous of degree -d: the unknowns of column j are
    the coefficients of Y^k_j in A^(mu_j - nu_k - d), and the equations
    are the coefficients of (X Y)^i_j in A^(mu_j - mu_i).  Columns with
    equal mu_j share one system, square whenever X is invertible.  An
    inhomogeneous X (degree INHOMOGENEOUS) solves one system over every
    basis vector.  The unknown coefficient of e_b zeta_N^s in Y^k_j has
    key k E + b phi(N) + s (E = len(table)), its column of M is
    _operator_column of that key, and solve_linear eliminates on ints;
    the systems' denominators are brought to their lcm."""
    n = len(a)
    m, size = euler_phi(order), len(table)
    systems = []
    for col_degree in (dict.fromkeys(mu) if degree is not INHOMOGENEOUS
                       else (None,)):
        if col_degree is None:
            js = range(n)
            unknowns = pieces = [range(alg.dim)] * n
        else:
            js = [j for j in range(n) if mu[j] == col_degree]
            unknowns = [alg.component_indices(col_degree - nuk - degree)
                        for nuk in nu]
            pieces = [alg.component_indices(col_degree - mui) for mui in mu]
        # equation (i, r phi(N) + u) is row where[i * size + r phi(N) + u]
        where = {t: c for c, t in enumerate(
            i * size + u for i, piece in enumerate(pieces) for r in piece
            for u in range(r * m, r * m + m))}
        keys = [k * size + s for k, piece in enumerate(unknowns)
                for b in piece for s in range(b * m, b * m + m)]
        if len(keys) != len(where):
            return None
        rows = [{} for _ in keys]
        for c, key in enumerate(keys):
            for t, y in _operator_column(a, table, key):
                rows[where[t]][c] = y
        rhs = [[0] * len(js) for _ in keys]
        for col, j in enumerate(js):
            rhs[where[j * size + alg.unit_index * m]][col] = scale
        sol = solve_linear(rows, rhs)
        if sol is None:
            return None
        systems.append((js, keys, sol))
    den = lcm(*(e for _, _, (e, _) in systems))
    y = [[{} for _ in range(n)] for _ in range(n)]
    for js, keys, (e, sol) in systems:
        f = den // e
        for key, row in zip(keys, sol):
            k, s = divmod(key, size)
            for j, v in zip(js, row):
                if v:
                    y[k][j][s] = v * f
    return y, den


def _decode_grid(algebra, order, y, den):
    """The grid of elements y[k][j] / den, for a grid y of int dicts over
    the indices b phi(N) + s of _int_entries (N = order)."""
    return [[_decode(algebra, order, ((s, Fraction(v, den))
                                      for s, v in cell.items()))
             for cell in row] for row in y]


def invert_element(a):
    """The two-sided inverse of a: the 1x1 case of solve_inverse."""
    zero = (a.algebra.group.zero(),)
    grid = solve_inverse(a.algebra, [[a]], zero, zero, a.degree_of())
    if grid is None:
        raise NotInvertible(f"{a!r} is not invertible in {a.algebra.name}")
    return grid[0][0]


def _try_invert(a):
    try:
        return invert_element(a)
    except NotInvertible:
        return None


def _find_component_unit(alg, idxs):
    """An invertible element of the span of the given basis vectors, or
    None.

    Complete for components of dimension <= 2: dimension 1 is a direct
    inversion test, and for dimension 2 the determinant of the left-regular
    matrix of b1 + t b2 is a polynomial of degree <= dim in t, so scanning
    dim+1 points plus b2 alone decides exactly.  For dimension >= 3 the
    search is a bounded heuristic (basis vectors, pair sums, the full sum);
    a miss can only under-report and the subgroup closure below repairs
    products of found units.
    """
    d = alg.dim
    candidates = [alg.basis_element(i) for i in idxs]
    if len(idxs) == 2:
        b1, b2 = (alg.basis_element(i) for i in idxs)
        candidates.extend(b1 + b2 * Fraction(t) for t in range(1, d + 2))
    elif len(idxs) > 2:
        base = [alg.basis_element(i) for i in idxs]
        candidates.extend(x + y for x, y in itertools.combinations(base, 2))
        total = alg.zero()
        for x in base:
            total = total + x
        candidates.append(total)
    for cand in candidates:
        inv = _try_invert(cand)
        if inv is not None:
            return cand, inv
    return None


def unit_degrees(alg):
    """All degrees whose homogeneous component contains an invertible
    element.  The result is a subgroup of the grading group, disjoint from
    odd degrees (odd homogeneous elements square to zero)."""
    if alg._unit_witnesses is None:
        witnesses = {}
        for deg, idxs in alg._components.items():
            found = _find_component_unit(alg, idxs)
            if found is not None:
                witnesses[deg] = found
        # close under negation and addition: units multiply to units
        changed = True
        while changed:
            changed = False
            for g in list(witnesses):
                w, winv = witnesses[g]
                if -g not in witnesses:
                    witnesses[-g] = (winv, w)
                    changed = True
            for g1 in list(witnesses):
                for g2 in list(witnesses):
                    g = g1 + g2
                    if g not in witnesses:
                        w1, i1 = witnesses[g1]
                        w2, i2 = witnesses[g2]
                        witnesses[g] = (w1 * w2, i2 * i1)
                        changed = True
        alg._unit_witnesses = witnesses
    return set(alg._unit_witnesses)


def unit_witness(alg, degree):
    """An invertible homogeneous element of the given degree and its
    inverse, as found by unit_degrees."""
    unit_degrees(alg)
    return alg._unit_witnesses.get(degree)


# ---------------------------------------------------------------------------
# crossed-product machinery for algebras missing homogeneous units

@lru_cache(maxsize=None)
def even_crossed_product(lam):
    """A crossed product over the even degrees of lam: one invertible
    homogeneous basis vector t_h per even degree h, with
    t_g t_h = tau(g, h) t_(g+h) for tau the inverse of an NS multiplier
    sigma of lam.  lam^sigma is 1 on even degrees, so
    tau(g, h) tau(h, g)^(-1) = lam(g, h): every grading with an NS
    multiplier has one."""
    return _crossed(solve_ns_multiplier(lam).inverse(),
                    f"even_crossed_product{list(lam.group.moduli)}", lam)


def crossed_unit(alg, degree):
    """The basis unit t_degree of a crossed product, with its inverse."""
    index = getattr(alg, "_cp_index", None)
    if index is None or degree.residues not in index:
        raise NotCrossedProduct(
            f"{alg.name} has no crossed-product unit of degree {degree!r}")
    t = alg.basis_element(index[degree.residues])
    tinv_idx = index[(-degree).residues]
    # t * t_(-d) = sigma(d, -d) t_0: divide out the scalar
    prod = t * alg.basis_element(tinv_idx)
    scale = prod.coeffs[alg.unit_index]
    return t, alg.basis_element(tinv_idx) / scale


def adjoined_units(alg, degrees):
    """A (x) C for C the even crossed product of A's commutation factor,
    with the units 1 (x) t_d and their inverses for each even d in
    degrees, as two dicts keyed by degree."""
    cp = even_crossed_product(alg.lam)
    big = graded_tensor(alg, cp)
    ts, tinvs = {}, {}
    for d in set(degrees):
        t, tinv = crossed_unit(cp, d)
        ts[d] = tensor_embed_right(big, t)
        tinvs[d] = tensor_embed_right(big, tinv)
    return big, ts, tinvs


def transport(a, target):
    """Move an element to another algebra on the same labelled basis (for
    example between an algebra and its twist); coefficients are reused
    verbatim."""
    if a.algebra.labels != target.labels:
        raise MixedAlgebras(
            f"cannot transport between {a.algebra.name} and {target.name}")
    return AlgebraElement(target, dict(a.coeffs))
