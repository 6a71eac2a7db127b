"""Exact scalar arithmetic in Q and in cyclotomic extensions Q(zeta_N).

A scalar is a residue modulo the N-th cyclotomic polynomial Phi_N, stored as
phi(N) exact rational coefficients (constant term first).  Representing the
quotient modulo Phi_N rather than x^N - 1 keeps the type a field, which the
Berezinian and inversion formulas need.  N = 1 and N = 2 degenerate to plain
rationals, and any residue whose non-constant coefficients vanish is
canonicalized down to root order 1 so that rationals compare equal no matter
which order produced them.

Binary operations on scalars of different root orders coerce both sides to
the lcm order; the coercion is an injective ring map.

An inverse solves the phi(N) x phi(N) system of multiplication by a on
ints with solve_linear, the one exact elimination of the library, which
every element, matrix and Berezinian inverse goes through too.  Phi_N is
an exact quotient on ints; there is no polynomial division.

Fast paths: add, sub, mul and neg on operands that are both of root order 1
do one Fraction operation and build the (already canonical) result
directly, without padding, alignment or re-canonicalising.  cyclo results
are cached and shared, which is sound because a CycloScalar is never
mutated after __init__.
"""

import re
import sys
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .errors import (DivisionByZero, IncompatibleRootOrders, ParseError,
                     TooLarge)

_F0 = Fraction(0)
_F1 = Fraction(1)


@lru_cache(maxsize=None)
def euler_phi(n):
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


@lru_cache(maxsize=None)
def cyclotomic_poly(n):
    """Integer coefficients of Phi_n, constant term first, by the recursive
    divisor method: Phi_n = (x^n - 1) / prod(Phi_d for proper divisors d).
    Each Phi_d is monic over Z, so every quotient is exact on ints."""
    p = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            f = cyclotomic_poly(d)
            m = len(f) - 1
            # synthetic division: p[k] becomes the quotient's z^(k - m)
            for k in range(len(p) - 1, m - 1, -1):
                for i, x in enumerate(f[:m], k - m):
                    p[i] -= p[k] * x
            assert not any(p[:m])
            p = p[m:]
    return tuple(p)


def _reduce(p, n):
    """The polynomial p in z modulo Phi_n, as phi(n) coefficients, constant
    term first.  Each coefficient c of z^k with k >= phi(n), from the top
    down, is folded away by subtracting c z^(k - phi(n)) Phi_n; Phi_n is
    monic over Z, so this is exact on ints and on Fractions.  A shorter p
    is padded with Fraction zeros."""
    phi = cyclotomic_poly(n)
    m = len(phi) - 1
    p = list(p)
    p += [_F0] * (m - len(p))
    for k in range(len(p) - 1, m - 1, -1):
        c = p[k]
        if c:
            for i, f in enumerate(phi, k - m):
                if f:
                    p[i] -= c * f
    del p[m:]
    return p


def solve_linear(matrix, rhs):
    """Solve M Y = R over Q by fraction-free Gauss-Jordan elimination on
    ints (after E. H. Bareiss, Math. Comp. 22 (1968) 565-578).  M is n
    sparse rows {column: int} over the columns 0..n-1 and R is n rows of
    w ints; returns (E, Y) with E > 0 and Y n rows of w ints such that
    M Y = E R, or None if M is singular, which is when a column has no
    nonzero entry left to pivot on.  Each pivot step rewrites only the
    rows with a nonzero entry f in the pivot column, as (p/g) row - (f/g)
    pivot row for the pivot p and g = gcd(p, f), and divides each row by
    the gcd of its entries; the pivot row is the shortest candidate, so
    that fill-in stays small.  Each finished row is primitive, so its
    diagonal entry is its least denominator, and E is their lcm."""
    n, w = len(matrix), len(rhs[0]) if rhs else 0
    rows = []
    for mrow, rrow in zip(matrix, rhs):
        row = {c: x for c, x in mrow.items() if x}
        row.update((c, x) for c, x in enumerate(rrow, n) if x)
        rows.append(_primitive(row))
    free, pivots = set(range(n)), []
    for col in range(n):
        hits = [i for i, row in enumerate(rows) if col in row]
        k = min((i for i in hits if i in free), key=lambda i: len(rows[i]),
                default=None)
        if k is None:
            return None
        free.remove(k)
        pivots.append(k)
        prow = rows[k]
        p = prow[col]
        for i in hits:
            if i == k:
                continue
            row = rows[i]
            g = gcd(p, row[col])
            s, t = p // g, row[col] // g
            if s != 1:
                row = {c: s * x for c, x in row.items()}
            for c, y in prow.items():
                x = row.get(c, 0) - t * y
                if x:
                    row[c] = x
                else:
                    del row[c]
            rows[i] = _primitive(row)
    finished = [rows[k] for k in pivots]
    den = lcm(*(row[col] for col, row in enumerate(finished)))
    return den, [[row.get(c, 0) * (den // row[col]) for c in range(n, n + w)]
                 for col, row in enumerate(finished)]


def _primitive(row):
    """The sparse int row divided by the gcd of its entries."""
    g = gcd(*row.values())
    return {c: x // g for c, x in row.items()} if g > 1 else row


_PHI = {}  # root order N -> euler_phi(N), for CycloScalar.__init__


class CycloScalar:
    """An element of Q(zeta_N), kept as the reduced residue modulo Phi_N."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order, coeffs):
        """The polynomial coeffs in zeta_N, N = order, constant term first.
        phi(N) coefficients, as every library caller passes, are kept as
        they stand; any other number is reduced modulo Phi_N or padded."""
        coeffs = tuple(coeffs)
        try:
            phi = _PHI[order]
        except KeyError:
            phi = _PHI[order] = euler_phi(order)
        if len(coeffs) != phi:
            coeffs = tuple(_reduce(coeffs, order))
        if order > 1 and not any(coeffs[1:]):
            order, coeffs = 1, coeffs[:1]
        self.order = order
        self.coeffs = coeffs

    def is_rational(self):
        return self.order == 1

    def as_fraction(self):
        if self.order != 1:
            raise IncompatibleRootOrders(
                f"value {self} of root order {self.order} is not rational")
        return self.coeffs[0]

    def __add__(self, other):
        if type(other) is not CycloScalar:
            other = _lift(other)
            if other is None:
                return NotImplemented
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not CycloScalar:
            other = _lift(other)
            if other is None:
                return NotImplemented
        return sub(self, other)

    def __rsub__(self, other):
        other = _lift(other)
        return sub(other, self) if other is not None else NotImplemented

    def __mul__(self, other):
        if type(other) is not CycloScalar:
            other = _lift(other)
            if other is None:
                return NotImplemented
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _lift(other)
        return div(self, other) if other is not None else NotImplemented

    def __rtruediv__(self, other):
        other = _lift(other)
        return div(other, self) if other is not None else NotImplemented

    def __neg__(self):
        return neg(self)

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        return power(self, k)

    def __eq__(self, other):
        other = _lift(other)
        if other is None:
            return NotImplemented
        return eq(self, other)

    __hash__ = None

    def __bool__(self):
        return any(self.coeffs)

    def __repr__(self):
        return f"CycloScalar({_display(self)!r}, order={self.order})"

    def __str__(self):
        return _display(self)


ZERO = CycloScalar(1, (_F0,))
ONE = CycloScalar(1, (_F1,))
MINUS_ONE = CycloScalar(1, (-_F1,))


def _rational(f):
    """The Fraction f as a root-order-1 scalar, which is canonical as it
    stands, so __init__ is skipped."""
    out = object.__new__(CycloScalar)
    out.order = 1
    out.coeffs = (f,)
    return out


def rational(p, q=1):
    """The rational p/q as a scalar."""
    return CycloScalar(1, (Fraction(p, q),))


def _lift(x):
    if isinstance(x, CycloScalar):
        return x
    if isinstance(x, (int, Fraction)):
        return CycloScalar(1, (Fraction(x),))
    return None


def as_scalar(x):
    lifted = _lift(x)
    if lifted is None:
        raise TypeError(f"cannot interpret {x!r} as a scalar")
    return lifted


def cyclo(n, N):
    """zeta_N raised to the n-th power, reduced modulo Phi_N.  The result
    is shared between calls with the same n mod N."""
    return _cyclo(n % N, N)


@lru_cache(maxsize=1024)
def _cyclo(k, N):
    return CycloScalar(N, _reduce([_F0] * k + [_F1], N))


def coerce_to(a, order):
    """Rewrite a at the given root order; its own order must divide it."""
    if order % a.order:
        raise IncompatibleRootOrders(
            f"cannot coerce root order {a.order} into {order}")
    if order == a.order:
        return a
    step = order // a.order
    poly = [_F0] * ((len(a.coeffs) - 1) * step + 1) if a.coeffs else []
    for k, c in enumerate(a.coeffs):
        poly[k * step] = c
    return CycloScalar(order, _reduce(poly, order))


def _aligned(a, b):
    if a.order == b.order:
        return a, b, a.order
    n = lcm(a.order, b.order)
    return coerce_to(a, n), coerce_to(b, n), n


def _padded(a, b):
    # aligned operands may still differ in length: rational values collapse
    # to a single coefficient regardless of root order
    a, b, n = _aligned(a, b)
    m = max(len(a.coeffs), len(b.coeffs))
    pa = a.coeffs + (_F0,) * (m - len(a.coeffs))
    pb = b.coeffs + (_F0,) * (m - len(b.coeffs))
    return pa, pb, n


def add(a, b):
    if a.order == 1 and b.order == 1:
        return _rational(a.coeffs[0] + b.coeffs[0])
    pa, pb, n = _padded(a, b)
    return CycloScalar(n, tuple(x + y for x, y in zip(pa, pb)))


def sub(a, b):
    if a.order == 1 and b.order == 1:
        return _rational(a.coeffs[0] - b.coeffs[0])
    pa, pb, n = _padded(a, b)
    return CycloScalar(n, tuple(x - y for x, y in zip(pa, pb)))


def neg(a):
    if a.order == 1:
        return _rational(-a.coeffs[0])
    return CycloScalar(a.order, tuple(-x for x in a.coeffs))


def mul(a, b):
    if a.order == 1 and b.order == 1:
        return _rational(a.coeffs[0] * b.coeffs[0])
    pa, pb, n = _padded(a, b)
    m = len(pa)
    conv = [_F0] * (2 * m - 1)
    for i, x in enumerate(pa):
        if x:
            for j, y in enumerate(pb):
                if y:
                    conv[i + j] += x * y
    return CycloScalar(n, _reduce(conv, n))


def inv(a):
    if is_zero(a):
        raise DivisionByZero("scalar inverse of zero")
    if a.order == 1:
        c = a.coeffs[0]
        return _rational(Fraction(c.denominator, c.numerator))
    # (D a) y = E with D the lcm of a's denominators: column k of the
    # system is (D a) z^k, reduced modulo Phi_N on ints
    n, m = a.order, euler_phi(a.order)
    den = lcm(*(c.denominator for c in a.coeffs))
    col = [c.numerator * (den // c.denominator) for c in a.coeffs]
    cols = [col + [0] * (m - len(col))]
    for _ in range(1, m):
        cols.append(_reduce([0] + cols[-1], n))
    e, y = solve_linear([dict(enumerate(row)) for row in zip(*cols)],
                        [[1]] + [[0]] * (m - 1))
    return CycloScalar(n, tuple(Fraction(den * yi, e) for yi, in y))


def div(a, b):
    return mul(a, inv(b))


def power(a, k):
    if k < 0:
        return power(inv(a), -k)
    out = ONE
    base = a
    while k:
        if k & 1:
            out = mul(out, base)
        base = mul(base, base)
        k >>= 1
    return out


def eq(a, b):
    a, b, _ = _aligned(a, b)
    return a.coeffs == b.coeffs


def is_zero(a):
    return not any(a.coeffs)


_RATIONAL_RE = re.compile(r"-?\d+(?:/\d+)?")
_TERM_RE = re.compile(
    r"^(?P<coef>-?\d+(?:/\d+)?)?(?P<star>\*)?(?P<z>z(?:\^(?P<exp>-?\d+))?)?$")


def _digit_limit(what):
    """The message for a number past the interpreter's limit on int <-> str
    conversion, the only ValueError that int() and str() raise here."""
    return (f"{what} exceeds the limit of {sys.get_int_max_str_digits()} "
            f"digits on integer string conversion")


def parse_scalar(text, root_order=1):
    """Parse the textual scalar syntax: rationals as "p/q", cyclotomics as
    polynomials in z such as "1/2 + 3*z^2".  The root order comes from the
    enclosing file and applies to every z; a text without z is a rational
    at any root order."""
    s = text.replace(" ", "")
    try:
        if _RATIONAL_RE.fullmatch(s):
            p, _, q = s.partition("/")
            return _rational(Fraction(int(p), int(q)) if q
                             else Fraction(int(p)))
        return _parse_terms(text, s, root_order)
    except ZeroDivisionError as exc:
        raise ParseError(f"zero denominator in {text!r}") from exc
    except ValueError as exc:
        raise ParseError(_digit_limit(f"scalar {text[:20]!r}...")) from exc


def _parse_terms(text, s, root_order):
    """The general tokenizer behind parse_scalar, for s = text without
    spaces."""
    if not s:
        raise ParseError("empty scalar")
    # "^-" is part of an exponent, not a term separator
    tokens = re.findall(r"[+-]?(?:\^-|[^+-])+", s)
    if "".join(tokens) != s:
        raise ParseError(f"cannot tokenize scalar {text!r}")
    exponents = {}
    for tok in tokens:
        sign = 1
        if tok[0] in "+-":
            sign = -1 if tok[0] == "-" else 1
            tok = tok[1:]
        m = _TERM_RE.match(tok)
        if not m or (m.group("coef") is None and m.group("z") is None):
            raise ParseError(f"bad scalar term {tok!r} in {text!r}")
        if m.group("star") and m.group("z") is None:
            raise ParseError(f"bad scalar term {tok!r} in {text!r}")
        coef = Fraction(m.group("coef")) if m.group("coef") else _F1
        k = 0
        if m.group("z"):
            k = int(m.group("exp")) if m.group("exp") else 1
        k %= root_order  # zeta_N^N = 1, so exponents fold, negatives included
        exponents[k] = exponents.get(k, _F0) + sign * coef
    poly = [_F0] * (max(exponents) + 1)
    for k, v in exponents.items():
        poly[k] += v
    return CycloScalar(root_order, _reduce(poly, root_order))


def format_scalar(a):
    """Inverse of parse_scalar: "p/q" for rationals, a polynomial in z
    otherwise."""
    try:
        return _format_terms(a)
    except ValueError as exc:
        raise TooLarge(_digit_limit("a coefficient to write out")) from exc


def _display(a):
    """format_scalar(a) for repr and str, which must not raise: a value
    past the digit limit shows as the digit count of its longest number."""
    try:
        return _format_terms(a)
    except ValueError:
        digits = max(_digit_count(n) for f in a.coeffs
                     for n in (f.numerator, f.denominator))
        return f"<{digits}-digit number>"


def _digit_count(n):
    """The number of decimal digits of n, counted without str(); the
    first guess is a lower bound, as 0.30102 < log10(2)."""
    n = abs(n)
    d = max(1, (n.bit_length() - 1) * 30102 // 100000)
    while 10 ** d <= n:
        d += 1
    return d


def _format_terms(a):
    if a.order == 1:
        return str(a.coeffs[0])
    parts = []
    for k, c in enumerate(a.coeffs):
        if not c:
            continue
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            var = "z" if k == 1 else f"z^{k}"
            body = var if mag == 1 else f"{mag}*{var}"
        parts.append(("-" if c < 0 else "+", body))
    if not parts:
        return "0"
    sign, body = parts[0]
    out = ("-" if sign == "-" else "") + body
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out
