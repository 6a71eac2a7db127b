"""Exact cyclotomic scalar arithmetic."""

import random
import re
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gradedet import scalars as scalar_module
from gradedet.algebra import preset
from gradedet.errors import (DivisionByZero, IncompatibleRootOrders,
                             ParseError, TooLarge)
from gradedet.oracles import SweepReport
from gradedet.scalars import (ONE, ZERO, CycloScalar, _reduce, as_scalar,
                              coerce_to, cyclo, cyclotomic_poly, euler_phi,
                              format_scalar, inv, parse_scalar, power,
                              rational)

rationals = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 7))


def cyclos(order):
    return st.lists(rationals, min_size=1, max_size=order).map(
        lambda cs: sum((cyclo(k, order) * c for k, c in enumerate(cs)),
                       ZERO))


scalars = st.one_of(rationals.map(as_scalar), cyclos(3), cyclos(4), cyclos(6))


@settings(deadline=None)
@given(st.data())
def test_reduce_is_the_remainder_mod_phi(data):
    # sympy's remainder is the reference; degrees below 2n cover every
    # caller
    sympy = pytest.importorskip("sympy")
    n = data.draw(st.one_of(st.integers(1, 64), st.just(256)))
    ints = data.draw(st.booleans())
    p = data.draw(st.lists(st.integers(-50, 50) if ints else rationals,
                           max_size=2 * n - 1))
    m = euler_phi(n)
    x = sympy.Symbol("x")
    phi = sympy.Poly(sympy.cyclotomic_poly(n, x), x, domain=sympy.QQ)
    rem = sympy.Poly(p[::-1] or [0], x, domain=sympy.QQ).rem(phi)
    rem = [Fraction(int(c.p), int(c.q)) for c in rem.all_coeffs()[::-1]]
    got = _reduce(p, n)
    assert got == rem + [0] * (m - len(rem))
    if ints and len(p) >= m:  # the integer table's case stays on ints
        assert all(type(c) is int for c in got)


def test_cyclotomic_poly_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for n in range(1, 257):
        want = sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()
        assert cyclotomic_poly(n) == tuple(int(c) for c in reversed(want))


def test_rational_basics():
    assert rational(2, 4) == rational(1, 2)
    assert rational(3).as_fraction() == Fraction(3)
    assert (rational(1, 3) + rational(1, 6)).as_fraction() == Fraction(1, 2)
    assert rational(5) * rational(0) == ZERO
    assert not ZERO
    assert ONE


def test_roots_of_unity():
    i = cyclo(1, 4)
    assert i * i == rational(-1)
    assert i ** 4 == ONE
    w = cyclo(1, 3)
    assert ONE + w + w * w == ZERO
    # (1+w)(1+w^2) = 1 + w + w^2 + w^3 = 1
    assert (ONE + w) * (ONE + w * w) == ONE
    assert cyclo(1, 6) ** 6 == ONE
    assert cyclo(3, 6) == rational(-1)


def test_order_collapse():
    # values that happen to be rational drop back to root order 1
    assert cyclo(2, 4).order == 1
    assert cyclo(2, 4) == rational(-1)
    assert (cyclo(1, 4) * cyclo(3, 4)).is_rational()


def test_mixed_order_arithmetic():
    # regression: a rational operand is stored with a single coefficient,
    # so arithmetic must pad before convolving or zipping
    i = cyclo(1, 4)
    assert rational(2) * i + rational(0) == i + i
    assert (rational(1) + i) - i == ONE
    assert (rational(1) + i) * (rational(1) - i) == rational(2)
    w = cyclo(1, 3)
    assert rational(1) + w != ONE
    assert (rational(2) * w) * w * w == rational(2)


def test_mixed_root_orders_coerce():
    w6 = cyclo(1, 6)
    w3 = cyclo(1, 3)
    assert w6 * w6 * w6 == rational(-1)
    assert w6 ** 2 == w3
    assert coerce_to(w3, 6) == w6 * w6
    with pytest.raises(IncompatibleRootOrders):
        coerce_to(cyclo(1, 4), 6)


def test_division():
    i = cyclo(1, 4)
    assert ONE / i == -i
    assert (rational(3) + i) / (rational(3) + i) == ONE
    with pytest.raises(DivisionByZero):
        ONE / ZERO
    assert i ** -1 == -i


@given(scalars, scalars, scalars)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a
    assert a - a == ZERO


@given(rationals, rationals)
def test_rational_fast_path_is_fraction_arithmetic(x, y):
    a, b = as_scalar(x), as_scalar(y)
    for got, want in ((a + b, x + y), (a - b, x - y), (a * b, x * y),
                      (-a, -x)):
        # the canonical form: root order 1 and one coefficient, so equality,
        # formatting and serialize digests see the same value as before
        assert got.order == 1 and got.coeffs == (want,)
        assert got == rational(want.numerator, want.denominator)
        assert format_scalar(got) == str(want)


def test_mixed_root_orders_take_the_padded_path(monkeypatch):
    seen = []
    padded = scalar_module._padded

    def spy(a, b):
        seen.append((a.order, b.order))
        return padded(a, b)

    monkeypatch.setattr(scalar_module, "_padded", spy)
    half, i = rational(1, 2), cyclo(1, 4)
    assert (half + half, half - half, half * half) == (ONE, ZERO,
                                                       rational(1, 4))
    assert seen == []
    assert half * i + half * i == i
    assert (i - half) + half == i
    assert seen == [(1, 4), (1, 4), (4, 4), (4, 1), (4, 1)]


def test_cyclo_is_shared_per_residue():
    assert cyclo(1, 3) is cyclo(4, 3) is cyclo(-2, 3)
    assert cyclo(2, 4) is cyclo(6, 4)
    assert cyclo(2, 4) == rational(-1) and cyclo(2, 4).order == 1


@given(scalars)
def test_field_inverse(a):
    if a:
        assert a * (ONE / a) == ONE


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_dense_inverse_at_high_root_orders(data):
    # mul and _reduce share no code with the solve behind inv
    order = data.draw(st.sampled_from([*range(3, 65), 105, 128]))
    coeffs = data.draw(st.lists(rationals, min_size=euler_phi(order),
                                max_size=euler_phi(order)))
    a = CycloScalar(order, coeffs)
    if a:
        b = inv(a)
        assert a * b == ONE
        assert b.order == a.order
        assert all(type(c) is Fraction for c in b.coeffs)


def test_dense_inverse_at_order_128_is_fast():
    rng = random.Random(128)
    a = CycloScalar(128, [Fraction(rng.randint(-99, 99), rng.randint(1, 9))
                          for _ in range(euler_phi(128))])
    start = time.perf_counter()
    b = inv(a)
    assert time.perf_counter() - start < 2
    assert a * b == ONE


def test_negative_powers():
    assert power(cyclo(1, 3), -1) == cyclo(2, 3)
    assert power(rational(2), -2) == rational(1, 4)
    with pytest.raises(DivisionByZero):
        power(ZERO, -1)


@given(scalars)
def test_format_parse_round_trip(a):
    assert parse_scalar(format_scalar(a), a.order) == a


def test_parse_scalar_syntax():
    assert parse_scalar("-3/4") == rational(-3, 4)
    assert parse_scalar("1/2 + 3*z^2", 4) == rational(1, 2) + cyclo(2, 4) * 3
    assert parse_scalar("z", 4) == cyclo(1, 4)
    assert parse_scalar("z^-1", 4) == cyclo(3, 4)
    for bad in ("", "z^", "1//2", "2**z", "q"):
        with pytest.raises(ParseError):
            parse_scalar(bad, 4)


@st.composite
def rational_texts(draw):
    """p or p/q with an optional sign, leading zeros and stray spaces; some
    fall outside the rational syntax (+3, --1, 3/-4) or divide by zero."""
    text = (draw(st.sampled_from(["", "-", "+", "--"]))
            + draw(st.from_regex(r"0{0,3}[0-9]{1,8}", fullmatch=True))
            + draw(st.one_of(
                st.just(""),
                st.from_regex(r"/-?0{0,3}[0-9]{1,6}", fullmatch=True))))
    for pos in sorted(draw(st.lists(st.integers(0, len(text)), max_size=3)),
                      reverse=True):
        text = text[:pos] + " " + text[pos:]
    return text


def _outcome(text, order):
    try:
        a = parse_scalar(text, order)
    except ParseError as exc:
        return "ParseError", str(exc)
    return a.order, a.coeffs


def _tokenizer_outcome(text, order):
    """parse_scalar with its rational fast path switched off."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scalar_module, "_RATIONAL_RE", re.compile(r"(?!)"))
        return _outcome(text, order)


@pytest.mark.parametrize("order", [1, 4, 12])
@given(text=rational_texts())
def test_rational_fast_path_matches_tokenizer(order, text):
    assert _outcome(text, order) == _tokenizer_outcome(text, order)


@pytest.mark.parametrize("order", [1, 4, 12])
def test_rational_fast_path_error_texts(order):
    for text in ("1/0", "3/-4", "--1", "", "+3", " 1 / 0"):
        assert _outcome(text, order) == _tokenizer_outcome(text, order)
    assert _outcome("1/0", order) == ("ParseError",
                                      "zero denominator in '1/0'")
    assert _outcome("3/-4", order) == (
        "ParseError", "bad scalar term '3/' in '3/-4'")


LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_digit_limit = pytest.mark.skipif(
    not LIMIT, reason="this interpreter has no int/str digit limit")


@needs_digit_limit
def test_digit_limit_is_a_named_error():
    for text in ("7" * (LIMIT + 1), "1/" + "3" * (LIMIT + 1),
                 f"{'2' * (LIMIT + 1)}*z", "z^" + "1" * (LIMIT + 1)):
        with pytest.raises(ParseError, match=f"limit of {LIMIT} digits"):
            parse_scalar(text, 4)
    big = rational(10) ** LIMIT
    with pytest.raises(TooLarge, match=f"limit of {LIMIT} digits"):
        format_scalar(big)
    with pytest.raises(TooLarge):
        format_scalar(big * cyclo(1, 3))


def test_repr_and_str():
    assert str(rational(-1, 2)) == "-1/2"
    assert str(cyclo(1, 4)) == "z"
    assert str(ZERO) == "0"
    assert "CycloScalar" in repr(cyclo(1, 3))


@needs_digit_limit
def test_repr_past_the_digit_limit():
    big = rational(10) ** LIMIT
    shown = f"<{LIMIT + 1}-digit number>"
    assert str(big) == shown
    assert repr(big * cyclo(1, 3)) == f"CycloScalar({shown!r}, order=3)"
    q = preset("quaternions")
    assert repr(q.basis_element("i") * big + q.one()) == f"1 + ({shown})*i"
    # a sweep comparing such values records the failure
    report = SweepReport("digits")
    report.compare("tag", big, big + 1)
    assert report.failures == [
        ("tag", f"CycloScalar({shown!r}, order=1)",
         f"CycloScalar({shown!r}, order=1)")]
    # the digit count is exact on both sides of a power of ten
    assert [scalar_module._digit_count(n) for n in
            (0, 9, -10, 10 ** 5000 - 1, 10 ** 5000)] == [1, 1, 2, 5000, 5001]
