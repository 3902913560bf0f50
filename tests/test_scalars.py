from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from qgalois.presfile import parse_element
from qgalois.scalars import PoleError, QRat, _padd, _pdiv_exact, _pgcd, _pmul, _pneg, q_power

q = q_power(1)


def test_basic_arithmetic():
    assert q * q == q_power(2)
    assert (q_power(2) - 1) / (q - 1) == q + 1
    assert q_power(-1) * q == QRat(1)
    assert q + q == 2 * q
    assert (q - q).is_zero


def test_division_by_zero_is_distinct():
    with pytest.raises(ZeroDivisionError):
        q / QRat(0)
    with pytest.raises(ZeroDivisionError):
        QRat(0) ** -1


def test_canonical_form():
    a = QRat((2, 2), (4,))  # (2q+2)/4
    assert a == QRat((1, 1), (2,))
    assert a.den == (2,)
    b = QRat((0, -1), (0, 0, -1))  # -q / -q^2
    assert b == q_power(-1)
    assert b.den[-1] > 0


def test_evaluate():
    assert q_power(2).evaluate(1) == 1
    assert ((q_power(2) - 1) / (q - 1)).evaluate(2) == 3
    assert (QRat(1) / (q - 1) + 0).evaluate(Fraction(1, 2)) == -2
    with pytest.raises(PoleError):
        (QRat(1) / (q - 1)).evaluate(1)


polys = st.lists(st.integers(min_value=-6, max_value=6), min_size=1, max_size=4)


@st.composite
def qrats(draw):
    num = tuple(draw(polys))
    den = tuple(draw(polys))
    if not any(den):
        den = (1,)
    return QRat(num, den)


@st.composite
def monomials(draw):
    """c q^k with c a nonzero rational of either sign and |k| <= 60."""
    n = draw(st.integers(min_value=-40, max_value=40).filter(bool))
    d = draw(st.integers(min_value=1, max_value=40))
    k = draw(st.integers(min_value=-60, max_value=60))
    return QRat((0,) * k + (n,), (0,) * -k + (d,))


@settings(max_examples=80, deadline=None)
@given(qrats(), qrats(), qrats())
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    if not a.is_zero:
        assert a * (QRat(1) / a) == QRat(1)


@settings(max_examples=80, deadline=None)
@given(qrats(), qrats())
def test_evaluate_is_a_homomorphism(a, b):
    point = Fraction(3, 7)
    try:
        va, vb = a.evaluate(point), b.evaluate(point)
    except PoleError:
        return
    assert (a * b).evaluate(point) == va * vb
    assert (a + b).evaluate(point) == va + vb


def _fraction_horner(a, x: Fraction) -> Fraction:
    """Horner's rule in Fraction, one gcd per step: the oracle for the integer
    Horner of QRat.evaluate."""
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


points = st.one_of(
    st.sampled_from([Fraction(3, 7), Fraction(-3, 7), Fraction(0), Fraction(1), -1, 2,
                     10 ** 30, Fraction(-7, 10 ** 20), Fraction(10 ** 15 + 1, 3)]),
    st.integers(min_value=-10 ** 12, max_value=10 ** 12),
    st.fractions(max_denominator=10 ** 9).filter(lambda x: abs(x) < 10 ** 9))


@settings(max_examples=200, deadline=None)
@given(qrats(), points)
def test_evaluate_matches_fraction_horner(a, point):
    den = _fraction_horner(a.den, Fraction(point))
    if den == 0:
        with pytest.raises(PoleError):
            a.evaluate(point)
        return
    value = a.evaluate(point)
    assert type(value) is Fraction
    assert value == _fraction_horner(a.num, Fraction(point)) / den


def test_evaluate_zero_and_integer_points():
    for point in (1, -3, Fraction(3, 7), 10 ** 40):
        assert type(QRat(0).evaluate(point)) is Fraction and QRat(0).evaluate(point) == 0
    # the degree correction b^(deg den - deg num), both signs: q/(q^3+1) and q^3/(q+2)
    assert (q / (q_power(3) + 1)).evaluate(Fraction(1, 2)) == Fraction(4, 9)
    assert (q_power(3) / (q + 2)).evaluate(Fraction(-1, 3)) == Fraction(-1, 45)
    assert type(q.evaluate(1)) is Fraction


@settings(max_examples=120, deadline=None)
@given(qrats())
def test_parse_format_round_trip(suq2, a):
    # the printer and the presentation-file grammar agree on every value
    assert parse_element(suq2, f"({a}) a") == suq2.gen("a") * a


# ---------------------------------------------------------------------------
# the integer gcd kernel; polynomials are coefficient tuples, constant first

def test_pgcd_without_monomial_arguments():
    # (q+1)(q-2) and (q+1)(3q+5) share exactly q+1
    assert _pgcd(_pmul((1, 1), (-2, 1)), _pmul((1, 1), (5, 3))) == (1, 1)
    # a degree-2 common factor found by the pseudo-remainder sequence
    h = (1, 1, 1)
    assert _pgcd(_pmul(h, (-2, 1)), _pmul(h, (5, 0, 3))) == h
    assert _pgcd((1, 1), (2, 1)) == (1,)
    assert _pgcd((1, 0, 1), (1, 1)) == (1,)


def test_pgcd_content_and_sign():
    # 6(q+1)(q-2) and -4(q+1)(3q+5): content 2, positive leading coefficient
    a = _pmul((6,), _pmul((1, 1), (-2, 1)))
    b = _pmul((-4,), _pmul((1, 1), (5, 3)))
    assert _pgcd(a, b) == (2, 2)
    assert _pgcd(_pmul((-1,), a), _pmul((-1,), b)) == (2, 2)
    assert _pgcd((-3, -3), (-6, -6)) == (3, 3)
    # content only: primitive parts coprime
    assert _pgcd((4, 8), (6, 0, 6)) == (2,)
    assert _pgcd((-5,), (10, 15)) == (5,)
    assert _pgcd((), (-2, -1)) == (2, 1)


def test_pgcd_shared_q_powers():
    # q^2 (q+1)(q-2) against q^3 (q+1)(3q+5)
    a = _pmul((0, 0, 1), _pmul((1, 1), (-2, 1)))
    b = _pmul((0, 0, 0, 1), _pmul((1, 1), (5, 3)))
    assert _pgcd(a, b) == (0, 0, 1, 1)
    # monomial arguments: gcd of the contents times the smaller q-power
    assert _pgcd((0, 0, 0, 6), (0, 0, 4, 4)) == (0, 0, 2)
    assert _pgcd((0, -3), (0, 0, 0, 9)) == (0, 3)
    assert _pgcd((0, 0, 2, 2), (0, 1, 0, 3)) == (0, 1)


def test_pdiv_exact():
    h = _pmul((1, 1), (5, 3))
    assert _pdiv_exact(_pmul(h, (-2, 1)), h) == (-2, 1)
    assert _pdiv_exact((0, 0, 6, -4), (0, 2)) == (0, 3, -2)
    assert _pdiv_exact((), (1, 1)) == ()
    for a, g in (((1, 2), (1, 1)), ((3,), (2,)), ((1, 0, 2), (0, 1)), ((3, 3), (0, 2))):
        with pytest.raises(ArithmeticError):
            _pdiv_exact(a, g)


@st.composite
def factored_pairs(draw):
    """f*h and g*h with a shared factor h, sometimes with q-powers and content."""
    f, g, h = (tuple(draw(polys)) for _ in range(3))
    shift = draw(st.integers(min_value=0, max_value=2))
    return _pmul(f, (0,) * shift + h), _pmul(g, h)


@settings(max_examples=150, deadline=None)
@given(factored_pairs())
def test_canonical_form_matches_sympy(pair):
    x = sympy.Symbol("q")

    def to_sympy(cs):
        return sympy.Poly(list(reversed(cs)) or [0], x, domain="ZZ")

    n, d = pair
    if not any(d):
        return
    r = QRat(n, d)
    N, D = to_sympy(n), to_sympy(d)
    if any(n) and any(d):
        assert to_sympy(_pgcd(n, d)) == sympy.gcd(N, D)
    num, den = to_sympy(r.num), to_sympy(r.den)
    # same value, lowest terms over Z[q], positive leading denominator
    assert num * D == den * N
    assert sympy.gcd(num, den) == sympy.Poly(1, x, domain="ZZ")
    assert r.den[-1] > 0
    # and the same degrees as sympy's own cancellation
    p, s = sympy.fraction(sympy.cancel(N.as_expr() / D.as_expr()))
    assert (r.num == ()) == (p == 0)
    if r.num:
        assert sympy.degree(p, x) == len(r.num) - 1
    assert sympy.degree(s, x) == len(r.den) - 1


# ---------------------------------------------------------------------------
# exits that skip work whose result is known: a factor exactly 1, and a
# denominator 1, which leaves n/1 already in lowest terms

def test_multiplying_by_exact_one_returns_the_other_factor():
    x = (q + 2) / (q - 3)
    assert x * QRat(1) is x
    assert QRat(1) * x is x
    assert x * 1 is x


@settings(max_examples=120, deadline=None)
@given(polys, polys)
def test_polynomial_arithmetic_matches_sympy(a, b):
    x = sympy.Symbol("q")

    def expr(cs):
        return sum(c * x ** i for i, c in enumerate(cs))

    # untrimmed tuples, denominator 1
    s, t = QRat(tuple(a)), QRat(tuple(b))
    for got, want in ((s * t, expr(a) * expr(b)), (s + t, expr(a) + expr(b)),
                      (s - t, expr(a) - expr(b))):
        assert got.den == (1,)
        assert sympy.expand(expr(got.num) - sympy.cancel(want)) == 0
        # the canonical form reached through a cancelling denominator
        assert got == QRat(_pmul(got.num, (2, 1)), (2, 1))
        assert not got.num or got.num[-1] != 0


# ---------------------------------------------------------------------------
# Laurent values: a denominator c q^k is reduced without the Z[q] gcd, and a
# monomial factor is a shift and a scale; both must agree with the general
# route, with sympy and with a schoolbook product

@st.composite
def laurent_pairs(draw):
    """Any numerator, with leading zeros and a content, over c q^k."""
    shift = draw(st.integers(min_value=0, max_value=45))
    content = draw(st.integers(min_value=1, max_value=12))
    body = draw(st.lists(st.integers(min_value=-30, max_value=30), min_size=1, max_size=8))
    c = draw(st.integers(min_value=1, max_value=12)) * draw(st.sampled_from((1, -1)))
    k = draw(st.integers(min_value=0, max_value=40))
    n = (0,) * shift + tuple(content * x for x in body)
    while n and not n[-1]:
        n = n[:-1]
    return n, (0,) * k + (c,)


def general_reduce(n, d):
    g = _pgcd(n, d)
    n, d = _pdiv_exact(n, g), _pdiv_exact(d, g)
    return (_pneg(n), _pneg(d)) if d[-1] < 0 else (n, d)


def schoolbook(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    while out and not out[-1]:
        out.pop()
    return tuple(out)


@settings(max_examples=150, deadline=None)
@given(laurent_pairs(), laurent_pairs())
def test_laurent_fast_paths_match_the_general_route(pair, other):
    x = sympy.Symbol("q")

    def expr(cs):
        return sum(c * x ** i for i, c in enumerate(cs))

    n, d = pair
    r = QRat(n, d)
    assert (r.num, r.den) == general_reduce(n, d)
    assert sympy.cancel(expr(r.num) / expr(r.den) - expr(n) / expr(d)) == 0
    if r.num:
        p, s = sympy.fraction(sympy.cancel(expr(n) / expr(d)))
        assert sympy.degree(p, x) == len(r.num) - 1
        assert sympy.degree(s, x) == len(r.den) - 1
    # a monomial factor on either side
    m = other[1]
    if n:
        assert _pmul(m, n) == _pmul(n, m) == schoolbook(m, n)
    # a shared denominator: a unit constant term keeps each value over d
    a, b = QRat((1,) + n, d), QRat((-1,) + other[0], d)
    assert a.den == b.den
    for got, want in ((a + b, _padd(_pmul(a.num, b.den), _pmul(b.num, a.den))),
                      (a - b, _padd(_pmul(a.num, b.den), _pneg(_pmul(b.num, a.den))))):
        assert (got.num, got.den) == general_reduce(want, _pmul(a.den, b.den))
    assert -a == QRat(_pneg(a.num), a.den)


# ---------------------------------------------------------------------------
# powers: with n / d in lowest terms, gcd(n^k, d^k) = 1 in Z[q], so n^k / d^k
# is the canonical form with no gcd taken, and a monomial's (c q^e)^k is
# c^k q^(e k) at once

def repeated_power(a, k):
    out = QRat(1)
    for _ in range(abs(k)):
        out = out * a
    return QRat(1) / out if k < 0 else out


@settings(max_examples=200, deadline=None)
@given(st.one_of(qrats(), monomials()), st.integers(min_value=-9, max_value=9))
def test_power_matches_repeated_products_and_sympy(a, k):
    x = sympy.Symbol("q")

    def to_sympy(cs):
        return sympy.Poly(list(reversed(cs)) or [0], x, domain="ZZ")

    if a.is_zero and k < 0:
        with pytest.raises(ZeroDivisionError):
            a ** k
        return
    got = a ** k
    want = repeated_power(a, k)
    assert (got.num, got.den) == (want.num, want.den)
    # the value of sympy's cancellation, in lowest terms, with its degrees
    num, den = to_sympy(got.num), to_sympy(got.den)
    p, s = sympy.fraction(sympy.cancel((to_sympy(a.num).as_expr() /
                                        to_sympy(a.den).as_expr()) ** k))
    assert sympy.expand(num.as_expr() * s - den.as_expr() * p) == 0
    assert sympy.gcd(num, den) == sympy.Poly(1, x, domain="ZZ")
    assert got.den[-1] > 0
    if got.num:
        assert sympy.degree(p, x) == len(got.num) - 1
    assert sympy.degree(s, x) == len(got.den) - 1


def test_power_takes_no_gcd(monkeypatch):
    import qgalois.scalars as scalars

    x = QRat((1, 1), (1, 2))  # (1 + q) / (1 + 2q), not Laurent
    y = QRat((1, -1), (-3, 0, 0, 2))  # (1 - q) / (2q^3 - 3), inverted below
    wants = [(x, 50, repeated_power(x, 50)), (x, -7, repeated_power(x, -7)),
             (y, -7, repeated_power(y, -7))]

    def no_gcd(a, b):
        raise AssertionError("a power of a reduced value took a gcd")

    monkeypatch.setattr(scalars, "_pgcd", no_gcd)
    for base, k, want in wants:
        got = base ** k
        assert (got.num, got.den) == (want.num, want.den)


# ---------------------------------------------------------------------------
# monomial products: c q^k times c' q^k' is formed directly, with one integer
# gcd; it must reach the canonical form of the general product

scalars_to_multiply = st.one_of(monomials(), qrats(), st.just(QRat(0)))


@settings(max_examples=300, deadline=None)
@given(scalars_to_multiply, scalars_to_multiply)
def test_products_match_the_general_route(a, b):
    got = a * b
    want = QRat._make(_pmul(a.num, b.num), _pmul(a.den, b.den))
    assert (got.num, got.den) == (want.num, want.den)
