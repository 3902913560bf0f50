"""Exact arithmetic in Q(q), the rational-function field in the deformation parameter q.

A value is a fraction of integer-coefficient polynomials, reduced at
construction: gcd(numerator, denominator) = 1 over Z[q] and the denominator
has a positive leading coefficient.  Equality is therefore plain structural
comparison, which the rewriting kernel relies on everywhere.

Nearly every value is Laurent, over c q^k: its gcd is q^min(val n, k) times
gcd(content n, |c|), with no Z[q] gcd, and a monomial factor c q^k in a product
is a shift and a scale.  A product or power of monomials is built directly, at
the cost of one integer gcd at most.

Values are printed here; text is read into them only by the presentation-file
grammar in `qgalois.presfile`, which bounds exponents, degrees and coefficient
sizes.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _igcd

__all__ = ["QRat", "PoleError", "qrat", "q_power"]


class PoleError(ArithmeticError):
    """Evaluation of a rational function at a zero of its denominator."""


# ---------------------------------------------------------------------------
# dense integer polynomials as trimmed tuples, constant term first

def _trim(cs) -> tuple:
    n = len(cs)
    while n and cs[n - 1] == 0:
        n -= 1
    return tuple(cs[:n])


def _padd(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _trim(out)


def _pneg(a):
    return tuple(-c for c in a)


def _pmul(a, b):
    if not a or not b:
        return ()
    if not any(b[:-1]):
        a, b = b, a
    if not any(a[:-1]):
        # a monomial factor c q^k shifts and scales the other one
        c = a[-1]
        return _trim((0,) * (len(a) - 1) + (b if c == 1 else tuple(c * y for y in b)))
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim(out)


def _val(a) -> int:
    """The q-adic valuation of a nonzero polynomial."""
    k = 0
    while not a[k]:
        k += 1
    return k


def _primitive(a):
    g = _igcd(*a)
    return a if g == 1 else tuple(c // g for c in a)


def _prem(a, b):
    """A nonzero integer multiple of the remainder of a by b over Q, with b of
    positive degree and deg a >= deg b."""
    r = list(a)
    nb, lb = len(b), b[-1]
    while len(r) >= nb:
        lr = r[-1]
        g = _igcd(lr, lb)
        mr, ma = lr // g, lb // g
        if ma != 1:
            r = [ma * c for c in r]
        s = len(r) - nb
        for i, c in enumerate(b):
            r[s + i] -= mr * c
        r = list(_trim(r))
    return r


def _pgcd(a, b):
    """gcd over Z[q], positive leading coefficient, content included.

    The q-power and the integer content are split off first; when either
    argument is then a constant, they are the whole gcd.  Otherwise a
    primitive pseudo-remainder sequence over Z[q] finds the rest.
    """
    if not a and not b:
        return ()
    if not a:
        return b if b[-1] > 0 else _pneg(b)
    if not b:
        return a if a[-1] > 0 else _pneg(a)
    va, vb = _val(a), _val(b)
    k = va if va < vb else vb
    a, b = a[va:], b[vb:]
    ca, cb = _igcd(*a), _igcd(*b)
    c = _igcd(ca, cb)
    if len(a) > 1 and len(b) > 1:
        a = tuple(x // ca for x in a)
        b = tuple(x // cb for x in b)
        if len(a) < len(b):
            a, b = b, a
        while len(b) > 1:
            r = _prem(a, b)
            if not r:
                break
            a, b = b, _primitive(r)
        if len(b) > 1:
            if b[-1] < 0:
                c = -c
            return (0,) * k + tuple(x * c for x in b)
    return (0,) * k + (c,)


def _pdiv_exact(a, g):
    """Divide a by g exactly over Z[q]; g must divide a."""
    if not a:
        return ()
    k = len(g) - 1
    lg = g[-1]
    if _is_monomial(g):
        if any(a[:k]):
            raise ArithmeticError("inexact polynomial division")
        out = []
        for c in a[k:]:
            m, r = divmod(c, lg)
            if r:
                raise ArithmeticError("inexact polynomial division")
            out.append(m)
        return tuple(out)
    r = list(a)
    quo = [0] * max(len(a) - k, 0)
    for i in range(len(quo) - 1, -1, -1):
        m, rem = divmod(r[i + k], lg)
        if rem:
            raise ArithmeticError("inexact polynomial division")
        if m:
            quo[i] = m
            for j, c in enumerate(g):
                r[i + j] -= m * c
    if any(r):
        raise ArithmeticError("inexact polynomial division")
    return tuple(quo)


def _peval(a, num: int, den: int) -> int:
    """den^deg a(num/den) in integers, by Horner's rule with no gcd."""
    acc, scale = 0, 1
    for c in reversed(a):
        acc, scale = acc * num + c * scale, scale * den
    return acc


def _fmt_poly(a) -> str:
    if not a:
        return "0"
    parts = []
    for exp in range(len(a) - 1, -1, -1):
        c = a[exp]
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        m = abs(c)
        if exp == 0:
            body = str(m)
        elif exp == 1:
            body = "q" if m == 1 else f"{m}*q"
        else:
            body = f"q^{exp}" if m == 1 else f"{m}*q^{exp}"
        if not parts:
            parts.append(body if sign == "+" else "-" + body)
        else:
            parts.append(sign + body)
    return "".join(parts)


def _is_monomial(a) -> bool:
    return sum(1 for c in a if c != 0) <= 1


class QRat:
    """A rational function in q with rational coefficients, in canonical form."""

    __slots__ = ("num", "den")

    def __init__(self, num=0, den=1):
        if isinstance(num, QRat) and den == 1:
            object.__setattr__(self, "num", num.num)
            object.__setattr__(self, "den", num.den)
            return
        n = self._coerce_poly(num)
        d = self._coerce_poly(den)
        n, d = self._reduce(n, d)
        object.__setattr__(self, "num", n)
        object.__setattr__(self, "den", d)

    @staticmethod
    def _coerce_poly(x):
        if isinstance(x, tuple):
            return _trim(x)
        if isinstance(x, int):
            return (x,) if x else ()
        if isinstance(x, Fraction):
            raise TypeError("use QRat(f.numerator, f.denominator) for Fractions")
        if isinstance(x, QRat):
            raise TypeError("nested QRat only allowed as QRat(x)")
        raise TypeError(f"cannot build QRat from {type(x).__name__}")

    @staticmethod
    def _reduce(n, d):
        if not d:
            raise ZeroDivisionError("zero denominator in Q(q)")
        if not n:
            return (), (1,)
        if d == (1,):
            return n, d
        if not any(d[:-1]):
            # d = c q^k: the gcd is q^min(val n, k) gcd(content n, |c|), here
            # given the sign of c so that the new denominator is positive
            k, c = len(d) - 1, d[-1]
            v = min(_val(n), k)
            g = _igcd(c, *n)
            if c < 0:
                g = -g
            if v or g != 1:
                n = tuple(x // g for x in n[v:]) if g != 1 else n[v:]
                d = (0,) * (k - v) + (c // g,)
            return n, d
        g = _pgcd(n, d)
        if g != (1,):
            n = _pdiv_exact(n, g)
            d = _pdiv_exact(d, g)
        if d[-1] < 0:
            n, d = _pneg(n), _pneg(d)
        return n, d

    @classmethod
    def _make(cls, n, d):
        self = object.__new__(cls)
        n, d = cls._reduce(n, d)
        object.__setattr__(self, "num", n)
        object.__setattr__(self, "den", d)
        return self

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = qrat(other)
        if self.den == other.den:
            return QRat._make(_padd(self.num, other.num), self.den)
        return QRat._make(_padd(_pmul(self.num, other.den), _pmul(other.num, self.den)),
                          _pmul(self.den, other.den))

    __radd__ = __add__

    def __sub__(self, other):
        other = qrat(other)
        if self.den == other.den:
            return QRat._make(_padd(self.num, _pneg(other.num)), self.den)
        return QRat._make(_padd(_pmul(self.num, other.den), _pneg(_pmul(other.num, self.den))),
                          _pmul(self.den, other.den))

    def __rsub__(self, other):
        return qrat(other) - self

    def __neg__(self):
        # the negation of a reduced value is reduced
        out = object.__new__(QRat)
        object.__setattr__(out, "num", _pneg(self.num))
        object.__setattr__(out, "den", self.den)
        return out

    def __mul__(self, other):
        if not isinstance(other, QRat):
            other = qrat(other)
        n1, d1, n2, d2 = self.num, self.den, other.num, other.den
        # values are immutable, so a factor exactly 1 returns the other one
        if n1 == (1,) and d1 == (1,):
            return other
        if n2 == (1,) and d2 == (1,):
            return self
        if (n1.count(0) == len(n1) - 1 and d1.count(0) == len(d1) - 1
                and n2.count(0) == len(n2) - 1 and d2.count(0) == len(d2) - 1):
            # c q^k times c' q^k': the canonical form of (c c') q^(k+k') has
            # the q-power on one side and the coefficient in lowest terms
            a, b = n1[-1] * n2[-1], d1[-1] * d2[-1]
            g = _igcd(a, b)
            if g != 1:
                a, b = a // g, b // g
            e = len(n1) + len(n2) - len(d1) - len(d2)
            out = object.__new__(QRat)
            object.__setattr__(out, "num", (0,) * e + (a,))
            object.__setattr__(out, "den", (0,) * -e + (b,))
            return out
        return QRat._make(_pmul(n1, n2), _pmul(d1, d2))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = qrat(other)
        if not other.num:
            raise ZeroDivisionError("division by zero in Q(q)")
        return QRat._make(_pmul(self.num, other.den), _pmul(self.den, other.num))

    def __rtruediv__(self, other):
        return qrat(other) / self

    def __pow__(self, k: int):
        if not isinstance(k, int):
            raise TypeError("exponent must be an integer")
        if k == 0:
            return QRat(1)
        n, d = self.num, self.den
        if k < 0:
            if not n:
                raise ZeroDivisionError("zero has no negative powers")
            n, d, k = (d, n, -k) if n[-1] > 0 else (_pneg(d), _pneg(n), -k)
        # n/d is reduced, so n^k/d^k is too: gcd(n^k, d^k) = 1 in Z[q]
        if n.count(0) == len(n) - 1 and d.count(0) == len(d) - 1:
            # (c q^e)^k is c^k q^(e k)
            pn = (0,) * ((len(n) - 1) * k) + (n[-1] ** k,)
            pd = (0,) * ((len(d) - 1) * k) + (d[-1] ** k,)
        else:
            pn, pd = (1,), (1,)
            while True:
                if k & 1:
                    pn, pd = _pmul(pn, n), _pmul(pd, d)
                k >>= 1
                if not k:
                    break
                n, d = _pmul(n, n), _pmul(d, d)
        out = object.__new__(QRat)
        object.__setattr__(out, "num", pn)
        object.__setattr__(out, "den", pd)
        return out

    # -- structure ----------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, int):
            other = qrat(other)
        if not isinstance(other, QRat):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self):
        return bool(self.num)

    @property
    def is_zero(self) -> bool:
        return not self.num

    @property
    def is_negative(self) -> bool:
        """Sign of the leading numerator coefficient (denominator is positive)."""
        return bool(self.num) and self.num[-1] < 0

    def __abs__(self):
        return -self if self.is_negative else self

    def evaluate(self, q0) -> Fraction:
        """Exact specialization at a rational point; raises PoleError at poles."""
        q0 = Fraction(q0)
        a, b = q0.numerator, q0.denominator
        d = _peval(self.den, a, b)
        if d == 0:
            raise PoleError(f"pole at q = {q0}")
        # num(q0) / den(q0) = b^(deg den - deg num) N / D, with N and D the integer values
        shift = len(self.den) - len(self.num)
        n = _peval(self.num, a, b)
        return Fraction(n * b ** shift, d) if shift >= 0 else Fraction(n, d * b ** -shift)

    # -- formatting ---------------------------------------------------------

    def __str__(self):
        if self.den == (1,):
            return _fmt_poly(self.num)
        ns = _fmt_poly(self.num)
        if not _is_monomial(self.num):
            ns = f"({ns})"
        ds = _fmt_poly(self.den)
        if not (_is_monomial(self.den) and (len(self.den) == 1 or self.den[-1] == 1)):
            ds = f"({ds})"
        return f"{ns}/{ds}"

    def __repr__(self):
        return f"QRat({self})"


def qrat(x) -> QRat:
    """Coerce int, Fraction or QRat to QRat."""
    if isinstance(x, QRat):
        return x
    if isinstance(x, int):
        return QRat(x)
    if isinstance(x, Fraction):
        return QRat((x.numerator,), (x.denominator,))
    raise TypeError(f"cannot coerce {type(x).__name__} to QRat")


def q_power(k: int = 1) -> QRat:
    """The monomial q^k, k possibly negative."""
    if k >= 0:
        return QRat(tuple([0] * k + [1]))
    return QRat((1,), tuple([0] * (-k) + [1]))


def needs_parens(s: str) -> bool:
    """Whether a formatted scalar must be parenthesized in coefficient position."""
    depth = 0
    for i, ch in enumerate(s):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch in "+-" and depth == 0 and i > 0:
            return True
    return False
