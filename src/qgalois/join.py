"""Polynomial model of the equivariant join of a comodule algebra with its
structure Hopf algebra: boundary-constrained t-polynomials over A (x) H, the
diagonal-type coaction id (x) Delta, and the character-collapse maps.

Membership of x(1) in delta(A) is decided by the counit projection: delta is
counital, so (id (x) eps) o delta = id, the only possible preimage is
a = (id (x) eps)(x(1)), and one evaluation delta(a) == x(1) settles it.
"""

from __future__ import annotations

from fractions import Fraction

from . import structure
from .comodule import Coaction, counit_failures
from .linalg import add_scaled, combine
from .ncalg import EMPTY, NCPoly, Presentation, PresentationError
from .report import Report
from .scalars import QRat, qrat
from .tensors import TensorElem


class JoinDegreeError(ArithmeticError):
    """Product exceeds the configured t-degree cap."""


class TPoly:
    """Polynomial in a central parameter t with TensorElem coefficients."""

    __slots__ = ("legs", "coeffs")

    def __init__(self, legs, coeffs):
        self.legs = tuple(legs)
        self.coeffs: dict[int, TensorElem] = {}
        for k, t in dict(coeffs).items():
            if t.legs != self.legs:
                raise PresentationError("t-coefficient has mismatched legs")
            if not t.is_zero:
                self.coeffs[int(k)] = t

    def degree(self) -> int:
        return max(self.coeffs, default=-1)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "TPoly") -> "TPoly":
        if self.legs != other.legs:
            raise PresentationError("t-polynomials over different tensor legs")
        out = dict(self.coeffs)
        add_scaled(out, other.coeffs)
        return TPoly(self.legs, out)

    def __sub__(self, other: "TPoly") -> "TPoly":
        return self + other.scale(QRat(-1))

    def scale(self, c) -> "TPoly":
        c = qrat(c)
        return TPoly(self.legs, {k: t * c for k, t in self.coeffs.items()})

    def mul(self, other: "TPoly") -> "TPoly":
        if self.legs != other.legs:
            raise PresentationError("t-polynomials over different tensor legs")
        acc: dict[int, TensorElem] = {}
        for k1, t1 in self.coeffs.items():
            add_scaled(acc, {k1 + k2: t1.tensor_mul(t2) for k2, t2 in other.coeffs.items()})
        return TPoly(self.legs, acc)

    def evaluate(self, t0) -> TensorElem:
        t0 = qrat(t0)
        return TensorElem(self.legs, combine((t.terms, t0 ** k) for k, t in self.coeffs.items()),
                          normal=True)

    def map_coeffs(self, fn, legs) -> "TPoly":
        return TPoly(legs, {k: fn(t) for k, t in self.coeffs.items()})

    def __eq__(self, other):
        if not isinstance(other, TPoly):
            return NotImplemented
        return self.legs == other.legs and self.coeffs == other.coeffs

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k in sorted(self.coeffs):
            head = "" if k == 0 else ("t " if k == 1 else f"t^{k} ")
            parts.append(f"{head}[{self.coeffs[k]}]")
        return " + ".join(parts)


class JoinElement:
    """Element of the polynomial model of the equivariant join A * H."""

    __slots__ = ("delta", "tpoly", "cap")

    def __init__(self, delta: Coaction, tpoly: TPoly, cap: int = 4):
        if tpoly.legs != (delta.A, delta.H):
            raise PresentationError("join element must live over A (x) H")
        if tpoly.degree() > cap:
            raise JoinDegreeError(f"t-degree {tpoly.degree()} exceeds the cap {cap}")
        self.delta = delta
        self.tpoly = tpoly
        self.cap = cap

    @property
    def legs(self):
        return self.tpoly.legs

    def degree(self) -> int:
        return self.tpoly.degree()

    def evaluate(self, t0) -> TensorElem:
        return self.tpoly.evaluate(t0)

    def __add__(self, other: "JoinElement") -> "JoinElement":
        self._same(other)
        return JoinElement(self.delta, self.tpoly + other.tpoly, self.cap)

    def __sub__(self, other: "JoinElement") -> "JoinElement":
        self._same(other)
        return JoinElement(self.delta, self.tpoly - other.tpoly, self.cap)

    def _same(self, other: "JoinElement"):
        if self.delta is not other.delta:
            raise PresentationError("join elements over different coactions")

    def star(self) -> "JoinElement":
        return JoinElement(self.delta,
                           self.tpoly.map_coeffs(structure._star_tensor, self.legs),
                           self.cap)

    def __eq__(self, other):
        if not isinstance(other, JoinElement):
            return NotImplemented
        return self.delta is other.delta and self.tpoly == other.tpoly

    def __str__(self):
        return str(self.tpoly)


def join_unit(delta: Coaction, cap: int = 4) -> JoinElement:
    return JoinElement(delta, TPoly((delta.A, delta.H),
                                    {0: TensorElem.unit((delta.A, delta.H))}), cap)


def join_path(delta: Coaction, h: NCPoly, a: NCPoly, cap: int = 4) -> JoinElement:
    """(1-t)(1 (x) h) + t delta(a): the basic boundary-compliant segment."""
    A, H = delta.A, delta.H
    if h.alg is not H or a.alg is not A:
        raise PresentationError("join path arguments live in the wrong algebras")
    left = TensorElem((A, H), {(EMPTY, w): c for w, c in h.terms.items()}, normal=True)
    right = delta.apply(a)
    return JoinElement(delta, TPoly((A, H), {0: left, 1: right - left}), cap)


def join_bump(delta: Coaction, z: TensorElem, cap: int = 4) -> JoinElement:
    """t(1-t) z for arbitrary z in A (x) H; vanishes at both ends."""
    if z.legs != (delta.A, delta.H):
        raise PresentationError("bump coefficient must live in A (x) H")
    return JoinElement(delta, TPoly(z.legs, {1: z, 2: -z}), cap)


def join_product(x: JoinElement, y: JoinElement) -> JoinElement:
    x._same(y)
    prod = x.tpoly.mul(y.tpoly)
    if prod.degree() > x.cap:
        raise JoinDegreeError(f"product degree {prod.degree()} exceeds the cap {x.cap}")
    return JoinElement(x.delta, prod, x.cap)


def join_membership(x: JoinElement, d_a: int) -> Report:
    """Both boundary conditions, exactly: scalars (x) H at t=0, the coaction
    image at t=1 (the preimage of degree <= d_a read off by the counit)."""
    rep = Report()
    A, H = x.delta.A, x.delta.H
    at0 = x.evaluate(0)
    ok0 = all(k[0] == EMPTY for k in at0.terms)
    rep.add("boundary-zero", ok0,
            "x(0) has trivial A-leg" if ok0 else f"x(0) = {at0}",
            tag="x(0) in C (x) H")
    at1 = x.evaluate(1)
    witness = _solve_coaction_membership(x.delta, at1, d_a)
    rep.add("boundary-one", witness is not None,
            "x(1) = delta(a) is solvable" if witness is not None
            else f"x(1) outside the coaction image up to degree {d_a}",
            tag="x(1) in delta(A)")
    return rep


def _require_counital(delta: Coaction):
    """Raise unless (id (x) eps) o delta = id, on which a FAIL of the counit
    projection rests; assumes eps_H respects the relations of H."""
    bad = counit_failures(delta)
    if bad:
        raise PresentationError(
            f"coaction {delta.name} is not counital on generator {' '.join(bad[0])!r}")


def _solve_coaction_membership(delta: Coaction, target: TensorElem, d_a: int):
    """The a in A_{<=d_a} with delta(a) = target, or None.

    delta is injective with left inverse id (x) eps, so the only candidate is
    a = (id (x) eps)(target); a PASS is witnessed by delta(a) == target.
    """
    _require_counital(delta)
    a = target.contract_leg(1, lambda u: structure.counit_word(delta.H, u))
    if a.degree() <= d_a and delta.apply(a) == target:
        return a
    return None


def join_coaction(x: JoinElement) -> TPoly:
    """id (x) Delta on every coefficient; the value lives over A (x) H (x) H."""
    A, H = x.delta.A, x.delta.H
    legs = (A, H, H)
    return x.tpoly.map_coeffs(
        lambda t: t.expand_leg(1, lambda w: structure.coproduct_word(H, w),
                               legs_hint=(H, H)), legs)


def join_coaction_membership(x: JoinElement, d_a: int) -> Report:
    """Boundary conditions after coacting: trivial A-leg at t=0, the
    (delta (x) id)-image at t=1."""
    rep = Report()
    A, H = x.delta.A, x.delta.H
    co = join_coaction(x)
    at0 = co.evaluate(0)
    ok0 = all(k[0] == EMPTY for k in at0.terms)
    rep.add("coacted-boundary-zero", ok0,
            "value lies in C (x) H (x) H" if ok0 else "A-leg nontrivial",
            tag="x~(0) in C (x) H (x) H")
    # the only candidate is (id (x) eps (x) id)(x~(1)), which is x(1) by H's counit law
    _require_counital(x.delta)
    at1 = x.evaluate(1)
    ok1 = (max((len(k[0]) for k in at1.terms), default=-1) <= d_a
           and at1.expand_leg(0, x.delta.apply_word, legs_hint=(A, H)) == co.evaluate(1))
    rep.add("coacted-boundary-one", ok1,
            "value lies in (delta (x) id)(A (x) H)" if ok1 else "boundary escapes",
            tag="x~(1) in (delta (x) id)(A (x) H)")
    return rep


def join_coassociativity(x: JoinElement) -> bool:
    """Both iterated coactions agree; checked slicewise on the H-leg so the
    tensor degree stays within 3."""
    H = x.delta.H
    for t in x.tpoly.coeffs.values():
        for _, h_slice in t.grouped(0).items():
            d2 = structure.coproduct(h_slice)
            left = d2.expand_leg(0, lambda u: structure.coproduct_word(H, u),
                                 legs_hint=(H, H))
            right = d2.expand_leg(1, lambda u: structure.coproduct_word(H, u),
                                  legs_hint=(H, H))
            if left != right:
                return False
    return True


class Character:
    """Multiplicative unital star-compatible functional on a presentation."""

    def __init__(self, alg: Presentation, values: dict, name: str = "chi"):
        self.alg = alg
        self.name = name
        self.values = {}
        for g in alg.generators:
            if g.name not in values:
                raise PresentationError(f"character misses generator {g.name!r}")
            self.values[g.name] = qrat(values[g.name])
        self.verified = False

    def on_word(self, w) -> QRat:
        out = QRat(1)
        for g in w:
            out = out * self.values[g]
            if out.is_zero:
                break
        return out

    def __call__(self, p: NCPoly) -> QRat:
        out = QRat(0)
        for w, c in p.terms.items():
            out = out + c * self.on_word(w)
        return out

    def verify(self) -> Report:
        rep = Report()
        for r in self.alg.rules:
            val = QRat(0)
            for w, c in r.relation().items():
                val = val + c * self.on_word(w)
            rep.add(f"relation {' '.join(r.lhs)}", val.is_zero,
                    "character kills the relation" if val.is_zero else f"value {val}",
                    tag="chi(relation) = 0")
        star_ok = all(self.values[g.name] == self.values[g.star]
                      for g in self.alg.generators)
        rep.add("star-compatibility", star_ok,
                "chi(g*) = chi(g) (rational values are self-conjugate)" if star_ok
                else "star pairing broken", tag="chi o * = conj o chi")
        self.verified = rep.ok
        return rep


def counit_character(alg: Presentation) -> Character:
    structure._require_hopf(alg)
    return Character(alg, {g.name: alg.hopf.counit[g.name] for g in alg.generators},
                     name="eps")


def chi_collapse(x: JoinElement, chi: Character, t0=Fraction(1, 2)) -> NCPoly:
    """ev_{t0} (x) chi (x) id: evaluate the path parameter, collapse the A-leg
    with the character, return the H-leg combination."""
    if chi.alg is not x.delta.A:
        raise PresentationError("character lives on the wrong algebra")
    if not chi.verified:
        chi.verify()
        if not chi.verified:
            raise PresentationError("character failed verification")
    at = x.evaluate(qrat(Fraction(t0)))
    collapsed = at.contract_leg(0, chi.on_word)
    return collapsed


def chi_equivariance(x: JoinElement, chi: Character, t0=Fraction(1, 2)) -> bool:
    """Delta o f_chi = (f_chi (x) id) o delta_join on the given element.  Not a
    certificate: chi acts on the A-leg and Delta on the H-leg, so this is an
    identity of the polynomial model, true of every character and element,
    join member or not (x + t a (x) g, which fails boundary-one, passes)."""
    H = x.delta.H
    lhs = structure.coproduct(chi_collapse(x, chi, t0))
    co = join_coaction(x)
    at = co.evaluate(qrat(Fraction(t0)))
    rhs = at.contract_leg(0, chi.on_word)
    return lhs == rhs


def sample_join_elements(delta: Coaction, rng, count: int = 8, cap: int = 4):
    """Deterministic randomized suite of boundary-compliant join elements."""
    A, H = delta.A, delta.H
    a_words = A.basis_up_to_degree(2)
    h_words = H.basis_up_to_degree(2)
    out = []
    for _ in range(count):
        h = NCPoly(H, {rng.choice(h_words): QRat(rng.randint(-2, 2))})
        a = NCPoly(A, {rng.choice(a_words): QRat(rng.randint(-2, 2))})
        z = TensorElem((A, H), {(rng.choice(a_words), rng.choice(h_words)):
                                QRat(rng.randint(-2, 2))})
        x = join_path(delta, h + H.one(), a, cap) + join_bump(delta, z, cap)
        out.append(x)
    return out
