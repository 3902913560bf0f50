"""Polynomial model of the equivariant join of a comodule algebra with its
structure Hopf algebra.  A join element is a tensor over C[t] (x) A (x) H,
C[t] being the presentation `T` with t* = t and no relations: the term
t^k (x) a (x) h has key (("t",)*k, a, h), so sums, products, stars and the
diagonal-type coaction id (x) id (x) Delta are the tensor operations of
`tensors`, and evaluation at t0 contracts the C[t] leg.  The boundary
conditions and the character-collapse maps read the evaluated tensor.  A
`Character` lives in `structure`, beside the other maps given on generators;
the counit eps of the Hopf data is one.

Membership of x(1) in delta(A) is decided by the counit projection: delta is
counital, so (id (x) eps) o delta = id, the only possible preimage is
a = (id (x) eps)(x(1)), and one evaluation delta(a) == x(1) settles it.
"""

from __future__ import annotations

from fractions import Fraction

from . import structure
from .comodule import counit_failures
from .ncalg import EMPTY, Generator, NCPoly, Presentation, PresentationError
from .report import Report
from .scalars import QRat, qrat
from .structure import Character, Coaction
from .tensors import TensorElem

T = Presentation("C[t]", [Generator("t", "t")])


class JoinDegreeError(ArithmeticError):
    """Product exceeds the configured t-degree cap."""


def TPoly(legs, coeffs) -> TensorElem:
    """sum_k t^k (x) coeffs[k] over C[t] (x) legs, each coeffs[k] a tensor over legs."""
    legs = tuple(legs)
    terms: dict = {}
    for k, t in dict(coeffs).items():
        if t.legs != legs:
            raise PresentationError("t-coefficient has mismatched legs")
        terms.update({(("t",) * k,) + key: c for key, c in t.terms.items()})
    return TensorElem((T,) + legs, terms, normal=True)


def _t_degree(x: TensorElem) -> int:
    """The highest power of t in a tensor over C[t] (x) ..., -1 for zero."""
    return max((len(k[0]) for k in x.terms), default=-1)


def evaluate(x: TensorElem, t0) -> TensorElem:
    """ev_{t0} on the C[t] leg, t^k -> t0^k, each power formed once."""
    t0 = qrat(t0)
    powers = [QRat(1)]
    for _ in range(_t_degree(x)):
        powers.append(powers[-1] * t0)
    return x.contract_leg(0, lambda w: powers[len(w)])


class JoinElement:
    """Element of the polynomial model of the equivariant join A * H."""

    __slots__ = ("delta", "tensor", "cap")

    def __init__(self, delta: Coaction, tensor: TensorElem, cap: int = 4):
        if tensor.legs != (T, delta.A, delta.H):
            raise PresentationError("join element must live over C[t] (x) A (x) H")
        if _t_degree(tensor) > cap:
            raise JoinDegreeError(f"t-degree {_t_degree(tensor)} exceeds the cap {cap}")
        self.delta = delta
        self.tensor = tensor
        self.cap = cap

    def degree(self) -> int:
        return _t_degree(self.tensor)

    def evaluate(self, t0) -> TensorElem:
        return evaluate(self.tensor, t0)

    def __add__(self, other: "JoinElement") -> "JoinElement":
        self._same(other)
        return JoinElement(self.delta, self.tensor + other.tensor, self.cap)

    def __sub__(self, other: "JoinElement") -> "JoinElement":
        self._same(other)
        return JoinElement(self.delta, self.tensor - other.tensor, self.cap)

    def _same(self, other: "JoinElement"):
        if self.delta is not other.delta:
            raise PresentationError("join elements over different coactions")

    def star(self) -> "JoinElement":
        return JoinElement(self.delta, structure._star_tensor(self.tensor), self.cap)

    def __eq__(self, other):
        if not isinstance(other, JoinElement):
            return NotImplemented
        return self.delta is other.delta and self.tensor == other.tensor

    def __str__(self):
        return str(self.tensor)


def join_unit(delta: Coaction, cap: int = 4) -> JoinElement:
    return JoinElement(delta, TensorElem.unit((T, delta.A, delta.H)), cap)


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
    return JoinElement(x.delta, x.tensor.tensor_mul(y.tensor), x.cap)


def join_membership(x: JoinElement, d_a: int) -> Report:
    """Both boundary conditions, exactly: scalars (x) H at t=0, the coaction
    image at t=1 (the preimage of degree <= d_a read off by the counit)."""
    rep = Report()
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
    a = target.contract_leg(1, delta.H.hopf.counit.on_word)
    if a.degree() <= d_a and delta.apply(a) == target:
        return a
    return None


def join_coaction(x: JoinElement) -> TensorElem:
    """id (x) id (x) Delta; the value lives over C[t] (x) A (x) H (x) H."""
    H = x.delta.H
    return x.tensor.expand_leg(2, structure._require_hopf(H).delta.apply_word,
                               legs_hint=(H, H))


def join_coaction_membership(x: JoinElement, d_a: int) -> Report:
    """Boundary conditions after coacting: trivial A-leg at t=0, the
    (delta (x) id)-image at t=1."""
    rep = Report()
    A, H = x.delta.A, x.delta.H
    co = join_coaction(x)
    at0 = evaluate(co, 0)
    ok0 = all(k[0] == EMPTY for k in at0.terms)
    rep.add("coacted-boundary-zero", ok0,
            "value lies in C (x) H (x) H" if ok0 else "A-leg nontrivial",
            tag="x~(0) in C (x) H (x) H")
    # the only candidate is (id (x) eps (x) id)(x~(1)), which is x(1) by H's counit law
    _require_counital(x.delta)
    at1 = x.evaluate(1)
    ok1 = (max((len(k[0]) for k in at1.terms), default=-1) <= d_a
           and at1.expand_leg(0, x.delta.apply_word, legs_hint=(A, H)) == evaluate(co, 1))
    rep.add("coacted-boundary-one", ok1,
            "value lies in (delta (x) id)(A (x) H)" if ok1 else "boundary escapes",
            tag="x~(1) in (delta (x) id)(A (x) H)")
    return rep


def join_coassociativity(x: JoinElement) -> bool:
    """Both iterated coactions agree: Delta on either H-leg of the coacted x."""
    H = x.delta.H
    coproduct = structure._require_hopf(H).delta
    co = join_coaction(x)
    return (co.expand_leg(2, coproduct.apply_word, legs_hint=(H, H))
            == co.expand_leg(3, coproduct.apply_word, legs_hint=(H, H)))


def counit_character(alg: Presentation) -> Character:
    return structure._require_hopf(alg).counit


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
    return at.contract_leg(0, chi.on_word)


def chi_equivariance(x: JoinElement, chi: Character, t0=Fraction(1, 2)) -> bool:
    """Delta o f_chi = (f_chi (x) id) o delta_join on the given element.  Not a
    certificate: chi acts on the A-leg and Delta on the H-leg, so this is an
    identity of the polynomial model, true of every character and element,
    join member or not (x + t a (x) g, which fails boundary-one, passes)."""
    lhs = structure.coproduct(chi_collapse(x, chi, t0))
    at = evaluate(join_coaction(x), qrat(Fraction(t0)))
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
