"""Formal tensors of noncommutative polynomials, with any number of legs.

A TensorElem is a finite sum of scalar-weighted tuples of words; each leg is
tagged with the presentation it lives in and kept in normal form.  The leg
maps (`map_leg`, `expand_leg`, `contract_leg`) take normal images and so do
not normalize their results again; products (`tensor_mul`, `multiply_legs`)
do.
"""

from __future__ import annotations

from .linalg import ONE, add_scaled
from .ncalg import EMPTY, NCPoly, Presentation, format_terms, format_word
from .scalars import QRat, qrat


class LegMismatchError(ValueError):
    pass


class TensorElem:
    """Sum of pure tensors w1 (x) ... (x) wk with QRat coefficients."""

    __slots__ = ("legs", "terms")

    def __init__(self, legs, terms, normal: bool = False):
        self.legs: tuple[Presentation, ...] = tuple(legs)
        if not self.legs:
            raise LegMismatchError("a tensor needs at least one leg")
        if normal:
            self.terms = dict(terms)
        else:
            self.terms = self._normalize(self.legs, terms)

    @staticmethod
    def _normalize(legs, terms) -> dict:
        acc: dict = {}
        for key, c in dict(terms).items():
            c = qrat(c)
            if c.is_zero:
                continue
            key = tuple(tuple(w) for w in key)
            if len(key) != len(legs):
                raise LegMismatchError("tensor key length does not match leg count")
            # normalize each leg word, then distribute the product of parts
            expanded = {(): ONE}
            for leg, w in zip(legs, key):
                nf = leg.normal_form_word(w)
                expanded = {pref + (w2,): cp * c2
                            for pref, cp in expanded.items() for w2, c2 in nf.items()}
            add_scaled(acc, expanded, c)
        return acc

    @classmethod
    def unit(cls, legs) -> "TensorElem":
        return cls(legs, {tuple(EMPTY for _ in legs): QRat(1)}, normal=True)

    @classmethod
    def zero(cls, legs) -> "TensorElem":
        return cls(legs, {}, normal=True)

    @classmethod
    def from_poly(cls, p: NCPoly) -> "TensorElem":
        return cls((p.alg,), {(w,): c for w, c in p.terms.items()}, normal=True)

    @property
    def degree(self) -> int:
        return len(self.legs)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def _check_legs(self, other: "TensorElem"):
        if self.legs != other.legs:
            raise LegMismatchError("tensor legs do not match")

    # -- linear structure ----------------------------------------------------

    def __add__(self, other: "TensorElem") -> "TensorElem":
        self._check_legs(other)
        acc = dict(self.terms)
        add_scaled(acc, other.terms)
        return TensorElem(self.legs, acc, normal=True)

    def __sub__(self, other: "TensorElem") -> "TensorElem":
        return self + (-other)

    def __neg__(self) -> "TensorElem":
        return TensorElem(self.legs, {k: -c for k, c in self.terms.items()}, normal=True)

    def __mul__(self, c) -> "TensorElem":
        c = qrat(c)
        if c.is_zero:
            return TensorElem.zero(self.legs)
        return TensorElem(self.legs, {k: v * c for k, v in self.terms.items()}, normal=True)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, TensorElem):
            return NotImplemented
        return self.legs == other.legs and self.terms == other.terms

    def __hash__(self):
        return hash((tuple(id(p) for p in self.legs), frozenset(self.terms.items())))

    # -- multiplicative structure ---------------------------------------------

    def tensor_mul(self, other: "TensorElem") -> "TensorElem":
        """Legwise product, e.g. (a(x)b)(c(x)d) = ac (x) bd."""
        self._check_legs(other)
        acc: dict = {}
        for k1, c1 in self.terms.items():
            add_scaled(acc, {tuple(w1 + w2 for w1, w2 in zip(k1, k2)): c2
                             for k2, c2 in other.terms.items()}, c1)
        return TensorElem(self.legs, acc)

    def outer(self, other: "TensorElem") -> "TensorElem":
        """Concatenate legs: (x_1(x)..) (x) (y_1(x)..)."""
        legs = self.legs + other.legs
        acc: dict = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                acc[k1 + k2] = c1 * c2
        return TensorElem(legs, acc, normal=True)

    # -- leg operations ----------------------------------------------------------

    def swap(self, i: int = 0, j: int = 1) -> "TensorElem":
        """Flip two legs."""
        legs = list(self.legs)
        legs[i], legs[j] = legs[j], legs[i]
        acc: dict = {}
        for k, c in self.terms.items():
            kk = list(k)
            kk[i], kk[j] = kk[j], kk[i]
            acc[tuple(kk)] = c
        return TensorElem(legs, acc, normal=True)

    def map_leg(self, i: int, fn, target: Presentation | None = None) -> "TensorElem":
        """Apply a linear map word -> NCPoly (a normal image) to leg i."""
        legs = list(self.legs)
        out_leg = target
        acc: dict = {}
        for k, c in self.terms.items():
            img = fn(k[i])
            if out_leg is None:
                out_leg = img.alg
            add_scaled(acc, {k[:i] + (w,) + k[i + 1:]: c2 for w, c2 in img.terms.items()}, c)
        if out_leg is None:
            out_leg = legs[i]
        legs[i] = out_leg
        return TensorElem(tuple(legs), acc, normal=True)

    def expand_leg(self, i: int, fn, legs_hint=None) -> "TensorElem":
        """Apply a map word -> TensorElem to leg i, splicing its (normal) legs in place."""
        legs = None
        acc: dict = {}
        for k, c in self.terms.items():
            img = fn(k[i])
            if legs is None:
                legs = self.legs[:i] + img.legs + self.legs[i + 1:]
            add_scaled(acc, {k[:i] + kk + k[i + 1:]: c2 for kk, c2 in img.terms.items()}, c)
        if legs is None:
            if legs_hint is None:
                raise LegMismatchError("cannot expand a leg of the zero tensor "
                                       "without knowing the image legs")
            legs = self.legs[:i] + tuple(legs_hint) + self.legs[i + 1:]
        return TensorElem(legs, acc, normal=True)

    def contract_leg(self, i: int, fn) -> "TensorElem | NCPoly":
        """Contract leg i with a functional word -> QRat; at least one leg must remain."""
        legs = self.legs[:i] + self.legs[i + 1:]
        if not legs:
            raise LegMismatchError("cannot contract the only leg of a tensor")
        acc: dict = {}
        for k, c in self.terms.items():
            s = fn(k[i])
            if not s.is_zero:
                add_scaled(acc, {k[:i] + k[i + 1:]: c}, s)
        if len(legs) == 1:
            return NCPoly(legs[0], {k[0]: c for k, c in acc.items()}, normal=True)
        return TensorElem(legs, acc, normal=True)

    def grouped(self, i: int) -> dict:
        """Group terms by the word on leg i: word -> TensorElem/NCPoly of the rest."""
        buckets: dict = {}
        rest_legs = self.legs[:i] + self.legs[i + 1:]
        for k, c in self.terms.items():
            kk = k[:i] + k[i + 1:]
            buckets.setdefault(k[i], {})[kk] = c
        out = {}
        for w, terms in buckets.items():
            if len(rest_legs) == 1:
                out[w] = NCPoly(rest_legs[0], {k[0]: c for k, c in terms.items()}, normal=True)
            else:
                out[w] = TensorElem(rest_legs, terms, normal=True)
        return out

    def multiply_legs(self) -> NCPoly:
        """Multiply all legs together (they must share a presentation)."""
        alg = self.legs[0]
        for leg in self.legs:
            if leg is not alg:
                raise LegMismatchError("legs live in different presentations")
        acc: dict = {}
        for k, c in self.terms.items():
            add_scaled(acc, {sum(k, ()): c})
        return NCPoly(alg, acc)

    def to_poly(self) -> NCPoly:
        if len(self.legs) != 1:
            raise LegMismatchError("only a degree-1 tensor converts to a polynomial")
        return NCPoly(self.legs[0], {k[0]: c for k, c in self.terms.items()}, normal=True)

    # -- formatting ------------------------------------------------------------

    def sort_key(self, key):
        return tuple(leg.term_key(w) for leg, w in zip(self.legs, key))

    def __str__(self):
        return self.brief(None)

    def brief(self, limit: int | None = 4) -> str:
        """The expression cut after its first `limit` terms, for FAIL witnesses."""
        return format_terms(self.terms.items(), self.sort_key,
                            lambda k: " (x) ".join(map(format_word, k)), limit)

    def __repr__(self):
        return f"<tensor {self}>"
