"""Maps given on generators, and the Hopf structure built from them.

A `Coaction` delta: A -> A (x) H, a `Character` A -> Q(q) and a `Morphism`,
multiplicative or anti-multiplicative, each extend their generator table over
words by one prefix fold (`ncalg.extend_word`) with one cache.  The Hopf data
of a presentation are instances of them: Delta is the regular coaction of H
on itself, eps a character, S and S^-1 anti-multiplicative morphisms.  The
certificates of the Hopf axioms check generators, which covers every degree.
"""

from __future__ import annotations

from functools import cached_property

from .linalg import combine
from .ncalg import EMPTY, NCPoly, Presentation, PresentationError, Word, extend_word, format_word
from .report import Report
from .scalars import QRat, qrat
from .tensors import TensorElem


class Coaction:
    """Right coaction delta: A -> A (x) H given on generators."""

    def __init__(self, name: str, A: Presentation, H: Presentation, table: dict):
        self.name = name
        self.A = A
        self.H = H
        self.table: dict[str, TensorElem] = {}
        for g in A.generators:
            if g.name not in table:
                raise PresentationError(f"coaction misses generator {g.name!r}")
            t = table[g.name]
            if t.legs != (A, H):
                raise PresentationError(f"coaction value for {g.name!r} has wrong legs")
            self.table[g.name] = t
        self.verified = False
        self._cache: dict[Word, TensorElem] = {EMPTY: TensorElem.unit((A, H))}

    def apply_word(self, w: Word) -> TensorElem:
        return extend_word(self._cache, w, lambda out, g: out.tensor_mul(self.table[g]))

    def apply_terms(self, terms: dict) -> TensorElem:
        """The image of a word -> coefficient dict, normal form or not."""
        return TensorElem((self.A, self.H), combine((self.apply_word(w).terms, c)
                                                    for w, c in terms.items()), normal=True)

    def apply(self, p: NCPoly) -> TensorElem:
        if p.alg is not self.A:
            raise PresentationError("element does not belong to the coacted algebra")
        return self.apply_terms(p.terms)

    def __call__(self, p: NCPoly) -> TensorElem:
        return self.apply(p)

    @cached_property
    def counit_failures(self) -> tuple[Word, ...]:
        """The generators g with (id (x) eps)(delta(g)) != g, in generator order.

        When there are none, (id (x) eps) o delta = id on every element of A:
        both sides are algebra maps that agree on the generators.  This
        assumes that eps_H factors through the relations of H, which
        `verify_hopf_axioms` certifies.  Computed once: the table is fixed.
        """
        eps = _require_hopf(self.H).counit
        return tuple((g.name,) for g in self.A.generators
                     if self.apply_word((g.name,)).contract_leg(1, eps.on_word)
                     != NCPoly(self.A, {(g.name,): QRat(1)}))


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

    def apply_terms(self, terms: dict) -> QRat:
        """The value on a word -> coefficient dict, normal form or not."""
        return sum((c * self.on_word(w) for w, c in terms.items()), QRat(0))

    def __call__(self, p: NCPoly) -> QRat:
        return self.apply_terms(p.terms)

    def verify(self) -> Report:
        rep = Report()
        for r in self.alg.rules:
            val = self.apply_terms(r.relation())
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


class Morphism:
    """Algebra (or anti-algebra) map given by generator images."""

    def __init__(self, source: Presentation, target: Presentation,
                 images: dict, kind: str = "hom", name: str = ""):
        if kind not in ("hom", "antihom"):
            raise ValueError("kind must be 'hom' or 'antihom'")
        self.source = source
        self.target = target
        self.kind = kind
        self.name = name or f"{source.name}->{target.name}"
        self.images: dict[str, NCPoly] = {}
        for g in source.generators:
            if g.name not in images:
                raise PresentationError(f"morphism misses generator {g.name!r}")
            img = images[g.name]
            if img.alg is not target:
                raise PresentationError(f"image of {g.name!r} lives in the wrong algebra")
            self.images[g.name] = img
        self.verified = False
        self._cache: dict[Word, NCPoly] = {EMPTY: target.one()}

    def apply_word(self, w: Word) -> NCPoly:
        return extend_word(self._cache, w, lambda out, g: out * self.images[g],
                           reverse=self.kind == "antihom")

    def apply_terms(self, terms: dict) -> NCPoly:
        """The image of a word -> coefficient dict, normal form or not."""
        return NCPoly(self.target, combine((self.apply_word(w).terms, c)
                                           for w, c in terms.items()), normal=True)

    def apply(self, p: NCPoly) -> NCPoly:
        if p.alg is not self.source:
            raise PresentationError("element does not belong to the morphism source")
        return self.apply_terms(p.terms)

    def __call__(self, p: NCPoly) -> NCPoly:
        return self.apply(p)

    @staticmethod
    def identity(alg: Presentation) -> "Morphism":
        return Morphism(alg, alg, {g.name: alg.gen(g.name) for g in alg.generators},
                        name=f"id_{alg.name}")

    def verify(self) -> Report:
        """Relations map to zero; images are star-compatible."""
        rep = Report()
        for r in self.source.rules:
            img = self.apply_terms(r.relation())
            rep.add(f"relation {' '.join(r.lhs)}", img.is_zero,
                    "maps to 0" if img.is_zero else f"maps to {img}",
                    tag="f(relation) = 0")
        bad = [g.name for g in self.source.generators
               if self.apply_word((g.star,)) != self.images[g.name].star()]
        rep.add("star-compatibility", not bad,
                "f(g*) = f(g)* on all generators" if not bad else f"fails at {bad}",
                tag="f o * = * o f")
        self.verified = rep.ok
        return rep


class HopfData:
    """Delta, eps, S and S^-1 of a presentation, read from generator tables:
    the regular coaction, a character and two anti-multiplicative morphisms."""

    __slots__ = ("alg", "delta", "counit", "antipode", "antipode_inv")

    def __init__(self, alg: Presentation, delta: dict, counit: dict,
                 antipode: dict, antipode_inv: dict):
        self.alg = alg
        names = {g.name for g in alg.generators}
        for table, label in ((delta, "coproduct"), (counit, "counit"),
                             (antipode, "antipode"), (antipode_inv, "antipode_inv")):
            missing = names - set(table)
            if missing:
                raise PresentationError(f"{label} table missing {sorted(missing)}")
        self.delta = Coaction(f"regular_{alg.name}", alg, alg, delta)
        self.counit = Character(alg, counit, name="eps")
        self.antipode = Morphism(alg, alg, antipode, kind="antihom", name="S")
        self.antipode_inv = Morphism(alg, alg, antipode_inv, kind="antihom", name="S^-1")


def attach_hopf(alg: Presentation, delta, counit, antipode, antipode_inv) -> HopfData:
    alg.hopf = HopfData(alg, delta, counit, antipode, antipode_inv)
    return alg.hopf


def _require_hopf(alg: Presentation) -> HopfData:
    if alg.hopf is None:
        raise PresentationError(f"presentation {alg.name} has no Hopf data")
    return alg.hopf


def coproduct_word(alg: Presentation, w: Word) -> TensorElem:
    return _require_hopf(alg).delta.apply_word(w)


def coproduct(p: NCPoly) -> TensorElem:
    return _require_hopf(p.alg).delta.apply(p)


def counit_word(alg: Presentation, w: Word) -> QRat:
    return _require_hopf(alg).counit.on_word(w)


def counit(p: NCPoly) -> QRat:
    return _require_hopf(p.alg).counit(p)


def antipode(p: NCPoly) -> NCPoly:
    """S, extended as an anti-homomorphism."""
    return _require_hopf(p.alg).antipode(p)


def antipode_inv(p: NCPoly) -> NCPoly:
    return _require_hopf(p.alg).antipode_inv(p)


def verify_hopf_axioms(alg: Presentation) -> Report:
    """Certify the Hopf axioms exactly, in every degree.

    The relation checks show that Delta, eps, S and S^-1 factor through the
    quotient; * does too, checked when the presentation is built.  Each axiom
    then compares two maps that are both algebra maps or both anti-algebra
    maps, or (the antipode law) holds on a product when it holds on both
    factors, so agreement on 1 and on the generators is agreement on every
    element.  The unit is automatic: every map here is extended from its
    generator table with 1 |-> 1.
    """
    h = _require_hopf(alg)
    maps = (("Delta", h.delta), ("eps", h.counit), ("S", h.antipode),
            ("S^-1", h.antipode_inv))
    rep = Report()
    # structure maps must be well defined on the quotient
    for r in alg.rules:
        rel = r.relation()
        images = [(label, m.apply_terms(rel)) for label, m in maps]
        bad = [f"{label} maps it to {img}" for label, img in images if not img.is_zero]
        rep.add(f"relation-compat {' '.join(r.lhs)}", not bad,
                "; ".join(bad) or "structure maps kill the relation",
                tag="Delta, eps, S, S^-1 factor through the quotient")
    gens = [(g.name,) for g in alg.generators]
    bad_coassoc, bad_counit, bad_antipode, bad_sinv, bad_star = [], [], [], [], []
    for w in gens:
        p = NCPoly(alg, {w: QRat(1)})
        d2 = h.delta.apply_word(w)
        left3 = d2.expand_leg(0, h.delta.apply_word, legs_hint=(alg, alg))
        right3 = d2.expand_leg(1, h.delta.apply_word, legs_hint=(alg, alg))
        if left3 != right3:
            bad_coassoc.append(w)
        eps_l = d2.contract_leg(0, h.counit.on_word)
        eps_r = d2.contract_leg(1, h.counit.on_word)
        if eps_l != p or eps_r != p:
            bad_counit.append(w)
        target = alg.one() * h.counit.on_word(w)
        s_l = d2.map_leg(0, h.antipode.apply_word).multiply_legs()
        s_r = d2.map_leg(1, h.antipode.apply_word).multiply_legs()
        if s_l != target or s_r != target:
            bad_antipode.append(w)
        if h.antipode_inv(h.antipode(p)) != p or h.antipode(h.antipode_inv(p)) != p:
            bad_sinv.append(w)
        if coproduct(p.star()) != _star_tensor(d2):
            bad_star.append(w)

    def _describe(bad, why):
        if not bad:
            return f"on all {len(gens)} generators; {why}, so every degree"
        return "failing generators: " + ", ".join(format_word(w) for w in bad[:5])

    rep.add("coassociativity", not bad_coassoc, _describe(bad_coassoc, "algebra maps"),
            tag="(Delta (x) id) o Delta = (id (x) Delta) o Delta")
    rep.add("counit-laws", not bad_counit, _describe(bad_counit, "algebra maps"),
            tag="(eps (x) id) o Delta = id = (id (x) eps) o Delta")
    rep.add("antipode-law", not bad_antipode,
            _describe(bad_antipode, "closed under products"),
            tag="m o (S (x) id) o Delta = eta o eps = m o (id (x) S) o Delta")
    rep.add("antipode-inverse", not bad_sinv, _describe(bad_sinv, "algebra maps"),
            tag="S^-1 o S = id = S o S^-1")
    rep.add("star-coalgebra", not bad_star, _describe(bad_star, "anti-algebra maps"),
            tag="Delta o * = (* (x) *) o Delta")
    return rep


def _star_tensor(t: TensorElem) -> TensorElem:
    # star_word is a bijection on words, so no two keys meet
    return TensorElem(t.legs, {tuple(leg.star_word(w) for leg, w in zip(t.legs, k)): c
                               for k, c in t.terms.items()})
