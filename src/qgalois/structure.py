"""Hopf structure on a presentation: coproduct, counit, antipode and its
inverse, stored on generators and extended algorithmically; morphisms between
presentations; certificates of the Hopf axioms on generators, which hold in
every degree.
"""

from __future__ import annotations

from .linalg import combine
from .ncalg import EMPTY, NCPoly, Presentation, PresentationError, Word, extend_word, format_word
from .report import Report
from .scalars import QRat, qrat
from .tensors import TensorElem


class HopfData:
    """Generator tables for Delta, eps, S and S^-1, with per-word caches that
    hold the image of every prefix (suffix for S and S^-1) met so far."""

    __slots__ = ("alg", "delta", "counit", "antipode", "antipode_inv",
                 "_delta_cache", "_s_cache", "_sinv_cache")

    def __init__(self, alg: Presentation, delta: dict, counit: dict,
                 antipode: dict, antipode_inv: dict):
        self.alg = alg
        names = {g.name for g in alg.generators}
        for table, label in ((delta, "coproduct"), (counit, "counit"),
                             (antipode, "antipode"), (antipode_inv, "antipode_inv")):
            missing = names - set(table)
            if missing:
                raise PresentationError(f"{label} table missing {sorted(missing)}")
        self.delta = {g: t for g, t in delta.items()}
        self.counit = {g: qrat(c) for g, c in counit.items()}
        self.antipode = dict(antipode)
        self.antipode_inv = dict(antipode_inv)
        self._delta_cache: dict[Word, TensorElem] = {EMPTY: TensorElem.unit((alg, alg))}
        self._s_cache: dict[Word, NCPoly] = {EMPTY: alg.one()}
        self._sinv_cache: dict[Word, NCPoly] = {EMPTY: alg.one()}


def attach_hopf(alg: Presentation, delta, counit, antipode, antipode_inv) -> HopfData:
    alg.hopf = HopfData(alg, delta, counit, antipode, antipode_inv)
    return alg.hopf


def _require_hopf(alg: Presentation) -> HopfData:
    if alg.hopf is None:
        raise PresentationError(f"presentation {alg.name} has no Hopf data")
    return alg.hopf


def coproduct_word(alg: Presentation, w: Word) -> TensorElem:
    h = _require_hopf(alg)
    return extend_word(h._delta_cache, w, lambda out, g: out.tensor_mul(h.delta[g]))


def coproduct(p: NCPoly, parts: int = 2) -> TensorElem:
    """Iterated coproduct: Delta for parts=2, (Delta (x) id) o Delta for parts=3."""
    alg = p.alg
    _require_hopf(alg)
    if parts not in (2, 3):
        raise ValueError("coproduct splits into 2 or 3 parts")
    out = TensorElem.from_poly(p).expand_leg(0, lambda w: coproduct_word(alg, w),
                                             legs_hint=(alg, alg))
    if parts == 3:
        out = out.expand_leg(0, lambda w: coproduct_word(alg, w), legs_hint=(alg, alg))
    return out


def counit_word(alg: Presentation, w: Word) -> QRat:
    h = _require_hopf(alg)
    out = QRat(1)
    for g in w:
        out = out * h.counit[g]
        if out.is_zero:
            break
    return out


def counit(p: NCPoly) -> QRat:
    out = QRat(0)
    for w, c in p.terms.items():
        out = out + c * counit_word(p.alg, w)
    return out


def _anti_extend(table: dict, cache: dict, w: Word) -> NCPoly:
    return extend_word(cache, w, lambda out, g: out * table[g], reverse=True)


def antipode(p: NCPoly) -> NCPoly:
    """S, extended as an anti-homomorphism."""
    h = _require_hopf(p.alg)
    return NCPoly(p.alg, combine((_anti_extend(h.antipode, h._s_cache, w).terms, c)
                                 for w, c in p.terms.items()), normal=True)


def antipode_inv(p: NCPoly) -> NCPoly:
    h = _require_hopf(p.alg)
    return NCPoly(p.alg, combine((_anti_extend(h.antipode_inv, h._sinv_cache, w).terms, c)
                                 for w, c in p.terms.items()), normal=True)


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
    rep = Report()
    # structure maps must be well defined on the quotient
    for r in alg.rules:
        rel = r.relation().items()
        ct = QRat(0)
        for w, c in rel:
            ct = ct + counit_word(alg, w) * c
        dt = combine((coproduct_word(alg, w).terms, c) for w, c in rel)
        st = combine((_anti_extend(h.antipode, h._s_cache, w).terms, c) for w, c in rel)
        sit = combine((_anti_extend(h.antipode_inv, h._sinv_cache, w).terms, c) for w, c in rel)
        images = (("Delta", TensorElem((alg, alg), dt, normal=True)), ("eps", ct),
                  ("S", NCPoly(alg, st, normal=True)), ("S^-1", NCPoly(alg, sit, normal=True)))
        bad = [f"{name} maps it to {img}" for name, img in images if not img.is_zero]
        rep.add(f"relation-compat {' '.join(r.lhs)}", not bad,
                "; ".join(bad) or "structure maps kill the relation",
                tag="Delta, eps, S, S^-1 factor through the quotient")
    gens = [(g.name,) for g in alg.generators]
    bad_coassoc = []
    bad_counit = []
    bad_antipode = []
    bad_sinv = []
    bad_star = []
    for w in gens:
        p = NCPoly(alg, {w: QRat(1)})
        d2 = coproduct_word(alg, w)
        left3 = d2.expand_leg(0, lambda u: coproduct_word(alg, u), legs_hint=(alg, alg))
        right3 = d2.expand_leg(1, lambda u: coproduct_word(alg, u), legs_hint=(alg, alg))
        if left3 != right3:
            bad_coassoc.append(w)
        eps_l = d2.contract_leg(0, lambda u: counit_word(alg, u))
        eps_r = d2.contract_leg(1, lambda u: counit_word(alg, u))
        if eps_l != p or eps_r != p:
            bad_counit.append(w)
        target = alg.one() * counit_word(alg, w)
        s_l = d2.map_leg(0, lambda u: _anti_extend(h.antipode, h._s_cache, u)).multiply_legs()
        s_r = d2.map_leg(1, lambda u: _anti_extend(h.antipode, h._s_cache, u)).multiply_legs()
        if s_l != target or s_r != target:
            bad_antipode.append(w)
        if antipode_inv(antipode(p)) != p or antipode(antipode_inv(p)) != p:
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

    def apply(self, p: NCPoly) -> NCPoly:
        if p.alg is not self.source:
            raise PresentationError("element does not belong to the morphism source")
        return NCPoly(self.target, combine((self.apply_word(w).terms, c)
                                           for w, c in p.terms.items()), normal=True)

    def __call__(self, p: NCPoly) -> NCPoly:
        return self.apply(p)

    def then(self, other: "Morphism") -> "Morphism":
        """Composition other o self."""
        if other.source is not self.target:
            raise PresentationError("morphisms do not compose")
        if self.kind == other.kind:
            kind = "hom"
        else:
            kind = "antihom"
        images = {g.name: other.apply(self.images[g.name]) for g in self.source.generators}
        m = Morphism(self.source, other.target, images, kind,
                     name=f"{other.name} o {self.name}")
        return m

    @staticmethod
    def identity(alg: Presentation) -> "Morphism":
        return Morphism(alg, alg, {g.name: alg.gen(g.name) for g in alg.generators},
                        name=f"id_{alg.name}")

    def verify(self) -> Report:
        """Relations map to zero; images are star-compatible."""
        rep = Report()
        for r in self.source.rules:
            img = NCPoly(self.target, combine((self.apply_word(w).terms, c)
                                              for w, c in r.relation().items()), normal=True)
            rep.add(f"relation {' '.join(r.lhs)}", img.is_zero,
                    "maps to 0" if img.is_zero else f"maps to {img}",
                    tag="f(relation) = 0")
        star_ok = True
        bad = []
        for g in self.source.generators:
            if self.apply_word((g.star,)) != self.images[g.name].star():
                star_ok = False
                bad.append(g.name)
        rep.add("star-compatibility", star_ok,
                "f(g*) = f(g)* on all generators" if star_ok else f"fails at {bad}",
                tag="f o * = * o f")
        self.verified = rep.ok
        return rep


def extend_algebra_map(m: Morphism, p: NCPoly) -> NCPoly:
    """Evaluate a verified morphism on an arbitrary element."""
    if not m.verified:
        raise PresentationError("morphism has not passed verification")
    return m.apply(p)
