"""Strong connections: finite tables on matrix subcoalgebras or the canonical
procedural rule for the regular coaction, their four-clause certification, and
pullback along equivariant maps.
"""

from __future__ import annotations

from . import structure
from .comodule import Coaction, left_coaction
from .linalg import ONE, RowSpace, combine
from .ncalg import NCPoly, Presentation, PresentationError, Word
from .report import Report
from .scalars import QRat
from .structure import Morphism
from .tensors import TensorElem


class SpanClosureError(ValueError):
    """Delta of a span element leaves the span (x) span."""

    def __init__(self, message, element=None):
        super().__init__(message)
        self.element = element


class CoverageError(ValueError):
    """An element outside the connection's domain span was requested."""

    def __init__(self, message, element=None):
        super().__init__(message)
        self.element = element


class TableLineError(PresentationError):
    """A connection-table line contradicts the lines before it; `index` is its
    position in the table."""

    def __init__(self, message, index: int):
        super().__init__(message)
        self.index = index


class CoalgebraSpan:
    """Finite-dimensional subspace of a Hopf presentation, meant to be closed
    under the coproduct and to contain the coaugmentation 1."""

    def __init__(self, H: Presentation, elements):
        self.H = H
        self.elements: list[NCPoly] = [e for e in elements if not e.is_zero]
        for e in self.elements:
            if e.alg is not H:
                raise PresentationError("span element in the wrong algebra")
        self._space = RowSpace(H.term_key)
        for e in self.elements:
            self._space.insert(dict(e.terms))
        self.basis: list[NCPoly] = [NCPoly(H, r, normal=True) for r in self._space.rows]
        if self.coordinates(H.one()) is None:
            raise PresentationError("coalgebra span must contain the unit coaugmentation")

    @property
    def dim(self) -> int:
        return len(self.basis)

    def coordinates(self, h: NCPoly):
        return self._space.coordinates(dict(h.terms))

    def contains(self, h: NCPoly) -> bool:
        return self.coordinates(h) is not None

    def delta_components(self, x: NCPoly, side: int):
        """Write Delta(x) as sum_k s_k (x) h_k (side=0, s_k the span basis) or
        sum_k h_k (x) s_k (side=1); raises SpanClosureError if impossible."""
        out = [{} for _ in self.basis]
        for other_word, slice_poly in structure.coproduct(x).grouped(1 - side).items():
            coords = self.coordinates(slice_poly)
            if coords is None:
                raise SpanClosureError(
                    f"Delta leaves the span at slice {slice_poly}", element=slice_poly)
            for k, c in enumerate(coords):
                if not c.is_zero:
                    out[k][other_word] = c
        return [NCPoly(self.H, terms, normal=True) for terms in out]

    def closure_report(self) -> Report:
        rep = Report()
        for e in self.basis:
            try:
                comp = self.delta_components(e, 0)
                ok = all(self.contains(h) for h in comp)
                detail = "Delta(x) lies in span (x) span" if ok else "second legs leave the span"
            except SpanClosureError:
                ok = False
                detail = "first legs leave the span"
            rep.add(f"closure {e}", ok, detail, tag="Delta(span) <= span (x) span")
        return rep


class StrongConnection:
    """Bicolinear unital splitting l: C -> A (x) A, stored as a finite table on
    a coalgebra span, or procedurally (l = (S (x) id) o Delta) when A = H."""

    def __init__(self, domain: CoalgebraSpan, A: Presentation, coaction: Coaction,
                 kind: str, values=None, name: str = ""):
        self.domain = domain
        self.A = A
        self.coaction = coaction
        self.kind = kind
        self.name = name or f"connection_on_{domain.H.name}"
        self._values = values  # aligned with domain.basis for kind == 'table'
        self._word_cache: dict[Word, TensorElem] = {}

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_table(cls, domain: CoalgebraSpan, coaction: Coaction, pairs,
                   name: str = "") -> "StrongConnection":
        A = coaction.A
        space = RowSpace(domain.H.term_key)
        table_values = []

        def value_of(expr):
            return TensorElem((A, A), combine((table_values[k].terms, c)
                                              for k, c in expr.items()), normal=True)

        for i, (elem, val) in enumerate(pairs):
            if elem.alg is not domain.H:
                raise PresentationError("table element in the wrong coalgebra")
            if val.legs != (A, A):
                raise PresentationError("table value must live in A (x) A")
            # a line dependent on earlier ones must agree with their values
            v = dict(elem.terms)
            if not space.insert(v) and value_of(space.express(v)) != val:
                raise TableLineError(
                    f"table value at {elem} contradicts the earlier lines", i)
            table_values.append(val)
        values = []
        for b in domain.basis:
            expr = space.express(dict(b.terms))
            if expr is None:
                raise PresentationError(f"table does not cover span element {b}")
            values.append(value_of(expr))
        return cls(domain, A, coaction, "table", values, name=name)

    @classmethod
    def trivial(cls, H: Presentation, span: CoalgebraSpan,
                coaction: Coaction | None = None) -> "StrongConnection":
        """The canonical connection l(h) = S(h_(1)) (x) h_(2) for A = H."""
        structure._require_hopf(H)
        if span.H is not H:
            raise PresentationError("span must live in the structure algebra")
        coaction = coaction or H.hopf.delta
        if coaction.A is not H or coaction.H is not H:
            raise PresentationError("trivial connection requires A = H with delta = Delta")
        return cls(span, H, coaction, "trivial", name=f"trivial_{H.name}")

    # -- evaluation ---------------------------------------------------------

    def _ell_trivial_word(self, w: Word) -> TensorElem:
        cached = self._word_cache.get(w)
        if cached is None:
            hopf = self.A.hopf
            cached = hopf.delta.apply_word(w).map_leg(0, hopf.antipode.apply_word)
            self._word_cache[w] = cached
        return cached

    def ell(self, h: NCPoly) -> TensorElem:
        """Evaluate the connection on an element of the domain span."""
        if h.alg is not self.domain.H:
            raise PresentationError("connection argument in the wrong coalgebra")
        if self.kind == "trivial":
            pairs = ((self._ell_trivial_word(w).terms, c) for w, c in h.terms.items())
        else:
            coords = self.domain.coordinates(h)
            if coords is None:
                raise CoverageError(f"element outside the connection domain: {h}", element=h)
            pairs = ((val.terms, c) for c, val in zip(coords, self._values))
        return TensorElem((self.A, self.A), combine(pairs), normal=True)

    def __call__(self, h: NCPoly) -> TensorElem:
        return self.ell(h)


def _difference(lhs: TensorElem, rhs: dict) -> str:
    """The FAIL witness of a clause lhs = rhs: their difference, cut short."""
    return "difference " + (lhs - TensorElem(lhs.legs, rhs, normal=True)).brief()


def check_strong_connection(ell: StrongConnection, delta: Coaction) -> Report:
    """Certify unitality, m o l = eps, and both colinearity clauses on the
    domain span, exactly in symbolic q."""
    H = ell.domain.H
    A = ell.A
    hopf = structure._require_hopf(H)
    rep = Report()
    one = H.one()
    unit_val = ell.ell(one)
    rep.add("unitality", unit_val == TensorElem.unit((A, A)),
            f"l(1) = {unit_val}", tag="l(e) = 1 (x) 1")
    for b in ell.domain.basis:
        lv = ell.ell(b)
        mult = lv.multiply_legs()
        eps = structure.counit(b)
        ok = mult == A.one() * eps
        rep.add(f"mult-counit {b}", ok,
                "m(l(c)) = eps(c) 1" if ok else f"m(l(c)) = {mult}, eps(c) = {eps}",
                tag="m o l = eps")
        # right colinearity
        try:
            comp0 = ell.domain.delta_components(b, 0)
            lhs = lv.expand_leg(1, delta.apply_word, legs_hint=(A, delta.H))
            rhs = combine((ell.ell(s).outer(TensorElem.from_poly(h)).terms, ONE)
                          for s, h in zip(ell.domain.basis, comp0) if not h.is_zero)
            ok = lhs.terms == rhs
            rep.add(f"right-colinearity {b}", ok, "" if ok else _difference(lhs, rhs),
                    tag="(id (x) delta) o l = (l (x) id) o Delta")
        except SpanClosureError as exc:
            rep.add(f"right-colinearity {b}", False, f"closure violation: {exc}",
                    tag="(id (x) delta) o l = (l (x) id) o Delta")
        # left colinearity
        try:
            comp1 = ell.domain.delta_components(b, 1)
            lhs = lv.expand_leg(0, lambda w: left_coaction(
                delta, NCPoly(A, {w: QRat(1)}, normal=True)), legs_hint=(delta.H, A))
            rhs = combine((TensorElem.from_poly(h).outer(ell.ell(s)).terms, ONE)
                          for s, h in zip(ell.domain.basis, comp1) if not h.is_zero)
            ok = lhs.terms == rhs
            rep.add(f"left-colinearity {b}", ok, "" if ok else _difference(lhs, rhs),
                    tag="(((S^-1 (x) id) o flip o delta) (x) id) o l = (id (x) l) o Delta")
        except SpanClosureError as exc:
            rep.add(f"left-colinearity {b}", False, f"closure violation: {exc}",
                    tag="(((S^-1 (x) id) o flip o delta) (x) id) o l = (id (x) l) o Delta")
    return rep


def check_equivariance(f: Morphism, delta: Coaction, delta2: Coaction) -> Report:
    """delta' o f = (f (x) id) o delta, checked on generators (both sides are
    algebra maps, so generator equality extends)."""
    rep = Report()
    if f.source is not delta.A or f.target is not delta2.A:
        rep.add("equivariance", False, "morphism endpoints do not match the coactions",
                tag="delta' o f = (f (x) id) o delta")
        return rep
    if delta.H is not delta2.H:
        rep.add("equivariance", False, "coactions have different structure algebras",
                tag="delta' o f = (f (x) id) o delta")
        return rep
    bad = []
    for g in f.source.generators:
        lhs = delta2.apply(f.images[g.name])
        rhs = delta.table[g.name].map_leg(0, lambda w: f.apply_word(w), target=f.target)
        if lhs != rhs:
            bad.append(g.name)
    rep.add("equivariance", not bad,
            "delta' o f = (f (x) id) o delta on all generators" if not bad
            else f"fails at generators {bad}",
            tag="delta' o f = (f (x) id) o delta")
    return rep


def pullback_connection(f: Morphism, ell: StrongConnection,
                        delta2: Coaction) -> StrongConnection:
    """l' = (f (x) f) o l on the same coalgebra span."""
    if not f.verified:
        raise PresentationError("pullback requires a verified morphism")
    eq = check_equivariance(f, ell.coaction, delta2)
    if not eq.ok:
        raise PresentationError("pullback requires an equivariant morphism")
    pairs = []
    for b in ell.domain.basis:
        val = ell.ell(b)
        mapped = val.map_leg(0, f.apply_word, target=f.target)
        mapped = mapped.map_leg(1, f.apply_word, target=f.target)
        pairs.append((b, mapped))
    return StrongConnection.from_table(ell.domain, delta2, pairs,
                                       name=f"pullback_{ell.name}")
