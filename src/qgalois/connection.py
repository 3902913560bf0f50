"""Strong connections: finite tables on matrix subcoalgebras or the canonical
procedural rule for the regular coaction, their four-clause certification, and
pullback along equivariant maps.
"""

from __future__ import annotations

from . import structure
from .comodule import Coaction, left_coaction_word
from .linalg import ONE, RowSpace, combine
from .ncalg import NCPoly, Presentation, PresentationError, Word
from .report import Report
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
    """Finite-dimensional subspace of a Hopf presentation spanned by the given
    elements, meant to be closed under the coproduct and to contain the
    coaugmentation 1.  exprs[k] writes basis[k] as {element index: coefficient}
    over the elements, zero ones included."""

    def __init__(self, H: Presentation, elements):
        self.H = H
        self._space = RowSpace(H.term_key)
        for e in elements:
            if e.alg is not H:
                raise PresentationError("span element in the wrong algebra")
            self._space.insert(dict(e.terms))
        self.basis: list[NCPoly] = [NCPoly(H, r, normal=True) for r in self._space.rows]
        self.exprs = self._space.exprs
        if not self.contains(H.one()):
            raise PresentationError("coalgebra span must contain the unit coaugmentation")

    @property
    def dim(self) -> int:
        return len(self.basis)

    def coordinates(self, h: NCPoly):
        return self._space.coordinates(dict(h.terms))

    def express(self, h: NCPoly):
        """h as {element index: coefficient} over the spanning elements, or None
        if h is outside the span."""
        return self._space.express(dict(h.terms))

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

    def __init__(self, domain: CoalgebraSpan, coaction: Coaction, values=None,
                 name: str = ""):
        self.domain = domain
        self.A = coaction.A
        self.coaction = coaction
        self.name = name or f"connection_on_{domain.H.name}"
        # aligned with domain.basis; None for the canonical rule S(h_(1)) (x) h_(2)
        self._values = values
        self._word_cache: dict[Word, TensorElem] = {}

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_table(cls, coaction: Coaction, pairs, name: str = "") -> "StrongConnection":
        """l(elem) = val for each line (elem, val) of pairs, on the span of the
        elems.  A line dependent on earlier ones must agree with their values;
        its expression uses only earlier independent lines, so a contradiction
        is a TableLineError at its own index."""
        A = coaction.A
        domain = CoalgebraSpan(coaction.H, [elem for elem, _ in pairs])

        def value_of(expr):
            return TensorElem((A, A), combine((pairs[k][1].terms, c)
                                              for k, c in expr.items()), normal=True)

        for i, (elem, val) in enumerate(pairs):
            if val.legs != (A, A):
                raise PresentationError("table value must live in A (x) A")
            if value_of(domain.express(elem)) != val:
                raise TableLineError(
                    f"table value at {elem} contradicts the earlier lines", i)
        return cls(domain, coaction, [value_of(expr) for expr in domain.exprs], name=name)

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
        return cls(span, coaction, name=f"trivial_{H.name}")

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
        if self._values is None:
            pairs = ((self._ell_trivial_word(w).terms, c) for w, c in h.terms.items())
        else:
            coords = self.domain.coordinates(h)
            if coords is None:
                raise CoverageError(f"element outside the connection domain: {h}", element=h)
            pairs = ((val.terms, c) for c, val in zip(coords, self._values))
        return TensorElem((self.A, self.A), combine(pairs), normal=True)

    def __call__(self, h: NCPoly) -> TensorElem:
        return self.ell(h)


def check_strong_connection(ell: StrongConnection, delta: Coaction) -> Report:
    """Certify unitality, m o l = eps, and both colinearity clauses on the
    domain span, exactly in symbolic q, reading l once per basis element."""
    H = ell.domain.H
    A = ell.A
    structure._require_hopf(H)
    rep = Report()
    unit_val = ell.ell(H.one())
    rep.add("unitality", unit_val == TensorElem.unit((A, A)),
            f"l(1) = {unit_val}", tag="l(e) = 1 (x) 1")
    basis = ell.domain.basis
    values = [ell.ell(b) for b in basis]
    # (name, tag, leg the coaction acts on, that coaction, its legs); the other side
    # sums l(s_k) (x) h_k over Delta(b) = sum_k s_k (x) h_k, or h_k (x) l(s_k)
    sides = (("right-colinearity", "(id (x) delta) o l = (l (x) id) o Delta",
              1, delta.apply_word, (A, delta.H)),
             ("left-colinearity",
              "(((S^-1 (x) id) o flip o delta) (x) id) o l = (id (x) l) o Delta",
              0, lambda w: left_coaction_word(delta, w), (delta.H, A)))
    for b, lv in zip(basis, values):
        mult = lv.multiply_legs()
        eps = structure.counit(b)
        ok = mult == A.one() * eps
        rep.add(f"mult-counit {b}", ok,
                "m(l(c)) = eps(c) 1" if ok else f"m(l(c)) = {mult}, eps(c) = {eps}",
                tag="m o l = eps")
        for name, tag, leg, coact, legs in sides:
            try:
                comp = ell.domain.delta_components(b, 1 - leg)
                lhs = lv.expand_leg(leg, coact, legs_hint=legs)
                rhs = combine(((v.outer(TensorElem.from_poly(h)) if leg else
                                TensorElem.from_poly(h).outer(v)).terms, ONE)
                              for v, h in zip(values, comp) if not h.is_zero)
                ok = lhs.terms == rhs
                # a FAIL's witness is the difference of the two sides, cut short
                rep.add(f"{name} {b}", ok, "" if ok else "difference " + (
                    lhs - TensorElem(lhs.legs, rhs, normal=True)).brief(), tag=tag)
            except SpanClosureError as exc:
                rep.add(f"{name} {b}", False, f"closure violation: {exc}", tag=tag)
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
    pairs = [(b, ell.ell(b).map_leg(0, f.apply_word, target=f.target)
              .map_leg(1, f.apply_word, target=f.target)) for b in ell.domain.basis]
    return StrongConnection.from_table(delta2, pairs, name=f"pullback_{ell.name}")
