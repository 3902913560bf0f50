"""Coactions on presented algebras, invariant subspaces, finite-dimensional
corepresentations, cotensor products at degree truncation, and the left
coaction built from the inverse antipode.
"""

from __future__ import annotations

from . import structure
from .linalg import RowSpace, add_scaled, combine, invert_scalar_matrix, nullspace
from .ncalg import (EMPTY, NCPoly, Presentation, PresentationError, Word, extend_word,
                    format_word)
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

    def apply(self, p: NCPoly) -> TensorElem:
        if p.alg is not self.A:
            raise PresentationError("element does not belong to the coacted algebra")
        return TensorElem((self.A, self.H), combine((self.apply_word(w).terms, c)
                                                    for w, c in p.terms.items()), normal=True)

    def __call__(self, p: NCPoly) -> TensorElem:
        return self.apply(p)


def regular_coaction(alg: Presentation) -> Coaction:
    """The comultiplication of a Hopf presentation, viewed as a coaction on itself."""
    structure._require_hopf(alg)
    table = {g.name: structure.coproduct_word(alg, (g.name,)) for g in alg.generators}
    return Coaction(f"regular_{alg.name}", alg, alg, table)


def trivial_coaction(A: Presentation, H: Presentation) -> Coaction:
    one_h = EMPTY
    table = {g.name: TensorElem((A, H), {((g.name,), one_h): QRat(1)})
             for g in A.generators}
    return Coaction(f"trivial_{A.name}", A, H, table)


def verify_coaction(delta: Coaction) -> Report:
    """Algebra-map, coassociativity and counitality certificates in every degree.

    Once the relation checks pass, delta is an algebra map, so both sides of
    each axiom are algebra maps and agreement on the generators is agreement
    everywhere.  This assumes that Delta_H and eps_H factor through the
    relations of H, which `structure.verify_hopf_axioms` certifies.  The unit
    law delta(1) = 1 (x) 1 holds by construction, since delta is extended
    from the generators multiplicatively, starting at 1 (x) 1.
    """
    A, H = delta.A, delta.H
    structure._require_hopf(H)
    rep = Report()
    for r in A.rules:
        img = TensorElem((A, H), combine((delta.apply_word(w).terms, c)
                                         for w, c in r.relation().items()), normal=True)
        rep.add(f"relation {' '.join(r.lhs)}", img.is_zero,
                "maps to 0" if img.is_zero else f"maps to {img}",
                tag="delta extends to an algebra map")
    gens = [(g.name,) for g in A.generators]
    bad_coassoc = []
    for w in gens:
        dv = delta.apply_word(w)
        lhs = dv.expand_leg(0, delta.apply_word, legs_hint=(A, H))
        rhs = dv.expand_leg(1, lambda u: structure.coproduct_word(H, u), legs_hint=(H, H))
        if lhs != rhs:
            bad_coassoc.append(w)
    bad_counit = counit_failures(delta)

    def _describe(bad):
        if not bad:
            return f"on all {len(gens)} generators; algebra maps, so every degree"
        return "failing generators: " + ", ".join(format_word(w) for w in bad[:5])

    rep.add("coassociativity", not bad_coassoc, _describe(bad_coassoc),
            tag="(delta (x) id) o delta = (id (x) Delta) o delta")
    rep.add("counitality", not bad_counit, _describe(bad_counit),
            tag="(id (x) eps) o delta = id")
    delta.verified = rep.ok
    return rep


def counit_failures(delta: Coaction) -> list[Word]:
    """The generators g with (id (x) eps)(delta(g)) != g, in generator order.

    When the list is empty, (id (x) eps) o delta = id on every element of A:
    both sides are algebra maps that agree on the generators.  This assumes
    that eps_H factors through the relations of H, which
    `structure.verify_hopf_axioms` certifies.
    """
    A, H = delta.A, delta.H
    structure._require_hopf(H)
    bad = []
    for g in A.generators:
        w = (g.name,)
        back = delta.apply_word(w).contract_leg(1, lambda u: structure.counit_word(H, u))
        if back != NCPoly(A, {w: QRat(1)}):
            bad.append(w)
    return bad


def _tensor_key_order(delta: Coaction):
    A, H = delta.A, delta.H
    return lambda k: (A.term_key(k[0]), H.term_key(k[1]))


def invariant_subspace(delta: Coaction, d: int) -> list[NCPoly]:
    """Reduced basis of {b in A_{<=d} : delta(b) = b (x) 1}."""
    A, H = delta.A, delta.H
    words = A.basis_up_to_degree(d)
    columns = []
    for w in words:
        t = delta.apply_word(w) - TensorElem((A, H), {(w, EMPTY): QRat(1)})
        columns.append(dict(t.terms))
    sols = nullspace(columns, _tensor_key_order(delta))
    out = []
    for sol in sols:
        terms = {w: c for w, c in zip(words, sol) if not c.is_zero}
        out.append(NCPoly(A, terms, normal=True))
    return _echelon_polys(out, A)


def _echelon_polys(polys: list[NCPoly], alg: Presentation) -> list[NCPoly]:
    space = RowSpace(alg.term_key)
    for p in polys:
        space.insert(dict(p.terms))
    rows = space.sorted_rows()
    return [NCPoly(alg, r, normal=True) for r in rows]


class Corepresentation:
    """Square matrix of coalgebra elements; left corep convention
    rho(v_i) = sum_j c_ij (x) v_j."""

    def __init__(self, name: str, H: Presentation, entries, side: str = "left"):
        self.name = name
        self.H = H
        self.entries: list[list[NCPoly]] = [list(row) for row in entries]
        self.n = len(self.entries)
        for row in self.entries:
            if len(row) != self.n:
                raise PresentationError("corepresentation matrix must be square")
            for e in row:
                if e.alg is not H:
                    raise PresentationError("corepresentation entry in the wrong algebra")
        self.side = side

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]


def verify_corepresentation(c: Corepresentation) -> Report:
    H = c.H
    structure._require_hopf(H)
    rep = Report()
    bad_delta = []
    bad_eps = []
    for i in range(c.n):
        for j in range(c.n):
            rhs = combine(({(u, v): cv for v, cv in c[k, j].terms.items()}, cu)
                          for k in range(c.n) for u, cu in c[i, k].terms.items())
            if structure.coproduct(c[i, j]).terms != rhs:
                bad_delta.append((i, j))
            want = QRat(1) if i == j else QRat(0)
            if structure.counit(c[i, j]) != want:
                bad_eps.append((i, j))
    rep.add("matrix-coproduct", not bad_delta,
            "Delta(c_ij) = sum_k c_ik (x) c_kj" if not bad_delta else f"fails at {bad_delta}",
            tag="Delta(c_ij) = sum_k c_ik (x) c_kj")
    rep.add("matrix-counit", not bad_eps,
            "eps(c_ij) = delta_ij" if not bad_eps else f"fails at {bad_eps}",
            tag="eps(c_ij) = delta_ij")
    return rep


def contragredient(c: Corepresentation) -> Corepresentation:
    """Antipode applied entrywise to the transpose."""
    entries = [[structure.antipode(c[j, i]) for j in range(c.n)] for i in range(c.n)]
    return Corepresentation(f"{c.name}-dual", c.H, entries, side=c.side)


def corep_equivalence(c: Corepresentation, c2: Corepresentation, Q) -> Report:
    """Exact check that Q c Q^-1 = c2 for a scalar matrix Q."""
    rep = Report()
    if c.H is not c2.H or c.n != c2.n:
        rep.add("shape", False, "corepresentations not comparable", tag="Q c Q^-1 = c'")
        return rep
    Qm = [[qrat(x) for x in row] for row in Q]
    inv = invert_scalar_matrix(Qm)
    rep.add("intertwiner-invertible", inv is not None,
            "Q is invertible over Q(q)" if inv is not None else "Q is singular",
            tag="Q in GL_n(Q(q))")
    if inv is None:
        return rep
    # compare Q c = c2 Q entrywise to avoid polynomial-side inversion
    ok = all(combine((c[k, j].terms, Qm[i][k]) for k in range(c.n)) ==
             combine((c2[i, k].terms, Qm[k][j]) for k in range(c.n))
             for i in range(c.n) for j in range(c.n))
    rep.add("conjugacy", ok, "Q c Q^-1 = c' entrywise" if ok else "conjugation fails",
            tag="Q c Q^-1 = c'")
    return rep


def cotensor_basis(delta: Coaction, c: Corepresentation, d: int) -> list[list[NCPoly]]:
    """Basis of the truncated cotensor product: tuples (x_1..x_n) over A_{<=d}
    with delta(x_j) = sum_i x_i (x) c_ij."""
    A, H = delta.A, delta.H
    if c.H is not H:
        raise PresentationError("corepresentation lives over the wrong Hopf algebra")
    words = A.basis_up_to_degree(d)
    variables = [(j, w) for j in range(c.n) for w in words]
    columns = []
    for (j, w) in variables:
        lhs = {(j, aw, hw): coeff for (aw, hw), coeff in delta.apply_word(w).terms.items()}
        rhs = {(jj, w, hw): coeff for jj in range(c.n) for hw, coeff in c[j, jj].terms.items()}
        add_scaled(lhs, rhs, QRat(-1))
        columns.append(lhs)
    sols = nullspace(columns, lambda k: (k[0], A.term_key(k[1]), H.term_key(k[2])))
    space = RowSpace(lambda k: (k[0], A.term_key(k[1])))
    for sol in sols:
        space.insert({v: coeff for v, coeff in zip(variables, sol) if not coeff.is_zero})
    out = []
    for row in space.sorted_rows():
        vec = [{} for _ in range(c.n)]
        for (j, w), coeff in row.items():
            vec[j][w] = coeff
        out.append([NCPoly(A, terms, normal=True) for terms in vec])
    return out


def _flatten(vec) -> dict:
    """A vector of polynomials as one row {(j, word): coefficient}."""
    return {(j, w): coeff for j, p in enumerate(vec) for w, coeff in p.terms.items()}


def left_coaction(delta: Coaction, a: NCPoly) -> TensorElem:
    """(S^-1 (x) id) o flip o delta, the Hopf closed form of the left coaction."""
    H = delta.H
    hopf = structure._require_hopf(H)
    if not hopf.antipode_inv:
        raise PresentationError("left coaction needs the inverse antipode")
    flipped = delta.apply(a).swap(0, 1)
    return flipped.map_leg(0, lambda w: structure.antipode_inv(
        NCPoly(H, {w: QRat(1)}, normal=True)))
