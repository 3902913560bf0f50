"""Coactions on presented algebras: their certificates, invariant subspaces,
finite-dimensional corepresentations, cotensor products at degree truncation,
and the left coaction built from the inverse antipode.  `Coaction` itself
lives in `structure`, beside the other maps given on generators; the regular
coaction is the coproduct Delta of the Hopf data.
"""

from __future__ import annotations

from . import structure
from .linalg import RowSpace, add_scaled, combine, invert_scalar_matrix, nullspace
from .ncalg import EMPTY, NCPoly, Presentation, PresentationError, Word, format_word
from .report import Report
from .scalars import QRat, qrat
from .structure import Coaction
from .tensors import TensorElem


def regular_coaction(alg: Presentation) -> Coaction:
    """The comultiplication of a Hopf presentation, the coaction of H on itself."""
    return structure._require_hopf(alg).delta


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
    coproduct = structure._require_hopf(H).delta
    rep = Report()
    for r in A.rules:
        img = delta.apply_terms(r.relation())
        rep.add(f"relation {' '.join(r.lhs)}", img.is_zero,
                "maps to 0" if img.is_zero else f"maps to {img}",
                tag="delta extends to an algebra map")
    gens = [(g.name,) for g in A.generators]
    bad_coassoc = []
    for w in gens:
        dv = delta.apply_word(w)
        lhs = dv.expand_leg(0, delta.apply_word, legs_hint=(A, H))
        rhs = dv.expand_leg(1, coproduct.apply_word, legs_hint=(H, H))
        if lhs != rhs:
            bad_coassoc.append(w)
    bad_counit = delta.counit_failures

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

    def __init__(self, name: str, H: Presentation, entries):
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
    return Corepresentation(f"{c.name}-dual", c.H, entries)


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


def left_coaction_word(delta: Coaction, w: Word) -> TensorElem:
    """(S^-1 (x) id) o flip o delta on one normal word, the Hopf closed form
    of the left coaction: S^-1(h) (x) a for each term a (x) h of delta(w)."""
    s_inv = structure._require_hopf(delta.H).antipode_inv
    return TensorElem((delta.H, delta.A), combine(
        ({(h2, a): c2 for h2, c2 in s_inv.apply_word(h).terms.items()}, c)
        for (a, h), c in delta.apply_word(w).terms.items()), normal=True)


def left_coaction(delta: Coaction, a: NCPoly) -> TensorElem:
    """The left coaction of an element, summed over its words."""
    if a.alg is not delta.A:
        raise PresentationError("element does not belong to the coacted algebra")
    return TensorElem((delta.H, delta.A), combine(
        (left_coaction_word(delta, w).terms, c) for w, c in a.terms.items()), normal=True)
