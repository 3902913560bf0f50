"""Coactions on presented algebras: their certificates, invariant subspaces,
finite-dimensional corepresentations, cotensor products at degree truncation,
and the left coaction built from the inverse antipode.  `Coaction` itself
lives in `structure`, beside the other maps given on generators; the regular
coaction is the coproduct Delta of the Hopf data.

A coaction's certificate reads the failure lists that `Coaction` computes
once.  The invariants B = A^{co H} are the cotensor product with the trivial
corepresentation, so both come from one elimination, `cotensor_basis`.  One
colinearity test, `_colinear_defects`, checks a corepresentation's matrix
coproduct here and a projector's factors and cotensor images in
`cherngalois`.
"""

from __future__ import annotations

from . import structure
from .linalg import RowSpace, add_scaled, combine, invert_scalar_matrix, nullspace
from .ncalg import NCPoly, Presentation, PresentationError, Word
from .report import Report
from .scalars import QRat, qrat
from .structure import Coaction, generators_detail, relation_report
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
    n = len(delta.A.generators)
    rep = relation_report(delta.A, delta.apply_terms, "delta extends to an algebra map")
    rep.add("coassociativity", not delta.coassociativity_failures,
            generators_detail(delta.coassociativity_failures, n, "algebra maps"),
            tag="(delta (x) id) o delta = (id (x) Delta) o delta")
    rep.add("counitality", not delta.counit_failures,
            generators_detail(delta.counit_failures, n, "algebra maps"),
            tag="(id (x) eps) o delta = id")
    return rep


def invariant_subspace(delta: Coaction, d: int) -> list[NCPoly]:
    """Reduced basis of {b in A_{<=d} : delta(b) = b (x) 1}: the cotensor
    product with the trivial corepresentation, B = A box_H C."""
    trivial = Corepresentation("trivial", delta.H, [[delta.H.one()]])
    return [b for (b,) in cotensor_basis(delta, trivial, d)]


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
    """The rows of c are colinear under Delta with matrix c, and eps(c) = I."""
    coproduct = structure._require_hopf(c.H).delta
    rep = Report()
    bad_delta = [(i, j) for i, j, _ in _colinear_defects(coproduct, c.entries, c.entries)]
    bad_eps = [(i, j) for i in range(c.n) for j in range(c.n)
               if structure.counit(c[i, j]) != (QRat(1) if i == j else QRat(0))]
    rep.add("matrix-coproduct", not bad_delta,
            "Delta(c_ij) = sum_k c_ik (x) c_kj" if not bad_delta else f"fails at {bad_delta}",
            tag="Delta(c_ij) = sum_k c_ik (x) c_kj")
    rep.add("matrix-counit", not bad_eps,
            "eps(c_ij) = delta_ij" if not bad_eps else f"fails at {bad_eps}",
            tag="eps(c_ij) = delta_ij")
    return rep


def _colinear_defects(delta: Coaction, vectors, C):
    """(vector, j, difference of the sides) wherever delta(x_j) !=
    sum_i x_i (x) C_ij, for vectors x over A and a square matrix C over H:
    C = c for the rows of c itself under Delta, for the rows of a projector's
    X and for the cotensor vectors, S(c) transposed for the columns of Y."""
    for r, x in enumerate(vectors):
        for j, xj in enumerate(x):
            diff = delta.apply(xj) - TensorElem((delta.A, delta.H), combine(
                ({(u, v): cv for v, cv in C[i][j].terms.items()}, cu)
                for i, xi in enumerate(x) for u, cu in xi.terms.items()), normal=True)
            if not diff.is_zero:
                yield r, j, diff


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
