"""Brute-force oracles for the fast paths of the library.

Each Hopf and coaction axiom tested on every basis word up to a degree, one
word at a time: `structure.verify_hopf_axioms` and `comodule.verify_coaction`
certify the axioms on generators only; these sweeps check the same identities
directly in low degrees, so the two can be compared.  Each returns
{check name: passed}.

`reference_normal_form` rewrites a whole word at its leftmost redex until none
is left, a strategy independent of the letter-by-letter fold of
`Presentation.normal_form_word`.

`reference_extend` folds a word's letters from the unit every time, with no
memo: the oracle for `ncalg.extend_word`, which starts from the longest
cached prefix or suffix.

`reference_linear` sums a linear extension term by term, with a new partial
sum for each term: the oracle for the extensions summed in one dict through
`linalg.combine`.

`reference_coaction_membership` and `reference_coacted_membership` solve the
join boundary memberships by elimination over every basis word up to the
degree bound: the oracles for the counit projection of `qgalois.join`.

`sweep_sigma_diagram` compares sigma' o f with f o sigma on every basis
word up to a degree: the oracle for `cherngalois.check_sigma_diagram`, which
certifies the diagram on the connection domain.

`sweep_idempotent` squares a matrix entry by entry, M^3 products, in its own
loops: the oracle for the factorization certificate E = X Y, Y X = I of
`cherngalois.projector` and `cherngalois.pullback_projector`.

`sweep_sigma_entries` builds each entry sigma(r_mu(c_ij) a_nu) of a projector
with its own product, coaction and tau, and `sweep_invariance` applies the
coaction to every entry: the oracles for E := X Y in `cherngalois.projector`
and for its `base-invariance` line, derived from the colinearity of X, the
anti-colinearity of Y and c S(c) = I.

`sweep_blocks` multiplies out the block identities of F = [[e',0],[d,0]] in
its own loops: the oracle for the `block-idempotent`, `block-absorption` and
`conjugation` lines of `cherngalois.align_blocks`, which derive them from
f(E)^2 = f(E) and the block form.
"""

from qgalois import structure
from qgalois.cherngalois import sigma
from qgalois.linalg import nullspace
from qgalois.ncalg import NCPoly
from qgalois.scalars import QRat
from qgalois.tensors import TensorElem


def sweep_hopf_axioms(alg, d: int) -> dict:
    ok = dict.fromkeys(("coassociativity", "counit-laws", "antipode-law",
                        "antipode-inverse", "star-coalgebra"), True)

    def split(u):
        return structure.coproduct_word(alg, u)

    def eps(u):
        return structure.counit_word(alg, u)

    def s(u):
        return structure.antipode(NCPoly(alg, {u: QRat(1)}, normal=True))

    for w in alg.basis_up_to_degree(d):
        p = NCPoly(alg, {w: QRat(1)}, normal=True)
        d2 = structure.coproduct(p)
        if d2.expand_leg(0, split, legs_hint=(alg, alg)) != \
                d2.expand_leg(1, split, legs_hint=(alg, alg)):
            ok["coassociativity"] = False
        if d2.contract_leg(0, eps) != p or d2.contract_leg(1, eps) != p:
            ok["counit-laws"] = False
        target = alg.one() * structure.counit(p)
        if d2.map_leg(0, s).multiply_legs() != target or \
                d2.map_leg(1, s).multiply_legs() != target:
            ok["antipode-law"] = False
        if structure.antipode_inv(structure.antipode(p)) != p or \
                structure.antipode(structure.antipode_inv(p)) != p:
            ok["antipode-inverse"] = False
        starred = TensorElem(d2.legs, {tuple(alg.star_word(u) for u in k): c
                                       for k, c in d2.terms.items()})
        if structure.coproduct(p.star()) != starred:
            ok["star-coalgebra"] = False
    return ok


def sweep_coaction(delta, d: int) -> dict:
    A, H = delta.A, delta.H
    ok = {"coassociativity": True, "counitality": True}
    for w in A.basis_up_to_degree(d):
        dv = delta.apply_word(w)
        lhs = dv.expand_leg(0, delta.apply_word, legs_hint=(A, H))
        rhs = dv.expand_leg(1, lambda u: structure.coproduct_word(H, u), legs_hint=(H, H))
        if lhs != rhs:
            ok["coassociativity"] = False
        if dv.contract_leg(1, lambda u: structure.counit_word(H, u)) != \
                NCPoly(A, {w: QRat(1)}, normal=True):
            ok["counitality"] = False
    return ok


def sweep_sigma_diagram(f, ell, phi, ell2, phi2, d: int) -> list:
    """The basis words w of degree <= d with sigma'(f(w)) != f(sigma(w)),
    sigma built from (ell, phi) and sigma' from (ell2, phi2)."""
    delta, delta2 = ell.coaction, ell2.coaction
    bad = []
    for w in delta.A.basis_up_to_degree(d):
        a = NCPoly(delta.A, {w: QRat(1)}, normal=True)
        if sigma(phi2, ell2, delta2, f.apply(a)) != f.apply(sigma(phi, ell, delta, a)):
            bad.append(w)
    return bad


def sweep_idempotent(entries) -> bool:
    """E^2 = E for a square polynomial matrix, by the brute-force square."""
    m = len(entries)
    for i in range(m):
        for j in range(m):
            acc = entries[i][0] * entries[0][j]
            for k in range(1, m):
                acc = acc + entries[i][k] * entries[k][j]
            if acc != entries[i][j]:
                return False
    return True


def sweep_sigma_entries(E) -> list:
    """The matrix sigma(r_mu(c_ij) a_nu) over the labels (mu, i), (nu, j) of the
    projector E, M^2 products, coactions and taus."""
    return [[sigma(E.phi, E.ell, E.delta, E.r_table[(i, j)][mu] * E.a_mu[nu])
             for (nu, j) in E.labels] for (mu, i) in E.labels]


def sweep_invariance(E, delta) -> bool:
    """delta(e) = e (x) 1 for every entry e of the polynomial matrix E."""
    unit = TensorElem.unit((delta.H,))
    return all(delta.apply(e) == TensorElem.from_poly(e).outer(unit) for row in E for e in row)


def _product(X, Y):
    """X Y for polynomial matrices, one new partial sum per product."""
    out = []
    for row in X:
        out.append([])
        for j in range(len(Y[0])):
            acc = row[0] * Y[0][j]
            for k in range(1, len(Y)):
                acc = acc + row[k] * Y[k][j]
            out[-1].append(acc)
    return out


def sweep_blocks(e_prime, d) -> dict:
    """e'^2 = e', d e' = d and T diag(e',0) T^-1 = F for F = [[e',0],[d,0]]
    and T = [[1,0],[d,1]], by brute-force products; named as the checks."""
    k = len(e_prime)
    N = k + len(d)
    alg = e_prime[0][0].alg
    one, zero = alg.one(), alg.zero()

    def blocks(top_left, bottom_left, bottom_right_one):
        return [[top_left[r][c] if r < k and c < k
                 else bottom_left[r - k][c] if c < k
                 else one if bottom_right_one and r == c else zero
                 for c in range(N)] for r in range(N)]

    unit = [[one if r == c else zero for c in range(k)] for r in range(k)]
    F = blocks(e_prime, d, False)
    T = blocks(unit, d, True)
    T_inv = blocks(unit, [[-x for x in row] for row in d], True)
    diag = blocks(e_prime, [[zero] * k for _ in d], False)
    return {"block-idempotent": _product(e_prime, e_prime) == e_prime,
            "block-absorption": _product(d, e_prime) == d,
            "conjugation": _product(_product(T, diag), T_inv) == F}


def certified(rep, names) -> dict:
    """The outcome of each named check in a certificate report."""
    return {c.name: c.passed for c in rep.checks if c.name in names}


def reference_normal_form(alg, w, cache: dict) -> dict:
    """Normal form of the word w by leftmost-redex rewriting, one recursive
    call per rewrite step; `cache` maps every word met to its normal form."""
    hit = cache.get(w)
    if hit is not None:
        return hit
    redex = next(((i, r) for i in range(len(w)) for r in alg.rules
                  if w[i:i + len(r.lhs)] == r.lhs), None)
    if redex is None:
        res = {w: QRat(1)}
    else:
        i, r = redex
        res = {}
        for rw, c in r.rhs.items():
            for w2, c2 in reference_normal_form(alg, w[:i] + rw + w[i + len(r.lhs):],
                                                cache).items():
                v = res.get(w2, QRat(0)) + c * c2
                if v.is_zero:
                    res.pop(w2, None)
                else:
                    res[w2] = v
    cache[w] = res
    return res


def reference_extend(w, unit, step, reverse: bool = False):
    """f(w) for f extended from its letters, multiplicatively, or
    anti-multiplicatively with reverse: step(...step(unit, x1)..., xn) over
    the letters of w, last letter first with reverse."""
    out = unit
    for g in (reversed(w) if reverse else w):
        out = step(out, g)
    return out


def reference_linear(zero, terms: dict, word_map):
    """sum c * word_map(w) over the items (w, c) of terms, as zero + f(w1) c1
    + f(w2) c2 + ...: one new partial sum, and one scaled temporary, per term."""
    out = zero
    for w, c in terms.items():
        out = out + word_map(w) * c
    return out


def _solve_by_elimination(columns, variables, target, key_order):
    """Coefficients c with sum_i c_i columns[i] = target, or None; one of
    many solutions when the columns are dependent."""
    for sol in nullspace(columns + [dict(target.terms)], key_order):
        if not sol[-1].is_zero:
            scale = QRat(-1) / sol[-1]
            return {v: c * scale for v, c in zip(variables, sol[:-1]) if not c.is_zero}
    return {} if target.is_zero else None


def reference_coaction_membership(delta, target, d: int):
    """The a in A_{<=d} with delta(a) = target, or None, found by eliminating
    over delta(w) for every basis word w of degree <= d."""
    A, H = delta.A, delta.H
    words = A.basis_up_to_degree(d)
    columns = [dict(delta.apply_word(w).terms) for w in words]
    sol = _solve_by_elimination(columns, words, target,
                                lambda k: (A.term_key(k[0]), H.term_key(k[1])))
    return None if sol is None else NCPoly(A, sol, normal=True)


def reference_coacted_membership(delta, target, d: int):
    """A y in A_{<=d} (x) H with (delta (x) id)(y) = target, or None; the
    H-words of y range over those of target's last leg."""
    A, H = delta.A, delta.H
    h_words = sorted({k[2] for k in target.terms}, key=H.term_key)
    variables = [(w, hw) for w in A.basis_up_to_degree(d) for hw in h_words]
    columns = [{(aw, hw1, hw): c for (aw, hw1), c in delta.apply_word(w).terms.items()}
               for w, hw in variables]
    sol = _solve_by_elimination(
        columns, variables, target,
        lambda k: (A.term_key(k[0]), H.term_key(k[1]), H.term_key(k[2])))
    return None if sol is None else TensorElem((A, H), sol, normal=True)
