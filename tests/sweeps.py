"""Brute-force oracles for the fast paths of the library.

Each Hopf and coaction axiom tested on every basis word up to a degree, one
word at a time: `structure.verify_hopf_axioms` and `comodule.verify_coaction`
certify the axioms on generators only; these sweeps check the same identities
directly in low degrees, so the two can be compared.  Each returns
{check name: passed}.

`reference_normal_form` rewrites a whole word at its leftmost redex until none
is left, a strategy independent of the letter-by-letter fold of
`Presentation.normal_form_word`.

`reference_seam_fold` folds the right side of every redex back onto the
prefix in front of it, one letter and one nested seam step at a time, with its
own memo: the oracle for `Presentation._append`, which passes a whole run of
q-commuting letters in one step.

`reference_rule_ending` scans every rule for a left side ending at a given
position, and `reference_basis` lists every word up to a length with no left
side as a factor and sorts it by term order: the oracles for the left-side
table of `Presentation._rule_ending` and for `basis_up_to_degree`, which
extends each layer by the letters allowed after a word's tail with no sort.

`reference_extend` folds a word's letters from the unit every time, with no
memo: the oracle for `ncalg.extend_word`, which starts from the longest
cached prefix or suffix.

`reference_linear` sums a linear extension term by term, with a new partial
sum for each term: the oracle for the extensions summed in one dict through
`linalg.combine`.

`reference_coaction_membership` and `reference_coacted_membership` solve the
join boundary memberships by elimination over every basis word up to the
degree bound: the oracles for the counit projection of `qgalois.join`.

`t_slices` reads a tensor over C[t] (x) ... back as a polynomial in t,
t-degree -> tensor over the other legs; `reference_t_product`,
`reference_t_map` and `reference_t_evaluate` compute with polynomials in t
whose coefficients are tensors, one `tensor_mul`, leg map or scaled sum per
slice: the oracles for `join_product`, `JoinElement.star`, `join_coaction`
and evaluation, which act on the whole tensor at once.

`reference_invariant_subspace` solves delta(b) = b (x) 1 by its own
elimination over every basis word up to the degree and reduces the solutions
in a second one: the oracle for `comodule.invariant_subspace`, which reads the
invariants as the cotensor product with the trivial corepresentation.

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

`reference_connection_expansion` solves for each first-leg slice's
coordinates over the echelonized slices, and `reference_table_values` spans a
connection table's elements in one elimination and expresses each basis
element over the lines in another: the oracles for
`cherngalois.connection_expansion`, which reads r_mu at the pivots, and for
`StrongConnection.from_table`, which reads its domain and values off one
elimination.

`reference_parser` is the argparse command line that `qgalois.cli` used
before its option table, with pullback's `--corep-name` since renamed
`--corep` and no `--corep` default: the oracle for `cli.parse_args`.

`reference_parse_expression` splits a token list into signed terms, the terms
into tensor legs at `(x)` and each leg into coefficient and word by token
rules, then hands the coefficient to the scalar grammar: the oracle for
`presfile.parse_expression`, which reads the whole expression in one
recursive-descent grammar.
"""

import argparse
import itertools

from qgalois import structure
from qgalois.cherngalois import sigma
from qgalois.connection import TableLineError
from qgalois.linalg import RowSpace, add_scaled, combine, nullspace
from qgalois.ncalg import NCPoly
from qgalois.presfile import PresentationFileError, _ExprParser, _tokenize
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


def reference_rule_ending(alg, w, end: int):
    """The first rule of alg whose left side is the factor of w ending just
    before `end`, or None."""
    return next((r for r in alg.rules
                 if len(r.lhs) <= end and w[end - len(r.lhs):end] == r.lhs), None)


def reference_basis(alg, d: int) -> list:
    """Every word over the generators of length <= d with no rule left side
    as a factor, sorted by term order."""
    names = [g.name for g in alg.generators]
    words = [w for n in range(d + 1) for w in itertools.product(names, repeat=n)
             if not any(w[i:i + len(r.lhs)] == r.lhs
                        for r in alg.rules for i in range(len(w)))]
    return sorted(words, key=alg.term_key)


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


def reference_seam_fold(alg, w) -> dict:
    """Normal form of the word w as a fold of its letters from the unit, each
    letter appended to a normal word by rewriting the one redex it can close
    and folding the rule's right side back letter by letter."""
    seam: dict = {}

    def append(v, x):
        vx = v + (x,)
        hit = seam.get(vx)
        if hit is not None:
            return hit
        r = next((r for r in alg.rules
                  if len(r.lhs) <= len(vx) and vx[len(vx) - len(r.lhs):] == r.lhs), None)
        if r is None:
            res = {vx: QRat(1)}
        else:
            res = {}
            for rw, c in r.rhs.items():
                add_scaled(res, fold(vx[:len(vx) - len(r.lhs)], rw), c)
        seam[vx] = res
        return res

    def fold(v, letters):
        terms = {v: QRat(1)}
        for y in letters:
            nxt: dict = {}
            for u, cu in terms.items():
                add_scaled(nxt, append(u, y), cu)
            terms = nxt
        return terms

    return fold((), tuple(w))


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


def t_slices(x) -> dict:
    """A tensor over C[t] (x) L1 (x) ... as t-degree -> tensor over L1 (x) ..."""
    return {len(w): rest for w, rest in x.grouped(0).items()}


def reference_t_product(xs: dict, ys: dict) -> dict:
    """The product of two t-polynomials: slice k is the sum of
    xs[k1] ys[k2] over k1 + k2 = k, one legwise product per pair."""
    out: dict = {}
    for k1, a in xs.items():
        for k2, b in ys.items():
            p = a.tensor_mul(b)
            out[k1 + k2] = out[k1 + k2] + p if k1 + k2 in out else p
    return {k: v for k, v in out.items() if not v.is_zero}


def reference_t_map(xs: dict, fn) -> dict:
    """fn applied to every slice, zero images dropped."""
    images = {k: fn(v) for k, v in xs.items()}
    return {k: v for k, v in images.items() if not v.is_zero}


def reference_t_evaluate(xs: dict, t0, zero):
    """sum_k t0^k xs[k], one power and one partial sum per slice."""
    out = zero
    for k, v in xs.items():
        out = out + v * t0 ** k
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


def reference_invariant_subspace(delta, d: int) -> list:
    A, H = delta.A, delta.H
    words = A.basis_up_to_degree(d)
    columns = [dict((delta.apply_word(w) - TensorElem((A, H), {(w, ()): QRat(1)})).terms)
               for w in words]
    space = RowSpace(A.term_key)
    for sol in nullspace(columns, lambda k: (A.term_key(k[0]), H.term_key(k[1]))):
        space.insert({w: c for w, c in zip(words, sol) if not c.is_zero})
    return [NCPoly(A, row, normal=True) for row in space.sorted_rows()]


def reference_connection_expansion(ell, c):
    """(a_mu, r_table) of l(c_ij) = sum_mu a_mu (x) r_mu(c_ij) by solving: the
    first-leg slices are echelonized, and each slice's coordinates over the
    rows, permuted into descending pivot order, give the r_mu."""
    A = ell.A
    values = {(i, j): ell.ell(c[i, j]) for i in range(c.n) for j in range(c.n)}
    space = RowSpace(A.term_key)
    for t in values.values():
        for first_slice in t.grouped(1).values():
            space.insert(dict(first_slice.terms))
    order = sorted(range(space.dim), key=lambda k: A.term_key(space.pivots[k]),
                   reverse=True)
    r_table = {}
    for ij, t in values.items():
        r_ij = [{} for _ in order]
        for second_word, first_slice in t.grouped(1).items():
            coords = space.coordinates(dict(first_slice.terms))
            for mu, k in enumerate(order):
                if not coords[k].is_zero:
                    r_ij[mu][second_word] = coords[k]
        r_table[ij] = [NCPoly(A, terms, normal=True) for terms in r_ij]
    return [NCPoly(A, space.rows[k], normal=True) for k in order], r_table


def reference_table_values(coaction, pairs):
    """(domain basis, l on it) of a connection table by two eliminations: one
    spans the elements, the other records the lines, and each basis element
    is expressed over the lines.  A dependent line that disagrees with the
    lines before it raises TableLineError at its index."""
    A, H = coaction.A, coaction.H
    domain, lines = RowSpace(H.term_key), RowSpace(H.term_key)

    def value_of(expr):
        return TensorElem((A, A), combine((pairs[k][1].terms, c) for k, c in expr.items()),
                          normal=True)

    for i, (elem, val) in enumerate(pairs):
        v = dict(elem.terms)
        domain.insert(v)
        if not lines.insert(v) and value_of(lines.express(v)) != val:
            raise TableLineError(f"table value at {elem} contradicts the earlier lines", i)
    basis = [NCPoly(H, row, normal=True) for row in domain.rows]
    return basis, [value_of(lines.express(dict(b.terms))) for b in basis]


def reference_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="qgalois",
                                 description="symbolic workbench for quantum "
                                             "principal bundles over Q(q)")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--preset", nargs="+", metavar="NAME",
                       help="suq2 | u1 | podles-line N | trivial-base")
        p.add_argument("--input", metavar="PATH", help="presentation file")
        p.add_argument("--output", metavar="PATH", help="write a JSON artifact")

    pv = sub.add_parser("verify", help="run verification suites")
    common(pv)
    pv.add_argument("--max-degree", type=int, default=None, metavar="N",
                    help="accepted and not read; every certificate holds in all degrees")
    pp = sub.add_parser("projector", help="compute an associated-bundle idempotent")
    common(pp)
    pp.add_argument("--corep", default=None, help="NAME | u | u-dual | trivial")
    pb = sub.add_parser("pullback", help="verify the pullback mechanism end to end")
    common(pb)
    pb.add_argument("--morphism", default=None)
    pb.add_argument("--connection", default=None)
    pb.add_argument("--corep", default=None)
    for p in (pp, pb):
        p.add_argument("--q", default="symbolic", metavar="SPEC",
                       help="symbolic or a rational value like 1 or 3/7")
    pr = sub.add_parser("report", help="render a stored artifact")
    pr.add_argument("--input", metavar="PATH")
    return ap


def _split_terms(toks):
    """Split a token list into signed top-level terms."""
    terms = []
    current = []
    sign = 1
    depth = 0
    prev = None
    opening = True  # at the start of a term or of one of its tensor legs
    for tok in toks:
        kind = tok[0]
        if kind == "(":
            depth += 1
        elif kind == ")":
            depth -= 1
        if depth == 0 and kind in "+-" and not opening and \
                prev not in ("+", "-", "*", "/", "^", "("):
            terms.append((sign, current))
            current = []
            sign = 1 if kind == "+" else -1
            prev = kind
            opening = True
            continue
        if opening and kind in "+-":
            # a unary sign opening a term or a leg folds into the term's sign
            if kind == "-":
                sign = -sign
            prev = kind
            continue
        current.append(tok)
        prev = kind
        opening = kind == "tensor" and depth == 0
    terms.append((sign, current))
    return [t for t in terms if t[1]]


def reference_parse_expression(text: str, legs, filename: str = "<string>", line: int = 0):
    """{tuple-of-words: QRat}, split by token rules; an empty leg reads as the
    unit word and a trailing sign is dropped."""
    toks = _tokenize(text, line, filename)
    terms = _split_terms(toks)
    if not terms:
        raise PresentationFileError("empty expression", filename, line)
    acc: dict = {}
    for sign, term in terms:
        factors = []
        current = []
        depth = 0
        for tok in term:
            if tok[0] == "(":
                depth += 1
            elif tok[0] == ")":
                depth -= 1
            if tok[0] == "tensor" and depth == 0:
                factors.append(current)
                current = []
            else:
                current.append(tok)
        factors.append(current)
        if len(factors) != len(legs):
            raise PresentationFileError(
                f"term has {len(factors)} tensor legs, expected {len(legs)}",
                filename, line)
        coeff = QRat(sign)
        words = []
        for leg, factor in zip(legs, factors):
            split = len(factor)
            for idx, tok in enumerate(factor):
                if tok[0] == "ident" and tok[1] != "q":
                    split = idx
                    break
            else:
                # a trailing standalone `1` after a coefficient is the unit word
                if len(factor) >= 2 and factor[-1] == ("int", 1) and \
                        factor[-2][0] not in ("+", "-", "*", "/", "^", "("):
                    split = len(factor) - 1
            scalar_toks = factor[:split]
            word_toks = factor[split:]
            if scalar_toks:
                p = _ExprParser(scalar_toks, filename, line)
                coeff = coeff * p.scalar_expr()
                if p.pos != len(scalar_toks):
                    raise PresentationFileError("malformed coefficient", filename, line)
            word = []
            for tok in word_toks:
                if tok == ("int", 1) and len(word_toks) == 1:
                    break  # the unit word
                if tok[0] != "ident":
                    raise PresentationFileError(
                        f"unexpected {tok[1]!r} inside a word", filename, line)
                if tok[1] == "q":
                    raise PresentationFileError(
                        "'q' cannot appear inside a word", filename, line)
                if tok[1] not in leg._by_name:
                    raise PresentationFileError(
                        f"unknown generator {tok[1]!r} in {leg.name}", filename, line)
                word.append(tok[1])
            words.append(tuple(word))
        key = tuple(words)
        acc[key] = acc.get(key, QRat(0)) + coeff
    return {k: v for k, v in acc.items() if not v.is_zero}
