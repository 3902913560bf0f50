"""Associated-bundle idempotents: the retraction sigma built from a strong
connection and a unital functional, the projector E := X Y from its factors
X_{(mu,i),k} = r_mu(c_ik) and Y_{k,(nu,j)} = sigma(a_nu) against c_kj, and
the end-to-end verification of the pullback mechanism.  E and f(E) share one
certificate on checked shapes that reads only the factors: Y X = I_N gives
E^2 = E, and X colinear, Y anti-colinear and c S(c) = I give base invariance.
E, the matrix sigma(r_mu(c_ij) a_nu) once X is colinear, is formed on first
read; f(E) := f(X) f(Y) is exact, as f is a verified algebra map.  The block
identities of F = S f(E) S^-1 = [[e',0],[d,0]], S scalar, follow from F^2 = F
and are stated, not multiplied out.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import chain

from . import structure
from .comodule import (Coaction, Corepresentation, _colinear_defects, _flatten,
                       cotensor_basis, invariant_subspace)
from .connection import StrongConnection, check_equivariance, pullback_connection
from .linalg import (ONE, RowSpace, combine, identity, independent_subset,
                     invert_scalar_matrix, kron, nullspace)
from .ncalg import EMPTY, NCPoly, Presentation, PresentationError
from .report import Report
from .scalars import QRat, qrat
from .structure import Morphism


class ProjectorError(ArithmeticError):
    """A produced matrix failed idempotence or base invariance."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class Functional:
    """Unital linear functional on a presented algebra."""

    def __init__(self, alg: Presentation, fn, rule: str = "custom"):
        self.alg = alg
        self.fn = fn
        self.rule = rule
        if fn(alg.one()) != QRat(1):
            raise ValueError("functional must be unital")

    def __call__(self, p: NCPoly) -> QRat:
        return self.fn(p)

    def on_word(self, w) -> QRat:
        return self.fn(NCPoly(self.alg, {w: QRat(1)}, normal=True))

    @classmethod
    def constant_term(cls, alg: Presentation) -> "Functional":
        return cls(alg, lambda p: p.constant_term(), rule="constant-term")

    @classmethod
    def pullback(cls, phi: "Functional", f: Morphism) -> "Functional":
        """phi o f; the choice the commuting sigma-diagram requires."""
        if phi.alg is not f.target:
            raise PresentationError("functional does not live on the morphism target")
        return cls(f.source, lambda p: phi(f.apply(p)), rule=f"{phi.rule} o {f.name}")


def sigma(phi: Functional, ell: StrongConnection, delta: Coaction,
          a: NCPoly, h: NCPoly | None = None) -> NCPoly:
    """a_(0) tau(a_(1)), the left-B-linear retraction onto the coaction
    invariants; a_(0) tau(h a_(1)) for h in H, a factor of `projector`."""
    A = delta.A
    if a.alg is not A:
        raise PresentationError("sigma argument lives in the wrong algebra")
    taus = ((a_word, _tau(phi, ell, h_slice if h is None else h * h_slice))
            for a_word, h_slice in delta.apply(a).grouped(0).items())
    # each a_word tau is a product of words: the sum is normalized once
    return NCPoly(A, combine(({a_word + w: c for w, c in tau.terms.items()}, ONE)
                             for a_word, tau in taus))


def _tau(phi: Functional, ell: StrongConnection, h: NCPoly) -> NCPoly:
    """l(h)^<1> phi(l(h)^<2>), linear on the connection domain."""
    return ell.ell(h).contract_leg(1, phi.on_word)


def check_sigma_diagram(f: Morphism, ell: StrongConnection, phi: Functional,
                        ell2: StrongConnection, phi2: Functional) -> Report:
    """sigma' o f = f o sigma for an equivariant f: the two sides are
    f(a_(0)) tau'(a_(1)) and f(a_(0)) f(tau(a_(1))), so tau' = f o tau on a
    domain basis covers every a whose coaction lands in the domain."""
    basis = ell.domain.basis
    bad = [h for h in basis if _tau(phi2, ell2, h) != f.apply(_tau(phi, ell, h))]
    rep = Report()
    rep.add("sigma-diagram", not bad,
            f"tau' = f o tau on all {len(basis)} connection domain elements; "
            "sigma = a_(0) tau(a_(1)), so every covered degree"
            if not bad else "fails at " + ", ".join(str(h) for h in bad[:5]),
            tag="sigma' o f = f o sigma")
    return rep


def connection_expansion(ell: StrongConnection, c: Corepresentation):
    """Extract the finite expansion l(c_ij) = sum_mu a_mu (x) r_mu(c_ij).

    The a_mu are the echelonized first-leg slices over all matrix entries,
    listed by descending term order of their pivot words; r_mu is recomputed
    against that reduced basis.
    """
    A = ell.A
    H = ell.domain.H
    if c.H is not H:
        raise PresentationError("corepresentation lives over the wrong coalgebra")
    slices = []
    values = {}
    for i in range(c.n):
        for j in range(c.n):
            t = ell.ell(c[i, j])
            values[(i, j)] = t
            for _, first_slice in t.grouped(1).items():
                slices.append(dict(first_slice.terms))
    space = RowSpace(A.term_key)
    for s in slices:
        space.insert(s)
    order = sorted(range(space.dim), key=lambda k: A.term_key(space.pivots[k]),
                   reverse=True)
    a_mu = [NCPoly(A, space.rows[k], normal=True) for k in order]
    r_table: dict = {}
    for (i, j), t in values.items():
        rij = [{} for _ in a_mu]
        for second_word, first_slice in t.grouped(1).items():
            coords = space.coordinates(dict(first_slice.terms))
            if coords is None:
                raise ArithmeticError("first legs escaped their own span")
            for mu, coeff in enumerate(coords[k] for k in order):
                if not coeff.is_zero:
                    rij[mu][second_word] = coeff
        r_table[(i, j)] = [NCPoly(A, terms, normal=True) for terms in rij]
    return a_mu, r_table


# -- matrices of polynomials -------------------------------------------------

def mat_mul(X, Y):
    """X Y for polynomial matrices with a nonempty inner dimension; each
    entry sums its products in one dict."""
    return [[NCPoly(row[0].alg, combine(((x * Y[k][j]).terms, ONE)
                                        for k, x in enumerate(row)), normal=True)
             for j in range(len(Y[0]))] for row in X]


def conjugate(alg: Presentation, S, M, S_inv):
    """S M S_inv for scalar matrices S, S_inv and a polynomial matrix M: entry
    (i, j) is one combine of the M_kl over the nonzero S_ik S_inv_lj, with no
    polynomial product."""
    rows = [[(k, s) for k, s in enumerate(row) if not s.is_zero] for row in S]
    cols = [[(l, t) for l, t in enumerate(col) if not t.is_zero] for col in zip(*S_inv)]
    return [[NCPoly(alg, combine((M[k][l].terms, s * t) for k, s in row for l, t in col),
                    normal=True) for col in cols] for row in rows]


def _mismatches(X, Y):
    """(row, col, X entry, Y entry) wherever equal-shaped X and Y differ."""
    return ((r, c, a, b) for r, (rx, ry) in enumerate(zip(X, Y))
            for c, (a, b) in enumerate(zip(rx, ry)) if a != b)


def _shape(X) -> str:
    """'rows x cols' of a matrix; cols is 'ragged' when the rows differ in length."""
    widths = {len(row) for row in X} or {0}
    return f"{len(X)}x{widths.pop() if len(widths) == 1 else 'ragged'}"


def _certify_factorization(rep: Report, X, Y, N: int, fname: str = "") -> bool:
    """E^2 = E for E = X Y from Y X = I_N, as E^2 = X (Y X) Y; X must be M x N
    and Y N x M, N = dim c >= 1, M >= 1, before any product.  X Y is left to
    whoever reads E.  Returns whether the shapes hold."""
    e, x, y = (f"{fname}({s})" if fname else s for s in "EXY")
    M, tag = len(X), f"{e}^2 = {e}"
    shapes = [_shape(X), _shape(Y)]
    if min(M, N) < 1 or shapes != [f"{M}x{N}", f"{N}x{M}"]:
        rep.add("idempotent", False,
                f"{e} is {M}x{M}, {x} is {shapes[0]}, {y} is {shapes[1]}; need "
                f"MxM, MxN, NxM with M >= 1 and N = dim c = {N}", tag=tag)
        return False
    bad = next((f"{y} {x} != I_{N} at ({k}, {l}): entry {a.brief()}"
                for k, l, a, _ in _mismatches(mat_mul(Y, X), identity(N))), None)
    rep.add("idempotent", bad is None,
            bad or f"{e} = {x} {y} with {y} {x} = I_{N}; so {e}^2 = {x} ({y} {x}) {y} = {e}",
            tag=tag)
    return True


def _certify_colinearity(rep: Report, X, Y, c: Corepresentation, delta: Coaction,
                         shaped: bool, fname: str = ""):
    """delta((X Y)_xy) = (X Y)_xy (x) 1 from three computed facts: X colinear,
    delta(X_xk) = sum_l X_xl (x) c_lk; Y anti-colinear, delta(Y_ky) =
    sum_m Y_my (x) S(c_km); and sum_k c_lk S(c_km) = delta_lm 1 in H.  As delta
    is multiplicative, delta((X Y)_xy) = sum_lm X_xl Y_my (x) (c S(c))_lm.
    A FAIL names the first bad entry and the difference of the two sides."""
    e, x, y = (f"{fname}({s})" if fname else s for s in "EXY")
    d, n = ("delta'" if fname else "delta"), c.n
    S = [[structure.antipode(h) for h in row] for row in c.entries]
    detail = "no entries to check" if not any(X) else \
        f"not derived: {x} and {y} have the wrong shapes" if not shaped else next(chain(
            (f"c S(c) != I_{n} at ({l}, {m}): entry {a.brief()}"
             for l, m, a, _ in _mismatches(mat_mul(c.entries, S), identity(n))),
            (f"{x} not colinear at ({r}, {k}): difference {t.brief()}"
             for r, k, t in _colinear_defects(delta, X, c.entries)),
            (f"{y} not anti-colinear at ({k}, {r}): difference {t.brief()}"
             for r, k, t in _colinear_defects(delta, zip(*Y), list(zip(*S))))), None)
    rep.add("base-invariance", detail is None, detail or (
        f"{x} colinear, {d}({x}_xk) = sum_l {x}_xl (x) c_lk; {y} anti-colinear, "
        f"{d}({y}_ky) = sum_m {y}_my (x) S(c_km); sum_k c_lk S(c_km) = delta_lm 1; so "
        f"{d}({e}_xy) = {e}_xy (x) 1, as {d} is multiplicative (the relation checks "
        "of verify)"), tag=f"{d}({e}_ij) = {e}_ij (x) 1")


class Projector:
    """Idempotent matrix over the coaction invariants, indexed by (mu, i)."""

    def __init__(self, ell: StrongConnection, c: Corepresentation, phi: Functional,
                 delta: Coaction, a_mu, r_table, factors, report: Report):
        self.ell = ell
        self.corep = c
        self.phi = phi
        self.delta = delta
        self.a_mu = a_mu
        self.r_table = r_table
        self.X, self.Y = factors
        self.labels = [(mu, i) for mu in range(len(a_mu)) for i in range(c.n)]
        self.report = report

    @cached_property
    def entries(self):
        """E = X Y, formed on first read; no certificate reads it."""
        return mat_mul(self.X, self.Y)

    @property
    def size(self) -> int:
        return len(self.X)

    def trace(self) -> NCPoly:
        return NCPoly(self.delta.A, combine((self.entries[k][k].terms, ONE)
                                            for k in range(self.size)), normal=True)


def projector(ell: StrongConnection, c: Corepresentation, phi: Functional,
              delta: Coaction) -> Projector:
    """The idempotent E := X Y from X_{(mu,i),k} = r_mu(c_ik) and
    Y_{k,(nu,j)} = (a_nu)_(0) tau(c_kj (a_nu)_(1)), formed on first read.
    X colinear makes X Y the matrix sigma(r_mu(c_ij) a_nu), as delta is an
    algebra map.  Y X = I_{dim c} certifies E^2 = E, and X colinear, Y
    anti-colinear and c S(c) = I certify delta(E_ij) = E_ij (x) 1: N M sigma
    evaluations, M N^2 products of small factors and (M + N) N coaction
    images, not the M^2 N of forming E nor the M^3 of squaring it."""
    a_mu, r_table = connection_expansion(ell, c)
    n = c.n
    labels = [(mu, i) for mu in range(len(a_mu)) for i in range(n)]
    X = [[r_table[(i, k)][mu] for k in range(n)] for (mu, i) in labels]
    Y = [[sigma(phi, ell, delta, a_mu[nu], c[k, j]) for (nu, j) in labels]
         for k in range(n)]
    rep = Report()
    shaped = _certify_factorization(rep, X, Y, n)
    _certify_colinearity(rep, X, Y, c, delta, shaped)
    if not rep.ok:
        raise ProjectorError("projector failed certification "
                             "(invalid connection or corepresentation)", rep)
    return Projector(ell, c, phi, delta, a_mu, r_table, (X, Y), rep)


def pullback_projector(f: Morphism, E: Projector, delta2: Coaction):
    """(f(E), Report) with f(E) := f(X) f(Y) formed in the target, never
    reading E: it is f(E) entrywise, as f is a verified algebra map.  Certified
    by f(Y) f(X) = I, f(X) colinear and f(Y) anti-colinear under delta', as
    delta' o f = (f (x) id) o delta; f(E) is None on wrong shapes."""
    if not f.verified:
        raise PresentationError("pullback requires a verified morphism")
    if f.source is not E.delta.A:
        raise PresentationError("morphism source does not match the projector")
    X, Y = ([[f.apply(e) for e in row] for row in M] for M in (E.X, E.Y))
    rep = Report()
    shaped = _certify_factorization(rep, X, Y, E.corep.n, fname="f")
    _certify_colinearity(rep, X, Y, E.corep, delta2, shaped, fname="f")
    return (mat_mul(X, Y) if shaped else None), rep


class PullbackCertificate:
    """The block decomposition of f(E) after aligning the extracted basis with
    the image of f: the index split and the blocks e' and d."""

    def __init__(self, kept, complement, e_prime, d_block, report: Report):
        self.kept = kept
        self.complement = complement
        self.e_prime = e_prime
        self.d_block = d_block
        self.report = report


def align_blocks(f: Morphism, E: Projector, delta2: Coaction) -> PullbackCertificate:
    """Certify f(E) through `pullback_projector`, choose the image basis
    {f(a_mu) : mu in I}, and conjugate f(E) by the scalar S = P (U^-1 (x) I_n):
    U changes basis so that complement images vanish, P puts I first.  Then
    F = S f(E) S^-1 is idempotent with f(E), and once F = [[e',0],[d,0]] the
    blocks of F^2 = [[e'^2,0],[d e',0]] = F give e'^2 = e', d e' = d and
    F = T diag(e',0) T^-1 for T = [[1,0],[d,1]]."""
    target = f.target
    fE, rep = pullback_projector(f, E, delta2)
    if fE is None:
        raise ProjectorError("f(E) failed certification (factors of the wrong shapes)", rep)
    n, m = E.corep.n, len(E.a_mu)
    kept, expansions = independent_subset([dict(f.apply(a).terms) for a in E.a_mu],
                                          target.term_key)
    complement = [j for j in range(m) if j not in kept]
    U = identity(m)
    for j, coeffs in expansions.items():
        for idx, coeff in enumerate(coeffs):
            U[kept[idx]][j] = -coeff
    order = [mu * n + i for mu in kept + complement for i in range(n)]
    S = kron(invert_scalar_matrix(U), identity(n))
    S_inv = kron(U, identity(n))
    F = conjugate(target, [S[r] for r in order], fE,
                  [[row[c] for c in order] for row in S_inv])
    k, N = len(kept) * n, m * n
    bad = next(((r, c) for r in range(N) for c in range(k, N) if not F[r][c].is_zero), None)
    rep.add("block-form", bad is None, "columns over the complement vanish" if bad is None
            else f"nonzero complement column at {bad}: entry {F[bad[0]][bad[1]].brief()}",
            tag="f(E) = [[e',0],[d,0]]")
    failed = [c.name for c in rep.checks if c.name in ("idempotent", "block-form")
              and not c.passed]
    for name, identity_holds, tag in (
            ("block-idempotent", "e'^2 = e', the upper-left block of F^2 = F", "e'^2 = e'"),
            ("block-absorption", "d e' = d, the lower-left block of F^2 = F", "d e' = d"),
            ("conjugation", "F = T diag(e',0) T^-1 = [[e',0],[d e',0]], as d e' = d",
             "f(E) = [[1,0],[d,1]] diag(e',0) [[1,0],[d,1]]^-1")):
        rep.add(name, not failed,
                f"{identity_holds}; rests on idempotent and block-form "
                "(F = S f(E) S^-1, S scalar)" if not failed
                else f"not derived: {' and '.join(failed)} failed", tag=tag)
    return PullbackCertificate(kept, complement, [row[:k] for row in F[:k]],
                               [row[:k] for row in F[k:]], rep)


def verify_pullback_theorem(f: Morphism, ell: StrongConnection, c: Corepresentation,
                            phi2: Functional, delta: Coaction, delta2: Coaction):
    """End-to-end mechanism: sigma-diagram, f(E) idempotent and invariant by
    its factors, its block form with the identities derived from it, and
    agreement of the aligned block with the independently built pullback
    projector.  Returns (Report, artifacts dict)."""
    rep = Report()
    if not f.verified:
        f.verify()
    rep.add("morphism-verified", f.verified,
            "relations and star-compatibility hold" if f.verified else "morphism invalid",
            tag="f is an algebra *-map")
    eq = check_equivariance(f, delta, delta2)
    rep.extend(eq)
    if not rep.ok:
        return rep, {}
    phi = Functional.pullback(phi2, f)
    E = projector(ell, c, phi, delta)
    ell2 = pullback_connection(f, ell, delta2)
    E2 = projector(ell2, c, phi2, delta2)
    rep.extend(check_sigma_diagram(f, ell, phi, ell2, phi2))
    cert = align_blocks(f, E, delta2)
    rep.extend(cert.report)
    # clause (v): aligned block against the pullback projector, reconciling bases
    solver = RowSpace(f.target.term_key)
    for a2 in E2.a_mu:
        solver.insert(dict(a2.terms))
    W = [solver.coordinates(dict(f.apply(E.a_mu[mu]).terms)) for mu in cert.kept]
    recon_ok = False
    if None in W or len(E2.a_mu) != len(cert.kept):
        detail = "extracted bases span different spaces"
    else:
        Wt = [list(row) for row in zip(*W)]  # W has W[col][row]
        W_inv = invert_scalar_matrix(Wt)
        recon_ok = W_inv is not None and E2.entries == conjugate(
            f.target, kron(Wt, identity(c.n)), cert.e_prime, kron(W_inv, identity(c.n)))
        detail = "aligned block does not match the pullback projector" if not recon_ok \
            else "e' = E' entrywise" if cert.e_prime == E2.entries \
            else "e' = E' after the explicit change of basis W"
    rep.add("pullback-projector-match", recon_ok, detail,
            tag="e' = E' up to the recorded basis change")
    artifacts = {"E": E, "E_prime": E2, "certificate": cert}
    return rep, artifacts


def projector_similarity(E: Projector, Q) -> Report:
    """Projectors of conjugate corepresentations are conjugate by 1 (x) Q."""
    rep = Report()
    c = E.corep
    Qm = [[qrat(x) for x in row] for row in Q]
    Q_inv = invert_scalar_matrix(Qm)
    rep.add("intertwiner-invertible", Q_inv is not None,
            "Q invertible" if Q_inv is not None else "Q is singular",
            tag="Q in GL_n(Q(q))")
    if Q_inv is None:
        return rep
    c2 = Corepresentation(f"{c.name}-conj", c.H, conjugate(c.H, Qm, c.entries, Q_inv))
    E2 = projector(E.ell, c2, E.phi, E.delta)
    same_basis = len(E2.a_mu) == len(E.a_mu) and all(
        a == b for a, b in zip(E2.a_mu, E.a_mu))
    rep.add("same-extracted-basis", same_basis,
            "conjugate corepresentation reuses the extracted a_mu" if same_basis
            else "extracted bases differ", tag="span of first legs is corep-invariant")
    if not same_basis:
        return rep
    I_m = identity(len(E.a_mu))
    ok = E2.entries == conjugate(E.delta.A, kron(I_m, Qm), E.entries, kron(I_m, Q_inv))
    rep.add("projector-similarity", ok,
            "E_{c'} = (1 (x) Q) E (1 (x) Q)^-1" if ok else "conjugation fails",
            tag="E_{QcQ^-1} = (1 (x) Q) E (1 (x) Q)^-1")
    tr_ok = E2.trace() == E.trace()
    rep.add("trace-match", tr_ok,
            "traces agree as invariant elements" if tr_ok else "traces differ",
            tag="tr E_{c'} = tr E")
    return rep


def cotensor_compare(E: Projector, c: Corepresentation, delta: Coaction,
                     d: int, generator_degree: int | None = None) -> Report:
    """Certify that rows of B^N E land in, inject into, and span the truncated
    cotensor product via Phi(b)_j = sum_{mu,i} b_(mu,i) r_mu(c_ij)."""
    rep = Report()
    if c is not E.corep:
        raise PresentationError("cotensor comparison must use the projector's corepresentation")
    if delta is not E.delta:
        raise PresentationError("cotensor comparison must use the projector's coaction")
    A = delta.A
    # colinearity of the r-functions, the rows of X: the identity behind membership.
    # A Projector exists only once its base-invariance line passed on this X, c
    # and delta, and that line rests on X being colinear
    rep.add("r-colinearity", True, "X colinear, a premise of base-invariance",
            tag="delta o r_mu = (r_mu (x) id) o Delta")
    if generator_degree is None:
        generator_degree = d + 2
    b_basis = invariant_subspace(delta, generator_degree)
    vecs = [[b * e for e in row] for b in b_basis for row in E.entries]
    imgs = mat_mul(vecs, E.X)  # Phi(b E_row) = b E_row X
    member_ok = not any(_colinear_defects(delta, imgs, c.entries))
    rep.add("membership", member_ok,
            "Phi lands in the cotensor product" if member_ok else "image escapes",
            tag="delta(x_j) = sum_i x_i (x) c_ij")
    # injectivity on the generated row space
    img_cols, vec_cols = [_flatten(img) for img in imgs], [_flatten(vec) for vec in vecs]
    key_order = lambda key: (key[0], A.term_key(key[1]))
    inj_ok = not any(combine(zip(vec_cols, sol)) for sol in nullspace(img_cols, key_order))
    rep.add("injectivity", inj_ok,
            "Phi is injective on the generated row space" if inj_ok
            else "kernel vector found", tag="Phi injective on B^N E")
    # surjectivity onto the truncated cotensor
    cot = cotensor_basis(delta, c, d)
    image_space = RowSpace(key_order)
    for img in imgs:
        if all(p.degree() <= d for p in img):
            image_space.insert(_flatten(img))
    surj_ok = all(image_space.contains(_flatten(vec)) for vec in cot)
    rep.add("surjectivity", surj_ok,
            f"Phi hits the full truncated cotensor at degree {d} "
            f"(dimension {len(cot)})" if surj_ok else "cotensor vector missed",
            tag="Phi(B^N E) spans the degree-d cotensor")
    return rep


def trace_rank(E: Projector, q0=None):
    """Trace of the idempotent; the scalar when the base is the scalar span,
    the counit-character value at a rational specialization when q0 is given."""
    tr = E.trace()
    if q0 is not None:
        if E.delta.A.hopf is None:
            raise PresentationError("counit character needs Hopf data on the total algebra")
        val = structure.counit(tr)
        return val.evaluate(Fraction(q0))
    support = tr.support()
    if not support:
        return QRat(0)
    if support == [EMPTY]:
        return tr.constant_term()
    return tr
