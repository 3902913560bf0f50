import copy
import random
from fractions import Fraction

import pytest

from qgalois import presets, structure
from qgalois.cherngalois import (Functional, ProjectorError, _tau, align_blocks,
                                 check_sigma_diagram, conjugate, connection_expansion,
                                 cotensor_compare, mat_mul, projector,
                                 projector_similarity, pullback_projector,
                                 sigma, trace_rank, verify_pullback_theorem)
from qgalois.comodule import (Corepresentation, contragredient, invariant_subspace,
                              regular_coaction)
from qgalois.connection import (CoalgebraSpan, CoverageError, StrongConnection,
                                pullback_connection)
from qgalois.linalg import identity, invert_scalar_matrix, kron
from qgalois.presfile import parse_workspace
from qgalois.scalars import QRat, q_power
from qgalois.structure import Morphism
from qgalois.tensors import TensorElem

from sweeps import (certified, sweep_blocks, sweep_idempotent, sweep_invariance,
                    sweep_sigma_diagram, sweep_sigma_entries)

# the circle acting diagonally on the torus C[v, v*, y, y*]; `glue` sends both
# circles to one, so f(y*) = f(v*) and the pullback needs a change of basis
TORUS_SOURCE = presets.U1_SOURCE + """
algebra t2
generators v y y* v*
star v v*
star y y*
order v < y < y* < v*
reduction_order v < v* < y < y*
rel v v* = 1
rel v* v = 1
rel y y* = 1
rel y* y = 1
rel y v = v y
rel y* v = v y*
rel y v* = v* y
rel y* v* = v* y*

coaction diagonal : t2 -> t2 (x) u1
delta v = v (x) u
delta y = y (x) u
delta y* = y* (x) u*
delta v* = v* (x) u*

morphism glue : t2 -> u1
f v = u
f y = u
f y* = u*
f v* = u*

corep twice dim 2 over u1
row u | 0
row 0 | u

connection mean on diagonal
L 1 = 1 (x) 1
L u = 1/2 v* (x) v + 1/2 y* (x) y
"""

BLOCK_LINES = ("block-idempotent", "block-absorption", "conjugation")


@pytest.fixture(scope="module")
def torus():
    """(f, connection, corepresentation, coaction, target coaction)."""
    ws = parse_workspace(TORUS_SOURCE, filename="<torus>")
    f = ws.morphisms["glue"]
    assert f.verify().ok
    return (f, ws.connections["mean"], ws.coreps["twice"], ws.coactions["diagonal"],
            regular_coaction(ws.algebras["u1"]))


@pytest.fixture(scope="module")
def podles():
    delta = presets.fibration_coaction()
    ell = presets.u1_power_connection(1)
    phi = Functional.constant_term(delta.A)
    E = projector(ell, presets.u1_corep(1), phi, delta)
    return delta, ell, phi, E


def test_functional_is_unital(suq2):
    phi = Functional.constant_term(suq2)
    assert phi(suq2.one()) == QRat(1)
    with pytest.raises(ValueError):
        Functional(suq2, lambda p: QRat(0), rule="zero")


def test_sigma_fixes_invariants(podles, suq2):
    delta, ell, phi, _ = podles
    b = suq2.word("g", "g*")
    assert sigma(phi, ell, delta, b) == b
    assert sigma(phi, ell, delta, suq2.one()) == suq2.one()
    assert sigma(phi, ell, delta, suq2.word("a", "g*")) == suq2.word("a", "g*")


def test_sigma_left_linear_over_invariants(podles, suq2):
    delta, _, phi, _ = podles
    ell = presets.fibration_connection(1)
    rng = random.Random(5)
    inv = invariant_subspace(delta, 2)
    words = [w for w in suq2.basis_up_to_degree(1)]
    for b in inv:
        for _ in range(4):
            a = suq2.poly({rng.choice(words): QRat(rng.randint(-2, 2))})
            assert sigma(phi, ell, delta, b * a) == b * sigma(phi, ell, delta, a)


def test_sigma_coverage_violation_reports_element(podles, suq2):
    delta, ell, phi, _ = podles
    with pytest.raises(CoverageError) as exc:
        sigma(phi, ell, delta, suq2.word("a", "a"))
    assert exc.value.element is not None


def test_expansion_order(podles):
    _, ell, _, E = podles
    a_mu, r = connection_expansion(ell, E.corep)
    assert [str(a) for a in a_mu] == ["a*", "g*"]
    assert [str(p) for p in r[(0, 0)]] == ["a", "g"]


def test_podles_projector_entries(podles, suq2):
    _, _, _, E = podles
    q2 = q_power(2)
    assert E.entries[0][0] == suq2.one() - suq2.word("g", "g*") * q2
    assert E.entries[0][1] == suq2.word("a", "g*")
    assert E.entries[1][0] == suq2.word("a*", "g") * q_power(1)
    assert E.entries[1][1] == suq2.word("g", "g*")
    assert E.report.ok


def test_podles_projector_is_idempotent_and_invariant(podles):
    delta, _, _, E = podles
    assert mat_mul(E.entries, E.entries) == E.entries
    for row in E.entries:
        for e in row:
            assert delta.apply(e) == TensorElem.from_poly(e).outer(
                TensorElem.unit((delta.H,)))


def test_podles_trace(podles, suq2):
    _, _, _, E = podles
    assert E.trace() == suq2.one() + suq2.word("g", "g*") * (QRat(1) - q_power(2))
    assert trace_rank(E, 1) == Fraction(1)
    assert trace_rank(E, Fraction(1, 2)) == Fraction(1)


def test_podles_projector_at_q_one(podles):
    _, _, _, E = podles
    specialized = [[{w: c.evaluate(1) for w, c in e.terms.items()}
                    for e in row] for row in E.entries]
    gg = ("g", "g*")
    assert specialized[0][0] == {(): Fraction(1), gg: Fraction(-1)}
    assert specialized[0][1] == {("a", "g*"): Fraction(1)}
    assert specialized[1][0] == {("a*", "g"): Fraction(1)}
    assert specialized[1][1] == {gg: Fraction(1)}


def test_trivial_base_projector(regular_suq2, fundamental, suq2):
    ell = presets.trivial_connection_suq2()
    phi = Functional.constant_term(suq2)
    E = projector(ell, fundamental, phi, regular_suq2)
    assert E.size == 8
    assert trace_rank(E) == QRat(2)
    E1 = projector(ell, presets.trivial_corep(suq2), phi, regular_suq2)
    assert E1.size == 1
    assert E1.entries[0][0] == suq2.one()


def test_line_two_projector(fibration, suq2):
    ell = presets.u1_power_connection(2)
    phi = Functional.constant_term(suq2)
    E = projector(ell, presets.u1_corep(2), phi, fibration)
    assert E.size == 3
    assert E.report.ok


def test_invalid_connection_is_a_hard_failure(fibration, suq2, u1):
    span = CoalgebraSpan(u1, [u1.one(), u1.gen("u")])
    pairs = [(u1.one(), TensorElem.unit((suq2, suq2))),
             (u1.gen("u"), TensorElem((suq2, suq2), {(("a*",), ("a",)): QRat(1)}))]
    broken = StrongConnection.from_table(span, fibration, pairs)
    phi = Functional.constant_term(suq2)
    with pytest.raises(ProjectorError) as exc:
        projector(broken, presets.u1_corep(1), phi, fibration)
    # E = X Y still holds; the missing g* (x) g leg shows in Y X
    assert exc.value.report.failures()[0].line() == \
        "CHECK idempotent FAIL Y X != I_1 at (0, 0): entry 1 - g g*"


def test_empty_expansion_fails_at_idempotent_with_shapes(fibration, suq2, u1):
    # with l(u) = 0 the expansion has no first legs: E and X have no rows and
    # Y is 1x0, so no product is formed and idempotent names the shapes
    span = CoalgebraSpan(u1, [u1.one(), u1.gen("u")])
    pairs = [(u1.one(), TensorElem.unit((suq2, suq2))),
             (u1.gen("u"), TensorElem((suq2, suq2), {}))]
    empty = StrongConnection.from_table(span, fibration, pairs)
    with pytest.raises(ProjectorError) as exc:
        projector(empty, presets.u1_corep(1), Functional.constant_term(suq2), fibration)
    assert exc.value.report.lines() == [
        "CHECK idempotent FAIL E is 0x0, X is 0x0, Y is 1x0; "
        "need MxM, MxN, NxM with M >= 1 and N = dim c = 1",
        "CHECK base-invariance FAIL no entries to check"]


def test_mat_mul_matches_products_summed_by_hand(regular_suq2, fundamental, suq2):
    E = projector(presets.trivial_connection_suq2(), fundamental,
                  Functional.constant_term(suq2), regular_suq2)
    for X, Y in ((E.X, E.Y), (E.Y, E.X)):
        expected = [[sum((row[k] * Y[k][j] for k in range(len(Y))), suq2.zero())
                     for j in range(len(Y[0]))] for row in X]
        assert mat_mul(X, Y) == expected


def test_conjugate_matches_triple_product(regular_suq2, fundamental, suq2, intertwiner_q):
    # the intertwiner has Q^-1 = -Q/q, so conjugating by it or by its inverse
    # agree; the shear P = [[1, q], [0, 1]] tells the two sides apart
    E = projector(presets.trivial_connection_suq2(), fundamental,
                  Functional.constant_term(suq2), regular_suq2)
    M = E.entries
    shear = [[QRat(1), q_power(1)], [QRat(0), QRat(1)]]
    for P in (intertwiner_q, shear):
        P_inv = invert_scalar_matrix(P)
        assert P_inv != P
        for S, S_inv in ((kron(identity(4), P), kron(identity(4), P_inv)),
                         (kron(P, identity(4)), kron(P_inv, identity(4)))):
            expected = [[sum((M[k][l] * (S[i][k] * S_inv[l][j])
                              for k in range(8) for l in range(8)), suq2.zero())
                         for j in range(8)] for i in range(8)]
            assert conjugate(suq2, S, M, S_inv) == expected
    S, S_inv = kron(identity(4), shear), kron(identity(4), invert_scalar_matrix(shear))
    assert conjugate(suq2, S_inv, M, S) != conjugate(suq2, S, M, S_inv)


def _bundle(kind):
    """(coaction, projector) of podles-line `kind` for an integer winding,
    else of the trivial base with the corepresentation named `kind`."""
    if isinstance(kind, int):
        delta = presets.fibration_coaction()
        ell, corep = presets.u1_power_connection(kind), presets.u1_corep(kind)
    else:
        delta = presets.regular_suq2_coaction()
        ell = presets.trivial_connection_suq2()
        corep = {"u": presets.fundamental_corep,
                 "u-dual": lambda: contragredient(presets.fundamental_corep()),
                 "trivial": lambda: presets.trivial_corep(delta.A)}[kind]()
    return delta, projector(ell, corep, Functional.constant_term(delta.A), delta)


@pytest.mark.parametrize("kind", [1, -1, 2, -2, 3, -3, 4, -4, "u", "u-dual", "trivial"])
def test_factorization_certificate_agrees_with_square(collapse, regular_u1, kind):
    delta, E = _bundle(kind)
    N = E.corep.n
    assert certified(E.report, {"idempotent"}) == {"idempotent": True}
    assert E.report.checks[0].detail == \
        f"E = X Y with Y X = I_{N}; so E^2 = X (Y X) Y = E"
    assert sweep_idempotent(E.entries)
    if isinstance(kind, int):
        f, delta2 = collapse, regular_u1
    else:
        f, delta2 = Morphism.identity(delta.A), delta
        f.verify()
    entries, rep = pullback_projector(f, E, delta2)
    assert rep.ok and sweep_idempotent(entries)
    assert rep.checks[0].detail == (f"f(E) = f(X) f(Y) with f(Y) f(X) = I_{N}; "
                                    "so f(E)^2 = f(X) (f(Y) f(X)) f(Y) = f(E)")


def _planted(E, **fields):
    P = copy.copy(E)
    P.__dict__.update(fields)
    return P


def _identity_pullback(E):
    ident = Morphism.identity(E.delta.A)
    ident.verify()
    return pullback_projector(ident, E, E.delta)


def test_entry_off_the_factorization_fails_with_witness(podles, suq2):
    # g^k g*^k is invariant, so only the factorization can reject the plant
    _, _, _, E = podles
    shift = sum((suq2.word(*["g"] * k, *["g*"] * k) for k in range(1, 7)), suq2.zero())
    entries = [list(row) for row in E.entries]
    entries[0][1] = entries[0][1] + shift
    assert not sweep_idempotent(entries)
    fE, rep = _identity_pullback(_planted(E, entries=entries))
    failed = {c.name: c.detail for c in rep.failures()}
    assert failed == {"idempotent": "f(E) != f(X) f(Y) at (0, 1): difference "
                                    "g g* + g g g* g* + g g g g* g* g* + "
                                    "g g g g g* g* g* g* + ... (2 more terms)"}


def test_factors_with_y_x_not_the_identity_fail_with_witness(podles):
    # 2E = (2X) Y is exact, but Y (2X) = 2 I, and 2E is not idempotent
    _, _, _, E = podles
    doubled = _planted(E, entries=[[e * 2 for e in row] for row in E.entries],
                       X=[[x * 2 for x in row] for row in E.X])
    assert not sweep_idempotent(doubled.entries)
    _, rep = _identity_pullback(doubled)
    assert [(c.name, c.detail) for c in rep.failures()] == \
        [("idempotent", "f(Y) f(X) != I_1 at (0, 0): entry 2")]


def test_non_invariant_entry_fails_with_witness(podles, suq2):
    _, _, _, E = podles
    entries = [list(row) for row in E.entries]
    entries[0][1] = entries[0][1] + suq2.gen("a")
    _, rep = _identity_pullback(_planted(E, entries=entries))
    assert rep.checks[0].line() == \
        "CHECK idempotent FAIL f(E) != f(X) f(Y) at (0, 1): difference a"


def _pulled_back(n):
    """(coaction, projector) on u1 of the pulled-back connection that
    `pullback --preset podles-line n` builds."""
    delta2 = presets.regular_u1_coaction()
    ell2 = pullback_connection(presets.collapse_morphism(),
                               presets.fibration_connection(abs(n)), delta2)
    return delta2, projector(ell2, presets.u1_corep(n),
                             Functional.constant_term(delta2.A), delta2)


@pytest.mark.parametrize("kind", [1, -1, 2, -2, 3, -3, 4, -4, 8, -8,
                                  "u", "u-dual", "trivial", "pulled 2", "pulled -2"])
def test_factors_agree_with_sigma_entries_and_invariance_sweep(kind):
    # E := X Y is the sigma-built matrix, and every entry is invariant
    if isinstance(kind, str) and kind.startswith("pulled"):
        delta, E = _pulled_back(int(kind.split()[1]))
    else:
        delta, E = _bundle(kind)
    assert E.entries == sweep_sigma_entries(E)
    assert sweep_invariance(E.entries, delta)
    check = next(c for c in E.report.checks if c.name == "base-invariance")
    assert check.passed and check.detail.startswith("X colinear, delta(X_xk) = ")


def test_non_colinear_x_entry_fails_base_invariance_with_witness(suq2):
    # X = [[q^2 g*], [a*]] for winding -1: delta(a) = a (x) u, not a (x) u*
    _, E = _bundle(-1)
    X = [list(row) for row in E.X]
    X[0][0] = X[0][0] + suq2.gen("a")
    _, rep = _identity_pullback(_planted(E, X=X))
    assert certified(rep, {"base-invariance"}) == {"base-invariance": False}
    assert rep.checks[1].detail == \
        "f(X) not colinear at (0, 0): difference a (x) u - a (x) u*"


def test_non_anti_colinear_y_entry_fails_base_invariance_with_witness(podles, suq2):
    _, _, _, E = podles
    Y = [list(row) for row in E.Y]
    Y[0][1] = Y[0][1] + suq2.gen("a")
    _, rep = _identity_pullback(_planted(E, Y=Y))
    assert rep.checks[1].line() == "CHECK base-invariance FAIL f(Y) not anti-colinear " \
        "at (0, 1): difference a (x) u - a (x) u*"


def test_misshapen_factors_fail_both_lines_without_a_product(podles):
    _, _, _, E = podles
    _, rep = _identity_pullback(_planted(E, X=[row * 2 for row in E.X]))
    assert rep.lines() == [
        "CHECK idempotent FAIL f(E) is 2x2, f(X) is 2x2, f(Y) is 1x2; "
        "need MxM, MxN, NxM with M >= 1 and N = dim c = 1",
        "CHECK base-invariance FAIL not derived: f(X) and f(Y) have the wrong shapes"]


def test_corep_without_antipode_identity_fails_base_invariance(fibration, suq2, u1):
    # c = [[2 u]] is no corepresentation: c S(c) = 4, which base invariance
    # checks before the colinearity of X and Y
    doubled = Corepresentation("doubled", u1, [[u1.gen("u") * 2]])
    with pytest.raises(ProjectorError) as exc:
        projector(presets.u1_power_connection(1), doubled,
                  Functional.constant_term(suq2), fibration)
    assert exc.value.report.lines() == [
        "CHECK idempotent FAIL Y X != I_1 at (0, 0): entry 4",
        "CHECK base-invariance FAIL c S(c) != I_1 at (0, 0): entry 4"]


def test_doubled_factor_fails_idempotent_and_every_derived_line(podles, suq2):
    _, _, _, E = podles
    doubled = _planted(E, entries=[[e * 2 for e in row] for row in E.entries],
                       X=[[x * 2 for x in row] for row in E.X])
    ident = Morphism.identity(suq2)
    ident.verify()
    cert = align_blocks(ident, doubled, E.delta)
    assert [(c.name, c.detail) for c in cert.report.failures()] == \
        [("idempotent", "f(Y) f(X) != I_1 at (0, 0): entry 2")] + \
        [(name, "not derived: idempotent failed") for name in BLOCK_LINES]


def test_complement_column_fails_block_form_with_witness(podles, collapse, regular_u1):
    # a_mu = [a*, a*] makes the complement index expand over the kept one with
    # coefficient 1, so F = U^-1 f(E) U keeps -1 in the complement column
    _, _, _, E = podles
    cert = align_blocks(collapse, _planted(E, a_mu=[E.a_mu[0]] * 2), regular_u1)
    assert [(c.name, c.detail) for c in cert.report.failures()] == \
        [("block-form", "nonzero complement column at (0, 1): entry -1")] + \
        [(name, "not derived: block-form failed") for name in BLOCK_LINES]


def _sign_flip(suq2):
    f = Morphism(suq2, suq2, {"a": suq2.gen("a"), "a*": suq2.gen("a*"),
                              "g": -suq2.gen("g"), "g*": -suq2.gen("g*")})
    assert f.verify().ok
    return f


@pytest.mark.parametrize("case", [1, -1, 2, -2, 3, -3, 4, -4, "identity", "sign", "torus"])
def test_derived_block_lines_agree_with_sweep(case, collapse, regular_u1, suq2, torus):
    if isinstance(case, int):
        _, E = _bundle(case)
        cert = align_blocks(collapse, E, regular_u1)
    elif case == "torus":
        f, ell, c, delta, delta2 = torus
        E = projector(ell, c, Functional.constant_term(delta.A), delta)
        cert = align_blocks(f, E, delta2)
    else:
        delta, E = _bundle("u" if case == "identity" else 2)
        f = _sign_flip(suq2) if case == "sign" else Morphism.identity(suq2)
        f.verify()
        cert = align_blocks(f, E, delta)
    assert cert.report.ok
    assert certified(cert.report, BLOCK_LINES) == \
        sweep_blocks(cert.e_prime, cert.d_block) == dict.fromkeys(BLOCK_LINES, True)


def test_pullback_through_a_change_of_basis_on_two_dimensional_corep(torus):
    # f(y*) = f(v*): U = [[1,-1],[0,1]], and with dim c = 2 the conjugator
    # U^-1 (x) I_2 differs from I_2 (x) U^-1
    f, ell, c, delta, delta2 = torus
    u1 = f.target
    rep, art = verify_pullback_theorem(f, ell, c, Functional.constant_term(u1),
                                       delta, delta2)
    assert rep.ok
    assert [ch.name for ch in rep.checks][3:] == [
        "idempotent", "base-invariance", "block-form", *BLOCK_LINES,
        "pullback-projector-match"]
    cert = art["certificate"]
    assert (cert.kept, cert.complement) == ([0], [1])
    half = u1.one() * (QRat(1) / QRat(2))
    assert cert.e_prime == art["E_prime"].entries == \
        [[u1.one(), u1.zero()], [u1.zero(), u1.one()]]
    assert cert.d_block == [[half, u1.zero()], [u1.zero(), half]]


@pytest.mark.parametrize("n", [8, -8])
def test_projector_at_winding_eight(fibration, suq2, n):
    E = projector(presets.u1_power_connection(n), presets.u1_corep(n),
                  Functional.constant_term(suq2), fibration)
    assert E.report.ok
    assert E.size == 9
    assert E.trace().constant_term() == QRat(1)


def test_pullback_projector_collapse(podles, collapse, regular_u1, u1):
    _, _, _, E = podles
    entries, rep = pullback_projector(collapse, E, regular_u1)
    assert rep.ok
    assert entries[0][0] == u1.one()
    assert entries[0][1].is_zero and entries[1][0].is_zero and entries[1][1].is_zero


def test_pullback_projector_identity(podles, suq2):
    delta, _, _, E = podles
    ident = Morphism.identity(suq2)
    ident.verify()
    entries, rep = pullback_projector(ident, E, delta)
    assert rep.ok
    assert entries == E.entries


def test_align_blocks_collapse(podles, collapse, regular_u1, u1):
    delta, _, _, E = podles
    cert = align_blocks(collapse, E, regular_u1)
    assert cert.report.ok
    assert cert.kept == [0]
    assert cert.complement == [1]
    assert cert.e_prime == [[u1.one()]]
    assert cert.d_block == [[u1.zero()]]


def test_align_blocks_identity(podles, suq2):
    delta, _, _, E = podles
    ident = Morphism.identity(suq2)
    ident.verify()
    cert = align_blocks(ident, E, delta)
    assert cert.report.ok
    assert cert.kept == [0, 1]
    assert cert.complement == []
    assert cert.e_prime == E.entries
    assert cert.d_block == []


def test_pullback_theorem_end_to_end(collapse, fibration, regular_u1, u1):
    ell = presets.fibration_connection(3)
    phi2 = Functional.constant_term(u1)
    rep, art = verify_pullback_theorem(collapse, ell, presets.u1_corep(1), phi2,
                                       fibration, regular_u1)
    assert rep.ok
    names = [c.name for c in rep.checks]
    for clause in ("sigma-diagram", "block-form", "block-absorption",
                   "conjugation", "pullback-projector-match"):
        assert clause in names
    assert art["E_prime"].entries == [[u1.one()]]
    assert art["certificate"].e_prime == [[u1.one()]]


def test_pullback_theorem_identity(fibration, suq2):
    ident = Morphism.identity(suq2)
    ident.verify()
    ell = presets.fibration_connection(2)
    phi = Functional.constant_term(suq2)
    rep, art = verify_pullback_theorem(ident, ell, presets.u1_corep(1), phi,
                                       fibration, fibration)
    assert rep.ok


def test_pullback_theorem_trivial_corep(collapse, fibration, regular_u1, suq2, u1):
    ell = presets.fibration_connection(2)
    phi2 = Functional.constant_term(u1)
    rep, art = verify_pullback_theorem(collapse, ell, presets.trivial_corep(u1),
                                       phi2, fibration, regular_u1)
    assert rep.ok
    assert art["E"].entries == [[suq2.one()]]
    assert art["E_prime"].entries == [[u1.one()]]


def test_pullback_theorem_along_sign_automorphism(fibration, suq2):
    # g -> -g is an equivariant automorphism; the pullback projector then uses
    # the extracted basis {a*, g*} while the aligned block sees {a*, -g*},
    # exercising the explicit change-of-basis reconciliation
    f = Morphism(suq2, suq2, {"a": suq2.gen("a"), "a*": suq2.gen("a*"),
                              "g": -suq2.gen("g"), "g*": -suq2.gen("g*")})
    assert f.verify().ok
    ell = presets.fibration_connection(2)
    phi = Functional.constant_term(suq2)
    rep, art = verify_pullback_theorem(f, ell, presets.u1_corep(1), phi,
                                       fibration, fibration)
    assert rep.ok
    match = next(c for c in rep.checks if c.name == "pullback-projector-match")
    assert "change of basis" in match.detail
    cert = art["certificate"]
    assert cert.kept == [0, 1]
    # the aligned block is f applied entrywise, which flips the off-diagonal
    E = art["E"]
    assert cert.e_prime[0][1] == -E.entries[0][1]
    assert art["E_prime"].entries == E.entries


def test_pullback_theorem_rejects_non_equivariant(fibration, regular_u1, suq2, u1):
    wrong = Morphism(suq2, u1, {"a": u1.gen("u*"), "g": u1.zero(),
                                "a*": u1.gen("u"), "g*": u1.zero()})
    wrong.verify()
    ell = presets.fibration_connection(2)
    phi2 = Functional.constant_term(u1)
    rep, art = verify_pullback_theorem(wrong, ell, presets.u1_corep(1), phi2,
                                       fibration, regular_u1)
    assert not rep.ok
    assert art == {}
    assert any(c.name == "equivariance" for c in rep.failures())


def _phi_prime(u1, rule):
    # the preset constant-term phi' makes tau vanish on every domain element
    # but 1, so tau' = f o tau compares 0 with 0 there; the counit does not
    if rule == "counit":
        return Functional(u1, structure.counit)
    return Functional.constant_term(u1)


def _sigma_inputs(collapse, regular_u1, u1, k, rule):
    ell = presets.fibration_connection(k)
    phi2 = _phi_prime(u1, rule)
    return (ell, Functional.pullback(phi2, collapse),
            pullback_connection(collapse, ell, regular_u1), phi2)


@pytest.mark.parametrize("rule", ["constant-term", "counit"])
@pytest.mark.parametrize("k", [1, 2])
def test_sigma_diagram_certificate_agrees_with_sweep(collapse, regular_u1, u1, k, rule):
    ell, phi, ell2, phi2 = _sigma_inputs(collapse, regular_u1, u1, k, rule)
    rep = check_sigma_diagram(collapse, ell, phi, ell2, phi2)
    assert rep.ok
    assert rep.checks[0].detail.startswith(
        f"tau' = f o tau on all {2 * k + 1} connection domain elements")
    # degree-k words coact into windings |j| <= k, all inside the domain
    assert sweep_sigma_diagram(collapse, ell, phi, ell2, phi2, k) == []


def test_counit_functional_makes_the_sigma_diagram_non_vacuous(
        collapse, fibration, regular_u1, suq2, u1):
    ell, phi, _, phi2 = _sigma_inputs(collapse, regular_u1, u1, 1, "counit")
    assert _tau(phi, ell, u1.gen("u")) == suq2.gen("a*")
    constant = Functional.pullback(Functional.constant_term(u1), collapse)
    assert _tau(constant, ell, u1.gen("u")).is_zero
    rep, art = verify_pullback_theorem(collapse, ell, presets.u1_corep(1), phi2,
                                       fibration, regular_u1)
    assert rep.ok
    assert art["certificate"].e_prime == [[u1.one()]]


@pytest.mark.parametrize("rule", ["constant-term", "counit"])
def test_planted_functional_fails_certificate_and_sweep(collapse, regular_u1, suq2,
                                                        u1, rule):
    # phi' o f everywhere except phi(a) = 2; a is the first leg of l(u) that
    # phi meets, so tau(u) and only tau(u) is wrong
    ell, phi, ell2, phi2 = _sigma_inputs(collapse, regular_u1, u1, 1, rule)
    shift = QRat(2) - phi.on_word(("a",))
    planted = Functional(suq2, lambda p: phi(p) + shift * p.terms.get(("a",), QRat(0)))
    rep = check_sigma_diagram(collapse, ell, planted, ell2, phi2)
    assert not rep.ok
    assert rep.checks[0].detail == "fails at u"
    # delta(a) = a (x) u: the sweep fails at the one word that coacts through u
    assert sweep_sigma_diagram(collapse, ell, planted, ell2, phi2, 1) == [("a",)]


def test_projector_similarity(regular_suq2, fundamental, suq2, intertwiner_q):
    ell = presets.trivial_connection_suq2()
    phi = Functional.constant_term(suq2)
    E = projector(ell, fundamental, phi, regular_suq2)
    rep = projector_similarity(E, intertwiner_q)
    assert rep.ok
    ident = [[QRat(1), QRat(0)], [QRat(0), QRat(1)]]
    assert projector_similarity(E, ident).ok
    # the intertwiner has Q^-1 = -Q/q, so only a shear fixes the direction
    assert projector_similarity(E, [[QRat(1), q_power(1)], [QRat(0), QRat(1)]]).ok


def test_cotensor_compare_podles(podles):
    delta, _, _, E = podles
    rep = cotensor_compare(E, E.corep, delta, 1)
    assert rep.ok


def test_cotensor_compare_trivial_corep(regular_suq2, suq2):
    ell = presets.trivial_connection_suq2()
    phi = Functional.constant_term(suq2)
    E = projector(ell, presets.trivial_corep(suq2), phi, regular_suq2)
    rep = cotensor_compare(E, E.corep, regular_suq2, 1)
    assert rep.ok


def test_trace_rank_of_scalar_base(regular_suq2, fundamental, suq2):
    ell = presets.trivial_connection_suq2()
    phi = Functional.constant_term(suq2)
    E = projector(ell, fundamental, phi, regular_suq2)
    assert trace_rank(E) == QRat(2)
    assert trace_rank(E, Fraction(3, 4)) == Fraction(2)
