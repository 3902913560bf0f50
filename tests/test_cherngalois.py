import copy
import random
from fractions import Fraction

import pytest

from qgalois import presets, structure
from qgalois.cherngalois import (Functional, ProjectorError, _tau, align_blocks,
                                 check_sigma_diagram, connection_expansion,
                                 cotensor_compare, mat_mul, projector,
                                 projector_similarity, pullback_projector,
                                 sigma, trace_rank, verify_pullback_theorem)
from qgalois.comodule import contragredient, invariant_subspace
from qgalois.connection import (CoalgebraSpan, CoverageError, StrongConnection,
                                pullback_connection)
from qgalois.scalars import QRat, q_power
from qgalois.structure import Morphism
from qgalois.tensors import TensorElem

from sweeps import certified, sweep_idempotent, sweep_sigma_diagram


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
