import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from qgalois import presets, structure
from qgalois.comodule import Coaction, verify_coaction
from qgalois.join import (Character, JoinDegreeError, JoinElement, TPoly,
                          _solve_coaction_membership, chi_collapse,
                          chi_equivariance, counit_character, evaluate, join_coaction,
                          join_coaction_membership,
                          join_coassociativity, join_membership, join_path,
                          join_product, join_unit, sample_join_elements)
from qgalois.ncalg import EMPTY, NCPoly, PresentationError
from qgalois.presfile import parse_join_element
from qgalois.scalars import QRat
from qgalois.tensors import TensorElem
from sweeps import (certified, reference_coacted_membership,
                    reference_coaction_membership, reference_t_evaluate, reference_t_map,
                    reference_t_product, t_slices)


@pytest.fixture(scope="module")
def reg():
    return presets.regular_suq2_coaction()


@pytest.fixture(scope="module")
def path_alpha(reg, ):
    A = reg.A
    return join_path(reg, A.gen("a"), A.gen("a"))


def test_worked_example_membership(path_alpha):
    assert join_membership(path_alpha, 2).ok


def test_unit_membership(reg):
    assert join_membership(join_unit(reg), 1).ok


def test_constant_alpha_fails_at_zero(reg, suq2):
    from qgalois.join import JoinElement, TPoly
    bad = JoinElement(reg, TPoly((suq2, suq2),
                                 {0: TensorElem((suq2, suq2),
                                                {(("a",), EMPTY): QRat(1)})}))
    rep = join_membership(bad, 2)
    assert not rep.ok
    assert not rep.checks[0].passed  # boundary at t = 0


def test_product_unit(reg, path_alpha):
    assert join_product(path_alpha, join_unit(reg)) == path_alpha


def test_degrees_add(reg, path_alpha):
    prod = join_product(path_alpha, path_alpha)
    assert prod.degree() == path_alpha.degree() * 2


def test_degree_cap_enforced(reg, suq2):
    x = join_path(reg, suq2.gen("a"), suq2.gen("a"), cap=1)
    with pytest.raises(JoinDegreeError):
        join_product(x, x)


def test_random_suite_closure(reg):
    rng = random.Random(23)
    xs = sample_join_elements(reg, rng, count=6)
    for x in xs:
        assert join_membership(x, 3).ok
        assert join_membership(x.star(), 3).ok
    for x, y in zip(xs, xs[1:]):
        assert join_membership(join_product(x, y), 5).ok


def test_join_coaction_boundaries(reg, path_alpha):
    assert join_coaction_membership(path_alpha, 2).ok


def test_join_coaction_on_unit(reg):
    co = join_coaction(join_unit(reg))
    assert evaluate(co, 0) == TensorElem.unit((reg.A, reg.H, reg.H))


def test_join_coassociativity(reg, path_alpha):
    assert join_coassociativity(path_alpha)
    rng = random.Random(31)
    for x in sample_join_elements(reg, rng, count=4):
        assert join_coassociativity(x)


def test_chi_collapse_worked_example(reg, suq2, path_alpha):
    chi = counit_character(suq2)
    assert chi_collapse(path_alpha, chi) == suq2.gen("a")
    assert chi_collapse(join_unit(reg), chi) == suq2.one()


def test_chi_collapse_is_an_algebra_map(reg, suq2):
    chi = counit_character(suq2)
    rng = random.Random(17)
    xs = sample_join_elements(reg, rng, count=6)
    for x, y in zip(xs, xs[1:]):
        lhs = chi_collapse(join_product(x, y), chi)
        rhs = chi_collapse(x, chi) * chi_collapse(y, chi)
        assert lhs == rhs


def test_chi_equivariance(reg, suq2, path_alpha):
    chi = counit_character(suq2)
    assert chi_equivariance(path_alpha, chi)
    rng = random.Random(41)
    for x in sample_join_elements(reg, rng, count=5):
        assert chi_equivariance(x, chi)


def test_chi_equivariance_holds_off_the_join(reg, suq2, path_alpha):
    # chi acts on the A-leg and Delta on the H-leg, so the identity holds for
    # every element: here one that fails boundary-one, under two characters
    x = path_alpha + parse_join_element(reg, "t a (x) g")
    assert [c.name for c in join_membership(x, 2).checks if not c.passed] == ["boundary-one"]
    minus = Character(suq2, {"a": QRat(-1), "a*": QRat(-1), "g": QRat(0), "g*": QRat(0)})
    assert minus.verify().ok
    assert chi_equivariance(x, counit_character(suq2))
    assert chi_equivariance(x, minus)


def test_character_verification(suq2):
    chi = counit_character(suq2)
    assert chi.verify().ok
    bad = Character(suq2, {"a": QRat(1), "a*": QRat(1),
                           "g": QRat(1), "g*": QRat(1)})
    assert not bad.verify().ok


def test_character_relation_witnesses(suq2):
    # the all-ones character sends each relation to the value of lhs - rhs
    ones = Character(suq2, {"a": QRat(1), "a*": QRat(1), "g": QRat(1), "g*": QRat(1)})
    assert [(c.name, c.detail) for c in ones.verify().failures()] == [
        ("relation g a", "value (q-1)/q"),
        ("relation g* a", "value (q-1)/q"),
        ("relation g a*", "value -q+1"),
        ("relation g* a*", "value -q+1"),
        ("relation a a*", "value q^2"),
        ("relation a* a", "value 1"),
    ]


def test_parse_join_element(reg, suq2, path_alpha):
    text = "1 (x) a - t 1 (x) a + t a (x) a - q*t g* (x) g"
    parsed = parse_join_element(reg, text)
    assert parsed == path_alpha


def test_collapse_at_other_points(reg, suq2, path_alpha):
    chi = counit_character(suq2)
    # at t0 = 0 the A-leg is scalar, collapse gives the plain fiber copy
    val = chi_collapse(path_alpha, chi, t0=Fraction(0))
    assert val == suq2.gen("a")


# -- the counit projection against elimination over the degree-<=d basis ------

MEMBERSHIP_CASES = ("sample", "star", "product", "off-zero", "off-one", "long-word")


@pytest.fixture(scope="module")
def membership_coactions(reg, fibration):
    return {"regular": reg, "fibration": fibration}


def _membership_case(delta, kind, seed, d):
    """A join element of the given kind, built from seeded samples."""
    rng = random.Random(seed)
    A, H = delta.A, delta.H
    x, y = sample_join_elements(delta, rng, count=2)
    if kind == "star":
        return x.star()
    if kind == "product":
        return join_product(x, y)
    if kind == "off-zero":
        z = TensorElem((A, H), {(rng.choice(A.basis_up_to_degree(2)), EMPTY): QRat(1)})
        return x + JoinElement(delta, TPoly((A, H), {0: z, 1: -z}))
    if kind == "off-one":
        z = TensorElem((A, H), {(rng.choice(A.basis_up_to_degree(2)),
                                 rng.choice(H.basis_up_to_degree(2))): QRat(1)})
        return x + JoinElement(delta, TPoly((A, H), {1: z}))
    if kind == "long-word":
        long = [w for w in A.basis_up_to_degree(d + 1) if len(w) == d + 1]
        return join_path(delta, H.one(), NCPoly(A, {rng.choice(long): QRat(1)}, normal=True))
    return x


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(name=st.sampled_from(["regular", "fibration"]), kind=st.sampled_from(MEMBERSHIP_CASES),
       seed=st.integers(0, 10**6), d=st.integers(2, 4))
def test_counit_projection_matches_elimination(membership_coactions, name, kind, seed, d):
    delta = membership_coactions[name]
    x = _membership_case(delta, kind, seed, d)
    at1 = x.evaluate(1)
    want = reference_coaction_membership(delta, at1, d)
    assert _solve_coaction_membership(delta, at1, d) == want
    rep = join_membership(x, d)
    assert certified(rep, {"boundary-one"}) == {"boundary-one": want is not None}
    co_want = reference_coacted_membership(delta, evaluate(join_coaction(x), 1), d)
    co_rep = join_coaction_membership(x, d)
    assert certified(co_rep, {"coacted-boundary-one"}) == \
        {"coacted-boundary-one": co_want is not None}
    if kind == "long-word":
        assert want is None and co_want is None


def test_membership_rejects_a_coaction_that_is_not_counital(suq2):
    # (id (x) eps)(s (x) s) = eps(s) s: a and a* come back, but eps(g) = 0
    table = {g.name: TensorElem((suq2, suq2), {((g.name,), (g.name,)): QRat(1)})
             for g in suq2.generators}
    bad = Coaction("diagonal", suq2, suq2, table)
    x = join_unit(bad)
    # the failure list is formed once per coaction, and every call reads it
    for _ in range(2):
        with pytest.raises(PresentationError, match="not counital on generator 'g'"):
            join_membership(x, 2)
        with pytest.raises(PresentationError, match="not counital on generator 'g'"):
            join_coaction_membership(x, 2)
    assert bad.counit_failures == (("g",), ("g*",))
    assert bad.counit_failures is bad.counit_failures
    line = next(c for c in verify_coaction(bad).checks if c.name == "counitality")
    assert not line.passed and line.detail == "failing generators: g, g*"


# -- the join as one tensor against its t-degree slices ------------------------

def _sampled_slices(delta, rng):
    """t-degree -> tensor over A (x) H for t^0..t^2, with words of degree <= 2."""
    A, H = delta.A, delta.H
    a_words, h_words = A.basis_up_to_degree(2), H.basis_up_to_degree(2)
    return {k: TensorElem((A, H), {(rng.choice(a_words), rng.choice(h_words)):
                                   QRat(rng.randint(-2, 2)) for _ in range(rng.randint(0, 3))})
            for k in range(rng.randint(1, 3))}


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(name=st.sampled_from(["regular", "fibration"]), sampled=st.booleans(),
       seed=st.integers(0, 10**6))
def test_join_arithmetic_matches_slicewise_reference(membership_coactions, name, sampled, seed):
    delta = membership_coactions[name]
    A, H = delta.A, delta.H
    rng = random.Random(seed)
    if sampled:
        x, y = sample_join_elements(delta, rng, count=2)
    else:
        x, y = (JoinElement(delta, TPoly((A, H), _sampled_slices(delta, rng)))
                for _ in range(2))
    xs, ys = t_slices(x.tensor), t_slices(y.tensor)
    assert t_slices(join_product(x, y).tensor) == reference_t_product(xs, ys)
    assert t_slices(x.star().tensor) == reference_t_map(xs, structure._star_tensor)
    coproduct = H.hopf.delta.apply_word
    co = reference_t_map(xs, lambda v: v.expand_leg(1, coproduct, legs_hint=(H, H)))
    assert t_slices(join_coaction(x)) == co
    for t0 in (QRat(0), QRat(1), QRat(1) / QRat(2)):
        assert x.evaluate(t0) == reference_t_evaluate(xs, t0, TensorElem.zero((A, H)))
        assert evaluate(join_coaction(x), t0) == \
            reference_t_evaluate(co, t0, TensorElem.zero((A, H, H)))
