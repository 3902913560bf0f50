import pytest

from qgalois import presets
from qgalois.connection import (CoalgebraSpan, CoverageError, SpanClosureError,
                                StrongConnection, check_equivariance,
                                check_strong_connection, pullback_connection)
from qgalois.ncalg import PresentationError
from qgalois.scalars import QRat, q_power
from qgalois.structure import Morphism
from qgalois.tensors import TensorElem


def test_span_requires_unit(u1):
    with pytest.raises(PresentationError):
        CoalgebraSpan(u1, [u1.gen("u")])


def test_span_closure(suq2):
    span = presets.u_span()
    assert span.closure_report().ok
    # a span that is not closed under the coproduct
    open_span = CoalgebraSpan(suq2, [suq2.one(), suq2.gen("g")])
    with pytest.raises(SpanClosureError):
        open_span.delta_components(suq2.gen("g"), 0)


def test_trivial_connection_values(suq2):
    ell = presets.trivial_connection_suq2()
    assert ell.ell(suq2.one()) == TensorElem.unit((suq2, suq2))
    assert ell.ell(suq2.gen("a")) == TensorElem(
        (suq2, suq2), {(("a*",), ("a",)): QRat(1), (("g*",), ("g",)): QRat(1)})
    # l(g) = S(g) (x) a + S(a*) (x) g = -q g (x) a + a (x) g
    assert ell.ell(suq2.gen("g")) == TensorElem(
        (suq2, suq2), {(("g",), ("a",)): -q_power(1), (("a",), ("g",)): QRat(1)})


def test_trivial_connection_certified(regular_suq2):
    ell = presets.trivial_connection_suq2()
    assert check_strong_connection(ell, regular_suq2).ok


@pytest.mark.parametrize("n", [1, -1, 2, -2])
def test_power_connections_certified(n, fibration):
    ell = presets.u1_power_connection(n)
    assert check_strong_connection(ell, fibration).ok


def test_power_connection_values(fibration, suq2, u1):
    ell = presets.u1_power_connection(1)
    lu = ell.ell(u1.gen("u"))
    assert lu == TensorElem((suq2, suq2), {(("a*",), ("a",)): QRat(1),
                                           (("g*",), ("g",)): QRat(1)})
    assert lu.multiply_legs() == suq2.one()
    ell_inv = presets.u1_power_connection(-1)
    lui = ell_inv.ell(u1.gen("u*"))
    assert lui == TensorElem((suq2, suq2), {(("a",), ("a*",)): QRat(1),
                                            (("g",), ("g*",)): q_power(2)})
    assert lui.multiply_legs() == suq2.one()


def test_power_connection_rejects_zero():
    with pytest.raises(ValueError):
        presets.u1_power_connection(0)


def test_broken_connection_fails(fibration, suq2, u1):
    span = CoalgebraSpan(u1, [u1.one(), u1.gen("u")])
    pairs = [(u1.one(), TensorElem.unit((suq2, suq2))),
             (u1.gen("u"), TensorElem((suq2, suq2), {(("a*",), ("a",)): QRat(1)}))]
    ell = StrongConnection.from_table(span, fibration, pairs, name="broken")
    rep = check_strong_connection(ell, fibration)
    assert not rep.ok
    assert any(c.name.startswith("mult-counit") for c in rep.failures())


def test_left_colinearity_fails_independently(fibration, suq2, u1):
    # m o l = eps and right colinearity hold, but the first legs carry the
    # wrong weight, so only the left clause (which needs S^-1) fails
    span = CoalgebraSpan(u1, [u1.one(), u1.gen("u")])
    value = TensorElem((suq2, suq2), {
        (("a*",), ("a",)): QRat(1), (("g*",), ("g",)): QRat(1),
        (("g",), ("a",)): QRat(1), (("a",), ("g",)): -q_power(-1)})
    ell = StrongConnection.from_table(
        span, fibration, [(u1.one(), TensorElem.unit((suq2, suq2))),
                          (u1.gen("u"), value)], name="lopsided")
    rep = check_strong_connection(ell, fibration)
    assert not rep.ok
    by_name = {c.name: c.passed for c in rep.checks}
    assert by_name["mult-counit u"]
    assert by_name["right-colinearity u"]
    assert not by_name["left-colinearity u"]
    detail = {c.name: c.detail for c in rep.checks}
    assert detail["right-colinearity u"] == ""
    assert detail["left-colinearity u"] == (
        "difference 1/q u (x) a (x) g - u (x) g (x) a - 1/q u* (x) a (x) g "
        "+ u* (x) g (x) a")


def test_wrong_winding_fails_colinearity(fibration, suq2, u1):
    # l(u^-1) declared as the value of u passes m o l = eps but is not colinear
    span = CoalgebraSpan(u1, [u1.one(), u1.gen("u")])
    value = TensorElem((suq2, suq2), {(("a",), ("a*",)): QRat(1),
                                      (("g",), ("g*",)): q_power(2)})
    ell = StrongConnection.from_table(
        span, fibration, [(u1.one(), TensorElem.unit((suq2, suq2))),
                          (u1.gen("u"), value)], name="wrong-winding")
    rep = check_strong_connection(ell, fibration)
    by_name = {c.name: c.passed for c in rep.checks}
    assert by_name["mult-counit u"]
    assert not by_name["right-colinearity u"]
    # the witness is the difference of the two sides, cut after four terms
    detail = {c.name: c.detail for c in rep.checks}
    assert detail["right-colinearity u"] == (
        "difference -a (x) a* (x) u + a (x) a* (x) u* - q^2 g (x) g* (x) u "
        "+ q^2 g (x) g* (x) u*")


def test_coverage_error_carries_element(fibration, u1, suq2):
    ell = presets.u1_power_connection(1)
    with pytest.raises(CoverageError):
        ell.ell(u1.word("u", "u"))
    try:
        ell.ell(u1.word("u", "u"))
    except CoverageError as exc:
        assert exc.element is not None


def test_equivariance(collapse, fibration, regular_u1, suq2, u1):
    assert check_equivariance(collapse, fibration, regular_u1).ok
    ident = Morphism.identity(suq2)
    ident.verify()
    assert check_equivariance(ident, fibration, fibration).ok
    wrong = Morphism(suq2, u1, {"a": u1.gen("u*"), "g": u1.zero(),
                                "a*": u1.gen("u"), "g*": u1.zero()})
    wrong.verify()
    assert not check_equivariance(wrong, fibration, regular_u1).ok


def test_pullback_connection(collapse, fibration, regular_u1, u1):
    ell = presets.u1_power_connection(1)
    ell2 = pullback_connection(collapse, ell, regular_u1)
    assert ell2.ell(u1.gen("u")) == TensorElem(
        (u1, u1), {(("u*",), ("u",)): QRat(1)})
    assert check_strong_connection(ell2, regular_u1).ok


def test_pullback_of_identity_is_identity(fibration, suq2, u1):
    ident = Morphism.identity(suq2)
    ident.verify()
    ell = presets.u1_power_connection(1)
    same = pullback_connection(ident, ell, fibration)
    for b in ell.domain.basis:
        assert same.ell(b) == ell.ell(b)
    assert same.ell(u1.one()) == TensorElem.unit((suq2, suq2))


def test_pullback_requires_equivariance(fibration, regular_u1, suq2, u1):
    wrong = Morphism(suq2, u1, {"a": u1.gen("u*"), "g": u1.zero(),
                                "a*": u1.gen("u"), "g*": u1.zero()})
    wrong.verify()
    ell = presets.u1_power_connection(1)
    with pytest.raises(PresentationError):
        pullback_connection(wrong, ell, regular_u1)
