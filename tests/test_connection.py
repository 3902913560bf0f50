import pytest

from qgalois import presets
from qgalois.connection import (CoalgebraSpan, CoverageError, SpanClosureError,
                                StrongConnection, TableLineError, check_equivariance,
                                check_strong_connection, pullback_connection)
from qgalois.ncalg import PresentationError
from qgalois.scalars import QRat, q_power
from qgalois.structure import Morphism
from qgalois.tensors import TensorElem

from sweeps import reference_table_values


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
    pairs = [(u1.one(), TensorElem.unit((suq2, suq2))),
             (u1.gen("u"), TensorElem((suq2, suq2), {(("a*",), ("a",)): QRat(1)}))]
    ell = StrongConnection.from_table(fibration, pairs, name="broken")
    rep = check_strong_connection(ell, fibration)
    assert not rep.ok
    assert any(c.name.startswith("mult-counit") for c in rep.failures())


def test_left_colinearity_fails_independently(fibration, suq2, u1):
    # m o l = eps and right colinearity hold, but the first legs carry the
    # wrong weight, so only the left clause (which needs S^-1) fails
    value = TensorElem((suq2, suq2), {
        (("a*",), ("a",)): QRat(1), (("g*",), ("g",)): QRat(1),
        (("g",), ("a",)): QRat(1), (("a",), ("g",)): -q_power(-1)})
    ell = StrongConnection.from_table(
        fibration, [(u1.one(), TensorElem.unit((suq2, suq2))),
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
    value = TensorElem((suq2, suq2), {(("a",), ("a*",)): QRat(1),
                                      (("g",), ("g*",)): q_power(2)})
    ell = StrongConnection.from_table(
        fibration, [(u1.one(), TensorElem.unit((suq2, suq2))),
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


def _lines(case, suq2, u1):
    """Table lines over the fibration with l(1) = 1 (x) 1 and l(u) = a* (x) a +
    g* (x) g, and lines that depend on them."""
    if isinstance(case, int):
        return presets.u1_power_table(case)
    one, u = u1.one(), u1.gen("u")
    unit, lu = TensorElem.unit((suq2, suq2)), presets.u1_power_table(1)[1][1]
    return {"u twice": [(one, unit), (u, lu), (u, lu)],
            "2u": [(one, unit), (u, lu), (u + u, lu + lu)],
            "u + 1": [(one, unit), (u, lu), (u + one, lu + unit)],
            "u + 1 first": [(u + one, lu + unit), (one, unit), (u, lu)],
            "contradicting u": [(one, unit), (u, lu), (u, lu + unit)],
            "zero element": [(one, unit), (u1.zero(), unit), (u, lu)]}[case]


@pytest.mark.parametrize("case", [1, -1, 2, -2, 3, -3, 4, -4,
                                  "u twice", "2u", "u + 1", "u + 1 first"])
def test_table_values_agree_with_two_eliminations(fibration, suq2, u1, case):
    # one elimination gives the domain and the values; a dependent line adds no
    # basis element and takes the combination of the lines it depends on
    pairs = _lines(case, suq2, u1)
    ell = StrongConnection.from_table(fibration, pairs)
    basis, values = reference_table_values(fibration, pairs)
    assert ell.domain.basis == basis
    assert [ell.ell(b) for b in basis] == values
    assert check_strong_connection(ell, fibration).ok


@pytest.mark.parametrize("case, index", [("contradicting u", 2), ("zero element", 1)])
def test_inconsistent_table_lines_raise_at_their_index(fibration, suq2, u1, case, index):
    pairs = _lines(case, suq2, u1)
    for build in (StrongConnection.from_table, reference_table_values):
        with pytest.raises(TableLineError) as exc:
            build(fibration, pairs)
        assert exc.value.index == index


def test_connection_is_evaluated_once_per_basis_element(monkeypatch, fibration):
    # both colinearity sides read the values l(b) of the mult-counit clause
    ell = presets.fibration_connection(3)
    real, calls = ell.ell, []
    monkeypatch.setattr(ell, "ell", lambda h: calls.append(h) or real(h))
    assert check_strong_connection(ell, fibration).ok
    assert len(calls) == ell.domain.dim + 1
