import pytest

from qgalois import structure
from qgalois.ncalg import NCPoly
from qgalois.scalars import QRat, q_power
from qgalois.tensors import LegMismatchError, TensorElem


def delta_alpha(suq2):
    return structure.coproduct(suq2.gen("a"))


def test_counit_contraction_example(suq2):
    # applying eps to the second leg of Delta(a) returns a
    d = delta_alpha(suq2)
    back = d.contract_leg(1, lambda w: structure.counit_word(suq2, w))
    assert back == suq2.gen("a")


def test_identity_leg_map(suq2):
    d = delta_alpha(suq2)
    same = d.map_leg(0, lambda w: NCPoly(suq2, {w: QRat(1)}, normal=True))
    assert same == d


def test_flip_twice(suq2):
    d = delta_alpha(suq2)
    assert d.swap().swap() == d


def test_tensor_mul_unit(suq2):
    d = delta_alpha(suq2)
    assert TensorElem.unit((suq2, suq2)).tensor_mul(d) == d


def test_tensor_mul_example(suq2):
    A = suq2
    aa = TensorElem((A, A), {(("a",), ("a",)): QRat(1)})
    bb = TensorElem((A, A), {(("a*",), ("a*",)): QRat(1)})
    prod = aa.tensor_mul(bb)
    expect = A.one() - A.word("g", "g*") * q_power(2)
    assert prod == TensorElem.from_poly(expect).outer(TensorElem.from_poly(expect))


def test_degree_mismatch_errors(suq2, u1):
    a = TensorElem.unit((suq2, suq2))
    b = TensorElem.unit((suq2,))
    with pytest.raises(LegMismatchError):
        a.tensor_mul(b)
    c = TensorElem.unit((suq2, u1))
    with pytest.raises(LegMismatchError):
        a + c


def test_legwise_normalization(suq2):
    t = TensorElem((suq2, suq2), {(("g", "a"), ("a", "a*")): QRat(1)})
    expanded = t.terms
    # g a normalizes to (1/q) a g in the first leg, a a* expands in the second
    assert (("a", "g"), ("g", "g*")) in expanded
    assert expanded[(("a", "g"), ())] == q_power(-1)


def test_grouped_slices(suq2):
    d = delta_alpha(suq2)
    by_first = d.grouped(0)
    assert set(by_first) == {("a",), ("g*",)}
    assert by_first[("g*",)] == suq2.gen("g") * (-q_power(1))


def test_str_formats(suq2, u1):
    # a unit key on one leg still prints its word 1 after the coefficient
    t = TensorElem((suq2,), {((),): QRat(1) + q_power(1), (("a",),): QRat(-1)})
    assert str(t) == "(q+1) 1 - a"
    t = TensorElem((suq2, u1), {(("a",), ("u",)): -(QRat(1) + q_power(1)),
                                (("g*",), ("u*",)): q_power(-1) - q_power(1),
                                ((), ()): QRat(-1), (("g",), ()): QRat(3) / QRat(2)})
    assert str(t) == "-1 (x) 1 - (q+1) a (x) u + 3/2 g (x) 1 - (q^2-1)/q g* (x) u*"
    assert str(TensorElem.zero((suq2, u1))) == "0"


def test_contract_only_leg_is_refused_before_any_evaluation(suq2):
    seen = []
    with pytest.raises(LegMismatchError, match="only leg") as err:
        TensorElem.from_poly(suq2.gen("a") + suq2.one()).contract_leg(0, seen.append)
    assert seen == [] and "scalar_value" not in str(err.value)


def test_more_than_three_legs(suq2, u1):
    # the join coaction lives over C[t] (x) A (x) H (x) H
    legs = (suq2, u1, suq2, u1)
    t = TensorElem(legs, {(("g", "a"), ("u",), ("a", "a*"), ("u*", "u")): QRat(1)})
    assert t.terms == {(("a", "g"), ("u",), (), ()): q_power(-1),
                       (("a", "g"), ("u",), ("g", "g*"), ()): -q_power(1)}
    assert t.tensor_mul(TensorElem.unit(legs)) == t
    with pytest.raises(LegMismatchError):
        TensorElem((), {})
