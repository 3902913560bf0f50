import pytest

from qgalois import structure
from qgalois.comodule import (Coaction, Corepresentation, contragredient,
                              corep_equivalence, cotensor_basis,
                              invariant_subspace, left_coaction,
                              verify_coaction, verify_corepresentation)
from qgalois.ncalg import PresentationError
from qgalois.scalars import QRat, q_power
from qgalois.tensors import TensorElem
from qgalois import presets
from sweeps import certified, reference_invariant_subspace, sweep_coaction


def test_fibration_coaction_verifies(fibration):
    assert verify_coaction(fibration).ok


def test_regular_coaction_verifies(regular_suq2):
    assert verify_coaction(regular_suq2).ok


@pytest.mark.parametrize("name", ["fibration_coaction", "regular_suq2_coaction"])
def test_coaction_certificate_agrees_with_the_sweep(name):
    delta = getattr(presets, name)()
    sweep = sweep_coaction(delta, 3)
    assert all(sweep.values())
    assert certified(verify_coaction(delta), sweep) == sweep


def test_coassociativity_fault_fails_certificate_and_sweep(suq2, u1):
    # delta(g) = -g (x) u respects every relation, since all terms of a
    # relation hold g or g* an equal number of times mod 2; but -u is not
    # grouplike
    table = dict(presets.fibration_coaction().table)
    table["g"] = TensorElem((suq2, u1), {(("g",), ("u",)): QRat(-1)})
    table["g*"] = TensorElem((suq2, u1), {(("g*",), ("u*",)): QRat(-1)})
    bad = Coaction("signed", suq2, u1, table)
    rep = verify_coaction(bad)
    assert all(c.passed for c in rep.checks if c.name.startswith("relation"))
    assert not certified(rep, {"coassociativity"})["coassociativity"]
    assert not sweep_coaction(bad, 3)["coassociativity"]


def test_corrupted_coaction_fails(suq2, u1):
    table = dict(presets.fibration_coaction().table)
    table["g"] = TensorElem((suq2, u1), {(("g",), ("u*",)): QRat(1)})
    bad = Coaction("bad", suq2, u1, table)
    rep = verify_coaction(bad)
    assert not rep.ok
    assert any("relation" in c.name for c in rep.failures())


def test_invariants_of_the_fibration(fibration, suq2):
    inv = invariant_subspace(fibration, 2)
    assert len(inv) == 4
    want = [suq2.one(), suq2.word("a", "g*"), suq2.word("g", "g*"),
            suq2.word("a*", "g")]
    assert inv == want


def test_invariants_of_the_regular_coaction(regular_suq2, suq2):
    inv = invariant_subspace(regular_suq2, 2)
    assert inv == [suq2.one()]


def test_invariants_of_the_trivial_coaction(suq2, u1):
    triv = Coaction("trivial_suq2", suq2, u1, {g.name: TensorElem(
        (suq2, u1), {((g.name,), ()): QRat(1)}) for g in suq2.generators})
    assert verify_coaction(triv).ok
    inv = invariant_subspace(triv, 1)
    assert len(inv) == 5


def test_invariants_form_a_subalgebra(fibration):
    inv = invariant_subspace(fibration, 2)
    for x in inv:
        for y in inv:
            p = x * y
            assert fibration.apply(p) == TensorElem.from_poly(p).outer(
                TensorElem.unit((fibration.H,)))


def test_fundamental_corep(fundamental):
    assert verify_corepresentation(fundamental).ok


def test_onedim_corep(u1):
    c = Corepresentation("u", u1, [[u1.gen("u")]])
    assert verify_corepresentation(c).ok


def test_bad_corep_fails(suq2):
    c = Corepresentation("bad", suq2,
                         [[suq2.gen("a"), suq2.gen("g")],
                          [suq2.gen("g"), suq2.gen("a")]])
    assert not verify_corepresentation(c).ok


def test_contragredient(fundamental, suq2):
    dual = contragredient(fundamental)
    assert dual[0, 0] == suq2.gen("a*")
    assert dual[0, 1] == suq2.gen("g") * (-q_power(1))
    assert dual[1, 0] == suq2.gen("g*")
    assert dual[1, 1] == suq2.gen("a")
    assert verify_corepresentation(dual).ok


def test_contragredient_twice_is_s_squared(fundamental):
    twice = contragredient(contragredient(fundamental))
    for i in range(2):
        for j in range(2):
            s2 = structure.antipode(structure.antipode(fundamental[i, j]))
            assert twice[i, j] == s2


def test_corep_equivalence(fundamental, intertwiner_q):
    dual = contragredient(fundamental)
    Q = intertwiner_q
    assert corep_equivalence(fundamental, dual, Q).ok
    ident = [[QRat(1), QRat(0)], [QRat(0), QRat(1)]]
    assert corep_equivalence(fundamental, fundamental, ident).ok
    assert not corep_equivalence(fundamental, dual, ident).ok


def test_singular_intertwiner_rejected(fundamental):
    zero = [[QRat(0), QRat(0)], [QRat(0), QRat(0)]]
    rep = corep_equivalence(fundamental, fundamental, zero)
    assert not rep.ok


def test_cotensor_fibration_line_one(fibration, suq2):
    c = presets.u1_corep(1)
    cot = cotensor_basis(fibration, c, 1)
    assert [[str(p) for p in vec] for vec in cot] == [["a"], ["g"]]


def test_cotensor_regular_fundamental(regular_suq2, fundamental):
    for d in (1, 2):
        cot = cotensor_basis(regular_suq2, fundamental, d)
        assert len(cot) == 2
        # membership identity for every returned vector
        for vec in cot:
            for j in range(2):
                lhs = regular_suq2.apply(vec[j])
                rhs = TensorElem.zero((regular_suq2.A, regular_suq2.H))
                for i in range(2):
                    rhs = rhs + TensorElem.from_poly(vec[i]).outer(
                        TensorElem.from_poly(fundamental[i, j]))
                assert lhs == rhs


def test_cotensor_trivial_corep_equals_invariants(fibration, regular_suq2, regular_u1,
                                                  suq2, u1):
    # invariant_subspace is the cotensor with the trivial corepresentation; the
    # reference solves delta(b) = b (x) 1 by its own two eliminations
    trivial = Coaction("trivial_suq2", suq2, u1, {g.name: TensorElem(
        (suq2, u1), {((g.name,), ()): QRat(1)}) for g in suq2.generators})
    for delta in (fibration, regular_suq2, regular_u1, trivial):
        for d in range(5):
            assert invariant_subspace(delta, d) == reference_invariant_subspace(delta, d)


def test_cotensor_trivial_corep_all_presets(fibration, regular_suq2, regular_u1,
                                            suq2, u1):
    cases = [(fibration, presets.trivial_corep(u1)),
             (regular_suq2, presets.trivial_corep(suq2)),
             (regular_u1, presets.trivial_corep(u1))]
    for delta, c in cases:
        for d in range(4):
            cot = cotensor_basis(delta, c, d)
            inv = invariant_subspace(delta, d)
            assert [vec[0] for vec in cot] == inv


def test_left_coaction_examples(fibration, suq2, u1):
    assert left_coaction(fibration, suq2.gen("a")) == \
        TensorElem((u1, suq2), {(("u*",), ("a",)): QRat(1)})
    assert left_coaction(fibration, suq2.one()) == TensorElem.unit((u1, suq2))
    b = suq2.word("g", "g*")
    assert left_coaction(fibration, b) == \
        TensorElem((u1, suq2), {((), ("g", "g*")): QRat(1)})


def test_coaction_rejects_foreign_elements(fibration, u1):
    with pytest.raises(PresentationError):
        fibration.apply(u1.gen("u"))
