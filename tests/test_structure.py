import pytest

from qgalois import presets, structure
from qgalois.ncalg import PresentationError
from qgalois.presfile import parse_workspace
from qgalois.scalars import QRat, q_power
from qgalois.comodule import regular_coaction, verify_coaction
from qgalois.join import counit_character
from qgalois.structure import Character, Coaction, Morphism, verify_hopf_axioms
from qgalois.tensors import TensorElem
from sweeps import certified, sweep_hopf_axioms


def test_coproduct_of_alpha(suq2):
    d = structure.coproduct(suq2.gen("a"))
    want = TensorElem((suq2, suq2), {(("a",), ("a",)): QRat(1),
                                     (("g*",), ("g",)): -q_power(1)})
    assert d == want


def test_coproduct_unit(suq2):
    assert structure.coproduct(suq2.one()) == TensorElem.unit((suq2, suq2))


def test_coproduct_multiplicative(suq2):
    p = suq2.word("g", "g*")
    direct = structure.coproduct(p)
    factored = structure.coproduct(suq2.gen("g")).tensor_mul(
        structure.coproduct(suq2.gen("g*")))
    assert direct == factored


def test_antipode_values(suq2):
    assert structure.antipode(suq2.gen("a")) == suq2.gen("a*")
    assert structure.antipode(suq2.gen("g")) == suq2.gen("g") * (-q_power(1))
    assert structure.antipode(suq2.gen("g*")) == suq2.gen("g*") * (-q_power(-1))
    # anti-homomorphism on a product
    s = structure.antipode(suq2.word("a", "g"))
    assert s == suq2.word("a*", "g") * (-q_power(2))


def test_antipode_identity_on_alpha(suq2):
    # m(S (x) id)Delta(a) = a* a + g* g = 1
    d = structure.coproduct(suq2.gen("a"))
    val = d.map_leg(0, lambda w: structure.antipode(
        suq2.poly({w: QRat(1)}))).multiply_legs()
    assert val == suq2.one()


def test_hopf_axioms_sweeps(suq2, u1):
    assert verify_hopf_axioms(suq2).ok
    assert verify_hopf_axioms(u1).ok


@pytest.mark.parametrize("name, d", [("suq2", 3), ("u1", 6)])
def test_hopf_certificate_agrees_with_the_sweep(name, d):
    alg = getattr(presets, name)()
    sweep = sweep_hopf_axioms(alg, d)
    assert all(sweep.values())
    assert certified(verify_hopf_axioms(alg), sweep) == sweep


def _u1_copy():
    return parse_workspace(presets.U1_SOURCE).algebras["u1"]


def _reattach(alg, **tables):
    h = alg.hopf
    current = {"delta": h.delta.table, "counit": h.counit.values,
               "antipode": h.antipode.images, "antipode_inv": h.antipode_inv.images}
    current.update(tables)
    structure.attach_hopf(alg, **current)


def test_counit_fault_fails_certificate_and_sweep():
    # Delta(u) = u (x) 1 respects u u* = 1 = u* u, but (eps (x) id)(u (x) 1) = 1
    u1 = _u1_copy()
    _reattach(u1, delta={g: TensorElem((u1, u1), {((g,), ()): QRat(1)})
                         for g in ("u", "u*")})
    rep = verify_hopf_axioms(u1)
    assert all(c.passed for c in rep.checks if c.name.startswith("relation-compat"))
    assert not certified(rep, {"counit-laws"})["counit-laws"]
    assert not sweep_hopf_axioms(u1, 6)["counit-laws"]


def test_coassociativity_fault_fails_both_certificates_and_the_sweep():
    # Delta(u) = u u (x) u*, Delta(u*) = u* u* (x) u respects u u* = 1 = u* u, but
    # (Delta (x) id) Delta(u) = u^4 (x) u*^2 (x) u* and (id (x) Delta) Delta(u) =
    # u^2 (x) u*^2 (x) u differ
    u1 = _u1_copy()
    _reattach(u1, delta={"u": TensorElem((u1, u1), {(("u", "u"), ("u*",)): QRat(1)}),
                         "u*": TensorElem((u1, u1), {(("u*", "u*"), ("u",)): QRat(1)})})
    delta = u1.hopf.delta
    for rep in (verify_hopf_axioms(u1), verify_coaction(delta)):
        assert all(c.passed for c in rep.checks if c.name.startswith("relation"))
        failed = {c.name: c.detail for c in rep.failures()}
        assert failed["coassociativity"] == "failing generators: u, u*"
    # both certificates read one list, computed once
    assert delta.coassociativity_failures is delta.coassociativity_failures
    assert not sweep_hopf_axioms(u1, 4)["coassociativity"]


def test_inverse_antipode_must_respect_the_relations():
    u1 = _u1_copy()
    _reattach(u1, antipode_inv={"u": u1.gen("u*") * 2, "u*": u1.gen("u")})
    failed = {c.name: c for c in verify_hopf_axioms(u1).failures()}
    # S^-1(u u*) = u 2u* = 2, against S^-1(1) = 1
    assert failed["relation-compat u u*"].detail == "S^-1 maps it to 1"
    assert failed["relation-compat u u*"].tag == \
        "Delta, eps, S, S^-1 factor through the quotient"


def test_anti_extension_of_the_antipode_table(suq2):
    images = {g.name: structure.antipode(suq2.gen(g.name))
              for g in suq2.generators}
    s_map = Morphism(suq2, suq2, images, kind="antihom")
    assert s_map.apply(suq2.word("a", "g")) == structure.antipode(suq2.word("a", "g"))
    assert s_map.apply(suq2.word("a", "g")) == suq2.word("a*", "g") * (-q_power(2))


def test_antipode_antihomomorphism_random(suq2):
    import random
    rng = random.Random(11)
    gens = [g.name for g in suq2.generators]
    for _ in range(12):
        x = suq2.poly({tuple(rng.choice(gens) for _ in range(2)): QRat(1)})
        y = suq2.poly({tuple(rng.choice(gens) for _ in range(2)): QRat(1)})
        assert structure.antipode(x * y) == \
            structure.antipode(y) * structure.antipode(x)


def test_morphism_collapse_verifies(collapse, suq2, u1):
    rep = collapse.verify()
    assert rep.ok
    # a* a + g* g maps to u* u = 1
    val = collapse.apply(suq2.word("a*", "a") + suq2.word("g*", "g"))
    assert val == u1.one()
    assert collapse.apply(suq2.one()) == u1.one()


def test_morphism_failure(suq2, u1):
    bad = Morphism(suq2, u1, {"a": u1.gen("u"), "g": u1.gen("u"),
                              "a*": u1.gen("u*"), "g*": u1.gen("u*")})
    rep = bad.verify()
    assert not rep.ok
    names = [c.name for c in rep.failures()]
    assert any("relation" in n for n in names)


def test_morphism_relation_witnesses(suq2, u1):
    # a, g -> u sends each relation to its image lhs - rhs, shown in full
    bad = Morphism(suq2, u1, {"a": u1.gen("u"), "g": u1.gen("u"),
                              "a*": u1.gen("u*"), "g*": u1.gen("u*")})
    assert [(c.name, c.detail) for c in bad.verify().failures()] == [
        ("relation g a", "maps to (q-1)/q u u"),
        ("relation g* a", "maps to (q-1)/q"),
        ("relation g a*", "maps to -(q-1)"),
        ("relation g* a*", "maps to -(q-1) u* u*"),
        ("relation a a*", "maps to q^2"),
        ("relation a* a", "maps to 1"),
    ]


def test_relation_compat_witnesses():
    # Delta(g) = g (x) a + a (x) g, eps(a) = 2 and S(g) = g break several
    # relations; each FAIL lists the image of lhs - rhs under every failing map
    s = parse_workspace(presets.SUQ2_SOURCE).algebras["suq2"]
    _reattach(s, delta=dict(s.hopf.delta.table, g=TensorElem(
                  (s, s), {(("g",), ("a",)): QRat(1), (("a",), ("g",)): QRat(1)})),
              counit=dict(s.hopf.counit.values, a=QRat(2)),
              antipode=dict(s.hopf.antipode.images, g=s.gen("g")))
    failed = [(c.name, c.detail) for c in verify_hopf_axioms(s).failures()
              if c.name.startswith("relation-compat")]
    assert failed == [
        ("relation-compat g a",
         "Delta maps it to -(q^2-1)/q a g* (x) g g - (q^2-1)/q g g* (x) a g"),
        ("relation-compat g* g",
         "Delta maps it to -(q^2-1)/q a g* (x) a* g + (q^2-1) g g* (x) g g*"),
        ("relation-compat g a*",
         "Delta maps it to -(q^3-q) g g* (x) a* g - (q^3-q) a* g (x) g g*"),
        ("relation-compat a a*",
         "Delta maps it to -q^2 1 (x) g g* + q^2 a a (x) g g* + q^3 a g* (x) a* g"
         " + q^2 g g* (x) g g* - q^3 a* g* (x) a* g; eps maps it to 1;"
         " S maps it to -(q^2+q) g g*"),
        ("relation-compat a* a",
         "Delta maps it to -1 (x) g g* + a a (x) g g* + q a g* (x) a* g"
         " + g g* (x) g g* - q a* g* (x) a* g; eps maps it to 1;"
         " S maps it to -(q+1)/q g g*"),
    ]


def test_identity_morphism(suq2):
    ident = Morphism.identity(suq2)
    assert ident.verify().ok
    p = suq2.word("a", "g", "g*")
    assert ident.apply(p) == p


def test_hopf_maps_are_the_shared_map_objects(suq2):
    # Delta is the regular coaction and eps the counit character, one object
    # and one cache each
    h = suq2.hopf
    assert isinstance(h.delta, Coaction) and isinstance(h.counit, Character)
    assert (h.antipode.kind, h.antipode_inv.kind) == ("antihom", "antihom")
    assert regular_coaction(suq2) is h.delta
    assert presets.regular_suq2_coaction() is presets.suq2().hopf.delta
    assert counit_character(suq2) is h.counit
    w = ("a", "g*", "g")
    assert structure.coproduct_word(suq2, w) is h.delta.apply_word(w)


def test_hopf_requires_tables(suq2):
    from qgalois.ncalg import Generator, Presentation
    bare = Presentation("bare", [Generator("z", "z")])
    with pytest.raises(PresentationError):
        structure.coproduct(bare.one())
