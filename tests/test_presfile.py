from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qgalois import join, presets
from qgalois.presfile import (PresentationFileError, parse_element,
                              parse_expression, parse_tensor, parse_workspace)
from qgalois.scalars import QRat, q_power, qrat
from qgalois.tensors import TensorElem

from sweeps import reference_parse_expression

_VOCABULARY = ["a", "a*", "g", "g*", "u", "u*", "q", "t", "0", "1", "2", "3/2",
               "+", "-", "*", "/", "^", "(", ")", "(x)"]


def test_preset_source_round_trip():
    ws = parse_workspace(presets.PRESET_SOURCE)
    assert set(ws.algebras) == {"suq2", "u1"}
    assert set(ws.coactions) == {"fibration"}
    assert set(ws.morphisms) == {"collapse"}
    assert set(ws.coreps) == {"fundamental"}
    A = ws.algebras["suq2"]
    assert A.word("g", "a") == A.word("a", "g") * q_power(-1)


def test_parse_element_terms(suq2):
    p = parse_element(suq2, "1 - q^2 g g*")
    assert p == suq2.one() - suq2.word("g", "g*") * q_power(2)
    assert parse_element(suq2, "(q^2-1)/(q+1) a") == suq2.gen("a") * (q_power(1) - 1)
    assert parse_element(suq2, "0").is_zero
    assert parse_element(suq2, "0^3 a").is_zero
    assert parse_element(suq2, "0^0 a") == suq2.gen("a")
    assert parse_element(suq2, "(1+q)^3 a") == suq2.gen("a") * (q_power(1) + 1) ** 3
    # a unary sign may open any term, as in scalars
    a, g = suq2.gen("a"), suq2.gen("g")
    assert parse_element(suq2, "a + -g") == a - g
    assert parse_element(suq2, "a - -g") == a + g
    assert parse_element(suq2, "a - +q g") == a - g * q_power(1)
    assert parse_element(suq2, "- -a") == a


def test_scalar_coefficients(suq2):
    a, q = suq2.gen("a"), q_power(1)
    for text, value in (("q^-2", q_power(-2)), ("(q^2-1)/(q+1)", q - 1),
                        ("3/2", qrat(Fraction(3, 2))), ("-q", -q), ("2*q^3", 2 * q_power(3)),
                        ("(q+1)^-1", QRat(1) / (q + 1))):
        assert parse_element(suq2, f"{text} a") == a * value


def test_malformed_scalar_rejected(suq2):
    for text in ("q^x", "(q+1", "q q"):
        with pytest.raises(PresentationFileError):
            parse_element(suq2, f"{text} a")


def test_element_format_round_trip(suq2):
    for text in ("1 - q^2 g g*", "q a* g", "a g*", "2 a a - 1/q g",
                 "1 - (q^2-1) g g*"):
        p = parse_element(suq2, text)
        assert parse_element(suq2, str(p)) == p


def test_parse_tensor(suq2):
    t = parse_tensor((suq2, suq2), "a (x) a - q g* (x) g")
    want = TensorElem((suq2, suq2), {(("a",), ("a",)): QRat(1),
                                     (("g*",), ("g",)): -q_power(1)})
    assert t == want


def test_parse_tensor_signed_leg(suq2):
    # a sign opening a tensor leg scales the whole term, as one opening the term does
    def pure(c, u, v):
        return TensorElem((suq2, suq2), {((u,), (v,)): c})

    def parse(text):
        return parse_tensor((suq2, suq2), text)

    one = QRat(1)
    assert parse("a (x) -g") == pure(-one, "a", "g")
    assert parse("a (x) -2 g") == pure(QRat(-2), "a", "g")
    assert parse("a (x) g - g (x) -a") == pure(one, "a", "g") + pure(one, "g", "a")
    assert parse("a (x) - -g") == pure(one, "a", "g")
    assert parse("-a (x) -q g") == pure(q_power(1), "a", "g")
    assert parse("a (x) +g") == parse("a (x) g")


def _outcome(parse, text, legs):
    try:
        return parse(text, legs)
    except PresentationFileError as exc:
        return exc


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(_VOCABULARY), max_size=10))
def test_grammar_agrees_with_token_splitting(suq2, u1, tokens):
    """The recursive-descent grammar against `reference_parse_expression`, the
    token-splitting parser it replaced, with 1, 2 and 3 legs, the last with the
    join's C[t] leg first, so that t is a letter: the same value, or both
    refuse.  The one difference: the reference reads an empty tensor leg as the
    unit word and drops a trailing sign (`a (x)`, `(x) u`, `a g -`), where the
    grammar refuses with `empty tensor leg`."""
    text = " ".join(tokens)
    for legs in ([suq2], [suq2, u1], [join.T, suq2, u1]):
        new = _outcome(parse_expression, text, legs)
        old = _outcome(reference_parse_expression, text, legs)
        if isinstance(new, PresentationFileError):
            assert isinstance(old, PresentationFileError) or \
                "empty tensor leg" in str(new), (text, old, new)
        else:
            assert new == old, (text, legs)


@pytest.mark.parametrize("text", ["a (x)", "(x) u", "a g -", "a +", "a (x) (x) g"])
def test_empty_tensor_leg_rejected(suq2, u1, text):
    legs = [suq2, u1] if "(x)" in text else [suq2]
    with pytest.raises(PresentationFileError, match="empty tensor leg"):
        parse_expression(text, legs)


@pytest.mark.parametrize("text, token", [(") a", ")"), ("* a", "*"), ("^ 2", "^"),
                                         ("/ 2", "/"), ("a (x) ) u", ")"),
                                         ("a + * g", "*")])
def test_stray_token_opening_a_leg_is_named(suq2, u1, text, token):
    legs = [suq2, u1] if "(x)" in text else [suq2]
    with pytest.raises(PresentationFileError) as exc:
        parse_expression(text, legs)
    assert str(exc.value) == f"<string>:0: unexpected {token!r}"


_Z_HOPF = """algebra z
generators z z*
star z z*
rel z z* = 1
rel z* z = 1
coproduct z = z (x) z
coproduct z* = z* (x) z*
counit z = 1
counit z* = 1
antipode z = z*
antipode z* = z
antipode_inv z = z*
antipode_inv z* = z
"""


_COACTION = "coaction d : z -> z (x) z\ndelta z = z (x) z\ndelta z* = z* (x) z*\n"
_MORPHISM = "morphism m : z -> z\nf z = z\nf z* = z*\n"


@pytest.mark.parametrize("line, message", [
    *(pytest.param(line, "{key} lines read '{key} g = EXPR'", id=line) for line in [
        "coproduct z junk = z (x) z", "coproduct zz = z (x) z",
        "counit z junk = 1", "counit zz = 1",
        "antipode z junk = z*", "antipode zz = z*",
        "antipode_inv z junk = z*", "antipode_inv zz = z*"]),
    *(pytest.param(line, "second {key} line for z", id=f"second {line}") for line in [
        "coproduct z = z (x) z", "counit z = 1", "antipode z = z*", "antipode_inv z = z*"]),
    pytest.param(_COACTION + "delta zz = z (x) z", "coaction lines read 'delta g = EXPR'",
                 id="delta zz = z (x) z"),
    pytest.param(_COACTION + "delta z = z (x) z", "second delta line for z",
                 id="second delta z = z (x) z"),
    pytest.param(_MORPHISM + "f zz = z", "morphism lines read 'f g = EXPR'", id="f zz = z"),
    pytest.param(_MORPHISM + "f z = z*", "second f line for z", id="second f z = z*"),
])
def test_hopf_table_line_names_one_generator(line, message):
    # each line used to load: `z junk` as a second value for z, `zz` as a
    # table key for a generator that does not exist, a second line for z as
    # a replacement of the first
    assert parse_workspace(_Z_HOPF).algebras["z"].hopf is not None
    assert parse_workspace(_Z_HOPF + _COACTION + _MORPHISM).morphisms["m"].verify().ok
    key = line.splitlines()[-1].split()[0]
    with pytest.raises(PresentationFileError) as exc:
        parse_workspace(_Z_HOPF + line + "\n", filename="z.alg")
    assert str(exc.value) == f"z.alg:{14 + line.count(chr(10))}: " + message.format(key=key)


def test_table_line_needs_a_name():
    # an empty left side used to escape as an IndexError
    src = "algebra z\ngenerators z z*\nstar z z*\nrel z z* = 1\nrel z* z = 1\ncounit = 1\n"
    with pytest.raises(PresentationFileError, match="NAME = EXPR") as exc:
        parse_workspace(src, filename="broken.alg")
    assert exc.value.line == 6


def test_tensor_leg_count_checked(suq2):
    with pytest.raises(PresentationFileError):
        parse_tensor((suq2, suq2), "a (x) a (x) a")


def test_unknown_generator_rejected(suq2):
    with pytest.raises(PresentationFileError):
        parse_element(suq2, "b")


def test_error_carries_location():
    bad = "algebra broken\ngenerators z\nrel z = z z\n"
    with pytest.raises(PresentationFileError) as exc:
        parse_workspace(bad, filename="bad.alg")
    assert "bad.alg" in str(exc.value)


def test_line_outside_block_rejected():
    with pytest.raises(PresentationFileError) as exc:
        parse_workspace("generators a b\n")
    assert exc.value.line == 1


def test_reserved_generator_names_rejected():
    with pytest.raises(PresentationFileError):
        parse_workspace("algebra bad\ngenerators q\n")


def test_comments_and_blank_lines_ignored():
    ws = parse_workspace("""
# a toy Laurent pair
algebra toy
generators y* y   # the involution swaps them
star y y*
order y < y*
rel y y* = 1
rel y* y = 1
""")
    A = ws.algebras["toy"]
    assert A.word("y", "y*") == A.one()
    assert [g.name for g in A.generators] == ["y", "y*"]


def test_incomplete_hopf_tables_rejected():
    src = """
algebra h
generators z z*
star z z*
rel z z* = 1
rel z* z = 1
coproduct z = z (x) z
"""
    with pytest.raises(PresentationFileError):
        parse_workspace(src)


def test_non_star_closed_relations_rejected():
    src = """
algebra notclosed
generators x y
star x x
star y y
rel x y = 1
"""
    with pytest.raises(PresentationFileError):
        parse_workspace(src)


def test_rule_left_side_must_be_single_word():
    src = """
algebra bad
generators x
star x x
rel x + x = 1
"""
    with pytest.raises(PresentationFileError):
        parse_workspace(src)


def test_scaled_rule_left_side_normalizes():
    src = """
algebra scaled
generators y y*
star y y*
rel 2 y y* = 2
rel y* y = 1
"""
    ws = parse_workspace(src)
    A = ws.algebras["scaled"]
    assert A.word("y", "y*") == A.one()


def test_connection_block_requires_unit():
    src = presets.SUQ2_SOURCE + presets.U1_SOURCE + presets.FIBRATION_SOURCE + """
connection nounit on fibration
L u = a* (x) a + g* (x) g
"""
    with pytest.raises(PresentationFileError):
        parse_workspace(src)


def test_t_rejected_outside_joins(suq2):
    with pytest.raises(PresentationFileError):
        parse_element(suq2, "t a")


def test_t_is_a_letter_of_the_join_leg(suq2):
    # t is the generator of join.T, not a scalar; over suq2 it is an unknown letter
    assert parse_expression("q t t (x) a", [join.T, suq2]) == {(("t", "t"), ("a",)): q_power(1)}
    with pytest.raises(PresentationFileError, match=r"^f\.alg:3: unknown generator 't' in suq2"):
        parse_workspace("algebra suq2\ngenerators a g\nrel g a = t a g\n", "f.alg")


def test_relation_errors_name_the_algebra():
    # relations are read against a rule-free copy of the algebra that carries its name
    with pytest.raises(PresentationFileError) as exc:
        parse_workspace("algebra s\ngenerators a b\nrel b a = z a b\n", "f.alg")
    assert str(exc.value) == "f.alg:3: unknown generator 'z' in s"


_U1_REG = presets.U1_SOURCE + (
    "coaction reg : u1 -> u1 (x) u1\ndelta u = u (x) u\ndelta u* = u* (x) u*\n")


@pytest.mark.parametrize("source, bad, message", [
    ("algebra s extra\ngenerators a\n", "algebra s extra",
     "algebra header must read 'algebra NAME'"),
    (presets.U1_SOURCE + "morphism m : u1 -> u1 junk\nf u = u\n",
     "morphism m : u1 -> u1 junk", "morphism header must read 'morphism NAME : A -> B'"),
    (presets.U1_SOURCE + "coaction reg : u1 -> u1 (x) u1 junk\ndelta u = u (x) u\n",
     "coaction reg : u1 -> u1 (x) u1 junk",
     "coaction header must read 'coaction NAME : A -> A (x) H'"),
    (_U1_REG + "connection c on reg junk\nL 1 = 1 (x) 1\n", "connection c on reg junk",
     "connection header must read 'connection NAME on COACTION'"),
    (presets.U1_SOURCE + "corep c dim 1 junk\nrow u\n", "corep c dim 1 junk",
     "corep header must read 'corep NAME dim N [over ALG]'"),
    (presets.U1_SOURCE + "corep c dim 1 over\nrow u\n", "corep c dim 1 over",
     "corep header must read 'corep NAME dim N [over ALG]'"),
    ("algebra s\ngenerators a b\nweight z 2\n", "weight z 2", "unknown generator 'z' in s"),
    ("algebra s\ngenerators a b\nstar z y\n", "star z y", "unknown generator 'z' in s"),
    ("algebra s\ngenerators a b\nstar a y\n", "star a y", "unknown generator 'y' in s"),
    ("algebra s\ngenerators a b\nweight a -1\nrel b = a a b\n", "weight a -1",
     "weight of 'a' is negative; the reduction order needs weights >= 0"),
], ids=["algebra", "morphism", "coaction", "connection", "corep", "corep-over",
        "weight-name", "star-name", "star-partner", "negative-weight"])
def test_lines_that_say_more_or_less_than_their_usage_are_refused(source, bad, message):
    # a trailing word, a half tail or a name that is no generator was ignored
    line = source.splitlines().index(bad) + 1
    with pytest.raises(PresentationFileError) as exc:
        parse_workspace(source, "f.alg")
    assert str(exc.value) == f"f.alg:{line}: {message}"


def test_headers_with_their_whole_tail_still_read():
    ws = parse_workspace(presets.U1_SOURCE + "corep c dim 1 over u1\nrow u\n"
                         "algebra s\ngenerators a b\nweight a 0\nstar a b\n")
    assert ws.coreps["c"].H is ws.algebras["u1"]
    assert [(g.name, g.star, g.weight) for g in ws.algebras["s"].generators] == \
        [("a", "b", 0), ("b", "a", 1)]


def test_zero_coefficients_are_dropped(suq2):
    for text in ("0 a", "a - a", "q a - q a + 0 g"):
        assert parse_expression(text, [suq2]) == {}


def test_exponent_limit(suq2):
    assert parse_element(suq2, "q^1000 a") == suq2.gen("a") * q_power(1000)
    assert parse_element(suq2, "q^-1000 a") == suq2.gen("a") * q_power(-1000)
    with pytest.raises(PresentationFileError, match="exceeds the limit"):
        parse_element(suq2, "q^1001 a")
    with pytest.raises(PresentationFileError, match="exceeds the limit"):
        parse_element(suq2, "q^-1001 a")
    # the limit holds for the degree of the result
    assert parse_element(suq2, "(q^2)^-500 a") == suq2.gen("a") * q_power(-1000)
    with pytest.raises(PresentationFileError, match="q-degree 1002 exceeds the limit"):
        parse_element(suq2, "(q^-2)^501 a")
    with pytest.raises(PresentationFileError, match="q-degree 1000000 exceeds the limit"):
        parse_element(suq2, "((q^1000)^1000)^1000 a")
    assert parse_element(suq2, "(1 + q^2)^500 a") == suq2.gen("a") * (q_power(2) + 1) ** 500
    with pytest.raises(PresentationFileError, match="q-degree 1002 exceeds the limit"):
        parse_element(suq2, "(1 + q^2)^501 a")
    # and for the estimated bit length of its coefficients: e (b + log2 n) for
    # n terms of at most b bits, here b = 1001 for 2^1000
    assert parse_element(suq2, "(2^1000)^2 a") == suq2.gen("a") * 2 ** 2000
    assert parse_element(suq2, "(2^1000)^-2 a") == suq2.gen("a") * qrat(Fraction(1, 2 ** 2000))
    for text in ("(2^1000)^3 a", "(2^1000)^-3 a", "((2^1000)^1000)^1000 a"):
        with pytest.raises(PresentationFileError, match="exceeds the limit 3000"):
            parse_element(suq2, text)
    assert parse_element(suq2, "(1 + 2^1000*q)^2 a") == \
        suq2.gen("a") * (2 ** 1000 * q_power(1) + 1) ** 2
    with pytest.raises(PresentationFileError, match="estimated 3006 bits exceeds"):
        parse_element(suq2, "(1 + 2^1000*q)^3 a")
