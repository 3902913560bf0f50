import functools
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qgalois import join, presets
from qgalois.ncalg import (EMPTY, Generator, Presentation, PresentationError,
                           TerminationError, format_word)
from qgalois.presfile import parse_workspace
from qgalois.scalars import QRat, q_power
from sweeps import (reference_basis, reference_normal_form, reference_rule_ending,
                    reference_seam_fold)
from test_cherngalois import TORUS_SOURCE
from test_cli import OSCILLATOR


def pbw_count(n: int) -> int:
    """Independent combinatorial oracle: monomials a^k g^m g*^p plus
    a*^k g^m g*^p with k > 0, at total degree exactly n."""
    first = sum(1 for k in range(n + 1) for m in range(n + 1 - k))
    second = sum(1 for k in range(1, n + 1) for m in range(n + 1 - k))
    return first + second


def test_normal_form_examples(suq2):
    A = suq2
    assert A.word("g", "a") == A.word("a", "g") * q_power(-1)
    assert A.word("a", "a*") == A.one() - A.word("g", "g*") * q_power(2)
    assert A.word("a*", "a") == A.one() - A.word("g", "g*")
    assert A.word("g*", "g") == A.word("g", "g*")
    assert A.word("g", "a*") == A.word("a*", "g") * q_power(1)


def test_normal_form_idempotent(suq2):
    rng = random.Random(3)
    gens = [g.name for g in suq2.generators]
    for _ in range(20):
        w = tuple(rng.choice(gens) for _ in range(rng.randint(0, 5)))
        once = suq2.normalize_terms({w: QRat(1)})
        again = suq2.normalize_terms(once)
        assert once == again


def test_rewrite_steps_decrease_reduction_order(suq2):
    for rule in suq2.rules:
        for w in rule.rhs:
            assert suq2.red_key(w) < suq2.red_key(rule.lhs)


def test_term_order_is_strict_total(suq2):
    words = suq2.basis_up_to_degree(3)
    keys = [suq2.term_key(w) for w in words]
    assert len(set(keys)) == len(keys)
    assert keys == sorted(keys)


def test_basis_degree_one(suq2):
    words = suq2.basis_up_to_degree(1)
    assert [format_word(w) for w in words] == ["1", "a", "g", "g*", "a*"]


def test_basis_matches_pbw_oracle(suq2):
    total = 0
    basis = suq2.basis_up_to_degree(3)
    for n in range(4):
        layer = [w for w in basis if len(w) == n]
        assert len(layer) == (1 if n == 0 else pbw_count(n))
        total += len(layer)
    assert total == 30


def test_basis_by_enumerate_and_rewrite_oracle(suq2):
    # every word of length <= 2 rewrites into the span of the claimed basis,
    # and each claimed basis word is its own normal form
    gens = [g.name for g in suq2.generators]
    basis = set(suq2.basis_up_to_degree(2))
    for k in range(3):
        for w in itertools.product(gens, repeat=k):
            nf = suq2.normalize_terms({w: QRat(1)})
            assert set(nf) <= basis
    for w in basis:
        assert suq2.normalize_terms({w: QRat(1)}) == {w: QRat(1)}


def test_graded_dimension_by_rank_at_specialization(suq2):
    """Rank of all length<=3 words' normal forms over Q at q = 3/7 equals the
    PBW count; computed here with plain Fractions, independent of the kernel."""
    q0 = Fraction(3, 7)
    gens = [g.name for g in suq2.generators]
    basis = suq2.basis_up_to_degree(3)
    index = {w: i for i, w in enumerate(basis)}
    rows = []
    for k in range(4):
        for w in itertools.product(gens, repeat=k):
            nf = suq2.normalize_terms({w: QRat(1)})
            row = [Fraction(0)] * len(basis)
            for word, coeff in nf.items():
                row[index[word]] = coeff.evaluate(q0)
            rows.append(row)
    rank = 0
    ncols = len(basis)
    pivot_col = 0
    r = 0
    for col in range(ncols):
        sel = None
        for i in range(r, len(rows)):
            if rows[i][col] != 0:
                sel = i
                break
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        pivot = rows[r][col]
        rows[r] = [x / pivot for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    assert r == 30


def test_u1_basis(u1):
    words = u1.basis_up_to_degree(2)
    assert sorted(format_word(w) for w in words) == ["1", "u", "u u", "u*", "u* u*"]


def test_local_confluence(suq2, u1):
    rep = suq2.check_local_confluence(6)
    assert rep.ok
    # the two-path reduction of the g* g a ambiguity is resolved explicitly
    assert any(c.name == "overlap g* g a" and c.passed for c in rep.checks)
    assert u1.check_local_confluence(6).ok


def test_two_path_reduction_oracle(suq2):
    # reduce g* g a both ways by hand and compare, independently of the
    # overlap machinery
    inner_first = suq2.poly({("g", "g*", "a"): QRat(1)})
    prefix_first = suq2.poly({("g*", "a", "g"): q_power(-1)})
    assert inner_first == prefix_first
    assert inner_first == suq2.word("a", "g", "g*") * q_power(-2)


def test_brief_cuts_long_witnesses(suq2):
    p = sum((suq2.word(*["g"] * k) * k for k in range(1, 7)), suq2.zero())
    assert p.brief() == "g + 2 g g + 3 g g g + 4 g g g g + ... (2 more terms)"
    assert p.brief(6) == str(p)


def test_single_rule_system_trivially_confluent():
    gens = [Generator("x", "y"), Generator("y", "x")]
    P = Presentation("pair", gens, [(("x", "y"), {EMPTY: QRat(1)})])
    rep = P.check_local_confluence(4)
    assert rep.ok
    assert rep.checks[0].name == "no-overlaps"


def test_termination_invariant_enforced():
    gens = [Generator("x", "x")]
    with pytest.raises(TerminationError):
        Presentation("bad", gens, [(("x",), {("x", "x"): QRat(1)})])


def test_non_confluent_system_is_refused_when_built():
    # zzz -> 0 together with zz -> z: the containment ambiguity resolves to
    # 0 one way and z the other, so the presentation is refused and the
    # error names each overlap that does not resolve with its difference
    gens = [Generator("z", "z")]
    with pytest.raises(PresentationError) as exc:
        Presentation("clash", gens, [(("z", "z", "z"), {}),
                                     (("z", "z"), {("z",): QRat(1)})])
    assert str(exc.value).endswith("not confluent: "
                                   "overlap z z z z: reductions differ by -z; "
                                   "overlap z z z: reductions differ by -z")


def test_confluence_resolves_every_overlap_at_the_minimal_degree(suq2):
    # every ambiguity of suq2 is 3 letters long; d = 2 may not skip them
    short, full = suq2.check_local_confluence(2), suq2.check_local_confluence(3)
    names = [c.name for c in full.checks]
    assert len(names) == 8 and all(n.startswith("overlap ") for n in names)
    assert [c.name for c in short.checks] == names
    assert short.ok


def test_confluence_is_resolved_once_when_built(suq2):
    assert suq2.check_local_confluence(3) is suq2.check_local_confluence(6)


def test_confluence_degree_precondition(suq2):
    with pytest.raises(ValueError):
        suq2.check_local_confluence(1)


def test_star_closure_enforced():
    # x y -> 1 with x* = x, y* = y is not *-closed (y x stays irreducible)
    gens = [Generator("x", "x"), Generator("y", "y")]
    with pytest.raises(PresentationError):
        Presentation("notstar", gens, [(("x", "y"), {EMPTY: QRat(1)})])


def test_involution_examples(suq2):
    A = suq2
    assert A.word("a", "g").star() == A.word("a*", "g*") * q_power(1)
    assert A.one().star() == A.one()


words3 = st.lists(st.sampled_from(["a", "g", "g*", "a*"]), min_size=0, max_size=3)


@settings(max_examples=60, deadline=None)
@given(words3, words3)
def test_congruence_property(w1, w2):
    from qgalois import presets
    A = presets.suq2()
    w1, w2 = tuple(w1), tuple(w2)
    raw = A.normalize_terms({w1 + w2: QRat(1)})
    via_polys = (A.poly({w1: QRat(1)}) * A.poly({w2: QRat(1)})).terms
    assert raw == via_polys


@settings(max_examples=60, deadline=None)
@given(words3)
def test_star_compatibility_with_normal_form(w):
    from qgalois import presets
    A = presets.suq2()
    w = tuple(w)
    lhs = A.normalize_terms({A.star_word(w): QRat(1)})
    rhs = A.poly({w: QRat(1)}).star().terms
    assert lhs == rhs


@settings(max_examples=40, deadline=None)
@given(words3)
def test_involution_is_an_involution(w):
    from qgalois import presets
    A = presets.suq2()
    p = A.poly({tuple(w): QRat(1)})
    assert p.star().star() == p


def test_long_word_closed_form(suq2):
    # g* a = q^-1 a g*, so moving k letters a past k letters g* costs q^-k^2
    k = 40
    nf = suq2.normal_form_word(("g*",) * k + ("a",) * k)
    assert nf == {("a",) * k + ("g*",) * k: q_power(-k * k)}


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["suq2", "u1"]), st.data())
def test_normal_forms_match_leftmost_rewriting(name, data):
    from qgalois import presets
    A = getattr(presets, name)()
    letters = [g.name for g in A.generators]
    w = tuple(data.draw(st.lists(st.sampled_from(letters), max_size=14)))
    expected = reference_normal_form(A, w, {})
    assert A.normal_form_word(w) == expected


# ---------------------------------------------------------------------------
# runs of q-commutations: `_append` passes a whole run of letters that swap
# with the new one in one step; the letter-by-letter seam fold is the oracle

def _fresh(source, name):
    return parse_workspace(source).algebras[name]


def test_swap_run_normalizes_without_recursion():
    A = _fresh(presets.SUQ2_SOURCE, "suq2")
    word = A.word(*(["g*"] * 3000 + ["a"]))
    assert word == A.word(*(["a"] + ["g*"] * 3000)) * q_power(-3000)


def test_swap_run_keeps_the_seam_memo_small():
    A = _fresh(presets.SUQ2_SOURCE, "suq2")
    before = len(A._seam)
    A.normal_form_word(("g*",) * 30 + ("a",) * 30)
    assert len(A._seam) - before <= 100


@st.composite
def runs(draw, letters, long_letters, max_len=40):
    """A word of runs of one letter each, the runs of long_letters longer."""
    w = []
    for _ in range(draw(st.integers(0, 12))):
        x = draw(st.sampled_from(letters))
        w += [x] * draw(st.integers(1, 12 if x in long_letters else 3))
    return tuple(w[:max_len])


ALGEBRAS = {"suq2": (presets.SUQ2_SOURCE, ("g", "g*")),
            "osc": (OSCILLATOR, ()),
            "t2": (TORUS_SOURCE, ("y", "y*")),
            "u1": (presets.U1_SOURCE, ())}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(ALGEBRAS)), st.data())
def test_normal_forms_match_the_letter_by_letter_fold(name, data):
    source, long_letters = ALGEBRAS[name]
    A = _fresh(source, name)
    w = data.draw(runs([g.name for g in A.generators], long_letters))
    assert A.normal_form_word(w) == reference_seam_fold(A, w)


# ---------------------------------------------------------------------------
# the left-side table: `_rule_ending` looks each factor up by length, and
# `basis_up_to_degree` extends each layer by the letters a word's tail allows

def _cube_free():
    """x x x -> 0 and x y y -> 0 beside y x -> x y: left sides of lengths 2
    and 3, so a word's tail is two letters long."""
    gens = [Generator("x", "x"), Generator("y", "y")]
    return Presentation("cube-free", gens, [(("y", "x"), {("x", "y"): QRat(1)}),
                                            (("x", "x", "x"), {}),
                                            (("x", "y", "y"), {})])


@functools.cache
def _table_algebra(name):
    if name == "T":
        return join.T
    if name == "cube-free":
        return _cube_free()
    source, _ = ALGEBRAS[name]
    return _fresh(source, name)


TABLE_ALGEBRAS = sorted(ALGEBRAS) + ["T", "cube-free"]


def test_cube_free_tail_is_two_letters():
    A = _cube_free()
    assert A._lhs_lengths == [2, 3]
    assert ("x", "x", "y") in A.basis_up_to_degree(3)
    assert ("x", "x", "x") not in A.basis_up_to_degree(3)
    assert A._next_letters[("x", "x")] == ("y",)
    assert A._next_letters[("x", "y")] == ()


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(TABLE_ALGEBRAS), st.integers(0, 6))
def test_basis_matches_the_reference_in_term_order(name, d):
    A = _table_algebra(name)
    assert A.basis_up_to_degree(d) == reference_basis(A, d)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(TABLE_ALGEBRAS), st.data())
def test_rule_ending_matches_the_reference(name, data):
    A = _table_algebra(name)
    letters = [g.name for g in A.generators]
    w = tuple(data.draw(st.lists(st.sampled_from(letters), max_size=8)))
    end = data.draw(st.integers(0, len(w)))
    got, want = A._rule_ending(w, end), reference_rule_ending(A, w, end)
    assert (got is None) == (want is None)
    if got is not None:
        assert got in A.rules and w[end - len(got.lhs):end] == got.lhs
