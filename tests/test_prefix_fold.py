"""The prefix fold `ncalg.extend_word` against a fold from the unit.

Every multiplicative map on words (the coproduct, a coaction, a morphism) and
every anti-multiplicative one (S, S^-1, an antihomomorphism) is evaluated on
a word by extending the cached image of a prefix, or suffix.  Each example
builds the presets afresh, so the caches start empty, then queries words in a
random order so that they hold arbitrary prefixes and suffixes.  Results must
equal `sweeps.reference_extend`, dict order included.
"""

from hypothesis import given, settings, strategies as st

from qgalois import presets, structure
from qgalois.comodule import regular_coaction
from qgalois.ncalg import EMPTY, extend_word
from qgalois.presfile import parse_workspace
from qgalois.tensors import TensorElem
from sweeps import reference_extend


def _maps(ws):
    """(name, source algebra, evaluation on a word, unit, step, reverse)."""
    A, H = ws.algebras["suq2"], ws.algebras["u1"]
    out = []
    for alg in (A, H):
        h = alg.hopf
        out.append((f"Delta {alg.name}", alg, lambda w, alg=alg: structure.coproduct_word(alg, w),
                    TensorElem.unit((alg, alg)),
                    lambda t, g, h=h: t.tensor_mul(h.delta.table[g]), False))
    for delta in (ws.coactions["fibration"], regular_coaction(A)):
        out.append((f"delta {delta.name}", A, delta.apply_word,
                    TensorElem.unit((delta.A, delta.H)),
                    lambda t, g, d=delta: t.tensor_mul(d.table[g]), False))
    for m in (ws.morphisms["collapse"], A.hopf.antipode, A.hopf.antipode_inv):
        out.append((f"{m.kind} {m.name}", A, m.apply_word, m.target.one(),
                    lambda p, g, m=m: p * m.images[g], m.kind == "antihom"))
    return out


@st.composite
def queries(draw, names):
    """Words with some of their prefixes and suffixes, and the empty word, in
    a random order."""
    words = draw(st.lists(st.lists(st.sampled_from(names), max_size=5).map(tuple),
                          min_size=1, max_size=4))
    pieces = []
    for w in words:
        k = draw(st.integers(min_value=0, max_value=len(w)))
        pieces += [w[:k], w[k:]]
    return draw(st.permutations(words + pieces + [EMPTY]))


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_prefix_fold_matches_the_fold_from_the_unit(data):
    ws = parse_workspace(presets.PRESET_SOURCE)
    for name, alg, evaluate, unit, step, reverse in _maps(ws):
        for w in data.draw(queries([g.name for g in alg.generators]), label=name):
            got = evaluate(w)
            want = reference_extend(w, unit, step, reverse)
            assert list(got.terms.items()) == list(want.terms.items()), (name, w)


def test_extend_word_caches_every_prefix_or_suffix():
    calls = []

    def step(out, g):
        calls.append(g)
        return out + g

    cache = {EMPTY: ""}
    assert extend_word(cache, ("a", "b", "c"), step) == "abc"
    assert set(cache) == {EMPTY, ("a",), ("a", "b"), ("a", "b", "c")}
    assert extend_word(cache, ("a", "b", "d"), step) == "abd"
    assert calls == ["a", "b", "c", "d"]
    cache = {EMPTY: ""}
    assert extend_word(cache, ("a", "b", "c"), step, reverse=True) == "cba"
    assert set(cache) == {EMPTY, ("c",), ("b", "c"), ("a", "b", "c")}
    assert extend_word(cache, ("d", "b", "c"), step, reverse=True) == "cbd"
    assert extend_word(cache, EMPTY, step) == ""
