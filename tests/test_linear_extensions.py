"""Every linear extension summed through `linalg.combine` against the
copy-per-term oracle `sweeps.reference_linear`, on random polynomials."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qgalois import presets, structure
from qgalois.cherngalois import Functional, _tau, sigma
from qgalois.join import JoinElement, TPoly
from qgalois.linalg import combine
from qgalois.ncalg import NCPoly
from qgalois.scalars import QRat, q_power, qrat
from qgalois.tensors import TensorElem
from sweeps import reference_extend, reference_linear

COEFFS = st.one_of(st.integers(min_value=-3, max_value=3).map(QRat),
                   st.sampled_from([q_power(1), -q_power(-2), QRat((1, 1), (1, 2))]))


def polys(alg, d: int, max_size: int = 6):
    """Random elements of alg on its normal words of degree <= d."""
    return st.dictionaries(st.sampled_from(alg.basis_up_to_degree(d)), COEFFS,
                           max_size=max_size).map(lambda t: NCPoly(alg, t))


def test_combine_skips_zero_coefficients_and_cancels():
    a, b = {"x": QRat(1), "y": QRat(2)}, {"x": QRat(-1)}
    assert combine([(a, QRat(1)), (b, QRat(1)), (a, QRat(0))]) == {"y": QRat(2)}
    assert combine([(a, QRat(0))]) == {}
    assert combine([]) == {}
    assert a == {"x": QRat(1), "y": QRat(2)} and b == {"x": QRat(-1)}


@pytest.mark.parametrize("preset", ["fibration_coaction", "regular_suq2_coaction"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_coaction_apply(preset, data):
    delta = getattr(presets, preset)()
    p = data.draw(polys(delta.A, 3))
    want = reference_linear(TensorElem.zero((delta.A, delta.H)), p.terms, delta.apply_word)
    assert delta.apply(p) == want


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_morphism_apply(data):
    f = presets.collapse_morphism()
    p = data.draw(polys(f.source, 3))
    assert f.apply(p) == reference_linear(f.target.zero(), p.terms, f.apply_word)


@pytest.mark.parametrize("table", ["antipode", "antipode_inv"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_antipodes(table, data):
    alg = presets.suq2()
    p = data.draw(polys(alg, 3))
    images = getattr(alg.hopf, table).images
    # each word by its own anti-multiplicative fold, with no shared cache
    want = reference_linear(alg.zero(), p.terms, lambda w: reference_extend(
        w, alg.one(), lambda out, g: out * images[g], reverse=True))
    assert getattr(structure, table)(p) == want


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_trivial_connection(data):
    ell = presets.trivial_connection_suq2()
    h = data.draw(polys(ell.domain.H, 2))
    want = reference_linear(TensorElem.zero((ell.A, ell.A)), h.terms, ell._ell_trivial_word)
    assert ell.ell(h) == want


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_table_connection(data):
    ell = presets.fibration_connection(2)
    basis = ell.domain.basis
    coords = data.draw(st.lists(COEFFS, min_size=len(basis), max_size=len(basis)))
    h = NCPoly(ell.domain.H, combine((b.terms, c) for b, c in zip(basis, coords)),
               normal=True)
    want = reference_linear(TensorElem.zero((ell.A, ell.A)), dict(enumerate(coords)),
                            ell._values.__getitem__)
    assert ell.ell(h) == want


@pytest.mark.parametrize("t0", [QRat(0), QRat(1), qrat(Fraction(1, 2))])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_tpoly_evaluate(t0, data):
    delta = presets.regular_suq2_coaction()
    legs = (delta.A, delta.H)
    coeffs = data.draw(st.dictionaries(st.integers(min_value=0, max_value=4),
                                       polys(delta.A, 2), max_size=4))
    images = {k: delta.apply(p) for k, p in coeffs.items()}
    x = JoinElement(delta, TPoly(legs, images))
    want = reference_linear(TensorElem.zero(legs), {k: t0 ** k for k in images},
                            images.__getitem__)
    assert x.evaluate(t0) == want


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_sigma(data):
    delta = presets.fibration_coaction()
    ell = presets.fibration_connection(3)
    # the counit, unlike the constant term, gives tau(u^k) != 0 and so
    # products a_word tau that are not normal words
    phi = Functional(delta.A, structure.counit)
    a = data.draw(polys(delta.A, 2))
    # with h, the factor Y of the projector: a_(0) tau(h a_(1))
    h = data.draw(st.none() | polys(delta.H, 1, max_size=2))
    slices = delta.apply(a).grouped(0)
    want = reference_linear(delta.A.zero(), dict.fromkeys(slices, QRat(1)), lambda w: NCPoly(
        delta.A, {w: QRat(1)}, normal=True) * _tau(
            phi, ell, slices[w] if h is None else h * slices[w]))
    assert sigma(phi, ell, delta, a, h) == want
