"""Embedded presets: the q-deformed SU(2) presentation with its Hopf data, the
circle Hopf algebra, the weight coaction of the circle on SU_q(2) (the quantum
Hopf fibration over the Podles sphere), the fundamental corepresentation, the
collapse morphism onto the circle, the stock strong connections, and each CLI
preset as a `Workspace`.
"""

from __future__ import annotations

from functools import lru_cache

from .comodule import Coaction, Corepresentation, contragredient, regular_coaction, \
    trivial_corep
from .connection import CoalgebraSpan, StrongConnection
from .linalg import add_scaled
from .ncalg import NCPoly, Presentation, PresentationError
from .presfile import Workspace, parse_workspace
from .scalars import QRat, q_power
from .structure import Morphism
from .tensors import TensorElem

SUQ2_SOURCE = """
algebra suq2
generators a g g* a*
star a a*
star g g*
order a < g < g* < a*
weight a 2
weight a* 2
reduction_order a < a* < g < g*
rel g a = 1/q a g
rel g* a = 1/q a g*
rel g* g = g g*
rel g a* = q a* g
rel g* a* = q a* g*
rel a a* = 1 - q^2 g g*
rel a* a = 1 - g g*
coproduct a = a (x) a - q g* (x) g
coproduct g = g (x) a + a* (x) g
coproduct g* = g* (x) a* + a (x) g*
coproduct a* = a* (x) a* - q g (x) g*
counit a = 1
counit g = 0
counit g* = 0
counit a* = 1
antipode a = a*
antipode g = -q g
antipode g* = -1/q g*
antipode a* = a
antipode_inv a = a*
antipode_inv g = -1/q g
antipode_inv g* = -q g*
antipode_inv a* = a
"""

U1_SOURCE = """
algebra u1
generators u u*
star u u*
order u < u*
rel u u* = 1
rel u* u = 1
coproduct u = u (x) u
coproduct u* = u* (x) u*
counit u = 1
counit u* = 1
antipode u = u*
antipode u* = u
antipode_inv u = u*
antipode_inv u* = u
"""

FIBRATION_SOURCE = """
coaction fibration : suq2 -> suq2 (x) u1
delta a = a (x) u
delta g = g (x) u
delta g* = g* (x) u*
delta a* = a* (x) u*
"""

COLLAPSE_SOURCE = """
morphism collapse : suq2 -> u1
f a = u
f g = 0
f g* = 0
f a* = u*
"""

FUNDAMENTAL_SOURCE = """
corep fundamental dim 2 over suq2
row a | -q g*
row g | a*
"""

PRESET_SOURCE = (SUQ2_SOURCE + U1_SOURCE + FIBRATION_SOURCE + COLLAPSE_SOURCE
                 + FUNDAMENTAL_SOURCE)


@lru_cache(maxsize=1)
def workspace() -> Workspace:
    """The shared preset workspace; treat its contents as immutable."""
    return parse_workspace(PRESET_SOURCE, filename="<presets>")


def suq2() -> Presentation:
    return workspace().algebras["suq2"]


def u1() -> Presentation:
    return workspace().algebras["u1"]


def fibration_coaction() -> Coaction:
    return workspace().coactions["fibration"]


def collapse_morphism() -> Morphism:
    m = workspace().morphisms["collapse"]
    if not m.verified:
        m.verify()
    return m


def fundamental_corep() -> Corepresentation:
    return workspace().coreps["fundamental"]


def regular_suq2_coaction() -> Coaction:
    return regular_coaction(suq2())


def regular_u1_coaction() -> Coaction:
    return regular_coaction(u1())


def u1_corep(n: int) -> Corepresentation:
    """The one-dimensional corepresentation [u^n] of the circle."""
    H = u1()
    return Corepresentation(f"u^{n}", H, [[_u_power_word(H, n)]])


def u_span() -> CoalgebraSpan:
    """Span of the fundamental matrix entries and the coaugmentation 1."""
    A, c = suq2(), fundamental_corep()
    return CoalgebraSpan(A, [c[i, j] for i in range(2) for j in range(2)] + [A.one()])


@lru_cache(maxsize=1)
def trivial_connection_suq2() -> StrongConnection:
    """The canonical connection on the regular coaction, over the u-span."""
    return StrongConnection.trivial(suq2(), u_span(), regular_suq2_coaction())


def _ell_u() -> TensorElem:
    A = suq2()
    return TensorElem((A, A), {(("a*",), ("a",)): QRat(1),
                               (("g*",), ("g",)): QRat(1)})


def _ell_u_inv() -> TensorElem:
    A = suq2()
    return TensorElem((A, A), {(("a",), ("a*",)): QRat(1),
                               (("g",), ("g*",)): q_power(2)})


def _sandwich(outer: TensorElem, inner: TensorElem) -> TensorElem:
    """l(u^{n+s}) = l(u^s)^<1> l(u^n)^<1> (x) l(u^n)^<2> l(u^s)^<2>."""
    acc: dict = {}
    for (o1, o2), c1 in outer.terms.items():
        add_scaled(acc, {(o1 + i1, i2 + o2): c2 for (i1, i2), c2 in inner.terms.items()}, c1)
    return TensorElem(inner.legs, acc)


def _u_power_word(H: Presentation, n: int):
    name = "u" if n >= 0 else "u*"
    return NCPoly(H, {tuple([name] * abs(n)): QRat(1)})


def u1_power_table(n: int) -> list:
    """Pairs (u^k, l(u^k)) for k walking from 0 to n by the sandwich recursion."""
    if n == 0:
        raise ValueError("the power connection needs a nonzero winding")
    H = u1()
    A = suq2()
    step = _ell_u() if n > 0 else _ell_u_inv()
    pairs = [(H.one(), TensorElem.unit((A, A)))]
    current = TensorElem.unit((A, A))
    k = 0
    inc = 1 if n > 0 else -1
    while k != n:
        current = _sandwich(step, current)
        k += inc
        pairs.append((_u_power_word(H, k), current))
    return pairs


def u1_power_connection(n: int) -> StrongConnection:
    """Strong connection for the circle fibration, defined on {1, u^sgn, ..., u^n}."""
    return StrongConnection.from_table(fibration_coaction(), u1_power_table(n),
                                       name=f"u1-power-{n}")


def fibration_connection(max_abs: int) -> StrongConnection:
    """Connection table covering every winding |k| <= max_abs; the pullback
    preset uses max_abs = |n|, the domain its sigma-diagram check runs on."""
    if max_abs < 1:
        raise ValueError("need at least winding one")
    pairs = u1_power_table(max_abs) + u1_power_table(-max_abs)[1:]
    return StrongConnection.from_table(fibration_coaction(), pairs,
                                       name=f"u1-fibration-{max_abs}")


PRESET_ALGEBRAS = {"suq2": ["suq2"], "u1": ["u1"], "podles-line": ["suq2", "u1"],
                    "trivial-base": ["suq2"]}


def preset_workspace(name: str, n: int | None = None, corep: str = "u") -> Workspace:
    """A CLI preset's objects, keyed by the prefixes its checks print: its
    algebras; for podles-line n the coaction fibration, the connection line-n
    and the corep u^n; for trivial-base the coaction regular, the connection
    trivial-connection and the corep named corep (u, u-dual or trivial)."""
    ws = Workspace()
    ws.algebras.update((a, workspace().algebras[a]) for a in PRESET_ALGEBRAS[name])
    if name == "podles-line":
        ws.coactions["fibration"] = fibration_coaction()
        ws.connections[f"line-{n}"] = u1_power_connection(n)
        ws.coreps[f"u^{n}"] = u1_corep(n)
    elif name == "trivial-base":
        ws.coactions["regular"] = regular_suq2_coaction()
        ws.connections["trivial-connection"] = trivial_connection_suq2()
        build = {"u": fundamental_corep, "u-dual": lambda: contragredient(fundamental_corep()),
                 "trivial": lambda: trivial_corep(suq2())}.get(corep)
        if build is None:
            raise PresentationError(f"unknown corep {corep!r} (u, u-dual, trivial)")
        ws.coreps[corep] = build()
    return ws
