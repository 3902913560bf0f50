"""Acceptance suite: every criterion runs exactly, at its stated bound, and
prints one PASS/FAIL line (run with `pytest tests/test_acceptance.py -s`)."""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from qgalois import presets
from qgalois.cherngalois import (Functional, cotensor_compare, projector,
                                 projector_similarity, trace_rank,
                                 verify_pullback_theorem)
from qgalois.cli import main as cli_main
from qgalois.comodule import contragredient, corep_equivalence
from qgalois.connection import check_strong_connection
from qgalois.join import (chi_collapse, chi_equivariance, counit_character,
                          join_membership, join_path, join_product,
                          sample_join_elements)
from qgalois.scalars import QRat, q_power
from qgalois.structure import verify_hopf_axioms
from sweeps import sweep_hopf_axioms


@contextmanager
def criterion(number: int, name: str, limit: float):
    start = time.perf_counter()
    failed = False
    try:
        yield
    except BaseException:
        failed = True
        raise
    finally:
        elapsed = time.perf_counter() - start
        status = "FAIL" if failed else ("PASS" if elapsed < limit else "FAIL(time)")
        print(f"ACCEPTANCE {number} {name}: {status} ({elapsed:.2f}s, limit {limit:.0f}s)")
    assert elapsed < limit, f"criterion {number} exceeded {limit}s ({elapsed:.2f}s)"


def pbw_count_upto(d: int) -> int:
    total = 1
    for n in range(1, d + 1):
        first = sum(1 for k in range(n + 1) for _ in range(n + 1 - k))
        second = sum(1 for k in range(1, n + 1) for _ in range(n + 1 - k))
        total += first + second
    return total


def test_criterion_1_rewriting_soundness():
    with criterion(1, "rewriting soundness", 10.0):
        A = presets.suq2()
        rep = A.check_local_confluence(6)
        assert rep.ok, "unresolved overlaps at degree 6"
        basis = A.basis_up_to_degree(3)
        assert len(basis) == 30
        assert len(basis) == pbw_count_upto(3)


def test_criterion_2_hopf_axioms():
    with criterion(2, "Hopf axioms", 30.0):
        assert verify_hopf_axioms(presets.suq2()).ok
        assert verify_hopf_axioms(presets.u1()).ok
        assert all(sweep_hopf_axioms(presets.suq2(), 4).values())
        assert all(sweep_hopf_axioms(presets.u1(), 6).values())


def test_criterion_3_strong_connections():
    with criterion(3, "strong connections", 10.0):
        delta = presets.fibration_coaction()
        triv = presets.trivial_connection_suq2()
        assert check_strong_connection(triv, presets.regular_suq2_coaction()).ok
        for n in (-2, -1, 1, 2):
            assert check_strong_connection(presets.u1_power_connection(n), delta).ok


def test_criterion_4_chern_galois_projector():
    with criterion(4, "Chern-Galois projector", 10.0):
        A = presets.suq2()
        delta = presets.fibration_coaction()
        ell = presets.u1_power_connection(1)
        E = projector(ell, presets.u1_corep(1), Functional.constant_term(A), delta)
        q2 = q_power(2)
        assert E.entries[0][0] == A.one() - A.word("g", "g*") * q2
        assert E.entries[0][1] == A.word("a", "g*")
        assert E.entries[1][0] == A.word("a*", "g") * q_power(1)
        assert E.entries[1][1] == A.word("g", "g*")
        assert E.report.ok  # E^2 = E and entrywise invariance, certified
        assert E.trace() == A.one() + A.word("g", "g*") * (QRat(1) - q2)
        at_one = {(i, j): {w: c.evaluate(1) for w, c in E.entries[i][j].terms.items()}
                  for i in range(2) for j in range(2)}
        assert at_one[(0, 0)] == {(): Fraction(1), ("g", "g*"): Fraction(-1)}
        assert at_one[(0, 1)] == {("a", "g*"): Fraction(1)}
        assert at_one[(1, 0)] == {("a*", "g"): Fraction(1)}
        assert at_one[(1, 1)] == {("g", "g*"): Fraction(1)}
        assert cotensor_compare(E, E.corep, delta, 1).ok


def test_criterion_5_pullback_theorem():
    with criterion(5, "pullback theorem end to end", 20.0):
        f = presets.collapse_morphism()
        U = presets.u1()
        rep, art = verify_pullback_theorem(
            f, presets.fibration_connection(3), presets.u1_corep(1),
            Functional.constant_term(U), presets.fibration_coaction(),
            presets.regular_u1_coaction())
        assert rep.ok
        clauses = {c.name for c in rep.checks}
        assert {"sigma-diagram", "block-form", "block-absorption",
                "conjugation", "pullback-projector-match"} <= clauses
        assert art["certificate"].e_prime == [[U.one()]]
        assert art["E_prime"].entries == [[U.one()]]


def test_criterion_6_corep_equivalence_and_similarity(intertwiner_q):
    with criterion(6, "corepresentation equivalence", 20.0):
        u = presets.fundamental_corep()
        dual = contragredient(u)
        Q = intertwiner_q
        assert corep_equivalence(u, dual, Q).ok
        A = presets.suq2()
        E = projector(presets.trivial_connection_suq2(), u,
                      Functional.constant_term(A), presets.regular_suq2_coaction())
        assert projector_similarity(E, Q).ok


def test_criterion_7_trivial_base_sanity():
    with criterion(7, "trivial-base sanity", 10.0):
        A = presets.suq2()
        reg = presets.regular_suq2_coaction()
        ell = presets.trivial_connection_suq2()
        phi = Functional.constant_term(A)
        E = projector(ell, presets.fundamental_corep(), phi, reg)
        assert E.size == 8
        assert trace_rank(E) == QRat(2)
        E1 = projector(ell, presets.trivial_corep(A), phi, reg)
        assert E1.size == 1
        assert E1.entries[0][0] == A.one()


def test_criterion_8_join_model():
    with criterion(8, "join model", 10.0):
        A = presets.suq2()
        reg = presets.regular_suq2_coaction()
        rng = random.Random(2024)
        xs = sample_join_elements(reg, rng, count=8)
        for x in xs:
            assert join_membership(x, 3).ok
            assert join_membership(x.star(), 3).ok
        for x, y in zip(xs, xs[1:]):
            assert join_membership(join_product(x, y), 5).ok
        chi = counit_character(A)
        x = join_path(reg, A.gen("a"), A.gen("a"))
        assert chi_collapse(x, chi) == A.gen("a")
        for s in xs[:5] + [x]:
            assert chi_equivariance(s, chi)


def test_criterion_9_negative_controls(tmp_path, capsys):
    with criterion(9, "negative controls", 30.0):
        corrupt = tmp_path / "corrupt.alg"
        corrupt.write_text(presets.SUQ2_SOURCE + presets.U1_SOURCE + """
coaction corrupt : suq2 -> suq2 (x) u1
delta a = a (x) u
delta g = g (x) u*
delta g* = g* (x) u*
delta a* = a* (x) u*
""")
        code = cli_main(["verify", "--input", str(corrupt)])
        out = capsys.readouterr().out
        assert code == 1
        assert any("relation" in ln and "FAIL" in ln for ln in out.splitlines())

        broken = tmp_path / "broken.alg"
        broken.write_text(presets.SUQ2_SOURCE + presets.U1_SOURCE +
                          presets.FIBRATION_SOURCE + """
connection broken on fibration
L 1 = 1 (x) 1
L u = a* (x) a
""")
        code = cli_main(["verify", "--input", str(broken)])
        out = capsys.readouterr().out
        assert code == 1
        assert any("mult-counit" in ln and "FAIL" in ln for ln in out.splitlines())

        noneq = tmp_path / "noneq.alg"
        noneq.write_text(presets.SUQ2_SOURCE + presets.U1_SOURCE +
                         presets.FIBRATION_SOURCE + """
coaction regu1 : u1 -> u1 (x) u1
delta u = u (x) u
delta u* = u* (x) u*
connection hopf1 on fibration
L 1 = 1 (x) 1
L u = a* (x) a + g* (x) g
corep line dim 1 over u1
row u
morphism wrongway : suq2 -> u1
f a = u*
f g = 0
f g* = 0
f a* = u
""")
        code = cli_main(["pullback", "--input", str(noneq)])
        out = capsys.readouterr().out
        assert code == 1
        assert any("equivariance" in ln and "FAIL" in ln for ln in out.splitlines())
