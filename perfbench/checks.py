"""Output checks that do not use qgalois: the program's outputs are parsed
into sympy and judged against facts known independently of the program.

* At q = 1, O(SU_q(2)) becomes the commutative algebra of SU(2), polynomials
  in a, a*, g, g* modulo det = a a* + g g* - 1.  Specialization at q = 1 is
  a ring map, so a projector E must satisfy E^2 - E = 0 there and its trace
  must reduce to the rank; a normal form must reduce to the same polynomial
  as the word it came from.
* The circle coaction gives a, g weight +1 and a*, g* weight -1; every
  relation is homogeneous, so every term of a normal form keeps the word's
  weight.
* The PBW basis of O(SU_q(2)) is {a^i g^j g*^k} and {g^j g*^k a*^l, l >= 1},
  so sum_{n <= d} (n+1)^2 = (d+1)(d+2)(2d+3)/6 words have length <= d.

Each check returns a list of problems; an empty list means the output
passed.  ``self_test()`` plants a wrong answer for every check and reports
any that got through.

    python3 perfbench/checks.py      # run the self-tests
"""

from __future__ import annotations

import json
import sys

import sympy

q = sympy.Symbol("q")
A, AS, G, GS = sympy.symbols("a as g gs")
COMMUTING = {"a": A, "a*": AS, "g": G, "g*": GS}
WEIGHT = {"a": 1, "g": 1, "a*": -1, "g*": -1}
DET = A * AS + G * GS - 1
GENERATORS = set(COMMUTING) | {"u", "u*"}


def parse_expression(text: str) -> dict:
    """Terms of an expression in the shared grammar (``1 - q^2 g g*``), as
    {word tuple: sympy coefficient in q}."""
    terms: dict = {}
    sign, coeff, word = 1, None, []

    def flush():
        if coeff is not None or word:
            key = tuple(word)
            terms[key] = terms.get(key, 0) + sign * (1 if coeff is None else coeff)

    for tok in text.split():
        if tok in ("+", "-"):
            flush()
            sign, coeff, word = (1 if tok == "+" else -1), None, []
            continue
        if tok.startswith("-") and coeff is None and not word:
            sign, tok = -sign, tok[1:]
        if tok in GENERATORS:
            word.append(tok)
        elif coeff is None and not word:
            coeff = sympy.sympify(tok.replace("^", "**"), locals={"q": q})
        else:
            raise ValueError(f"unexpected token {tok!r} in {text!r}")
    flush()
    return {w: c for w, c in terms.items() if sympy.simplify(c) != 0}


def commutative(terms: dict):
    """The image at q = 1 in the commuting polynomial ring."""
    out = 0
    for w, c in terms.items():
        out += sympy.sympify(c).subs(q, 1) * sympy.Mul(*[COMMUTING[x] for x in w])
    return sympy.expand(out)


def reduce_det(expr):
    """Remainder modulo a a* + g g* - 1 (a Groebner basis of its ideal)."""
    expr = sympy.expand(expr)
    if expr == 0:
        return expr
    return sympy.reduced(expr, [DET], A, AS, G, GS, order="lex")[1]


def terms_from_pairs(pairs) -> dict:
    """[[letters], "num/den"] pairs, as the worker writes them, to terms."""
    return {tuple(w): sympy.Rational(c) for w, c in pairs}


def check_projector(matrix: list, rank: int, size: int) -> list:
    """matrix: rows of term dicts at q = 1."""
    if len(matrix) != size or any(len(row) != size for row in matrix):
        return [f"size {len(matrix)}, expected {size}"]
    M = sympy.Matrix([[commutative(t) for t in row] for row in matrix])
    problems = []
    D = M * M - M
    for i in range(size):
        for j in range(size):
            if reduce_det(D[i, j]) != 0:
                problems.append(f"(E^2 - E)[{i},{j}] does not reduce to 0")
    if reduce_det(M.trace() - rank) != 0:
        problems.append(f"trace does not reduce to the rank {rank}")
    return problems


def check_podles_one(matrix: list) -> list:
    """The symbolic podles-line 1 projector of acceptance criterion 4."""
    expected = [[{(): 1, ("g", "g*"): -q ** 2}, {("a", "g*"): 1}],
                [{("a*", "g"): q}, {("g", "g*"): 1}]]
    problems = []
    if len(matrix) != 2 or any(len(row) != 2 for row in matrix):
        return ["podles-line 1 projector is not 2x2"]
    for i in range(2):
        for j in range(2):
            got, want = matrix[i][j], expected[i][j]
            if any(sympy.simplify(got.get(w, 0) - want.get(w, 0)) != 0
                   for w in set(got) | set(want)):
                problems.append(f"entry [{i},{j}] differs from the closed form")
    return problems


def check_e_prime(matrix: list) -> list:
    """The pulled-back block e' must be [[1]], a rank-one scalar idempotent."""
    if any(w != () for row in matrix for t in row for w in t):
        return ["e' has non-scalar entries"]
    M = sympy.Matrix([[t.get((), 0) for t in row] for row in matrix])
    problems = []
    if not M.is_square or sympy.simplify(M * M - M) != sympy.zeros(*M.shape):
        problems.append("e' is not idempotent")
    if sympy.simplify(M.trace() - 1) != 0:
        problems.append("e' does not have rank one")
    if M != sympy.Matrix([[1]]):
        problems.append(f"e' = {M.tolist()}, expected [[1]]")
    return problems


def check_normal_form(word, terms: dict) -> list:
    """terms at q = 1 against the word in the commutative quotient, and weights."""
    problems = []
    lhs = sympy.Mul(*[COMMUTING[x] for x in word])
    if reduce_det(lhs - commutative(terms)) != 0:
        problems.append(f"normal form of {' '.join(word)} differs at q = 1")
    weight = sum(WEIGHT[x] for x in word)
    bad = [w for w in terms if sum(WEIGHT[x] for x in w) != weight]
    if bad:
        problems.append(f"normal form of {' '.join(word)} has a term of another "
                        f"weight: {' '.join(bad[0])}")
    return problems


def pbw_count(d: int) -> int:
    return (d + 1) * (d + 2) * (2 * d + 3) // 6


def check_pbw(d: int, words: list) -> list:
    problems = []
    if len(words) != pbw_count(d):
        problems.append(f"{len(words)} basis words up to degree {d}, "
                        f"PBW count is {pbw_count(d)}")
    if len({tuple(w) for w in words}) != len(words):
        problems.append("basis words repeat")
    if any(len(w) > d for w in words):
        problems.append("basis word longer than the degree")
    return problems


def check_nonmembers(failed: list) -> list:
    """The element pushed off t = 0 fails boundary-zero, the one pushed off
    t = 1 fails boundary-one."""
    problems = []
    for names, boundary in zip(failed, ("boundary-zero", "boundary-one")):
        if boundary not in names:
            problems.append(f"non-member did not FAIL {boundary} (failed: {names})")
    if len(failed) != 2:
        problems.append("expected two non-member reports")
    return problems


def check_confluence(names: list) -> list:
    if not names or any("no-overlaps" in n for n in names):
        return ["confluence report resolved no overlap"]
    return []


# -- reading the outputs of one operation ---------------------------------------

def _cli_matrix(stdout: str, tag: str) -> list:
    for line in stdout.splitlines():
        if line.startswith(tag + " "):
            rows = json.loads(line[len(tag) + 1:])
            return [[parse_expression(e) for e in row] for row in rows]
    raise ValueError(f"no {tag} line in the output")


def check_output(op: dict, output: dict) -> list:
    """Apply the operation's independent check to its outputs."""
    kind = op.get("check")
    if kind is None:
        return []
    if kind == "projector":
        if op["fn"] == "cli":
            matrix = _cli_matrix(output["stdout"], "MATRIX_AT_Q")
        else:
            matrix = [[terms_from_pairs(e) for e in row] for row in output["matrix_q1"]]
        problems = check_projector(matrix, op["rank"], op["size"])
        if op.get("closed_form"):
            problems += check_podles_one(_cli_matrix(output["stdout"], "MATRIX"))
        return problems
    if kind == "e_prime":
        return check_e_prime(_cli_matrix(output["stdout"], "E_PRIME"))
    if kind == "normal_form":
        return [p for w, nf in zip(output["words"], output["nf_q1"])
                for p in check_normal_form(w, terms_from_pairs(nf))]
    if kind == "product":
        return [p for (u, v), pr in zip(output["pairs"], output["prod_q1"])
                for p in check_normal_form(u + v, terms_from_pairs(pr))]
    if kind == "pbw":
        return check_pbw(output["d"], output["words"])
    if kind == "nonmember":
        return check_nonmembers(output["failed_checks"])
    if kind == "confluence":
        return check_confluence(output["checks"])
    raise ValueError(f"unknown check {kind!r}")


# -- self-test: every check must reject a planted wrong answer ----------------------

PODLES_ONE_Q1 = [["1 - g g*", "a g*"], ["a* g", "g g*"]]
PODLES_ONE = [["1 - q^2 g g*", "a g*"], ["q a* g", "g g*"]]


def _parse_matrix(rows):
    return [[parse_expression(e) for e in row] for row in rows]


def self_test() -> list:
    """Names of the cases where a check misjudged; empty when all is well."""
    good = {
        "projector accepts the podles-line 1 projector":
            check_projector(_parse_matrix(PODLES_ONE_Q1), 1, 2),
        "closed form accepts criterion 4": check_podles_one(_parse_matrix(PODLES_ONE)),
        "e' accepts [[1]]": check_e_prime(_parse_matrix([["1"]])),
        "normal form accepts a a* = 1 - g g*":
            check_normal_form(["a", "a*"], {(): 1, ("g", "g*"): -1}),
        "PBW accepts degree 1": check_pbw(1, [[], ["a"], ["g"], ["g*"], ["a*"]]),
        "non-members accept the expected failures":
            check_nonmembers([["boundary-zero"], ["boundary-one"]]),
        "confluence accepts a resolved overlap": check_confluence(["overlap g a a*"]),
    }
    planted = {
        "E^2 != E": check_projector(_parse_matrix([["1 - g g*", "2 a g*"],
                                                   ["a* g", "g g*"]]), 1, 2),
        "wrong rank": check_projector(_parse_matrix(PODLES_ONE_Q1), 2, 2),
        "wrong size": check_projector(_parse_matrix(PODLES_ONE_Q1), 1, 3),
        "closed form off by a power of q": check_podles_one(
            _parse_matrix([["1 - q^3 g g*", "a g*"], ["q a* g", "g g*"]])),
        "e' = [[2]]": check_e_prime(_parse_matrix([["2"]])),
        "e' of rank two": check_e_prime(_parse_matrix([["1", "0"], ["0", "1"]])),
        "e' not scalar": check_e_prime(_parse_matrix([["g g*"]])),
        "normal form with a wrong sign": check_normal_form(
            ["a", "a*"], {(): 1, ("g", "g*"): 1}),
        # equal to a a* modulo det, but with terms of weight 1
        "normal form with a term of another weight": check_normal_form(
            ["a", "a*"], {(): 1, ("g", "g*"): -1, ("a",): 1, ("a", "a", "a*"): -1,
                          ("a", "g", "g*"): -1}),
        "PBW basis missing a word": check_pbw(1, [[], ["a"], ["g"], ["g*"]]),
        "PBW basis repeating a word": check_pbw(1, [[], ["a"], ["a"], ["g*"], ["a*"]]),
        "non-member that passed boundary-zero": check_nonmembers([[], ["boundary-one"]]),
        "vacuous confluence": check_confluence(["no-overlaps"]),
    }
    return ([f"rejected a right answer: {k} ({v})" for k, v in good.items() if v]
            + [f"accepted a planted error: {k}" for k, v in planted.items() if not v])


if __name__ == "__main__":
    misjudged = self_test()
    for line in misjudged:
        print(line)
    print("self-test:", "FAIL" if misjudged else "all planted errors rejected")
    sys.exit(1 if misjudged else 0)
