"""The four workloads: fixed lists of operations, each with the verdict known
in advance.  The seed chooses the order of the operations and, for join and
rewrite, the sampled inputs; the same seed gives the same list.

An operation is a JSON-able dict: ``id``, ``fn`` (a function in ops.py),
``args``, and ``expect``, one of

* ``{"exit": 0}``: a CLI run that passes every check it prints, and prints one;
* ``{"exit": 1, "fail_on": NAME}``: a negative control; it must FAIL a check
  whose line contains NAME;
* ``{"ok": true}`` / ``{"ok": [..]}``: a library verdict, compared as is;
* ``{"done": true}``: an operation whose verdict is its output (normal forms,
  products, bases); only the independent checks judge it.
"""

from __future__ import annotations

import os
import random

LETTERS = ("a", "g", "g*", "a*")

# Verify degree for the presets: degree 3 keeps one pass near six seconds
# while the degree sweeps still dominate it.
VERIFY_DEGREE = "3"

CORRUPT_COACTION = """
coaction corrupt : suq2 -> suq2 (x) u1
delta a = a (x) u
delta g = g (x) u*
delta g* = g* (x) u*
delta a* = a* (x) u*
"""

BROKEN_CONNECTION = """
connection broken on fibration
L 1 = 1 (x) 1
L u = a* (x) a
"""

NON_EQUIVARIANT = """
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
"""


def control_files(directory: str, root: str) -> dict:
    """Write the three negative-control presentation files of acceptance
    criterion 9 and return their paths relative to `root`, where the
    workers run.

    Each is preset text plus one planted fault: a coaction that breaks a
    relation, a connection with m o l != eps, and a morphism that is not
    equivariant.
    """
    from qgalois.presets import FIBRATION_SOURCE, SUQ2_SOURCE, U1_SOURCE
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for name, text in (("corrupt", SUQ2_SOURCE + U1_SOURCE + CORRUPT_COACTION),
                       ("broken", SUQ2_SOURCE + U1_SOURCE + FIBRATION_SOURCE
                        + BROKEN_CONNECTION),
                       ("noneq", SUQ2_SOURCE + U1_SOURCE + FIBRATION_SOURCE
                        + NON_EQUIVARIANT)):
        path = os.path.join(directory, f"{name}.alg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        paths[name] = os.path.relpath(path, root)
    return paths


def _cli(argv, expect, **meta):
    return {"id": " ".join(argv), "fn": "cli", "args": {"argv": argv}, "expect": expect,
            **meta}


def verify(seed: int, files: dict) -> list:
    ops = [_cli(["verify", "--preset", "suq2", "--max-degree", VERIFY_DEGREE], {"exit": 0}),
           _cli(["verify", "--preset", "u1"], {"exit": 0}),
           _cli(["verify", "--preset", "trivial-base", "--max-degree", VERIFY_DEGREE],
                {"exit": 0})]
    for n in (1, -1, 2):
        ops.append(_cli(["verify", "--preset", "podles-line", str(n),
                         "--max-degree", VERIFY_DEGREE], {"exit": 0}))
    ops += [_cli(["verify", "--input", files["corrupt"], "--max-degree", VERIFY_DEGREE],
                 {"exit": 1, "fail_on": "relation"}),
            _cli(["verify", "--input", files["broken"], "--max-degree", VERIFY_DEGREE],
                 {"exit": 1, "fail_on": "mult-counit"}),
            _cli(["pullback", "--input", files["noneq"]],
                 {"exit": 1, "fail_on": "equivariance"})]
    random.Random(seed).shuffle(ops)
    return ops


def bundle(seed: int, files: dict) -> list:
    ops = []
    for n in (1, -1, 2, -2, 3, -3):
        ops.append(_cli(["projector", "--preset", "podles-line", str(n), "--q", "1"],
                        {"exit": 0}, check="projector", rank=1, size=abs(n) + 1,
                        closed_form=(n == 1)))
    for corep, rank, size in (("u", 2, 8), ("u-dual", 2, 8), ("trivial", 1, 1)):
        ops.append(_cli(["projector", "--preset", "trivial-base", "--corep", corep,
                         "--q", "1"], {"exit": 0}, check="projector", rank=rank, size=size))
    for n in (3, 4):
        ops.append({"id": f"library projector u1_power_connection({n})",
                    "fn": "library_projector", "args": {"n": n}, "expect": {"ok": True},
                    "check": "projector", "rank": 1, "size": n + 1})
    # 15 operations: an odd count puts the median on one operation's times
    # (a cluster near 0.1 s) rather than between two of different sizes
    for n in (1, -1, 2, -2):
        ops.append(_cli(["pullback", "--preset", "podles-line", str(n)], {"exit": 0},
                        check="e_prime"))
    random.Random(seed).shuffle(ops)
    return ops


JOIN_COUNT = 5


def join(seed: int, files: dict) -> list:
    rng = random.Random(seed)
    base = {"seed": seed, "count": JOIN_COUNT}
    ops = []
    for i in range(JOIN_COUNT):
        ops.append({"id": f"join member x{i} and x{i}* at degree 3", "fn": "join_members",
                    "args": dict(base, i=i, degree=3), "expect": {"ok": [True, True]}})
    for i in range(3):
        ops.append({"id": f"join member x{i} x{i + 1} at degree 5",
                    "fn": "join_product_member", "args": dict(base, i=i, degree=5),
                    "expect": {"ok": [True]}})
    ops.append({"id": "join chi-collapse and equivariance", "fn": "join_characters",
                "args": base, "expect": {"ok": [True] * (JOIN_COUNT + 2)}})
    for i in range(2):
        word = [rng.choice(LETTERS) for _ in range(rng.randint(1, 3))]
        ops.append({"id": f"join non-members from x{i}", "fn": "join_nonmembers",
                    "args": dict(base, i=i, word=word, degree=3),
                    "expect": {"ok": [False, False]}, "check": "nonmember"})
    rng.shuffle(ops)
    return ops


def _random_words(rng, count, lo, hi):
    """Random letters; the lengths cycle through lo..hi so that every seed
    draws the same mix of lengths."""
    return [[rng.choice(LETTERS) for _ in range(lo + i % (hi - lo + 1))] for i in range(count)]


def rewrite(seed: int, files: dict) -> list:
    rng = random.Random(seed)
    ops = []
    for k in (10, 20, 30):
        ops.append({"id": f"normal form g*^{k} a^{k}", "fn": "normal_forms",
                    "args": {"words": [["g*"] * k + ["a"] * k]}, "expect": {"done": True},
                    "check": "normal_form"})
    for b in range(3):
        ops.append({"id": f"normal forms of random words, batch {b}", "fn": "normal_forms",
                    "args": {"words": _random_words(rng, 100, 6, 14)},
                    "expect": {"done": True}, "check": "normal_form"})
    pairs = list(zip(_random_words(rng, 40, 3, 7), _random_words(rng, 40, 3, 7)))
    ops.append({"id": "products of normal forms", "fn": "products",
                "args": {"pairs": pairs}, "expect": {"done": True}, "check": "product"})
    ops.append({"id": "local confluence at overlap length 3", "fn": "confluence",
                "args": {"d": 3}, "expect": {"ok": True}, "check": "confluence"})
    ops.append({"id": "basis up to degree 10", "fn": "basis", "args": {"d": 10},
                "expect": {"done": True}, "check": "pbw"})
    rng.shuffle(ops)
    return ops


WORKLOADS = {"verify": verify, "bundle": bundle, "join": join, "rewrite": rewrite}
