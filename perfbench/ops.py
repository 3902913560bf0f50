"""Operations the benchmark times, one per worker process.

Each operation is a function ``op(args) -> (run, describe)``.  Everything
before ``run`` is input preparation and is not timed; ``run()`` is the timed
call from the operation's start to its verdict and returns the verdict;
``describe()`` is called after the clock stops and returns the outputs the
independent checks read.  Verdicts and outputs are plain JSON values.

This module imports qgalois; the parent process never imports it.
"""

from __future__ import annotations

import contextlib
import io
import random

import qgalois as qg
from qgalois import presets
from qgalois.cli import main as cli_main


def _terms_at_one(p) -> list:
    """Terms of an NCPoly specialized at q = 1, as [[letters], "num/den"]."""
    return [[list(w), str(c.evaluate(1))] for w, c in sorted(p.terms.items())]


def cli(args):
    """One `qgalois` invocation through its entry point, output captured."""
    argv = list(args["argv"])
    out, err = io.StringIO(), io.StringIO()
    box = {}

    def run():
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli_main(argv)
            except SystemExit as exc:  # argparse rejects its input this way
                code = exc.code if isinstance(exc.code, int) else 2
        box["stdout"] = out.getvalue()
        box["stderr"] = err.getvalue()
        return {"exit": code,
                "checks": sum(1 for ln in box["stdout"].splitlines()
                              if ln.startswith("CHECK ")),
                "fails": [ln for ln in box["stdout"].splitlines()
                          if ln.startswith("CHECK ") and " FAIL" in ln]}

    return run, lambda: box


def library_projector(args):
    """`projector` on the stock power connection of winding n."""
    n = args["n"]
    ell = presets.u1_power_connection(n)
    corep = presets.u1_corep(n)
    phi = qg.Functional.constant_term(presets.suq2())
    delta = presets.fibration_coaction()
    box = {}

    def run():
        box["E"] = qg.projector(ell, corep, phi, delta)
        return {"ok": box["E"].report.ok}

    return run, lambda: {"matrix_q1": [[_terms_at_one(e) for e in row]
                                       for row in box["E"].entries]}


def _join_inputs(args):
    reg = presets.regular_suq2_coaction()
    xs = qg.sample_join_elements(reg, random.Random(args["seed"]), count=args["count"])
    return reg, xs


def join_members(args):
    """join_membership of one sampled element and of its star."""
    _, xs = _join_inputs(args)
    x = xs[args["i"]]
    xstar = x.star()
    d = args["degree"]

    def run():
        return {"ok": [qg.join_membership(x, d).ok, qg.join_membership(xstar, d).ok]}

    return run, lambda: {}


def join_product_member(args):
    """join_membership of the product of two consecutive sampled elements."""
    _, xs = _join_inputs(args)
    x, y = xs[args["i"]], xs[args["i"] + 1]
    d = args["degree"]

    def run():
        return {"ok": [qg.join_membership(qg.join_product(x, y), d).ok]}

    return run, lambda: {}


def join_characters(args):
    """chi-collapse of the path a -> a, and chi-equivariance of every sample."""
    reg, xs = _join_inputs(args)
    A = presets.suq2()
    chi = qg.counit_character(A)
    path = qg.join_path(reg, A.gen("a"), A.gen("a"))

    def run():
        collapse = qg.chi_collapse(path, chi) == A.gen("a")
        return {"ok": [collapse] + [qg.chi_equivariance(s, chi) for s in xs + [path]]}

    return run, lambda: {}


def join_nonmembers(args):
    """Sampled elements pushed off one boundary: x + (1-t)(w (x) 1) leaves
    C (x) H at t = 0, x + t(w (x) 1) leaves the coaction image at t = 1."""
    reg, xs = _join_inputs(args)
    A, H = reg.A, reg.H
    x = xs[args["i"]]
    w = tuple(args["word"])
    z = qg.TensorElem((A, H), {(w, ()): qg.QRat(1)})
    off_zero = x + qg.JoinElement(reg, qg.TPoly((A, H), {0: z, 1: -z}), x.cap)
    off_one = x + qg.JoinElement(reg, qg.TPoly((A, H), {1: z}), x.cap)
    d = args["degree"]
    box = {}

    def run():
        box["reports"] = [qg.join_membership(off_zero, d), qg.join_membership(off_one, d)]
        return {"ok": [r.ok for r in box["reports"]]}

    return run, lambda: {"failed_checks": [[c.name for c in r.failures()]
                                           for r in box["reports"]]}


def normal_forms(args):
    """Normal forms of a list of words."""
    A = presets.suq2()
    words = [tuple(w) for w in args["words"]]
    box = {}

    def run():
        box["nf"] = [A.word(*w) for w in words]
        return {"count": len(box["nf"])}

    return run, lambda: {"words": args["words"],
                         "nf_q1": [_terms_at_one(p) for p in box["nf"]]}


def products(args):
    """Products of the normal forms of word pairs."""
    A = presets.suq2()
    pairs = [(A.word(*u), A.word(*v)) for u, v in args["pairs"]]
    box = {}

    def run():
        box["prod"] = [p * r for p, r in pairs]
        return {"count": len(box["prod"])}

    return run, lambda: {"pairs": args["pairs"],
                         "prod_q1": [_terms_at_one(p) for p in box["prod"]]}


def confluence(args):
    """check_local_confluence at the given overlap length."""
    A = presets.suq2()
    box = {}

    def run():
        box["report"] = A.check_local_confluence(args["d"])
        return {"ok": box["report"].ok}

    return run, lambda: {"checks": [c.name for c in box["report"].checks]}


def basis(args):
    """basis_up_to_degree(d) of SU_q(2)."""
    A = presets.suq2()
    box = {}

    def run():
        box["words"] = A.basis_up_to_degree(args["d"])
        return {"count": len(box["words"])}

    return run, lambda: {"d": args["d"], "words": [list(w) for w in box["words"]]}


OPS = {f.__name__: f for f in (cli, library_projector, join_members, join_product_member,
                               join_characters, join_nonmembers, normal_forms, products,
                               confluence, basis)}
