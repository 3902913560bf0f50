"""Command-line front end: verification suites, projector and pullback
artifacts, and rendering of stored reports.

`qgalois COMMAND [OPTIONS]` takes the options that COMMANDS lists for the
command under their exact names, as `--opt value` or `--opt=value` (USAGE).

`verify` and `projector` read one `Workspace`, the `--input` file's or else the
`--preset`'s (`presets.preset_workspace`).  `pullback --input` picks from it by
the same rule, `Workspace.pick`; `pullback --preset` keeps its own recipe.

Exit codes: 0 all checks pass, 1 at least one check fails, 2 input error,
141 (128 + SIGPIPE) stdout closed before the output was written.
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction
from types import SimpleNamespace

from . import presets
from .cherngalois import (Functional, ProjectorError, projector, trace_rank,
                          verify_pullback_theorem)
from .comodule import verify_coaction
from .connection import CoverageError, check_strong_connection
from .ncalg import NCPoly, Presentation, PresentationError, format_terms
from .presfile import PresentationFileError, parse_workspace
from .report import Report
from .scalars import PoleError, qrat
from .structure import verify_hopf_axioms

PRESET_NAMES = tuple(presets.PRESET_ALGEBRAS)


class InputError(Exception):
    pass


def _parse_preset(values):
    if not values:
        raise InputError("--preset needs a name")
    name = values[0]
    if name not in PRESET_NAMES:
        raise InputError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    if name == "podles-line":
        if len(values) != 2:
            raise InputError("preset podles-line takes a winding number, e.g. "
                             "--preset podles-line 1")
        try:
            n = int(values[1])
        except ValueError:
            raise InputError("winding must be an integer") from None
        if n == 0:
            raise InputError("winding zero has no line bundle")
        return name, n
    if len(values) != 1:
        raise InputError(f"preset {name} takes no extra argument")
    return name, None


def _parse_q(spec: str):
    if spec == "symbolic":
        return None
    try:
        q0 = Fraction(spec)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"--q expects 'symbolic' or a rational number, got {spec!r}") \
            from None
    if q0 == 0:
        raise InputError("--q 0 is rejected; the deformation parameter is invertible")
    return q0


def _specialize_poly(p: NCPoly, q0: Fraction) -> str:
    values = {w: qrat(c.evaluate(q0)) for w, c in p.terms.items()}
    return format_terms(((w, c) for w, c in values.items() if not c.is_zero),
                        p.alg.term_key)


def _matrix_strings(entries, q0=None):
    if q0 is None:
        return [[str(e) for e in row] for row in entries]
    return [[_specialize_poly(e, q0) for e in row] for row in entries]


def _emit(report: Report, out=None):
    for line in report.lines():
        print(line, file=out if out is not None else sys.stdout)


def _write_artifact(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# verify

def _verify_algebra(alg: Presentation) -> Report:
    rep = Report()
    conf = alg.check_local_confluence(max(6, alg._max_rule_len))
    rep.extend(conf, prefix=f"{alg.name}/")
    if alg.hopf is not None:
        rep.extend(verify_hopf_axioms(alg), prefix=f"{alg.name}/")
    return rep


def _read_input(path: str) -> str:
    """The text of an --input file; a path that names no readable UTF-8 file,
    but exists, is an input error."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (IsADirectoryError, NotADirectoryError, PermissionError) as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") \
            from None


def _workspace(args):
    """The --input file's workspace, or else the --preset's (and its --corep)."""
    if args.input:
        return parse_workspace(_read_input(args.input), filename=args.input)
    if not args.preset:
        raise InputError(f"{args.command} needs --preset or --input")
    name, n = _parse_preset(args.preset)
    corep = getattr(args, "corep", None)
    return presets.preset_workspace(name, n, corep) if corep else \
        presets.preset_workspace(name, n)


def cmd_verify(args) -> int:
    ws = _workspace(args)
    if not (ws.algebras or ws.coactions or ws.morphisms or ws.connections):
        raise InputError(f"{args.input} declares nothing to verify")
    rep = Report()
    for alg in ws.algebras.values():
        rep.extend(_verify_algebra(alg))
    for name, delta in ws.coactions.items():
        rep.extend(verify_coaction(delta), prefix=f"{name}/")
    for name, m in ws.morphisms.items():
        rep.extend(m.verify(), prefix=f"{name}/")
    for name, ell in ws.connections.items():
        rep.extend(check_strong_connection(ell, ell.coaction), prefix=f"{name}/")
    _emit(rep)
    if args.output:
        _write_artifact(args.output, {"command": "verify", "report": rep.to_dict()})
    return 0 if rep.ok else 1


# ---------------------------------------------------------------------------
# projector

def _build_projector(args, q0):
    ws = _workspace(args)
    if not (args.input or ws.connections):
        raise InputError(f"projector needs a connection, and preset {args.preset[0]} has none")
    ell = ws.pick(ws.connections, None, "connection")
    corep = ws.pick(ws.coreps, args.corep if args.input else None, "corepresentation")
    delta = ell.coaction
    if q0 is not None and delta.A.hopf is None:
        raise InputError(f"--q {args.q} needs Hopf data on the total algebra {delta.A.name}")
    return projector(ell, corep, Functional.constant_term(delta.A), delta)


def cmd_projector(args) -> int:
    q0 = _parse_q(args.q)
    E = _build_projector(args, q0)
    rep = Report()
    rep.extend(E.report)
    _emit(rep)
    tr = E.trace()
    print(f"TRACE {tr}")
    a_mu = [str(a) for a in E.a_mu]
    print("BASIS " + " | ".join(a_mu))
    matrix = _matrix_strings(E.entries)
    print("MATRIX " + json.dumps(matrix))
    payload = {
        "command": "projector",
        "preset": args.preset,
        "report": rep.to_dict(),
        "a_mu": a_mu,
        "labels": E.labels,
        "matrix": matrix,
        "trace": str(tr),
        "q": "symbolic",
    }
    if q0 is not None:
        payload["q"] = str(q0)
        payload["matrix_at_q"] = _matrix_strings(E.entries, q0)
        payload["trace_at_q"] = _specialize_poly(tr, q0)
        print("MATRIX_AT_Q " + json.dumps(payload["matrix_at_q"]))
        print(f"RANK {trace_rank(E, q0)}")
    if args.output:
        _write_artifact(args.output, payload)
    return 0 if rep.ok else 1


# ---------------------------------------------------------------------------
# pullback

def _resolve_pullback_inputs(args):
    if args.input:
        ws = _workspace(args)
        f = ws.pick(ws.morphisms, args.morphism, "morphism")
        ell = ws.pick(ws.connections, args.connection, "connection")
        corep = ws.pick(ws.coreps, args.corep, "corepresentation")
        delta = ell.coaction
        candidates = [c for c in ws.coactions.values()
                      if c.A is f.target and c.H is delta.H]
        if len(candidates) != 1:
            raise InputError("need exactly one coaction on the morphism target")
        return f, ell, corep, delta, candidates[0]
    # not preset_workspace: the collapse morphism, and a connection that covers
    # every winding up to |n| for the sigma-diagram check
    name, n = _parse_preset(args.preset or ["podles-line", "1"])
    if name != "podles-line":
        raise InputError("pullback supports --preset podles-line N or --input FILE")
    f = presets.collapse_morphism()
    ell = presets.fibration_connection(abs(n))
    corep = presets.u1_corep(n)
    delta = presets.fibration_coaction()
    delta2 = presets.regular_u1_coaction()
    return f, ell, corep, delta, delta2


def cmd_pullback(args) -> int:
    q0 = _parse_q(args.q)
    f, ell, corep, delta, delta2 = _resolve_pullback_inputs(args)
    rep, artifacts = verify_pullback_theorem(f, ell, corep,
                                             Functional.constant_term(delta2.A), delta, delta2)
    _emit(rep)
    payload = {"command": "pullback", "report": rep.to_dict(), "q": "symbolic"}
    if artifacts:
        cert = artifacts["certificate"]
        payload["e_prime"] = _matrix_strings(cert.e_prime)
        payload["d"] = _matrix_strings(cert.d_block)
        payload["kept"] = cert.kept
        print("E_PRIME " + json.dumps(payload["e_prime"]))
        print("D " + json.dumps(payload["d"]))
    if artifacts and args.output:  # E is formed only for the artifact
        payload["E"] = _matrix_strings(artifacts["E"].entries)
        payload["E_prime"] = _matrix_strings(artifacts["E_prime"].entries)
        if q0 is not None:
            payload["q"] = str(q0)
            payload["E_at_q"] = _matrix_strings(artifacts["E"].entries, q0)
    if args.output:
        _write_artifact(args.output, payload)
    return 0 if rep.ok else 1


# ---------------------------------------------------------------------------
# report rendering

MATRIX_FIELDS = ("matrix", "matrix_at_q", "e_prime", "d", "E", "E_prime", "E_at_q")


def _malformed(payload):
    """The first field of an artifact that `report` cannot render, or None."""
    if not isinstance(payload, dict):
        return "the artifact is not an object"
    checks = payload["report"].get("checks") if isinstance(payload["report"], dict) else None
    if not isinstance(checks, list):
        return "report.checks is not a list"
    for i, check in enumerate(checks):
        if not isinstance(check, dict):
            return f"report.checks[{i}] is not an object"
        for key, kind, noun in (("name", str, "string"), ("passed", bool, "boolean")):
            if not isinstance(check.get(key), kind):
                return f"report.checks[{i}].{key} is not a {noun}"
    for key in MATRIX_FIELDS:
        rows = payload.get(key, [])
        if not (isinstance(rows, list) and all(
                isinstance(row, list) and all(isinstance(e, str) for e in row) for row in rows)):
            return f"{key} is not a list of lists of strings"
    return None


def cmd_report(args) -> int:
    if not args.input:
        raise InputError("report needs --input ARTIFACT.json")
    try:
        payload = json.loads(_read_input(args.input))
    except FileNotFoundError:
        raise InputError(f"no artifact at {args.input}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"artifact is not valid JSON: {exc}") from None
    if isinstance(payload, dict) and "report" not in payload:
        raise InputError("artifact carries no report")
    bad = _malformed(payload)
    if bad:
        raise InputError(f"artifact report is malformed: {bad}")
    checks = payload["report"]["checks"]
    print(f"artifact: {payload.get('command', 'unknown')}")
    for check in checks:
        line = f"  {'PASS' if check['passed'] else 'FAIL'}  {check['name']}"
        if check.get("tag"):
            line += f"  [{check['tag']}]"
        if check.get("detail"):
            line += f"  -- {check['detail']}"
        print(line)
    for key in MATRIX_FIELDS:
        if key in payload:
            print(f"{key}:")
            for row in payload[key]:
                print("  [" + ", ".join(row) + "]")
    if "trace" in payload:
        print(f"trace: {payload['trace']}")
    failed = [c for c in checks if not c["passed"]]
    if not failed:
        print("all checks pass")
        return 0
    tag = f" [{failed[0]['tag']}]" if failed[0].get("tag") else ""
    print(f"FAILURES present; first failing identity: {failed[0]['name']}{tag}")
    return 1


# ---------------------------------------------------------------------------

# Options of each command: str takes one value, list one or more, int an integer.
_COMMON = {"--preset": list, "--input": str, "--output": str}
COMMANDS = {
    "verify": {**_COMMON, "--max-degree": int},
    "projector": {**_COMMON, "--corep": str, "--q": str},
    "pullback": {**_COMMON, "--morphism": str, "--connection": str, "--corep": str,
                 "--q": str},
    "report": {"--input": str},
}
DEFAULTS = {"--q": "symbolic"}

USAGE = """usage: qgalois {verify,projector,pullback,report} [OPTIONS]

  verify     --preset PRESET | --input PATH  [--output PATH] [--max-degree N]
  projector  --preset PRESET | --input PATH  [--corep NAME] [--q SPEC] [--output PATH]
  pullback   [--preset podles-line N | --input PATH [--morphism NAME]
             [--connection NAME] [--corep NAME]] [--q SPEC] [--output PATH]
  report     --input ARTIFACT.json

PRESET is suq2 | u1 | podles-line N | trivial-base.  --corep NAME picks the
file's corepresentation, or trivial-base's: u (default), u-dual or trivial.
SPEC is symbolic (default) or a rational like 1 or 3/7.  Options take exact
names, also as --opt=value.
"""


def _usage_error(message):
    print(USAGE.splitlines()[0], f"qgalois: error: {message}", sep="\n", file=sys.stderr)
    raise SystemExit(2)


def parse_args(argv) -> SimpleNamespace:
    """The command and its options, defaults filled in, as the cmd_* functions
    read them.  Usage errors exit 2; -h or --help prints USAGE and exits 0."""
    if "-h" in argv or "--help" in argv:
        print(USAGE, end="")
        raise SystemExit(0)
    if not argv or argv[0] not in COMMANDS:
        _usage_error(f"expected a command ({', '.join(COMMANDS)}), got {(argv or ['none'])[0]}")
    command, options = argv[0], COMMANDS[argv[0]]
    args = SimpleNamespace(command=command, **{o[2:].replace("-", "_"): DEFAULTS.get(o)
                                               for o in options})
    i = 1
    while i < len(argv):
        option, eq, inline = argv[i].partition("=")
        kind = options.get(option)
        if kind is None:
            _usage_error(f"unrecognized argument {argv[i]!r} for {command}")
        j = i = i + 1
        while not eq and j < len(argv) and not argv[j].startswith("--") and (
                j == i or kind is list):
            j += 1
        values, i = ([inline] if eq else argv[i:j]), j
        if not values:
            _usage_error(f"{option} needs a value")
        try:
            value = values if kind is list else kind(values[0])
        except ValueError:
            _usage_error(f"{option} expects an integer, got {values[0]!r}")
        setattr(args, option[2:].replace("-", "_"), value)
    return args


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        return {"verify": cmd_verify, "projector": cmd_projector, "pullback": cmd_pullback,
                "report": cmd_report}[args.command](args)
    except ProjectorError as exc:
        if exc.report is not None:
            _emit(exc.report)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (InputError, PresentationFileError, PresentationError, CoverageError,
            PoleError, FileNotFoundError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: word too long to normalize", file=sys.stderr)
        return 2


def console_main() -> None:
    """main() as a process: exit 141 (128 + SIGPIPE), quietly, when stdout is
    closed before the output is written, as in `qgalois verify ... | true`."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the interpreter flushes stdout once more at shutdown
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)


if __name__ == "__main__":
    console_main()
