import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from qgalois import presets
from qgalois.cli import COMMANDS, console_main, main, parse_args

from sweeps import reference_parser
from test_cherngalois import TORUS_SOURCE


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_suq2(capsys):
    code, out, _ = run(capsys, "verify", "--preset", "suq2", "--max-degree", "4")
    assert code == 0
    assert "CHECK" in out and "FAIL" not in out


def test_verify_u1(capsys):
    code, out, _ = run(capsys, "verify", "--preset", "u1")
    assert code == 0
    assert "FAIL" not in out


def test_verify_podles_line(capsys):
    code, out, _ = run(capsys, "verify", "--preset", "podles-line", "1",
                       "--max-degree", "3")
    assert code == 0


def test_verify_trivial_base(capsys):
    code, out, _ = run(capsys, "verify", "--preset", "trivial-base",
                       "--max-degree", "2")
    assert code == 0


def test_projector_podles(capsys, tmp_path):
    artifact = tmp_path / "podles.json"
    code, out, _ = run(capsys, "projector", "--preset", "podles-line", "1",
                       "--output", str(artifact))
    assert code == 0
    payload = json.loads(artifact.read_text())
    assert payload["matrix"] == [["1 - q^2 g g*", "a g*"],
                                 ["q a* g", "g g*"]]
    assert payload["trace"] == "1 - (q^2-1) g g*"
    assert payload["a_mu"] == ["a*", "g*"]


def test_projector_at_q_one(capsys):
    code, out, _ = run(capsys, "projector", "--preset", "podles-line", "1",
                       "--q", "1")
    assert code == 0
    assert '[["1 - g g*", "a g*"], ["a* g", "g g*"]]' in out
    assert "RANK 1" in out


@pytest.mark.parametrize("n, q, line", [
    ("2", "2", '[["1 - 20 g g* + 64 g g g* g*", "a g* - 4 a g g* g*", "a a g* g*"], '
               '["10 a* g - 160 a* g g g*", "5 g g* - 20 g g g* g*", "5/2 a g g* g*"], '
               '["16 a* a* g g", "4 a* g g g*", "g g g* g*"]]'),
    ("-2", "1/3", '[["1/81 g g g* g*", "1/9 a g g* g*", "a a g* g*"], '
                  '["10/27 a* g g g*", "10/9 g g* - 10/9 g g g* g*", '
                  '"10/3 a g* - 30 a g g* g*"], '
                  '["a* a* g g", "a* g - a* g g g*", "1 - 10 g g* + 9 g g g* g*"]]'),
])
def test_projector_at_rational_q(capsys, n, q, line):
    code, out, _ = run(capsys, "projector", "--preset", "podles-line", n, "--q", q)
    assert code == 0
    assert f"MATRIX_AT_Q {line}\n" in out


def test_projector_rejects_q_zero(capsys):
    code, _, err = run(capsys, "projector", "--preset", "podles-line", "1",
                       "--q", "0")
    assert code == 2
    assert "error" in err


def test_projector_trivial_base(capsys):
    code, out, _ = run(capsys, "projector", "--preset", "trivial-base",
                       "--corep", "u")
    assert code == 0
    assert "TRACE 2" in out


def test_projector_trivial_corep(capsys):
    code, out, _ = run(capsys, "projector", "--preset", "trivial-base",
                       "--corep", "trivial")
    assert code == 0
    assert '[["1"]]' in out


def test_pullback_preset(capsys, tmp_path):
    artifact = tmp_path / "pullback.json"
    code, out, _ = run(capsys, "pullback", "--preset", "podles-line", "1",
                       "--output", str(artifact))
    assert code == 0
    payload = json.loads(artifact.read_text())
    assert payload["e_prime"] == [["1"]]
    assert payload["d"] == [["0"]]
    assert payload["report"]["ok"] is True


def test_report_rendering(capsys, tmp_path):
    artifact = tmp_path / "podles.json"
    run(capsys, "projector", "--preset", "podles-line", "1",
        "--output", str(artifact))
    code, out, _ = run(capsys, "report", "--input", str(artifact))
    assert code == 0
    assert "PASS" in out and "E^2 = E" in out and "trace:" in out


def test_report_pinpoints_first_failure(capsys, tmp_path):
    f = tmp_path / "corrupt.alg"
    f.write_text(presets.SUQ2_SOURCE + presets.U1_SOURCE + """
coaction corrupt : suq2 -> suq2 (x) u1
delta a = a (x) u
delta g = g (x) u*
delta g* = g* (x) u*
delta a* = a* (x) u*
""")
    artifact = tmp_path / "fail.json"
    code, *_ = run(capsys, "verify", "--input", str(f), "--output", str(artifact))
    assert code == 1
    code, out, _ = run(capsys, "report", "--input", str(artifact))
    assert code == 1
    assert "first failing identity" in out


def test_report_missing_artifact(capsys, tmp_path):
    code, _, err = run(capsys, "report", "--input", str(tmp_path / "nope.json"))
    assert code == 2


@pytest.mark.parametrize("command", ["verify", "report"])
@pytest.mark.parametrize("kind, message", [("directory", "Is a directory"),
                                           ("binary", "is not UTF-8 text"),
                                           ("under-a-file", "Not a directory")])
def test_unreadable_input_is_an_input_error(capsys, tmp_path, command, kind, message):
    binary = tmp_path / "binary"
    binary.write_bytes(b"\x89PNG\r\n\x1a\n\xff\xfe")
    path = {"directory": tmp_path, "binary": binary, "under-a-file": binary / "x"}[kind]
    code, out, err = run(capsys, command, "--input", str(path))
    assert code == 2
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err and out == ""


def _cli_process(*argv, **kwargs):
    """`python -m qgalois.cli ARGV` on this checkout's sources."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-m", "qgalois.cli", *argv], text=True,
                          timeout=30, env=env, **kwargs)


@pytest.mark.parametrize("payload", [
    "5", "null", '{"report": 5}', '{"report": {"checks": [5]}}',
    '{"report": {"checks": [{"passed": true}]}}',
], ids=["number", "null", "report-number", "check-number", "check-without-name"])
def test_malformed_artifact_is_an_input_error(tmp_path, payload):
    artifact = tmp_path / "bad.json"
    artifact.write_text(payload)
    proc = _cli_process("report", "--input", str(artifact), capture_output=True)
    assert proc.returncode == 2 and not proc.stdout
    assert proc.stderr.startswith("error: artifact report is malformed: ")
    assert "Traceback" not in proc.stderr


def test_closed_stdout_exits_141_quietly():
    # the reading end is closed before the child writes, as in `qgalois ... | true`
    read, write = os.pipe()
    os.close(read)
    try:
        proc = _cli_process("verify", "--preset", "u1", stdout=write, stderr=subprocess.PIPE)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (141, "")


def test_deterministic_artifacts(capsys, tmp_path):
    a1 = tmp_path / "one.json"
    a2 = tmp_path / "two.json"
    run(capsys, "projector", "--preset", "podles-line", "1", "--output", str(a1))
    run(capsys, "projector", "--preset", "podles-line", "1", "--output", str(a2))
    assert a1.read_bytes() == a2.read_bytes()


def test_malformed_file_is_an_input_error(capsys, tmp_path):
    f = tmp_path / "bad.alg"
    f.write_text("algebra oops\n")
    code, _, err = run(capsys, "verify", "--input", str(f))
    assert code == 2
    assert "error" in err


def test_negative_weight_is_an_input_error(capsys, tmp_path):
    # it passed the termination check and then never finished normalizing
    f = tmp_path / "neg.alg"
    f.write_text("algebra s\ngenerators a b\nweight a -1\nrel b = a a b\n")
    code, out, err = run(capsys, "verify", "--input", str(f))
    assert code == 2 and not out
    assert f"{f}:3: weight of 'a' is negative" in err
    assert "Traceback" not in err


def test_empty_tensor_leg_is_an_input_error(capsys, tmp_path):
    f = tmp_path / "leg.alg"
    src = presets.SUQ2_SOURCE + presets.U1_SOURCE + presets.FIBRATION_SOURCE.replace(
        "delta a = a (x) u", "delta a = a (x)")
    f.write_text(src)
    code, out, err = run(capsys, "verify", "--input", str(f))
    line = src.splitlines().index("delta a = a (x)") + 1
    assert code == 2 and not out
    assert f"{f}:{line}: empty tensor leg" in err


def test_corrupted_coaction_fails_with_exit_one(capsys, tmp_path):
    f = tmp_path / "corrupt.alg"
    f.write_text(presets.SUQ2_SOURCE + presets.U1_SOURCE + """
coaction corrupt : suq2 -> suq2 (x) u1
delta a = a (x) u
delta g = g (x) u*
delta g* = g* (x) u*
delta a* = a* (x) u*
""")
    code, out, _ = run(capsys, "verify", "--input", str(f))
    assert code == 1
    assert "FAIL" in out
    # the witness is the image of the relation a a* = 1 - q^2 g g*
    assert "CHECK corrupt/relation a a* FAIL maps to -q^2 g g* (x) 1 + q^2 g g* (x) u* u*" \
        in out.splitlines()


def test_broken_connection_fails_with_exit_one(capsys, tmp_path):
    f = tmp_path / "broken.alg"
    f.write_text(presets.SUQ2_SOURCE + presets.U1_SOURCE +
                 presets.FIBRATION_SOURCE + """
connection broken on fibration
L 1 = 1 (x) 1
L u = a* (x) a
""")
    code, out, _ = run(capsys, "verify", "--input", str(f))
    assert code == 1
    assert any("mult-counit" in line and "FAIL" in line
               for line in out.splitlines())


def test_non_equivariant_pullback_rejected(capsys, tmp_path):
    f = tmp_path / "noneq.alg"
    f.write_text(presets.SUQ2_SOURCE + presets.U1_SOURCE +
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
    code, out, _ = run(capsys, "pullback", "--input", str(f))
    assert code == 1
    assert any("equivariance" in line and "FAIL" in line
               for line in out.splitlines())


def test_file_driven_pullback_passes(capsys, tmp_path):
    f = tmp_path / "good.alg"
    f.write_text(presets.SUQ2_SOURCE + presets.U1_SOURCE +
                 presets.FIBRATION_SOURCE + """
coaction regu1 : u1 -> u1 (x) u1
delta u = u (x) u
delta u* = u* (x) u*
connection hopf1 on fibration
L 1 = 1 (x) 1
L u = a* (x) a + g* (x) g
L u* = a (x) a* + q^2 g (x) g*
corep line dim 1 over u1
row u
""" + presets.COLLAPSE_SOURCE)
    code, out, _ = run(capsys, "pullback", "--input", str(f))
    assert code == 0


# the README's u1 presentation file, which the CI's console-script step writes
U1_FILE = presets.U1_SOURCE + """
coaction reg : u1 -> u1 (x) u1
delta u = u (x) u
delta u* = u* (x) u*
corep line dim 1 over u1
row u
connection triv on reg
L 1 = 1 (x) 1
L u = u* (x) u
"""
TWO_CONNECTIONS = U1_FILE + "connection other on reg\nL 1 = 1 (x) 1\nL u = u* (x) u\n"
IDENTITY = "morphism id : u1 -> u1\nf u = u\nf u* = u*\n"


@pytest.mark.parametrize("source, argv, lines", [
    pytest.param(U1_FILE, [], ["TRACE 1"], id="u1"),
    pytest.param(U1_FILE, ["--q", "1"], ["TRACE 1", "RANK 1"], id="u1-q-1"),
    pytest.param(U1_FILE, ["--corep", "line"], ["TRACE 1"], id="u1-corep"),
    # dim c = 2 and U != I: E is 4 x 4 with off-diagonal entries v y*, v* y
    pytest.param(TORUS_SOURCE, [], ["TRACE 2", "BASIS v* | y*"], id="torus"),
])
def test_projector_reads_a_presentation_file(capsys, tmp_path, source, argv, lines):
    f = tmp_path / "bundle.alg"
    f.write_text(source)
    code, out, err = run(capsys, "projector", "--input", str(f), *argv)
    assert (code, err) == (0, "")
    assert "CHECK idempotent PASS E = X Y with Y X = I_" in out
    assert set(lines) <= set(out.splitlines())


@pytest.mark.parametrize("source, argv, message", [
    pytest.param(TWO_CONNECTIONS, [], "expected exactly one connection, found ['other', 'triv']",
                 id="two-connections"),
    pytest.param(U1_FILE, ["--corep", "nope"], "no corepresentation named 'nope', found ['line']",
                 id="unknown-corep"),
    # t2 carries no Hopf data, so the counit behind RANK is missing; nothing prints
    pytest.param(TORUS_SOURCE, ["--q", "1"], "--q 1 needs Hopf data on the total algebra t2",
                 id="q-without-hopf"),
    pytest.param(None, ["--preset", "suq2"], "projector needs a connection, and preset suq2 "
                 "has none", id="preset-suq2"),
    pytest.param(None, ["--preset", "u1"], "projector needs a connection, and preset u1 "
                 "has none", id="preset-u1"),
    pytest.param(None, ["--preset", "trivial-base", "--corep", "x"],
                 "unknown corep 'x' (u, u-dual, trivial)", id="preset-unknown-corep"),
    pytest.param(None, [], "projector needs --preset or --input", id="no-input"),
])
def test_projector_input_errors(capsys, tmp_path, source, argv, message):
    if source is not None:
        f = tmp_path / "bundle.alg"
        f.write_text(source)
        argv = ["--input", str(f), *argv]
    code, out, err = run(capsys, "projector", *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, code, err", [
    pytest.param([], 0, "", id="only-corep"),
    pytest.param(["--corep", "line"], 0, "", id="named-corep"),
    pytest.param(["--corep", "nope"], 2, "error: no corepresentation named 'nope', "
                 "found ['line']\n", id="unknown-corep"),
])
def test_pullback_corep_picks_the_corepresentation(capsys, tmp_path, argv, code, err):
    f = tmp_path / "identity.alg"
    f.write_text(U1_FILE + IDENTITY)
    assert run(capsys, "pullback", "--input", str(f), *argv)[::2] == (code, err)


@pytest.mark.parametrize("name, n, corep, keys", [
    ("suq2", None, "u", [["suq2"], [], [], []]),
    ("u1", None, "u", [["u1"], [], [], []]),
    ("podles-line", 1, "u", [["suq2", "u1"], ["fibration"], ["line-1"], ["u^1"]]),
    ("podles-line", -2, "u", [["suq2", "u1"], ["fibration"], ["line--2"], ["u^-2"]]),
    ("trivial-base", None, "u", [["suq2"], ["regular"], ["trivial-connection"], ["u"]]),
    ("trivial-base", None, "u-dual",
     [["suq2"], ["regular"], ["trivial-connection"], ["u-dual"]]),
    ("trivial-base", None, "trivial",
     [["suq2"], ["regular"], ["trivial-connection"], ["trivial"]]),
])
def test_preset_workspace_keys(name, n, corep, keys):
    # the keys are the prefixes that the goldens of verify --preset print
    ws = presets.preset_workspace(name, n, corep)
    assert [list(t) for t in (ws.algebras, ws.coactions, ws.connections, ws.coreps)] == keys
    assert ws.morphisms == {}
    assert presets.preset_workspace(name, n).coreps.keys() == (
        {"u"} if name == "trivial-base" else ws.coreps.keys())


@pytest.mark.parametrize("argv", [
    pytest.param(["pullback", "--preset", "podles-line", "1", "--max-degree", "3"],
                 id="pullback"),
    pytest.param(["projector", "--preset", "podles-line", "1", "--max-degree", "3"],
                 id="projector"),
    pytest.param(["verify", "--preset", "u1", "--q", "2"], id="verify-q"),
    *(pytest.param([command, "--preset", "podles-line", "1", "--functional",
                    "constant-term"], id=f"{command}-functional")
      for command in ("verify", "projector", "pullback")),
])
def test_max_degree_is_verify_only(capsys, argv):
    # no pullback certificate is truncated, so there is no degree to set;
    # verify specializes nothing at a rational q; and constant-term is the
    # only functional, so no command takes one
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, code", [
    (["verify", "--preset", "u1"], 0),
    (["verify", "--preset", "nonesuch"], 2),
], ids=["u1", "unknown-preset"])
def test_console_main_exits_with_the_code(capsys, monkeypatch, argv, code):
    monkeypatch.setattr(sys, "argv", ["qgalois", *argv])
    with pytest.raises(SystemExit) as exc:
        console_main()
    assert exc.value.code == code


@pytest.mark.parametrize("argv, outcome", [
    pytest.param(["--help"], 0, id="help"),
    pytest.param([], 2, id="no-command"),
    pytest.param(["verify", "--max-degree", "x"], 2, id="max-degree-not-int"),
    pytest.param(["verify", "--bogus"], 2, id="unknown-option"),
    pytest.param(["verify", "--preset", "u1", "--output"], 2, id="missing-value"),
    pytest.param(["projector", "--q=1/3"], {"q": "1/3"}, id="equals-form"),
    pytest.param(["verify", "--preset", "podles-line", "-1"],
                 {"preset": ["podles-line", "-1"]}, id="dash-value"),
])
def test_command_line_grammar(capsys, argv, outcome):
    if isinstance(outcome, dict):
        args = parse_args(argv)
        assert {name: getattr(args, name) for name in outcome} == outcome
        return
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == outcome
    out, err = capsys.readouterr()
    if outcome == 0:
        assert all(command in out for command in ("verify", "projector", "pullback", "report"))
    else:
        assert out == "" and err.startswith("usage: qgalois ")
        assert err.splitlines()[1].startswith("qgalois: error: ")


CLI_OPTIONS = sorted({option for options in COMMANDS.values() for option in options}
                     | {"--bogus"})
CLI_VALUES = st.sampled_from(["-1", "-2.5", "x", "1/3", "u1", "podles-line", "2", "report"])


def cli_tokens(options):
    """Argument groups, mostly well formed, for a command with these options;
    about one name in four is any command's option or unknown."""
    name = st.sampled_from(sorted(options) * 8 + CLI_OPTIONS)
    return st.one_of(*[st.tuples(name, CLI_VALUES).map(list)] * 3,  # --opt value
                     *[st.builds("{}={}".format, name, CLI_VALUES).map(lambda t: [t])] * 2,
                     st.tuples(name, CLI_VALUES, CLI_VALUES).map(list),  # a list or a stray
                     name.map(lambda n: [n]),  # a missing value
                     CLI_VALUES.map(lambda v: [v]))  # a stray token


def _parse_outcome(parse, argv):
    with contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(parse(argv))
        except SystemExit as exc:
            return exc.code


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_parser_agrees_with_argparse(data):
    """parse_args and the argparse oracle give the same namespace, or both
    exit 2, on exact names, --opt=value forms, repeats, missing values,
    unknown options, stray tokens and values such as -1, x and 1/3.

    Deliberate differences, not drawn: abbreviations (argparse reads `--max`
    as `--max-degree`); the `-h`/`--help` text; values that argparse takes for flags because they
    start with a dash and are no negative number (`--q -1/3`, `--output -x`),
    which parse_args takes as values; and argparse's `--` end-of-options
    marker.  `--preset=podles-line 1` is no difference: both refuse the
    stray `1`, as `--opt=value` gives one value."""
    command = data.draw(st.sampled_from([None, "nonesuch", *COMMANDS] + [*COMMANDS] * 2))
    rest = sum(data.draw(st.lists(cli_tokens(COMMANDS.get(command, CLI_OPTIONS)),
                                  max_size=4)), [])
    argv = ([command] if command else []) + rest
    options = COMMANDS.get(argv[0] if argv else None, {})  # a stray may be a command
    assume(not any(name not in options and any(o.startswith(name) for o in options)
                   for name in (t.partition("=")[0] for t in rest if t.startswith("--"))))
    assert _parse_outcome(parse_args, argv) == \
        _parse_outcome(reference_parser().parse_args, argv)


def test_cli_does_not_import_argparse():
    # a cold command pays for no argparse, gettext or its locale lookup
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import contextlib, io, sys\n"
            "from qgalois.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = main(['verify', '--preset', 'u1'])\n"
            "print(code, sorted({'argparse', 'gettext'} & set(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=30, env=env)
    assert proc.stdout == "0 []\n", proc.stderr


def test_verify_needs_preset_or_input(capsys):
    code, _, err = run(capsys, "verify")
    assert code == 2


def test_empty_input_is_an_input_error(capsys, tmp_path):
    f = tmp_path / "empty.alg"
    f.write_text("# only a comment\n")
    code, out, err = run(capsys, "verify", "--input", str(f))
    assert code == 2
    assert "CHECK" not in out
    assert "nothing to verify" in err


def long_word_file(path, word):
    path.write_text(presets.SUQ2_SOURCE + presets.U1_SOURCE +
                    presets.FIBRATION_SOURCE + f"""
connection long on fibration
L 1 = 1 (x) 1
L u = {word} (x) a
""")


def test_long_word_normalizes(capsys, tmp_path):
    f = tmp_path / "long.alg"
    long_word_file(f, " ".join(["g*"] * 40 + ["a"] * 40))
    code, out, err = run(capsys, "verify", "--input", str(f))
    assert code == 1
    assert err == ""
    # m(l(u)) = g*^40 a^41 = q^(-40*41) a^41 g*^40 by g* a = q^-1 a g*
    word = " ".join(["a"] * 41 + ["g*"] * 40)
    assert f"CHECK long/mult-counit u FAIL m(l(c)) = 1/q^1640 {word}, eps(c) = 1" in out


OSCILLATOR = """
algebra osc
generators b b*
star b b*
order b < b*
rel b* b = q b b* + 1
"""


def test_word_too_deep_to_normalize_is_an_input_error(tmp_path):
    # b* b = q b b* + 1 is not a q-commutation, so moving b in front of 3000
    # letters b* folds its right side back one nested seam step per letter,
    # deeper than the interpreter's recursion limit
    f = tmp_path / "deep.alg"
    f.write_text(OSCILLATOR + "morphism deep : osc -> osc\n"
                 f"f b = {' '.join(['b*'] * 3000 + ['b'])}\nf b* = b*\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "qgalois.cli", "verify", "--input", str(f)],
                          capture_output=True, text=True, timeout=5, env=env)
    assert proc.returncode == 2
    assert proc.stderr == "error: word too long to normalize\n"


def test_non_confluent_algebra_is_an_input_error(capsys, tmp_path):
    f = tmp_path / "clash.alg"
    f.write_text("""
algebra clash
generators z
rel z z z = 0
rel z z = z
""")
    code, out, err = run(capsys, "verify", "--input", str(f))
    assert code == 2
    assert "CHECK" not in out
    assert err.endswith("clash.alg:2: rewrite system is not confluent: "
                        "overlap z z z z: reductions differ by -z; "
                        "overlap z z z: reductions differ by -z\n")


def test_non_scalar_counit_is_an_input_error(capsys, tmp_path):
    f = tmp_path / "counit.alg"
    f.write_text(presets.U1_SOURCE.replace("counit u = 1", "counit u = u"))
    code, out, err = run(capsys, "verify", "--input", str(f))
    assert code == 2
    assert "CHECK" not in out
    line = presets.U1_SOURCE[:presets.U1_SOURCE.index("counit u =")].count("\n") + 1
    assert f"counit.alg:{line}: counit of u must be a scalar" in err


HOPF1_TABLE = """
connection hopf1 on fibration
L 1 = 1 (x) 1
L u = a* (x) a + g* (x) g
"""


def test_contradictory_connection_line_is_an_input_error(capsys, tmp_path):
    f = tmp_path / "contra.alg"
    text = (presets.SUQ2_SOURCE + presets.U1_SOURCE + presets.FIBRATION_SOURCE +
            HOPF1_TABLE + "L u = 0 (x) 1\n")
    f.write_text(text)
    code, out, err = run(capsys, "verify", "--input", str(f))
    assert code == 2
    assert "CHECK" not in out
    bad_line = text.count("\n")
    assert f"contra.alg:{bad_line}: table value at u contradicts the earlier lines" in err


def test_consistent_duplicate_connection_line_loads(capsys, tmp_path):
    f = tmp_path / "dup.alg"
    f.write_text(presets.SUQ2_SOURCE + presets.U1_SOURCE +
                 presets.FIBRATION_SOURCE + HOPF1_TABLE +
                 "L u = g* (x) g + a* (x) a\n")
    code, out, _ = run(capsys, "verify", "--input", str(f), "--max-degree", "2")
    assert code == 0
    assert "CHECK hopf1/mult-counit u PASS" in out


def test_huge_exponent_is_an_input_error(tmp_path):
    f = tmp_path / "power.alg"
    f.write_text(presets.SUQ2_SOURCE.replace("rel a* a = 1 - g g*",
                                             "rel a* a = q^100000 a a*"))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "qgalois.cli", "verify", "--input", str(f)],
                          capture_output=True, text=True, timeout=5, env=env)
    assert proc.returncode == 2
    line = presets.SUQ2_SOURCE[:presets.SUQ2_SOURCE.index("rel a* a")].count("\n") + 1
    assert f"power.alg:{line}: exponent 100000 exceeds the limit 1000" in proc.stderr


def test_exponent_tower_is_an_input_error(tmp_path):
    # each exponent is within the limit, but the result's q-degree is 10^7
    f = tmp_path / "tower.alg"
    f.write_text(presets.SUQ2_SOURCE.replace("rel a* a = 1 - g g*",
                                             "rel a* a = ((q^1000)^1000)^10 a a*"))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "qgalois.cli", "verify", "--input", str(f)],
                          capture_output=True, text=True, timeout=5, env=env)
    assert proc.returncode == 2
    line = presets.SUQ2_SOURCE[:presets.SUQ2_SOURCE.index("rel a* a")].count("\n") + 1
    assert f"tower.alg:{line}: power of q-degree 1000000 exceeds the limit 1000" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_coefficient_tower_is_an_input_error(tmp_path):
    # each exponent and degree is within its limit, but the result's
    # coefficient would have 10^9 bits
    f = tmp_path / "tower.alg"
    f.write_text(presets.SUQ2_SOURCE.replace("rel a* a = 1 - g g*",
                                             "rel a* a = ((2^1000)^1000)^1000 a a*"))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "qgalois.cli", "verify", "--input", str(f)],
                          capture_output=True, text=True, timeout=5, env=env)
    assert proc.returncode == 2
    line = presets.SUQ2_SOURCE[:presets.SUQ2_SOURCE.index("rel a* a")].count("\n") + 1
    assert (f"tower.alg:{line}: power with coefficients of an estimated 1001000 bits "
            "exceeds the limit 3000") in proc.stderr
    assert "Traceback" not in proc.stderr


def test_malformed_header_is_an_input_error_under_optimization(tmp_path):
    # header fields are checked by code that python -O keeps
    f = tmp_path / "header.alg"
    fibration = presets.FIBRATION_SOURCE.replace("coaction fibration : suq2 -> suq2 (x) u1",
                                                 "coaction fibration = suq2 => suq2 (x) u1")
    assert fibration != presets.FIBRATION_SOURCE
    f.write_text(presets.SUQ2_SOURCE + presets.U1_SOURCE + fibration)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-O", "-m", "qgalois.cli", "verify", "--input",
                           str(f)], capture_output=True, text=True, timeout=10, env=env)
    assert proc.returncode == 2
    assert "coaction header must read 'coaction NAME : A -> A (x) H'" in proc.stderr


# A valid file: B is the circle Hopf algebra on b, c = b*, coacting on itself,
# with its connection and the identity morphism.  The fuzz test drops lines and
# blocks and replaces right sides, so most files get past the parser.
FUZZ_BASE = {
    "algebra B": ["generators b c", "star b c", "rel b c = 1", "rel c b = 1",
                  "coproduct b = b (x) b", "coproduct c = c (x) c", "counit b = 1",
                  "counit c = 1", "antipode b = c", "antipode c = b", "antipode_inv b = c",
                  "antipode_inv c = b"],
    "coaction d : B -> B (x) B": ["delta b = b (x) b", "delta c = c (x) c"],
    "connection l on d": ["L 1 = 1 (x) 1", "L b = c (x) b"],
    "morphism m : B -> B": ["f b = b", "f c = c"],
}
fuzz_word = st.lists(st.sampled_from(["b", "c"]), max_size=3).map(lambda w: " ".join(w) or "1")
fuzz_coeff = st.sampled_from(["", "2 ", "-1 ", "q ", "-1/q ", "(1 - q^2) "])
fuzz_elem = st.lists(st.builds("{}{}".format, fuzz_coeff, fuzz_word),
                     min_size=1, max_size=3).map(" + ".join)
fuzz_tensor = st.lists(st.builds("{}{} (x) {}".format, fuzz_coeff, fuzz_word, fuzz_word),
                       min_size=1, max_size=2).map(" + ".join)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_fuzzed_presentation_files_exit_0_1_or_2(tmp_path, data):
    text = []
    for header, body in FUZZ_BASE.items():
        if header != "algebra B" and not data.draw(st.booleans()):
            continue
        text.append(header)
        for line in body:
            left, sep, right = line.partition(" = ")
            variant = fuzz_tensor if "(x)" in right else fuzz_elem
            edit = data.draw(st.sampled_from(["keep"] * 6 + ["drop", "replace"]))
            if edit == "keep" or (edit == "replace" and not sep):
                text.append(line)
            elif edit == "replace":
                text.append(left + " = " + data.draw(variant))
    f = tmp_path / "fuzz.alg"
    f.write_text("\n".join(text) + "\n")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(["verify", "--input", str(f)])
    assert code in (0, 1, 2)
