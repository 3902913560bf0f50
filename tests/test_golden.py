"""Golden outputs: the stdout and exit code of twenty CLI commands, and the
JSON artifact that `--output` writes for three more, compared byte for byte
with the files under tests/golden/.

The commands cover `verify` on every preset, `projector` on the Podleś line
bundles (symbolic and at rational q) and on the trivial base with each
corepresentation, and `pullback` on the Podleś line bundles.  A speed-up that
keeps these files unchanged keeps every CHECK line, matrix and trace the same;
the artifacts also pin the JSON `matrix`, `matrix_at_q`, `labels` and report
fields that stdout does not print.

Regenerate the files, only after an intended change of output, with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from qgalois.cli import main

GOLDEN = Path(__file__).parent / "golden"

COMMANDS = {
    "verify-suq2": ["verify", "--preset", "suq2", "--max-degree", "3"],
    "verify-u1": ["verify", "--preset", "u1", "--max-degree", "3"],
    "verify-trivial-base": ["verify", "--preset", "trivial-base", "--max-degree", "3"],
    "verify-podles-line-1": ["verify", "--preset", "podles-line", "1", "--max-degree", "3"],
    "verify-podles-line--1": ["verify", "--preset", "podles-line", "-1", "--max-degree", "3"],
    "verify-podles-line-2": ["verify", "--preset", "podles-line", "2", "--max-degree", "3"],
    "projector-podles-line-1": ["projector", "--preset", "podles-line", "1"],
    "projector-podles-line--1": ["projector", "--preset", "podles-line", "-1"],
    "projector-podles-line-2": ["projector", "--preset", "podles-line", "2"],
    "projector-podles-line--2": ["projector", "--preset", "podles-line", "-2"],
    "projector-podles-line-3": ["projector", "--preset", "podles-line", "3"],
    "projector-trivial-base-u": ["projector", "--preset", "trivial-base", "--corep", "u"],
    "projector-trivial-base-u-dual": ["projector", "--preset", "trivial-base",
                                      "--corep", "u-dual"],
    "projector-trivial-base-trivial": ["projector", "--preset", "trivial-base",
                                       "--corep", "trivial"],
    "pullback-podles-line-1": ["pullback", "--preset", "podles-line", "1"],
    "pullback-podles-line--1": ["pullback", "--preset", "podles-line", "-1"],
    "pullback-podles-line-2": ["pullback", "--preset", "podles-line", "2"],
    "pullback-podles-line--2": ["pullback", "--preset", "podles-line", "-2"],
    "projector-podles-line-2-q-2": ["projector", "--preset", "podles-line", "2", "--q", "2"],
    "projector-podles-line--2-q-1_3": ["projector", "--preset", "podles-line", "-2",
                                       "--q", "1/3"],
}

# --output artifacts, stored as <name>.artifact.json
ARTIFACTS = {
    "projector-podles-line-2-q-1": ["projector", "--preset", "podles-line", "2", "--q", "1"],
    "projector-trivial-base-u-q-1": ["projector", "--preset", "trivial-base",
                                     "--corep", "u", "--q", "1"],
    "pullback-podles-line--2": ["pullback", "--preset", "podles-line", "-2"],
}


def run_command(argv):
    """Run the CLI in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def write_artifact(argv, path):
    """Run the CLI with --output path; returns the artifact text."""
    code, _, err = run_command([*argv, "--output", str(path)])
    if (code, err) != (0, ""):
        raise AssertionError(f"{argv} exited {code}: {err}")
    return Path(path).read_text()


def _exit_codes():
    return json.loads((GOLDEN / "exit_codes.json").read_text())


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_golden_output(name):
    code, out, err = run_command(COMMANDS[name])
    assert code == _exit_codes()[name]
    assert out == (GOLDEN / f"{name}.txt").read_text()
    assert err == ""


@pytest.mark.parametrize("name", sorted(ARTIFACTS))
def test_golden_artifact(name, tmp_path):
    assert write_artifact(ARTIFACTS[name], tmp_path / "artifact.json") == \
        (GOLDEN / f"{name}.artifact.json").read_text()


def test_golden_files_match_the_command_list():
    assert set(_exit_codes()) == set(COMMANDS)
    assert {p.stem for p in GOLDEN.glob("*.txt")} == set(COMMANDS)
    assert {p.name[:-len(".artifact.json")] for p in GOLDEN.glob("*.artifact.json")} == \
        set(ARTIFACTS)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for name, argv in COMMANDS.items():
        code, out, err = run_command(argv)
        if err:
            sys.exit(f"{name} wrote to stderr: {err}")
        codes[name] = code
        (GOLDEN / f"{name}.txt").write_text(out)
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=1, sort_keys=True) + "\n")
    for name, argv in ARTIFACTS.items():
        write_artifact(argv, GOLDEN / f"{name}.artifact.json")
