"""Golden stdout corpus of the README's example commands.

Each example runs in-process through `cli.main` once with each of its
command's two `--format` values (`csv` and `json` for `butterfly`, `text`
and `json` for the rest), in an empty working directory so that
`--out bfly.csv` stays relative.  `tests/data/cli/` holds one transcript
per invocation: the command, its exit code, the sha256 of each file it
wrote and its stdout byte for byte.  The `landau` residual digits depend on
the BLAS build; `TOOLCHAIN` names the one the corpus was recorded with.

Run this file as a script to rewrite the corpus from the current code:

    PYTHONPATH=src python tests/test_cli_corpus.py
"""

from __future__ import annotations

import contextlib
import difflib
import hashlib
import io
import os
import platform
import shlex
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from fluxlattice.cli import main

CORPUS = Path(__file__).resolve().parent / "data" / "cli"
README = Path(__file__).resolve().parents[1] / "README.md"

# the example block of README.md, in its order
EXAMPLES = [
    ["classify", "--flux", "golden"],
    ["classify", "--flux", "7/3"],
    ["verify", "--flux", "1/5", "--gauge", "3"],
    ["verify", "--flux", "golden", "--corrupt"],
    ["invariant", "--flux", "golden", "--max-j", "2"],
    ["spectrum", "--flux", "1/2", "--k-grid", "200"],
    ["spectrum", "--flux", "golden", "--depth", "5", "--k-grid", "30"],
    ["butterfly", "--q-max", "10", "--k-grid", "20", "--check", "--out", "bfly.csv"],
    ["landau", "--r", "1", "--m", "1", "--n-max", "30"],
    ["gauge-check", "--flux", "golden", "--phi-units", "3"],
]

FORMATS = {"butterfly": ("csv", "json")}

CASES = [(f"{i:02d}-{argv[0]}.{fmt}", argv + ["--format", fmt])
         for i, argv in enumerate(EXAMPLES, 1)
         for fmt in FORMATS.get(argv[0], ("text", "json"))]


def test_examples_are_the_readme_block():
    # the one `sh` block of README.md made of fluxlattice commands
    [block] = [text.split("```")[0]
               for text in README.read_text(encoding="utf-8").split("```sh\n")[1:]
               if text.startswith("fluxlattice ")]
    assert [shlex.split(line, comments=True) for line in block.splitlines()] == [
        ["fluxlattice", *argv] for argv in EXAMPLES]


def transcript(argv: list[str]) -> str:
    """Run `fluxlattice argv` in the current directory, which must start
    empty, and return its transcript.  stderr is not recorded."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    lines = [f"$ fluxlattice {' '.join(argv)}", f"exit {code}"]
    for path in sorted(Path().iterdir()):
        lines.append(f"wrote {path.name} sha256 {hashlib.sha256(path.read_bytes()).hexdigest()}")
    return "\n".join(lines) + "\n--- stdout\n" + stdout.getvalue()


def toolchain() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"Python {platform.python_version()}, numpy {np.__version__} with its "
            f"bundled OpenBLAS ({blas['name']} {blas['version']})\n")


@pytest.mark.parametrize("name,argv", CASES, ids=[name for name, _ in CASES])
def test_stdout_matches_the_corpus(monkeypatch, tmp_path, name, argv):
    monkeypatch.chdir(tmp_path)
    actual = transcript(argv)
    expected = (CORPUS / name).read_text(encoding="utf-8")
    if actual != expected:
        diff = difflib.unified_diff(expected.splitlines(keepends=True),
                                    actual.splitlines(keepends=True),
                                    f"corpus/{name}", "actual")
        pytest.fail("".join(diff) + "\ncorpus recorded with "
                    + (CORPUS / "TOOLCHAIN").read_text(encoding="utf-8"), pytrace=False)


def rewrite() -> None:
    CORPUS.mkdir(parents=True, exist_ok=True)
    for stale in CORPUS.iterdir():
        stale.unlink()
    cwd = os.getcwd()
    for name, argv in CASES:
        with tempfile.TemporaryDirectory() as work:
            os.chdir(work)
            try:
                text = transcript(argv)
            finally:
                os.chdir(cwd)
        (CORPUS / name).write_text(text, encoding="utf-8", newline="\n")
    (CORPUS / "TOOLCHAIN").write_text(toolchain(), encoding="utf-8", newline="\n")
    print(f"wrote {len(CASES)} transcripts to {CORPUS}", file=sys.stderr)


if __name__ == "__main__":
    rewrite()
