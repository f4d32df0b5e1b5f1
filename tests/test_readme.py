"""Golden test: the ``sh`` examples of README.md print what they printed
when ``tests/data/readme_commands.txt`` was recorded.

Each ``dominantk ...`` line of the command-line block runs in-process through
``cli.main`` from the repository root; its stdout and exit status are
compared with the recorded transcript.  Regenerate the transcript with
``PYTHONPATH=src python tests/test_readme.py > tests/data/readme_commands.txt``
after a deliberate change of output.
"""

import contextlib
import io
import os
import shlex
import sys
from pathlib import Path

from dominantk import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "data" / "readme_commands.txt"


def readme_commands() -> list[str]:
    """The ``dominantk`` lines of the README's ``sh`` blocks, in order."""
    commands, inside = [], False
    for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            inside = line.strip() == "```sh"
        elif inside and line.startswith("dominantk "):
            commands.append(line.strip())
    return commands


def transcript() -> str:
    """Each command as ``$ <command>``, its stdout, then ``[exit <status>]``."""
    chunks = []
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        for command in readme_commands():
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                try:
                    status = cli.main(shlex.split(command)[1:])
                except SystemExit as exc:
                    status = exc.code
            chunks.append(f"$ {command}\n{out.getvalue()}[exit {status}]\n")
    finally:
        os.chdir(cwd)
    return "".join(chunks)


def test_readme_commands_match_golden():
    assert len(readme_commands()) == 13
    assert transcript() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    sys.stdout.write(transcript())
