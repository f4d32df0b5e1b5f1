"""Golden tests: command lines print what they printed when their
transcript was recorded.

Two transcripts are replayed.  ``tests/data/readme_commands.txt`` holds the
``dominantk ...`` lines of the README's ``sh`` blocks.
``tests/data/oracle_commands.txt`` holds the Smith-normal-form routes: SNF
truncations, nerves and derived-limit oracles on the rank-2 to rank-4
matrices, in both directions and both output formats.  It ends with the
weight level, chamber reduction and compact report on affine_a2 and e9,
whose output rests on the dual Kac labels and the complementary indices,
and then with the type classification, the sector scan's per-step verdicts,
the hat decomposition and maximal purity on E10, which rest on the
node-removal test and the continuation mask.  Last come SNF truncations and
limit oracles on ext4 and hyper_rank3 at larger L, whose frontier and window
rest on the projection of the longest element w_T, and an E10 spinor
character, whose Levi roots are the inversions of w_J.  The transcript
closes with Levi characters and Dirac induction, recorded by dividing the
alternating W_J-sum by the Weyl denominator and now computed by
Freudenthal's recursion: G2 at (1,1), B2 at (2,1) in tsv, G2 Dirac at the
non-dominant (-2,3), and E10 Dirac on the D4 Levi (4,5,6,8) at a weight
that is negative on J.  Then comes an ext4 colimit oracle at L = 6,
recorded while the colimit functor dominantized weights and now built from
pure double-coset representatives and left strips, and then the
E10 extended report at L = 7, recorded while every one of its 1,024 coset
calls filtered the ball and now read from the walked quotient W^{I0}.  It
closes with a usage error: the compact report takes no length bound, so
``ktheory compact --max-length`` exits 2 with nothing on stdout.

Each command runs in-process through ``cli.main`` from the repository root;
its stdout and exit status are compared with the transcript.  Regenerate a
transcript after a deliberate change of output with
``PYTHONPATH=src python tests/test_readme.py readme > tests/data/readme_commands.txt``
(or ``oracle > tests/data/oracle_commands.txt``); the oracle commands are
read from the ``$`` lines of the recorded transcript itself.
"""

import contextlib
import io
import os
import shlex
import sys
from pathlib import Path

from dominantk import cli

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent / "data"
README_GOLDEN = DATA / "readme_commands.txt"
ORACLE_GOLDEN = DATA / "oracle_commands.txt"


def readme_commands() -> list[str]:
    """The ``dominantk`` lines of the README's ``sh`` blocks, in order."""
    commands, inside = [], False
    for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            inside = line.strip() == "```sh"
        elif inside and line.startswith("dominantk "):
            commands.append(line.strip())
    return commands


def recorded_commands(golden: Path) -> list[str]:
    """The commands of a recorded transcript, in order."""
    return [line[2:] for line in golden.read_text(encoding="utf-8").splitlines()
            if line.startswith("$ dominantk ")]


def transcript(commands) -> str:
    """Each command as ``$ <command>``, its stdout, then ``[exit <status>]``."""
    chunks = []
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        for command in commands:
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
    assert len(readme_commands()) == 14
    assert transcript(readme_commands()) == README_GOLDEN.read_text(encoding="utf-8")


def test_oracle_commands_match_golden():
    commands = recorded_commands(ORACLE_GOLDEN)
    assert len(commands) == 39
    assert transcript(commands) == ORACLE_GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    which = sys.argv[1] if len(sys.argv) > 1 else "readme"
    sys.stdout.write(transcript(
        readme_commands() if which == "readme" else recorded_commands(ORACLE_GOLDEN)))
