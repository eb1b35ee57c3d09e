"""The README's command-line examples, run and compared with their printed output."""

import io
import pathlib
import re
import shlex

import pytest

from jetvar.cli import cli_dispatch

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _examples():
    """(command line, expected output) for every ``$ jetvar`` line in a ``sh`` block."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    out = []
    for block in re.findall(r"^```sh\n(.*?)^```", text, flags=re.M | re.S):
        command = None
        for line in block.splitlines():
            if line.startswith("$ jetvar "):
                command = line[2:]
                out.append((command, []))
            elif line.strip() and command is not None:
                out[-1][1].append(line)
            else:
                command = None
    return [(command, "".join(line + "\n" for line in lines)) for command, lines in out]


EXAMPLES = _examples()


def test_readme_has_examples():
    assert len(EXAMPLES) >= 5


@pytest.mark.parametrize("command,expected", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_readme_example(command, expected, monkeypatch):
    monkeypatch.chdir(ROOT)
    out = io.StringIO()
    cli_dispatch(shlex.split(command)[1:], out=out)
    assert out.getvalue() == expected
