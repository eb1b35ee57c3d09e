"""The README's command-line examples, run and compared with their printed
output, its model-file and library examples, run and checked, its
command-line section, checked against the CLI's flags, and the library
surface it points to (``jetvar.__all__``)."""

import argparse
import io
import pathlib
import re
import shlex

import pytest

import jetvar
from jetvar import check_master_equation, parse_model
from jetvar.bv import BVExtension
from jetvar.cli import _build_parser, cli_dispatch

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _readme():
    return (ROOT / "README.md").read_text(encoding="utf-8")


def _blocks(tag):
    """The bodies of the README's fenced blocks tagged ``tag`` ('' for untagged)."""
    blocks = re.findall(r"^```(\w*)\n(.*?)^```$", _readme(), flags=re.M | re.S)
    return [body for kind, body in blocks if kind == tag]


def _examples():
    """(command line, expected output) for every ``$ jetvar`` line in a ``sh`` block."""
    out = []
    for block in _blocks("sh"):
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


def test_readme_model_file_holds_its_master_equation():
    (source,) = [block for block in _blocks("") if block.startswith("vars ")]
    bv = parse_model(source)
    assert isinstance(bv, BVExtension)
    assert check_master_equation(bv).holds


def test_readme_library_example():
    (code,) = _blocks("python")
    namespace = {}
    exec(code, namespace)
    assert namespace["report"].holds


def _cli_flags():
    """Every ``--flag`` of every subcommand, argparse's own ``--help`` aside."""
    flags = set()
    for action in _build_parser()._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                for option in sub._actions:
                    if not isinstance(option, argparse._HelpAction):
                        flags.update(s for s in option.option_strings if s.startswith("--"))
    return flags


def test_readme_command_line_names_exactly_the_cli_flags():
    section = _readme().split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"--[a-z][a-z-]*", section))
    flags = _cli_flags()
    assert named - flags == set(), "README names flags the CLI does not have"
    assert flags - named == set(), "CLI flags the README does not name"


def test_every_exported_name_is_bound():
    assert len(set(jetvar.__all__)) == len(jetvar.__all__)
    assert [name for name in jetvar.__all__ if not hasattr(jetvar, name)] == []
