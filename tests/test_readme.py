"""The README's examples, run as written.

A command of an ``sh`` block is run when a comment gives its output, on its
own line or on the line after it. Each comma-separated part of that comment
must be a line of stdout, or, with no ``=`` in it, the value of one. Timing
parts (a key ending in ``_s``, and ``speedup``) vary between runs and are not
checked, so a command that gives only timings is not run.
"""

import argparse
import re
import shlex
from pathlib import Path

import pytest

from steiner_indices.cli import build_parser, main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```", README, flags=re.M | re.S)


def _examples():
    """(argv, expected stdout lines and values) of each checked command."""
    examples = []
    for block in _blocks("sh"):
        lines = block.splitlines()
        for i, line in enumerate(lines):
            command, _, comment = line.partition("#")
            if not command.startswith("steiner-indices "):
                continue
            if not comment and i + 1 < len(lines) and lines[i + 1].startswith("#"):
                comment = lines[i + 1][1:]
            parts = [p.strip() for p in comment.split(", ") if p.strip()]
            parts = [p for p in parts if not re.match(r"\w+_s =|speedup =", p)]
            if parts:
                examples.append((shlex.split(command)[1:], parts))
    return examples


EXAMPLES = _examples()


def test_the_examples_are_found():
    assert [argv[:3] for argv, _ in EXAMPLES] == [
        ["compute", "--gen", "grid:3,3"],
        ["compute", "--gen", "path:4"],
        ["classify", "--gen", "cycle:6"],
    ]


@pytest.mark.parametrize("argv,parts", EXAMPLES, ids=[" ".join(argv) for argv, _ in EXAMPLES])
def test_command_prints_its_comment(capsys, argv, parts):
    assert main(argv) == 0
    out = capsys.readouterr().out.splitlines()
    values = [line.partition(" = ")[2] for line in out]
    for part in parts:
        assert part in out if " = " in part else part in values, (part, out)


def test_library_block_runs():
    (block,) = _blocks("python")
    exec(compile(block, "README.md", "exec"), {})


def test_documented_flags_are_the_accepted_flags():
    # a removed option cannot stay documented, nor an added one go without
    # mention; each command of the section runs with flags its subcommand takes
    (sub,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    accepted = {
        name: {flag for action in parser._actions for flag in action.option_strings} - {"-h", "--help"}
        for name, parser in sub.choices.items()
    }
    section = README.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    assert set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section)) == set().union(*accepted.values())
    lines = [line.partition("#")[0] for line in section.splitlines() if line.startswith("steiner-indices ")]
    commands = [shlex.split(line)[1:] for line in lines]
    assert commands
    for name, *argv in commands:
        assert {a for a in argv if a.startswith("--")} <= accepted[name], (name, argv)
