"""Every fenced ``python -m repro.experiments|repro.service`` command in the
docs parses under the real CLI parser (nothing runs)."""

import shlex
from pathlib import Path

import pytest

from repro.experiments.__main__ import build_parser as experiments_parser
from repro.service.__main__ import build_parser as service_parser
from tests.tools.reachability import fenced_commands

ROOT = Path(__file__).resolve().parents[1]
PARSERS = {"repro.experiments": experiments_parser, "repro.service": service_parser}
COMMANDS = [
    command
    for doc in ("README.md", "EXPERIMENTS.md", "DESIGN.md")
    for command in fenced_commands(ROOT / doc)
    if command.split()[2] in PARSERS
]


def test_the_docs_have_commands():
    assert len(COMMANDS) >= 40


@pytest.mark.parametrize("command", COMMANDS)
def test_documented_command_parses(command):
    words = shlex.split(command)
    if ">" in words:
        words = words[: words.index(">")]
    try:
        PARSERS[words[2]]().parse_args(words[3:])
    except SystemExit as exc:
        pytest.fail(f"{command!r} is rejected by its parser (exit {exc.code})")
