"""Every fenced ``python -m repro.experiments|repro.service`` command in the
docs, and every such command in ``ci.yml``'s run blocks, parses under the
real CLI parser (nothing runs)."""

import re
import shlex
from pathlib import Path

import pytest

from repro.experiments.__main__ import build_parser as experiments_parser
from repro.service.__main__ import build_parser as service_parser
from tests.tools.reachability import ci_blocks, fenced_commands

ROOT = Path(__file__).resolve().parents[1]
PARSERS = {"repro.experiments": experiments_parser, "repro.service": service_parser}
COMMANDS = [
    command
    for doc in ("README.md", "EXPERIMENTS.md", "DESIGN.md")
    for command in fenced_commands(ROOT / doc)
    if command.split()[2] in PARSERS
]


def ci_commands() -> list:
    """The CLI commands of ci.yml's run blocks: continuation lines joined,
    cut from ``python -m`` (dropping env prefixes and ``if``) to the first
    ``;``, ``|`` or ``&&`` (dropping ``; then`` and pipes), deduplicated."""
    commands = {}
    for _job, _step, script in ci_blocks():
        for line in script.replace("\\\n", " ").splitlines():
            start = line.find("python -m repro.")
            if start >= 0:
                command = re.split(r";|\||&&", line[start:])[0]
                commands[" ".join(command.split())] = None
    return [command for command in commands if command.split()[2] in PARSERS]


CI_COMMANDS = ci_commands()


def parse(command):
    words = shlex.split(command)
    if ">" in words:
        words = words[: words.index(">")]
    try:
        PARSERS[words[2]]().parse_args(words[3:])
    except SystemExit as exc:
        pytest.fail(f"{command!r} is rejected by its parser (exit {exc.code})")


def test_the_docs_have_commands():
    assert len(COMMANDS) >= 40


def test_ci_has_commands():
    assert len(CI_COMMANDS) >= 30
    assert not any("profile record" in command for command in CI_COMMANDS)


@pytest.mark.parametrize("command", COMMANDS)
def test_documented_command_parses(command):
    parse(command)


@pytest.mark.parametrize("command", CI_COMMANDS)
def test_ci_command_parses(command):
    parse(command)
