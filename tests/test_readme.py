"""The README's CLI examples parse: every ``loader-rl`` line of its CLI
block through the real parser, and its config heredoc through the config
parser, so a renamed flag or key cannot linger in the docs. Every
backticked ``Class.attr`` of a class the package exports resolves, so a
deleted method cannot linger either."""

import re
import shlex
from pathlib import Path

import loader_rl
from loader_rl import cli
from loader_rl.config import build_run_config, parse_config_text

README = Path(__file__).resolve().parent.parent / "README.md"


def cli_block() -> str:
    """The first bash block after the ``## CLI`` heading."""
    text = README.read_text().split("\n## CLI\n", 1)[1]
    return re.search(r"```bash\n(.*?)```", text, re.S).group(1)


def test_command_lines_parse():
    lines = [line for line in cli_block().splitlines() if line.startswith("loader-rl ")]
    parser = cli._build_parser()
    commands = {parser.parse_args(shlex.split(line)[1:]).command for line in lines}
    assert commands == set(cli._COMMANDS)


def test_config_heredoc_parses():
    heredoc = re.search(r"<<'EOF'\n(.*?)\nEOF\n", cli_block(), re.S).group(1)
    entries = parse_config_text(heredoc, source="README.md")
    assert "seed" in entries
    build_run_config(entries, source="README.md")


def class_attributes(text: str) -> list[tuple[str, str]]:
    """(class, attribute) of each backticked span of ``text`` that starts
    ``Class.attr``, where ``loader_rl`` exports ``Class``."""
    found = []
    for span in re.findall(r"`([^`\n]+)`", text):
        named = re.match(r"([A-Z]\w*)\.(\w+)", span)
        if named and isinstance(getattr(loader_rl, named[1], None), type):
            found.append(named.groups())
    return found


def test_class_attributes_resolve():
    found = class_attributes(README.read_text())
    assert ("ApproachEnv", "hold") in found and ("BrakeModel", "IDEAL") in found
    assert [f"{cls}.{attr}" for cls, attr in found
            if not hasattr(getattr(loader_rl, cls), attr)] == []
