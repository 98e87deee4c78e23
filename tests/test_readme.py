"""The README's CLI examples parse: every ``loader-rl`` line of its CLI
block through the real parser, and its config heredoc through the config
parser, so a renamed flag or key cannot linger in the docs."""

import re
import shlex
from pathlib import Path

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
