"""The README's command-line examples run as written."""

import re
import shlex
from pathlib import Path

from regsched.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_command_line_block_runs_in_order(tmp_path, monkeypatch, capsys):
    section = README.read_text().split("## Command line", 1)[1]
    # The section's first sh block holds the commands, its first json
    # block the scenario config they read as scenario.json.
    commands = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    config = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    monkeypatch.chdir(tmp_path)
    Path("scenario.json").write_text(config)
    lines = [line for line in commands.splitlines() if line.startswith("regsched ")]
    assert len(lines) == 12
    for line in lines:
        code = main(shlex.split(line)[1:])
        assert code == 0, f"{line}\n{capsys.readouterr().err}"
