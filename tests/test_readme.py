"""README's example commands run as documented.

Every `eprsim …`, `printf …` and `python scripts/…` line of README's fenced
bash blocks runs in order in one temp dir, since later lines read the files
earlier ones write, at the sizes README gives.  All run in this process:
`cli.main` for `eprsim`, a file write for `printf`, and `runpy` for a script.
"""

from __future__ import annotations

import json
import runpy
import shlex
import sys
from pathlib import Path

import pytest

from eprsim import cli

REPO = Path(__file__).resolve().parents[1]
PREFIXES = ("eprsim ", "printf ", "python scripts/")


def readme_commands() -> list[str]:
    """The command lines of README's ```bash blocks that start with a PREFIXES entry."""
    commands, in_bash = [], False
    for line in (REPO / "README.md").read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            in_bash = line == "```bash"
        elif in_bash and line.startswith(PREFIXES):
            commands.append(line)
    return commands


def _refuse_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def _printf(tokens: list[str]) -> None:
    """`printf 'FORMAT' > FILE` for a format whose only escape is \\n."""
    assert len(tokens) == 4 and tokens[2] == ">", tokens
    assert "%" not in tokens[1] and "\\" not in tokens[1].replace("\\n", ""), tokens
    Path(tokens[3]).write_text(tokens[1].replace("\\n", "\n"))


def test_readme_commands_run(capsys, monkeypatch, tmp_path):
    commands = readme_commands()
    for prefix in PREFIXES:
        assert any(line.startswith(prefix) for line in commands), prefix
    monkeypatch.chdir(tmp_path)
    for line in commands:
        tokens = shlex.split(line, comments=True)
        if tokens[0] == "eprsim":
            code = cli.main(tokens[1:])
            out, err = capsys.readouterr()
            assert code == 0, f"{line}: {err}"
            json.loads(out, parse_constant=_refuse_constant)
        elif tokens[0] == "printf":
            _printf(tokens)
        else:
            monkeypatch.setattr(sys, "argv", tokens[1:])
            with pytest.raises(SystemExit) as exc:
                runpy.run_path(str(REPO / tokens[1]), run_name="__main__")
            assert exc.value.code == 0, f"{line}: {capsys.readouterr().err}"
            capsys.readouterr()
