"""`python -m latmat` runs each README command line exactly as `main` does."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from latmat.cli import main

ROOT = Path(__file__).resolve().parent.parent


def readme_commands() -> list[list[str]]:
    """Arguments of every ``latmat ...`` line in README's "Command line" block."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Command line\n\n```sh\n(.*?)```", readme, re.S).group(1)
    return [
        line.split("#")[0].split()[1:]
        for line in block.splitlines()
        if line.startswith("latmat ")
    ]


COMMANDS = readme_commands()


def test_readme_has_commands():
    assert len(COMMANDS) >= 6
    assert {argv[0] for argv in COMMANDS} == {"lattice", "reducts", "infosys"}


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_readme_command_via_module(argv, monkeypatch, capsys):
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run(
        [sys.executable, "-m", "latmat", *argv],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    monkeypatch.chdir(ROOT)
    assert main(argv) == 0
    assert proc.stdout == capsys.readouterr().out
