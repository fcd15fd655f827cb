"""README's examples run as written, and `python -m latmat` behaves as `main`.

Each README command line gives the same stdout through `python -m latmat`
as through `main`; the Quickstart code gives the results its comments state.
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from latmat import cli
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


def quickstart_results() -> dict[str, object]:
    """Value of each bare expression in README's Quickstart blocks, by its source."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = re.search(r"## Quickstart\n(.*?)\n## ", readme, re.S).group(1)
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert len(blocks) == 2
    namespace: dict[str, object] = {}
    results = {}
    for block in blocks:
        for stmt in ast.parse(block).body:
            source = ast.get_source_segment(block, stmt)
            if isinstance(stmt, ast.Expr):
                results[source] = eval(source, namespace)
            else:
                exec(source, namespace)
    return results


def test_readme_quickstart_results():
    results = quickstart_results()
    s = frozenset
    assert results == {
        "matroid.rank({1, 2, 4})": 3,
        "matroid.closure({4})": s({4, 5}),
        "lattice.atoms()": (s({1}), s({2}), s({3}), s({4, 5})),
        "lattice.join({1}, {4, 5})": s({1, 4, 5}),
        "reducts_via_hyperplanes(matroid)": (
            s({1, 2, 3}), s({1, 2, 4}), s({1, 2, 5}), s({1, 3, 4}),
            s({1, 3, 5}), s({2, 3, 4}), s({2, 3, 5}),
        ),
        "table.attribute_quotient()": (s({"outlook", "humidity"}), s({"temperature"})),
        "table.check_saturation_condition()": True,
        "table.reducts_via_quotient()": (
            s({"outlook", "temperature"}), s({"temperature", "humidity"}),
        ),
    }


def exit_code_numbers(text: str) -> list[int]:
    """The numbers in the sentence of ``text`` that starts with "Exit codes:"."""
    sentence = re.search(r"Exit codes:(.*?)\.", text, re.S).group(1)
    return [int(n) for n in re.findall(r"\b\d+\b", sentence)]


def test_documented_exit_codes_match_the_table():
    codes = [0, *sorted(set(cli.EXIT_CODES.values()))]
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert exit_code_numbers(readme) == codes
    assert exit_code_numbers(cli.__doc__) == codes


def module_env() -> dict[str, str]:
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_readme_command_via_module(argv, monkeypatch, capsys):
    env = module_env()
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


FREE12 = {"universe": list(range(12)), "blocks": [[e] for e in range(12)]}


@pytest.mark.parametrize(
    "argv, first_line",
    [
        # 12 singleton blocks give 4,096 flats, far more DOT than a 64 KB pipe holds
        (["lattice", "free12.json", "--dot"], "digraph flats {\n"),
        # U(8,16) prints 11,440 hyperplanes and 12,870 reducts, about 790 KB in one write
        (
            ["reducts", str(ROOT / "data" / "uniform-8-16.json")],
            "universe: " + " ".join(map(str, range(1, 17))) + "\n",
        ),
    ],
    ids=["lattice-dot", "reducts-uniform-8-16"],
)
def test_closed_pipe_exits_quietly(tmp_path, argv, first_line):
    (tmp_path / "free12.json").write_text(json.dumps(FREE12))
    # unbuffered, the one write stops short at the closed pipe and never raises
    env = module_env()
    env.pop("PYTHONUNBUFFERED", None)
    with subprocess.Popen(
        [sys.executable, "-m", "latmat", *argv],
        cwd=tmp_path,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    ) as proc:
        assert proc.stdout.readline() == first_line
        proc.stdout.close()
        assert proc.wait(timeout=120) == 0
        assert "Traceback" not in proc.stderr.read()


def test_cli_import_loads_no_dataclasses_or_inspect():
    # a fresh interpreter: pytest itself has imported both modules here
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, latmat.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))",
        ],
        cwd=ROOT,
        env=module_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
