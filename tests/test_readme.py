"""The README's examples run as written."""

import re
import shlex
from pathlib import Path

import pytest

from unitarity_kit.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _block(heading: str, lang: str) -> str:
    section = README.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def _quick_start_commands():
    for line in _block("Quick start", "sh").splitlines():
        if not line.strip():
            continue
        command, _, comment = line.partition("#")
        argv = shlex.split(command)
        assert argv[0] == "unitarity-kit"
        stated = re.search(r"\bexit (\d)\b", comment)
        yield argv[1:], int(stated.group(1)) if stated else 0


def test_readme_python_block_runs():
    exec(compile(_block("Quick start", "python"), "README.md", "exec"), {})


def test_readme_quick_start_exit_codes(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    commands = list(_quick_start_commands())
    assert len(commands) >= 10
    for argv, expected in commands:
        assert main(argv) == expected, argv
    capsys.readouterr()
