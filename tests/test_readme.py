"""The README's library and CLI quick starts run as written."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

from padiclab.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_block(section: str, language: str) -> str:
    """The first fenced ``language`` block under the ``## section`` heading."""
    text = README.read_text(encoding="utf-8")
    body = text.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    match = re.search(rf"^```{language}\n(.*?)^```", body, re.MULTILINE | re.DOTALL)
    assert match, f"no {language} block under {section!r}"
    return match.group(1)


def test_library_quick_start_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    exec(compile(readme_block("Library quick start", "python"), "README.md", "exec"), {})


def test_cli_quick_start_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    script = readme_block("CLI quick start", "sh").replace("\\\n", " ")
    commands = [argv for line in script.splitlines() if (argv := shlex.split(line, comments=True))]
    assert len(commands) >= 4
    for argv in commands:
        assert argv[0] == "padiclab", argv
        assert main(argv[1:]) == 0, (argv, capsys.readouterr().err)
