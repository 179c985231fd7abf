"""README's examples run as written: the Python quick tour, and the
command-line block line by line, in order, in one scratch directory."""

import shlex
from pathlib import Path

from switchkit.cli import run

README = (Path(__file__).parents[1] / "README.md").read_text()


def _block(heading: str, lang: str) -> str:
    """The first ``lang`` code block under the README heading ``## heading``."""
    section = README.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return section.split(f"```{lang}\n", 1)[1].split("```", 1)[0]


def test_quick_tour_runs():
    exec(compile(_block("Quick tour", "python"), "README.md quick tour", "exec"), {})


def test_cli_block_runs_in_order(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    lines = _block("Command line", "sh").replace("\\\n", " ").splitlines()
    assert lines
    for line in lines:
        program, *argv = shlex.split(line)
        assert program == "switchkit"
        assert run(argv) == 0, (line, capsys.readouterr().err)
