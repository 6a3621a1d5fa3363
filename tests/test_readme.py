"""README's examples still run against the package."""

import shlex
from pathlib import Path

from nlsthermo.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_block_runs():
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, str(README), "exec"), {})


def test_command_line_block_runs(tmp_path, monkeypatch, capsys):
    section = README.read_text(encoding="utf-8").split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    commands = [argv for argv in commands if argv and argv[0] == "nlsthermo"]
    assert len(commands) == 6
    monkeypatch.chdir(tmp_path)  # the block writes and reads files in place
    for argv in commands:
        assert main(argv[1:]) == 0, " ".join(argv)
        capsys.readouterr()
