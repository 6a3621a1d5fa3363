"""README's examples still run against the package."""

from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_block_runs():
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, str(README), "exec"), {})
