"""The verdict table ``tests/data/verdicts.json``: 42 ``verify`` commands
run in process, each exit code and line verdict as recorded, each lhs and
rhs within rounding of it.  ``tests/data/write_verdicts.py`` rewrites the
table; a change that moves a verdict rewrites it in the same commit."""

import importlib.util
import json
import re
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"

#: the argmin beta a passing line names may move between near-tied grid points
BETA_SUFFIX = re.compile(r" \[beta=[^\]]*\]$")


def _writer():
    spec = importlib.util.spec_from_file_location("write_verdicts", DATA / "write_verdicts.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _close(found: float, recorded: float) -> bool:
    return found == recorded or abs(found - recorded) <= 1e-9 * max(1.0, abs(recorded)) + 1e-12


def _label(line: dict) -> str:
    return BETA_SUFFIX.sub("", line["label"]) if line["holds"] else line["label"]


def test_every_command_keeps_its_recorded_verdicts():
    writer = _writer()
    table = json.loads((DATA / "verdicts.json").read_text(encoding="utf-8"))
    assert [(e["name"], e["argv"]) for e in table] == writer.commands()
    moved = []
    for recorded in table:
        code, report = writer.run(recorded["argv"])
        lines = json.loads(report)["checks"]
        name = recorded["name"]
        if code != recorded["exit"]:
            moved.append(f"{name}: exit {recorded['exit']} -> {code}")
        if len(lines) != len(recorded["lines"]):
            moved.append(f"{name}: {len(recorded['lines'])} -> {len(lines)} lines")
            continue
        for line, old in zip(lines, recorded["lines"]):
            if line["holds"] != old["holds"] or _label(line) != _label(old):
                moved.append(f"{name}: {old['label']} holds={old['holds']} -> "
                             f"{line['label']} holds={line['holds']}")
            for side in ("lhs", "rhs"):
                if not _close(line[side], old[side]):
                    moved.append(f"{name}: {old['label']} {side} "
                                 f"{old[side]!r} -> {line[side]!r}")
    assert moved == []
