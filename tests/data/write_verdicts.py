"""Rewrite ``verdicts.json``, the verdict table of 43 ``verify`` commands.

The commands are ``verify --random N --seed s --steps 2001`` for
N in {3, 5, 8, 16, 32, 48, 96} and s in 0-3, ``verify --example spin1
--beta0 b`` at ten b from 1e-6 to 50, four wide grids, and ``verify --input``
of ``random-32-1-x2p20.json``: the N = 32, seed 1 instance with energies
x 2^20 and beta0 / 2^20, where a cumulant line in inverse energy units once
wrote NaN.  Each runs in this process, from the repository root so that the
input path reads the same on every checkout, under ``error::RuntimeWarning``;
the table keeps its argv, its exit code, the sha256 of its report and every
line's label, ``holds``, lhs and rhs.  ``tests/test_verdicts.py`` checks the
table.

Run from the repository root::

    PYTHONPATH=src python tests/data/write_verdicts.py

It prints the sha256 prefix of every report that moved, old -> new, and
the names whose exit code or any ``holds`` moved.
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile
import warnings
from pathlib import Path

from nlsthermo.cli import main

TABLE = Path(__file__).resolve().with_name("verdicts.json")
ROOT = TABLE.parents[2]

SPIN1_BETA0 = ("1e-6", "1e-3", "0.01", "0.1", "0.5", "1", "2", "5", "10", "50")


def commands() -> list[tuple[str, list[str]]]:
    """(name, argv) of the 43 commands, in table order; an input path is
    relative to the repository root."""
    cases = [(f"r{n}/s{s}", ["--random", str(n), "--seed", str(s), "--steps", "2001"])
             for n in (3, 5, 8, 16, 32, 48, 96) for s in range(4)]
    cases += [(f"spin1@{b}", ["--example", "spin1", "--beta0", b]) for b in SPIN1_BETA0]
    wide = "--steps", "2001"
    cases += [
        ("r96 ±1e3", ["--random", "96", *wide, "--beta-min=-1e3", "--beta-max=1e3"]),
        ("r8/s2 ±1e4", ["--random", "8", "--seed", "2", *wide,
                        "--beta-min=-1e4", "--beta-max=1e4"]),
        ("spin1@10 ±1e4", ["--example", "spin1", "--beta0", "10", *wide,
                           "--beta-min=-1e4", "--beta-max=1e4"]),
        ("spin1@5 ±1e300", ["--example", "spin1", "--beta0", "5", *wide,
                            "--beta-min=-1e300", "--beta-max=1e300"]),
        ("r32/s1 E×2^20", ["--input", TABLE.with_name("random-32-1-x2p20.json")
                           .relative_to(ROOT).as_posix(), *wide]),
    ]
    return [(name, ["verify", *argv]) for name, argv in cases]


def run(argv: list[str]) -> tuple[int, bytes]:
    """Exit code and report bytes of one command, run in this process from
    the repository root; its stderr (the timing line) is dropped."""
    cwd = os.getcwd()
    with (tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(),
          contextlib.redirect_stderr(io.StringIO())):
        warnings.simplefilter("error", RuntimeWarning)
        out = Path(tmp) / "report.json"
        os.chdir(ROOT)
        try:
            code = main([*argv, "--out", str(out)])
        finally:
            os.chdir(cwd)
        return code, out.read_bytes()


def entry(name: str, argv: list[str]) -> dict:
    code, report = run(argv)
    lines = [{key: line[key] for key in ("label", "holds", "lhs", "rhs")}
             for line in json.loads(report)["checks"]]
    return {"name": name, "argv": argv, "exit": code,
            "sha256": hashlib.sha256(report).hexdigest(), "lines": lines}


def rewrite() -> None:
    """Run every command, print what moved against the table, write the table."""
    old = ({e["name"]: e for e in json.loads(TABLE.read_text(encoding="utf-8"))}
           if TABLE.exists() else {})
    table = [entry(name, argv) for name, argv in commands()]
    for new in table:
        before = old.get(new["name"])
        if before is None:
            print(f"{new['name']}: new {new['sha256'][:8]}")
            continue
        if before["sha256"] != new["sha256"]:
            print(f"{new['name']}: {before['sha256'][:8]} -> {new['sha256'][:8]}")
        verdicts = [(line["label"], line["holds"]) for line in new["lines"]]
        if before["exit"] != new["exit"] or verdicts != [
                (line["label"], line["holds"]) for line in before["lines"]]:
            print(f"{new['name']}: exit code, label or holds moved")
    TABLE.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    rewrite()
