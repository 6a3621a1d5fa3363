"""The benchmark's workloads, as rounds of CLI ops built from a seed.

A workload is a plan: one warm-up op, a function from a round index to the
list of ops in that round, and a unit of ``unit_rounds`` rounds.  A run of
whole units attempts, and fails, the same number of ops whatever its seed:
in ``instance-build`` and ``spin1`` a unit's ops are the same set for every
seed, which only sets their order, and ``grid``'s ops do not fail.
``unit_s`` is the nominal length of a unit on the machine the benchmark was
tuned on (2 vCPU, Python 3.11, numpy 2.4, one OpenBLAS thread); a run does
``seconds / unit_s`` units, fixed work that takes about ``seconds`` there
and never depends on how fast the machine is at the time.
Sizes are parameters so the self-test can run each workload at a tiny size.

* ``grid``: ``sweep`` then ``verify`` (all suites) on seeded random
  instances with N = 3, 8, 32, 96 and 2001 beta points.  Per-beta work is
  nearly all of the time.  Every round repeats the same ops, so repeated
  outputs are compared byte for byte.
* ``instance-build``: ``gen N`` then ``verify --input`` (slopes and
  cumulant suites only) for N = 16, 48, 96, 128, with the instance seed
  cycling through 0-39 from a start set by the benchmark seed; a unit is
  the whole cycle.  Fixed per-instance costs dominate; failing generations
  are kept and counted.
* ``spin1``: ``example spin1`` on log-spaced beta0 over [1e-6, 400] and
  ``example spin1 --oracle`` over [1e-3, 40], upper endpoints included (they
  are known failures).  Each round puts the grid at one of ``phases``
  evenly spaced phases within each decade, starting from the one the seed
  picks; a unit is one round at every phase, so the cost, which grows as
  1/beta0 at the low end, and the failures, which start near beta0 = 10.2,
  do not hinge on the seed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from nlsthermo.genrand import GenerationError, random_gibbs_instance

import checks

GRID_NS = (3, 8, 32, 96)
GRID_STEPS = 2001
BUILD_NS = (16, 48, 96, 128)
BUILD_SEED_CYCLE = 40
SPIN1_EXAMPLE_RANGE = (1e-6, 400.0)
SPIN1_ORACLE_RANGE = (1e-3, 40.0)
SPIN1_PER_DECADE = 2
SPIN1_PHASES = 4

#: nominal seconds of one unit of each workload (see the module docstring)
GRID_UNIT_S = 6.5
BUILD_UNIT_S = 14.0
SPIN1_UNIT_S = 12.5


@dataclass(frozen=True)
class Op:
    """One CLI invocation, the file it writes, and how to judge that file.

    ``check(text, stderr)`` returns ``None`` for a right output or a reason.
    ``grid_points`` counts the beta points the op evaluates on a grid.
    """

    kind: str
    argv: tuple[str, ...]
    out: Path
    check: Callable[[str, str], str | None]
    grid_points: int = 0


@dataclass
class Plan:
    warmup: tuple[str, ...]
    round: Callable[[int], list[Op]]
    unit_rounds: int
    unit_s: float
    notes: list[str] = field(default_factory=list)


def _file_check(checker, **params):
    """An op check that judges only the output file."""
    return lambda text, stderr: checker(text, **params)


def _oracle_check(beta0):
    return lambda text, stderr: (checks.check_example(text, beta0)
                                 or checks.check_oracle(stderr))


def first_generating_seed(n: int, seed: int, limit: int = 100) -> tuple[int, list[int]]:
    """The first seed >= ``seed`` whose N-level instance generates, and the
    seeds skipped on the way."""
    skipped = []
    for s in range(seed, seed + limit):
        try:
            random_gibbs_instance(n, s)
        except GenerationError:
            skipped.append(s)
            continue
        return s, skipped
    raise RuntimeError(f"no generating seed for N={n} in [{seed}, {seed + limit})")


def grid(seed: int, tmp: Path, ns=GRID_NS, steps=GRID_STEPS) -> Plan:
    # grid measures beta-grid evaluation, so it needs instances that exist:
    # a seed whose generation fails is skipped here, named in the report, and
    # counted as a failure where generation is what is measured
    # (instance-build)
    notes = []
    ops = []
    for n in ns:
        s, skipped = first_generating_seed(n, seed)
        if skipped:
            notes.append(f"grid: N={n} uses --seed {s}; generation fails for "
                         f"seeds {skipped} (instance-build counts such failures)")
        source = ("--random", str(n), "--seed", str(s), "--steps", str(steps))
        out = tmp / f"sweep-{n}.csv"
        ops.append(Op("sweep", ("sweep", *source, "--out", str(out)), out,
                      _file_check(checks.check_sweep, steps=steps),
                      steps))
        out = tmp / f"verify-{n}.json"
        ops.append(Op("verify", ("verify", *source, "--out", str(out)), out,
                      _file_check(checks.check_verify, steps=steps),
                      steps))
    warmup = ("verify", "--random", "3", "--seed", str(seed), "--steps", "201",
              "--out", str(tmp / "warmup.json"))
    return Plan(warmup=warmup, round=lambda r: ops, unit_rounds=1, unit_s=GRID_UNIT_S,
                notes=notes)


def instance_build(seed: int, tmp: Path, ns=BUILD_NS,
                   cycle=BUILD_SEED_CYCLE) -> Plan:
    def round_ops(r: int) -> list[Op]:
        # the seed only rotates the cycle, so every unit meets the same
        # failing generations
        s = (seed + r) % cycle
        ops = []
        for n in ns:
            instance = tmp / f"instance-{n}-{s}.json"
            ops.append(Op("gen", ("gen", str(n), "--seed", str(s), "--out", str(instance)),
                          instance,
                          _file_check(checks.check_instance, n=n)))
            # attempted even when gen failed, so the op count stays fixed;
            # the missing file then makes verify exit 1
            out = tmp / f"verify-{n}-{s}.json"
            ops.append(Op("verify", ("verify", "--input", str(instance), "--suite", "slopes",
                                     "--suite", "cumulant", "--out", str(out)),
                          out,
                          _file_check(checks.check_verify, steps=None)))
        return ops

    warmup = ("gen", str(ns[0]), "--seed", str(seed), "--out", str(tmp / "warmup.json"))
    return Plan(warmup=warmup, round=round_ops, unit_rounds=cycle, unit_s=BUILD_UNIT_S)


def log_grid(lo: float, hi: float, per_decade: int, phase: float) -> list[float]:
    """Points lo * 10^((k + phase) / per_decade) below ``hi``, then ``hi``."""
    points = []
    for k in itertools.count():
        b = 10.0 ** (math.log10(lo) + (k + phase) / per_decade)
        if b >= hi:
            return points + [hi]
        points.append(b)


def spin1(seed: int, tmp: Path, per_decade=SPIN1_PER_DECADE, phases=SPIN1_PHASES,
          example_range=SPIN1_EXAMPLE_RANGE, oracle_range=SPIN1_ORACLE_RANGE) -> Plan:
    def round_ops(r: int) -> list[Op]:
        # phases on a fixed lattice, so every unit evaluates the same points
        phase = ((seed + r) % phases) / phases
        ops = []
        for i, b in enumerate(log_grid(*example_range, per_decade, phase)):
            out = tmp / f"example-{i}.json"
            ops.append(Op("example", ("example", "spin1", "--beta0", repr(b), "--out", str(out)),
                          out,
                          _file_check(checks.check_example, beta0=b)))
        for i, b in enumerate(log_grid(*oracle_range, per_decade, phase)):
            out = tmp / f"oracle-{i}.json"
            ops.append(Op("oracle", ("example", "spin1", "--beta0", repr(b), "--oracle",
                                     "--out", str(out)),
                          out, _oracle_check(b)))
        return ops

    warmup = ("example", "spin1", "--beta0", "1", "--out", str(tmp / "warmup.json"))
    return Plan(warmup=warmup, round=round_ops, unit_rounds=phases, unit_s=SPIN1_UNIT_S)


PLANS = {"grid": grid, "instance-build": instance_build, "spin1": spin1}
