"""Layered benchmark of the nlsthermo command line.

Run from the repository root::

    python3 perfbench/run.py --workload grid --seed 0 --seconds 30 --trace 0

Workloads are ``grid``, ``instance-build`` and ``spin1`` (see
``workloads.py``).  One client drives ``nlsthermo.cli.main(argv)`` in this
process in a closed loop, writing outputs to files under ``.perfbench-out/``
and checking every one.  A run is a fixed number of whole units of work,
sized from ``--seconds`` by each workload's nominal unit length, so the ops
attempted and failed are the same in every run of the same code.  An op fails when it exits
nonzero, lets an exception escape ``main``, or writes output that fails its
check; failures are counted against the ops attempted and listed in the
failure ledger.

``--trace 0`` reports the end-to-end metrics.  Op timings in the result
line are divided by the machine slowdown that ``speed.py`` samples between
ops; the report also prints them as measured, with the per-command median
and tail.  ``--trace 1`` alternates untraced and traced passes of one unit
and reports per-layer metrics from the spans, which are
written to ``.perfbench-out/`` once at the end.

The last line of stdout is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are the report.
"""

import os

# one BLAS/OpenMP thread, fixed before numpy is first imported
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import gzip
import hashlib
import importlib.util
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
#: fresh-process set-up probes per run, spread evenly over the loop
SETUP_REPEATS = 9
KINDS = ("verify", "sweep", "gen", "example", "oracle")
#: each workload has one kind of op that produces output and one that
#: checks it: sweep/verify, gen/verify, example/example --oracle
PRODUCE = ("sweep", "gen", "example")
CHECK = ("verify", "oracle")

#: end-to-end metrics printed with --trace 0: name -> unit
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "ops_ok_frac": "1",
    "produce_ms.mean": "ms",
    "check_ms.mean": "ms",
    "peak_rss_mb": "MB",
}

#: per-layer metrics printed with --trace 1 (besides the per-function ones)
LAYER_UNITS = {"calls": "count", "busy_ms": "ms", "failed": "count"}
EXTRA_LAYERS = {
    "grid.points": "count",
    "grid.us_per_point": "us",
    "spinboson.oracle_blocks": "count",
    "cli.output_bytes": "B",
    "trace.overhead_ms": "ms",
}

SETUP_PROBE = ("import sys; sys.path.insert(0, sys.argv[1]); "
               "from nlsthermo.cli import main; sys.exit(main(sys.argv[2:]))")


def import_program():
    """Import nlsthermo from this checkout's ``src``, or stop."""
    sys.path.insert(0, str(SRC))
    try:
        import nlsthermo
        import nlsthermo.cli
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import nlsthermo from {SRC}: {exc}")
    if not Path(nlsthermo.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: nlsthermo was imported from {nlsthermo.__file__}, "
                 f"not from {SRC}")
    return nlsthermo


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = ROOT / ".git" / name
            if loose.exists():
                return loose.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def environment(nlsthermo) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    numba = ("importable" if importlib.util.find_spec("numba")
             else "not importable, so the numba lane is unmeasured")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "nlsthermo.BACKEND": nlsthermo.BACKEND,
        "numba": numba,
        "commit": git_commit(),
    }


@dataclass
class Outcome:
    kind: str
    argv: tuple
    seconds: float
    status: str          # "ok", "exit N" or an exception type
    reason: str | None   # why the op failed, or None
    wrong: bool          # exit 0 but the output failed its check
    output_bytes: int
    grid_points: int

    @property
    def failed(self) -> bool:
        return self.reason is not None


class Runner:
    """Runs ops through ``main`` and judges each one.

    Repeated ops must write byte-identical output; the first digest of each
    argv is kept to compare later repeats against.
    """

    def __init__(self, main, tmp: Path, speed):
        self.main = main
        self.tmp = tmp
        self.speed = speed
        self.digests: dict[tuple, str] = {}

    def run(self, op, tracer=None, op_id=0) -> Outcome:
        self.speed.maybe_sample()
        op.out.unlink(missing_ok=True)
        stdout, stderr = io.StringIO(), io.StringIO()
        argv = list(op.argv)
        code, error = None, None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                if tracer is None:
                    code = self.main(argv)
                else:
                    code = tracer.run_op(op_id, self.main, argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # noqa: BLE001 - an escaping exception is a failed op
            error = exc
        seconds = time.perf_counter() - start
        err = stderr.getvalue()
        first_err = err.strip().splitlines()[0] if err.strip() else ""
        status, reason, wrong, size = "ok", None, False, 0
        if error is not None:
            status = type(error).__name__
            reason = f"{status}: {str(error).splitlines()[0] if str(error) else ''}"
        elif code != 0:
            status, reason = f"exit {code}", first_err or "(no stderr)"
        elif not op.out.exists():
            status, reason, wrong = "no output", "exit 0 but no output file", True
        else:
            data = op.out.read_bytes()
            size = len(data)
            reason = op.check(data.decode("utf-8", errors="replace"), err)
            digest = hashlib.sha256(data).hexdigest()
            if reason is None and self.digests.setdefault(op.argv, digest) != digest:
                reason = "output differs from an earlier identical op"
            if reason is not None:
                status, wrong = "bad output", True
        return Outcome(op.kind, op.argv, seconds, status, reason, wrong, size,
                       op.grid_points)

    def shown(self, argv) -> str:
        prefix = str(self.tmp) + os.sep
        return " ".join(a.replace(prefix, "") for a in argv)


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def tail(values):
    """The highest percentile with at least ten samples beyond it:
    (value, percentile, sample count), or None below eleven samples."""
    n = len(values)
    if n < 11:
        return None
    return sorted(values)[n - 11], 100.0 * (n - 10) / n, n


def measure_setup(warmup, tmp: Path) -> float:
    """Wall time of a fresh process that imports nlsthermo and runs the
    workload's warm-up op."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(SRC), *warmup],
                          cwd=tmp, capture_output=True, text=True, timeout=120)
    seconds = time.perf_counter() - start
    if proc.returncode != 0:
        sys.exit(f"perfbench: set-up probe failed: {proc.stderr.strip()}")
    return seconds


def warm_up(runner, plan) -> None:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        runner.main(list(plan.warmup))


def units(plan, seconds: float, per_unit: int = 1) -> int:
    """Whole units of work that take about ``seconds`` on the machine the
    nominal unit lengths were measured on; at least one."""
    return max(1, round(seconds / (plan.unit_s * per_unit)))


def run_rounds(runner, plan, seconds: float, tmp: Path):
    """The run's rounds in a closed loop: whole units, a fixed count.

    Set-up probes run between ops, spread evenly over the loop, because
    process start-up time drifts on a shared machine from one few-second
    stretch to the next.  Returns (outcomes, rounds, set-up times).
    """
    rounds = units(plan, seconds) * plan.unit_rounds
    ops = [op for r in range(rounds) for op in plan.round(r)]
    probe_at = {len(ops) * k // SETUP_REPEATS for k in range(SETUP_REPEATS)}
    outcomes, setup_times = [], []
    for i, op in enumerate(ops):
        if i in probe_at:
            setup_times.append(measure_setup(plan.warmup, tmp))
        outcomes.append(runner.run(op))
    return outcomes, rounds, setup_times


def end_to_end(outcomes, setup_times, slowdown: float) -> dict:
    """Contract metrics; op timings are divided by the machine slowdown."""
    ok = sum(not o.failed for o in outcomes)
    busy = sum(o.seconds for o in outcomes) / slowdown
    produce = [o.seconds * 1e3 for o in outcomes if o.kind in PRODUCE]
    check = [o.seconds * 1e3 for o in outcomes if o.kind in CHECK]
    return {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": ok / busy,
        "ops_ok_frac": ok / len(outcomes),
        "produce_ms.mean": statistics.mean(produce) / slowdown,
        "check_ms.mean": statistics.mean(check) / slowdown,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def issue_metrics(outcomes, setup_times, summary) -> list[tuple[str, str, str]]:
    """The full end-to-end table, timings as measured: (name, value, detail)."""
    n = len(outcomes)
    failed = sum(o.failed for o in outcomes)
    busy = sum(o.seconds for o in outcomes)
    points = sum(o.grid_points for o in outcomes)
    grid_busy = sum(o.seconds for o in outcomes if o.grid_points)
    rows = [
        ("setup_s", f"{summary['setup_s']:.4f} s",
         f"median of {len(setup_times)} fresh processes: "
         + ", ".join(f"{t:.3f}" for t in setup_times)),
        ("ops_per_s", f"{(n - failed) / busy:.4f} 1/s",
         f"{n - failed} ok ops in {busy:.2f} s inside main"),
        ("ops_failed_frac", f"{failed / n:.4f}", f"{failed} failed of {n} attempted"),
        ("grid_points_per_s",
         f"{points / grid_busy:.1f} 1/s" if points else "n/a",
         f"{points} beta points in {grid_busy:.2f} s of sweep and verify"
         if points else "no grid evaluated in this workload"),
    ]
    for kind in KINDS:
        ms = [o.seconds * 1e3 for o in outcomes if o.kind == kind]
        if not ms:
            rows.append((f"{kind}_ms.p50", "n/a", f"no {kind} ops in this workload"))
            rows.append((f"{kind}_ms.tail", "n/a", f"no {kind} ops in this workload"))
            continue
        rows.append((f"{kind}_ms.p50", f"{statistics.median(ms):.3f} ms",
                     f"{len(ms)} samples, failures included"))
        t = tail(ms)
        rows.append((f"{kind}_ms.tail", f"{t[0]:.3f} ms" if t else "n/a",
                     f"p{t[1]:.1f} of {t[2]} samples" if t
                     else f"only {len(ms)} samples; needs 11"))
    rows.append(("peak_rss_mb", f"{summary['peak_rss_mb']:.1f} MB", "ru_maxrss of this process"))
    return rows


def print_ledger(runner, outcomes) -> None:
    seen: dict[tuple, list] = {}
    for o in outcomes:
        if o.failed:
            seen.setdefault((o.argv, o.status, o.reason), [0])[0] += 1
    print(f"failure ledger: {len(seen)} distinct failing ops, "
          f"{sum(c[0] for c in seen.values())} failures")
    for (argv, status, reason), (count,) in seen.items():
        print(f"  {status:>14} x{count:<3} {runner.shown(argv)} | {runner.shown([reason])}")


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

def traced_passes(runner, pass_ops, count: int):
    """``count`` pairs of an untraced and a traced pass of one op sequence."""
    from spans import Tracer

    outcomes, pairs = [], []
    for _ in range(count):
        untraced = [runner.run(op) for op in pass_ops]
        with Tracer() as tracer:
            traced = [runner.run(op, tracer, i) for i, op in enumerate(pass_ops)]
        outcomes += untraced + traced
        pairs.append((untraced, traced, tracer))
    return outcomes, pairs


def layer_metrics(pairs) -> tuple[dict, bool]:
    """Counts from the first traced pass (they must repeat in every pass),
    medians over passes for times."""
    per_pass = []
    for untraced, traced, tracer in pairs:
        layers = tracer.layers()
        points = sum(o.grid_points for o in untraced)
        grid_s = sum(o.seconds for o in untraced if o.grid_points)
        layers["grid.points"] = points
        layers["grid.us_per_point"] = grid_s / points * 1e6 if points else 0.0
        layers["cli.output_bytes"] = sum(o.output_bytes for o in traced)
        layers["trace.overhead_ms"] = (sum(o.seconds for o in traced)
                                       - sum(o.seconds for o in untraced)) * 1e3
        per_pass.append(layers)
    first = per_pass[0]
    counts = [k for k in first if not k.endswith(("_ms", "us_per_point"))]
    repeat = all(p[k] == first[k] for p in per_pass for k in counts)
    merged = {k: (statistics.median(p[k] for p in per_pass) if k not in counts else first[k])
              for k in first}
    return merged, repeat


def layer_units() -> dict:
    from spans import MODULES, TRACED

    units = {}
    for module_name, names in TRACED.items():
        for name in names:
            for suffix, unit in LAYER_UNITS.items():
                units[f"{module_name}.{name}.{suffix}"] = unit
    for module_name in MODULES:
        units[f"{module_name}.self_ms"] = "ms"
    units.update(EXTRA_LAYERS)
    return units


def write_spans(path: Path, runner, pass_ops, pairs, env) -> int:
    count = 0
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        fh.write(json.dumps({"env": env, "ops": [runner.shown(op.argv) for op in pass_ops]})
                 + "\n")
        for number, (_, _, tracer) in enumerate(pairs):
            origin = tracer.spans[0][1] if tracer.spans else 0.0
            for name, start, end, parent, op, failed in tracer.spans:
                fh.write(json.dumps({
                    "pass": number, "op": op, "name": name, "parent": parent,
                    "start_us": round((start - origin) * 1e6, 3),
                    "end_us": round((end - origin) * 1e6, 3), "failed": failed,
                }) + "\n")
                count += 1
    return count


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("grid", "instance-build", "spin1"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def bench(args, plan_overrides=None) -> dict:
    """Run one benchmark and print its report; returns the result object."""
    nlsthermo = import_program()
    from nlsthermo.cli import main

    import speed
    import workloads

    env = environment(nlsthermo)
    OUT.mkdir(exist_ok=True)
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir()
    try:
        plan = workloads.PLANS[args.workload](args.seed, tmp, **(plan_overrides or {}))
        runner = Runner(main, tmp, speed.SpeedMeter())
        print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
              f"trace={args.trace}")
        print("env: " + json.dumps(env))
        for note in plan.notes:
            print("note: " + note)
        if args.trace == 0:
            warm_up(runner, plan)
            start = time.perf_counter()
            outcomes, rounds, setup_times = run_rounds(runner, plan, args.seconds, tmp)
            loop_s = time.perf_counter() - start
            slowdown = runner.speed.factor()
            summary = end_to_end(outcomes, setup_times, slowdown)
            print(f"closed loop, 1 client: {rounds} rounds, {len(outcomes)} ops "
                  f"in {loop_s:.2f} s, set-up probes included")
            raw = end_to_end(outcomes, setup_times, 1.0)
            print(f"machine slowdown {slowdown:.4f}: median of {len(runner.speed.samples)} "
                  f"probe samples; probe medians "
                  + ", ".join(f"{name} {statistics.median(ms):.3f} ms"
                              for name, ms in runner.speed.probe_ms.items()))
            print("end-to-end, op timings divided by the slowdown (the result line), "
                  "and as measured:")
            for name, unit in END_TO_END.items():
                print(f"  {name:<18} {summary[name]:>14.4f} {unit:<5} {raw[name]:>14.4f}")
            print("end-to-end, timings as measured:")
            for name, value, detail in issue_metrics(outcomes, setup_times, summary):
                print(f"  {name:<18} {value:>16}  {detail}")
            metrics = {k: {"value": summary[k], "unit": u} for k, u in END_TO_END.items()}
            correct = True
        else:
            warm_up(runner, plan)
            pass_ops = [op for r in range(plan.unit_rounds) for op in plan.round(r)]
            outcomes, pairs = traced_passes(runner, pass_ops, units(plan, args.seconds, 2))
            layers, correct = layer_metrics(pairs)
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
            count = write_spans(spans_path, runner, pass_ops, pairs, env)
            print(f"traced: {len(pairs)} untraced/traced pass pairs of {len(pass_ops)} ops; "
                  f"{count} spans written to {spans_path.relative_to(ROOT)}")
            print(f"  counts repeat exactly across passes: {correct}")
            print("  cli.self_ms is an estimate: op time minus the traced calls, "
                  "so it carries the span-recording overhead")
            untraced_ms = statistics.median(sum(o.seconds for o in u) for u, _, _ in pairs) * 1e3
            print(f"  trace.overhead_ms {layers['trace.overhead_ms']:.2f} on an untraced "
                  f"pass of {untraced_ms:.2f} ms")
            metrics = {k: {"value": layers[k], "unit": u} for k, u in layer_units().items()}
        print_ledger(runner, outcomes)
        return {
            "correct": correct and not any(o.wrong for o in outcomes),
            "attempted": len(outcomes),
            "failed": sum(o.failed for o in outcomes),
            "metrics": metrics,
        }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    result = bench(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
