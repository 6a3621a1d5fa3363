"""In-memory spans around the public functions the CLI calls.

The tracer wraps each function in ``TRACED`` wherever a ``nlsthermo``
module binds it by name, so a CLI op run through ``nlsthermo.cli.main``
records one span per call, with its parent span, op id, and whether it
raised.  Nothing in the package is edited: the bindings are swapped for
the traced pass and restored afterwards.  ``_kernels`` is private and is
measured through its callers.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

from nlsthermo.spinboson import fock_cutoff

#: module -> public names whose calls get a span
TRACED = {
    "genrand": ("random_gibbs_instance",),
    "core": ("instance_to_dict", "load_instance", "certify_gibbs_matrix",
             "GibbsMatrix", "make_gibbs_state", "propagate"),
    "fluctuation": ("heat_and_entropy_change", "j_heat_expectation",
                    "general_j_expectation", "kl_monotonicity_check",
                    "clausius_bounds"),
    "response": ("slope_direct", "slope_symmetrized", "slope_fluctuation",
                 "slope_numeric", "entropy_slope_numeric", "cumulant_deviation"),
    "spinboson": ("lerch_phi", "analytic_transition_matrix",
                  "numerical_transition_matrix"),
    "cli": ("sweep_records",),
}
MODULES = tuple(TRACED)
OP_SPAN = "cli.main"


def oracle_blocks(params) -> int:
    """Invariant blocks the oracle diagonalizes: a singlet, a doublet, and
    triplets n = 1 .. n_max + 1, with n_max from the public cutoff rule."""
    return fock_cutoff(params.beta0) + 3


class Tracer:
    """Spans of one traced pass: ``(name, start, end, parent, op, failed)``,
    with ``parent`` the index of the enclosing span or ``None``."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.oracle_blocks = 0
        self._stack: list[int] = []
        self._op = -1
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            failed = True
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self._op, failed)

        if name == "spinboson.numerical_transition_matrix":
            def counted(params, *args, **kwargs):
                self.oracle_blocks += oracle_blocks(params)
                return traced(params, *args, **kwargs)
            return counted
        return traced

    def __enter__(self):
        modules = [m for key, m in sys.modules.items() if key.startswith("nlsthermo.")]
        for module_name, names in TRACED.items():
            home = importlib.import_module(f"nlsthermo.{module_name}")
            for name in names:
                original = getattr(home, name)
                wrapped = self._wrap(f"{module_name}.{name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._restore.append((module, attr, original))
                            setattr(module, attr, wrapped)
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()
        return False

    def run_op(self, op_id: int, main, argv):
        """Run one CLI op inside its own top-level span."""
        self._op = op_id
        return self._wrap(OP_SPAN, main)(argv)

    def layers(self) -> dict[str, float]:
        """Per-function calls, busy ms and failures, and self ms per module.

        A span's self time is its duration minus its children's durations;
        ``<module>.self_ms`` sums the self time of that module's spans, so
        time spent in helpers that carry no span lands on their caller.
        """
        out: dict[str, float] = {}
        for module_name, names in TRACED.items():
            for name in names:
                for suffix in ("calls", "busy_ms", "failed"):
                    out[f"{module_name}.{name}.{suffix}"] = 0
        child_time = defaultdict(float)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        self_ms = dict.fromkeys(MODULES, 0.0)
        for index, (name, start, end, _, _, failed) in enumerate(self.spans):
            duration = end - start
            self_ms[name.split(".")[0]] += (duration - child_time[index]) * 1e3
            if name == OP_SPAN:
                continue
            out[f"{name}.calls"] += 1
            out[f"{name}.busy_ms"] += duration * 1e3
            out[f"{name}.failed"] += int(failed)
        for module_name, value in self_ms.items():
            out[f"{module_name}.self_ms"] = value
        out["spinboson.oracle_blocks"] = self.oracle_blocks
        return out
