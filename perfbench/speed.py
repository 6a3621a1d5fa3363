"""Machine-speed probes, for timings that hold still on a shared machine.

On a shared virtual machine the same CLI op can take 1.5 times longer from
one minute to the next, because other tenants load the host.  The benchmark
therefore runs three fixed probe loops between ops (never inside a timed
op), one for each kind of work the workloads spend their time on:
small-array numpy with frozen dataclasses (beta-grid points), dense LAPACK
factorizations (random instance generation) and a pure-Python float loop
(the Lerch series).  Timings are divided by the median over the run of the
probes' mean slowdown against their nominal times.  The probes use only
numpy and the standard library, never nlsthermo, so a change to the
program cannot move them.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass

import numpy as np

#: seconds between probe samples
EVERY_S = 0.5

_rng = np.random.default_rng(12345)
_T8 = _rng.uniform(size=(8, 8))
_T8 /= _T8.sum(axis=0)
_E8 = _rng.uniform(size=8)
_M = _rng.uniform(size=(128, 128))
_M /= _M.sum(axis=0)
_DEFICIT = _M - np.eye(128)
_BORDERED = _DEFICIT.copy()
_BORDERED[-1, :] = 1.0
_RHS = np.zeros(128)
_RHS[-1] = 1.0


@dataclass(frozen=True)
class _Distribution:
    w: np.ndarray

    def __post_init__(self):
        if not np.all(np.isfinite(self.w)) or abs(float(self.w.sum()) - 1.0) > 1e-9:
            raise ValueError("not a distribution")


def small_arrays() -> None:
    for beta in np.linspace(-5.0, 5.0, 300):
        log_w = -float(beta) * _E8
        w = np.exp(log_w - log_w.max())
        p = _Distribution(w / w.sum())
        q = _Distribution(_T8 @ p.w)
        float(-(q.w * np.log(q.w)).sum()) - float(-(p.w * np.log(p.w)).sum())


def lapack() -> None:
    for _ in range(3):
        np.linalg.svd(_DEFICIT, compute_uv=False)
        np.linalg.solve(_BORDERED, _RHS)


def python_loop() -> None:
    acc, zk = 0.0, 1.0
    for k in range(40000):
        acc += zk / (k + 1.5) ** 2
        zk *= 0.9999


PROBES = {"small": small_arrays, "lapack": lapack, "python": python_loop}

#: probe times in ms on the machine the benchmark was tuned on (2 vCPU
#: sandbox, Python 3.11, numpy 2.4, one OpenBLAS thread); they only set the
#: scale, so that a factor of 1 means "as fast as it was then"
NOMINAL_MS = {"small": 10.0, "lapack": 5.7, "python": 8.0}


class SpeedMeter:
    """Samples the mean probe slowdown at most every ``EVERY_S``."""

    def __init__(self):
        self.samples: list[float] = []
        self.probe_ms: dict[str, list[float]] = {name: [] for name in PROBES}
        self._last = -math.inf

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last < EVERY_S:
            return
        slowdown = 0.0
        for name, probe in PROBES.items():
            start = time.perf_counter()
            probe()
            ms = (time.perf_counter() - start) * 1e3
            self.probe_ms[name].append(ms)
            slowdown += ms / NOMINAL_MS[name]
        self.samples.append(slowdown / len(PROBES))
        self._last = time.perf_counter()

    def factor(self) -> float:
        """Median slowdown against nominal; timings are divided by it."""
        return statistics.median(self.samples)
