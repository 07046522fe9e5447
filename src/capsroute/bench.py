"""Wall-clock micro-benchmark comparing the two routing procedures.

Timings run under ``no_grad`` on shared random vote tensors so both methods
see identical inputs and neither pays graph-recording costs. Each method is
timed through the ``Routing`` layer a model runs. Dynamic routing gets one
row per shape and r; the single-pass attention method gets one row per shape,
with iterations 1.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

import numpy as np

from .capsules import Routing, RoutingSpec
from .errors import check_integer
from .tensor import Tensor, no_grad

__all__ = ["BenchRow", "bench_routing", "rows_to_csv"]

DEFAULT_SHAPES = ((128, 2, 16), (512, 2, 16), (1152, 2, 16))


@dataclass
class BenchRow:
    method: str
    n_in: int
    n_out: int
    d_out: int
    iterations: int
    median_seconds: float

    def csv(self) -> str:
        return (
            f"{self.method},{self.n_in},{self.n_out},{self.d_out},"
            f"{self.iterations},{self.median_seconds:.9f}"
        )


def _time_round_robin(fns, repeats: int) -> list[float]:
    """Median seconds per call of each of ``fns``, timed one call each per round
    and in reverse order every other round, after 3 untimed rounds."""
    for _ in range(3):
        for fn in fns:
            fn()
    samples = [[] for _ in fns]
    order = list(range(len(fns)))
    for _ in range(repeats):
        for i in order:
            t0 = time.perf_counter()
            fns[i]()
            samples[i].append(time.perf_counter() - t0)
        order.reverse()
    return [statistics.median(times) for times in samples]


def bench_routing(shapes=DEFAULT_SHAPES, r_values=(1, 2, 3), repeats: int = 20) -> list[BenchRow]:
    """Median per-call seconds of dynamic(r) and attention routing per vote shape,
    on votes for a batch of 8.

    Per shape the methods are timed round-robin, so a burst of load from
    another process falls on all of them rather than on one."""
    check_integer("repeats", repeats, 1)
    rng = np.random.default_rng(0)
    specs = [RoutingSpec("dynamic", r) for r in r_values] + [RoutingSpec("attention", 1)]
    rows: list[BenchRow] = []
    with no_grad():
        for n_in, n_out, d_out in shapes:
            votes = Tensor(rng.normal(0.0, 0.5, size=(8, n_in, n_out, d_out)))
            calls = [lambda router=Routing(spec, d_out): router(votes) for spec in specs]
            meds = _time_round_robin(calls, repeats)
            rows += [BenchRow(spec.method, n_in, n_out, d_out, spec.iterations, med)
                     for spec, med in zip(specs, meds)]
    return rows


def rows_to_csv(rows: list[BenchRow]) -> str:
    return "\n".join(["method,n_in,n_out,d_out,iterations,median_seconds"] + [r.csv() for r in rows]) + "\n"
