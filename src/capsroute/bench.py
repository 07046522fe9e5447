"""Wall-clock micro-benchmark comparing the two routing procedures.

Timings run under ``no_grad`` on shared random vote tensors so both methods
see identical inputs and neither pays graph-recording costs. Each method is
timed through the ``make_routing`` layer a model runs. Dynamic routing gets one
row per shape and r; the single-pass attention method gets one row per shape,
with iterations 1.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

import numpy as np

from .capsules import RoutingSpec, make_routing
from .errors import ConfigurationError
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


def _time_call(fn, repeats: int, warmup: int = 3) -> float:
    for _ in range(warmup):
        fn()
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def bench_routing(shapes=DEFAULT_SHAPES, r_values=(1, 2, 3), repeats: int = 20) -> list[BenchRow]:
    """Median per-call seconds of dynamic(r) and attention routing per vote shape,
    on votes for a batch of 8."""
    if repeats < 1:
        raise ConfigurationError(f"repeats must be >= 1, got {repeats}")
    rng = np.random.default_rng(0)
    specs = [RoutingSpec("dynamic", r) for r in r_values] + [RoutingSpec("attention", 1)]
    rows: list[BenchRow] = []
    with no_grad():
        for n_in, n_out, d_out in shapes:
            votes = Tensor(rng.normal(0.0, 0.5, size=(8, n_in, n_out, d_out)))
            for spec in specs:
                router = make_routing(spec, d_out)
                med = _time_call(lambda: router(votes), repeats)
                rows.append(BenchRow(spec.method, n_in, n_out, d_out, spec.iterations, med))
    return rows


def rows_to_csv(rows: list[BenchRow]) -> str:
    return "\n".join(["method,n_in,n_out,d_out,iterations,median_seconds"] + [r.csv() for r in rows]) + "\n"
