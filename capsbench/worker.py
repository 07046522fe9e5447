"""One capsroute benchmark workload in a fresh process; started by run.py.

Modes: ``setup`` stops at the first timed call and reports the set-up time,
``measure`` runs the end-to-end loop, ``trace`` the per-layer run, and
``reference`` computes the values ``reference.json`` pins for the workload.
The result is one JSON object on the last line of standard output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PINNED_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def fail(message: str) -> int:
    print(f"worker error: {message}", file=sys.stderr)
    return 2


def commit() -> str:
    """HEAD of the checkout when it is a git work tree; benchmark checkouts are not."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(git, head[5:]), encoding="utf-8") as fh:
                head = fh.read().strip()
        return head
    except OSError:
        return "unknown (not a git checkout)"


def source_digest() -> str:
    """Content hash of the library sources, which identifies the code measured."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "capsroute")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def environment(np, seed: int, seconds: int, pinned: dict) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 2 has no mode argument
        blas_text = "unknown"
    return {
        "commit": commit(),
        "source_digest": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_text,
        "pinned_threads": pinned,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "workload_seed": seed,
        "run_seconds": seconds,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace", "reference"), required=True)
    parser.add_argument("--t0", type=float, required=True, help="time.monotonic() at spawn")
    args = parser.parse_args(argv)

    pinned = {var: os.environ.get(var) for var in PINNED_VARS}
    if any(value != "1" for value in pinned.values()):
        return fail(f"BLAS threads must be pinned to 1 before numpy loads, got {pinned}")
    if not os.path.isfile(os.path.join(SRC, "capsroute", "__init__.py")):
        return fail(f"no library source under {SRC}")
    sys.path.insert(0, SRC)

    import numpy as np

    import capsroute

    if not os.path.abspath(capsroute.__file__).startswith(SRC + os.sep):
        return fail(f"imported capsroute from {capsroute.__file__}, not from {SRC}")

    import workloads

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        return fail(f"unknown workload {args.workload!r}")
    scratch = os.path.join(ROOT, ".bench_results", f"tmp-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    try:
        if args.mode == "reference":
            values, ledger = workloads.reference_round(wl, scratch)
            print(json.dumps({"values": values, "correct": ledger.result()["correct"]}))
            return 0
        ctx = workloads.prepare(wl, args.seed, scratch)
        raw_setup_s = time.monotonic() - args.t0
        # Set-up time at the reference machine speed, as for the throughputs.
        setup_s = raw_setup_s / workloads.Probe().slowdown(5)
        if args.mode == "setup":
            print(json.dumps({"setup_s": setup_s, "raw_setup_s": raw_setup_s}))
            return 0
        if args.mode == "measure":
            result = workloads.measure(ctx, args.seconds)
        else:
            import tracing

            result = tracing.traced_run(ctx, args.seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    result["setup_s"] = setup_s
    result["raw_setup_s"] = raw_setup_s
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["environment"] = environment(np, args.seed, args.seconds, pinned)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
