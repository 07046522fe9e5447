"""capsroute benchmark: run one workload in fresh processes and report it as JSON.

Run from the repository root:

    python3 capsbench/run.py --workload train-conv --seed 1 --seconds 40 --trace 0
    python3 capsbench/run.py --workload all --seed 1 --seconds 40 --trace 1
    python3 capsbench/run.py --workload all --write-reference

``--trace 0`` measures the end-to-end metrics, ``--trace 1`` the per-layer
metrics (a separate run, so tracing never touches the end-to-end figures).
Every metric is printed by name with its unit, the full result is written to
``.bench_results/BENCH_<workload>_seed<n>_trace<t>.json`` and the last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--write-reference`` recomputes the values that every run checks
its reference-seed round against and rewrites ``capsbench/reference.json``;
use it only when a change to a workload is meant to change its arithmetic.

Load model: closed loop. One client in one process issues steps or batches
back to back, each waiting for the previous one; workloads run one at a time.
Throughputs and set-up time are scaled to a reference machine speed by a
probe kernel timed between rounds (see workloads.py); the figures as
measured are written and printed as ``raw.*``.
This file only starts processes and aggregates; ``worker.py`` does the work,
with the BLAS thread variables pinned to 1 before numpy is imported. The
library is imported from ``src/`` of the checkout, so the benchmark fails
(exit 2, no result line) where that tree is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
RESULTS_DIR = os.path.join(ROOT, ".bench_results")
WORKLOADS = ("train-conv", "train-routing", "eval-pipeline")
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# setup_s is the median over this many fresh processes (the measuring one included).
SETUP_PROCESSES = 5
REFERENCE_FILE = os.path.join(HERE, "reference.json")


def deadline_s(seconds):
    """Time one workload may take: its measured seconds, as much again for
    set-up, warm-up and checks, and a minute of slack."""
    return 2.0 * seconds + 60.0


class BenchError(Exception):
    pass


def _quantiles(values, n):
    # Inclusive: cut points never leave the range of the samples.
    return statistics.quantiles(values, n=n, method="inclusive")


def summarize(values, unit, stat="median"):
    """The median (or the 90th percentile) with the samples, their count and quartiles."""
    if len(values) < 2:
        value = q1 = q3 = values[0]
    else:
        q1, value, q3 = _quantiles(values, 4)
        if stat == "p90":
            value = _quantiles(values, 10)[8]
    return {"value": value, "unit": unit, "n": len(values), "q1": q1, "q3": q3,
            "samples": values}


def _spawn(args, mode, deadline):
    """Run worker.py once; return its JSON result (its last stdout line)."""
    remaining = deadline - time.monotonic()
    if remaining <= 1.0:
        raise BenchError("out of time before starting a worker process")
    env = dict(os.environ)
    env.update(PINNED_THREADS)
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode]
    t0 = time.monotonic()
    cmd += ["--t0", repr(t0)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              timeout=remaining, text=True)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        raise BenchError(f"{mode} worker for {args.workload} exceeded the deadline") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker for {args.workload} exited with {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(args, deadline):
    setups = []
    if args.trace == 0:
        setups = [_spawn(args, "setup", deadline) for _ in range(SETUP_PROCESSES - 1)]
    result = _spawn(args, "trace" if args.trace else "measure", deadline)
    summaries = {name: summarize(*entry) for name, entry in result["samples"].items()}
    # raw.* are the throughputs as measured, before scaling to the reference
    # machine speed; they are written and printed, not reported as metrics.
    metrics = {k: v for k, v in summaries.items() if not k.startswith("raw.")}
    raw = {k: v for k, v in summaries.items() if k.startswith("raw.")}
    if args.trace == 0:
        setups.append(result)
        metrics["setup_s"] = summarize([s["setup_s"] for s in setups], "s")
        raw["raw.setup_s"] = summarize([s["raw_setup_s"] for s in setups], "s")
        metrics["peak_rss_mb"] = summarize([result["peak_rss_mb"]], "MB")
    attempted, failed = result["attempted"], result["failed"]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "load_model": "closed loop, 1 client, 1 process, workloads run one at a time",
        "environment": result["environment"],
        "correct": result["correct"],
        "attempted": attempted,
        "failed": failed,
        "ops_failed_ratio": failed / attempted,
        "checks": result["checks"],
        "digests": result["digests"],
        "errors": result["errors"],
        "flags": result.get("flags", []),
        "diagnostics": result.get("diagnostics", {}),
        "reference": result["reference"],
        "largest_stage": result.get("largest_stage"),
        "stage_shares": result.get("stage_shares", {}),
        "metrics": dict(sorted(metrics.items())),
        "raw": dict(sorted(raw.items())),
        "spans": result.get("spans", []),
    }
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    report["path"] = path
    return report


def print_report(report):
    print(f"== {report['workload']}  seed={report['seed']}  trace={report['trace']}  "
          f"attempted={report['attempted']}  failed={report['failed']}  "
          f"ops_failed_ratio={report['ops_failed_ratio']:.4f}")
    for name, m in {**report["metrics"], **report["raw"]}.items():
        print(f"  {name:<52} {m['value']:>14.6g} {m['unit']:<10} "
              f"(n={m['n']}, q1={m['q1']:.6g}, q3={m['q3']:.6g})")
    for name, digest in sorted(report["digests"].items()):
        print(f"  digest {name} = {digest}")
    for name, ok in sorted(report["checks"].items()):
        print(f"  check {name}: {'ok' if ok else 'FAILED'}")
    if report["largest_stage"]:
        shares = ", ".join(f"{k} {100 * v:.1f}%" for k, v in report["stage_shares"].items())
        print(f"  largest stage: {report['largest_stage']}; share of step: {shares}")
    for name, value in report["diagnostics"].items():
        print(f"  diagnostic {name} = {value:.6g}")
    for error in report["errors"]:
        print(f"  ERROR: {error}")
    for flag in report["flags"]:
        print(f"  FLAG: {flag}")
    env = report["environment"]
    print(f"  env: python {env['python']}, numpy {env['numpy']}, blas {env['blas']}, "
          f"threads {env['pinned_threads']}, nproc {env['nproc']}, commit {env['commit']}")
    print(f"  wrote {report['path']}")


def write_reference(args, names):
    reference = {}
    if os.path.isfile(REFERENCE_FILE):
        with open(REFERENCE_FILE, encoding="utf-8") as fh:
            reference = json.load(fh)
    for name in names:
        wl_args = argparse.Namespace(**{**vars(args), "workload": name})
        try:
            out = _spawn(wl_args, "reference", time.monotonic() + deadline_s(args.seconds))
        except BenchError as err:
            print(f"error: {err}", file=sys.stderr)
            return 2
        if not out["correct"]:
            print(f"error: the reference round of {name} failed its checks", file=sys.stderr)
            return 2
        reference[name] = out["values"]
        print(f"{name}: {out['values']}")
    with open(REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump(dict(sorted(reference.items())), fh, indent=1)
        fh.write("\n")
    print(f"wrote {REFERENCE_FILE}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="recompute and rewrite capsbench/reference.json, then exit")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "capsroute", "__init__.py")):
        print(f"error: no library source at {os.path.join(ROOT, 'src', 'capsroute')}",
              file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    if args.write_reference:
        return write_reference(args, names)
    reports = []
    for name in names:
        deadline = time.monotonic() + deadline_s(args.seconds)
        try:
            reports.append(run_workload(argparse.Namespace(**{**vars(args), "workload": name}),
                                        deadline))
        except BenchError as err:
            print(f"error: {err}", file=sys.stderr)
            return 2
        print_report(reports[-1])

    if len(reports) == 1:
        metrics = reports[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": m for r in reports for k, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
