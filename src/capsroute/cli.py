"""Command-line entry points.

Subcommands: gen-data, train, eval, gradcheck, bench-routing, sweep-lambda.
Every command accepts ``--config FILE`` (key=value lines) and repeated
``--set key=value`` overrides; precedence is defaults < file < --set.
"""

from __future__ import annotations

import argparse
import inspect
import math
import sys
from pathlib import Path

from . import bench, config as cfg_mod, data, experiment, gradcheck
from .errors import CapsrouteError, ConfigurationError
from .training import evaluate

__all__ = ["main"]


def _resolved_config(args) -> dict:
    file_values = cfg_mod.parse_config_file(args.config) if args.config else {}
    overrides = {}
    for item in args.set or []:
        if "=" not in item:
            raise ConfigurationError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        overrides[key.strip()] = value.strip()
    return cfg_mod.resolve(file_values, overrides)


def _emit(out: str | None, text: str) -> None:
    """Write ``text`` to the file ``out`` and say so, or print it when ``out`` is unset."""
    if out:
        path = Path(out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
        print(f"wrote {out}")
    else:
        print(text, end="")


def _cmd_gen_data(args) -> int:
    cfg = _resolved_config(args)
    dataset = data.generate(cfg_mod.build(data.SynthConfig, cfg))
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    data.save(dataset, args.out)
    n_pos = int(dataset.labels.sum())
    print(f"wrote {len(dataset)} samples ({n_pos} positive) to {args.out}")
    return 0


def _cmd_train(args) -> int:
    cfg = _resolved_config(args)
    model, record = experiment.run_experiment(cfg, data_path=args.data)
    experiment.save_run(args.run_dir, model, record)
    print(f"run artifacts in {args.run_dir}")
    for name in sorted(record.metrics):
        print(f"--- {name} ---")
        print(record.metrics[name].to_text())
    return 0


def _cmd_eval(args) -> int:
    model, dataset = experiment.load_run(args.run_dir, args.data)
    report = evaluate(model, dataset)
    print(report.to_text())
    print(report.confusion_table())
    return 0


def _cmd_gradcheck(args) -> int:
    results = gradcheck.standard_suite(seed=args.seed)
    for res in results:
        print(res.line())
    failed = [r for r in results if not r.ok]
    print(f"{len(results) - len(failed)}/{len(results)} gradient checks passed")
    return 1 if failed else 0


def _positive_ints(flag: str, raw: str) -> tuple[int, ...]:
    try:
        values = tuple(int(x) for x in raw.split(","))
    except ValueError:
        raise ConfigurationError(f"{flag} expects comma-separated integers, got {raw!r}") from None
    if min(values) < 1:
        raise ConfigurationError(f"{flag} expects positive integers, got {raw!r}")
    return values


def _lambda_grid(raw: str) -> tuple[float, ...]:
    try:
        values = tuple(float(x) for x in raw.split(","))
    except ValueError:
        raise ConfigurationError(f"--grid expects comma-separated numbers, got {raw!r}") from None
    if not all(math.isfinite(v) and v >= 0 for v in values):
        raise ConfigurationError(f"--grid expects finite non-negative numbers, got {raw!r}")
    return values


def _parse_shapes(raw: str):
    shapes = []
    for part in raw.split(";"):
        dims = _positive_ints("--shapes", part)
        if len(dims) != 3:
            raise ConfigurationError(f"shape needs n_in,n_out,d_out, got {part!r}")
        shapes.append(dims)
    return tuple(shapes)


def _cmd_bench_routing(args) -> int:
    if args.repeats < 1:
        raise ConfigurationError(f"--repeats must be >= 1, got {args.repeats}")
    rows = bench.bench_routing(
        shapes=_parse_shapes(args.shapes),
        r_values=_positive_ints("--iterations", args.iterations),
        repeats=args.repeats,
    )
    _emit(args.out, bench.rows_to_csv(rows))
    return 0


def _cmd_sweep_lambda(args) -> int:
    cfg = _resolved_config(args)
    results = experiment.sweep_lambda(cfg, _lambda_grid(args.grid))
    _emit(args.out, experiment.lambda_table(results))
    return 0


def _default(fn, name: str):
    """The default of ``fn``'s argument ``name``, so each CLI default lives in the library."""
    return inspect.signature(fn).parameters[name].default


def _joined(values) -> str:
    return ",".join(map(str, values))


def _add_config_args(parser) -> None:
    parser.add_argument("--config", help="key=value configuration file")
    parser.add_argument(
        "--set", action="append", metavar="KEY=VALUE", help="override one configuration key"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="capsroute", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="render a synthetic dataset to an ECAP file")
    _add_config_args(p)
    p.add_argument("--out", required=True, help="output .ecap path")
    p.set_defaults(fn=_cmd_gen_data)

    p = sub.add_parser("train", help="train a model and write run artifacts")
    _add_config_args(p)
    p.add_argument("--data", help="existing .ecap file (otherwise data is generated)")
    p.add_argument("--run-dir", required=True, help="directory for record, metrics, and weights")
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a trained run directory on an ECAP file")
    p.add_argument("--run-dir", required=True)
    p.add_argument("--data", required=True)
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("gradcheck", help="run the finite-difference verification battery")
    p.add_argument("--seed", type=int, default=_default(gradcheck.standard_suite, "seed"))
    p.set_defaults(fn=_cmd_gradcheck)

    p = sub.add_parser("bench-routing", help="time dynamic vs attention routing")
    p.add_argument("--shapes", default=";".join(map(_joined, bench.DEFAULT_SHAPES)),
                   help="semicolon-separated n_in,n_out,d_out triples")
    p.add_argument("--iterations", default=_joined(_default(bench.bench_routing, "r_values")),
                   help="comma-separated dynamic r values")
    p.add_argument("--repeats", type=int, default=_default(bench.bench_routing, "repeats"))
    p.add_argument("--out", help="write CSV here instead of stdout")
    p.set_defaults(fn=_cmd_bench_routing)

    p = sub.add_parser("sweep-lambda", help="train across auxiliary-loss multipliers")
    _add_config_args(p)
    p.add_argument("--grid", default=_joined(experiment.DEFAULT_LAMBDA_GRID))
    p.add_argument("--out", help="write the metric table CSV here")
    p.set_defaults(fn=_cmd_sweep_lambda)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (CapsrouteError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
