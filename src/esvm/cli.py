"""Command-line front end.

Subcommands: sample, fit, evaluate, run, acf, sweep-bn. Every command takes
--config PATH plus optional --seed, --out and --threads overrides; when
--threads is absent the ESVM_THREADS environment variable is consulted.
Exit codes: 0 success, 2 configuration error (the experiment document, a
command-line value or ESVM_THREADS, or fit.json for evaluate; found before
any chain is sampled), 3 numeric/pipeline failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .chains import save_trajectory
from .config import load_experiment
from .errors import ConfigError, EsvmError
from .harness import (
    acf_dump,
    bn_sweep,
    build_design,
    emit_report,
    evaluate_with_parameters,
    fit_methods,
    run_experiment,
    train_chain,
    write_acf_csv,
    write_bn_sweep_csv,
)
from .variance import LagWindow


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--config", required=True, help="experiment description (JSON)")
    parser.add_argument("--seed", type=int, default=None, help="override the master seed")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--threads", type=int, default=None,
                        help="worker threads for test chains (default: ESVM_THREADS or 1)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="esvm",
                                     description="Variance-reduced MCMC estimation experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, descr in [
        ("sample", "sample and persist the training trajectory"),
        ("fit", "fit control variates on the training chain"),
        ("evaluate", "score previously fitted parameters on test chains"),
        ("run", "full pipeline: sample, fit, evaluate, report"),
        ("acf", "dump the training chain's autocorrelation function"),
        ("sweep-bn", "refit at several training truncations"),
    ]:
        p = sub.add_parser(name, help=descr)
        _add_common(p)
        if name == "acf":
            p.add_argument("--max-lag", type=int, default=200)
        if name == "sweep-bn":
            p.add_argument("--bn", required=True,
                           help="comma-separated truncation points, e.g. 1,10,100")
    return parser


def _resolve_threads(args) -> int | None:
    if args.threads is not None:
        return args.threads
    env = os.environ.get("ESVM_THREADS")
    if not env:
        return None
    try:
        return int(env)
    except ValueError:
        raise ConfigError(f"ESVM_THREADS must be an integer, got {env!r}") from None


def _out_dir(args, config) -> Path:
    out = Path(args.out) if args.out else Path(f"runs/{config.name}")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_sample(args, config) -> int:
    out = _out_dir(args, config)
    traj, stats = train_chain(config)
    path = out / "train.traj"
    save_trajectory(traj, path)
    print(f"wrote {path} ({len(traj)} states, dim {traj.dim}, "
          f"acceptance {stats.rate:.3f})")
    return 0


def _cmd_fit(args, config) -> int:
    out = _out_dir(args, config)
    traj, _ = train_chain(config)
    design = build_design(config, traj, LagWindow(config.train_truncation))
    fits = fit_methods(config, design)
    doc = {
        "name": config.name,
        "family": config.family.describe(),
        "methods": {m: r.to_dict() for m, r in fits.items()},
    }
    path = out / "fit.json"
    path.write_text(json.dumps(doc, indent=2) + "\n")
    for m, r in fits.items():
        print(f"{m}: objective {r.objective_at_zero:.6g} -> {r.objective_at_theta:.6g} "
              f"({r.method}, {r.iterations} iterations)"
              + ("" if r.converged else ", fit not converged"))
    print(f"wrote {path}")
    return 0


def _read_thetas(path: Path) -> dict:
    """method -> theta from a fit.json document, each checked to be a list of
    numbers; `evaluate_with_parameters` checks their count and finiteness
    before it samples a chain."""
    if not path.exists():
        raise ConfigError(f"no fitted parameters at {path}; run `esvm fit` first")
    try:
        # integers are read as floats, so that every number is a float
        doc = json.loads(path.read_text(), parse_int=float)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    methods = doc.get("methods") if isinstance(doc, dict) else None
    if not isinstance(methods, dict):
        raise ConfigError(f"{path} must be a JSON object with a 'methods' object")
    thetas = {}
    for method, entry in methods.items():
        theta = entry.get("theta") if isinstance(entry, dict) else None
        if not (isinstance(theta, list) and all(isinstance(v, float) for v in theta)):
            raise ConfigError(f"{path}: the theta of method {method!r} must be a list "
                              "of numbers")
        thetas[method] = np.asarray(theta)
    return thetas


def _cmd_evaluate(args, config) -> int:
    out = _out_dir(args, config)
    report = evaluate_with_parameters(config, _read_thetas(out / "fit.json"))
    paths = emit_report(report, out)
    _print_summary(report)
    print(f"wrote {paths['report']}")
    return 0


def _cmd_run(args, config) -> int:
    out = _out_dir(args, config)
    report = run_experiment(config)
    paths = emit_report(report, out)
    _print_summary(report)
    print(f"wrote {paths['report']}")
    return 0


def _cmd_acf(args, config) -> int:
    if not 0 <= args.max_lag < config.n_train:
        raise ConfigError(f"--max-lag {args.max_lag} outside [0, {config.n_train}) for a "
                          f"training chain of {config.n_train} states")
    out = _out_dir(args, config)
    traj, _ = train_chain(config)
    values = acf_dump(config.evaluator(traj.states), args.max_lag)
    path = out / "acf.csv"
    write_acf_csv(values, path)
    print(f"wrote {path}")
    return 0


def _cmd_sweep(args, config) -> int:
    try:
        bn_values = [int(v) for v in args.bn.split(",") if v.strip()]
    except ValueError:
        raise ConfigError(f"--bn must be comma-separated integers, got {args.bn!r}") from None
    out = _out_dir(args, config)
    rows = bn_sweep(config, bn_values)
    path = out / "bn_sweep.csv"
    write_bn_sweep_csv(rows, path)
    for r in rows:
        print(f"b_n={r['b_n']}: mean VRF {r['mean_vrf']}")
    print(f"wrote {path}")
    return 0


def _print_summary(report) -> None:
    print(f"experiment: {report.config['name']} "
          f"[{report.config['sampler']}, n_test_chains={report.config['n_test_chains']}]")
    for m in report.methods:
        print(f"  {m.method}: mean VRF {m.mean_vrf}"
              + (f" ({m.infinite_count} flagged infinite)" if m.infinite_count else "")
              + ("" if m.fit["converged"] else ", fit not converged"))
    cpu = report.run_info["cpu_timings"]
    steps = report.run_info["chain_steps"]
    worker_rss = report.run_info["worker_peak_rss_mb"]
    for stage, wall in report.run_info["timings"].items():
        line = f"  {stage}: {wall:.3f} s wall, {cpu[stage]:.3f} s CPU"
        if steps.get(stage):
            line += f", {steps[stage] / wall:,.0f} chain-steps/s"
        if stage == "first-batch" and worker_rss is not None:
            line += f", in a worker of {worker_rss:.1f} MiB peak RSS"
        print(line)
    if report.run_info["peak_rss_mb"] is not None:
        print(f"  peak RSS: {report.run_info['peak_rss_mb']:.1f} MiB in this process")


_COMMANDS = {
    "sample": _cmd_sample,
    "fit": _cmd_fit,
    "evaluate": _cmd_evaluate,
    "run": _cmd_run,
    "acf": _cmd_acf,
    "sweep-bn": _cmd_sweep,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_experiment(args.config, seed_override=args.seed,
                                 threads=_resolve_threads(args))
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        return _COMMANDS[args.command](args, config)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except EsvmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
