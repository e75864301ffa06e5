"""The esvm benchmark: runs one workload (or all four) of experiment documents
through the package's public entry points, checks the outputs, and prints
every metric by name with its unit. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.

    python3 bench/run.py --workload mixture --seed 2024 --seconds 15 --trace 0

With --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-module figures of a traced run plus the tracing overhead. Each
workload runs in its own worker process with one BLAS thread. Outputs go to
bench/out/. See bench/README.md.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

from workloads import WORKLOADS, experiments  # noqa: E402  (bench/ is the script's directory)

DEFAULT_SEED = 2024
# Extra processes that only set up, so that setup_s is a median of
# SETUP_PROBES + 1 set-ups (the measured worker sets up too).
SETUP_PROBES = 2
# A workload's processes, set-ups included, must end well within three minutes.
RUN_BUDGET_S = 170.0

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MiB"))
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    """The benchmark could not run a workload to its end."""


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for name in THREAD_ENV:
        env[name] = "1"
    env.pop("ESVM_THREADS", None)
    return env


def spawn(manifest: dict, path: Path, deadline: float) -> dict:
    """Run bench/worker.py on a manifest and return the result it wrote."""
    path.write_text(json.dumps(manifest, indent=1) + "\n")
    result = Path(manifest["result"])
    result.unlink(missing_ok=True)
    timeout = max(1.0, deadline - time.monotonic())
    t0 = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), str(path), repr(t0)],
                              env=worker_env(), cwd=ROOT, timeout=timeout,
                              stdout=subprocess.DEVNULL)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker still running after {timeout:.0f} s") from exc
    if proc.returncode != 0 or not result.exists():
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(result.read_text())


def run_workload(workload: str, seed: int, seconds: float, trace: bool, scale: str,
                 deadline: float) -> dict:
    import checks

    run_dir = OUT / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "docs").mkdir(parents=True)
    exps = experiments(workload, seed, scale)
    for exp in exps:
        exp["path"] = str(run_dir / "docs" / f"{exp['doc']['name']}.json")
        Path(exp["path"]).write_text(json.dumps(exp["doc"], indent=1) + "\n")
    manifest = {"src": str(SRC), "experiments": exps, "out": str(run_dir),
                "seconds": seconds, "trace": trace, "setup_only": False,
                "result": str(run_dir / "result.json")}

    setups = []
    if not trace:
        for k in range(SETUP_PROBES):
            probe = {**manifest, "setup_only": True, "result": str(run_dir / f"setup-{k}.json")}
            setups.append(spawn(probe, run_dir / f"setup-{k}.manifest.json", deadline)["setup_s"])
    result = spawn(manifest, run_dir / "manifest.json", deadline)
    setups.append(result["setup_s"])

    rounds = result["rounds"]
    round_dirs = [run_dir / f"round-{k}" for k in range(len(rounds))]
    per_round, failed, problems = checks.run_checks(round_dirs, exps, seed)

    if trace:
        traced = [r for r in rounds if r["traced"]]
        plain = [r for r in rounds if not r["traced"]]
        for r in traced:
            r["modules"]["tracing.overhead_s"] = (
                r["wall_s"] - statistics.median(p["wall_s"] for p in plain))
        metrics = {name: statistics.median(r["modules"][name] for r in traced)
                   for name in units(True)}
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(r["wall_s"] for r in rounds),
            "cpu_s": statistics.median(r["cpu_s"] for r in rounds),
            "peak_rss_mb": result["peak_rss_mb"],
        }
    summary = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "scale": scale, "rounds": len(rounds), "setups": setups,
        "round_wall_s": [r["wall_s"] for r in rounds],
        "attempted": per_round * len(rounds), "failed": len(failed) * len(rounds),
        "failed_operations": failed, "problems": problems,
        "environment": result["environment"], "metrics": metrics,
    }
    (run_dir / "summary.json").write_text(json.dumps(summary, indent=1) + "\n")
    return summary


def units(trace: bool) -> dict:
    if trace:
        from tracing import PER_LAYER

        return dict(PER_LAYER)
    return dict(END_TO_END)


def report(summary: dict) -> None:
    tag = f"[{summary['workload']}]"
    unit = units(summary["trace"])
    print(f"{tag} seed {summary['seed']}, {summary['rounds']} rounds in "
          f"{summary['seconds']:g} s, trace {'on' if summary['trace'] else 'off'}")
    for name, value in summary["metrics"].items():
        print(f"{tag} {name:32s} {value:16.6f} {unit[name]}")
    print(f"{tag} operations attempted {summary['attempted']}, failed {summary['failed']} "
          f"({', '.join(summary['failed_operations']) or 'none'} in each round)")
    print(f"{tag} environment {json.dumps(summary['environment'], sort_keys=True)}")
    for problem in summary["problems"]:
        print(f"{tag} CHECK FAILED: {problem}")
    print(f"{tag} checks {'passed' if not summary['problems'] else 'FAILED'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--scale", default="full", choices=("full", "tiny"),
                        help="tiny runs short chains, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    if not (SRC / "esvm" / "__init__.py").is_file():
        print(f"no esvm sources under {SRC}", file=sys.stderr)
        return 2

    compileall.compile_dir(str(SRC), quiet=1)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    summaries = []
    try:
        for name in names:
            summaries.append(run_workload(name, args.seed, args.seconds, bool(args.trace),
                                          args.scale, time.monotonic() + RUN_BUDGET_S))
            report(summaries[-1])
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    unit = units(bool(args.trace))
    if len(summaries) == 1:
        metrics = {k: {"value": v, "unit": unit[k]} for k, v in summaries[0]["metrics"].items()}
    else:
        metrics = {f"{s['workload']}.{k}": {"value": v, "unit": unit[k]}
                   for s in summaries for k, v in s["metrics"].items()}
    print(json.dumps({
        "correct": all(not s["problems"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
