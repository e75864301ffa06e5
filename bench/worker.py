"""One workload in one process: load the experiment documents, run rounds of
the workload until the time is up, write every report, and leave the figures
in a result file.

    python3 bench/worker.py MANIFEST T0

T0 is the parent's time.monotonic() just before it started this process, so
set-up is timed from process start. The manifest is written by run.py.
"""

import dataclasses
import json
import os
import resource
import sys
import time
from pathlib import Path

def _blas_threads():
    """The thread count OpenBLAS reports, or None where it cannot be asked."""
    import ctypes

    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def environment() -> dict:
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def run_round(esvm, configs, experiments, out_dir, tracer=None) -> dict:
    """Run every experiment once; returns the summed harness stage times."""
    harness = esvm.harness
    stages = {}
    for i, (config, exp) in enumerate(zip(configs, experiments)):
        if tracer is not None:
            tracer.current_experiment = i
        target = out_dir / exp["doc"]["name"]
        report = harness.run_experiment(config)
        harness.emit_report(report, target)
        for stage, seconds in report.run_info["timings"].items():
            stages[stage] = stages.get(stage, 0.0) + seconds
        if exp["sweep"]:
            rows = harness.bn_sweep(config, exp["sweep"])
            harness.write_bn_sweep_csv(rows, target / "sweep.csv")
    return stages


def main(manifest_path: str, t0: float) -> int:
    manifest = json.loads(Path(manifest_path).read_text())
    import esvm.config  # found through PYTHONPATH, which run.py points at the checkout's src

    src = Path(manifest["src"]).resolve()
    if src not in Path(esvm.__file__).resolve().parents:
        print(f"esvm imported from {esvm.__file__}, not from {src}", file=sys.stderr)
        return 2
    tracer = None
    if manifest["trace"]:
        from tracing import STAGES, Tracer, module_metrics

        tracer = Tracer()
        tracer.install(esvm)
    experiments = manifest["experiments"]
    configs = [esvm.config.load_experiment(e["path"]) for e in experiments]
    setup_s = time.monotonic() - t0
    result = {"setup_s": setup_s}
    if tracer is not None:
        tracer.uninstall()
        load = module_metrics(tracer.arrays(), tracer.names)["config.load_s"]
        traced_configs = [dataclasses.replace(c, target=tracer.trace_target(c.target))
                          for c in configs]
    if manifest["setup_only"]:
        Path(manifest["result"]).write_text(json.dumps(result) + "\n")
        return 0

    out = Path(manifest["out"])
    rounds = []
    start = time.perf_counter()
    # Whole rounds until the time is up, at least two so that the outputs of
    # two rounds can be compared. In a traced run, rounds alternate untraced
    # and traced and the run ends after a traced one.
    while True:
        k = len(rounds)
        traced = tracer is not None and k % 2 == 1
        if traced:
            tracer.install(esvm)
            lo = len(tracer)
        wall0, cpu0 = time.perf_counter(), time.process_time()
        stages = run_round(esvm, traced_configs if traced else configs, experiments,
                           out / f"round-{k}", tracer if traced else None)
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        entry = {"wall_s": wall, "cpu_s": cpu, "traced": traced}
        if traced:
            tracer.uninstall()
            modules = module_metrics(tracer.arrays(lo), tracer.names)
            modules["config.load_s"] = load
            for name, stage in STAGES.items():
                modules[name] = stages.get(stage, 0.0)
            entry["modules"] = modules
        rounds.append(entry)
        if (len(rounds) >= 2 and time.perf_counter() - start >= manifest["seconds"]
                and (tracer is None or traced)):
            break
    result["rounds"] = rounds
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["environment"] = environment()
    if tracer is not None:
        tracer.save(out / "spans.npz")
    Path(manifest["result"]).write_text(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], float(sys.argv[2])))
