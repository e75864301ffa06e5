"""Spans around the calls into each module of the esvm package, recorded from
outside the package.

`Tracer.install` wraps every public function of every esvm module at each
name the package binds it to: module attributes, the package namespace, and
module-level dicts such as `fitting.OBJECTIVES`. It also wraps the
constructor hook of `chains.Trajectory`, which copies each chain's states.
`Tracer.trace_target` wraps `potential`, `gradient` and `value_and_grad` of a
loaded `TargetModel`. A span is (name, start, end, parent, experiment id);
spans live in flat arrays until `save` writes them.

A module's `calls` is the number of its outermost spans (spans with no
ancestor of the same module), its `s` their total time, and its `self_s` the
sum over all its spans of the span's time less its children's.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import time
from array import array
from pathlib import Path

import numpy as np

MODULES = ("config", "targets", "samplers", "stein", "variance", "fitting",
           "chains", "harness")
OBJECTIVES = ("esvm_objective", "evm_objective")
LAG_FUNCTIONS = ("spectral_variance", "quadratic_form_apply")
# harness stage figures read from report.run_info["timings"]
STAGES = {"harness.train_sampling_s": "train-sampling", "harness.fit_s": "fit",
          "harness.test_evaluation_s": "test-evaluation"}

PER_LAYER = (
    ("config.load_s", "s"),
    ("targets.potential_calls", "count"),
    ("targets.gradient_calls", "count"),
    ("targets.value_and_grad_calls", "count"),
    ("targets.rows", "count"),
    ("targets.s", "s"),
    ("targets.us_per_row", "us"),
    ("samplers.calls", "count"),
    ("samplers.steps", "count"),
    ("samplers.chains_per_call", "count"),
    ("samplers.s", "s"),
    ("samplers.self_s", "s"),
    ("samplers.steps_per_s", "1/s"),
    ("stein.calls", "count"),
    ("stein.rows", "count"),
    ("stein.s", "s"),
    ("variance.calls", "count"),
    ("variance.s", "s"),
    ("variance.ns_per_lag_point", "ns"),
    ("fitting.calls", "count"),
    ("fitting.s", "s"),
    ("fitting.objective_evals", "count"),
    ("fitting.iterations", "count"),
    ("fitting.ms_per_objective_eval", "ms"),
    ("fitting.unconverged", "count"),
    ("chains.calls", "count"),
    ("chains.s", "s"),
    ("chains.bytes_copied", "B"),
    ("harness.train_sampling_s", "s"),
    ("harness.fit_s", "s"),
    ("harness.test_evaluation_s", "s"),
    ("harness.self_s", "s"),
    ("harness.emit_s", "s"),
    ("harness.report_bytes", "B"),
    ("tracing.overhead_s", "s"),
)


def _rows(x) -> int:
    shape = np.shape(x)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


class Tracer:
    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("l")
        self.parent = array("l")
        self.experiment = array("l")
        self.q1 = array("d")  # two quantities per span, see _count_for
        self.q2 = array("d")
        self._stack: list = []
        self.current_experiment = -1
        self._patches: list = []

    # -- recording -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, name: str, count=None):
        """`fn` with a span around each call; `count(args, kwargs, result)`
        gives the span's two quantities (rows, steps, lag points, ...)."""
        nid = self._name_id(name)
        start, end, names, parent = self.start, self.end, self.name, self.parent
        experiment, q1, q2, stack = self.experiment, self.q1, self.q2, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            names.append(nid)
            parent.append(stack[-1] if stack else -1)
            experiment.append(self.current_experiment)
            q1.append(0.0)
            q2.append(0.0)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if count is not None:
                q1[idx], q2[idx] = count(args, kwargs, result)
            return result

        return traced

    def __len__(self):
        return len(self.start)

    # -- installing ----------------------------------------------------------

    def install(self, esvm) -> None:
        """Wrap every public function of the esvm modules wherever the
        package binds it. `uninstall` restores the originals."""
        modules = {m: getattr(esvm, m) for m in MODULES}
        namespaces = [esvm] + list(modules.values())
        for short, module in modules.items():
            for attr, fn in inspect.getmembers(module, inspect.isfunction):
                if attr.startswith("_") or fn.__module__ != module.__name__:
                    continue
                traced = self.wrap(fn, f"{short}.{attr}", _count_for(attr))
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            self._patch(ns, key, traced)
                        elif isinstance(value, dict) and not key.startswith("__"):
                            for k, v in list(value.items()):
                                if v is fn:
                                    self._patch_item(value, k, traced)
        trajectory = esvm.chains.Trajectory
        post_init = trajectory.__post_init__
        self._patch(trajectory, "__post_init__",
                    self.wrap(post_init, "chains.Trajectory",
                              lambda a, k, r: (a[0].states.nbytes, 0)))

    def _patch(self, owner, key, value):
        self._patches.append(("attr", owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def _patch_item(self, mapping, key, value):
        self._patches.append(("item", mapping, key, mapping[key]))
        mapping[key] = value

    def uninstall(self) -> None:
        for kind, owner, key, original in reversed(self._patches):
            if kind == "attr":
                setattr(owner, key, original)
            else:
                owner[key] = original
        self._patches.clear()

    def trace_target(self, target):
        """A copy of `target` whose three entry points are traced."""
        count = lambda a, k, r: (_rows(a[0]), 0)  # noqa: E731
        return dataclasses.replace(
            target,
            potential=self.wrap(target.potential, "targets.potential", count),
            gradient=self.wrap(target.gradient, "targets.gradient", count),
            value_and_grad=self.wrap(target.value_and_grad, "targets.value_and_grad", count),
        )

    # -- reading -------------------------------------------------------------

    def arrays(self, lo: int = 0) -> dict:
        """The spans from index `lo` on, with parents renumbered from `lo`
        (-1 for a span opened outside that range)."""
        parent = np.asarray(self.parent[lo:], dtype=np.int64)
        return {
            "start": np.array(self.start[lo:], dtype=np.float64),
            "end": np.array(self.end[lo:], dtype=np.float64),
            "name": np.asarray(self.name[lo:], dtype=np.int64),
            "parent": np.where(parent >= lo, parent - lo, -1),
            "experiment": np.asarray(self.experiment[lo:], dtype=np.int64),
            "q1": np.array(self.q1[lo:], dtype=np.float64),
            "q2": np.array(self.q2[lo:], dtype=np.float64),
        }

    def save(self, path) -> None:
        """Write every span: a .npz of the span arrays plus the name table."""
        path = Path(path)
        np.savez_compressed(path, **self.arrays())
        path.with_suffix(".names.json").write_text(json.dumps(self.names) + "\n")


def _count_for(attr: str):
    """The two quantities a span of public function `attr` records, if any."""
    if attr == "sample_chain":
        return lambda a, k, r: ((a[0] if a else k["config"]).n_steps, 1)
    if attr == "sample_chains":
        def steps(a, k, r):
            chains = len(a[2] if len(a) > 2 else k["streams"])
            return ((a[0] if a else k["config"]).n_steps * chains, chains)
        return steps
    if attr in ("stein_values", "feature_matrix"):
        return lambda a, k, r: (np.shape(r)[0], 0)
    if attr in LAG_FUNCTIONS:
        return lambda a, k, r: (np.size(a[0]) * a[1].b_n, 0)
    if attr == "fit":
        return lambda a, k, r: (r.iterations, 0 if r.converged else 1)
    if attr == "emit_report":
        return lambda a, k, r: (sum(Path(p).stat().st_size for p in r.values()), 0)
    if attr == "write_bn_sweep_csv":
        return lambda a, k, r: (Path(a[1] if len(a) > 1 else k["path"]).stat().st_size, 0)
    return None


def module_metrics(spans: dict, names: list) -> dict:
    """Per-module figures of one set of spans (one round)."""
    n = spans["name"].size
    name_module = np.array([MODULES.index(x.split(".", 1)[0]) for x in names] or [0])
    module = name_module[spans["name"]] if n else np.zeros(0, dtype=np.int64)
    duration = spans["end"] - spans["start"]
    parent = spans["parent"]
    q1, q2 = spans["q1"], spans["q2"]

    # Parents are opened before their children, so one pass in index order
    # gives each span the set of modules among its ancestors.
    ancestors = [0] * n
    par, mod = parent.tolist(), module.tolist()
    for i in range(n):
        p = par[i]
        if p >= 0:
            ancestors[i] = ancestors[p] | (1 << mod[p])
    outermost = (np.asarray(ancestors, dtype=np.int64) >> module) & 1 == 0
    nested = parent >= 0
    child_time = np.bincount(parent[nested], weights=duration[nested], minlength=n)
    exclusive = duration - child_time

    out = {}
    for m, short in enumerate(MODULES):
        top = (module == m) & outermost
        out[f"{short}.calls"] = int(np.sum(top))
        out[f"{short}.s"] = float(np.sum(duration[top]))
        out[f"{short}.self_s"] = float(np.sum(exclusive[module == m]))

    def named(*wanted):
        ids = [i for i, x in enumerate(names) if x in wanted]
        return np.isin(spans["name"], ids)

    for kind in ("potential", "gradient", "value_and_grad"):
        out[f"targets.{kind}_calls"] = int(np.sum(named(f"targets.{kind}")))
    out["targets.rows"] = int(np.sum(q1[module == MODULES.index("targets")]))
    out["targets.us_per_row"] = (out["targets.s"] / out["targets.rows"] * 1e6
                                 if out["targets.rows"] else 0.0)

    sampling = named("samplers.sample_chain", "samplers.sample_chains") & outermost
    out["samplers.steps"] = int(np.sum(q1[sampling]))
    out["samplers.chains_per_call"] = float(np.mean(q2[sampling])) if np.any(sampling) else 0.0
    out["samplers.steps_per_s"] = (out["samplers.steps"] / out["samplers.s"]
                                   if out["samplers.s"] else 0.0)

    out["stein.rows"] = int(np.sum(q1[named("stein.stein_values", "stein.feature_matrix")
                                      & outermost]))

    lag = named(*(f"variance.{f}" for f in LAG_FUNCTIONS)) & outermost
    lag_points = float(np.sum(q1[lag]))
    out["variance.ns_per_lag_point"] = (float(np.sum(duration[lag])) / lag_points * 1e9
                                        if lag_points else 0.0)

    objectives = named(*(f"fitting.{f}" for f in OBJECTIVES))
    out["fitting.objective_evals"] = int(np.sum(objectives))
    out["fitting.ms_per_objective_eval"] = (float(np.mean(duration[objectives])) * 1e3
                                            if np.any(objectives) else 0.0)
    fits = named("fitting.fit") & outermost
    out["fitting.iterations"] = int(np.sum(q1[fits]))
    out["fitting.unconverged"] = int(np.sum(q2[fits]))

    out["chains.bytes_copied"] = int(np.sum(q1[named("chains.Trajectory")]))
    emits = named("harness.emit_report", "harness.write_bn_sweep_csv") & outermost
    out["harness.emit_s"] = float(np.sum(duration[emits]))
    out["harness.report_bytes"] = int(np.sum(q1[emits]))
    out["config.load_s"] = float(np.sum(duration[named("config.load_experiment") & outermost]))
    return out
