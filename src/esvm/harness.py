"""Experiment pipeline: train a chain, fit control variates, score them on
held-out chains, and emit machine-readable reports.

Protocol for one experiment: sample a training chain (stream 0) of
n_burn + n_train states and keep the last n_train; fit each requested method
on it; sample n_test_chains independent chains (streams 1..N of the same
master seed) of n_burn + n_test states, in lock-step batches of at most
batch_size, keeping the last n_test; on every test chain compute the windowed
long-run variance of the raw functional and of each adjusted functional, their
ratio (the variance reduction factor), and the ergodic averages. The training
chain rides in the first batch's sampler call, which is made before the fit.
Both methods are scored on the same test chains, never resampled.

One private pipeline, `_experiment`, runs that protocol for every entry point:
it samples the first batch (with the training chain when there is a fit to
make), runs a fit stage on the one design built from the training chain or
takes given fits, and scores every test chain. `run_experiment` fits each
method and `evaluate_with_parameters` takes given parameters (no training
chain is sampled); both then only aggregate the rows into a report.
`bn_sweep` fits esvm at each training truncation of the one design and reads
each row's mean VRF and infinite count from the per-fit summary a report's
methods use. The configuration builds its functional's evaluator once, and
`_along_chain` evaluates it and grad U along every chain, training and test
alike, a block of states at a time.

Reports are deterministic functions of the configuration: floats are written
with 17 significant digits and rows are ordered by stream index, so reruns
produce byte-identical vrf.csv files. Wall-clock data lives in a separate
run_info block that reproducibility comparisons must ignore.
"""

from __future__ import annotations

import json
import platform
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .chains import SeedKey, Trajectory, ergodic_average
from .errors import ConfigError, StageError
from .fitting import OBJECTIVES, DesignSet, FitResult, RbfResponse, fit
from .samplers import NOISE_BLOCK, SamplerConfig, _check_x0, sample_chain, sample_chains
from .stein import SteinFamily, feature_matrix, stein_values
from .targets import TargetModel
from .variance import LagWindow, autocovariances, default_truncation, spectral_variance

SCHEMA_VERSION = 1

# Test chains advanced together per lock-step sampler call. Large enough that
# the per-step Python overhead is paid once for a typical experiment's test
# chains; the sampler's memory beyond the kept states does not grow with it.
DEFAULT_BATCH_SIZE = 100

# Most bytes of kept test-chain states one batch may hold. Batches of long
# chains are cut below batch_size to stay within it: 41 chains of 100 000
# two-dimensional states.
TEST_BATCH_BYTES = 64 * 2**20


@dataclass(frozen=True)
class FunctionalSpec:
    """Which scalar of the state is being averaged."""

    kind: str  # coordinate | second_moment | cube | test_likelihood
    index: int = 0

    def __post_init__(self):
        if self.kind not in ("coordinate", "second_moment", "cube", "test_likelihood"):
            raise ValueError(f"unknown functional kind {self.kind!r}")
        if self.index < 0:
            raise ValueError("coordinate index must be nonnegative")

    @property
    def name(self) -> str:
        if self.kind == "test_likelihood":
            return "test_likelihood"
        return f"{self.kind}[{self.index}]"


def make_functional(spec: FunctionalSpec, target: Optional[TargetModel] = None):
    """Vectorized evaluator states (n, d) -> values (n,). The test likelihood
    is the target's own; a target without one has no such functional."""
    if spec.kind == "coordinate":
        return lambda states: np.asarray(states)[:, spec.index].copy()
    if spec.kind == "second_moment":
        return lambda states: np.asarray(states)[:, spec.index] ** 2
    if spec.kind == "cube":
        def cube(states):
            x = np.asarray(states)[:, spec.index]
            return x * x * x

        return cube
    if target is None or target.test_likelihood is None:
        raise ConfigError("test_likelihood functional needs a regression target")
    return target.test_likelihood


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    target: TargetModel
    functional: FunctionalSpec
    family: SteinFamily
    sampler_kind: str
    gamma: float
    n_burn: int
    n_train: int
    n_test: int
    n_test_chains: int = 100
    b_n_train: Optional[int] = None
    b_n_test: Optional[int] = None
    methods: tuple = ("esvm", "evm")
    seed: int = 0
    x0: Optional[tuple] = None
    ridge: Optional[float] = None
    batch_size: int = DEFAULT_BATCH_SIZE
    threads: int = 1
    # The functional's evaluator, built from `functional` and `target` once.
    evaluator: Callable = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if min(self.n_train, self.n_test, self.n_test_chains) < 1 or self.n_burn < 0:
            raise ConfigError("chain sizes must be positive (burn-in may be zero)")
        object.__setattr__(self, "methods", tuple(self.methods))
        for m in self.methods:
            if m not in OBJECTIVES:
                raise ConfigError(f"unknown method {m!r}")
        if self.train_truncation > self.n_train:
            raise ConfigError("training truncation exceeds training sample size")
        if self.test_truncation > self.n_test:
            raise ConfigError("test truncation exceeds test sample size")
        if min(self.batch_size, self.threads) < 1:
            raise ConfigError("batch_size and threads must be at least 1")
        if self.functional.kind != "test_likelihood" and self.functional.index >= self.target.dim:
            raise ConfigError(f"functional index {self.functional.index} outside a "
                              f"{self.target.dim}-dimensional state")
        # The checks the sampler, the lag windows and the functional make
        # where they are used, made here so that nothing is sampled first.
        try:
            _sampler(self, self.n_train)
            LagWindow(self.train_truncation), LagWindow(self.test_truncation)
            _check_x0(self.target, self.start_point())
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        object.__setattr__(self, "evaluator", make_functional(self.functional, self.target))

    @property
    def train_truncation(self) -> int:
        return self.b_n_train if self.b_n_train is not None else default_truncation(self.n_train)

    @property
    def test_truncation(self) -> int:
        return self.b_n_test if self.b_n_test is not None else default_truncation(self.n_test)

    def start_point(self) -> np.ndarray:
        if self.x0 is None:
            return np.zeros(self.target.dim)
        return np.asarray(self.x0, dtype=np.float64)

    def describe(self) -> dict:
        return {
            "name": self.name,
            "target": self.target.label,
            "dim": self.target.dim,
            "functional": self.functional.name,
            "family": self.family.describe(),
            "sampler": self.sampler_kind,
            "gamma": self.gamma,
            "n_burn": self.n_burn,
            "n_train": self.n_train,
            "n_test": self.n_test,
            "n_test_chains": self.n_test_chains,
            "b_n_train": self.train_truncation,
            "b_n_test": self.test_truncation,
            "methods": list(self.methods),
            "seed": self.seed,
            "x0": [float(v) for v in self.start_point()],
            "regression_kind": self.target.regression_kind,
            "ridge": self.ridge,
        }


class VrfValue(NamedTuple):
    value: float
    infinite: bool


def _vrf_from_values(num: float, den: float) -> VrfValue:
    if den <= 1e-300:
        return VrfValue(num / 1e-300, True)
    return VrfValue(num / den, False)


def acf_dump(series, max_lag: int) -> np.ndarray:
    """Normalized sample autocorrelations for lags 0..max_lag."""
    series = np.asarray(series, dtype=np.float64)
    if not 0 <= max_lag < series.size:
        raise ValueError("max_lag must satisfy 0 <= max_lag < n")
    acov = autocovariances(series, max_lag + 1)
    if acov[0] == 0.0:
        raise ValueError("degenerate series")
    return acov / acov[0]


def _quartiles(values: Sequence[float]) -> dict:
    arr = np.asarray(values, dtype=np.float64)
    return {
        "mean": float(arr.mean()),
        "q1": float(np.quantile(arr, 0.25)),
        "median": float(np.quantile(arr, 0.5)),
        "q3": float(np.quantile(arr, 0.75)),
    }


def _centered_quartiles(values, truth: Optional[float]) -> Optional[dict]:
    if truth is None:
        return None
    return _quartiles([v - truth for v in values])


@dataclass
class MethodReport:
    method: str
    family: dict
    fit: dict
    v_plain: list
    v_adjusted: list
    vrf: list
    infinite: list
    mean_vrf: Optional[float]
    infinite_count: int
    averages: list
    quartiles: dict
    centered_quartiles: Optional[dict]

    def to_dict(self) -> dict:
        return dict(self.__dict__)

    @staticmethod
    def from_dict(d: dict) -> "MethodReport":
        return MethodReport(**d)


@dataclass
class VRFReport:
    schema_version: int
    config: dict
    vanilla: dict
    methods: list
    acceptance: dict
    run_info: dict

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "config": self.config,
            "vanilla": self.vanilla,
            "methods": [m.to_dict() for m in self.methods],
            "acceptance": self.acceptance,
            "run_info": self.run_info,
        }

    @staticmethod
    def from_dict(d: dict) -> "VRFReport":
        return VRFReport(
            schema_version=d["schema_version"],
            config=d["config"],
            vanilla=d["vanilla"],
            methods=[MethodReport.from_dict(m) for m in d["methods"]],
            acceptance=d["acceptance"],
            run_info=d["run_info"],
        )


class _Stage:
    """Context manager recording a pipeline stage's (wall, CPU) seconds under
    its name and tagging failures with that name. CPU time is the process's,
    summed over its threads."""

    def __init__(self, name: str, timings: dict):
        self.name = name
        self.timings = timings

    def __enter__(self):
        self._start = time.perf_counter(), time.process_time()
        return self

    def __exit__(self, exc_type, exc, tb):
        wall, cpu = self._start
        self.timings[self.name] = (time.perf_counter() - wall, time.process_time() - cpu)
        if exc is not None and not isinstance(exc, StageError):
            raise StageError(self.name, exc) from exc
        return False


def _sampler(config: ExperimentConfig, n_keep: int) -> SamplerConfig:
    """Kernel settings for chains that keep n_keep states after the burn-in;
    the stream index is set per chain."""
    return SamplerConfig(
        kind=config.sampler_kind,
        gamma=config.gamma,
        n_steps=config.n_burn + n_keep,
        seed=SeedKey(config.seed, 0),
        n_burn=config.n_burn,
    )


def train_chain(config: ExperimentConfig):
    """Sample the training chain (stream 0) alone past its burn-in; returns
    the trajectory of n_train states and its acceptance statistics. The
    experiment pipelines sample it in the first test batch's call instead."""
    return sample_chain(_sampler(config, config.n_train), config.target, config.start_point())


def _along_chain(fn, states: np.ndarray) -> np.ndarray:
    """fn at each of a chain's states, NOISE_BLOCK states per call, stacked
    along the first axis: the grad U rows (target.gradient) or the functional's
    values (config.evaluator). A regression posterior's rows of its data per
    state, and its likelihood's held-out rows, are then held for one block
    at a time. Overflow is ignored, as in the samplers: far in the tail the
    logistic sigmoid's exp overflows where the sigmoid is an exact 0."""
    out = None
    with np.errstate(over="ignore"):
        for lo in range(0, len(states), NOISE_BLOCK):
            block = fn(states[lo : lo + NOISE_BLOCK])
            if out is None:
                out = np.empty((len(states),) + block.shape[1:], dtype=block.dtype)
            out[lo : lo + NOISE_BLOCK] = block
    return out


def build_design(config: ExperimentConfig, train: Trajectory, window: LagWindow) -> DesignSet:
    """The training problem on a training trajectory: the functional's values,
    the family's features (or, for the bump family, its response oracle) and
    the lag window of the spectral criterion."""
    f_values = _along_chain(config.evaluator, train.states)
    grads = _along_chain(config.target.gradient, train.states)
    if config.family.linear:
        psi = feature_matrix(config.family, train.states, grads)
        return DesignSet(f_values=f_values, window=window, features=psi)
    response = RbfResponse(family=config.family,
                           states=train.states[:, 0].copy(),
                           grads=grads[:, 0].copy())
    return DesignSet(f_values=f_values, window=window, response=response)


def fit_methods(config: ExperimentConfig, design: DesignSet) -> dict:
    """Fit every method of the configuration on one design; method -> FitResult."""
    return {
        method: fit(design, config.family, method, ridge=config.ridge)
        for method in config.methods
    }


def _chains_per_batch(config: ExperimentConfig) -> int:
    """batch_size, cut so that a batch's kept states fit in TEST_BATCH_BYTES
    (at least one chain). Depends on the configuration only, never on threads;
    each worker thread holds one batch."""
    per_chain = 8 * config.n_test * config.target.dim
    return max(1, min(config.batch_size, TEST_BATCH_BYTES // per_chain))


def _test_batches(config: ExperimentConfig) -> list:
    """Streams 1..n_test_chains cut into consecutive lock-step batches."""
    size = _chains_per_batch(config)
    streams = list(range(1, config.n_test_chains + 1))
    return [streams[i : i + size] for i in range(0, len(streams), size)]


def _sample_batch(config: ExperimentConfig, streams, with_train: bool = False) -> list:
    """Sample test chains `streams` (n_burn + n_test states each) in one
    lock-step call. With with_train, the training chain (stream 0, n_burn +
    n_train states) rides in the same call, first. Returns one (stream,
    trajectory, stats) per chain."""
    sampler = _sampler(config, config.n_test)
    lead = [0] if with_train else []
    lengths = [config.n_burn + config.n_train] * len(lead) + [sampler.n_steps] * len(streams)
    streams = lead + list(streams)
    out = sample_chains(sampler, config.target, streams, config.start_point(), n_steps=lengths)
    return [(stream, chain, stats) for stream, (chain, stats) in zip(streams, out)]


def _score_batch(config: ExperimentConfig, batch: list, fits: dict, window: LagWindow):
    """Score every fit on each sampled test chain of a batch; `fits` may be
    keyed by method name or, in a sweep, by truncation. The raw and every
    adjusted series of a chain share one spectral-variance call."""
    rows = []
    for stream, chain, stats in batch:
        f_values = _along_chain(config.evaluator, chain.states)
        series = [f_values]
        if fits:
            grads = _along_chain(config.target.gradient, chain.states)
            series += [f_values - stein_values(config.family, result.theta, chain.states, grads)
                       for result in fits.values()]
        v_plain, *v_adjusted = spectral_variance(np.stack(series), window).value
        row = {
            "stream": stream,
            "v_plain": float(v_plain),
            "avg_vanilla": ergodic_average(f_values),
            "accept_rate": stats.rate,
            "nonfinite_log_alpha": stats.nonfinite_log_alpha,
            "methods": {},
        }
        for method, h, v in zip(fits, series[1:], v_adjusted):
            ratio = _vrf_from_values(row["v_plain"], float(v))
            row["methods"][method] = {
                "v_adjusted": float(v),
                "vrf": ratio.value,
                "infinite": ratio.infinite,
                "average": ergodic_average(h),
            }
        rows.append(row)
    return rows


def _experiment(config: ExperimentConfig, fit_stage=None, fits: Optional[dict] = None):
    """The one sample-fit-score pipeline. Samples the first test batch, with
    the training chain in the same call when there is a fit to make; then
    either calls fit_stage on the design built from the training chain (at
    the configuration's training truncation), which returns the fits, or
    takes the given fits; then scores every test chain, sampling the later
    batches in a thread pool when threads > 1. Returns (fits, rows ordered by
    stream, training stats or None, stage timings)."""
    timings: dict = {}
    first_streams, *later = _test_batches(config)
    with _Stage("train-sampling", timings):
        first = _sample_batch(config, first_streams, with_train=fit_stage is not None)
    train_stats = None
    if fit_stage is not None:
        _, train, train_stats = first.pop(0)
        with _Stage("fit", timings):
            fits = fit_stage(build_design(config, train, LagWindow(config.train_truncation)))
        # The training states may be a view of the first batch's array; drop
        # them so that the array is released once the first batch is scored.
        del train
    window = LagWindow(config.test_truncation)

    def evaluate(streams):
        return _score_batch(config, _sample_batch(config, streams), fits, window)

    with _Stage("test-evaluation", timings):
        rows = _score_batch(config, first, fits, window)
        del first  # released before the later batches are sampled
        if config.threads > 1 and len(later) > 1:
            with ThreadPoolExecutor(max_workers=config.threads) as pool:
                chunks = list(pool.map(evaluate, later))
        else:
            chunks = [evaluate(streams) for streams in later]
        rows += [row for chunk in chunks for row in chunk]
        rows.sort(key=lambda r: r["stream"])
    return fits, rows, train_stats, timings


def _vrf_summary(rows: list, key) -> dict:
    """Mean of the finite VRFs of one fit over the scored chains (None if
    none is finite) and the number flagged infinite."""
    entries = [r["methods"][key] for r in rows]
    finite = [e["vrf"] for e in entries if not e["infinite"]]
    return {"mean_vrf": float(np.mean(finite)) if finite else None,
            "infinite_count": sum(e["infinite"] for e in entries)}


def _aggregate(config: ExperimentConfig, fits: dict, rows: list, train_stats) -> VRFReport:
    truth = config.target.exact_moments.get(config.functional.name)
    van_avgs = [r["avg_vanilla"] for r in rows]
    vanilla = {
        "averages": van_avgs,
        "v_plain": [r["v_plain"] for r in rows],
        "quartiles": _quartiles(van_avgs),
        "centered_quartiles": _centered_quartiles(van_avgs, truth),
        "exact_moment": truth,
    }
    methods = []
    for method in config.methods:
        result = fits[method]
        entries = [r["methods"][method] for r in rows]
        avgs = [e["average"] for e in entries]
        methods.append(MethodReport(
            method=method,
            family=config.family.describe(result.theta),
            fit=result.to_dict(),
            v_plain=[r["v_plain"] for r in rows],
            v_adjusted=[e["v_adjusted"] for e in entries],
            vrf=[e["vrf"] for e in entries],
            infinite=[e["infinite"] for e in entries],
            **_vrf_summary(rows, method),
            averages=avgs,
            quartiles=_quartiles(avgs),
            centered_quartiles=_centered_quartiles(avgs, truth),
        ))
    acceptance = {
        "train_rate": train_stats.rate if train_stats else None,
        "train_nonfinite_log_alpha": train_stats.nonfinite_log_alpha if train_stats else None,
        "test_rates": [r["accept_rate"] for r in rows],
        "mean_test_rate": float(np.mean([r["accept_rate"] for r in rows])),
        "test_nonfinite_log_alpha": int(sum(r["nonfinite_log_alpha"] for r in rows)),
    }
    # Imported here, not at start-up: the top-level package alone takes
    # about 14 ms to import, and only its version number is recorded.
    import scipy

    return VRFReport(
        schema_version=SCHEMA_VERSION,
        config=config.describe(),
        vanilla=vanilla,
        methods=methods,
        acceptance=acceptance,
        run_info={"created_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
                  "versions": {"python": platform.python_version(),
                               "numpy": np.__version__, "scipy": scipy.__version__}},
    )


def _report(config: ExperimentConfig, fits: dict, rows: list, train_stats,
            timings: dict) -> VRFReport:
    """Aggregate a pipeline's output; then record the stage wall and CPU
    timings, aggregation included, and the chain-steps (states per chain,
    burn-in included, summed over chains) each sampling stage advanced:
    `train-sampling` the first test batch and any training chain,
    `test-evaluation` the later batches."""
    with _Stage("aggregate", timings):
        report = _aggregate(config, fits, rows, train_stats)
    per_test = config.n_burn + config.n_test
    n_first = min(_chains_per_batch(config), config.n_test_chains)
    report.run_info["timings"] = {k: round(wall, 6) for k, (wall, _) in timings.items()}
    report.run_info["cpu_timings"] = {k: round(cpu, 6) for k, (_, cpu) in timings.items()}
    report.run_info["chain_steps"] = {
        "train-sampling": ((config.n_burn + config.n_train if train_stats else 0)
                           + n_first * per_test),
        "test-evaluation": (config.n_test_chains - n_first) * per_test,
    }
    return report


def run_experiment(config: ExperimentConfig) -> VRFReport:
    """Full pipeline; any stage failure aborts with a stage-tagged error and
    nothing is written."""
    return _report(config, *_experiment(config, lambda design: fit_methods(config, design)))


def evaluate_with_parameters(config: ExperimentConfig, thetas: dict) -> VRFReport:
    """Score pre-fitted parameter vectors (method name -> theta) on fresh test
    chains, without refitting. No training chain is sampled, so the report's
    training acceptance fields are null; the `train-sampling` stage samples
    the first test batch. Each theta must be family.n_params finite numbers,
    checked before any chain is sampled."""
    n_params = config.family.n_params
    fits = {}
    for method, theta in thetas.items():
        theta = np.asarray(theta, dtype=np.float64)
        if theta.shape != (n_params,) or not np.all(np.isfinite(theta)):
            raise ConfigError(f"the theta of method {method!r} must be {n_params} finite "
                              "numbers")
        fits[method] = FitResult(theta=theta, objective_at_theta=0.0, objective_at_zero=0.0,
                                 method="provided", iterations=0, converged=True)
    config = replace(config, methods=tuple(fits))
    return _report(config, *_experiment(config, fits=fits))


def bn_sweep(config: ExperimentConfig, bn_values: Sequence[int]) -> list:
    """Fit esvm at each training truncation on one training design, then
    score all fits in one pass over the test chains (fixed test truncation),
    so each test chain is sampled once however many values are swept.
    Returns one row per value: {b_n, mean_vrf, infinite_count}, read as
    run_experiment reads a method's mean_vrf and infinite_count."""
    bn_values = [int(b) for b in bn_values]
    for b in bn_values:
        if not 1 <= b <= config.n_train:
            raise ConfigError(f"truncation {b} outside [1, {config.n_train}]")

    def fit_each(design):
        fits = {}
        for b in bn_values:
            # tags a failing fit with its truncation; the fit stage around
            # it passes the tagged error on as it is
            with _Stage(f"fit[b_n={b}]", {}):
                fits[b] = fit(replace(design, window=LagWindow(b)), config.family, "esvm",
                              ridge=config.ridge)
        return fits

    _, rows, _, _ = _experiment(config, fit_each)
    return [{"b_n": b, **_vrf_summary(rows, b)} for b in bn_values]


# ---------------------------------------------------------------------------
# Serialization: deterministic text with 17-significant-digit floats.

def format_float(x) -> str:
    if x is None or not np.isfinite(x):
        return "null"
    return f"{float(x):.17g}"


def _to_json(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_to_json(v) for v in obj) + "]"
    if isinstance(obj, dict):
        items = (f"{json.dumps(str(k))}: {_to_json(v)}" for k, v in obj.items())
        return "{" + ", ".join(items) + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def report_json(report: VRFReport) -> str:
    return _to_json(report.to_dict()) + "\n"


def _vrf_csv(report: VRFReport) -> str:
    lines = ["method,stream,v_plain,v_adjusted,vrf,infinite"]
    for m in report.methods:
        for i in range(len(m.vrf)):
            lines.append(",".join([
                m.method,
                str(i + 1),
                format_float(m.v_plain[i]),
                format_float(m.v_adjusted[i]),
                format_float(m.vrf[i]),
                "1" if m.infinite[i] else "0",
            ]))
    return "\n".join(lines) + "\n"


def _boxplot_csv(report: VRFReport) -> str:
    header = "method,mean,q1,median,q3,centered_mean,centered_q1,centered_median,centered_q3"
    lines = [header]

    def _row(name, quartiles, centered):
        cells = [name] + [format_float(quartiles[k]) for k in ("mean", "q1", "median", "q3")]
        if centered is None:
            cells += ["", "", "", ""]
        else:
            cells += [format_float(centered[k]) for k in ("mean", "q1", "median", "q3")]
        lines.append(",".join(cells))

    _row("vanilla", report.vanilla["quartiles"], report.vanilla["centered_quartiles"])
    for m in report.methods:
        _row(m.method, m.quartiles, m.centered_quartiles)
    return "\n".join(lines) + "\n"


def emit_report(report: VRFReport, out_dir) -> dict:
    """Write report.json, vrf.csv and boxplot.csv; returns the paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "report": out / "report.json",
        "vrf": out / "vrf.csv",
        "boxplot": out / "boxplot.csv",
    }
    paths["report"].write_text(report_json(report))
    paths["vrf"].write_text(_vrf_csv(report))
    paths["boxplot"].write_text(_boxplot_csv(report))
    return paths


def write_acf_csv(values: np.ndarray, path) -> None:
    lines = ["lag,acf"] + [f"{s},{format_float(v)}" for s, v in enumerate(values)]
    Path(path).write_text("\n".join(lines) + "\n")


def write_bn_sweep_csv(rows: list, path) -> None:
    lines = ["b_n,mean_vrf,infinite_count"]
    for r in rows:
        lines.append(f"{r['b_n']},{format_float(r['mean_vrf'])},{r['infinite_count']}")
    Path(path).write_text("\n".join(lines) + "\n")
