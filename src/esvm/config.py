"""Experiment descriptions as nested key/value documents (JSON files)."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .harness import DEFAULT_BATCH_SIZE, ExperimentConfig, FunctionalSpec
from .stein import SteinFamily
from .targets import (
    banana_target,
    gmm_isolated_target,
    gmm_target,
    ingest_csv,
    logistic_target,
    probit_target,
    synthetic_logistic_dataset,
)


def _require(d: dict, key: str, context: str):
    if key not in d:
        raise ConfigError(f"missing key {key!r} in {context}")
    return d[key]


def _dataset_from_spec(spec: dict):
    kind = _require(spec, "kind", "dataset")
    if kind == "synthetic":
        return synthetic_logistic_dataset(
            n_rows=int(spec.get("n_rows", 500)),
            n_features=int(spec.get("n_features", 8)),
            k_test=int(spec.get("k_test", 100)),
            seed=int(spec.get("seed", 90210)),
        )
    if kind == "csv":
        return ingest_csv(
            path=_require(spec, "path", "dataset"),
            label_column=_require(spec, "label_column", "dataset"),
            k_test=int(spec.get("k_test", 100)),
            seed=int(spec.get("seed", 90210)),
            add_intercept=bool(spec.get("add_intercept", False)),
            max_rows=spec.get("max_rows"),
        )
    raise ConfigError(f"unknown dataset kind {kind!r}")


def _target_from_spec(spec: dict):
    """Returns (target, dataset, regression_kind)."""
    kind = _require(spec, "kind", "target")
    if kind == "gmm":
        mu = np.asarray(_require(spec, "mu", "target"), dtype=np.float64)
        sigma = spec.get("sigma", 1.0)
        sigma = np.asarray(sigma, dtype=np.float64)
        if sigma.ndim == 0:
            sigma = float(sigma) * np.eye(mu.size)
        return gmm_target(float(spec.get("rho", 0.5)), mu, sigma), None, None
    if kind == "gmm_isolated":
        return gmm_isolated_target(
            rho=float(_require(spec, "rho", "target")),
            mu1=float(_require(spec, "mu1", "target")),
            sigma1=float(_require(spec, "sigma1", "target")),
            mu2=float(_require(spec, "mu2", "target")),
            sigma2=float(_require(spec, "sigma2", "target")),
        ), None, None
    if kind == "banana":
        return banana_target(
            p=float(spec.get("p", 100.0)),
            b=float(spec.get("b", 0.1)),
            d=int(spec.get("dim", 2)),
        ), None, None
    if kind in ("logistic", "probit"):
        dataset = _dataset_from_spec(_require(spec, "dataset", "target"))
        g = float(spec.get("g", 100.0))
        target = logistic_target(dataset, g) if kind == "logistic" else probit_target(dataset, g)
        return target, dataset, kind
    raise ConfigError(f"unknown target kind {kind!r}")


def experiment_from_dict(doc: dict, seed_override=None, threads=None) -> ExperimentConfig:
    try:
        target, dataset, regression_kind = _target_from_spec(_require(doc, "target", "config"))
        fspec = _require(doc, "functional", "config")
        functional = FunctionalSpec(
            kind=_require(fspec, "kind", "functional"),
            index=int(fspec.get("index", 0)),
        )
        famspec = _require(doc, "family", "config")
        family = SteinFamily(
            kind=_require(famspec, "kind", "family"),
            dim=target.dim,
            n_centers=int(famspec.get("n_centers", 0)),
        )
        sampler = _require(doc, "sampler", "config")
        x0 = doc.get("x0")
        return ExperimentConfig(
            name=str(doc.get("name", "experiment")),
            target=target,
            functional=functional,
            family=family,
            sampler_kind=str(_require(sampler, "kind", "sampler")).lower(),
            gamma=float(_require(sampler, "gamma", "sampler")),
            n_burn=int(_require(doc, "n_burn", "config")),
            n_train=int(_require(doc, "n_train", "config")),
            n_test=int(_require(doc, "n_test", "config")),
            n_test_chains=int(doc.get("n_test_chains", 100)),
            b_n_train=None if doc.get("b_n") is None else int(doc["b_n"]),
            b_n_test=None if doc.get("b_n_test") is None else int(doc["b_n_test"]),
            methods=tuple(doc.get("methods", ["esvm", "evm"])),
            seed=int(seed_override if seed_override is not None else doc.get("seed", 0)),
            x0=None if x0 is None else tuple(float(v) for v in x0),
            dataset=dataset,
            regression_kind=regression_kind,
            ridge=None if doc.get("ridge") is None else float(doc["ridge"]),
            batch_size=int(doc.get("batch_size", DEFAULT_BATCH_SIZE)),
            threads=int(threads if threads is not None else doc.get("threads", 1)),
        )
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid experiment configuration: {exc}") from exc


def load_experiment(path, seed_override=None, threads=None) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    return experiment_from_dict(doc, seed_override=seed_override, threads=threads)
