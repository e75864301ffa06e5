"""Correctness checks on the files a workload wrote.

Every check reads the emitted reports and compares them with a computation
made apart from the program (exact draws, the benchmark's own potential
gradients and control-variate formulas) or with a property the method must
have. None compares with a stored copy of earlier output. Each check returns
a list of problems; an empty list means it passed.

Operations: one fit is one method on one experiment or one sweep row; one
scoring is one method on one test chain (a sweep row scores every test
chain). A fit fails when it reports converged=False or a training criterion
below zero; a scoring fails when its VRF is flagged infinite or is not
finite.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

# |z| bound for the Stein identity on exact draws; the largest |z| seen over
# 90 fits at ten seeds was 2.4.
STEIN_Z = 5.0
STEIN_DRAWS = 200_000
# Across-chain standard errors allowed between a mean adjusted average and
# the exact moment, or between the adjusted and the raw mean.
MOMENT_Z = 5.0
SWEEP_RTOL = 1e-12
CRITERION_SLACK = 1e-9

COMPARED_FILES = ("vrf.csv", "boxplot.csv", "sweep.csv")


# -- reading a round -----------------------------------------------------------

def read_round(round_dir, experiments) -> list:
    """[{"name", "doc", "report", "sweep"}] for one round's output directory."""
    out = []
    for exp in experiments:
        name = exp["doc"]["name"]
        d = Path(round_dir) / name
        sweep = None
        if exp["sweep"]:
            lines = (d / "sweep.csv").read_text().splitlines()[1:]
            sweep = []
            for line in lines:
                b, v, inf = line.split(",")
                sweep.append({"b_n": int(b), "mean_vrf": None if v == "null" else float(v),
                              "infinite_count": int(inf)})
        out.append({"name": name, "doc": exp["doc"],
                    "report": json.loads((d / "report.json").read_text()), "sweep": sweep})
    return out


def _finite(x) -> bool:
    return x is not None and math.isfinite(x)


def operations(outputs) -> tuple:
    """(attempted, labels of failed operations) for one round."""
    attempted, failed = 0, []
    for o in outputs:
        report = o["report"]
        for m in report["methods"]:
            attempted += 1
            fit = m["fit"]
            if not fit["converged"] or not fit["objective_at_theta"] >= 0.0:
                failed.append(f"{o['name']}/{m['method']}/fit")
            for i, (v, inf) in enumerate(zip(m["vrf"], m["infinite"])):
                attempted += 1
                if inf or not _finite(v):
                    failed.append(f"{o['name']}/{m['method']}/chain-{i + 1}")
        for row in o["sweep"] or []:
            attempted += 1 + report["config"]["n_test_chains"]
            if not _finite(row["mean_vrf"]):
                failed.append(f"{o['name']}/sweep-{row['b_n']}/fit")
            failed += [f"{o['name']}/sweep-{row['b_n']}/chain"] * row["infinite_count"]
    return attempted, failed


# -- targets, exact draws and control variates, written apart from esvm --------

def _gmm_parts(spec):
    mu = np.asarray(spec["mu"], dtype=np.float64)
    sigma = np.asarray(spec.get("sigma", 1.0), dtype=np.float64)
    if sigma.ndim == 0:
        sigma = float(sigma) * np.eye(mu.size)
    return float(spec.get("rho", 0.5)), mu, sigma


def exact_draws(spec, n, rng) -> np.ndarray:
    """n independent draws from the target a document describes."""
    kind = spec["kind"]
    if kind == "gmm":
        rho, mu, sigma = _gmm_parts(spec)
        sign = np.where(rng.random(n) < rho, 1.0, -1.0)
        z = rng.standard_normal((n, mu.size))
        return sign[:, None] * mu + z @ np.linalg.cholesky(sigma).T
    if kind == "banana":
        p, b, d = spec["p"], spec["b"], spec["dim"]
        x = rng.standard_normal((n, d))
        x[:, 0] *= math.sqrt(p)
        x[:, 1] = p * b - b * x[:, 0] ** 2 + x[:, 1] / math.sqrt(2.0)
        return x
    raise ValueError(f"no exact draws for target kind {kind!r}")


def grad_potential(spec, x) -> np.ndarray:
    """Gradient of U = -log density (up to a constant) at the rows of x."""
    kind = spec["kind"]
    if kind == "gmm":
        rho, mu, sigma = _gmm_parts(spec)
        prec = np.linalg.inv(sigma)
        pull_plus, pull_minus = (x - mu) @ prec, (x + mu) @ prec
        log_plus = math.log(rho) - 0.5 * np.sum((x - mu) * pull_plus, axis=1)
        log_minus = math.log(1.0 - rho) - 0.5 * np.sum((x + mu) * pull_minus, axis=1)
        w = 1.0 / (1.0 + np.exp(log_minus - log_plus))
        return w[:, None] * pull_plus + (1.0 - w)[:, None] * pull_minus
    if kind == "banana":
        p, b = spec["p"], spec["b"]
        g = x.copy()
        bend = x[:, 1] + b * x[:, 0] ** 2 - p * b
        g[:, 0] = x[:, 0] / p + 4.0 * b * x[:, 0] * bend
        g[:, 1] = 2.0 * bend
        return g
    raise ValueError(f"no gradient for target kind {kind!r}")


def control_variate(family, theta, x, grad) -> np.ndarray:
    """-<Phi, grad U> + div Phi for the second-order family's vector field
    Phi = b + A x, with theta = (b, A row-major)."""
    if family["kind"] != "second_order":
        raise ValueError(f"no control-variate formula for family {family['kind']!r}")
    theta = np.asarray(theta, dtype=np.float64)
    d = x.shape[1]
    b, a = theta[:d], theta[d:].reshape(d, d)
    phi = b + x @ a.T
    return -np.sum(phi * grad, axis=1) + np.trace(a)


def z_score(values) -> float:
    values = np.asarray(values, dtype=np.float64)
    sd = float(np.std(values, ddof=1))
    return float(np.mean(values)) / (sd / math.sqrt(values.size)) if sd > 0 else 0.0


# -- the checks ------------------------------------------------------------------

def check_stein_identity(outputs, rng) -> list:
    """Each fitted control variate has mean zero under the target."""
    problems = []
    for o in outputs:
        spec = o["doc"]["target"]
        if spec["kind"] not in ("gmm", "banana"):
            continue
        x = exact_draws(spec, STEIN_DRAWS, rng)
        grad = grad_potential(spec, x)
        family = o["report"]["config"]["family"]
        for m in o["report"]["methods"]:
            z = z_score(control_variate(family, m["fit"]["theta"], x, grad))
            if not abs(z) <= STEIN_Z:
                problems.append(f"{o['name']}/{m['method']}: Stein identity z = {z:.2f}")
    return problems


def _mean_se(values):
    a = np.asarray(values, dtype=np.float64)
    return float(a.mean()), float(a.std(ddof=1)) / math.sqrt(a.size)


def average_unbiased(doc) -> bool:
    """MALA and RWM leave the target invariant. ULA's stationary law differs
    from the target, so its average is unbiased only where symmetry forces
    it, as for an odd functional of one coordinate on a mixture with equal
    weights."""
    if doc["sampler"]["kind"] != "ula":
        return True
    t, f = doc["target"], doc["functional"]
    return t["kind"] == "gmm" and t.get("rho", 0.5) == 0.5 and f["kind"] in ("coordinate", "cube")


def slowly_mixing(doc) -> bool:
    """The banana chains have not yet mixed over the tails of x1, so the
    spread of their adjusted averages understates the error of those
    averages: over 40 seeds the z of the esvm average against E[x2] = 0,
    in its own standard errors, averaged +0.8 and reached 3.7."""
    return doc["target"]["kind"] == "banana"


def check_exact_moments(outputs) -> list:
    """Where an exact moment applies, each method's mean adjusted average is
    within MOMENT_Z standard errors of it: the adjusted averages' own across
    chains, or the raw averages' on a slowly mixing chain. Elsewhere the mean
    adjusted and raw averages agree within MOMENT_Z standard errors of their
    difference."""
    problems = []
    for o in outputs:
        report = o["report"]
        truth = report["vanilla"]["exact_moment"]
        raw_mean, raw_se = _mean_se(report["vanilla"]["averages"])
        for m in report["methods"]:
            mean, se = _mean_se(m["averages"])
            if truth is not None and average_unbiased(o["doc"]):
                z = (mean - truth) / (raw_se if slowly_mixing(o["doc"]) else se)
                what = f"exact moment {truth:.6g}"
            else:
                z = (mean - raw_mean) / math.hypot(se, raw_se)
                what = f"raw mean {raw_mean:.6g}"
            if not abs(z) <= MOMENT_Z:
                problems.append(f"{o['name']}/{m['method']}: mean adjusted average "
                                f"{mean:.6g} is {z:.2f} SE from the {what}")
    return problems


def variance_ratio(raw, adjusted) -> float:
    return float(np.var(raw, ddof=1) / np.var(adjusted, ddof=1))


def check_variance_reduction(outputs) -> list:
    """Var(raw averages) / Var(esvm averages) across test chains exceeds 1."""
    problems = []
    for o in outputs:
        raw = o["report"]["vanilla"]["averages"]
        for m in o["report"]["methods"]:
            if m["method"] != "esvm":
                continue
            ratio = variance_ratio(raw, m["averages"])
            if not ratio > 1.0:
                problems.append(f"{o['name']}: variance ratio {ratio:.3g} <= 1")
    return problems


def check_training_criterion(outputs, failed) -> list:
    """criterion(theta) <= criterion(0) for every fit, and >= 0 for every fit
    that did not fail."""
    problems = []
    for o in outputs:
        for m in o["report"]["methods"]:
            fit = m["fit"]
            at_theta, at_zero = fit["objective_at_theta"], fit["objective_at_zero"]
            label = f"{o['name']}/{m['method']}/fit"
            if not at_theta <= at_zero + CRITERION_SLACK * abs(at_zero):
                problems.append(f"{label}: criterion {at_theta:.6g} above {at_zero:.6g} at 0")
            if label not in failed and not at_theta >= 0.0:
                problems.append(f"{label}: criterion {at_theta:.6g} below 0")
    return problems


def _esvm_mean_vrf(output):
    (m,) = [m for m in output["report"]["methods"] if m["method"] == "esvm"]
    return m["mean_vrf"]


def check_sweep_matches_run(outputs) -> list:
    """The sweep row at the run's b_n_train reproduces the run's esvm mean VRF."""
    problems = []
    for o in outputs:
        if not o["sweep"]:
            continue
        b = o["report"]["config"]["b_n_train"]
        rows = [r for r in o["sweep"] if r["b_n"] == b]
        run = _esvm_mean_vrf(o)
        if len(rows) != 1 or not _finite(rows[0]["mean_vrf"]) or not _finite(run):
            problems.append(f"{o['name']}: no finite sweep row at b_n = {b}")
        elif abs(rows[0]["mean_vrf"] - run) > SWEEP_RTOL * abs(run):
            problems.append(f"{o['name']}: sweep mean VRF {rows[0]['mean_vrf']!r} at b_n = {b} "
                            f"differs from the run's {run!r}")
    return problems


def check_reproducible(round_dirs, experiments) -> list:
    """Every round writes byte-identical csv files and the same report.json
    apart from its run_info block."""
    problems = []
    first = Path(round_dirs[0])
    for other in map(Path, round_dirs[1:]):
        for exp in experiments:
            name = exp["doc"]["name"]
            for fname in COMPARED_FILES:
                a, b = first / name / fname, other / name / fname
                if a.exists() != b.exists() or (a.exists() and a.read_bytes() != b.read_bytes()):
                    problems.append(f"{other.name}/{name}/{fname} differs from {first.name}")
            reports = [json.loads((d / name / "report.json").read_text()) for d in (first, other)]
            for r in reports:
                r.pop("run_info")
            if reports[0] != reports[1]:
                problems.append(f"{other.name}/{name}/report.json differs from {first.name}")
    return problems


def check_failures(failed) -> list:
    """No operation failed."""
    return [f"failed operations {sorted(failed)}"] if failed else []


def run_checks(round_dirs, experiments, seed) -> tuple:
    """(attempted per round, failed labels per round, problems)."""
    outputs = read_round(round_dirs[0], experiments)
    attempted, failed = operations(outputs)
    rng = np.random.default_rng([seed, 1])
    problems = (check_stein_identity(outputs, rng)
                + check_exact_moments(outputs)
                + check_variance_reduction(outputs)
                + check_training_criterion(outputs, failed)
                + check_sweep_matches_run(outputs)
                + check_reproducible(round_dirs, experiments)
                + check_failures(failed))
    return attempted, failed, problems
