"""Acceptance gate.

One test per criterion (stochastic criteria share module-scoped experiment
fixtures so each pipeline runs once). Every test prints a `[criterion N]`
PASS/FAIL line with the measured quantities before asserting, so the gate's
outcome is readable straight from the pytest -s output.

All seeds are fixed constants chosen once; bands and tolerances are pinned
in-line. Runtime budgets are asserted where stated.
"""

import os
import time

import numpy as np
import pytest

import esvm
from esvm.fitting import DesignSet, RbfResponse, esvm_objective, evm_objective, fit
from esvm.harness import ExperimentConfig, FunctionalSpec, emit_report, run_experiment
from esvm.stein import SteinFamily, feature_matrix, rbf_gradient, stein_values
from esvm.targets import (
    banana_target,
    gmm_isolated_target,
    gmm_target,
    logistic_target,
    probit_target,
    synthetic_logistic_dataset,
)
from esvm.variance import LagWindow, spectral_variance

from _oracles import (
    ar1_reference,
    finite_difference_gradient,
    power_iteration_norm,
    quadratic_form_apply,
    stein_value,
    weight_matrix_oracle,
)

# Every test here is part of the gate; `pytest -m "not acceptance"` runs the
# fast suite without it.
pytestmark = pytest.mark.acceptance

MASTER_SEED = 2024


def _verdict(tag: str, ok: bool, detail: str) -> bool:
    print(f"[{tag}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


# ---------------------------------------------------------------------------
# Criterion 1: quadratic-form equivalence on 100 random instances.

def test_criterion_1_quadratic_form_equivalence():
    rng = np.random.default_rng(MASTER_SEED)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 257))
        b_n = int(rng.integers(1, n + 1))
        z = rng.standard_normal(n) * rng.uniform(0.25, 4.0)
        window = LagWindow(b_n)
        dense = float(z @ weight_matrix_oracle(n, window) @ z)
        sv = spectral_variance(z, window).value
        qf = quadratic_form_apply(z, window)
        scale = max(abs(dense), abs(sv), abs(qf), 1e-300)
        worst = max(worst, abs(sv - dense) / scale, abs(qf - dense) / scale)
    ok = _verdict("criterion 1", worst <= 1e-10,
                  f"spectral estimate vs dense quadratic form, worst rel diff {worst:.3e} "
                  f"(tol 1e-10, 100 instances)")
    assert ok


# ---------------------------------------------------------------------------
# Criterion 2: operator-norm bound on 50 random window matrices.

def test_criterion_2_operator_norm_bound():
    rng = np.random.default_rng(MASTER_SEED + 1)
    worst_excess = -np.inf
    for _ in range(50):
        n = int(rng.integers(2, 257))
        b_n = int(rng.integers(1, n + 1))
        norm = power_iteration_norm(weight_matrix_oracle(n, LagWindow(b_n)), tol=1e-8)
        worst_excess = max(worst_excess, norm - 2.0 * b_n / n)
    ok = _verdict("criterion 2", worst_excess <= 1e-8,
                  f"power-iteration norm minus 2*b_n/n at worst {worst_excess:.3e} "
                  f"(tol 1e-8, 50 instances)")
    assert ok


# ---------------------------------------------------------------------------
# Criterion 3: gradient audits for the objectives and every target model.

def _objective_gradient_worst(objective, design, n_params, probes, seed):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(probes):
        theta = rng.standard_normal(n_params)
        _, grad = objective(theta, design)
        fd = np.empty(n_params)
        for j in range(n_params):
            h = 1e-6 * (1.0 + abs(theta[j]))
            tp, tm = theta.copy(), theta.copy()
            tp[j] += h
            tm[j] -= h
            fd[j] = (objective(tp, design)[0] - objective(tm, design)[0]) / (2 * h)
        worst = max(worst, np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-10))
    return worst


def test_criterion_3_gradient_audits():
    rng = np.random.default_rng(MASTER_SEED + 2)
    n = 220
    f = rng.standard_normal(n).cumsum() * 0.1 + rng.standard_normal(n)
    psi = rng.standard_normal((n, 6))
    linear = DesignSet(f_values=f, window=LagWindow(9), features=psi)
    fam_rbf = SteinFamily("rbf", 1, 3)
    states = rng.standard_normal(n)
    rbf = DesignSet(f_values=f, window=LagWindow(9),
                    response=RbfResponse(fam_rbf, states, states * 0.7))
    worst_obj = 0.0
    for objective in (esvm_objective, evm_objective):
        worst_obj = max(worst_obj,
                        _objective_gradient_worst(objective, linear, 6, 64, MASTER_SEED),
                        _objective_gradient_worst(objective, rbf, 6, 64, MASTER_SEED + 1))

    cov = np.array([[1.0, 0.3], [0.3, 0.8]])
    dataset = synthetic_logistic_dataset(200, 5, k_test=40, seed=MASTER_SEED)
    targets = [
        gmm_target(0.5, np.array([0.5, 0.5]), np.eye(2)),
        gmm_target(0.35, np.array([0.4, -0.7]), cov),
        gmm_isolated_target(0.4, -3.0, 1.0, 4.0, 0.5),
        banana_target(100.0, 0.1, 2),
        banana_target(100.0, 0.1, 8),
        logistic_target(dataset),
        probit_target(dataset),
    ]
    worst_target = 0.0
    gen = np.random.default_rng(MASTER_SEED + 3)
    for target in targets:
        for _ in range(64):
            x = 2.0 * gen.standard_normal(target.dim)
            grad = np.asarray(target.gradient(x))
            fd = finite_difference_gradient(target.potential, x)
            worst_target = max(
                worst_target, np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-8))

    ok = _verdict("criterion 3", worst_obj < 1e-5 and worst_target < 1e-5,
                  f"objective-gradient worst rel err {worst_obj:.3e}, target-gradient "
                  f"worst rel err {worst_target:.3e} (tol 1e-5, >=64 probes each)")
    assert ok


# ---------------------------------------------------------------------------
# Criterion 4: control-variate linearity, feature rows, bump-family gradient.

def test_criterion_4_stein_consistency():
    rng = np.random.default_rng(MASTER_SEED + 4)
    worst_feature = 0.0
    worst_linear = 0.0
    for fam in (SteinFamily("first_order", 3), SteinFamily("second_order", 3)):
        for _ in range(500):
            x = rng.standard_normal(3)
            grad = rng.standard_normal(3)
            t1 = rng.standard_normal(fam.n_params)
            t2 = rng.standard_normal(fam.n_params)
            row = feature_matrix(fam, x[None], grad[None])[0]
            worst_feature = max(worst_feature,
                                abs(float(row @ t1) - stein_value(fam, t1, x, grad)))
            lin = abs(stein_value(fam, t1 + t2, x, grad)
                      - stein_value(fam, t1, x, grad) - stein_value(fam, t2, x, grad))
            worst_linear = max(worst_linear, lin)

    fam = SteinFamily("rbf", 1, 4)
    worst_rbf = 0.0
    for _ in range(200):
        theta = rng.standard_normal(8)
        x = np.array([2.0 * rng.standard_normal()])
        du = np.array([rng.standard_normal()])
        analytic = rbf_gradient(fam, theta, x, du)
        fd = np.empty(8)
        for j in range(8):
            tp, tm = theta.copy(), theta.copy()
            tp[j] += 1e-5
            tm[j] -= 1e-5
            fd[j] = (stein_value(fam, tp, x, du) - stein_value(fam, tm, x, du)) / 2e-5
        worst_rbf = max(worst_rbf, np.linalg.norm(analytic - fd) / max(np.linalg.norm(fd), 1e-10))

    ok = _verdict(
        "criterion 4",
        worst_feature <= 1e-12 and worst_linear <= 1e-12 and worst_rbf < 1e-6,
        f"feature-row max abs err {worst_feature:.2e} (tol 1e-12), linearity max abs err "
        f"{worst_linear:.2e} (tol 1e-12), bump-gradient worst rel err {worst_rbf:.2e} (tol 1e-6)")
    assert ok


# ---------------------------------------------------------------------------
# Criterion 5: fit monotonicity on a battery of fits (the invariant is also
# hard-enforced at FitResult construction for every fit in the suite).

def test_criterion_5_fit_monotonicity(gmm_runs, isolated_runs, logistic_run, banana_runs):
    rng = np.random.default_rng(MASTER_SEED + 5)
    checked = 0
    for seed in range(6):
        gen = np.random.default_rng(seed)
        n = int(gen.integers(60, 240))
        f = gen.standard_normal(n).cumsum() * 0.2 + gen.standard_normal(n)
        psi = gen.standard_normal((n, 4))
        design = DesignSet(f_values=f, window=LagWindow(int(gen.integers(1, 24))),
                           features=psi)
        for method in ("esvm", "evm"):
            res = fit(design, SteinFamily("second_order", 1), method)
            assert res.objective_at_theta <= res.objective_at_zero \
                + 1e-9 * abs(res.objective_at_zero)
            checked += 1
    # fits recorded by the experiment fixtures
    reports = (list(gmm_runs["reports"].values())
               + list(isolated_runs["reports"].values())
               + [logistic_run["report"]]
               + list(banana_runs["reports"].values()))
    for report in reports:
        for m in report.methods:
            assert m.fit["objective_at_theta"] <= m.fit["objective_at_zero"] \
                + 1e-9 * abs(m.fit["objective_at_zero"])
            checked += 1
    ok = _verdict("criterion 5", True,
                  f"objective(theta_hat) <= objective(0) on all {checked} fits "
                  f"(slack 1e-9 relative; also enforced at FitResult construction)")
    assert ok


# ---------------------------------------------------------------------------
# Criterion 6: AR(1) calibration of the spectral estimator.

def test_criterion_6_ar1_calibration():
    start = time.perf_counter()
    traj, exact = ar1_reference(0.5, 100_000, MASTER_SEED)
    b_n = int(np.ceil(2 * np.log(100_000) / np.log(1 / 0.5)))
    est_half = spectral_variance(traj.states[:, 0], LagWindow(b_n)).value
    rel_half = abs(est_half - exact) / exact

    traj9, exact9 = ar1_reference(0.9, 1_000_000, MASTER_SEED)
    b_n9 = int(np.ceil(2 * np.log(1_000_000) / np.log(1 / 0.9)))
    est9 = spectral_variance(traj9.states[:, 0], LagWindow(b_n9)).value
    rel9 = abs(est9 - exact9) / exact9
    elapsed = time.perf_counter() - start
    ok = _verdict(
        "criterion 6", rel_half <= 0.10 and rel9 <= 0.15 and elapsed < 10.0,
        f"a=0.5: {est_half:.3f} vs 4 (rel {rel_half:.2%}, tol 10%); "
        f"a=0.9: {est9:.2f} vs 100 (rel {rel9:.2%}, tol 15%); runtime {elapsed:.1f}s < 10s")
    assert ok


# ---------------------------------------------------------------------------
# Criterion 7: stationary variance of the unadjusted Langevin chain.

def test_criterion_7_ula_stationary_variance():
    start = time.perf_counter()

    def value_and_grad(x):
        x = np.asarray(x, dtype=np.float64)
        return 0.5 * np.sum(x * x, axis=-1), x

    target = esvm.TargetModel(dim=1, potential=lambda x: value_and_grad(x)[0],
                              gradient=lambda x: np.asarray(x, dtype=np.float64),
                              value_and_grad=value_and_grad, label="gauss1")
    gamma = 0.1
    traj, _ = esvm.sample_chain(
        esvm.SamplerConfig("ula", gamma, 1_000_000, esvm.SeedKey(MASTER_SEED, 0)), target)
    var = float(np.var(traj.states[:, 0]))
    expect = 2.0 / (2.0 - gamma)
    rel = abs(var - expect) / expect
    elapsed = time.perf_counter() - start
    ok = _verdict("criterion 7", rel <= 0.02 and elapsed < 5.0,
                  f"empirical variance {var:.5f} vs {expect:.5f} "
                  f"(rel {rel:.2%}, tol 2%); runtime {elapsed:.1f}s < 5s")
    assert ok


# ---------------------------------------------------------------------------
# Criteria 8 and 12: the two-component Gaussian mixture rho = 1/2, mu = (1/2,
# 1/2), Sigma = I (n_train = n_test = 1e5, b_n = 50, 100 test chains). The
# E[X1] band [3, 30] does not fit this configuration: a least-squares fit on
# 4e5 exact mixture draws reaches a VRF of about 134 with either family, so
# the class optimum lies far above the band. At mu = (1, 1) the same optimum
# is about 3.5, inside it. Which configuration the band was written for is
# not recorded; neither the band nor the configuration is changed here.

GMM_GAMMAS = {"ula": 0.1, "mala": 1.0, "rwm": 0.5}


def _gmm_config(sampler, functional, seed=MASTER_SEED):
    return ExperimentConfig(
        name=f"gmm-{functional.name}-{sampler}",
        target=gmm_target(0.5, np.array([0.5, 0.5]), np.eye(2)),
        functional=functional,
        family=SteinFamily("second_order", 2),
        sampler_kind=sampler,
        gamma=GMM_GAMMAS[sampler],
        n_burn=10_000, n_train=100_000, n_test=100_000, n_test_chains=100,
        b_n_train=50, seed=seed, batch_size=25,
    )


@pytest.fixture(scope="module")
def gmm_runs():
    start = time.perf_counter()
    reports = {}
    for sampler in GMM_GAMMAS:
        reports[("coordinate", sampler)] = run_experiment(
            _gmm_config(sampler, FunctionalSpec("coordinate", 0)))
        reports[("second_moment", sampler)] = run_experiment(
            _gmm_config(sampler, FunctionalSpec("second_moment", 0)))
    return {"reports": reports, "elapsed": time.perf_counter() - start}


def _method(report, method):
    return {m.method: m for m in report.methods}[method]


def _mean_vrf(report, method):
    return _method(report, method).mean_vrf


def _paired_log_ratio(report):
    """Mean and standard error, over the test chains both methods share, of
    log(VRF_esvm / VRF_evm); chains flagged infinite for either are left out."""
    esvm_m, evm_m = _method(report, "esvm"), _method(report, "evm")
    keep = ~(np.asarray(esvm_m.infinite) | np.asarray(evm_m.infinite))
    d = np.log(np.asarray(esvm_m.vrf)[keep] / np.asarray(evm_m.vrf)[keep])
    return float(d.mean()), float(d.std(ddof=1) / np.sqrt(d.size))


def _averages_variance_ratio(numerator, denominator):
    """Var(numerator) / Var(denominator) over independent test chains, with a
    paired percentile-bootstrap 95% interval (2000 joint resamples of the chains).

    Applied to the raw and the adjusted ergodic averages this is the
    reduction of the finite-sample variance itself; it needs no lag window."""
    num = np.asarray(numerator, dtype=np.float64)
    den = np.asarray(denominator, dtype=np.float64)
    point = float(np.var(num, ddof=1) / np.var(den, ddof=1))
    idx = np.random.default_rng(MASTER_SEED).integers(0, num.size, size=(2000, num.size))
    boot = np.var(num[idx], axis=1, ddof=1) / np.var(den[idx], axis=1, ddof=1)
    lo, hi = np.quantile(boot, [0.025, 0.975])
    return point, float(lo), float(hi)


def test_criterion_8_first_moment_band(gmm_runs):
    means = {s: _mean_vrf(gmm_runs["reports"][("coordinate", s)], "esvm")
             for s in GMM_GAMMAS}
    ok_band = all(3.0 <= v <= 30.0 for v in means.values())
    detail = ", ".join(f"{s}: {v:.1f}" for s, v in means.items())
    ok = _verdict("criterion 8 (E[X1] band)", ok_band,
                  f"mean spectral-fit VRF {detail}; required band [3, 30] per sampler")
    assert ok


def test_criterion_8_first_moment_ordering(gmm_runs):
    pairs = {}
    for sampler in ("ula", "rwm"):
        report = gmm_runs["reports"][("coordinate", sampler)]
        pairs[sampler] = (_mean_vrf(report, "esvm"), _mean_vrf(report, "evm"),
                          *_paired_log_ratio(report))
    ok_order = all(e >= v for e, v, _, _ in pairs.values())
    detail = "; ".join(f"{s}: esvm {e:.1f} vs evm {v:.1f}, paired mean log-ratio "
                       f"{d:+.4f} (SE {se:.4f})" for s, (e, v, d, se) in pairs.items())
    ok = _verdict("criterion 8 (E[X1] esvm >= evm, ULA & RWM)", ok_order, detail)
    assert ok


def test_criterion_8_second_moment(gmm_runs):
    means = {s: _mean_vrf(gmm_runs["reports"][("second_moment", s)], "esvm")
             for s in GMM_GAMMAS}
    ok_level = all(v > 100.0 for v in means.values())
    detail = ", ".join(f"{s}: {v:.1f}" for s, v in means.items())
    ok = _verdict("criterion 8 (E[X1^2] level)", ok_level,
                  f"mean spectral-fit VRF {detail}; required > 100 per sampler")
    assert ok


def test_criterion_8_runtime(gmm_runs):
    elapsed = gmm_runs["elapsed"]
    ok = _verdict("criterion 8 (runtime)", elapsed < 600.0,
                  f"six experiments took {elapsed:.0f}s < 600s")
    assert ok


def test_criterion_12_determinism(gmm_runs, tmp_path_factory):
    start = time.perf_counter()
    base = tmp_path_factory.mktemp("determinism")
    identical = True
    for sampler in GMM_GAMMAS:
        rerun = run_experiment(_gmm_config(sampler, FunctionalSpec("coordinate", 0)))
        a = emit_report(gmm_runs["reports"][("coordinate", sampler)],
                        base / f"first-{sampler}")
        b = emit_report(rerun, base / f"second-{sampler}")
        identical &= a["vrf"].read_bytes() == b["vrf"].read_bytes()
    elapsed = time.perf_counter() - start
    ok = _verdict("criterion 12", identical,
                  f"vrf.csv byte-identical across reruns for ULA/MALA/RWM "
                  f"({elapsed:.0f}s)")
    assert ok


# ---------------------------------------------------------------------------
# Criterion 9: two-scale mixture, bump family vs affine family.

@pytest.fixture(scope="module")
def isolated_runs():
    start = time.perf_counter()
    target = gmm_isolated_target(0.4, -3.0, 1.0, 4.0, 0.5)
    reports = {}
    for fam in (SteinFamily("rbf", 1, 10), SteinFamily("second_order", 1)):
        cfg = ExperimentConfig(
            name=f"two-scale-{fam.kind}",
            target=target,
            functional=FunctionalSpec("cube", 0),
            family=fam,
            sampler_kind="rwm", gamma=1.0,
            n_burn=10_000, n_train=10_000, n_test=10_000, n_test_chains=100,
            b_n_train=100, seed=MASTER_SEED, batch_size=25,
            methods=("esvm",),
        )
        reports[fam.kind] = run_experiment(cfg)
    return {"reports": reports, "elapsed": time.perf_counter() - start}


def test_criterion_9_bump_family(isolated_runs):
    vrf_rbf = _mean_vrf(isolated_runs["reports"]["rbf"], "esvm")
    vrf_poly = _mean_vrf(isolated_runs["reports"]["second_order"], "esvm")
    elapsed = isolated_runs["elapsed"]
    ok = _verdict(
        "criterion 9",
        vrf_rbf > 100.0 and vrf_rbf > 10.0 * vrf_poly and elapsed < 300.0,
        f"bump-family mean VRF {vrf_rbf:.1f} (> 100), affine-family {vrf_poly:.1f} "
        f"(ratio {vrf_rbf / vrf_poly:.1f}x > 10x), identical test chains; "
        f"runtime {elapsed:.0f}s < 300s")
    assert ok


# ---------------------------------------------------------------------------
# Criterion 10: logistic regression on the bundled synthetic dataset.

@pytest.fixture(scope="module")
def logistic_run():
    start = time.perf_counter()
    dataset = synthetic_logistic_dataset(500, 8, k_test=100, seed=90210)
    cfg = ExperimentConfig(
        name="logistic-synthetic",
        target=logistic_target(dataset),
        functional=FunctionalSpec("test_likelihood"),
        family=SteinFamily("second_order", 8),
        sampler_kind="ula", gamma=0.1,
        n_burn=1_000, n_train=10_000, n_test=10_000, n_test_chains=100,
        b_n_train=10, seed=MASTER_SEED, batch_size=25,
    )
    return {"report": run_experiment(cfg), "elapsed": time.perf_counter() - start}


def test_criterion_10_level(logistic_run):
    level = _mean_vrf(logistic_run["report"], "esvm")
    elapsed = logistic_run["elapsed"]
    ok = _verdict("criterion 10 (level)", level > 50.0 and elapsed < 600.0,
                  f"second-order spectral-fit mean VRF {level:.1f} > 50 "
                  f"(synthetic stand-in, N=500, d=8); runtime {elapsed:.0f}s < 600s")
    assert ok


def test_criterion_10_ordering(logistic_run):
    e = _mean_vrf(logistic_run["report"], "esvm")
    v = _mean_vrf(logistic_run["report"], "evm")
    log_ratio, se = _paired_log_ratio(logistic_run["report"])
    ok = _verdict("criterion 10 (esvm >= evm)", e >= v,
                  f"esvm {e:.1f} vs evm {v:.1f} (ratio {e / v:.3f}); paired mean "
                  f"log-ratio {log_ratio:+.4f} (SE {se:.4f}) over the shared test chains")
    assert ok


@pytest.mark.skipif("ESVM_PIMA_CSV" not in os.environ,
                    reason="real dataset not supplied (set ESVM_PIMA_CSV)")
def test_criterion_10_pima_full_scale():
    dataset = esvm.ingest_csv(
        os.environ["ESVM_PIMA_CSV"],
        os.environ.get("ESVM_PIMA_LABEL", "Outcome"),
        k_test=100, seed=90210, add_intercept=True,
    )
    cfg = ExperimentConfig(
        name="logistic-pima",
        target=logistic_target(dataset),
        functional=FunctionalSpec("test_likelihood"),
        family=SteinFamily("second_order", dataset.dim),
        sampler_kind="ula", gamma=0.1,
        n_burn=1_000, n_train=10_000, n_test=10_000, n_test_chains=100,
        b_n_train=10, seed=MASTER_SEED, batch_size=25,
        methods=("esvm",),
    )
    level = _mean_vrf(run_experiment(cfg), "esvm")
    ok = _verdict("criterion 10 (Pima, optional)", level > 1000.0,
                  f"second-order spectral-fit mean VRF {level:.1f} > 1000 on the "
                  f"user-supplied dataset")
    assert ok


# ---------------------------------------------------------------------------
# Criterion 11: banana-shaped density, three samplers.

BANANA_GAMMAS = {"ula": 0.01, "mala": 0.5, "rwm": 0.5}


@pytest.fixture(scope="module")
def banana_runs():
    start = time.perf_counter()
    target = banana_target(100.0, 0.1, 2)
    reports = {}
    for sampler, gamma in BANANA_GAMMAS.items():
        cfg = ExperimentConfig(
            name=f"banana-{sampler}",
            target=target,
            functional=FunctionalSpec("coordinate", 1),
            family=SteinFamily("second_order", 2),
            sampler_kind=sampler, gamma=gamma,
            n_burn=100_000, n_train=100_000, n_test=100_000, n_test_chains=100,
            b_n_train=300, b_n_test=300, seed=MASTER_SEED, batch_size=25,
        )
        reports[sampler] = run_experiment(cfg)
    return {"reports": reports, "elapsed": time.perf_counter() - start}


def _window_free_vrf(report, method):
    return _averages_variance_ratio(report.vanilla["averages"], _method(report, method).averages)


def test_criterion_11_level(banana_runs):
    # Scored on the variance of the ergodic averages across the independent
    # test chains, not on the windowed per-chain VRF: the x2 autocorrelation
    # is still about 0.9 at lag b_n_test = 300, so the windowed estimate keeps
    # growing with b_n and measures the truncation rather than the method.
    reports = banana_runs["reports"]
    free = {s: _window_free_vrf(r, "esvm") for s, r in reports.items()}
    ok_level = all(point > 1.5 for point, _, _ in free.values())
    detail = ", ".join(
        f"{s}: {point:.3f} [{lo:.2f}, {hi:.2f}] (windowed {_mean_vrf(reports[s], 'esvm'):.2f})"
        for s, (point, lo, hi) in free.items())
    below_one = [s for s, (_, lo, _) in free.items() if lo <= 1.0] or ["none"]
    ok = _verdict("criterion 11 (level)", ok_level,
                  f"Var(raw averages)/Var(esvm averages) over the test chains, paired "
                  f"bootstrap 95% interval: {detail}; required > 1.5 per sampler; "
                  f"intervals reaching 1: {', '.join(below_one)}")
    assert ok


def test_criterion_11_ordering(banana_runs):
    pairs = {s: (_window_free_vrf(r, "esvm")[0], _window_free_vrf(r, "evm")[0],
                 *_averages_variance_ratio(_method(r, "evm").averages,
                                           _method(r, "esvm").averages))
             for s, r in banana_runs["reports"].items()}
    ok_order = all(e >= v for e, v, *_ in pairs.values())
    detail = "; ".join(f"{s}: esvm {e:.2f} vs evm {v:.2f}, Var(evm)/Var(esvm) "
                       f"{r:.3f} [{lo:.2f}, {hi:.2f}]"
                       for s, (e, v, r, lo, hi) in pairs.items())
    ok = _verdict("criterion 11 (esvm >= evm)", ok_order,
                  f"variance-of-averages VRF over the test chains: {detail}")
    assert ok


def test_criterion_11_runtime(banana_runs):
    elapsed = banana_runs["elapsed"]
    ok = _verdict("criterion 11 (runtime)", elapsed < 900.0,
                  f"three experiments took {elapsed:.0f}s < 900s")
    assert ok
