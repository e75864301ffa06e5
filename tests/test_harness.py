"""Experiment pipeline, reports, ACF, truncation sweep, CLI."""

import json
import re
import warnings

import numpy as np
import pytest
from scipy.special import expit, ndtr

import esvm
from esvm.errors import ConfigError
from esvm.harness import (
    ExperimentConfig,
    FunctionalSpec,
    VRFReport,
    _along_chain,
    acf_dump,
    bn_sweep,
    emit_report,
    make_functional,
    report_json,
    run_experiment,
)
from esvm.samplers import NOISE_BLOCK
from esvm.variance import LagWindow

from _oracles import ar1_reference, equals_modulo_run_info, vrf


def _mini_config(**overrides):
    target = esvm.gmm_target(0.5, np.array([0.5, 0.5]), np.eye(2))
    base = dict(
        name="mini",
        target=target,
        functional=FunctionalSpec("coordinate", 0),
        family=esvm.SteinFamily("second_order", 2),
        sampler_kind="ula",
        gamma=0.1,
        n_burn=200,
        n_train=3000,
        n_test=3000,
        n_test_chains=6,
        b_n_train=20,
        seed=505,
        batch_size=4,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


@pytest.fixture(scope="module")
def mini_report():
    return run_experiment(_mini_config())


@pytest.fixture
def no_sampling(monkeypatch):
    """Any sampler call fails the test."""
    import esvm.harness as harness

    def refuse(*args, **kwargs):
        raise AssertionError("a chain was sampled")

    monkeypatch.setattr(harness, "sample_chains", refuse)


class TestVrf:
    def test_identical_series_give_one(self):
        rng = np.random.default_rng(0)
        s = rng.standard_normal(500)
        out = vrf(s, s, LagWindow(7))
        assert out.value == 1.0 and not out.infinite

    def test_constant_adjusted_series_flagged_infinite(self):
        rng = np.random.default_rng(1)
        s = rng.standard_normal(500)
        out = vrf(s, np.full(500, 2.0), LagWindow(7))
        assert out.infinite

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            vrf(np.zeros(10), np.zeros(11), LagWindow(2))


class TestAcfDump:
    def test_lag_zero_is_one(self):
        rng = np.random.default_rng(2)
        acf = acf_dump(rng.standard_normal(1000), 5)
        assert acf[0] == 1.0

    def test_iid_band(self):
        rng = np.random.default_rng(3)
        n = 200_000
        acf = acf_dump(rng.standard_normal(n), 1)
        assert abs(acf[1]) < 3.0 / np.sqrt(n)

    def test_ar1_geometric_decay(self):
        traj, _ = ar1_reference(0.5, 1_000_000, 17)
        acf = acf_dump(traj.states[:, 0], 8)
        for lag in (1, 2, 4, 8):
            assert acf[lag] == pytest.approx(0.5 ** lag, abs=0.02)

    def test_degenerate_series_rejected(self):
        with pytest.raises(ValueError, match="degenerate series"):
            acf_dump(np.full(100, 1.0), 3)


class TestFunctionals:
    def test_coordinate_and_powers(self):
        states = np.array([[1.0, 2.0], [-2.0, 0.5]])
        assert list(make_functional(FunctionalSpec("coordinate", 1))(states)) == [2.0, 0.5]
        assert list(make_functional(FunctionalSpec("second_moment", 0))(states)) == [1.0, 4.0]
        assert list(make_functional(FunctionalSpec("cube", 0))(states)) == [1.0, -8.0]

    def test_test_likelihood_requires_dataset(self):
        with pytest.raises(ConfigError):
            make_functional(FunctionalSpec("test_likelihood"))

    def test_test_likelihood_values(self):
        ds = esvm.synthetic_logistic_dataset(60, 3, k_test=10, seed=4)
        f = make_functional(FunctionalSpec("test_likelihood"), esvm.logistic_target(ds))
        states = np.zeros((2, 3))
        np.testing.assert_allclose(f(states), 0.5)  # zero coefficients: p = 1/2 each

    @pytest.mark.parametrize("kind", ["logistic", "probit"])
    def test_test_likelihood_matches_scipy(self, kind):
        # the last 50 states lie far in the tail, where exp(-t) overflows
        # and the logistic sigmoid must return 0 without a warning
        ds = esvm.synthetic_logistic_dataset(200, 5, k_test=40, seed=3)
        target = esvm.logistic_target(ds) if kind == "logistic" else esvm.probit_target(ds)
        states = np.random.default_rng(31).standard_normal((350, 5))
        states[:300] *= 2.0
        states[300:] *= 1e4
        before = states.copy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = make_functional(FunctionalSpec("test_likelihood"), target)(states)
        assert np.array_equal(states, before)
        t = (2.0 * ds.labels_test - 1.0) * (states @ ds.features_test.T)
        if kind == "probit":
            np.testing.assert_array_equal(got, ndtr(t).mean(axis=1))
        else:
            ref = expit(t).mean(axis=1)
            assert np.all(np.abs(got - ref) <= 4 * np.spacing(ref))

    def test_test_likelihood_on_a_target_without_one_rejected_at_construction(self,
                                                                               no_sampling):
        with pytest.raises(ConfigError, match="regression target"):
            ExperimentConfig(
                name="no-likelihood", target=esvm.gmm_target(0.5, np.ones(2), np.eye(2)),
                functional=FunctionalSpec("test_likelihood"),
                family=esvm.SteinFamily("first_order", 2), sampler_kind="ula", gamma=0.1,
                n_burn=10, n_train=100, n_test=100, n_test_chains=2, b_n_train=5)

    @pytest.mark.parametrize("kind", ["logistic", "probit"])
    def test_regression_kind_is_the_targets(self, kind):
        ds = esvm.synthetic_logistic_dataset(60, 3, k_test=10, seed=4)
        target = esvm.logistic_target(ds) if kind == "logistic" else esvm.probit_target(ds)
        cfg = _mini_config(target=target, functional=FunctionalSpec("test_likelihood"),
                           family=esvm.SteinFamily("first_order", 3))
        assert cfg.evaluator is target.test_likelihood
        assert cfg.describe()["regression_kind"] == kind
        assert _mini_config().describe()["regression_kind"] is None

    def test_rebuilt_config_keeps_the_test_likelihood(self, tmp_path):
        # the way a traced benchmark run rebuilds a loaded configuration
        from dataclasses import replace

        ds = esvm.synthetic_logistic_dataset(200, 5, k_test=40, seed=3)
        cfg = _mini_config(target=esvm.logistic_target(ds),
                           functional=FunctionalSpec("test_likelihood"),
                           family=esvm.SteinFamily("first_order", 5), n_train=600,
                           n_test=600, n_test_chains=3, b_n_train=6)
        rows = []

        def wrapped(x):
            rows.append(np.shape(x)[0])
            return cfg.target.gradient(x)

        rebuilt = replace(cfg, target=replace(cfg.target, gradient=wrapped))
        assert rebuilt.target.test_likelihood is cfg.target.test_likelihood
        assert rebuilt.target.regression_kind == "logistic"
        assert rebuilt.evaluator is rebuilt.target.test_likelihood is not None
        emit_report(run_experiment(cfg), tmp_path / "a")
        emit_report(run_experiment(rebuilt), tmp_path / "b")
        assert 600 in rows  # the harness evaluated a whole chain through the wrapper
        for name in ("vrf.csv", "boxplot.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        a = json.loads((tmp_path / "a/report.json").read_text())
        b = json.loads((tmp_path / "b/report.json").read_text())
        a.pop("run_info"), b.pop("run_info")
        assert a == b and a["config"]["regression_kind"] == "logistic"


class TestChainGradients:
    """`_along_chain` evaluates grad U, or the functional, along a chain in
    blocks of NOISE_BLOCK states; the blocks give the bits of one call on the
    whole chain."""

    @staticmethod
    def _chain(kind):
        if kind == "logistic":
            target = esvm.logistic_target(esvm.synthetic_logistic_dataset(500, 8, 100, 90210))
            sampler = esvm.SamplerConfig("ula", 0.1, 3_200, esvm.SeedKey(7, 0), n_burn=200)
        else:
            target = esvm.banana_target(100.0, 0.1, 2)
            sampler = esvm.SamplerConfig("rwm", 0.5, 3_200, esvm.SeedKey(7, 0), n_burn=200)
        chain, _ = esvm.sample_chain(sampler, target, np.zeros(target.dim))
        assert len(chain) == 3_000 > 2 * NOISE_BLOCK
        return target, chain

    @pytest.mark.parametrize("kind", ["logistic", "banana"])
    def test_blocks_equal_one_call_bit_for_bit(self, kind):
        target, chain = self._chain(kind)
        with np.errstate(over="ignore"):
            whole = target.gradient(chain.states)
        got = _along_chain(target.gradient, chain.states)
        assert got.shape == chain.states.shape
        assert np.array_equal(got, whole)

    def test_evaluator_blocks_equal_one_call_bit_for_bit(self):
        target, chain = self._chain("logistic")
        cfg = _mini_config(target=target, functional=FunctionalSpec("test_likelihood"),
                           family=esvm.SteinFamily("first_order", 8))
        whole = cfg.evaluator(chain.states)
        got = _along_chain(cfg.evaluator, chain.states)
        assert got.shape == (len(chain),)
        assert got.tobytes() == whole.tobytes()


class TestRunExperiment:
    def test_report_shapes(self, mini_report):
        rep = mini_report
        assert len(rep.vanilla["averages"]) == 6
        for m in rep.methods:
            assert len(m.vrf) == 6
            assert len(m.averages) == 6
            assert len(m.v_plain) == 6

    def test_methods_share_test_chains(self, mini_report):
        a, b = mini_report.methods
        np.testing.assert_array_equal(a.v_plain, b.v_plain)

    def test_vrf_consistent_with_reported_variances(self, mini_report):
        for m in mini_report.methods:
            for vp, va, ratio, bad in zip(m.v_plain, m.v_adjusted, m.vrf, m.infinite):
                if not bad:
                    assert ratio == pytest.approx(vp / va, rel=1e-12)

    def test_fit_never_worsens_the_training_criterion(self, mini_report):
        for m in mini_report.methods:
            assert m.fit["objective_at_theta"] <= m.fit["objective_at_zero"] * (1 + 1e-9)

    def test_quartiles_are_order_statistics(self, mini_report):
        avgs = np.asarray(mini_report.vanilla["averages"])
        q = mini_report.vanilla["quartiles"]
        assert q["q1"] == pytest.approx(np.quantile(avgs, 0.25))
        assert q["median"] == pytest.approx(np.quantile(avgs, 0.5))
        assert q["q3"] == pytest.approx(np.quantile(avgs, 0.75))

    def test_no_methods_leaves_vrf_section_empty(self):
        rep = run_experiment(_mini_config(methods=(), n_test_chains=2,
                                          n_train=500, n_test=500, b_n_train=5))
        assert rep.methods == []
        assert len(rep.vanilla["averages"]) == 2

    def test_vrf_recomputable_from_resampled_trajectories(self, mini_report):
        # spot-check: rebuild three test chains from their seeds and reproduce
        # the per-trajectory ratios offline
        cfg = _mini_config()
        window = LagWindow(cfg.test_truncation)
        functional = make_functional(cfg.functional)
        esvm_method = mini_report.methods[0]
        theta = np.asarray(esvm_method.family["params"])
        for stream in (1, 3, 6):
            chain, _ = esvm.sample_chain(
                esvm.SamplerConfig(cfg.sampler_kind, cfg.gamma,
                                   cfg.n_burn + cfg.n_test,
                                   esvm.SeedKey(cfg.seed, stream), n_burn=cfg.n_burn),
                cfg.target, cfg.start_point())
            f = functional(chain.states)
            g = esvm.stein_values(cfg.family, theta, chain.states,
                                  cfg.target.gradient(chain.states))
            out = vrf(f, f - g, window)
            assert out.value == pytest.approx(esvm_method.vrf[stream - 1], rel=1e-12)

    def test_deterministic_reports(self):
        cfg = _mini_config(n_train=800, n_test=800, n_test_chains=3, b_n_train=8)
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert equals_modulo_run_info(a, b)

    def test_threading_does_not_change_results(self):
        base = run_experiment(_mini_config(n_train=800, n_test=800,
                                           n_test_chains=5, b_n_train=8, batch_size=2))
        threaded = run_experiment(_mini_config(n_train=800, n_test=800,
                                               n_test_chains=5, b_n_train=8,
                                               batch_size=2, threads=3))
        assert equals_modulo_run_info(base, threaded)

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigError):
            _mini_config(b_n_train=5000)  # exceeds n_train
        with pytest.raises(ConfigError):
            _mini_config(methods=("esvm", "bogus"))


class TestStageTimings:
    def test_every_stage_is_timed(self, mini_report):
        assert set(mini_report.run_info["timings"]) == {
            "train-sampling", "fit", "test-evaluation", "aggregate"}

    def test_cpu_time_recorded_per_stage(self, mini_report):
        wall, cpu = mini_report.run_info["timings"], mini_report.run_info["cpu_timings"]
        assert set(cpu) == set(wall)
        assert cpu["train-sampling"] > 0.0 and min(cpu.values()) >= 0.0
        # a stage that sleeps takes wall time but next to no CPU time
        import time

        from esvm.harness import _Stage

        timings = {}
        with _Stage("idle", timings):
            time.sleep(0.2)
        idle_wall, idle_cpu = timings["idle"]
        assert idle_wall >= 0.2 and idle_cpu < 0.1

    def test_library_versions_recorded(self, mini_report):
        import platform

        import scipy

        assert mini_report.run_info["versions"] == {
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__}

    def test_evaluation_with_parameters_times_aggregation(self, mini_report):
        from esvm.harness import evaluate_with_parameters

        cfg = _mini_config(n_train=400, n_test=400, n_test_chains=2, b_n_train=5)
        thetas = {m.method: m.family["params"] for m in mini_report.methods}
        report = evaluate_with_parameters(cfg, thetas)
        assert set(report.run_info["timings"]) == set(report.run_info["cpu_timings"]) == {
            "train-sampling", "test-evaluation", "aggregate"}

    def test_chain_steps_recorded_per_sampling_stage(self, monkeypatch, mini_report):
        # one sampler call per batch; the first carries the training chain
        # (stream 0, run_experiment only) and is made before any fit
        import esvm.harness as harness

        cfg = _mini_config(n_train=500, n_test=400, n_test_chains=6, b_n_train=5)
        calls = []
        sample_chains, fit = harness.sample_chains, harness.fit

        def many(config, target, streams, x0=None, n_steps=None):
            lengths = [config.n_steps] * len(streams) if n_steps is None else n_steps
            calls.append(dict(zip(streams, lengths)))
            return sample_chains(config, target, streams, x0, n_steps=n_steps)

        def fitting(*args, **kwargs):
            calls.append("fit")
            return fit(*args, **kwargs)

        monkeypatch.setattr(harness, "sample_chains", many)
        monkeypatch.setattr(harness, "fit", fitting)
        thetas = {m.method: m.family["params"] for m in mini_report.methods}
        first = {s: 600 for s in range(1, 5)}
        for run, expected in (
            (lambda: run_experiment(cfg), [{0: 700, **first}, "fit", "fit", {5: 600, 6: 600}]),
            (lambda: harness.evaluate_with_parameters(cfg, thetas), [first, {5: 600, 6: 600}]),
        ):
            calls.clear()
            report = run()
            assert calls == expected
            sampled = [c for c in calls if c != "fit"]
            assert report.run_info["chain_steps"] == {
                "train-sampling": sum(sampled[0].values()),
                "test-evaluation": sum(sampled[1].values()),
            }


class TestTrainingChain:
    @pytest.mark.parametrize("n_train", [600, 1500])
    def test_training_chain_in_first_batch_equals_lone_chain(self, n_train):
        # stream 0 ends before or after the test chains of its batch; the
        # fit on it equals the fit on the chain sampled alone
        from esvm.harness import build_design, fit_methods, train_chain

        cfg = _mini_config(n_train=n_train, n_test=1000, n_test_chains=3, b_n_train=8)
        report = run_experiment(cfg)
        alone, stats = train_chain(cfg)
        fits = fit_methods(cfg, build_design(cfg, alone, LagWindow(cfg.train_truncation)))
        for m in report.methods:
            assert m.fit == fits[m.method].to_dict()
        assert report.acceptance["train_rate"] == stats.rate

    def test_far_tail_design_and_scoring_raise_no_warning(self):
        # far in the tail the logistic gradient's exp(-t) overflows where the
        # sigmoid is an exact 0; fitting on or scoring a chain that wandered
        # there prints no overflow warning, as inside the samplers
        from esvm.harness import _score_batch, build_design, fit_methods
        from esvm.samplers import AcceptanceStats

        ds = esvm.synthetic_logistic_dataset(200, 5, k_test=40, seed=3)
        cfg = _mini_config(target=esvm.logistic_target(ds),
                           functional=FunctionalSpec("test_likelihood"),
                           family=esvm.SteinFamily("first_order", 5), n_train=400, n_test=400,
                           b_n_train=5)
        far = esvm.Trajectory(1e4 * np.random.default_rng(8).standard_normal((400, 5)))
        assert np.min(far.states @ ds.features_train.T) < -1e3
        window = LagWindow(5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fits = fit_methods(cfg, build_design(cfg, far, window))
            (row,) = _score_batch(cfg, [(1, far, AcceptanceStats())], fits, window)
        assert set(row["methods"]) == set(cfg.methods)

    def test_evaluation_with_parameters_samples_no_training_chain(self, mini_report):
        from esvm.harness import evaluate_with_parameters

        cfg = _mini_config(n_train=400, n_test=400, n_test_chains=2, b_n_train=5)
        thetas = {m.method: m.family["params"] for m in mini_report.methods}
        report = evaluate_with_parameters(cfg, thetas)
        assert report.acceptance["train_rate"] is None
        assert report.acceptance["train_nonfinite_log_alpha"] is None
        assert '"train_rate": null' in report_json(report)


    @pytest.mark.parametrize("theta", [[1.0], [float("nan")] * 6],
                             ids=["wrong-length", "all-nan"])
    def test_evaluation_with_parameters_checks_theta_before_sampling(self, no_sampling,
                                                                     theta):
        # second-order family in 2-D: 6 parameters
        from esvm.harness import evaluate_with_parameters

        with pytest.raises(ConfigError, match="'esvm' must be 6 finite numbers"):
            evaluate_with_parameters(_mini_config(), {"esvm": theta})


class TestSharedPipeline:
    @pytest.mark.parametrize("sampler_kind, gamma", [("ula", 0.1), ("mala", 0.5), ("rwm", 0.5)])
    def test_evaluation_with_parameters_reproduces_run(self, sampler_kind, gamma):
        # the run's own fits scored again on the same test chains give the
        # same figures bit for bit, although only the run samples stream 0
        # in the first batch
        from esvm.harness import evaluate_with_parameters

        cfg = _mini_config(sampler_kind=sampler_kind, gamma=gamma, n_train=1000, n_test=800,
                           b_n_train=10)
        run = run_experiment(cfg)
        evaluated = evaluate_with_parameters(cfg, {m.method: m.family["params"]
                                                   for m in run.methods})
        assert evaluated.vanilla == run.vanilla
        assert evaluated.acceptance["test_rates"] == run.acceptance["test_rates"]
        assert [m.method for m in evaluated.methods] == [m.method for m in run.methods]
        for got, want in zip(evaluated.methods, run.methods):
            assert got.vrf == want.vrf
            assert got.v_adjusted == want.v_adjusted
            assert got.averages == want.averages


class TestBatching:
    def test_batch_size_cut_to_the_state_budget(self):
        from esvm.harness import _chains_per_batch

        assert _chains_per_batch(_mini_config(batch_size=100, n_test=2000)) == 100
        # the README example: 100 000 two-dimensional states per chain
        assert _chains_per_batch(_mini_config(batch_size=100, n_test=100_000)) == 41
        assert _chains_per_batch(_mini_config(batch_size=100, n_test=10**8)) == 1
        assert _chains_per_batch(_mini_config(batch_size=4, n_test=100_000)) == 4

    @pytest.mark.parametrize("threads", [1, 2])
    def test_long_chains_split_into_smaller_batches(self, monkeypatch, threads):
        import esvm.harness as harness

        cfg = _mini_config(n_train=1000, n_test=1000, n_test_chains=6,
                           batch_size=4, threads=threads)
        calls = []
        sample = harness.sample_chains

        def counting(config, target, streams, x0=None, n_steps=None):
            calls.append(list(streams))
            return sample(config, target, streams, x0, n_steps=n_steps)

        reference = run_experiment(cfg)
        monkeypatch.setattr(harness, "sample_chains", counting)
        monkeypatch.setattr(harness, "TEST_BATCH_BYTES", 3 * 1000 * 2 * 8)
        report = run_experiment(cfg)
        monkeypatch.undo()
        # each stream sampled once; the training chain rides in the first batch
        assert calls == [[0, 1, 2, 3], [4, 5, 6]]
        assert report.vanilla == reference.vanilla
        assert ([m.to_dict() for m in report.methods]
                == [m.to_dict() for m in reference.methods])


class TestBnSweep:
    @pytest.mark.parametrize("threads", [1, 2])
    def test_test_chains_sampled_once_for_all_values(self, monkeypatch, threads):
        import esvm.harness as harness

        cfg = _mini_config(n_train=1000, n_test=1000, n_test_chains=6,
                           batch_size=4, threads=threads)
        values = [4, 12, 30]
        calls = []
        sample = harness.sample_chains

        def counting(config, target, streams, x0=None, n_steps=None):
            calls.append(list(streams))
            return sample(config, target, streams, x0, n_steps=n_steps)

        monkeypatch.setattr(harness, "sample_chains", counting)
        rows = bn_sweep(cfg, values)
        monkeypatch.undo()
        # each stream sampled once; the training chain rides in the first batch
        assert calls == [[0, 1, 2, 3, 4], [5, 6]]
        for row, b in zip(rows, values):
            rep = run_experiment(_mini_config(n_train=1000, n_test=1000, n_test_chains=6,
                                              batch_size=4, b_n_train=b))
            assert rep.methods[0].method == "esvm"
            assert row["mean_vrf"] == rep.methods[0].mean_vrf
            assert row["infinite_count"] == rep.methods[0].infinite_count

    def test_training_design_built_once(self):
        # RWM never calls the gradient, so every full-length call on the
        # training states comes from building the design
        from dataclasses import replace

        cfg = _mini_config(sampler_kind="rwm", gamma=0.5, n_train=1000, n_test=600,
                           n_test_chains=2)
        gradient = cfg.target.gradient
        rows_seen = []

        def counting(x):
            rows_seen.append(np.shape(x)[0])
            return gradient(x)

        cfg = replace(cfg, target=replace(cfg.target, gradient=counting))
        rows = bn_sweep(cfg, [4, 12, 30])
        assert rows_seen.count(cfg.n_train) == 1
        assert rows_seen.count(cfg.n_test) == cfg.n_test_chains
        plain = bn_sweep(_mini_config(sampler_kind="rwm", gamma=0.5, n_train=1000,
                                      n_test=600, n_test_chains=2), [4, 12, 30])
        assert rows == plain

    def test_single_value_matches_run_experiment(self):
        cfg = _mini_config(n_train=1000, n_test=1000, n_test_chains=4, b_n_train=12)
        rows = bn_sweep(cfg, [12])
        rep = run_experiment(_mini_config(n_train=1000, n_test=1000,
                                          n_test_chains=4, b_n_train=12,
                                          methods=("esvm",)))
        assert rows[0]["mean_vrf"] == pytest.approx(rep.methods[0].mean_vrf, rel=1e-12)

    def test_failing_fit_tagged_with_its_truncation(self, monkeypatch):
        import esvm.harness as harness
        from esvm.errors import StageError

        fit = harness.fit

        def failing(design, *args, **kwargs):
            if design.window.b_n == 12:
                raise FloatingPointError("no fit")
            return fit(design, *args, **kwargs)

        monkeypatch.setattr(harness, "fit", failing)
        with pytest.raises(StageError) as info:
            bn_sweep(_mini_config(n_train=1000, n_test=600, n_test_chains=2), [4, 12, 30])
        assert info.value.stage == "fit[b_n=12]"

    def test_sweep_values_validated(self):
        with pytest.raises(ConfigError):
            bn_sweep(_mini_config(), [0])

    def test_small_sweep_runs(self):
        cfg = _mini_config(n_train=2000, n_test=2000, n_test_chains=4)
        rows = bn_sweep(cfg, [1, 10, 100])
        assert [r["b_n"] for r in rows] == [1, 10, 100]
        assert all(r["mean_vrf"] is not None for r in rows)

    def test_plateau_including_single_lag_training(self):
        # training truncations from 1 (first-order autocovariance only) to
        # 1000 all land near the same plateau; evaluation uses the fixed
        # cube-root rule regardless of the training value
        cfg = _mini_config(n_train=20_000, n_test=20_000, n_test_chains=8,
                           batch_size=8)
        rows = bn_sweep(cfg, [1, 10, 100, 1000])
        values = [r["mean_vrf"] for r in rows]
        assert all(v is not None and v > 0 for v in values)
        assert values[1] >= 0.5 * max(values)


class TestReportEmission:
    def test_report_json_round_trip(self, mini_report, tmp_path):
        paths = emit_report(mini_report, tmp_path)
        parsed = VRFReport.from_dict(json.loads(paths["report"].read_text()))
        assert parsed == mini_report

    def test_vrf_csv_row_count(self, mini_report, tmp_path):
        paths = emit_report(mini_report, tmp_path)
        rows = paths["vrf"].read_text().strip().split("\n")
        assert len(rows) == 1 + 6 * 2  # header + n_test_chains * methods

    def test_boxplot_quartiles_recomputable_from_averages(self, mini_report, tmp_path):
        paths = emit_report(mini_report, tmp_path)
        lines = paths["boxplot"].read_text().strip().split("\n")[1:]
        by_name = {ln.split(",")[0]: ln.split(",") for ln in lines}
        esvm_avgs = np.asarray(mini_report.methods[0].averages)
        row = by_name["esvm"]
        assert float(row[2]) == pytest.approx(np.quantile(esvm_avgs, 0.25), rel=1e-12)
        assert float(row[4]) == pytest.approx(np.quantile(esvm_avgs, 0.75), rel=1e-12)

    def test_seventeen_digit_floats_round_trip(self):
        from esvm.harness import format_float

        rng = np.random.default_rng(5)
        for _ in range(200):
            x = float(rng.standard_normal() * 10.0 ** rng.integers(-12, 12))
            assert float(format_float(x)) == x

    def test_byte_identical_reruns(self, tmp_path):
        cfg = _mini_config(n_train=600, n_test=600, n_test_chains=3, b_n_train=6)
        emit_report(run_experiment(cfg), tmp_path / "a")
        emit_report(run_experiment(cfg), tmp_path / "b")
        assert (tmp_path / "a/vrf.csv").read_bytes() == (tmp_path / "b/vrf.csv").read_bytes()
        assert (tmp_path / "a/boxplot.csv").read_bytes() == (tmp_path / "b/boxplot.csv").read_bytes()
        a = json.loads((tmp_path / "a/report.json").read_text())
        b = json.loads((tmp_path / "b/report.json").read_text())
        a.pop("run_info"), b.pop("run_info")
        assert a == b


class TestCli:
    def _write_config(self, tmp_path, **overrides):
        doc = {
            "name": "cli-mini",
            "target": {"kind": "gmm", "rho": 0.5, "mu": [0.5, 0.5], "sigma": 1.0},
            "functional": {"kind": "coordinate", "index": 0},
            "family": {"kind": "second_order"},
            "sampler": {"kind": "ula", "gamma": 0.1},
            "n_burn": 100, "n_train": 1200, "n_test": 1200, "n_test_chains": 3,
            "b_n": 10, "seed": 99, "batch_size": 2,
        }
        doc.update(overrides)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        return path

    def test_run_pipeline(self, tmp_path, capsys):
        from esvm.cli import main

        cfg = self._write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "report.json").exists()
        assert (out / "vrf.csv").exists()
        assert "mean VRF" in capsys.readouterr().out

    def test_summary_reports_stage_times(self, tmp_path, capsys):
        from esvm.cli import main

        cfg = self._write_config(tmp_path)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out
        times = r"\d+\.\d{3} s wall, \d+\.\d{3} s CPU"
        # batch_size 2 leaves one of the 3 test chains to a later batch, so
        # both sampling stages advance chains
        for stage in ("train-sampling", "test-evaluation"):
            assert re.search(rf"^  {stage}: {times}, [\d,]+ chain-steps/s$", out, re.M)
        for stage in ("fit", "aggregate"):
            assert re.search(rf"^  {re.escape(stage)}: {times}$", out, re.M)

    def test_fit_then_evaluate(self, tmp_path, capsys):
        from esvm.cli import main

        cfg = self._write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["fit", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "fit.json").exists()
        assert main(["evaluate", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert len(report["methods"]) == 2

    def test_unconverged_fit_is_said(self, tmp_path, capsys, monkeypatch):
        import dataclasses

        import esvm.harness as harness
        from esvm.cli import main

        fit = harness.fit
        monkeypatch.setattr(harness, "fit", lambda *args, **kwargs: dataclasses.replace(
            fit(*args, **kwargs), converged=False))
        cfg = self._write_config(tmp_path)
        out = tmp_path / "out"
        for command, line in (("fit", r"^(esvm|evm): objective .*\)"),
                              ("run", r"^  (esvm|evm): mean VRF \S+")):
            assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
            said = re.findall(line + r", fit not converged$", capsys.readouterr().out, re.M)
            assert sorted(said) == ["esvm", "evm"]
        monkeypatch.undo()
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert "not converged" not in capsys.readouterr().out

    def test_sample_and_acf(self, tmp_path, capsys):
        from esvm.chains import load_trajectory
        from esvm.cli import main

        cfg = self._write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["sample", "--config", str(cfg), "--out", str(out)]) == 0
        traj = load_trajectory(out / "train.traj")
        assert len(traj) == 1200 and traj.dim == 2
        assert main(["acf", "--config", str(cfg), "--out", str(out),
                     "--max-lag", "20"]) == 0
        lines = (out / "acf.csv").read_text().strip().split("\n")
        assert lines[0] == "lag,acf" and len(lines) == 22

    def test_sweep_bn_command(self, tmp_path):
        from esvm.cli import main

        cfg = self._write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["sweep-bn", "--config", str(cfg), "--out", str(out),
                     "--bn", "1,5,20"]) == 0
        lines = (out / "bn_sweep.csv").read_text().strip().split("\n")
        assert len(lines) == 4

    def test_config_error_exit_code(self, tmp_path, capsys):
        from esvm.cli import main

        missing = tmp_path / "nope.json"
        assert main(["run", "--config", str(missing)]) == 2
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["run", "--config", str(bad)]) == 2

    @pytest.mark.parametrize("overrides", [
        {"sampler": {"kind": "hmc", "gamma": 0.1}},
        {"sampler": {"kind": "ula", "gamma": -1.0}},
        {"sampler": {"kind": "ula", "gamma": float("nan")}},
        {"x0": [0.0]},
        {"x0": [0.0, float("inf")]},
        {"b_n": 0},
        {"b_n_test": 0},
        {"functional": {"kind": "coordinate", "index": 5}},
        {"functional": {"kind": "test_likelihood"}},
        {"batch_size": 0},
        {"threads": 0},
    ], ids=["hmc", "negative-gamma", "nan-gamma", "short-x0", "infinite-x0", "b_n-0",
            "b_n_test-0", "index-outside-state", "test-likelihood-without-dataset",
            "batch_size-0", "threads-0"])
    def test_bad_configuration_rejected_at_load(self, tmp_path, capsys, no_sampling, overrides):
        from esvm.cli import main
        from esvm.config import experiment_from_dict

        cfg = self._write_config(tmp_path, **overrides)
        with pytest.raises(ConfigError):
            experiment_from_dict(json.loads(cfg.read_text()))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("doc", [
        {"methods": {"esvm": {"theta": [0.0] * 5}}},
        {"methods": {"esvm": {"theta": [1.0] * 5 + ["x"]}}},
        [{"methods": {}}],
        {"methods": {"esvm": {"theta": [float("nan")] * 6}}},
    ], ids=["wrong-length", "not-a-number", "top-level-list", "nan"])
    def test_bad_fit_document_rejected_before_sampling(self, tmp_path, capsys, no_sampling,
                                                       doc):
        from esvm.cli import main

        cfg = self._write_config(tmp_path)  # second-order family in 2-D: 6 parameters
        out = tmp_path / "out"
        out.mkdir()
        (out / "fit.json").write_text(json.dumps(doc))
        assert main(["evaluate", "--config", str(cfg), "--out", str(out)]) == 2
        assert "configuration error" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("argv,env", [
        (["sweep-bn", "--bn", "1,x"], None),
        (["acf", "--max-lag", "5000"], None),
        (["acf", "--max-lag", "-1"], None),
        (["run"], "abc"),
    ], ids=["bn-not-integer", "max-lag-above-chain", "max-lag-negative",
            "threads-env-not-integer"])
    def test_bad_command_line_rejected_before_sampling(self, tmp_path, capsys, monkeypatch,
                                                       no_sampling, argv, env):
        from esvm.cli import main

        if env is not None:
            monkeypatch.setenv("ESVM_THREADS", env)
        cfg = self._write_config(tmp_path, n_train=200)
        out = tmp_path / "out"
        assert main([*argv, "--config", str(cfg), "--out", str(out)]) == 2
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()

    def test_numeric_error_exit_code(self, tmp_path, capsys):
        from esvm.cli import main

        # step size large enough to blow up the unadjusted Langevin chain
        cfg = self._write_config(tmp_path, sampler={"kind": "ula", "gamma": 1e6},
                                 target={"kind": "banana", "p": 100.0, "b": 0.1, "dim": 2},
                                 functional={"kind": "coordinate", "index": 1})
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3

    def test_seed_override_changes_report(self, tmp_path):
        from esvm.cli import main

        cfg = self._write_config(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", str(cfg), "--out", str(a), "--seed", "1"]) == 0
        assert main(["run", "--config", str(cfg), "--out", str(b), "--seed", "2"]) == 0
        assert (a / "vrf.csv").read_text() != (b / "vrf.csv").read_text()

    def test_env_threads_fallback(self, tmp_path, monkeypatch):
        from esvm.cli import main

        monkeypatch.setenv("ESVM_THREADS", "2")
        cfg = self._write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
