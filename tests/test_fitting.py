"""Training criteria and their minimizers: analytic gradients, the exact
linear solve (one solve, never iterating; zero parameters where the quadratic
has no minimum), quasi-Newton descent for the bump family, and fit
monotonicity."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from esvm.errors import EsvmError
from esvm.fitting import (
    DesignSet,
    RbfResponse,
    default_ridge,
    esvm_objective,
    evm_objective,
    fit,
    fit_quasi_newton,
    solve_linear,
)
from esvm.stein import SteinFamily, feature_matrix, rbf_gradient, stein_values
from esvm.variance import LagWindow, centered_covariance

from _oracles import weight_matrix_oracle


def _random_design(n=200, p=6, b_n=9, seed=0, response=False):
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(n).cumsum() * 0.1 + rng.standard_normal(n)
    if response:
        fam = SteinFamily("rbf", 1, n_centers=p // 2)
        states = rng.standard_normal(n)
        grads = states + 0.3 * rng.standard_normal(n)
        return DesignSet(f_values=f, window=LagWindow(b_n),
                         response=RbfResponse(fam, states, grads)), fam
    psi = rng.standard_normal((n, p))
    return DesignSet(f_values=f, window=LagWindow(b_n), features=psi)


def _fd_gradient(objective, theta, design, scale=1e-6):
    out = np.empty_like(theta)
    for j in range(theta.size):
        h = scale * (1.0 + abs(theta[j]))
        tp, tm = theta.copy(), theta.copy()
        tp[j] += h
        tm[j] -= h
        out[j] = (objective(tp, design)[0] - objective(tm, design)[0]) / (2 * h)
    return out


class TestObjectives:
    def test_zero_parameters_reproduce_raw_criteria(self):
        from _oracles import empirical_variance
        from esvm.variance import spectral_variance

        design = _random_design()
        theta0 = np.zeros(6)
        v_esvm, _ = esvm_objective(theta0, design)
        v_evm, _ = evm_objective(theta0, design)
        assert v_esvm == pytest.approx(
            spectral_variance(design.f_values, design.window).value, rel=1e-12)
        assert v_evm == pytest.approx(empirical_variance(design.f_values), rel=1e-12)

    def test_single_lag_window_is_lag_zero_autocovariance(self):
        from _oracles import sample_autocovariance

        rng = np.random.default_rng(4)
        design = DesignSet(f_values=rng.standard_normal(64),
                           window=LagWindow(1),
                           features=rng.standard_normal((64, 3)))
        theta = rng.standard_normal(3)
        value, _ = esvm_objective(theta, design)
        resid = design.f_values - design.features @ theta
        assert value == pytest.approx(sample_autocovariance(resid, 0), rel=1e-12)

    def test_constant_residual_gives_zero(self):
        design = DesignSet(f_values=np.full(32, 3.0), window=LagWindow(4),
                           features=np.ones((32, 1)))
        assert esvm_objective(np.zeros(1), design)[0] == pytest.approx(0.0, abs=1e-12)
        assert evm_objective(np.zeros(1), design)[0] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("objective", [esvm_objective, evm_objective])
    def test_gradient_matches_finite_differences_linear(self, objective):
        rng = np.random.default_rng(5)
        design = _random_design(n=200, p=6, b_n=11, seed=6)
        worst = 0.0
        for _ in range(64):
            theta = rng.standard_normal(6)
            _, grad = objective(theta, design)
            fd = _fd_gradient(objective, theta, design)
            worst = max(worst, np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-10))
        assert worst < 1e-5

    @pytest.mark.parametrize("objective", [esvm_objective, evm_objective])
    def test_gradient_matches_finite_differences_rbf(self, objective):
        rng = np.random.default_rng(7)
        design, fam = _random_design(n=150, p=6, b_n=7, seed=8, response=True)
        worst = 0.0
        for _ in range(64):
            theta = rng.standard_normal(fam.n_params)
            _, grad = objective(theta, design)
            fd = _fd_gradient(objective, theta, design)
            worst = max(worst, np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-10))
        assert worst < 1e-5

    def test_constant_feature_column_is_inert(self):
        # the centering projector annihilates constants, so weight on a
        # constant column cannot change the spectral criterion
        rng = np.random.default_rng(9)
        n = 120
        f = rng.standard_normal(n)
        psi = np.column_stack([rng.standard_normal(n), np.full(n, 7.0)])
        design = DesignSet(f_values=f, window=LagWindow(5), features=psi)
        base, _ = esvm_objective(np.array([0.4, 0.0]), design)
        moved, _ = esvm_objective(np.array([0.4, 123.0]), design)
        assert moved == pytest.approx(base, rel=1e-10)


class TestRbfResponse:
    def test_values_are_stein_values_bit_for_bit(self):
        # The values are read from the Jacobian's amplitude columns. The bump
        # fit stops at its iteration cap, so a value one ULP off would move
        # its result.
        rng = np.random.default_rng(20)
        for r in range(1, 16):
            fam = SteinFamily("rbf", 1, n_centers=r)
            for n in (2, 37, 1000, 20_000):
                states = 2.0 * rng.standard_normal(n)
                grads = states + 0.3 * rng.standard_normal(n)
                theta = np.concatenate([5.0 * rng.standard_normal(r),
                                        rng.standard_normal(r)])
                values, jac = RbfResponse(fam, states, grads).values_and_jacobian(theta)
                np.testing.assert_array_equal(values, stein_values(fam, theta, states, grads))
                np.testing.assert_array_equal(jac, rbf_gradient(fam, theta, states, grads))


def _stacked_centering(f, psi):
    """[f, Psi] centered as a stacked (n, p + 1) block would be, transposed:
    numpy sums the columns of an (n, k >= 2) block state after state, and
    a lone column is summed the same way here."""
    return np.ascontiguousarray(np.vstack([
        f - np.cumsum(f)[-1:] / f.size,
        psi.T - (psi.mean(axis=0) if psi.shape[1] > 1
                 else np.cumsum(psi[:, 0])[-1:] / f.size)[:, None]]))


class TestDesignBlock:
    @pytest.mark.parametrize("n, p", [(2, 1), (7, 2), (200, 6), (3000, 72), (40_000, 3)])
    def test_block_is_the_stacked_centering(self, n, p):
        rng = np.random.default_rng(n + p)
        f = 5.0 + rng.standard_normal(n).cumsum()
        psi = rng.standard_normal((n, p)) * rng.uniform(0.1, 1e3, p) + 3.0
        design = DesignSet(f_values=f, window=LagWindow(1), features=psi)
        assert design.block.shape == (p + 1, n) and design.block.flags.c_contiguous
        np.testing.assert_array_equal(design.block, _stacked_centering(f, psi))
        assert design.f_values.base is design.block
        assert design.features.base is design.block
        np.testing.assert_array_equal(design.features, design.block[1:].T)

    def test_from_block_centers_in_place(self):
        rng = np.random.default_rng(30)
        f, psi = rng.standard_normal(300) + 1.0, rng.standard_normal((300, 4)) - 2.0
        block = np.ascontiguousarray(np.vstack([f, psi.T]))
        design = DesignSet.from_block(block, LagWindow(5))
        assert design.block is block
        np.testing.assert_array_equal(block, _stacked_centering(f, psi))
        bad = np.ascontiguousarray(np.vstack([f, psi.T]))
        bad[3, 7] = np.inf
        with pytest.raises(ValueError, match="feature matrix contains non-finite"):
            DesignSet.from_block(bad, LagWindow(5))

    def test_replace_shares_the_block_and_keeps_it_centered(self):
        design = _random_design()
        before = design.block.copy()
        moved = replace(design, window=LagWindow(30))
        assert moved.block is design.block
        assert np.shares_memory(moved.features, design.block)
        assert np.shares_memory(moved.f_values, design.block)
        np.testing.assert_array_equal(design.block, before)
        assert moved.window == LagWindow(30)

    def test_replace_with_other_features_refused(self):
        design = _random_design()
        with pytest.raises(ValueError, match="views of the block"):
            replace(design, features=np.ones_like(design.features))

    @pytest.mark.parametrize("kind", ["esvm", "evm"])
    def test_solve_reads_the_block_as_the_stacked_centering(self, kind):
        # the normal equations and the criterion at zero have the bits the
        # stacked block's covariance gives
        rng = np.random.default_rng(31)
        f, psi = rng.standard_normal(500).cumsum(), rng.standard_normal((500, 6))
        design = DesignSet(f_values=f, window=LagWindow(12), features=psi)
        window, scale = (LagWindow(12), 1.0) if kind == "esvm" else (LagWindow(1), 500 / 499)
        cov = scale * centered_covariance(_stacked_centering(f, psi), window)
        res = solve_linear(design, kind)
        assert res.objective_at_zero == float(cov[0, 0])
        normal = cov[1:, 1:]
        theta = np.linalg.solve(normal + default_ridge(normal) * np.eye(6), cov[1:, 0])
        np.testing.assert_array_equal(res.theta, theta)
        assert res.objective_at_theta == pytest.approx(
            (esvm_objective if kind == "esvm" else evm_objective)(theta, design)[0],
            rel=1e-12)

    def test_solve_allocates_no_copy_of_the_block(self):
        import tracemalloc

        rng = np.random.default_rng(32)
        design = DesignSet(f_values=rng.standard_normal(20_000),
                           window=LagWindow(40), features=rng.standard_normal((20_000, 30)))
        tracemalloc.start()
        try:
            solve_linear(design, "esvm")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * design.block.nbytes


class TestSolveLinear:
    def test_exact_representation_reaches_zero_residual_variance(self):
        rng = np.random.default_rng(10)
        psi = rng.standard_normal((100, 3))
        theta_true = np.array([1.0, -2.0, 0.5])
        design = DesignSet(f_values=psi @ theta_true, window=LagWindow(4), features=psi)
        res = solve_linear(design, "evm", ridge=0.0)
        assert res.objective_at_theta <= 1e-10
        np.testing.assert_allclose(res.theta, theta_true, atol=1e-7)

    def test_duplicated_column_reaches_ridged_fit_without_ridge(self):
        # at ridge 0 the normal matrix of a duplicated column is singular (or
        # singular up to rounding); either way the exact solve reaches the
        # ridged fit's criterion
        rng = np.random.default_rng(11)
        base = rng.standard_normal((80, 2))
        psi = np.column_stack([base, base[:, 0]])
        f = rng.standard_normal(80)
        design = DesignSet(f_values=f, window=LagWindow(3), features=psi)
        res = solve_linear(design, "evm", ridge=0.0)
        res_ridged = solve_linear(design, "evm", ridge=None)
        assert res.method == res_ridged.method == "linear_solve"
        assert res.converged and res_ridged.converged
        assert res.objective_at_theta == pytest.approx(res_ridged.objective_at_theta,
                                                       rel=1e-12)
        assert res.objective_at_theta < res.objective_at_zero

    def test_agrees_with_dense_normal_equations(self):
        # dense oracle: build A explicitly, solve (psi' A psi) t = psi' A f
        rng = np.random.default_rng(12)
        n, p, b_n = 128, 4, 6
        psi = rng.standard_normal((n, p))
        f = rng.standard_normal(n).cumsum() * 0.05 + rng.standard_normal(n)
        window = LagWindow(b_n)
        design = DesignSet(f_values=f, window=window, features=psi)
        a = weight_matrix_oracle(n, window)
        h = psi.T @ a @ psi
        assert np.all(np.linalg.eigvalsh(0.5 * (h + h.T)) > 1e-10)
        dense_theta = np.linalg.solve(h, psi.T @ a @ f)
        res = solve_linear(design, "esvm", ridge=0.0)
        np.testing.assert_allclose(res.theta, dense_theta, atol=1e-6)

    @pytest.mark.parametrize("p", [1, 2, 6, 72])
    @pytest.mark.parametrize("kind", ["esvm", "evm"])
    def test_normal_matrix_is_the_stacked_blocks_bit_for_bit(self, monkeypatch, p, kind):
        # the fit centers [f, Ψ] into one (p + 1, n) block; its Ŝ has the
        # bits of long_run_covariance on the stacked (n, p + 1) block, whose
        # column means numpy sums state by state (a lone column of Ψ it
        # would sum pairwise)
        import esvm.fitting as fitting
        from esvm.variance import long_run_covariance

        rng = np.random.default_rng(17 + p)
        n = 5_003
        f = 40.0 + rng.standard_normal(n).cumsum() * 0.1 + rng.standard_normal(n)
        psi = 3.0 + rng.standard_normal((n, p))
        design = DesignSet(f_values=f, window=LagWindow(30), features=psi)
        seen = []
        centered = fitting.centered_covariance

        def keeping(c, window):
            seen.append((window, centered(c, window)))
            return seen[-1][1]

        monkeypatch.setattr(fitting, "centered_covariance", keeping)
        solve_linear(design, kind)
        (window, got), = seen
        want = long_run_covariance(np.column_stack([f, psi]), window)
        assert got.tobytes() == want.tobytes()

    def test_scalar_quadratic_minimizer(self):
        # p = 1: the optimum has the closed form (psi' A f) / (psi' A psi)
        rng = np.random.default_rng(13)
        n = 96
        f = rng.standard_normal(n)
        psi = (f - f.mean() + 0.5 * rng.standard_normal(n))[:, None]
        window = LagWindow(5)
        a = weight_matrix_oracle(n, window)
        expect = float(psi[:, 0] @ a @ f) / float(psi[:, 0] @ a @ psi[:, 0])
        design = DesignSet(f_values=f, window=window, features=psi)
        res = solve_linear(design, "esvm", ridge=0.0)
        assert res.theta[0] == pytest.approx(expect, rel=1e-8)

    def test_negative_criterion_reported_unconverged(self):
        # a wide window over a short series with many features: the windowed
        # quadratic is indefinite and its stationary point has a negative
        # criterion. The point is kept but not reported as converged.
        rng = np.random.default_rng(6)
        n, p = 80, 10
        f = rng.standard_normal(n)
        psi = rng.standard_normal((n, p))
        design = DesignSet(f_values=f, window=LagWindow(60), features=psi)
        res = solve_linear(design, "esvm", ridge=0.0)
        assert res.method == "linear_solve"
        assert res.objective_at_theta < 0.0 < res.objective_at_zero
        assert not res.converged
        _, grad = esvm_objective(res.theta, design)
        assert np.max(np.abs(grad)) < 1e-10
        # here the stationary point raises the criterion: the quadratic has no
        # minimum, so the fit keeps zero parameters after its one solve
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            none = solve_linear(_random_design(n=180, p=5, b_n=8, seed=15), "esvm", ridge=0.0)
        assert none.method == "linear_solve" and none.iterations == 1
        np.testing.assert_array_equal(none.theta, np.zeros(5))
        assert none.objective_at_theta == none.objective_at_zero
        assert not none.converged
        minimum = solve_linear(_random_design(), "esvm", ridge=0.0)
        assert minimum.method == "linear_solve"
        assert minimum.objective_at_theta >= 0.0 and minimum.converged

    def test_evm_equals_ridge_regression_oracle(self):
        rng = np.random.default_rng(14)
        n, p = 150, 5
        psi = rng.standard_normal((n, p))
        f = rng.standard_normal(n)
        ridge = 1e-4
        design = DesignSet(f_values=f, window=LagWindow(2), features=psi)
        res = solve_linear(design, "evm", ridge=ridge)
        psi_c = psi - psi.mean(axis=0)
        f_c = f - f.mean()
        oracle = np.linalg.solve(psi_c.T @ psi_c / (n - 1) + ridge * np.eye(p),
                                 psi_c.T @ f_c / (n - 1))
        np.testing.assert_allclose(res.theta, oracle, atol=1e-10)


class TestQuasiNewton:
    def test_quadratic_converges_to_linear_solution(self):
        # a design whose windowed quadratic has a minimum, so the exact solve
        # is kept and the descent from zero is checked against it
        design = _random_design(n=180, p=5, b_n=8, seed=16)
        exact = solve_linear(design, "esvm", ridge=0.0)
        assert exact.method == "linear_solve"
        qn = fit_quasi_newton(lambda t: esvm_objective(t, design), np.zeros(5))
        assert qn.converged
        assert qn.iterations <= 50
        np.testing.assert_allclose(qn.theta, exact.theta, atol=1e-6)

    def test_unbounded_descent_is_unconverged(self):
        # the windowed quadratic of this design has a negative eigenvalue, so
        # the descent from zero runs without bound; a gradient test relative
        # to the current |f| called it converged at f of about -9e17
        design = _random_design(n=180, p=5, b_n=8, seed=15)
        with np.errstate(over="ignore", invalid="ignore"):
            qn = fit_quasi_newton(lambda t: esvm_objective(t, design), np.zeros(5))
        assert qn.objective_at_theta < 0.0
        assert not qn.converged

    def test_starting_at_optimum_stops_immediately(self):
        design = _random_design(n=180, p=5, b_n=8, seed=16)
        exact = solve_linear(design, "esvm", ridge=0.0)
        qn = fit_quasi_newton(lambda t: esvm_objective(t, design), exact.theta)
        assert qn.iterations <= 1
        np.testing.assert_allclose(qn.theta, exact.theta, atol=1e-6)

    def test_nonfinite_start_rejected(self):
        with pytest.raises(EsvmError):
            fit_quasi_newton(lambda t: (np.inf, t), np.zeros(2))

    def test_nonfinite_trials_shrink_step(self):
        # objective blows up away from a narrow well; the line search must
        # shrink through the non-finite region and still converge
        def objective(t):
            if np.any(np.abs(t) > 1.5):
                return np.inf, np.zeros_like(t)
            return float(t @ t), 2.0 * t

        res = fit_quasi_newton(objective, np.array([1.4, -1.4]))
        assert res.converged
        np.testing.assert_allclose(res.theta, 0.0, atol=1e-6)


class TestFitDispatch:
    def test_monotonicity_over_random_instances(self):
        rng = np.random.default_rng(17)
        for seed in range(8):
            design = _random_design(n=120, p=4, b_n=int(rng.integers(1, 20)), seed=seed)
            for method in ("esvm", "evm"):
                res = fit(design, SteinFamily("second_order", 1), method)
                slack = 1e-9 * abs(res.objective_at_zero)
                assert res.objective_at_theta <= res.objective_at_zero + slack

    def test_rbf_fit_runs_quasi_newton(self):
        design, fam = _random_design(n=150, p=8, b_n=6, seed=18, response=True)
        res = fit(design, fam, "esvm")
        assert res.method == "quasi_newton"
        assert res.objective_at_theta <= res.objective_at_zero

    def test_rbf_fit_with_negative_criterion_is_unconverged(self):
        # the windowed criterion is unbounded below on this design; the
        # quasi-Newton descent passes its relative gradient test at a
        # negative value well before the iteration cap
        design, fam = _random_design(n=80, p=2, b_n=30, seed=2, response=True)
        descent = fit_quasi_newton(lambda t: esvm_objective(t, design),
                                   design.response.initial_theta())
        assert descent.converged and descent.iterations < 500
        res = fit(design, fam, "esvm")
        assert res.objective_at_theta < 0.0
        assert not res.converged
        np.testing.assert_array_equal(res.theta, descent.theta)
        assert res.iterations == descent.iterations

    def test_fit_result_invariant_enforced(self):
        with pytest.raises(EsvmError):
            from esvm.fitting import FitResult

            FitResult(theta=np.zeros(1), objective_at_theta=2.0,
                      objective_at_zero=1.0, method="linear_solve",
                      iterations=1, converged=True)

    def test_family_design_mismatch(self):
        design = _random_design()
        with pytest.raises(ValueError):
            fit(design, SteinFamily("rbf", 1, 2), "esvm")
        with pytest.raises(ValueError):
            fit(design, SteinFamily("first_order", 2), "bogus")
