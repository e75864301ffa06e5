"""Windowed long-run variance estimation: kernels, autocovariances, the
windowed long-run covariance matrix, the quadratic-form equivalence, and the
operator-norm bound."""

import numpy as np
import pytest

from esvm.variance import (
    LagWindow,
    autocovariances,
    default_truncation,
    empirical_variance,
    long_run_covariance,
    power_iteration_norm,
    quadratic_form_apply,
    sample_autocovariance,
    spectral_variance,
    trapezoid_kernel,
    weight_matrix_oracle,
)


class TestTrapezoidKernel:
    def test_pinned_values(self):
        assert trapezoid_kernel(0.0) == 1.0
        assert trapezoid_kernel(1.0) == 0.0
        assert trapezoid_kernel(-1.0) == 0.0
        assert trapezoid_kernel(0.75) == 0.5
        assert trapezoid_kernel(-0.75) == 0.5

    def test_plateau(self):
        grid = np.linspace(-0.5, 0.5, 21)
        np.testing.assert_array_equal(trapezoid_kernel(grid), np.ones(21))

    def test_outside_support_rejected(self):
        with pytest.raises(ValueError):
            trapezoid_kernel(1.5)

    def test_even_and_bounded(self):
        grid = np.linspace(-1, 1, 101)
        vals = trapezoid_kernel(grid)
        np.testing.assert_allclose(vals, vals[::-1], atol=0)
        assert np.all(vals >= 0) and np.all(vals <= 1)


class TestLagWindow:
    def test_rejects_bad_kernels(self):
        # the window is always the trapezoid: no other kernel is accepted
        with pytest.raises(TypeError):
            LagWindow(5, kernel=lambda u: np.abs(np.asarray(u)))
        with pytest.raises(ValueError):
            LagWindow(0)

    def test_weights_are_kernel_at_scaled_lags(self):
        np.testing.assert_array_equal(LagWindow(4).weights(), [1.0, 1.0, 1.0, 0.5])
        for b in range(1, 401):
            np.testing.assert_array_equal(LagWindow(b).weights(),
                                          trapezoid_kernel(np.arange(b) / b))


class TestSampleAutocovariance:
    def test_constant_series_vanishes(self):
        s = np.full(17, 3.25)
        for lag in (0, 1, 5, 16):
            assert sample_autocovariance(s, lag) == 0.0

    def test_hand_evaluated_small_series(self):
        # series [1,2,3]: centered (-1,0,1); divisor is n=3 at every lag
        s = np.array([1.0, 2.0, 3.0])
        assert sample_autocovariance(s, 0) == pytest.approx(2.0 / 3.0, rel=1e-15)
        assert sample_autocovariance(s, 1) == pytest.approx(0.0, abs=1e-15)
        assert sample_autocovariance(s, 2) == pytest.approx(-1.0 / 3.0, rel=1e-15)

    def test_iid_monte_carlo(self):
        rng = np.random.default_rng(42)
        s = rng.standard_normal(1_000_000)
        assert sample_autocovariance(s, 0) == pytest.approx(1.0, rel=0.01)
        assert abs(sample_autocovariance(s, 5)) < 0.01

    def test_lag_bounds(self):
        s = np.arange(4.0)
        with pytest.raises(ValueError):
            sample_autocovariance(s, 4)
        with pytest.raises(ValueError):
            sample_autocovariance(s, -1)

    def test_lag_zero_relates_to_unbiased_variance(self):
        rng = np.random.default_rng(3)
        s = rng.standard_normal(257)
        n = s.size
        assert sample_autocovariance(s, 0) == pytest.approx(
            (n - 1) / n * empirical_variance(s), rel=1e-12
        )


class TestSpectralVariance:
    def test_constant_series(self):
        assert spectral_variance(np.full(50, 2.0), LagWindow(5)).value == 0.0

    def test_single_lag_equals_lag_zero_autocovariance(self):
        s = np.array([1.0, 2.0, 3.0])
        assert spectral_variance(s, LagWindow(1)).value == pytest.approx(2.0 / 3.0, rel=1e-15)

    def test_truncation_exceeding_n_rejected(self):
        with pytest.raises(ValueError, match="truncation exceeds sample size"):
            spectral_variance(np.arange(5.0), LagWindow(6))

    def test_ar1_analytic_value(self):
        # AR(1) with unit innovations: long-run variance of the identity is
        # (1 / (1 - a^2)) * (1 + a) / (1 - a) = 4 at a = 0.5.
        from esvm.targets import ar1_reference

        traj, exact = ar1_reference(0.5, 100_000, 11)
        assert exact == pytest.approx(4.0, rel=1e-12)
        b_n = int(np.ceil(2 * np.log(100_000) / np.log(2.0)))
        est = spectral_variance(traj.states[:, 0], LagWindow(b_n)).value
        assert est == pytest.approx(exact, rel=0.10)

    def test_shift_invariance(self):
        rng = np.random.default_rng(9)
        s = rng.standard_normal(400)
        w = LagWindow(17)
        a = spectral_variance(s, w).value
        b = spectral_variance(s + 123.456, w).value
        assert b == pytest.approx(a, rel=1e-12)

    def test_quadratic_scaling(self):
        rng = np.random.default_rng(10)
        s = rng.standard_normal(300)
        w = LagWindow(9)
        base = spectral_variance(s, w).value
        assert spectral_variance(3.0 * s, w).value == pytest.approx(9.0 * base, rel=1e-13)

    def test_clamped_reporting_value(self):
        # alternating series makes the windowed sum negative; the raw value
        # is preserved and only `clamped` is floored at zero
        s = np.tile([1.0, -1.0], 50)
        sv = spectral_variance(s, LagWindow(2))
        assert sv.value < 0
        assert sv.clamped == 0.0


class TestStackedSeries:
    def test_autocovariances_match_per_lag_definition(self):
        rng = np.random.default_rng(12)
        for n, n_lags in [(1, 1), (2, 2), (37, 37), (300, 17), (1000, 1)]:
            s = rng.standard_normal(n).cumsum() + 5.0
            acov = autocovariances(s, n_lags)
            ref = [sample_autocovariance(s, lag) for lag in range(n_lags)]
            np.testing.assert_allclose(acov, ref, rtol=0, atol=1e-13 * abs(ref[0]))

    def test_autocovariances_reject_lag_count(self):
        with pytest.raises(ValueError):
            autocovariances(np.arange(5.0), 6)
        with pytest.raises(ValueError):
            autocovariances(np.arange(5.0), 0)

    def test_stack_equals_its_rows_and_the_dense_oracle(self):
        rng = np.random.default_rng(13)
        for k, n, b_n in [(1, 50, 7), (2, 300, 40), (4, 512, 128), (5, 257, 257), (3, 64, 1)]:
            z = rng.standard_normal((k, n)).cumsum(axis=1) * rng.uniform(0.5, 3.0, (k, 1))
            w = LagWindow(b_n)
            stacked = spectral_variance(z, w)
            assert stacked.value.shape == (k,) and (stacked.b_n, stacked.n) == (b_n, n)
            for row, value in zip(z, stacked.value):
                alone = spectral_variance(row, w).value
                assert isinstance(alone, float) and alone == value
                dense = float(row @ weight_matrix_oracle(n, w) @ row)
                assert abs(value - dense) <= 1e-12 * abs(dense)

    def test_stack_of_rows_is_clamped_per_row(self):
        z = np.stack([np.tile([1.0, -1.0], 50), np.arange(100.0)])
        sv = spectral_variance(z, LagWindow(2))
        assert sv.value[0] < 0 < sv.value[1]
        np.testing.assert_array_equal(sv.clamped, [0.0, sv.value[1]])


class TestLongRunCovariance:
    @pytest.mark.parametrize("n,k,b_n", [(40, 3, 1), (64, 2, 64), (300, 4, 32),
                                         (300, 4, 33), (257, 5, 100), (512, 3, 512)])
    def test_matches_dense_oracle(self, n, k, b_n):
        # b_n = 32 is the widest band (63 weights) convolved directly, 33 the
        # narrowest convolved by FFT
        rng = np.random.default_rng(n + k + b_n)
        z = rng.standard_normal((n, k)).cumsum(axis=0) + rng.uniform(-50, 50, k)
        w = LagWindow(b_n)
        cov = long_run_covariance(z, w)
        dense = z.T @ weight_matrix_oracle(n, w) @ z
        assert cov.shape == (k, k)
        np.testing.assert_array_equal(cov, cov.T)
        assert np.max(np.abs(cov - dense)) <= 1e-12 * np.max(np.abs(dense))

    @pytest.mark.parametrize("n,b_n", [(500, 1), (500, 20), (2000, 300), (80, 80)])
    def test_diagonal_is_spectral_variance(self, n, b_n):
        rng = np.random.default_rng(b_n)
        z = rng.standard_normal((n, 3)).cumsum(axis=0) * [1.0, 10.0, 0.1] + 7.0
        w = LagWindow(b_n)
        diag = np.diag(long_run_covariance(z, w))
        sv = spectral_variance(z.T, w).value
        np.testing.assert_allclose(diag, sv, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("b_n", [20, 300])
    def test_column_blocks_match_polarization(self, b_n):
        # at this length W is applied to a few columns at a time; each entry
        # must still be (V(z_i + z_j) - V(z_i - z_j)) / 4 of the diagonal route
        rng = np.random.default_rng(b_n)
        z = rng.standard_normal((40_000, 5)).cumsum(axis=0) * 0.01 + rng.uniform(-5, 5, 5)
        w = LagWindow(b_n)
        cov = long_run_covariance(z, w)
        plus = spectral_variance((z[:, :, None] + z[:, None, :]).reshape(40_000, -1).T, w)
        minus = spectral_variance((z[:, :, None] - z[:, None, :]).reshape(40_000, -1).T, w)
        polar = (plus.value - minus.value).reshape(5, 5) / 4.0
        assert np.max(np.abs(cov - polar)) <= 1e-12 * np.max(np.abs(cov))

    def test_one_lag_is_sample_covariance(self):
        rng = np.random.default_rng(17)
        n = 250
        z = rng.standard_normal((n, 4)) @ rng.standard_normal((4, 4)) + 3.0
        cov = long_run_covariance(z, LagWindow(1)) * (n / (n - 1))
        np.testing.assert_allclose(cov, np.cov(z, rowvar=False), rtol=1e-13, atol=0)

    def test_rejects_bad_blocks(self):
        with pytest.raises(ValueError, match="truncation exceeds sample size"):
            long_run_covariance(np.zeros((5, 2)), LagWindow(6))
        with pytest.raises(ValueError):
            long_run_covariance(np.zeros(5), LagWindow(1))


class TestEmpiricalVariance:
    def test_hand_values(self):
        assert empirical_variance(np.array([1.0, 2.0, 3.0])) == pytest.approx(1.0, rel=1e-15)
        assert empirical_variance(np.full(10, 7.0)) == 0.0

    def test_monte_carlo(self):
        rng = np.random.default_rng(8)
        s = 2.0 * rng.standard_normal(1_000_000)
        assert empirical_variance(s) == pytest.approx(4.0, rel=0.02)

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            empirical_variance(np.array([1.0]))


class TestWeightMatrixOracle:
    def test_two_by_two_hand_value(self):
        # b_n = 1 keeps only the main diagonal: A = P I P / 2 = P / 2
        a = weight_matrix_oracle(2, LagWindow(1))
        np.testing.assert_allclose(a, [[0.25, -0.25], [-0.25, 0.25]], atol=1e-15)

    def test_annihilates_constants(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            n = int(rng.integers(2, 64))
            b_n = int(rng.integers(1, n + 1))
            a = weight_matrix_oracle(n, LagWindow(b_n))
            np.testing.assert_allclose(a @ np.ones(n), 0.0, atol=1e-12)

    def test_size_guard(self):
        with pytest.raises(ValueError):
            weight_matrix_oracle(513, LagWindow(3))

    def test_operator_norm_bound(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(4, 128))
            b_n = int(rng.integers(1, n + 1))
            a = weight_matrix_oracle(n, LagWindow(b_n))
            assert power_iteration_norm(a) <= 2.0 * b_n / n + 1e-8


class TestQuadraticFormEquivalence:
    def test_matches_dense_oracle_and_windowed_sum(self):
        rng = np.random.default_rng(123)
        for _ in range(30):
            n = int(rng.integers(2, 256))
            b_n = int(rng.integers(1, n + 1))
            z = rng.standard_normal(n) * rng.uniform(0.5, 3.0)
            w = LagWindow(b_n)
            dense = float(z @ weight_matrix_oracle(n, w) @ z)
            sv = spectral_variance(z, w).value
            qf = quadratic_form_apply(z, w)
            scale = max(abs(dense), abs(sv), abs(qf))
            assert abs(sv - dense) <= 1e-10 * scale
            assert abs(qf - sv) <= 1e-10 * scale

    def test_constant_vector_is_zero(self):
        assert quadratic_form_apply(np.full(32, 5.0), LagWindow(4)) == pytest.approx(0.0, abs=1e-12)

    def test_basis_vector_reads_oracle_entry(self):
        w = LagWindow(1)
        e0 = np.zeros(4)
        e0[0] = 1.0
        a = weight_matrix_oracle(4, w)
        assert quadratic_form_apply(e0, w) == pytest.approx(a[0, 0], rel=1e-12)


class TestDefaultTruncation:
    def test_cube_root_rule(self):
        assert default_truncation(1000) == 10
        assert default_truncation(8) == 2
        assert default_truncation(100_000) == 47
        assert default_truncation(1_000_000) == 100
        assert default_truncation(1) == 1
