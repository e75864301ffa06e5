"""Markov kernels: single steps, full chains, determinism, acceptance."""

import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from esvm.chains import ROLE_NORMAL, ROLE_UNIFORM, SeedKey
from esvm.errors import NumericError
from esvm.samplers import (
    NOISE_BLOCK,
    AcceptanceStats,
    SamplerConfig,
    mala_log_acceptance,
    mala_step,
    rwm_log_acceptance,
    rwm_step,
    sample_chain,
    sample_chains,
    ula_step,
)
from esvm.targets import (
    TargetModel,
    banana_target,
    gmm_isolated_target,
    gmm_target,
    logistic_target,
    probit_target,
    synthetic_logistic_dataset,
)

KERNELS = [("ula", 0.1), ("mala", 1.0), ("rwm", 0.5)]


def _gmm_with_covariance(d, seed):
    """A mixture whose covariance is a seeded SPD matrix with eigenvalues
    >= 1, so ULA at the kernels' steps stays stable; with S != I the rows'
    products round, and a lone chain reproduces its batch only if every row
    is computed alike whatever the row count."""
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((d, d))
    return gmm_target(0.35, 0.5 * rng.standard_normal(d), m @ m.T / d + np.eye(d))


# Target and start point; the banana chains start on the ridge, x0 = (sqrt(p), 0).
LOCK_STEP_TARGETS = {
    "gmm": (gmm_target(0.5, np.array([0.5, 0.5]), np.eye(2)), None),
    "gmm_cov2": (_gmm_with_covariance(2, 91), None),
    "gmm_cov5": (_gmm_with_covariance(5, 92), None),
    "banana": (banana_target(100.0, 0.1, 2), (10.0, 0.0)),
}

# Per-stream lengths of a ragged batch, in stream order 0, 1, ..: one chain
# longer than the rest (as the harness's training chain), one that ends
# inside the first noise block and one that ends on a block boundary.
RAGGED_LENGTHS = [2 * NOISE_BLOCK + 500, NOISE_BLOCK + 300, 400, NOISE_BLOCK + 300,
                  NOISE_BLOCK + 1]


def _standard_gaussian(d):
    def value_and_grad(x):
        x = np.asarray(x, dtype=np.float64)
        return 0.5 * np.sum(x * x, axis=-1), x

    return TargetModel(
        dim=d,
        potential=lambda x: value_and_grad(x)[0],
        gradient=lambda x: np.asarray(x, dtype=np.float64),
        value_and_grad=value_and_grad,
        label=f"gauss{d}",
    )


def _box_gaussian(d, half_width, outside=np.inf, gradient_is_input=False):
    """Standard Gaussian cut to the box |x_i| <= half_width: the potential is
    `outside` (+inf, or -inf) beyond it, so a proposal that leaves the box
    has a log ratio of -inf (or +inf) and must be rejected. The gradient
    returns its input itself when gradient_is_input."""

    def potential(x):
        x = np.asarray(x, dtype=np.float64)
        inside = np.all(np.abs(x) <= half_width, axis=-1)
        return np.where(inside, 0.5 * np.add.reduce(x * x, axis=-1), outside)

    def gradient(x):
        x = np.asarray(x, dtype=np.float64)
        return x if gradient_is_input else x.copy()

    return TargetModel(
        dim=d,
        potential=potential,
        gradient=gradient,
        value_and_grad=lambda x: (potential(x), gradient(x)),
        label=f"box-gauss{d}",
    )


def _replay(kind, target, gamma, n_steps, x0, key):
    """One chain of a Metropolis kernel, step by step from the chain's own
    normal and uniform substreams: the reference the lock-step kernel must
    match bit for bit. Returns the states and the acceptance statistics."""
    normals = key.generator(ROLE_NORMAL)
    uniforms = key.generator(ROLE_UNIFORM)
    scale = np.sqrt(2.0 * gamma) if kind == "mala" else np.sqrt(gamma)
    x = np.array(x0, dtype=np.float64)
    if kind == "mala":
        u_x, g_x = target.value_and_grad(x)
    else:
        u_x = target.potential(x)
    states = [x]
    stats = AcceptanceStats(proposed=n_steps - 1)
    for _ in range(n_steps - 1):
        z = normals.standard_normal(x.size) * scale
        if kind == "mala":
            y = x - gamma * g_x + z
            u_y, g_y = target.value_and_grad(y)
            log_alpha = mala_log_acceptance(x, y, u_x, u_y, g_x, g_y, gamma)
        else:
            y = x + z
            u_y = target.potential(y)
            log_alpha = rwm_log_acceptance(u_x, u_y)
        log_u = np.log(uniforms.random())
        if not np.isfinite(log_alpha):
            stats.nonfinite_log_alpha += 1
        elif log_u < log_alpha:
            stats.accepted += 1
            x, u_x = y, u_y
            if kind == "mala":
                g_x = g_y
        states.append(x)
    return np.array(states), stats


class TestUlaStep:
    def test_pure_diffusion(self):
        out = ula_step(np.zeros(2), lambda x: np.zeros(2), 0.5, np.ones(2))
        np.testing.assert_allclose(out, [1.0, 1.0])

    def test_deterministic_drift(self):
        out = ula_step(np.array([2.0, 0.0]), lambda x: x, 0.1, np.zeros(2))
        np.testing.assert_allclose(out, [1.8, 0.0])

    def test_nonfinite_gradient_rejected(self):
        with pytest.raises(NumericError):
            ula_step(np.zeros(1), lambda x: np.array([np.inf]), 0.1, np.zeros(1))

    def test_stationary_variance_matches_recursion(self):
        # the Gaussian-target recursion is x' = (1 - g) x + sqrt(2g) z with
        # stationary variance 2 / (2 - g)
        gamma = 0.1
        target = _standard_gaussian(1)
        traj, _ = sample_chain(SamplerConfig("ula", gamma, 200_000, SeedKey(13, 0)), target)
        assert np.var(traj.states[:, 0]) == pytest.approx(2.0 / (2.0 - gamma), rel=0.02)


class _ZeroNoiseRng:
    """Generator stub: zero normals, fixed uniform."""

    def standard_normal(self, size):
        return np.zeros(size)

    def random(self):
        return 0.5


class TestMalaStep:
    def test_stationary_point_zero_noise_accepts(self):
        # at grad U = 0 with vanishing noise the proposal equals the state,
        # the symmetric ratio is exactly one, and the move is accepted
        target = _standard_gaussian(2)
        x = np.zeros(2)
        assert mala_log_acceptance(x, x, 0.0, 0.0, np.zeros(2), np.zeros(2), 0.5) == 0.0
        state, accepted = mala_step(x, target, 0.5, _ZeroNoiseRng())
        assert accepted
        np.testing.assert_array_equal(state, x)

    def test_acceptance_rate_band_on_gaussian(self):
        target = _standard_gaussian(1)
        _, stats = sample_chain(SamplerConfig("mala", 1.0, 100_000, SeedKey(21, 0)), target)
        assert 0.4 < stats.rate < 0.9

    def test_log_space_matches_direct_ratio(self):
        # whenever both are representable, exp(log alpha) equals the direct
        # density ratio within 1e-12
        target = _standard_gaussian(2)
        rng = np.random.default_rng(17)
        gamma = 0.3
        for _ in range(200):
            x = rng.standard_normal(2)
            z = rng.standard_normal(2)
            u_x, g_x = target.value_and_grad(x)
            y = x - gamma * g_x + np.sqrt(2 * gamma) * z
            u_y, g_y = target.value_and_grad(y)
            log_alpha = mala_log_acceptance(x, y, u_x, u_y, g_x, g_y, gamma)
            q_xy = np.exp(-np.sum((y - x + gamma * g_x) ** 2) / (4 * gamma))
            q_yx = np.exp(-np.sum((x - y + gamma * g_y) ** 2) / (4 * gamma))
            direct = (np.exp(-u_y) * q_yx) / (np.exp(-u_x) * q_xy)
            assert np.exp(log_alpha) == pytest.approx(direct, rel=1e-12)

    def test_returned_state_is_proposal_iff_accepted(self):
        target = gmm_target(0.5, np.array([0.5, 0.5]), np.eye(2))
        rng = np.random.default_rng(3)
        x = np.array([0.3, -0.2])
        for _ in range(50):
            probe = np.random.default_rng(rng.integers(1 << 31))
            state, accepted = mala_step(x, target, 0.8, probe)
            if accepted:
                assert not np.array_equal(state, x)
            else:
                np.testing.assert_array_equal(state, x)


class TestRwmStep:
    def test_equal_potential_accepts(self):
        class Flat:
            dim = 1
            def potential(self, x):
                return 0.0
        state, accepted = rwm_step(np.zeros(1), Flat(), 1.0, np.random.default_rng(0))
        assert accepted

    def test_exact_half_ratio(self):
        # U(y) = U(x) + log 2 gives acceptance probability exactly 1/2
        from esvm.samplers import rwm_log_acceptance

        log_alpha = rwm_log_acceptance(1.0, 1.0 + np.log(2.0))
        assert np.exp(log_alpha) == pytest.approx(0.5, rel=1e-15)
        rng = np.random.default_rng(11)
        draws = rng.random(200_000)
        accept = np.sum(np.log(draws) < log_alpha)
        assert accept / draws.size == pytest.approx(0.5, abs=0.005)

    def test_acceptance_counts_consistent(self):
        target = _standard_gaussian(2)
        traj, stats = sample_chain(SamplerConfig("rwm", 0.5, 20_000, SeedKey(5, 0)), target)
        assert stats.proposed == 19_999
        assert 0 < stats.accepted < stats.proposed
        moved = np.any(np.diff(traj.states, axis=0) != 0, axis=1)
        assert int(moved.sum()) == stats.accepted


class TestSampleChain:
    def test_single_step_chain_is_x0(self):
        target = _standard_gaussian(2)
        x0 = np.array([1.0, -2.0])
        traj, stats = sample_chain(SamplerConfig("mala", 0.5, 1, SeedKey(0, 0)), target, x0)
        np.testing.assert_array_equal(traj.states, [x0])
        assert stats == AcceptanceStats(0, 0, 0)

    def test_bit_identical_reruns(self):
        target = gmm_target(0.5, np.array([0.5, 0.5]), np.eye(2))
        for kind, gamma in [("ula", 0.1), ("mala", 1.0), ("rwm", 0.5)]:
            cfg = SamplerConfig(kind, gamma, 2_000, SeedKey(99, 3))
            a, _ = sample_chain(cfg, target)
            b, _ = sample_chain(cfg, target)
            np.testing.assert_array_equal(a.states, b.states)

    def test_ula_matches_explicit_recursion(self):
        # same noise stream, same update order: identical to machine precision
        gamma = 0.1
        target = _standard_gaussian(2)
        traj, _ = sample_chain(SamplerConfig("ula", gamma, 500, SeedKey(7, 0)), target)
        noise = SeedKey(7, 0).generator(ROLE_NORMAL).standard_normal((499, 2))
        x = np.zeros(2)
        ref = [x.copy()]
        for k in range(499):
            x = x - gamma * x + np.sqrt(2 * gamma) * noise[k]
            ref.append(x.copy())
        np.testing.assert_array_equal(traj.states, np.asarray(ref))

    @pytest.mark.parametrize("n_burn", [0, 1500])
    def test_diverging_ula_chain_raises(self, n_burn):
        # gamma = 3 doubles |x| every step on the standard Gaussian, so the
        # chain overflows inside the first noise block
        cfg = SamplerConfig("ula", 3.0, 2000, SeedKey(4, 0), n_burn=n_burn)
        with pytest.raises(NumericError, match="within steps 0..1024"):
            sample_chains(cfg, _standard_gaussian(2), [1, 2], x0=np.array([1e300, 0.0]))

    def test_ula_accepts_everything(self):
        target = _standard_gaussian(1)
        _, stats = sample_chain(SamplerConfig("ula", 0.2, 100, SeedKey(1, 0)), target)
        assert stats.accepted == stats.proposed == 99

    def test_rejections_do_not_shift_the_noise_stream(self):
        # chains that reject at different steps still consume identical
        # per-step draws: state k+1 of an accepted move is always built from
        # normals row k of the chain's own stream
        target = gmm_target(0.5, np.array([3.0, 3.0]), np.eye(2))
        cfg = SamplerConfig("rwm", 4.0, 400, SeedKey(31, 6))
        traj, stats = sample_chain(cfg, target)
        assert 0 < stats.accepted < stats.proposed
        noise = np.sqrt(cfg.gamma) * SeedKey(31, 6).generator(ROLE_NORMAL).standard_normal((399, 2))
        uniforms = SeedKey(31, 6).generator(ROLE_UNIFORM).random(399)
        x = np.zeros(2)
        for k in range(399):
            prop = x + noise[k]
            log_alpha = target.potential(x[None])[0] - target.potential(prop[None])[0]
            if np.log(uniforms[k]) < log_alpha:
                x = prop
            np.testing.assert_array_equal(traj.states[k + 1], x)

    def test_batched_equals_sequential(self):
        # the longer chains cross a noise-block boundary
        for target, x0 in LOCK_STEP_TARGETS.values():
            for (kind, gamma), n_steps in itertools.product(KERNELS, [300, NOISE_BLOCK + 300]):
                cfg = SamplerConfig(kind, gamma, n_steps, SeedKey(42, 0))
                batch = sample_chains(cfg, target, streams=[1, 2, 5], x0=x0)
                for (traj, stats), stream in zip(batch, [1, 2, 5]):
                    solo, solo_stats = sample_chain(
                        SamplerConfig(kind, gamma, n_steps, SeedKey(42, stream)), target, x0
                    )
                    np.testing.assert_array_equal(traj.states, solo.states)
                    assert stats == solo_stats

    @pytest.mark.parametrize("kind, gamma", [("mala", 1.0), ("rwm", 1.5)])
    @pytest.mark.parametrize("outside", [np.inf, -np.inf])
    def test_kernel_matches_step_by_step_replay(self, kind, gamma, outside):
        # the chains cross a noise-block boundary, reject proposals inside
        # the box and proposals outside it (non-finite log ratio)
        target = _box_gaussian(2, 2.0, outside)
        n_steps, x0, streams = NOISE_BLOCK + 300, np.array([0.5, -1.5]), [1, 2, 5]
        cfg = SamplerConfig(kind, gamma, n_steps, SeedKey(61, 0))
        for (traj, stats), stream in zip(sample_chains(cfg, target, streams, x0), streams):
            states, ref_stats = _replay(kind, target, gamma, n_steps, x0, SeedKey(61, stream))
            np.testing.assert_array_equal(traj.states, states)
            assert stats == ref_stats
            assert 0 < stats.nonfinite_log_alpha
            assert 0 < stats.accepted < stats.proposed - stats.nonfinite_log_alpha

    def test_gradient_returning_its_input_gives_the_same_chain(self):
        # the kernel evaluates the target on a slot it overwrites afterwards
        cfg = SamplerConfig("mala", 1.0, NOISE_BLOCK + 300, SeedKey(62, 0))
        x0 = np.array([0.5, -1.5])
        runs = [sample_chains(cfg, _box_gaussian(2, 2.0, gradient_is_input=view), [1, 2, 5], x0)
                for view in (False, True)]
        for (a, a_stats), (b, b_stats) in zip(*runs):
            np.testing.assert_array_equal(a.states, b.states)
            assert a_stats == b_stats

    @pytest.mark.parametrize("name", sorted(LOCK_STEP_TARGETS))
    @pytest.mark.parametrize("kind, gamma", KERNELS)
    @pytest.mark.parametrize("n_burn", [700, 1500, 2599])
    def test_burn_in_keeps_the_suffix(self, name, kind, gamma, n_burn):
        # 2600 steps cross three noise blocks; the burn-in ends inside the
        # first block, inside the second after filling the first, or at the
        # last state
        target, x0 = LOCK_STEP_TARGETS[name]
        full, full_stats = sample_chain(
            SamplerConfig(kind, gamma, 2600, SeedKey(8, 3)), target, x0)
        kept, kept_stats = sample_chain(
            SamplerConfig(kind, gamma, 2600, SeedKey(8, 3), n_burn=n_burn), target, x0)
        np.testing.assert_array_equal(kept.states, full.states[n_burn:])
        assert kept_stats == full_stats
        assert kept_stats.proposed == 2599
        assert kept.meta.burn_in_removed and not full.meta.burn_in_removed

    def test_kept_states_held_once(self):
        # the trajectories are read-only views of one chain-major array; the
        # burn-in and the noise live only in buffers of one block of steps
        cfg = SamplerConfig("ula", 0.1, 21_000, SeedKey(9, 0), n_burn=1000)
        tracemalloc.start()
        try:
            batch = sample_chains(cfg, _standard_gaussian(2), list(range(1, 41)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept_bytes = 40 * 20_000 * 2 * 8
        assert peak < 1.5 * kept_bytes
        for traj, _ in batch:
            assert traj.states.shape == (20_000, 2)
            assert traj.states.flags.c_contiguous and not traj.states.flags.writeable

    @pytest.mark.parametrize("name", ["banana", "gmm", "gmm_cov5", "gmm_isolated"])
    @pytest.mark.parametrize("kind, gamma", KERNELS)
    @pytest.mark.parametrize("n_burn", [0, 250])
    def test_ragged_batch_equals_sequential(self, name, kind, gamma, n_burn):
        targets = {**LOCK_STEP_TARGETS,
                   "gmm_isolated": (gmm_isolated_target(0.4, -3.0, 1.0, 4.0, 0.5), None)}
        target, x0 = targets[name]
        cfg = SamplerConfig(kind, gamma, NOISE_BLOCK + 300, SeedKey(43, 0), n_burn=n_burn)
        streams = list(range(len(RAGGED_LENGTHS)))
        batch = sample_chains(cfg, target, streams, x0, n_steps=RAGGED_LENGTHS)
        for (traj, stats), stream, n in zip(batch, streams, RAGGED_LENGTHS):
            solo, solo_stats = sample_chain(
                replace(cfg, n_steps=n, seed=SeedKey(43, stream)), target, x0)
            np.testing.assert_array_equal(traj.states, solo.states)
            assert stats == solo_stats
            assert stats.proposed == n - 1 and len(traj) == n - n_burn
            assert traj.meta.seed_stream == stream
            assert traj.states.flags.c_contiguous and not traj.states.flags.writeable

    @pytest.mark.parametrize("make", [logistic_target, probit_target])
    def test_ragged_regression_batch_close_to_sequential(self, make):
        # rows go through a matrix-matrix product while two or more chains
        # run and a matrix-vector product for a chain alone
        target = make(synthetic_logistic_dataset(), 100.0)
        cfg = SamplerConfig("ula", 0.1, NOISE_BLOCK + 300, SeedKey(44, 0), n_burn=100)
        streams = list(range(len(RAGGED_LENGTHS)))
        batch = sample_chains(cfg, target, streams, n_steps=RAGGED_LENGTHS)
        for (traj, _), stream, n in zip(batch, streams, RAGGED_LENGTHS):
            solo, _ = sample_chain(replace(cfg, n_steps=n, seed=SeedKey(44, stream)), target)
            scale = np.max(np.abs(solo.states))
            np.testing.assert_allclose(traj.states, solo.states, rtol=0, atol=1e-13 * scale)

    def test_ragged_lengths_validated(self):
        cfg = SamplerConfig("ula", 0.1, 100, SeedKey(46, 0), n_burn=10)
        target = _standard_gaussian(2)
        with pytest.raises(ValueError, match="one state count per stream"):
            sample_chains(cfg, target, [1, 2], n_steps=[100])
        with pytest.raises(ValueError, match="keep a state after the burn-in"):
            sample_chains(cfg, target, [1, 2], n_steps=[100, 10])

    def test_logistic_trajectories_do_not_depend_on_batch_size(self):
        # the posterior's row products go through a matrix-matrix product for
        # every batch of two or more chains; a lone chain is not compared
        target = logistic_target(synthetic_logistic_dataset(), 100.0)
        cfg = SamplerConfig("ula", 0.1, 300, SeedKey(77, 0))
        streams = [1, 2, 3, 4, 5, 6]
        runs = {}
        for size in (2, 3, 6):
            runs[size] = [
                traj.states
                for i in range(0, len(streams), size)
                for traj, _ in sample_chains(cfg, target, streams[i : i + size])
            ]
        for size in (3, 6):
            for a, b in zip(runs[2], runs[size]):
                np.testing.assert_array_equal(a, b)

    def test_mala_mean_within_spectral_standard_errors(self):
        from esvm.variance import LagWindow, default_truncation, spectral_variance

        target = _standard_gaussian(2)
        n = 1_000_000
        traj, _ = sample_chain(SamplerConfig("mala", 1.0, n, SeedKey(2, 0)), target)
        for coord in range(2):
            series = traj.states[:, coord]
            sv = spectral_variance(series, LagWindow(default_truncation(n))).value
            se = np.sqrt(max(sv, 1e-300) / n)
            assert abs(series.mean()) < 4 * se

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SamplerConfig("hmc", 0.1, 10, SeedKey(0, 0))
        with pytest.raises(ValueError):
            SamplerConfig("ula", -0.1, 10, SeedKey(0, 0))
        with pytest.raises(ValueError):
            SamplerConfig("ula", 0.1, 0, SeedKey(0, 0))
        with pytest.raises(ValueError):
            SamplerConfig("ula", 0.1, 10, SeedKey(0, 0), n_burn=-1)
        with pytest.raises(ValueError):
            SamplerConfig("ula", 0.1, 10, SeedKey(0, 0), n_burn=10)
        SamplerConfig("ula", 0.1, 10, SeedKey(0, 0), n_burn=9)
