"""Markov kernels: single steps, full chains, determinism, acceptance."""

import itertools
import tracemalloc
from dataclasses import dataclass, field, replace

import numpy as np
import pytest

from esvm.chains import ROLE_NORMAL, ROLE_UNIFORM, SeedKey
from esvm.errors import NumericError
from esvm.samplers import (
    NOISE_BLOCK,
    AcceptanceStats,
    SamplerConfig,
    _squared_distance,
    sample_chain,
    sample_chains,
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


# Target and start point; the banana chains start on the ridge, x1 = sqrt(p).
LOCK_STEP_TARGETS = {
    "gmm": (gmm_target(0.5, np.array([0.5, 0.5]), np.eye(2)), None),
    "gmm_cov2": (_gmm_with_covariance(2, 91), None),
    "gmm_cov5": (_gmm_with_covariance(5, 92), None),
    "banana": (banana_target(100.0, 0.1, 2), (10.0, 0.0)),
    "banana_d4": (banana_target(100.0, 0.1, 4), (10.0, 0.0, 0.0, 0.0)),
}

# Per-stream lengths of a ragged batch, in stream order 0, 1, ..: one chain
# longer than the rest (as the harness's training chain), one that ends
# inside the first noise block and one that ends on a block boundary.
RAGGED_LENGTHS = [2 * NOISE_BLOCK + 500, NOISE_BLOCK + 300, 400, NOISE_BLOCK + 300,
                  NOISE_BLOCK + 1]


class _CountingGenerator:
    """A generator that records the number of steps of each draw."""

    def __init__(self, gen, draws):
        self._gen, self._draws = gen, draws

    def standard_normal(self, size):
        self._draws.append(size[0])
        return self._gen.standard_normal(size)

    def random(self, size):
        self._draws.append(size)
        return self._gen.random(size)


@dataclass(frozen=True)
class _CountingKey(SeedKey):
    """A SeedKey whose streams' generators record their draws in one shared
    dict, keyed by (stream, role)."""

    draws: dict = field(default_factory=dict, compare=False)

    def with_stream(self, stream):
        return _CountingKey(self.master, stream, self.draws)

    def generator(self, role=ROLE_NORMAL):
        draws = self.draws.setdefault((self.stream, role), [])
        return _CountingGenerator(super().generator(role), draws)


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


def _flat(d):
    """U = 0 and grad U = 0 everywhere: every Metropolis ratio is one."""
    return TargetModel(
        dim=d,
        potential=lambda x: np.zeros(np.shape(x)[:-1]),
        gradient=lambda x: np.zeros(np.shape(x)),
        value_and_grad=lambda x: (np.zeros(np.shape(x)[:-1]), np.zeros(np.shape(x))),
        label=f"flat{d}",
    )


def mala_log_acceptance(x, y, u_x, u_y, g_x, g_y, gamma):
    """Log Metropolis ratio for the Langevin proposal, vectorized over
    leading axes, in its textbook form: the oracle for the kernel, which
    forms the same ratio from the proposal's noise and drift. The Gaussian
    proposal normalizers cancel."""
    fwd = np.add.reduce((y - x + gamma * g_x) ** 2, axis=-1)
    bwd = np.add.reduce((x - y + gamma * g_y) ** 2, axis=-1)
    return u_x - u_y + (fwd - bwd) / (4.0 * gamma)


def _noise_and_log_u(key, gamma, kind, n, d):
    """A chain's scaled proposal noise and log-uniforms for n steps."""
    scale = np.sqrt(2.0 * gamma) if kind != "rwm" else np.sqrt(gamma)
    noise = key.generator(ROLE_NORMAL).standard_normal((n, d)) * scale
    return noise, np.log(key.generator(ROLE_UNIFORM).random(n))


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
            log_alpha = u_x - u_y
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
        # with grad U = 0 each state is the last plus the scaled noise
        cfg = SamplerConfig("ula", 0.5, 300, SeedKey(12, 0))
        traj, _ = sample_chain(cfg, _flat(2))
        noise, _ = _noise_and_log_u(cfg.seed, cfg.gamma, "ula", 299, 2)
        np.testing.assert_array_equal(traj.states[1:], traj.states[:-1] + noise)
        np.testing.assert_array_equal(traj.states[1:], np.cumsum(noise, axis=0))

    def test_deterministic_drift(self):
        # on U = |x|^2 / 2 the drift of x = (2, 0) is (1 - gamma) x = (1.8, 0)
        cfg = SamplerConfig("ula", 0.1, 2, SeedKey(12, 1))
        traj, _ = sample_chain(cfg, _standard_gaussian(2), np.array([2.0, 0.0]))
        noise, _ = _noise_and_log_u(cfg.seed, cfg.gamma, "ula", 1, 2)
        np.testing.assert_allclose(traj.states[1] - noise[0], [1.8, 0.0], rtol=0, atol=1e-15)

    def test_nonfinite_gradient_rejected(self):
        target = replace(_standard_gaussian(1), gradient=lambda x: np.full(np.shape(x), np.inf))
        with pytest.raises(NumericError):
            sample_chain(SamplerConfig("ula", 0.1, 10, SeedKey(12, 2)), target)

    def test_stationary_variance_matches_recursion(self):
        # the Gaussian-target recursion is x' = (1 - g) x + sqrt(2g) z with
        # stationary variance 2 / (2 - g)
        gamma = 0.1
        target = _standard_gaussian(1)
        traj, _ = sample_chain(SamplerConfig("ula", gamma, 200_000, SeedKey(13, 0)), target)
        assert np.var(traj.states[:, 0]) == pytest.approx(2.0 / (2.0 - gamma), rel=0.02)


class TestMalaStep:
    def test_stationary_point_zero_noise_accepts(self):
        # at grad U = 0 from x = 0 the backward move is the forward one
        # mirrored, the ratio is exactly one, and the move is accepted, by a
        # lone chain and in a batch alike
        target = _flat(1)
        x = np.zeros(1)
        assert mala_log_acceptance(x, x, 0.0, 0.0, np.zeros(1), np.zeros(1), 0.5) == 0.0
        cfg = SamplerConfig("mala", 0.5, 2, SeedKey(20, 0))
        for streams in ([0], list(range(50))):
            for (traj, stats), stream in zip(sample_chains(cfg, target, streams, x), streams):
                noise, _ = _noise_and_log_u(cfg.seed.with_stream(stream), 0.5, "mala", 1, 1)
                assert stats == AcceptanceStats(1, 1, 0)
                np.testing.assert_array_equal(traj.states[1], noise[0])

    def test_acceptance_rate_band_on_gaussian(self):
        target = _standard_gaussian(1)
        _, stats = sample_chain(SamplerConfig("mala", 1.0, 100_000, SeedKey(21, 0)), target)
        assert 0.4 < stats.rate < 0.9

    def test_log_space_matches_direct_ratio(self):
        # the kernel takes a proposal exactly when the uniform falls below the
        # density ratio formed directly, and the oracle's log ratio
        # exponentiates to that ratio
        target = _standard_gaussian(2)
        gamma = 0.3
        cfg = SamplerConfig("mala", gamma, 300, SeedKey(17, 0))
        traj, stats = sample_chain(cfg, target)
        noise, log_u = _noise_and_log_u(cfg.seed, gamma, "mala", 299, 2)
        taken = 0
        for k, (x, nxt) in enumerate(zip(traj.states[:-1], traj.states[1:])):
            u_x, g_x = target.value_and_grad(x)
            y = noise[k] + (x - gamma * g_x)
            u_y, g_y = target.value_and_grad(y)
            q_xy = np.exp(-np.sum((y - x + gamma * g_x) ** 2) / (4 * gamma))
            q_yx = np.exp(-np.sum((x - y + gamma * g_y) ** 2) / (4 * gamma))
            direct = (np.exp(-u_y) * q_yx) / (np.exp(-u_x) * q_xy)
            log_alpha = mala_log_acceptance(x, y, u_x, u_y, g_x, g_y, gamma)
            assert np.exp(log_alpha) == pytest.approx(direct, rel=1e-12)
            u = np.exp(log_u[k])
            assert abs(u - direct) > 1e-12 * direct  # no near-tie on this stream
            np.testing.assert_array_equal(nxt, y if u < direct else x)
            taken += u < direct
        assert taken == stats.accepted and 0 < taken < stats.proposed

    def test_returned_state_is_proposal_iff_accepted(self):
        # each state is either the proposal built from the stream's noise or
        # the previous state, and the proposals kept are the accepted ones
        target = gmm_target(0.5, np.array([0.5, 0.5]), np.eye(2))
        gamma = 0.8
        cfg = SamplerConfig("mala", gamma, 400, SeedKey(3, 0))
        traj, stats = sample_chain(cfg, target, np.array([0.3, -0.2]))
        noise, _ = _noise_and_log_u(cfg.seed, gamma, "mala", 399, 2)
        kept = 0
        for k, (x, nxt) in enumerate(zip(traj.states[:-1], traj.states[1:])):
            proposal = noise[k] + (x - gamma * target.gradient(x))
            if np.array_equal(nxt, proposal):
                kept += 1
            else:
                np.testing.assert_array_equal(nxt, x)
        assert kept == stats.accepted and 0 < kept < stats.proposed


class TestRwmStep:
    def test_equal_potential_accepts(self):
        cfg = SamplerConfig("rwm", 1.0, 300, SeedKey(0, 0))
        for streams in ([0], [0, 1, 2]):
            for _, stats in sample_chains(cfg, _flat(1), streams):
                assert stats.accepted == stats.proposed == 299

    def test_exact_half_ratio(self):
        # on [-1, 1], U is log 2 on x >= 0 and 0 below: a move up the step
        # has ratio exactly 1/2 and is taken iff log u < -log 2, a move out
        # of the interval has a non-finite ratio and is rejected, and every
        # other move is taken; by a lone chain and in a batch alike
        log2 = np.log(2.0)

        def potential(x):
            x = np.asarray(x)[..., 0]
            return np.where(np.abs(x) > 1.0, np.inf, np.where(x < 0, 0.0, log2))

        target = TargetModel(dim=1, potential=potential, gradient=None, value_and_grad=None)
        cfg = SamplerConfig("rwm", 0.25, 20_000, SeedKey(11, 0))
        for streams in ([0], [0, 1]):
            runs = sample_chains(cfg, target, streams, [-0.5])
            for (traj, stats), stream in zip(runs, streams):
                noise, log_u = _noise_and_log_u(cfg.seed.with_stream(stream), 0.25, "rwm",
                                                19_999, 1)
                x, nxt = traj.states[:-1, 0], traj.states[1:, 0]
                y = x + noise[:, 0]
                out = np.abs(y) > 1.0
                up = (x < 0) & (y >= 0) & ~out
                np.testing.assert_array_equal(nxt != x, ~out & (~up | (log_u < -log2)))
                assert np.mean(nxt[up] != x[up]) == pytest.approx(0.5, abs=0.03)
                assert stats.accepted == int(np.sum(nxt != x))
                assert stats.nonfinite_log_alpha == int(np.sum(out))

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
        # the box and proposals outside it (non-finite log ratio); a lone chain goes through the one-chain loop
        target = _box_gaussian(2, 2.0, outside)
        n_steps, x0 = NOISE_BLOCK + 300, np.array([0.5, -1.5])
        cfg = SamplerConfig(kind, gamma, n_steps, SeedKey(61, 0))
        for streams in ([1, 2, 5], [1]):
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

    @pytest.mark.parametrize("name", sorted(LOCK_STEP_TARGETS) + ["gmm_isolated"])
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

    @pytest.mark.parametrize("kind, gamma", [("mala", 1.0), ("rwm", 0.5)])
    def test_finished_chains_draw_no_noise(self, kind, gamma):
        # once a chain has made its last step, its generators are not called
        # again: each stream's draws are exactly its own steps, block by block
        lengths = [3 * NOISE_BLOCK + 7, 300, 300]
        streams = list(range(len(lengths)))
        target, x0 = LOCK_STEP_TARGETS["gmm"]
        key = _CountingKey(47)
        cfg = SamplerConfig(kind, gamma, lengths[0], key)
        batch = sample_chains(cfg, target, streams, x0, n_steps=lengths)
        for (traj, stats), stream, n in zip(batch, streams, lengths):
            own = [min(NOISE_BLOCK, n - 1 - start) for start in range(0, n - 1, NOISE_BLOCK)]
            assert key.draws[stream, ROLE_NORMAL] == own
            assert key.draws[stream, ROLE_UNIFORM] == own
            solo, solo_stats = sample_chain(
                SamplerConfig(kind, gamma, n, SeedKey(47, stream)), target, x0)
            np.testing.assert_array_equal(traj.states, solo.states)
            assert stats == solo_stats

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


class TestKeptGradients:
    """ULA with keep_gradients keeps grad U at each kept state beside it: the
    rows its steps computed, and one more call for the last state."""

    @staticmethod
    def _run(target, lengths, n_burn, x0=None, seed=44):
        cfg = SamplerConfig("ula", 0.1, lengths[0], SeedKey(seed, 0), n_burn=n_burn)
        streams = list(range(len(lengths)))
        kept = sample_chains(cfg, target, streams, x0, n_steps=lengths, keep_gradients=True)
        plain = sample_chains(cfg, target, streams, x0, n_steps=lengths)
        for (traj, stats), (ref, ref_stats), n in zip(kept, plain, lengths):
            np.testing.assert_array_equal(traj.states, ref.states)
            assert stats == ref_stats and ref.gradients is None
            assert traj.gradients.shape == (n - n_burn, target.dim)
            assert traj.gradients.flags.c_contiguous and not traj.gradients.flags.writeable
        return [traj for traj, _ in kept]

    @pytest.mark.parametrize("make", [logistic_target, probit_target])
    @pytest.mark.parametrize("lengths, n_burn", [
        (RAGGED_LENGTHS, 0),
        (RAGGED_LENGTHS, 250),
        ([3 * NOISE_BLOCK + 7, NOISE_BLOCK + 300, NOISE_BLOCK + 300], NOISE_BLOCK + 100),
    ], ids=["no-burn-in", "burn-in-in-first-block", "burn-in-in-second-block"])
    def test_regression_rows_match_the_target(self, make, lengths, n_burn):
        # the longest chain runs its tail alone, the chains cross noise-block
        # boundaries, and no step leaves the last kept state. The rows come
        # from products over the chains running at each step, so each lies
        # within rounding of the row's largest entry, not bit for bit
        target = make(synthetic_logistic_dataset(), 100.0)
        for traj in self._run(target, lengths, n_burn):
            want = target.gradient(traj.states)
            scale = np.max(np.abs(want), axis=1, keepdims=True)
            assert np.all(np.abs(traj.gradients - want) <= 1e-13 * scale)

    @pytest.mark.parametrize("name", sorted(LOCK_STEP_TARGETS))
    def test_elementwise_rows_are_the_gradient_bit_for_bit(self, name):
        target, x0 = LOCK_STEP_TARGETS[name]
        for traj in self._run(target, RAGGED_LENGTHS, 250, x0):
            np.testing.assert_array_equal(traj.gradients, target.gradient(traj.states))

    def test_gradient_returning_its_input(self):
        # each row is copied out before the state it views is overwritten
        target = _box_gaussian(2, 50.0, gradient_is_input=True)
        for traj in self._run(target, RAGGED_LENGTHS, 250):
            np.testing.assert_array_equal(traj.gradients, traj.states)

    def test_single_state_chain_keeps_the_start_gradient(self):
        target = _box_gaussian(2, 50.0)
        (traj, _), = sample_chains(SamplerConfig("ula", 0.1, 1, SeedKey(1, 0)), target, [3],
                                   x0=[0.5, -1.0], keep_gradients=True)
        np.testing.assert_array_equal(traj.gradients, [[0.5, -1.0]])

    @pytest.mark.parametrize("kind", ["mala", "rwm"])
    def test_only_ula_keeps_gradients(self, kind):
        cfg = SamplerConfig(kind, 0.1, 10, SeedKey(1, 0))
        with pytest.raises(ValueError, match="only ULA"):
            sample_chains(cfg, _standard_gaussian(2), [1], keep_gradients=True)


@pytest.mark.parametrize("d", range(1, 9))
def test_lone_squared_distance_has_the_batched_bits(d):
    # a lone MALA chain sums |x - drift(y)|^2 in Python floats; a 1-ULP
    # change in the log ratio almost never flips a decision, so the chain
    # tests cannot see a wrong summation order, and the sums are compared
    # here with the batched loop's, over values spread across 16 decades
    rng = np.random.default_rng(d)
    x = rng.standard_normal((2000, d)) * 10.0 ** rng.uniform(-8, 8, (2000, d))
    y = x + rng.standard_normal((2000, d)) * 10.0 ** rng.uniform(-8, 8, (2000, d))
    tmp = np.subtract(x, y)
    tmp *= tmp
    batched = np.add.reduce(tmp, axis=-1)
    for a, b, row, want in zip(x, y, tmp, batched):
        got = np.float64(_squared_distance(a.tolist(), b.tolist()))
        assert got.tobytes() == want.tobytes() == np.add.reduce(row).tobytes()
