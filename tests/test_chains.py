"""Trajectory containers, ergodic averages, seeding, persistence."""

import numpy as np
import pytest

from esvm.chains import (
    SeedKey,
    Trajectory,
    TrajectoryMeta,
    ergodic_average,
    export_csv,
    load_trajectory,
    save_trajectory,
)
from esvm.errors import EsvmError


def _traj(n=5, d=2, seed=0):
    rng = np.random.default_rng(seed)
    return Trajectory(rng.standard_normal((n, d)))


class TestTrajectory:
    def test_rejects_nonfinite_states(self):
        states = np.zeros((3, 2))
        states[1, 0] = np.nan
        with pytest.raises(ValueError):
            Trajectory(states)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Trajectory(np.zeros((0, 2)))

    def test_immutable_and_detached_from_source(self):
        src = np.zeros((3, 2))
        t = Trajectory(src)
        src[0, 0] = 99.0
        assert t.states[0, 0] == 0.0
        with pytest.raises(ValueError):
            t.states[0, 0] = 1.0

    def test_adopt_wraps_without_copying(self):
        src = np.arange(6.0).reshape(3, 2)
        t = Trajectory.adopt(src, TrajectoryMeta(sampler="ula"))
        assert np.shares_memory(t.states, src) and not t.states.flags.writeable
        assert t.meta.sampler == "ula"
        with pytest.raises(ValueError):
            Trajectory.adopt(np.zeros((2, 3)).T, TrajectoryMeta())
        with pytest.raises(ValueError):
            Trajectory.adopt(np.array([[np.nan, 0.0]]), TrajectoryMeta())

    def test_one_dimensional_input_promoted(self):
        t = Trajectory(np.arange(4.0))
        assert t.states.shape == (4, 1)
        assert t.dim == 1 and len(t) == 4


class TestErgodicAverage:
    def test_arithmetic_mean(self):
        assert ergodic_average(np.array([1.0, 2.0, 3.0])) == 2.0

    def test_constant_series(self):
        assert ergodic_average(np.full(13, -4.5)) == -4.5

    def test_empty_series(self):
        with pytest.raises(ValueError, match="empty series"):
            ergodic_average(np.array([]))

    def test_ar1_mean_within_standard_errors(self):
        # the long-run variance of the identity under a = 0.5 is exactly 4,
        # so the mean of 1e5 draws has standard error sqrt(4 / n)
        from _oracles import ar1_reference

        traj, v_inf = ar1_reference(0.5, 100_000, 5)
        se = np.sqrt(v_inf / len(traj))
        assert abs(ergodic_average(traj.states[:, 0])) < 3 * se


class TestSeedKey:
    def test_same_key_same_stream(self):
        a = SeedKey(123, 4).generator().standard_normal(8)
        b = SeedKey(123, 4).generator().standard_normal(8)
        np.testing.assert_array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = SeedKey(123, 0).generator().standard_normal(8)
        b = SeedKey(123, 1).generator().standard_normal(8)
        assert not np.array_equal(a, b)

    def test_roles_are_independent_substreams(self):
        a = SeedKey(7, 2).generator(0).standard_normal(4)
        b = SeedKey(7, 2).generator(1).standard_normal(4)
        assert not np.array_equal(a, b)

    def test_block_draws_match_incremental_draws(self):
        block = SeedKey(5, 1).generator().standard_normal((10, 3))
        gen = SeedKey(5, 1).generator()
        steps = np.stack([gen.standard_normal(3) for _ in range(10)])
        np.testing.assert_array_equal(block, steps)


class TestPersistence:
    def test_binary_round_trip(self, tmp_path):
        t = Trajectory(_traj(n=17, d=3).states,
                       TrajectoryMeta(sampler="mala", gamma=0.25, seed_master=9,
                                      seed_stream=2, burn_in_removed=True))
        path = tmp_path / "chain.traj"
        save_trajectory(t, path)
        back = load_trajectory(path)
        np.testing.assert_array_equal(back.states, t.states)
        assert back.meta == t.meta

    def test_header_layout(self, tmp_path):
        t = _traj(n=2, d=2)
        path = tmp_path / "chain.traj"
        save_trajectory(t, path)
        raw = path.read_bytes()
        assert raw[:8] == b"ESVMTRAJ"
        assert int.from_bytes(raw[8:12], "little") == 2
        assert len(raw) == 16 + 2 * 2 * 8

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "chain.traj"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 24)
        with pytest.raises(EsvmError, match="bad magic"):
            load_trajectory(path)

    def test_csv_export(self, tmp_path):
        t = Trajectory(np.array([[1.5, -2.0], [0.25, 3.0]]))
        path = tmp_path / "chain.csv"
        export_csv(t, path)
        rows = path.read_text().strip().split("\n")
        assert len(rows) == 2
        np.testing.assert_allclose([float(v) for v in rows[0].split(",")], [1.5, -2.0])
