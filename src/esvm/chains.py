"""Chain trajectories: containers, ergodic averages, seeding, and file formats.

A trajectory is an immutable (n, d) array of visited states plus provenance
metadata and, where the kernel that made it kept them, grad U at its states.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import EsvmError

TRAJECTORY_MAGIC = b"ESVMTRAJ"

# RNG roles: each (master, stream, role) triple owns an independent substream,
# so random inputs of one kind can be generated in blocks without perturbing
# the others.
ROLE_NORMAL = 0
ROLE_UNIFORM = 1
ROLE_INIT = 2


@dataclass(frozen=True)
class SeedKey:
    """Deterministic RNG address: master seed plus stream index.

    Stream 0 is reserved for the training chain; test chain j uses stream j.
    The mapping (master, stream, role) -> generator state is a pure function,
    which is what makes chains reproducible independently of scheduling.
    """

    master: int
    stream: int = 0

    def __post_init__(self):
        if self.master < 0 or self.stream < 0:
            raise ValueError("seed components must be nonnegative")

    def generator(self, role: int = ROLE_NORMAL) -> np.random.Generator:
        seq = np.random.SeedSequence(self.master, spawn_key=(self.stream, role))
        return np.random.default_rng(seq)

    def with_stream(self, stream: int) -> "SeedKey":
        return SeedKey(self.master, stream)


@dataclass(frozen=True)
class TrajectoryMeta:
    sampler: str = "unknown"
    gamma: float = 0.0
    seed_master: int = 0
    seed_stream: int = 0
    burn_in_removed: bool = False

    def to_dict(self) -> dict:
        return {
            "sampler": self.sampler,
            "gamma": self.gamma,
            "seed_master": self.seed_master,
            "seed_stream": self.seed_stream,
            "burn_in_removed": self.burn_in_removed,
        }

    @staticmethod
    def from_dict(d: dict) -> "TrajectoryMeta":
        return TrajectoryMeta(
            sampler=str(d.get("sampler", "unknown")),
            gamma=float(d.get("gamma", 0.0)),
            seed_master=int(d.get("seed_master", 0)),
            seed_stream=int(d.get("seed_stream", 0)),
            burn_in_removed=bool(d.get("burn_in_removed", False)),
        )


@dataclass(frozen=True)
class Trajectory:
    """Ordered states of one chain. Immutable after construction."""

    states: np.ndarray
    meta: TrajectoryMeta = field(default_factory=TrajectoryMeta)
    # grad U at each state, (n, d), where the kernel that made the chain kept
    # it; only `adopt` sets it
    gradients: Optional[np.ndarray] = field(default=None, init=False, repr=False,
                                            compare=False)

    def __post_init__(self):
        arr = np.array(self.states, dtype=np.float64, order="C", copy=True)
        object.__setattr__(self, "states", _frozen_states(arr))

    @classmethod
    def adopt(cls, states: np.ndarray, meta: TrajectoryMeta,
              gradients: Optional[np.ndarray] = None) -> "Trajectory":
        """Wrap a C-ordered float64 array, and any gradients, without copying
        them. Only for a producer that made the arrays for this trajectory
        alone and keeps no writable reference to them; everyone else uses the
        copying constructor."""
        if states.dtype != np.float64 or not states.flags.c_contiguous:
            raise ValueError("adopted states must be C-ordered float64")
        traj = cls.__new__(cls)
        object.__setattr__(traj, "states", _frozen_states(states))
        object.__setattr__(traj, "meta", meta)
        if gradients is not None:
            if gradients.shape != traj.states.shape:
                raise ValueError("adopted gradients must have the shape of the states")
            gradients.flags.writeable = False
        object.__setattr__(traj, "gradients", gradients)
        return traj

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    def __len__(self) -> int:
        return self.states.shape[0]


def _frozen_states(arr: np.ndarray) -> np.ndarray:
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.shape[0] < 1:
        raise ValueError("a trajectory needs at least one state of fixed dimension")
    if not np.all(np.isfinite(arr)):
        raise ValueError("non-finite state admitted into a trajectory")
    arr.flags.writeable = False
    return arr


def ergodic_average(values: np.ndarray) -> float:
    """Running-mean estimate: the plain average of a functional series."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ValueError("empty series")
    return float(values.mean())


def save_trajectory(traj: Trajectory, path) -> None:
    """Binary dump: 16-byte header (magic, u32 dim, u32 reserved) then
    row-major little-endian float64 states, plus a JSON sidecar with metadata."""
    path = Path(path)
    header = struct.pack("<8sII", TRAJECTORY_MAGIC, traj.dim, 0)
    body = np.ascontiguousarray(traj.states, dtype="<f8").tobytes()
    path.write_bytes(header + body)
    sidecar = path.with_name(path.name + ".meta.json")
    sidecar.write_text(json.dumps(traj.meta.to_dict(), indent=2) + "\n")


def load_trajectory(path) -> Trajectory:
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < 16:
        raise EsvmError(f"{path}: truncated trajectory file")
    magic, dim, _reserved = struct.unpack("<8sII", raw[:16])
    if magic != TRAJECTORY_MAGIC:
        raise EsvmError(f"{path}: bad magic {magic!r}")
    body = raw[16:]
    if dim == 0 or len(body) % (8 * dim) != 0:
        raise EsvmError(f"{path}: body size {len(body)} not a multiple of state size")
    states = np.frombuffer(body, dtype="<f8").astype(np.float64).reshape(-1, dim)
    sidecar = path.with_name(path.name + ".meta.json")
    meta = TrajectoryMeta()
    if sidecar.exists():
        meta = TrajectoryMeta.from_dict(json.loads(sidecar.read_text()))
    return Trajectory(states, meta)


def export_csv(traj: Trajectory, path) -> None:
    """One state per row, comma separated, full float64 precision."""
    path = Path(path)
    with path.open("w") as fh:
        for row in traj.states:
            fh.write(",".join(f"{v:.17g}" for v in row))
            fh.write("\n")
