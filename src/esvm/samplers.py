"""Markov kernels over a differentiable target density exp(-U).

Three kernels: the Euler discretization of the overdamped Langevin diffusion
(ULA), its Metropolis-corrected version (MALA), and Gaussian random-walk
Metropolis (RWM). Acceptance ratios are always formed in log space; the ratio
is never exponentiated before the comparison with log(uniform).

Randomness layout: a chain's noise comes from per-role substreams of its
SeedKey - one stream of standard normals (d per step, coordinate order) and
one stream of uniforms (one per step, MALA/RWM only). Blocks of either kind
can therefore be drawn up front without changing the chain, which lets many
chains advance in lock-step as (C, d) array operations while each remains a
pure function of its own key. Rejected proposals consume exactly the same
draws as accepted ones. Noise is drawn in blocks of NOISE_BLOCK steps, and
burn-in states are never stored, so a run holds only its kept states plus
buffers whose size does not grow with the chain length.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .chains import ROLE_NORMAL, ROLE_UNIFORM, SeedKey, Trajectory, TrajectoryMeta
from .errors import NumericError

SAMPLER_KINDS = ("ula", "mala", "rwm")

# Steps per noise block; also the stride of the ULA finiteness check.
NOISE_BLOCK = 1024


@dataclass(frozen=True)
class SamplerConfig:
    kind: str
    gamma: float
    n_steps: int
    seed: SeedKey
    n_burn: int = 0

    def __post_init__(self):
        if self.kind not in SAMPLER_KINDS:
            raise ValueError(f"unknown sampler kind {self.kind!r}")
        if not self.gamma > 0:
            raise ValueError("step size must be positive")
        if self.n_steps < 1:
            raise ValueError("need at least one step")
        if not 0 <= self.n_burn < self.n_steps:
            raise ValueError("burn-in must satisfy 0 <= n_burn < n_steps")


@dataclass
class AcceptanceStats:
    proposed: int = 0
    accepted: int = 0
    nonfinite_log_alpha: int = 0

    @property
    def rate(self) -> float:
        return self.accepted / self.proposed if self.proposed else 1.0


def ula_step(x: np.ndarray, grad_u, gamma: float, noise: np.ndarray) -> np.ndarray:
    """One unadjusted Langevin move: x - gamma * grad U(x) + sqrt(2 gamma) * z."""
    x = np.asarray(x, dtype=np.float64)
    noise = np.asarray(noise, dtype=np.float64)
    if noise.shape != x.shape:
        raise ValueError("noise must match state dimension")
    g = np.asarray(grad_u(x), dtype=np.float64)
    if not np.all(np.isfinite(g)):
        raise NumericError("non-finite gradient in Langevin step")
    return x - gamma * g + np.sqrt(2.0 * gamma) * noise


def mala_log_acceptance(x, y, u_x, u_y, g_x, g_y, gamma: float):
    """Log Metropolis ratio for the Langevin proposal, vectorized over
    leading axes. The Gaussian proposal normalizers cancel."""
    fwd = np.add.reduce((y - x + gamma * g_x) ** 2, axis=-1)
    bwd = np.add.reduce((x - y + gamma * g_y) ** 2, axis=-1)
    return u_x - u_y + (fwd - bwd) / (4.0 * gamma)


def rwm_log_acceptance(u_x, u_y):
    """Log Metropolis ratio for a symmetric proposal: U(x) - U(y)."""
    return u_x - u_y


def mala_step(x: np.ndarray, target, gamma: float, rng: np.random.Generator):
    """One MALA transition. Returns (next state, accepted). Draws d normals
    then one uniform, whether or not the proposal is accepted."""
    x = np.asarray(x, dtype=np.float64)
    z = rng.standard_normal(x.size)
    u_x, g_x = target.value_and_grad(x)
    y = x - gamma * g_x + np.sqrt(2.0 * gamma) * z
    u_y, g_y = target.value_and_grad(y)
    log_alpha = mala_log_acceptance(x, y, u_x, u_y, g_x, g_y, gamma)
    u = rng.random()
    if not np.isfinite(log_alpha):
        return x.copy(), False
    with np.errstate(divide="ignore"):
        accepted = np.log(u) < log_alpha
    return (y, True) if accepted else (x.copy(), False)


def rwm_step(x: np.ndarray, target, gamma: float, rng: np.random.Generator):
    """One random-walk Metropolis transition: y = x + sqrt(gamma) * z."""
    x = np.asarray(x, dtype=np.float64)
    z = rng.standard_normal(x.size)
    y = x + np.sqrt(gamma) * z
    log_alpha = rwm_log_acceptance(target.potential(x), target.potential(y))
    u = rng.random()
    if not np.isfinite(log_alpha):
        return x.copy(), False
    with np.errstate(divide="ignore"):
        accepted = np.log(u) < log_alpha
    return (y, True) if accepted else (x.copy(), False)


def _noise_blocks(kind: str, keys: Sequence[SeedKey], gamma: float, m: int, d: int):
    """Yield (start, noise, log_u) for consecutive blocks of at most
    NOISE_BLOCK steps out of m: noise[t] is the pre-scaled (C, d) proposal
    noise of step start + t, log_u[t] the (C,) log-uniforms (None for ULA).

    Each chain's generators are advanced block by block, which yields the
    same values as drawing all m steps at once. The buffers are reused, so a
    yielded block is valid only until the next one is drawn, and the caller
    may overwrite it.
    """
    n_chains = len(keys)
    size = min(NOISE_BLOCK, m)
    normals = [key.generator(ROLE_NORMAL) for key in keys]
    uniforms = [key.generator(ROLE_UNIFORM) for key in keys] if kind != "ula" else []
    noise_buf = np.empty((size, n_chains, d))
    log_u_buf = np.empty((size, n_chains)) if uniforms else None
    scale = np.sqrt(2.0 * gamma) if kind != "rwm" else np.sqrt(gamma)
    for start in range(0, m, size):
        b = min(size, m - start)
        noise = noise_buf[:b]
        for i, gen in enumerate(normals):
            noise[:, i, :] = gen.standard_normal((b, d))
        noise *= scale
        log_u = None
        if uniforms:
            log_u = log_u_buf[:b]
            for i, gen in enumerate(uniforms):
                log_u[:, i] = gen.random(b)
            with np.errstate(divide="ignore"):
                np.log(log_u, out=log_u)
        yield start, noise, log_u


def _simulate(kind: str, target, gamma: float, n_steps: int, n_burn: int,
              x0: np.ndarray, keys: Sequence[SeedKey]):
    """Advance len(keys) chains in lock-step for n_steps states (x0 is state
    0). Returns the kept states chain-major, (C, n_steps - n_burn, d), per-chain
    accept counts and per-chain non-finite-ratio counts; the counts cover all
    n_steps - 1 proposals, burn-in included.

    Each step writes its new states over its own, already used, slot of the
    time-major noise block, so every per-step slice is contiguous and the
    block's kept states are copied out per chain once it is done. Burn-in
    states are never stored, and memory beyond the kept states is flat in
    n_steps.
    """
    n_chains = len(keys)
    d = x0.shape[-1]
    m = n_steps - 1
    kept = np.empty((n_chains, n_steps - n_burn, d))
    x = np.empty((n_chains, d))
    x[...] = x0
    if n_burn == 0:
        kept[:, 0] = x
    accepted = np.zeros(n_chains, dtype=np.int64)
    nonfinite = np.zeros(n_chains, dtype=np.int64)
    if m == 0:
        return kept, accepted, nonfinite

    if kind == "ula":
        # Two buffers, so that the drift's subtraction does not write over
        # its own input: on one-element arrays (one chain, d = 1) numpy
        # skips its fast path for a ufunc whose output overlaps an input.
        buf = np.empty((n_chains, d))
        drift = np.empty((n_chains, d))
    else:
        # The loop updates the current potential and gradient in place, so
        # they are copied out of whatever the target returned.
        cur_u = np.empty(n_chains)
        if kind == "mala":
            cur_g = np.empty((n_chains, d))
            u, g = target.value_and_grad(x)
            cur_g[...] = g
        else:
            u = target.potential(x)
        cur_u[...] = u
        size = min(NOISE_BLOCK, m)
        finite = np.empty((size, n_chains), dtype=bool)
        taken = np.empty((size, n_chains), dtype=bool)
    # Non-finite intermediates are an expected, handled condition here:
    # Metropolis kernels reject them, the unadjusted kernel turns them into
    # an error below. Keep the arithmetic quiet either way.
    with np.errstate(over="ignore", invalid="ignore"):
        for start, noise, log_u in _noise_blocks(kind, keys, gamma, m, d):
            # Slot t holds the noise of step start + t until that step
            # overwrites it with state lo + t: the proposal is built in the
            # slot, and rejected rows are then reset to the current state.
            # The target may return views of the slot, so the current
            # potential and gradient are updated before that reset.
            lo, hi = start + 1, start + 1 + len(noise)
            if kind == "ula":
                for nxt in noise:
                    np.multiply(target.gradient(x), gamma, out=buf)
                    np.subtract(x, buf, out=drift)
                    nxt += drift
                    x = nxt
                # Non-finite values are sticky in this recursion, so one
                # check per block still pins down the first bad window.
                if not np.all(np.isfinite(x)):
                    raise NumericError(
                        f"non-finite gradient within steps {start}..{hi - 1} "
                        "(diverging chain?)"
                    )
            elif kind == "mala":
                for nxt, lu, ok, acc in zip(noise, log_u, finite, taken):
                    nxt += x - gamma * cur_g
                    prop_u, prop_g = target.value_and_grad(nxt)
                    log_alpha = mala_log_acceptance(x, nxt, cur_u, prop_u, cur_g, prop_g, gamma)
                    # A non-finite ratio (NaN compares false) is rejected.
                    np.isfinite(log_alpha, out=ok)
                    np.less(lu, log_alpha, out=acc)
                    acc &= ok
                    mask = acc[:, None]
                    np.copyto(cur_u, prop_u, where=acc)
                    np.copyto(cur_g, prop_g, where=mask)
                    np.copyto(nxt, x, where=~mask)
                    x = nxt
            else:  # rwm
                for nxt, lu, ok, acc in zip(noise, log_u, finite, taken):
                    nxt += x
                    prop_u = target.potential(nxt)
                    log_alpha = rwm_log_acceptance(cur_u, prop_u)
                    np.isfinite(log_alpha, out=ok)
                    np.less(lu, log_alpha, out=acc)
                    acc &= ok
                    np.copyto(cur_u, prop_u, where=acc)
                    np.copyto(nxt, x, where=~acc[:, None])
                    x = nxt
            if kind != "ula":
                b = len(noise)
                nonfinite += b - np.count_nonzero(finite[:b], axis=0)
                accepted += np.count_nonzero(taken[:b], axis=0)
            first = max(lo, n_burn)
            if first < hi:
                kept[:, first - n_burn : hi - n_burn] = noise[first - lo :].transpose(1, 0, 2)
            # the next block is drawn into the same buffer
            x = x.copy()
    return kept, accepted, nonfinite


def _check_x0(target, x0) -> np.ndarray:
    if x0 is None:
        x0 = np.zeros(target.dim)
    x0 = np.asarray(x0, dtype=np.float64)
    if x0.shape != (target.dim,):
        raise ValueError(f"starting point must have dimension {target.dim}")
    if not np.all(np.isfinite(x0)):
        raise ValueError("starting point must be finite")
    return x0


def sample_chain(config: SamplerConfig, target, x0=None):
    """Run one chain of config.n_steps states (x0 included as state 0) and
    keep the last n_steps - n_burn of them.

    Deterministic given (config, target, x0): rerunning with the same SeedKey
    reproduces the trajectory bit for bit, and the kept states equal the
    matching suffix of the chain run without burn-in.
    """
    return sample_chains(config, target, [config.seed.stream], x0)[0]


def sample_chains(config: SamplerConfig, target, streams: Sequence[int], x0=None):
    """Run one chain per stream index, identical in law and in outcome to
    calling `sample_chain` per stream, but advanced together for speed. The
    trajectories are read-only views of one (C, n, d) array, so the kept
    states are held once."""
    x0 = _check_x0(target, x0)
    keys = [config.seed.with_stream(s) for s in streams]
    kept, accepted, nonfinite = _simulate(
        config.kind, target, config.gamma, config.n_steps, config.n_burn, x0, keys
    )
    m = config.n_steps - 1
    out = []
    for i, stream in enumerate(streams):
        stats = AcceptanceStats(
            proposed=m,
            accepted=m if config.kind == "ula" else int(accepted[i]),
            nonfinite_log_alpha=int(nonfinite[i]),
        )
        meta = TrajectoryMeta(
            sampler=config.kind,
            gamma=config.gamma,
            seed_master=config.seed.master,
            seed_stream=stream,
            burn_in_removed=config.n_burn > 0,
        )
        out.append((Trajectory.adopt(kept[i], meta), stats))
    return out
