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
only for the chains still running in a block, so a chain that has finished
costs nothing more. Burn-in states are never stored, so a run holds only its
kept states plus buffers whose size does not grow with the chain length. The
one chain left in a segment steps in Python floats, with the bits it would
have in a batch. On request ULA also keeps grad U at each kept state, the
rows its steps compute anyway, so that a caller need not evaluate the
gradient along the chain again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .chains import ROLE_NORMAL, ROLE_UNIFORM, SeedKey, Trajectory, TrajectoryMeta
from .errors import NumericError

SAMPLER_KINDS = ("ula", "mala", "rwm")

# Steps per noise block; also the stride of the ULA finiteness check.
NOISE_BLOCK = 1024
# Steps per pass of MALA's fold of |noise|^2 / (4 gamma) into log u; a
# buffer for a whole block would hold about 0.8 MiB at 101 chains.
FOLD_STEPS = 64


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


def _noise_blocks(kind: str, keys: Sequence[SeedKey], gamma: float, steps: Sequence[int],
                  d: int):
    """Yield (start, noise, log_u) for consecutive blocks of at most
    NOISE_BLOCK steps out of max(steps): noise[t] is the pre-scaled (r, d)
    proposal noise of step start + t for the r chains still running in the
    block, log_u[t] their (r,) log-uniforms (None for ULA). Chain i makes
    steps[i] steps; the steps must not increase along the chains, so the
    running chains are the leading ones. A chain draws noise for its own
    steps alone: once it has finished, its generators are not called and it
    has no row. Past the last step of a chain that ends inside a block, its
    rows read 0 (and log-uniform 0) and are never used.

    Each block is a C-contiguous (b, r, d) array, laid out as for a batch of
    the r running chains alone. Each chain's generators are advanced block
    by block, which yields the same values as drawing all its steps at once.
    The buffers are reused, so a yielded block is valid only until the next
    one is drawn, and the caller may overwrite it.
    """
    m = max(steps)
    size = min(NOISE_BLOCK, m)
    normals = [key.generator(ROLE_NORMAL) for key in keys]
    uniforms = [key.generator(ROLE_UNIFORM) for key in keys] if kind != "ula" else []
    noise_buf = np.empty(size * len(keys) * d)
    log_u_buf = np.empty(size * len(keys)) if uniforms else None
    scale = np.sqrt(2.0 * gamma) if kind != "rwm" else np.sqrt(gamma)
    for start in range(0, m, size):
        b = min(size, m - start)
        # steps of this block that each running chain makes
        own = [min(b, m_i - start) for m_i in steps if m_i > start]
        r = len(own)
        noise = noise_buf[: b * r * d].reshape(b, r, d)
        for i, n_i in enumerate(own):
            noise[:n_i, i] = normals[i].standard_normal((n_i, d))
            noise[n_i:, i] = 0.0
        noise *= scale
        log_u = None
        if uniforms:
            log_u = log_u_buf[: b * r].reshape(b, r)
            for i, n_i in enumerate(own):
                log_u[:n_i, i] = uniforms[i].random(n_i)
                log_u[n_i:, i] = 1.0
            with np.errstate(divide="ignore"):
                np.log(log_u, out=log_u)
        yield start, noise, log_u


_INF = float("inf")
# np.add.reduce sums a contiguous row left to right only below 8 terms.
_FLOAT_SUM_DIM = 8


def _squared_distance(a, b):
    """|a - b|^2 for two lists of d floats, with the bits np.add.reduce gives
    on the (d,) row of squared differences: summed in Python floats, left to
    right from 0.0, below _FLOAT_SUM_DIM terms, and by numpy from there up."""
    if len(a) < _FLOAT_SUM_DIM:
        total = 0.0
        for ai, bi in zip(a, b):
            diff = ai - bi
            total += diff * diff
        return total
    diff = np.subtract(a, b)
    return float(np.add.reduce(diff * diff))


def _lone_ula(target, gamma, x, slots, grads=None):
    """ULA steps of the one chain left in a segment: `x` is its (d,) state and
    `slots` its (d,) noise slots. Returns the last state. With `grads`, a
    (len(slots), d) array, row t receives grad U at the state step t leaves.

    Each new state, noise + (x - g gamma), is formed in Python floats in the
    batched loop's order of operations, so it has the batched loop's bits."""
    xs = x.tolist()
    for t, nxt in enumerate(slots):
        g = target.gradient(x)
        if grads is not None:
            grads[t] = g
        g = g.tolist()
        xs = [z + (xi - gi * gamma) for z, xi, gi in zip(nxt.tolist(), xs, g)]
        nxt[...] = xs
        x = nxt
    return x


def _lone_mala(target, gamma, x, slots, log_us, u_x, drift):
    """MALA steps of the one chain left in a segment: `x` is its (d,) state,
    `slots` its (d,) noise slots, `log_us` its folded log-uniforms as Python
    floats, `u_x` the current potential as a float and `drift` the current
    x - gamma grad U(x) as a list of floats. Returns the last state, its
    potential, its drift and the per-step finite-ratio and accept flags.

    The proposal, its drift and the ratio are formed and compared in Python
    floats, in the batched loop's order of operations. Python's + - * / on
    floats round as numpy's elementwise ufuncs do, so the chain decides as
    it would in a batch."""
    four_gamma = 4.0 * gamma
    xs = x.tolist()
    finite, taken = [], []
    for nxt, lu in zip(slots, log_us):
        ys = [z + di for z, di in zip(nxt.tolist(), drift)]
        nxt[...] = ys
        prop_u, prop_g = target.value_and_grad(nxt)
        u_y = float(prop_u)
        spare = [yi - gi * gamma for yi, gi in zip(ys, prop_g.tolist())]
        log_alpha = (u_x - u_y) - _squared_distance(xs, spare) / four_gamma
        ok = -_INF < log_alpha < _INF
        acc = ok and lu < log_alpha
        if acc:
            u_x, drift, xs = u_y, spare, ys
        else:
            nxt[...] = x
        finite.append(ok)
        taken.append(acc)
        x = nxt
    return x, u_x, drift, finite, taken


def _lone_rwm(target, x, slots, log_us, u_x):
    """Random-walk steps of the one chain left in a segment, decided in
    Python floats as `_lone_mala` decides. Returns the last state, its
    potential and the per-step finite-ratio and accept flags."""
    finite, taken = [], []
    for nxt, lu in zip(slots, log_us):
        nxt += x
        u_y = float(target.potential(nxt))
        log_alpha = u_x - u_y
        ok = -_INF < log_alpha < _INF
        acc = ok and lu < log_alpha
        if acc:
            u_x = u_y
        else:
            nxt[...] = x
        finite.append(ok)
        taken.append(acc)
        x = nxt
    return x, u_x, finite, taken


def _last_gradients(target, kept, grads):
    """grad U at the last kept state of every chain, one call per run of
    equal lengths: no step leaves that state, so no step computed it."""
    with np.errstate(over="ignore"):
        for arr, out in zip(kept, grads):
            out[:, -1] = target.gradient(arr[:, -1])


def _simulate(kind: str, target, gamma: float, lengths: Sequence[int], n_burn: int,
              x0: np.ndarray, keys: Sequence[SeedKey], keep_gradients: bool = False):
    """Advance len(keys) chains in lock-step, chain i for lengths[i] states
    (x0 is state 0). The lengths must not increase along the chains, so the
    chains still running at any step are the leading rows of the batch: a
    chain leaves the batch after its last state. Returns each chain's kept
    states, (lengths[i] - n_burn, d), as views of one chain-major array per
    run of equal lengths, the same for grad U at those states (ULA with
    keep_gradients; None otherwise), and per-chain accept and non-finite-ratio
    counts; the counts cover all lengths[i] - 1 proposals, burn-in included.

    Each step writes its new states over its own, already used, slot of the
    time-major noise block, so every per-step slice is contiguous and the
    block's kept states are copied out per chain once it is done. A block
    holds rows for the chains still running in it alone, and the MALA fold
    below covers only those. Burn-in states are never stored, and memory
    beyond the kept states is flat in the chain lengths. A segment with one
    chain left runs through `_lone_ula`, `_lone_mala` or `_lone_rwm`, which
    step and decide in Python floats with the batched loop's bits at a
    fraction of the cost of numpy calls on one-row arrays. These hand the
    target the chain's (d,) row, on which the elementwise targets compute in
    NumPy scalars and the Gaussian mixture of small d in Python floats.

    MALA's log ratio is U(x) - U(y) + (|y - x + gamma g(x)|^2
    - |x - y + gamma g(y)|^2) / (4 gamma) for gradients g. The first square
    is the proposal's noise, |noise|^2, whatever the state, so it is folded
    into log u once per noise block; the second is |x - drift(y)|^2 with
    drift(y) = y - gamma g(y), which becomes the current drift on acceptance
    and builds the next proposal.

    ULA computes grad U at every state it leaves. With keep_gradients each
    step past the burn-in writes those rows into a chain-major array beside
    the kept states, and one more call per run gives the last state's.
    """
    gamma = float(gamma)
    four_gamma = 4.0 * gamma
    n_chains = len(keys)
    d = x0.shape[-1]
    steps = [n - 1 for n in lengths]
    m = steps[0]
    # runs of chains of equal length, [first row, end row, states per chain]
    runs = []
    for i, n in enumerate(lengths):
        if runs and runs[-1][2] == n:
            runs[-1][1] = i + 1
        else:
            runs.append([i, i + 1, n])
    kept = [np.empty((hi - lo, n - n_burn, d)) for lo, hi, n in runs]
    grads = [np.empty_like(arr) for arr in kept] if keep_gradients else None
    x = np.empty((n_chains, d))
    x[...] = x0
    if n_burn == 0:
        for arr in kept:
            arr[:, 0] = x0
    accepted = np.zeros(n_chains, dtype=np.int64)
    nonfinite = np.zeros(n_chains, dtype=np.int64)
    chains = [chain for arr in kept for chain in arr]
    chain_grads = [rows for arr in grads for rows in arr] if keep_gradients else None
    if m == 0:
        if keep_gradients:
            _last_gradients(target, kept, grads)
        return chains, chain_grads, accepted, nonfinite

    size = min(NOISE_BLOCK, m)
    if kind == "ula":
        drift = np.empty((n_chains, d))
    else:
        # The loop updates the current potential (and MALA's drift) in
        # place, so it is copied out of whatever the target returned.
        cur_u = np.empty(n_chains)
        if kind == "mala":
            # current drift x - gamma grad U(x), the proposals' drift, scratch
            drift = np.empty((n_chains, d))
            prop_drift = np.empty((n_chains, d))
            tmp = np.empty((n_chains, d))
            bwd = np.empty(n_chains)
            fwd_buf = np.empty(min(size, FOLD_STEPS) * n_chains)
            u, g = target.value_and_grad(x)
            np.multiply(g, gamma, out=tmp)
            np.subtract(x, tmp, out=drift)
        else:
            u = target.potential(x)
        cur_u[...] = u
        log_alpha = np.empty(n_chains)
        finite = np.empty((size, n_chains), dtype=bool)
        taken = np.empty((size, n_chains), dtype=bool)
    # Non-finite intermediates are an expected, handled condition here:
    # Metropolis kernels reject them, the unadjusted kernel turns them into
    # an error below. Keep the arithmetic quiet either way.
    with np.errstate(over="ignore", invalid="ignore"):
        for start, noise, log_u in _noise_blocks(kind, keys, gamma, steps, d):
            if kind == "mala":
                # log u - |noise|^2 / (4 gamma), FOLD_STEPS steps at a time,
                # for the running chains alone
                for t in range(0, len(noise), FOLD_STEPS):
                    rows = noise[t : t + FOLD_STEPS]
                    fwd = fwd_buf[: rows.shape[0] * rows.shape[1]].reshape(rows.shape[:2])
                    np.einsum("tcd,tcd->tc", rows, rows, out=fwd)
                    fwd /= four_gamma
                    log_u[t : t + len(rows)] -= fwd
            # Slot t holds the noise of step start + t until that step
            # overwrites it with state lo + t: the proposal is built in the
            # slot, and rejected rows are then reset to the current state.
            # The target may return views of the slot, so the current
            # potential and drift are updated before that reset.
            lo, hi = start + 1, start + 1 + len(noise)
            # Segments of the block with a fixed number k of running chains:
            # the batch shrinks after each chain's last step.
            cuts = {s + 1 - lo for s in steps if lo <= s < hi - 1}
            if keep_gradients and start < n_burn < hi - 1:
                # segments lie wholly in the burn-in or wholly past it
                cuts.add(n_burn - start)
            bounds = [0] + sorted(cuts) + [len(noise)]
            for j0, j1 in zip(bounds[:-1], bounds[1:]):
                k = sum(s >= lo + j0 for s in steps)
                x = x[:k]
                if kind == "ula":
                    # (kept rows, first chain, end chain) of each run in the
                    # segment, when its states are kept
                    first = start + j0 - n_burn
                    sinks = [] if not keep_gradients or first < 0 else [
                        (arr[: min(r1, k) - r0], r0, min(r1, k))
                        for arr, (r0, r1, _) in zip(grads, runs) if r0 < k]
                    if k == 1:
                        lone = sinks[0][0][0, first : first + j1 - j0] if sinks else None
                        x = _lone_ula(target, gamma, x[0], noise[j0:j1, 0], lone)[None]
                    else:
                        drift_k = drift[:k]
                        for t, nxt in enumerate(noise[j0:j1, :k], first):
                            g = target.gradient(x)
                            for rows, r0, r1 in sinks:
                                rows[:, t] = g[r0:r1]
                            np.multiply(g, gamma, out=drift_k)
                            np.subtract(x, drift_k, out=drift_k)
                            nxt += drift_k
                            x = nxt
                    # Non-finite values are sticky in this recursion, so one
                    # check per segment still pins down the first bad block.
                    if not np.all(np.isfinite(x)):
                        raise NumericError(
                            f"non-finite gradient within steps {start}..{hi - 1} "
                            "(diverging chain?)"
                        )
                    continue
                ok_k, acc_k = finite[j0:j1, :k], taken[j0:j1, :k]
                if k == 1:
                    slots, log_us = noise[j0:j1, 0], log_u[j0:j1, 0].tolist()
                    if kind == "mala":
                        x, u_x, cur, ok_k[:, 0], acc_k[:, 0] = _lone_mala(
                            target, gamma, x[0], slots, log_us, float(cur_u[0]),
                            drift[0].tolist())
                        drift[0] = cur
                    else:
                        x, u_x, ok_k[:, 0], acc_k[:, 0] = _lone_rwm(
                            target, x[0], slots, log_us, float(cur_u[0]))
                    x = x[None]
                    cur_u[0] = u_x
                else:
                    u_k, la_k = cur_u[:k], log_alpha[:k]
                    rows = zip(noise[j0:j1, :k], log_u[j0:j1, :k], ok_k, acc_k)
                    if kind == "mala":
                        drift_k, spare_k = drift[:k], prop_drift[:k]
                        tmp_k, bwd_k = tmp[:k], bwd[:k]
                        for nxt, lu, ok, acc in rows:
                            nxt += drift_k
                            prop_u, prop_g = target.value_and_grad(nxt)
                            np.multiply(prop_g, gamma, out=tmp_k)
                            np.subtract(nxt, tmp_k, out=spare_k)
                            np.subtract(x, spare_k, out=tmp_k)
                            tmp_k *= tmp_k
                            np.add.reduce(tmp_k, axis=-1, out=bwd_k)
                            bwd_k /= four_gamma
                            np.subtract(u_k, prop_u, out=la_k)
                            la_k -= bwd_k
                            # A non-finite ratio (NaN compares false) is rejected.
                            np.isfinite(la_k, out=ok)
                            np.less(lu, la_k, out=acc)
                            acc &= ok
                            mask = acc[:, None]
                            np.copyto(u_k, prop_u, where=acc)
                            np.copyto(drift_k, spare_k, where=mask)
                            np.copyto(nxt, x, where=~mask)
                            x = nxt
                    else:  # rwm
                        for nxt, lu, ok, acc in rows:
                            nxt += x
                            prop_u = target.potential(nxt)
                            np.subtract(u_k, prop_u, out=la_k)
                            np.isfinite(la_k, out=ok)
                            np.less(lu, la_k, out=acc)
                            acc &= ok
                            np.copyto(u_k, prop_u, where=acc)
                            np.copyto(nxt, x, where=~acc[:, None])
                            x = nxt
                nonfinite[:k] += (j1 - j0) - np.count_nonzero(ok_k, axis=0)
                accepted[:k] += np.count_nonzero(acc_k, axis=0)
            for arr, (r0, r1, n) in zip(kept, runs):
                first, last = max(lo, n_burn), min(hi, n)
                if first < last:
                    arr[:, first - n_burn : last - n_burn] = (
                        noise[first - lo : last - lo, r0:r1].transpose(1, 0, 2))
            # the next block is drawn into the same buffer
            x = x.copy()
        if keep_gradients:
            _last_gradients(target, kept, grads)
    return chains, chain_grads, accepted, nonfinite


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


def sample_chains(config: SamplerConfig, target, streams: Sequence[int], x0=None,
                  n_steps: Optional[Sequence[int]] = None, keep_gradients: bool = False):
    """Run one chain per stream index, identical in law and in outcome to
    calling `sample_chain` per stream, but advanced together for speed.

    `n_steps` gives each stream its own state count (default: config.n_steps
    for every stream; each must exceed config.n_burn). A chain leaves the
    batch after its last state and draws noise for its own steps only, so it
    equals `sample_chain` run with its own length. The trajectories are
    read-only views of one (C, n, d) array per run of equal lengths, so the
    kept states are held once.

    With keep_gradients (ULA only) each trajectory also carries, as
    `gradients`, grad U at each kept state: the rows the steps computed,
    plus one call for the last state. They are the target's rows for a batch
    of the chains running at each step, so a regression posterior's rows may
    differ from one call on the chain in the last bits. The kept rows cost a
    second (C, n, d) array."""
    if keep_gradients and config.kind != "ula":
        raise ValueError("only ULA keeps the gradients it computes")
    x0 = _check_x0(target, x0)
    lengths = [config.n_steps] * len(streams) if n_steps is None else [int(n) for n in n_steps]
    if len(lengths) != len(streams):
        raise ValueError("need one state count per stream")
    if not all(config.n_burn < n for n in lengths):
        raise ValueError("every chain must keep a state after the burn-in")
    if not lengths:
        return []
    # longest chains first, so that the chains still running are the leading rows
    order = sorted(range(len(streams)), key=lambda i: -lengths[i])
    kept, grads, accepted, nonfinite = _simulate(
        config.kind, target, config.gamma, [lengths[i] for i in order], config.n_burn, x0,
        [config.seed.with_stream(streams[i]) for i in order], keep_gradients,
    )
    out = [None] * len(streams)
    for j, i in enumerate(order):
        m = lengths[i] - 1
        stats = AcceptanceStats(
            proposed=m,
            accepted=m if config.kind == "ula" else int(accepted[j]),
            nonfinite_log_alpha=int(nonfinite[j]),
        )
        meta = TrajectoryMeta(
            sampler=config.kind,
            gamma=config.gamma,
            seed_master=config.seed.master,
            seed_stream=streams[i],
            burn_in_removed=config.n_burn > 0,
        )
        out[i] = (Trajectory.adopt(kept[j], meta, grads[j] if grads else None), stats)
    return out
