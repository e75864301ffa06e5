"""The benchmark's workloads: experiment documents in the JSON form that
`esvm run` reads, made from the benchmark seed.

Each workload is a list of experiments run one after another in one process.
An experiment is one document plus, optionally, the training truncations of a
`bn_sweep` call made on the same document after its `run_experiment` call.
`batch_size` and `threads` are never set, so the program's defaults apply.

Two scales: `full` is what the benchmark measures; `tiny` keeps the training
chains and cuts the test chains short and few, for the benchmark's own tests.
"""

from __future__ import annotations

import numpy as np

WORKLOADS = ("mixture", "logistic", "banana")

# Dataset seed of the synthetic logistic posterior. It is fixed, so every
# benchmark seed runs on the same 500 x 8 design; the seed moves the chains.
DATASET_SEED = 90210

MIXTURE_TARGET = {"kind": "gmm", "rho": 0.5, "mu": [0.5, 0.5], "sigma": 1.0}
BANANA_TARGET = {"kind": "banana", "p": 100.0, "b": 0.1, "dim": 2}
LOGISTIC_TARGET = {"kind": "logistic", "dataset": {
    "kind": "synthetic", "n_rows": 500, "n_features": 8, "k_test": 100,
    "seed": DATASET_SEED}}

# Chain lengths per workload and scale: n_burn, n_train, n_test, test chains.
SIZES = {
    "full": {
        "mixture": (1_000, 10_000, 2_000, 100),
        "logistic": (1_000, 10_000, 500, 100),
        "banana": (5_000, 50_000, 20_000, 25),
    },
    "tiny": {
        "mixture": (1_000, 10_000, 300, 20),
        "logistic": (1_000, 10_000, 100, 10),
        "banana": (5_000, 50_000, 2_000, 10),
    },
}

MIXTURE_KERNELS = (("ula", 0.1), ("mala", 1.0), ("rwm", 0.5))

# Banana windows: the run's b_n_train is one of the sweep's training
# truncations, so that the two calls can be compared; the test window per
# scale must stay well below n_test.
BANANA_B_N = 300
BANANA_SWEEP = (30, 100, 300)
BANANA_B_N_TEST = {"full": 1_000, "tiny": 200}


def master_seeds(seed: int, workload: str, count: int) -> list:
    """Master seeds of a workload's experiments, a pure function of the
    benchmark seed."""
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    entropy = [seed, WORKLOADS.index(workload)]
    return [int(s) for s in np.random.SeedSequence(entropy).generate_state(count)]


def _doc(name, target, functional, family, sampler, gamma, sizes, seed, **extra):
    n_burn, n_train, n_test, chains = sizes
    doc = {
        "name": name,
        "target": target,
        "functional": functional,
        "family": family,
        "sampler": {"kind": sampler, "gamma": gamma},
        "n_burn": n_burn,
        "n_train": n_train,
        "n_test": n_test,
        "n_test_chains": chains,
        "seed": seed,
    }
    doc.update(extra)
    return doc


def experiments(workload: str, seed: int, scale: str = "full") -> list:
    """[{"doc": experiment document, "sweep": truncations or None}, ...]"""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    sizes = SIZES[scale][workload]
    if workload == "mixture":
        seeds = master_seeds(seed, workload, len(MIXTURE_KERNELS))
        return [
            {"doc": _doc(f"mixture-{kind}", MIXTURE_TARGET,
                         {"kind": "coordinate", "index": 0}, {"kind": "second_order"},
                         kind, gamma, sizes, s, b_n=50, methods=["esvm", "evm"]),
             "sweep": None}
            for (kind, gamma), s in zip(MIXTURE_KERNELS, seeds)
        ]
    if workload == "logistic":
        (s,) = master_seeds(seed, workload, 1)
        return [{"doc": _doc("logistic-ula", LOGISTIC_TARGET, {"kind": "test_likelihood"},
                             {"kind": "second_order"}, "ula", 0.1, sizes, s,
                             b_n=10, methods=["esvm", "evm"]),
                 "sweep": None}]
    (s,) = master_seeds(seed, workload, 1)
    # The chains start on the ridge at x1 = sqrt(p), one stationary standard
    # deviation out, where x2 sits at its stationary mean; started at the
    # origin they overstate E[x2] for tens of thousands of steps.
    x0 = [float(np.sqrt(BANANA_TARGET["p"])), 0.0]
    return [{"doc": _doc("banana-rwm", BANANA_TARGET, {"kind": "coordinate", "index": 1},
                         {"kind": "second_order"}, "rwm", 0.5, sizes, s,
                         b_n=BANANA_B_N, b_n_test=BANANA_B_N_TEST[scale], x0=x0,
                         methods=["esvm"]),
             "sweep": list(BANANA_SWEEP)}]
