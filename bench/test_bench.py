"""The benchmark's own tests: every workload runs to its end at the tiny
scale, in both modes, and every correctness check rejects a corrupted output.

    python3 -m pytest bench/test_bench.py
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import workloads
from run import END_TO_END, OUT
from tracing import PER_LAYER

BENCH = Path(__file__).resolve().parent
SEED = 11


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "0.1", "--trace", str(trace), "--scale", "tiny"],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def tiny_runs():
    """The tiny untraced run of every workload: its result line and the
    outputs of its rounds."""
    runs = {}
    for w in workloads.WORKLOADS:
        result = _run(w, 0)
        run_dir = OUT / f"{w}-seed{SEED}-trace0"
        exps = json.loads((run_dir / "manifest.json").read_text())["experiments"]
        rounds = sorted(run_dir.glob("round-*"))
        runs[w] = {"result": result, "run_dir": run_dir, "experiments": exps,
                   "rounds": rounds, "outputs": checks.read_round(rounds[0], exps)}
    return runs


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_is_complete_and_correct(tiny_runs, workload):
    result = tiny_runs[workload]["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(END_TO_END)
    assert all(v["value"] > 0 for v in result["metrics"].values())
    rounds = len(tiny_runs[workload]["rounds"])
    assert result["failed"] == 0
    assert result["attempted"] % rounds == 0 and result["attempted"] > 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_traced_run_reports_every_module(workload):
    result = _run(workload, 1)
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == dict(PER_LAYER)
    values = {k: v["value"] for k, v in metrics.items()}
    assert values["samplers.steps"] > 0 and values["targets.rows"] > 0
    assert values["fitting.calls"] > 0 and values["harness.report_bytes"] > 0
    assert values["config.load_s"] > 0
    assert values["samplers.self_s"] < values["samplers.s"]
    assert values["fitting.unconverged"] == 0
    if workload == "logistic":  # ULA never asks for the potential
        assert values["targets.potential_calls"] == 0
    if workload == "banana":  # RWM never asks for the gradient while sampling
        assert values["targets.value_and_grad_calls"] == 0


# -- every check rejects a corrupted output ------------------------------------------

def _outputs(tiny_runs, workload):
    return copy.deepcopy(tiny_runs[workload]["outputs"])


def _method(output, name):
    (m,) = [m for m in output["report"]["methods"] if m["method"] == name]
    return m


def test_stein_identity_rejects_a_shifted_trace_term(tiny_runs, monkeypatch):
    outputs = _outputs(tiny_runs, "mixture")
    assert checks.check_stein_identity(outputs, np.random.default_rng(0)) == []
    exact = checks.control_variate

    def shifted(family, theta, x, grad):
        # tr(A) + 0.05 in the divergence of Phi = b + A x
        return exact(family, theta, x, grad) + 0.05

    monkeypatch.setattr(checks, "control_variate", shifted)
    assert len(checks.check_stein_identity(outputs, np.random.default_rng(0))) == 6


def test_stein_identity_holds_for_any_parameters_on_every_target():
    rng = np.random.default_rng(3)
    for spec in (workloads.MIXTURE_TARGET, workloads.BANANA_TARGET):
        x = checks.exact_draws(spec, checks.STEIN_DRAWS, rng)
        theta = rng.standard_normal(6)
        values = checks.control_variate({"kind": "second_order"}, theta, x,
                                        checks.grad_potential(spec, x))
        assert abs(checks.z_score(values)) <= checks.STEIN_Z
        assert abs(checks.z_score(values + 0.1 * values.std())) > checks.STEIN_Z


@pytest.mark.parametrize("workload", ["mixture", "banana"])
def test_exact_moment_rejects_a_shifted_average(tiny_runs, workload):
    outputs = _outputs(tiny_runs, workload)
    assert checks.check_exact_moments(outputs) == []
    o = outputs[-1]
    m = _method(o, "esvm")
    spread = np.std(o["report"]["vanilla"]["averages"])
    m["averages"] = [a + 3.0 * spread for a in m["averages"]]
    assert len(checks.check_exact_moments(outputs)) == 1


def test_means_agree_rejects_a_shifted_average(tiny_runs):
    outputs = _outputs(tiny_runs, "logistic")
    assert checks.check_exact_moments(outputs) == []
    raw = outputs[0]["report"]["vanilla"]["averages"]
    shift = 2.0 * (max(raw) - min(raw))
    m = _method(outputs[0], "esvm")
    m["averages"] = [a + shift for a in m["averages"]]
    assert len(checks.check_exact_moments(outputs)) == 1


@pytest.mark.parametrize("workload", ["mixture", "logistic", "banana"])
def test_variance_reduction_rejects_swapped_averages(tiny_runs, workload):
    outputs = _outputs(tiny_runs, workload)
    assert checks.check_variance_reduction(outputs) == []
    o = outputs[-1]
    m = _method(o, "esvm")
    m["averages"], o["report"]["vanilla"]["averages"] = (o["report"]["vanilla"]["averages"],
                                                         m["averages"])
    assert len(checks.check_variance_reduction(outputs)) == 1


def test_training_criterion_rejects_a_fit_that_made_it_worse_or_negative(tiny_runs):
    outputs = _outputs(tiny_runs, "logistic")
    assert checks.check_training_criterion(outputs, []) == []
    fit = _method(outputs[0], "evm")["fit"]
    fit["objective_at_theta"] = 2.0 * fit["objective_at_zero"]
    assert len(checks.check_training_criterion(outputs, [])) == 1
    fit["objective_at_theta"] = -1e-9
    assert len(checks.check_training_criterion(outputs, [])) == 1
    # a negative criterion is the failure of that fit, not a wrong output
    assert checks.check_training_criterion(outputs, ["logistic-ula/evm/fit"]) == []


def test_sweep_rejects_a_row_that_differs_from_the_run(tiny_runs):
    outputs = _outputs(tiny_runs, "banana")
    assert checks.check_sweep_matches_run(outputs) == []
    b = outputs[0]["report"]["config"]["b_n_train"]
    (row,) = [r for r in outputs[0]["sweep"] if r["b_n"] == b]
    row["mean_vrf"] *= 1.0 + 1e-9
    assert len(checks.check_sweep_matches_run(outputs)) == 1


def test_reproducibility_rejects_a_changed_byte(tiny_runs, tmp_path):
    run = tiny_runs["mixture"]
    copies = []
    for d in run["rounds"][:2]:
        copies.append(tmp_path / d.name)
        shutil.copytree(d, copies[-1])
    assert checks.check_reproducible(copies, run["experiments"]) == []
    vrf = copies[1] / "mixture-rwm" / "vrf.csv"
    text = vrf.read_text()
    vrf.write_text(text[:-2] + ("1" if text[-2] != "1" else "0") + "\n")
    assert len(checks.check_reproducible(copies, run["experiments"])) == 1


def test_failures_reject_a_failed_fit_or_scoring(tiny_runs):
    outputs = _outputs(tiny_runs, "mixture")
    _, failed = checks.operations(outputs)
    assert checks.check_failures(failed) == []
    _method(outputs[1], "esvm")["fit"]["converged"] = False
    _method(outputs[0], "evm")["infinite"][4] = True
    _, failed = checks.operations(outputs)
    assert failed == ["mixture-ula/evm/chain-5", "mixture-mala/esvm/fit"]
    assert len(checks.check_failures(failed)) == 1
    outputs = _outputs(tiny_runs, "banana")
    outputs[0]["sweep"][0]["infinite_count"] = 2
    _, failed = checks.operations(outputs)
    assert failed == ["banana-rwm/sweep-30/chain"] * 2


def test_seed_reaches_every_master_seed():
    a = workloads.experiments("mixture", 1)
    b = workloads.experiments("mixture", 2)
    assert a == workloads.experiments("mixture", 1)
    assert [e["doc"]["seed"] for e in a] != [e["doc"]["seed"] for e in b]
    assert len({e["doc"]["seed"] for e in a}) == 3


def test_benchmark_json_lists_what_the_runs_print():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "bench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
