"""Tests of the benchmark itself: tiny passes through the command, the
checks rejecting corrupted outputs, and the tracer.

    python3 -m pytest benchmarks/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import checks
import inputs
import oracle
import workloads
import matrixhmm as mh
from matrixhmm import ecm, selection, structures
from tracing import Tracer

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, *args):
    return subprocess.run([sys.executable, "benchmarks/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_pass_through_the_command(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.1",
                "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stderr
    # only the VVE fits on their fixed panels may fail, one per round each
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= {"recovery": 0, "select": 2, "fit-wide": 2}[workload]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "recovery", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _params(K, P, R, seed=0):
    rng = np.random.default_rng(seed)
    sig, psi = [], []
    for _ in range(K):
        A = rng.normal(size=(P, P))
        sig.append(A @ A.T + P * np.eye(P))
        B = rng.normal(size=(R, R))
        b = B @ B.T + R * np.eye(R)
        psi.append(b / np.linalg.det(b) ** (1.0 / R))
    return mh.HmmParams(rng.dirichlet(np.ones(K)), rng.dirichlet(np.ones(K), size=K),
                        rng.normal(size=(K, P, R)), np.stack(sig), np.stack(psi))


def test_loglik_check_accepts_program_and_rejects_perturbation():
    params = _params(3, 3, 2)
    X = np.random.default_rng(1).normal(scale=2.0, size=(6, 5, 3, 2))
    reported = ecm._e_step_arrays(X, params).log_lik
    assert checks.loglik_matches(reported, X, params, "ok") == []
    assert checks.loglik_matches(reported * (1 + 1e-6), X, params, "bad")


def test_trace_check_rejects_a_drop_and_a_non_unit_determinant():
    psis = np.stack([np.eye(2), np.diag([2.0, 0.5])])
    assert checks.trace_and_determinants([-10.0, -9.0, -8.5], psis, "ok") == []
    assert checks.trace_and_determinants([-10.0, -9.0, -9.5], psis, "drop")
    assert checks.trace_and_determinants([-10.0, -9.0], 1.01 * psis, "det")


def test_a_drop_on_a_fixed_vve_fit_counts_as_failed_not_incorrect():
    psis = np.stack([np.eye(2), np.diag([2.0, 0.5])])
    fit = SimpleNamespace(log_lik_trace=[-10.0, -9.0, -9.5],
                          params=SimpleNamespace(psis=psis))
    assert workloads.known_fault(fit, "drop") == ([], 1)
    fit.log_lik_trace = [-10.0, -9.0, -8.5]
    assert workloads.known_fault(fit, "rise") == ([], 0)
    fit.params.psis = 1.01 * psis
    assert workloads.known_fault(fit, "det")[0]


def test_mse_check_rejects_a_value_above_its_bound():
    good = {"M": 0.001, "Sigma": 0.002, "Psi": 0.003, "pi": 0.01, "Pi": 0.001}
    assert checks.mse_within_bounds(good, good) == []
    bad = dict(good, M=0.03)
    assert checks.mse_within_bounds(bad, bad)
    assert checks.mse_within_bounds(good, bad)          # report disagrees


def test_selection_tables_differing_between_worker_counts_are_rejected():
    table = ["structure,K,log_lik,n_params,bic,status",
             "EII-II,1,-10.5,5,25.0,ok", "EII-II,2,-8.25,12,30.1,ok"]
    assert checks.outputs_identical(table, list(table), "tables") == []
    other = table[:2] + ["EII-II,2,-8.250000001,12,30.1,ok"]
    assert checks.outputs_identical(table, other, "tables")


def test_n_params_table_matches_the_program_and_rejects_a_wrong_count():
    for sigma, psi in structures.all_structure_pairs():
        for K, P, R in ((1, 2, 3), (3, 4, 2), (4, 10, 8)):
            assert oracle.free_params(sigma, psi, K, P, R) == \
                selection.n_free_params((sigma, psi), K, P, R)
    cell = selection.CellResult(("VVV", "VV"), 2, "ok", -1.0, 999, 0.0, 0.0)
    assert checks.n_params_match([cell], 2, 2)


def test_means_check_rejects_a_swapped_state():
    truth = inputs.fit_wide_truth()["means"]
    assert checks.means_within(truth[::-1] + 0.01, truth, 0.05, "permuted") == []
    wrong = truth.copy()
    wrong[0] = truth[1]
    assert checks.means_within(wrong, truth, 0.05, "merged")


def test_tracer_counts_every_iteration_and_restores_the_module():
    scen = mh.get_scenario("VVE-VE/K2/T5/overlap2")
    panel, _ = mh.generate(scen, 0, seed=5)
    config = mh.FitConfig(short_runs=4, short_iters=2, seed=5)
    plain = ecm.fit(panel, "VVE-VE", 2, config)
    originals = (ecm.fit, ecm.cm_step1, structures.mm_orientation)
    tracer = Tracer()
    tracer.install()
    try:
        traced = ecm.fit(panel, "VVE-VE", 2, config)
    finally:
        tracer.uninstall()
    assert (ecm.fit, ecm.cm_step1, structures.mm_orientation) == originals
    assert traced.log_lik == plain.log_lik
    m = tracer.metrics()
    assert m["ecm.short.iters"] == 4 * 2
    assert m["ecm.long.iters"] == plain.iterations
    assert tracer.calls["ecm.cm_step1"] == 4 * 2 + plain.iterations
    assert m["structures.mm_orientation.calls"] == 2 * tracer.calls["ecm.cm_step1"]
    spans = m["ecm.estep.s"] + m["ecm.cm_step1.s"] + m["ecm.cm_step2.s"]
    assert 0 < spans < m["ecm.short.s"] + m["ecm.long.s"]
