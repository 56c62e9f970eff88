import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import chisquare

import matrixhmm as mh
from oracles import fabricate_report, random_hmm_params


def test_builtin_scenarios_cover_the_grid():
    scenarios = mh.builtin_scenarios()
    assert len(scenarios) == 24
    labels = {s.label for s in scenarios}
    assert len(labels) == 24
    assert "EII-II/K2/T5/overlap2" in labels
    assert "VVE-VE/K4/T15/overlap1" in labels
    for s in scenarios:
        assert s.I == 100
        assert s.replicates == 50
        assert np.max(np.abs(s.truth.Pi.sum(axis=1) - 1.0)) < 1e-12
        assert np.max(np.abs(s.truth.pi.sum() - 1.0)) < 1e-12


def test_builtin_generating_matrices():
    vve = mh.get_scenario("VVE-VE/K2/T10/overlap2")
    assert np.array_equal(vve.truth.psis[1], [[1.25, 0.75], [0.75, 1.25]])
    assert np.array_equal(vve.truth.sigmas[0], [[0.85, 0.29], [0.29, 0.85]])
    assert vve.overlap_shift == 5.0
    assert np.array_equal(vve.truth.means[1] - vve.truth.means[0],
                          np.full((2, 2), 5.0))
    eii = mh.get_scenario("EII-II/K4/T5/overlap1")
    assert np.array_equal(eii.truth.means[2] - eii.truth.means[0],
                          np.full((2, 2), 4.0))
    assert np.array_equal(eii.truth.means[3] - eii.truth.means[0],
                          np.full((2, 2), -2.0))
    assert np.allclose(eii.truth.sigmas, 1.5 * np.eye(2))


def test_get_scenario_unknown_label_lists_builtins():
    with pytest.raises(ValueError, match="EII-II/K2/T5/overlap1"):
        mh.get_scenario("nope")


def identity_chain_scenario(T=6):
    truth = mh.HmmParams(
        pi=np.array([0.5, 0.5]), Pi=np.eye(2),
        means=np.stack([np.zeros((2, 2)), np.full((2, 2), 4.0)]),
        sigmas=np.tile(np.eye(2), (2, 1, 1)),
        psis=np.tile(np.eye(2), (2, 1, 1)))
    return mh.Scenario("test/identity", ("EII", "II"), truth, I=50, T=T,
                       replicates=1)


def test_generate_identity_chain_never_moves():
    _, states = mh.generate(identity_chain_scenario(), 0)
    assert np.all(states == states[:, :1])


def test_generate_is_reproducible():
    scen = mh.get_scenario("EII-II/K2/T5/overlap2")
    p1, s1 = mh.generate(scen, 3, seed=42)
    p2, s2 = mh.generate(scen, 3, seed=42)
    assert np.array_equal(p1.values, p2.values)
    assert np.array_equal(s1, s2)
    p3, _ = mh.generate(scen, 4, seed=42)
    assert not np.array_equal(p1.values, p3.values)


def test_generate_reaches_stationary_occupancy():
    scen = mh.get_scenario("EII-II/K2/T5/overlap2")
    from dataclasses import replace
    big = replace(scen, I=1000, T=200)
    _, states = mh.generate(big, 0)
    occupancy = np.bincount(states.ravel() - 1, minlength=2) / states.size
    assert np.max(np.abs(occupancy - np.array([1 / 3, 2 / 3]))) < 0.02


def test_generate_state_conditional_mean():
    scen = mh.get_scenario("EII-II/K2/T10/overlap2")
    from dataclasses import replace
    big = replace(scen, I=1000)
    panel, states = mh.generate(big, 0)
    X = panel.unit_time_stack()
    state1 = X[states == 1]
    assert np.max(np.abs(state1.mean(axis=0) - scen.truth.means[0])) < 0.05


def test_generated_transitions_match_chain():
    scen = mh.get_scenario("EII-II/K2/T15/overlap2")
    from dataclasses import replace
    big = replace(scen, I=1000)
    _, states = mh.generate(big, 0)
    counts = np.zeros((2, 2))
    for t in range(1, states.shape[1]):
        for j in range(2):
            for k in range(2):
                counts[j, k] += np.sum((states[:, t - 1] == j + 1)
                                       & (states[:, t] == k + 1))
    Pi = scen.truth.Pi
    for j in range(2):
        expected = Pi[j] * counts[j].sum()
        assert chisquare(counts[j], expected).pvalue > 1e-4


def test_align_states_identity_and_swap():
    rng = np.random.default_rng(0)
    truth = random_hmm_params(3, 2, 2, rng)
    assert np.array_equal(mh.align_states(truth, truth), [0, 1, 2])
    swapped = mh.HmmParams(truth.pi[[1, 0, 2]], truth.Pi[np.ix_([1, 0, 2], [1, 0, 2])],
                           truth.means[[1, 0, 2]], truth.sigmas[[1, 0, 2]],
                           truth.psis[[1, 0, 2]])
    assert np.array_equal(mh.align_states(swapped, truth), [1, 0, 2])


def test_align_states_recovers_permutation_under_noise():
    rng = np.random.default_rng(1)
    K = 3
    base = np.stack([np.full((2, 2), 2.0 * k) for k in range(K)])
    hits = 0
    for _ in range(100):
        perm = rng.permutation(K)
        noisy = base[perm] + rng.normal(scale=0.1, size=base.shape)
        est = mh.HmmParams(np.full(K, 1 / K), np.full((K, K), 1 / K), noisy,
                           np.tile(np.eye(2), (K, 1, 1)), np.tile(np.eye(2), (K, 1, 1)))
        truth = mh.HmmParams(np.full(K, 1 / K), np.full((K, K), 1 / K), base,
                             np.tile(np.eye(2), (K, 1, 1)), np.tile(np.eye(2), (K, 1, 1)))
        found = mh.align_states(est, truth)
        # found[k] should be the position where true state k landed
        hits += all(perm[found[k]] == k for k in range(K))
    assert hits == 100


def test_align_states_k_mismatch():
    rng = np.random.default_rng(2)
    with pytest.raises(ValueError, match="state counts differ"):
        mh.align_states(random_hmm_params(2, 2, 2, rng),
                        random_hmm_params(3, 2, 2, rng))


def test_recovery_mse_zero_for_exact_fits():
    scen = mh.get_scenario("EII-II/K2/T5/overlap2")
    fits = [fabricate_report(scen.truth, (2, 2, scen.I, scen.T))] * 3
    report = mh.recovery_mse(fits, scen)
    assert report.replicates == 3
    for name, value in report.mse.items():
        assert value == 0.0, name


def test_recovery_report_counts_its_replicates_from_their_timings():
    rec = mh.RecoveryReport("s1", {"M": 0.0}, alignments=((0, 1),) * 3,
                            seconds=(0.5, 0.25, 0.75))
    assert rec.replicates == len(rec.seconds) == 3


def test_scenario_rejects_a_label_with_a_comma():
    truth = mh.get_scenario("EII-II/K2/T5/overlap2").truth
    with pytest.raises(ValueError, match="label: label 'study A, panel 1' contains "
                                         "the delimiter ','"):
        mh.Scenario("study A, panel 1", ("EII", "II"), truth, I=10, T=3, replicates=1)


def test_scenario_rejects_an_asymmetric_truth():
    truth = mh.get_scenario("EII-II/K2/T5/overlap2").truth
    sigmas = truth.sigmas.copy()
    sigmas[1, 0, 1] = 0.9
    with pytest.raises(ValueError, match="^Sigma is not symmetric in state 2$"):
        mh.Scenario("asymmetric", ("EII", "II"), replace(truth, sigmas=sigmas), I=10, T=3)


def test_recovery_mse_is_permutation_invariant():
    rng = np.random.default_rng(3)
    scen = mh.get_scenario("VVE-VE/K2/T5/overlap1")
    est = mh.HmmParams(scen.truth.pi, scen.truth.Pi,
                       scen.truth.means + rng.normal(scale=0.05, size=(2, 2, 2)),
                       scen.truth.sigmas, scen.truth.psis)
    swapped = mh.HmmParams(est.pi[[1, 0]], est.Pi[np.ix_([1, 0], [1, 0])],
                           est.means[[1, 0]], est.sigmas[[1, 0]], est.psis[[1, 0]])
    dims = (2, 2, scen.I, scen.T)
    direct = mh.recovery_mse([fabricate_report(est, dims)], scen)
    permuted = mh.recovery_mse([fabricate_report(swapped, dims)], scen)
    for name in direct.mse:
        assert direct.mse[name] == pytest.approx(permuted.mse[name], abs=1e-15)


def test_recovery_mse_k_mismatch_error():
    rng = np.random.default_rng(4)
    scen = mh.get_scenario("EII-II/K2/T5/overlap2")
    wrong = fabricate_report(random_hmm_params(3, 2, 2, rng), (2, 2, 100, 5))
    with pytest.raises(ValueError, match="K=3"):
        mh.recovery_mse([wrong], scen)


def test_run_scenario_smoke():
    scen = mh.get_scenario("EII-II/K2/T5/overlap2", replicates=2)
    report = mh.run_scenario(scen, mh.FitConfig(short_runs=10))
    assert report.replicates == 2
    assert report.mse["M"] < 0.1
    assert report.mse["Pi"] < 0.05
    assert len(report.seconds) == 2


def test_run_scenario_worker_count_does_not_change_results():
    scen = mh.get_scenario("EII-II/K2/T5/overlap2", replicates=3)
    from dataclasses import replace
    scen = replace(scen, I=30)
    config = mh.FitConfig(short_runs=8)
    seq = mh.run_scenario(scen, config, seed=5, workers=1)
    par = mh.run_scenario(scen, config, seed=5, workers=2)
    assert seq.mse == par.mse
    assert seq.alignments == par.alignments


@pytest.mark.parametrize("workers", [0, -4])
def test_run_scenario_rejects_a_worker_count_below_one(workers):
    scen = mh.get_scenario("EII-II/K2/T5/overlap2", replicates=1)
    with pytest.raises(ValueError, match="workers"):
        mh.run_scenario(scen, mh.FitConfig(short_runs=1), workers=workers)


def test_run_scenario_refuses_a_hook_before_starting_a_pool(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was built")

    monkeypatch.setattr("matrixhmm.selection.ProcessPoolExecutor", no_pool)
    scen = mh.get_scenario("EII-II/K2/T5/overlap2", replicates=2)
    hooked = mh.FitConfig(short_runs=1, iter_hook=lambda *a: None)
    with pytest.raises(ValueError, match="^iter_hook cannot cross process boundaries; "
                                         "use workers=1$"):
        mh.run_scenario(scen, hooked, workers=2)


def test_timing_run_shape_and_overhead_bound():
    truth = mh.HmmParams(np.array([1.0]), np.array([[1.0]]),
                         np.zeros((1, 1, 2)), np.eye(1)[None], np.eye(2)[None])
    scen = mh.Scenario("test/tiny", ("EII", "II"), truth, I=12, T=3, replicates=1)
    config = mh.FitConfig(short_runs=1, max_iter=20)
    seconds = {"parallel": [], "sequential": []}
    for rep in range(21):
        modes = ("parallel", "sequential") if rep % 2 else ("sequential", "parallel")
        rows = mh.timing_run([scen], modes=modes, workers=1, config=config)
        assert [row.mode for row in rows] == list(modes)
        for row in rows:
            seconds[row.mode].append(row.seconds)
    # one worker runs in-process, so both modes do the same work; load from
    # other processes only adds time, so the fastest of many short, alternately
    # ordered repetitions per mode is the least disturbed measure of each
    assert min(seconds["parallel"]) >= 0.9 * min(seconds["sequential"])
    with pytest.raises(ValueError, match="unknown timing mode"):
        mh.timing_run([scen], modes=("warp",), config=config)


def test_timing_run_checks_every_mode_before_fitting(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("work ran before every mode was checked")

    monkeypatch.setattr("matrixhmm.selection.run_grid", never)
    monkeypatch.setattr("matrixhmm.simulate.generate", never)
    scen = mh.get_scenario("EII-II/K2/T5/overlap2")
    with pytest.raises(ValueError, match="^unknown timing mode 'warp'$"):
        mh.timing_run([scen], modes=("sequential", "warp"))
    with pytest.raises(ValueError, match="^workers must be >= 1$"):
        mh.timing_run([scen], modes=("sequential", "parallel"), workers=0)
    hooked = mh.FitConfig(iter_hook=lambda *a: None)
    with pytest.raises(ValueError, match="^iter_hook cannot cross process boundaries; "
                                         "use workers=1$"):
        mh.timing_run([scen], modes=("sequential", "parallel"), workers=2, config=hooked)


def test_timing_run_seeds_its_grids_from_the_study_seed(monkeypatch):
    seeds = []
    monkeypatch.setattr("matrixhmm.selection.run_grid",
                        lambda panel, grid, workers: seeds.append(grid.config.seed))
    scen = mh.get_scenario("EII-II/K2/T5/overlap2")
    mh.timing_run([scen], modes=("sequential",), seed=7, config=mh.FitConfig(seed=99))
    assert seeds == [7]


def test_import_leaves_scipy_unloaded():
    # align_states imports scipy.optimize when it runs, not at import
    src = str(Path(mh.__file__).resolve().parents[1])
    code = ("import sys, matrixhmm; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"
