from dataclasses import replace

import numpy as np
import pytest

import matrixhmm as mh
from matrixhmm import ecm
from matrixhmm.selection import CellResult, SelectionReport, bic_winner, cell_seed
from oracles import fabricate_report


def separated_panel(rng, I=30, T=4):
    scen = mh.Scenario(
        label="sel/two-state", structure=("EII", "II"),
        truth=mh.HmmParams(
            pi=np.array([0.5, 0.5]),
            Pi=np.array([[0.7, 0.3], [0.3, 0.7]]),
            means=np.stack([np.zeros((2, 2)), np.full((2, 2), 6.0)]),
            sigmas=np.tile(np.eye(2), (2, 1, 1)),
            psis=np.tile(np.eye(2), (2, 1, 1))),
        I=I, T=T, replicates=1)
    panel, _ = mh.generate(scen, 0, seed=int(rng.integers(1 << 30)))
    return panel


def test_n_free_params_examples():
    assert mh.n_free_params("EII-II", 1, 2, 2) == 0 + 0 + 4 + 1 + 0
    assert mh.n_free_params(("VVV", "VV"), 2, 2, 3) == 1 + 2 + 12 + 6 + 10
    # K = 1: the chain contributes nothing for any structure
    for pair in [("EII", "II"), ("VVE", "VE"), ("VEV", "EE")]:
        total = mh.n_free_params(pair, 1, 3, 2)
        covs = (mh.count_sigma_params(pair[0], 1, 3)
                + mh.count_psi_params(pair[1], 1, 2))
        assert total == 3 * 2 + covs


def test_n_free_params_strictly_monotone_in_K():
    for pair in mh.all_structure_pairs():
        values = [mh.n_free_params(pair, K, 3, 2) for K in range(1, 6)]
        assert all(b > a for a, b in zip(values, values[1:])), pair


def test_bic_formula():
    assert mh.bic(0.0, 0, 17) == 0.0
    ll = -123.4
    assert mh.bic(ll, 6, 100) - mh.bic(ll, 5, 100) == pytest.approx(np.log(100))
    with pytest.raises(ValueError):
        mh.bic(0.0, 1, 0)


def test_model_grid_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        mh.ModelGrid(structures=(("EII", "II"),), Ks=(2, 2))
    with pytest.raises(ValueError, match="at least one"):
        mh.ModelGrid(structures=(), Ks=(1,))
    # the same pair twice would fit the same cell, with the same seed, twice
    with pytest.raises(ValueError, match="^structure EII-II is repeated$"):
        mh.ModelGrid(structures=("EII-II", "VVV-VV", "eii-ii"), Ks=(1,))
    with pytest.raises(ValueError, match="^structure VVV-VV is repeated$"):
        mh.ModelGrid(structures=(("VVV", "VV"), "vvv-vv"), Ks=(1,))
    grid = mh.ModelGrid(structures=("EII-II", ("VVV", "VV")), Ks=(1, 2))
    assert grid.cells() == [(("EII", "II"), 1), (("EII", "II"), 2),
                            (("VVV", "VV"), 1), (("VVV", "VV"), 2)]


def test_single_cell_grid_equals_direct_fit():
    rng = np.random.default_rng(0)
    panel = separated_panel(rng)
    config = mh.FitConfig(short_runs=8, seed=99)
    grid = mh.ModelGrid(structures=(("EII", "II"),), Ks=(2,), config=config)
    report = mh.run_grid(panel, grid)
    cell = report.cells[0]
    direct_config = mh.FitConfig(short_runs=8,
                                 seed=cell_seed(99, ("EII", "II"), 2))
    direct = mh.fit(panel, "EII-II", 2, direct_config)
    assert cell.status == "ok"
    assert cell.log_lik == direct.log_lik
    assert cell.bic == direct.bic
    assert report.best == (("EII", "II"), 2)


def test_failed_cell_is_recorded_not_fatal():
    rng = np.random.default_rng(1)
    panel = separated_panel(rng, I=2, T=2)  # only 4 observations
    grid = mh.ModelGrid(structures=(("EII", "II"),), Ks=(1, 5),
                        config=mh.FitConfig(short_runs=3))
    report = mh.run_grid(panel, grid)
    statuses = {cell.K: cell.status for cell in report.cells}
    assert statuses[1] == "ok"
    assert statuses[5] == "failed"
    assert report.best == (("EII", "II"), 1)
    assert len(report.failures) == 1


def test_programming_errors_propagate_out_of_the_grid(monkeypatch):
    rng = np.random.default_rng(5)
    panel = separated_panel(rng, I=4, T=2)
    grid = mh.ModelGrid(structures=(("EII", "II"),), Ks=(1,))
    for error in (TypeError, ValueError):  # only a FitError marks a cell failed

        def broken(*args, **kwargs):
            raise error("bug in the fit")

        monkeypatch.setattr(ecm, "fit", broken)
        with pytest.raises(error, match="bug in the fit"):
            mh.run_grid(panel, grid, workers=1)


def test_a_cell_with_more_states_than_observations_fails_before_fitting():
    panel = separated_panel(np.random.default_rng(7), I=2, T=2)
    grid = mh.ModelGrid(structures=(("EII", "II"),), Ks=(5,))
    with pytest.raises(mh.GridError, match="EII-II K=5: cannot draw 5 distinct mean "
                                           "matrices from 4 observations"):
        mh.run_grid(panel, grid)


def test_unconverged_cells_are_reported_as_warnings():
    rng = np.random.default_rng(6)
    panel = separated_panel(rng, I=20, T=4)
    grid = mh.ModelGrid(structures=(("EII", "II"), ("VVV", "VV")), Ks=(1, 2),
                        config=mh.FitConfig(short_runs=3, max_iter=2))
    report = mh.run_grid(panel, grid)
    unconverged = [c for c in report.cells
                   if c.status == "ok" and not c.report.converged]
    assert unconverged
    for cell in unconverged:
        assert (f"{mh.structure_name(cell.structure)} K={cell.K} did not converge "
                f"within max_iter=2 iterations") in report.warnings
    assert sum("did not converge" in w for w in report.warnings) == len(unconverged)


def test_grid_error_when_everything_fails():
    panel = mh.MatrixPanel(np.zeros((2, 2, 4, 2)))
    grid = mh.ModelGrid(structures=(("VVV", "VV"),), Ks=(2,),
                        config=mh.FitConfig(short_runs=2))
    with pytest.raises(mh.GridError):
        mh.run_grid(panel, grid)


def test_grid_parallel_matches_sequential():
    rng = np.random.default_rng(2)
    panel = separated_panel(rng)
    grid = mh.ModelGrid(structures=(("EII", "II"), ("VVI", "VI"), ("EEE", "EE")),
                        Ks=(1, 2), config=mh.FitConfig(short_runs=5))
    seq = mh.run_grid(panel, grid, workers=1)
    par = mh.run_grid(panel, grid, workers=2)
    assert seq.best == par.best
    for a, b in zip(seq.cells, par.cells):
        assert (a.structure, a.K, a.status) == (b.structure, b.K, b.status)
        assert a.log_lik == b.log_lik
        assert a.bic == b.bic
        for field in ("pi", "Pi", "means", "sigmas", "psis"):
            assert np.array_equal(getattr(a.report.params, field),
                                  getattr(b.report.params, field))


def test_cell_seed_deterministic_and_distinct():
    pairs = mh.all_structure_pairs()
    seeds = {cell_seed(7, pair, K) for pair in pairs for K in (1, 2, 3)}
    assert len(seeds) == len(pairs) * 3
    assert cell_seed(7, ("EVE", "VE"), 2) == cell_seed(7, ("EVE", "VE"), 2)


def _cell(pair, K, log_lik, n_params):
    return CellResult(pair, K, "ok", log_lik, n_params,
                      mh.bic(log_lik, n_params, 100), 0.0)


def test_bic_winner_and_alternate_convention():
    # model B pays 12 extra parameters for +25 log-likelihood (deviance
    # gain 50): with n_obs = 100 the penalty is 55.3 (A wins), with
    # n_obs = 10 it is 27.6 (B wins), so the warning logic sees a flip
    a = _cell(("EII", "II"), 1, -1000.0, 5)
    b = _cell(("VVV", "VV"), 1, -975.0, 17)
    assert bic_winner([a, b], 100) is a
    assert bic_winner([a, b], 10) is b
    failed = CellResult(("EEE", "EE"), 1, "failed", np.nan, 9, np.nan, 0.0)
    assert bic_winner([failed], 100) is None
    # a grid report of the two cells, fitted at I = T = 10, carries the flip
    fitted = fabricate_report(mh.get_scenario("EII-II/K2/T5/overlap2").truth, (2, 2, 10, 10))
    report = SelectionReport(tuple(replace(c, report=fitted) for c in (a, b)))
    assert report.best == (("EII", "II"), 1)
    assert report.best_report() is fitted
    assert report.failures == ()
    assert report.warnings == ("winner differs under the alternate sample-size "
                               "convention (n = I): VVV-VV K=1",)


def test_run_grid_argument_validation():
    rng = np.random.default_rng(3)
    panel = separated_panel(rng, I=4, T=2)
    grid = mh.ModelGrid(structures=(("EII", "II"),), Ks=(1,))
    with pytest.raises(ValueError, match="workers"):
        mh.run_grid(panel, grid, workers=0)
    hooked = mh.ModelGrid(structures=(("EII", "II"),), Ks=(1,),
                          config=mh.FitConfig(iter_hook=lambda *a: None))
    with pytest.raises(ValueError, match="iter_hook"):
        mh.run_grid(panel, hooked, workers=2)


def test_nested_structures_keep_likelihood_order():
    # the unconstrained pair cannot do worse than a constrained one
    rng = np.random.default_rng(4)
    panel = separated_panel(rng, I=40, T=5)
    config = mh.FitConfig(short_runs=15)
    grid = mh.ModelGrid(structures=(("VVV", "VV"), ("EII", "II"), ("VVI", "VI")),
                        Ks=(2,), config=config)
    report = mh.run_grid(panel, grid)
    by_pair = {cell.structure: cell.log_lik for cell in report.cells}
    assert by_pair[("VVV", "VV")] >= by_pair[("EII", "II")] - 1e-6
    assert by_pair[("VVV", "VV")] >= by_pair[("VVI", "VI")] - 1e-6
