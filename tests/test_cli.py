import argparse
import re
import shlex
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import matrixhmm as mh
from matrixhmm import reports
from matrixhmm.cli import _fit_config, build_parser, main
from oracles import fabricate_report, random_hmm_params


@pytest.fixture()
def two_state_csv(tmp_path):
    scen = mh.get_scenario("EII-II/K2/T5/overlap2")
    from dataclasses import replace
    panel, _ = mh.generate(replace(scen, I=30), 0)
    path = tmp_path / "panel.csv"
    mh.save_panel(panel, path)
    return path


def test_fit_smoke_writes_report(two_state_csv, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["fit", "--data", str(two_state_csv), "--structure", "EII-II",
                 "--K", "1", "--out-dir", str(out), "--short-runs", "5"])
    assert code == 0
    report_path = out / "fit_EII-II_K1.txt"
    assert report_path.is_file()
    report = reports.load_fit_report(report_path)
    assert np.isfinite(report.bic)
    console = capsys.readouterr().out
    assert "bic:" in console
    assert "state 1 mean:" in console


@pytest.fixture()
def comma_label_panel(tmp_path):
    values = np.random.default_rng(0).normal(size=(2, 2, 3, 4))
    panel = mh.MatrixPanel(values, unit_labels=("Reggio, Calabria", "Milano", "Roma"))
    path = tmp_path / "panel.csv"
    mh.save_panel(panel, path, delimiter=";")
    return path


def never_fit(*args, **kwargs):
    raise AssertionError("a fit ran")


def test_fit_rejects_an_unwritable_label_before_fitting(comma_label_panel, tmp_path,
                                                        monkeypatch, capsys):
    monkeypatch.setattr("matrixhmm.cli.fit", never_fit)
    out = tmp_path / "out"
    code = main(["fit", "--data", str(comma_label_panel), "--delimiter", ";",
                 "--structure", "VVV-VV", "--K", "2", "--out-dir", str(out)])
    assert code == 2
    assert ("unit_labels: label 'Reggio, Calabria' contains the delimiter ','"
            in capsys.readouterr().err)
    assert not out.exists()


def test_select_rejects_an_unwritable_label_before_fitting(comma_label_panel, tmp_path,
                                                           monkeypatch, capsys):
    monkeypatch.setattr("matrixhmm.ecm.fit", never_fit)
    out = tmp_path / "out"
    code = main(["select", "--data", str(comma_label_panel), "--delimiter", ";",
                 "--Ks", "1,2", "--structures", "EII-II", "--out-dir", str(out)])
    assert code == 2
    assert ("unit_labels: label 'Reggio, Calabria' contains the delimiter ','"
            in capsys.readouterr().err)
    assert not out.exists()


def test_fit_unknown_structure_usage_error(two_state_csv, tmp_path, capsys):
    code = main(["fit", "--data", str(two_state_csv), "--structure", "XYZ",
                 "--K", "1", "--out-dir", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "valid names" in err
    assert "EII" in err and "VVV" in err


def test_fit_negative_max_iter_usage_error(two_state_csv, tmp_path, capsys):
    code = main(["fit", "--data", str(two_state_csv), "--structure", "EII-II",
                 "--K", "1", "--out-dir", str(tmp_path), "--max-iter", "-3"])
    assert code == 2
    assert "max_iter" in capsys.readouterr().err
    assert not list(tmp_path.glob("fit_*.txt"))


def test_fit_more_states_than_observations_is_a_failed_fit(tmp_path, capsys):
    data = tmp_path / "panel.csv"
    mh.save_panel(mh.MatrixPanel(np.random.default_rng(3).normal(size=(2, 2, 2, 2))), data)
    out = tmp_path / "out"
    code = main(["fit", "--data", str(data), "--structure", "EII-II", "--K", "5",
                 "--out-dir", str(out)])
    assert code == 1
    assert "cannot draw 5 distinct mean matrices from 4 observations" in capsys.readouterr().err
    assert not out.exists()


def test_fit_option_defaults_are_the_library_defaults():
    args = build_parser().parse_args(["fit", "--data", "panel.csv",
                                      "--structure", "EII-II", "--K", "2"])
    assert _fit_config(args) == mh.FitConfig()


def test_select_single_cell_matches_library(two_state_csv, tmp_path, capsys):
    out = tmp_path / "sel"
    code = main(["select", "--data", str(two_state_csv), "--Ks", "1,2",
                 "--structures", "EII-II", "--out-dir", str(out),
                 "--short-runs", "8", "--seed", "5"])
    assert code == 0
    table = (out / "selection.csv").read_text().splitlines()
    assert table[0] == "structure,K,log_lik,n_params,bic,status,seconds"
    assert len(table) == 3

    panel = mh.load_panel(two_state_csv)
    grid = mh.ModelGrid(structures=(("EII", "II"),), Ks=(1, 2),
                        config=mh.FitConfig(short_runs=8, seed=5))
    lib = mh.run_grid(panel, grid)
    winner = capsys.readouterr().out
    assert f"best model by BIC: EII-II with K={lib.best[1]}" in winner
    lib_lines = reports.selection_table_lines(lib, include_timing=False)
    cli_lines = [",".join(row.split(",")[:6]) for row in table]
    assert cli_lines == lib_lines
    assert (out / "best_fit.txt").is_file()


class _GridCaught(Exception):
    pass


def _catch_grid(panel, grid, workers=1):
    raise _GridCaught(grid)


@pytest.mark.parametrize("argv, Ks, structures", [
    (["--Ks", "1-3", "--structures", "EII-II"], (1, 2, 3), (("EII", "II"),)),
    (["--Ks", " 2-2 ", "--structures", "VVV-VV,eii-ii"], (2,),
     (("VVV", "VV"), ("EII", "II"))),
    (["--Ks", "3,1,3", "--structures", "all"], (1, 3), tuple(mh.all_structure_pairs())),
    (["--Ks", "2"], (2,), tuple(mh.all_structure_pairs())),
], ids=["range", "range-of-one", "all", "default-all"])
def test_select_passes_the_parsed_grid(two_state_csv, tmp_path, monkeypatch,
                                       argv, Ks, structures):
    monkeypatch.setattr("matrixhmm.selection.run_grid", _catch_grid)
    with pytest.raises(_GridCaught) as caught:
        main(["select", "--data", str(two_state_csv), "--out-dir", str(tmp_path / "out"),
              "--short-runs", "4", "--seed", "9", *argv])
    grid = caught.value.args[0]
    assert grid.Ks == Ks
    assert grid.structures == structures
    assert grid.config == mh.FitConfig(short_runs=4, seed=9)


def test_select_repeated_structure_usage_error(two_state_csv, tmp_path, monkeypatch,
                                               capsys):
    monkeypatch.setattr("matrixhmm.selection.run_grid", _catch_grid)
    code = main(["select", "--data", str(two_state_csv), "--Ks", "2",
                 "--structures", "EII-II,eii-ii", "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert "structure EII-II is repeated" in capsys.readouterr().err


def test_select_logit_domain_error_before_fitting(tmp_path, capsys):
    values = np.full((1, 1, 2, 2), 0.25)
    values[0, 0, 1, 1] = 1.0
    path = tmp_path / "rates.csv"
    mh.save_panel(mh.MatrixPanel(values), path)
    code = main(["select", "--data", str(path), "--Ks", "1", "--logit",
                 "--out-dir", str(tmp_path)])
    assert code == 2
    assert "logit domain error" in capsys.readouterr().err


def test_fit_logit_on_rates(tmp_path):
    rng = np.random.default_rng(0)
    values = rng.uniform(0.1, 0.9, size=(2, 2, 10, 3))
    path = tmp_path / "rates.csv"
    mh.save_panel(mh.MatrixPanel(values), path)
    code = main(["fit", "--data", str(path), "--structure", "EII-II", "--K", "1",
                 "--logit", "--out-dir", str(tmp_path), "--short-runs", "3"])
    assert code == 0


def test_simulate_builtin_smoke_and_determinism(tmp_path, capsys):
    args = ["simulate", "--scenario", "EII-II/K2/T5/overlap2",
            "--replicates", "2", "--short-runs", "10", "--seed", "3"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out-dir", str(out1)]) == 0
    assert main(args + ["--out-dir", str(out2)]) == 0
    rec1 = (out1 / "recovery.csv").read_text()
    rec2 = (out2 / "recovery.csv").read_text()
    assert rec1 == rec2
    for line in rec1.splitlines()[1:]:
        mse = float(line.split(",")[2])
        assert np.isfinite(mse) and mse >= 0.0
    assert (out1 / "fit_timing.csv").is_file()


def test_simulate_unknown_scenario_lists_builtins(tmp_path, capsys):
    code = main(["simulate", "--scenario", "bogus", "--out-dir", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "EII-II/K2/T5/overlap1" in err


def test_simulate_scenario_file(tmp_path):
    scen = mh.get_scenario("EII-II/K2/T5/overlap2", replicates=1)
    scen = replace(scen, I=20, label="custom/tiny")
    scen_path = tmp_path / "scen.txt"
    reports.save_scenario(scen, scen_path)
    code = main(["simulate", "--scenario", str(scen_path), "--short-runs", "5",
                 "--out-dir", str(tmp_path)])
    assert code == 0
    rows = (tmp_path / "recovery.csv").read_text().splitlines()[1:]
    assert rows and all(row.startswith("custom/tiny,") and row.endswith(",1")
                        for row in rows)
    # --replicates overrides the count the file states
    out = tmp_path / "two"
    code = main(["simulate", "--scenario", str(scen_path), "--replicates", "2",
                 "--short-runs", "5", "--out-dir", str(out)])
    assert code == 0
    rows = (out / "recovery.csv").read_text().splitlines()[1:]
    assert rows and all(row.startswith("custom/tiny,") and row.endswith(",2")
                        for row in rows)
    assert len((out / "fit_timing.csv").read_text().splitlines()) == 1 + 2


def test_decode_passthrough_and_switch_counts(two_state_csv, tmp_path):
    out = tmp_path / "out"
    assert main(["fit", "--data", str(two_state_csv), "--structure", "EII-II",
                 "--K", "1", "--out-dir", str(out), "--short-runs", "3"]) == 0
    report_path = out / "fit_EII-II_K1.txt"
    assert main(["decode", "--report", str(report_path),
                 "--out-dir", str(out)]) == 0
    states = (out / "states.csv").read_text().splitlines()
    switches = (out / "switches.csv").read_text().splitlines()
    report = reports.load_fit_report(report_path)
    P, R, I, T = report.panel_dims
    assert len(states) == 1 + I * T
    assert all(line.endswith(",1") for line in states[1:])  # K = 1
    assert all(int(line.split(",")[1]) == 0 for line in switches[1:])
    # pass-through: every row equals the decoded matrix entry
    for line in states[1:]:
        unit, time, state = line.split(",")
        i = int(unit) - 1
        t = int(time) - 1
        assert int(state) == report.decoded[i, t]


def test_decode_corrupt_report(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("garbage\n", encoding="utf-8")
    assert main(["decode", "--report", str(bad), "--out-dir", str(tmp_path)]) == 2
    assert "not a fit report" in capsys.readouterr().err


def test_decode_malformed_report_writes_no_table(tmp_path, capsys):
    params = random_hmm_params(2, 2, 2, np.random.default_rng(0))
    report = fabricate_report(params, (2, 2, 3, 4))
    bad = tmp_path / "fit.txt"
    reports.save_fit_report(replace(report, decoded=np.full((3, 4), 9)), bad)
    assert main(["decode", "--report", str(bad), "--out-dir", str(tmp_path)]) == 2
    assert "fit.txt: decoded" in capsys.readouterr().err
    assert not (tmp_path / "states.csv").exists()


def test_decode_short_mean_row_names_the_file(tmp_path, capsys):
    params = random_hmm_params(2, 2, 2, np.random.default_rng(0))
    lines = reports.fit_report_text(fabricate_report(params, (2, 2, 3, 4))).splitlines()
    at = lines.index("M:") + 1
    lines[at] = lines[at].rsplit(" ", 1)[0]
    bad = tmp_path / "fit.txt"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["decode", "--report", str(bad), "--out-dir", str(tmp_path)]) == 2
    assert f"error: {bad}: M has a row of 1 entries, expected 2" in capsys.readouterr().err
    assert not (tmp_path / "states.csv").exists()


def test_fit_refit_recovers_transition_matrix(tmp_path):
    # VEV-EE truth: shared shape, per-state volumes and orientations
    def rot(theta):
        c, s = np.cos(theta), np.sin(theta)
        return np.array([[c, -s], [s, c]])

    delta = np.diag([2.0, 0.5])
    sigmas = np.stack([1.0 * rot(0.5) @ delta @ rot(0.5).T,
                       2.0 * rot(1.2) @ delta @ rot(1.2).T])
    psi = np.array([[1.25, 0.75], [0.75, 1.25]])
    truth = mh.HmmParams(
        pi=np.array([0.5, 0.5]), Pi=np.array([[0.7, 0.3], [0.2, 0.8]]),
        means=np.stack([np.zeros((2, 2)), np.full((2, 2), 4.0)]),
        sigmas=sigmas, psis=np.stack([psi, psi]))
    scen = mh.Scenario("test/vev-ee", ("VEV", "EE"), truth, I=100, T=16,
                       replicates=1)
    panel, _ = mh.generate(scen, 0, seed=21)
    data = tmp_path / "panel.csv"
    mh.save_panel(panel, data)

    out = tmp_path / "fit"
    code = main(["fit", "--data", str(data), "--structure", "VEV-EE", "--K", "2",
                 "--out-dir", str(out), "--short-runs", "25", "--seed", "11"])
    assert code == 0
    report = reports.load_fit_report(out / "fit_VEV-EE_K2.txt")
    perm = mh.align_states(report.params, truth)
    fitted_Pi = report.params.Pi[np.ix_(perm, perm)]
    assert np.max(np.abs(fitted_Pi - truth.Pi)) < 0.1


def test_bench_writes_timing_table(tmp_path, monkeypatch):
    # keep the bench fast: stub the built-in lookup with a tiny scenario
    truth = mh.HmmParams(np.array([1.0]), np.array([[1.0]]),
                         np.zeros((1, 2, 2)), np.eye(2)[None], np.eye(2)[None])
    tiny = mh.Scenario("tiny", ("EII", "II"), truth, I=10, T=3, replicates=1)
    monkeypatch.setattr("matrixhmm.cli.simulate.get_scenario",
                        lambda label, replicates=None: tiny)
    out = tmp_path / "bench"
    code = main(["bench", "--scenarios", "tiny", "--modes", "sequential",
                 "--workers", "1", "--out-dir", str(out),
                 "--short-runs", "2", "--max-iter", "15"])
    assert code == 0
    lines = (out / "timing.csv").read_text().splitlines()
    assert lines[0] == "scenario,mode,workers,seconds"
    assert len(lines) == 2
    assert lines[1].startswith("tiny,sequential,1,")


def test_programming_errors_propagate_out_of_main(two_state_csv, tmp_path,
                                                  monkeypatch, capsys):
    argv = ["fit", "--data", str(two_state_csv), "--structure", "EII-II",
            "--K", "1", "--out-dir", str(tmp_path)]

    def broken(*args, **kwargs):
        raise TypeError("bug in the fit")

    monkeypatch.setattr("matrixhmm.cli.fit", broken)
    with pytest.raises(TypeError, match="bug in the fit"):
        main(argv)

    def failing(*args, **kwargs):
        raise mh.FitFailureError("every start failed")

    monkeypatch.setattr("matrixhmm.cli.fit", failing)
    assert main(argv) == 1
    assert "every start failed" in capsys.readouterr().err


def test_readme_command_lines_parse_and_cover_every_subcommand():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    shell = "".join(re.findall(r"```bash\n(.*?)```", readme, flags=re.S))
    lines = [line.strip() for line in shell.replace("\\\n", " ").splitlines()
             if line.strip().startswith("matrixhmm ")]
    parser = build_parser()
    used = set()
    for line in lines:
        args = parser.parse_args(shlex.split(line)[1:])
        used.add(args.command)
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    assert used == set(commands)


def test_every_option_of_every_command_has_help_text():
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    missing = [f"{name} {action.option_strings[-1]}"
               for name, sub in commands.items() for action in sub._actions
               if action.option_strings and not (action.help or "").strip()]
    assert missing == []
