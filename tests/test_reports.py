from dataclasses import replace

import numpy as np
import pytest

import matrixhmm as mh
from matrixhmm import reports

def fitted_report(tmp_path=None, K=2):
    scen = mh.get_scenario("EII-II/K2/T5/overlap2")
    from dataclasses import replace
    scen = replace(scen, I=20)
    panel, _ = mh.generate(scen, 0)
    panel = mh.MatrixPanel(panel.values,
                           unit_labels=[f"u{i}" for i in range(1, 21)],
                           time_labels=["2004", "2005", "2006", "2007", "2008"])
    return mh.fit(panel, "EII-II", K, mh.FitConfig(short_runs=8))


def test_fit_report_roundtrip(tmp_path):
    report = fitted_report()
    path = tmp_path / "fit.txt"
    reports.save_fit_report(report, path)
    back = reports.load_fit_report(path)
    assert back.structure == report.structure
    assert back.K == report.K
    assert back.panel_dims == report.panel_dims
    assert back.log_lik == report.log_lik
    assert back.bic == report.bic
    assert back.n_params == report.n_params
    assert back.iterations == report.iterations
    assert back.converged == report.converged
    assert np.array_equal(back.log_lik_trace, report.log_lik_trace)
    assert np.array_equal(back.decoded, report.decoded)
    assert back.unit_labels == report.unit_labels
    assert back.time_labels == report.time_labels
    for field in ("pi", "Pi", "means", "sigmas", "psis"):
        assert np.array_equal(getattr(back.params, field),
                              getattr(report.params, field)), field
    assert reports.fit_report_text(back) == path.read_text(encoding="utf-8")


def test_fit_report_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("not a report\n", encoding="utf-8")
    with pytest.raises(ValueError, match="not a fit report"):
        reports.load_fit_report(path)
    truncated = reports.fit_report_text(fitted_report()).splitlines()[:5]
    path.write_text("\n".join(truncated), encoding="utf-8")
    with pytest.raises(ValueError):
        reports.load_fit_report(path)


def corrupt_report_text(case):
    """A fit report (K=2, P=R=2, I=20, T=5) with one malformed block."""
    lines = reports.fit_report_text(fitted_report()).splitlines()
    first_row = lines.index("decoded:") + 1
    if case == "short-rows":  # every row one label short: a (20, 4) block
        for n in range(first_row, first_row + 20):
            lines[n] = lines[n].rsplit(" ", 1)[0]
    elif case == "unit-labels":
        at = next(n for n, ln in enumerate(lines) if ln.startswith("unit_labels:"))
        lines[at] = "unit_labels: u1,u2"
    elif case == "label-beyond-K":
        lines[first_row] = "  9" + lines[first_row][3:]
    elif case == "extra-pi":
        at = next(n for n, ln in enumerate(lines) if ln.startswith("pi:"))
        lines[at] += " 0.5"
    elif case.startswith("short-"):  # the first row of the named block, one entry short
        at = lines.index(case[len("short-"):] + ":") + 1
        lines[at] = lines[at].rsplit(" ", 1)[0]
    elif case == "not-stochastic-pi":
        at = next(n for n, ln in enumerate(lines) if ln.startswith("pi:"))
        lines[at] = "pi: 5.0 -4.0"
    elif case == "iterations":  # a negative count with a one-entry trace
        at = next(n for n, ln in enumerate(lines) if ln.startswith("iterations:"))
        lines[at] = "iterations: -1"
        at = next(n for n, ln in enumerate(lines) if ln.startswith("log_lik_trace:"))
        lines[at] = "log_lik_trace: " + lines[at].split()[-1]
    elif case in ("log_lik", "n_params", "bic", "warnings"):  # a stated value edited
        at = next(n for n, ln in enumerate(lines) if ln.startswith(f"{case}:"))
        lines[at] = {"log_lik": "log_lik: 3.0", "n_params": "n_params: 99",
                     "bic": "bic: 1.0", "warnings": "warnings: overparameterized"}[case]
    elif case == "word-K":
        lines[lines.index("K: 2")] = "K: two"
    elif case == "word-entry":
        lines[lines.index("Sigma:") + 1] = "  1.0 one"
    else:  # the file cut after the first row of Pi
        del lines[lines.index("Pi:") + 2:]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("case, key", [("short-rows", "decoded"),
                                       ("unit-labels", "unit_labels"),
                                       ("label-beyond-K", "decoded")])
def test_fit_report_rejects_a_malformed_decoded_block(tmp_path, case, key):
    path = tmp_path / "fit.txt"
    path.write_text(corrupt_report_text(case), encoding="utf-8")
    with pytest.raises(ValueError, match=f"fit.txt: {key} "):
        reports.load_fit_report(path)


@pytest.mark.parametrize("case, key", [("extra-pi", "pi"), ("short-M", "M"),
                                       ("short-Sigma", "Sigma"), ("short-Psi", "Psi"),
                                       ("short-Pi", "Pi"), ("word-K", "K"),
                                       ("word-entry", "Sigma"), ("cut-in-Pi", "Pi"),
                                       ("not-stochastic-pi", "pi")])
def test_fit_report_names_the_file_and_key_of_a_malformed_model_block(tmp_path, case,
                                                                      key):
    path = tmp_path / "fit.txt"
    path.write_text(corrupt_report_text(case), encoding="utf-8")
    with pytest.raises(ValueError, match=f"fit.txt: {key} "):
        reports.load_fit_report(path)


def edited_report_text(old: str, new: str) -> str:
    """A fitted report's text with its first line ``old`` replaced by ``new``
    (``new`` may hold several lines), or with ``new`` appended when ``old``
    is empty."""
    lines = reports.fit_report_text(fitted_report()).splitlines()
    if old:
        lines[lines.index(old)] = new
    else:
        lines.append(new)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("old, new, problem", [
    ("version: 1", "version: 2",
     "version is not 1: this fit report version is not supported"),
    ("K: 2", "P: 2\nK: 2", "K is missing: found 'P: 2' in its place"),
    ("K: 2", "K: 0", "K is 0, not >= 1"),
    ("state: 1", "state: 2", "state is '2', expected 1"),
    ("converged: true", "converged: maybe", "converged is not true or false: 'maybe'"),
    ("", "colour: blue", "unexpected line 'colour: blue'"),
])
def test_fit_report_reader_names_each_misplaced_or_invalid_entry(tmp_path, old, new,
                                                                problem):
    path = tmp_path / "fit.txt"
    path.write_text(edited_report_text(old, new), encoding="utf-8")
    with pytest.raises(ValueError) as info:
        reports.load_fit_report(path)
    assert str(info.value) == f"{path}: {problem}"


@pytest.mark.parametrize("key", ["iterations", "log_lik", "n_params", "bic", "warnings"])
def test_fit_report_rejects_a_value_its_other_entries_contradict(tmp_path, key):
    path = tmp_path / "fit.txt"
    path.write_text(corrupt_report_text(key), encoding="utf-8")
    with pytest.raises(ValueError, match=f"fit.txt: {key} .*other entries give"):
        reports.load_fit_report(path)


@pytest.mark.parametrize("label, problem", [("Reggio, Calabria", "contains the delimiter ','"),
                                            (" u2", "has leading or trailing blanks"),
                                            ("u1", "appears more than once")])
def test_fit_report_rejects_labels_that_would_not_load_back(label, problem):
    report = fitted_report()
    units = ("u1", label) + report.unit_labels[2:]
    with pytest.raises(ValueError, match=f"unit_labels: label '{label}' {problem}"):
        reports.fit_report_text(replace(report, unit_labels=units))


def test_scenario_roundtrip(tmp_path):
    scen = mh.get_scenario("VVE-VE/K4/T10/overlap1", replicates=7)
    path = tmp_path / "scenario.txt"
    reports.save_scenario(scen, path)
    back = reports.load_scenario(path)
    assert back.label == scen.label
    assert back.structure == scen.structure
    assert (back.I, back.T, back.replicates) == (scen.I, scen.T, 7)
    assert back.overlap_shift == scen.overlap_shift
    for field in ("pi", "Pi", "means", "sigmas", "psis"):
        assert np.array_equal(getattr(back.truth, field),
                              getattr(scen.truth, field))
    assert reports.scenario_text(back) == path.read_text(encoding="utf-8")


@pytest.mark.parametrize("case, key", [("short-M", "M"), ("no-replicates", "replicates")])
def test_scenario_file_errors_name_the_file_and_key(tmp_path, case, key):
    scen = mh.get_scenario("EII-II/K2/T5/overlap2", replicates=3)
    lines = reports.scenario_text(scen).splitlines()
    if case == "short-M":
        at = lines.index("M:") + 1
        lines[at] = lines[at].rsplit(" ", 1)[0]
    else:  # a Scenario validation error raised while loading
        lines[lines.index("replicates: 3")] = "replicates: 0"
    path = tmp_path / "scenario.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"scenario.txt: {key} "):
        reports.load_scenario(path)


def test_load_scenario_rejects_a_label_with_a_comma(tmp_path):
    scen = mh.get_scenario("EII-II/K2/T5/overlap2", replicates=3)
    lines = reports.scenario_text(scen).splitlines()
    lines[lines.index(f"label: {scen.label}")] = "label: study A, panel 1"
    path = tmp_path / "scenario.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match="scenario.txt: label: label 'study A, panel 1' "
                                         "contains the delimiter ','"):
        reports.load_scenario(path)


@pytest.mark.parametrize("load", [reports.load_fit_report, reports.load_scenario],
                         ids=["fit-report", "scenario"])
@pytest.mark.parametrize("block, rows, problem", [
    ("Sigma", ["  1.5 0.9", "  0.0 1.5"], "Sigma is not symmetric in state 2"),
    ("Psi", ["  1.0 2.0", "  2.0 1.0"], "Psi is not positive definite in state 2"),
    ("Sigma", ["  nan 0.0", "  0.0 nan"], "sigmas has an entry that is not finite")],
    ids=["asymmetric-Sigma", "indefinite-Psi", "nan-Sigma"])
def test_readers_reject_an_invalid_covariance(tmp_path, load, block, rows, problem):
    if load is reports.load_scenario:
        text = reports.scenario_text(mh.get_scenario("EII-II/K2/T5/overlap2"))
    else:
        text = reports.fit_report_text(fitted_report())
    lines = text.splitlines()
    at = lines.index(f"{block}:", lines.index("state: 2")) + 1
    lines[at:at + 2] = rows
    path = tmp_path / "model.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValueError) as info:
        load(path)
    assert str(info.value) == f"{path}: {problem}"


def test_selection_table_layout():
    report = mh.SelectionReport(
        cells=(mh.selection.CellResult(("EII", "II"), 1, "ok", -10.0, 5,
                                       30.0, 0.25),
               mh.selection.CellResult(("VVV", "VV"), 2, "failed", np.nan, 31,
                                       np.nan, 0.1, message="boom")))
    lines = reports.selection_table_lines(report)
    assert lines[0] == "structure,K,log_lik,n_params,bic,status,seconds"
    assert lines[1].startswith("EII-II,1,-10.0,5,30.0,ok,")
    assert lines[2].startswith("VVV-VV,2,nan,31,nan,failed,")
    stable = reports.selection_table_lines(report, include_timing=False)
    assert stable[0] == "structure,K,log_lik,n_params,bic,status"


def test_decode_tables_switch_counts_match_recount():
    labelled = fitted_report()
    I, T = labelled.panel_dims[2:]
    # unlabelled units and times are numbered from 1
    numbered = (tuple(str(i) for i in range(1, I + 1)), tuple(str(t) for t in range(1, T + 1)))
    for report, (units, times) in (
            (labelled, (labelled.unit_labels, labelled.time_labels)),
            (replace(labelled, unit_labels=None, time_labels=None), numbered)):
        state_lines, switch_lines = reports.decode_tables(report)
        assert len(state_lines) == 1 + I * T
        assert state_lines[0] == "unit,time,state"
        # recount oracle straight from the label table
        labels = {}
        for line in state_lines[1:]:
            unit, time, state = line.split(",")
            labels[(unit, time)] = int(state)
        for line, t in zip(switch_lines[1:], range(1, T)):
            time_lab, count = line.split(",")
            assert time_lab == times[t]
            expected = sum(labels[(u, times[t])] != labels[(u, times[t - 1])]
                           for u in units)
            assert int(count) == expected
        # pass-through: table agrees with the decoded matrix
        for i, u in enumerate(units):
            for t, tl in enumerate(times):
                assert labels[(u, tl)] == report.decoded[i, t]


def test_recovery_and_timing_tables():
    rec = mh.RecoveryReport("s1", {"M": 0.01, "Sigma": 0.002, "Psi": 0.003,
                                   "pi": 0.001, "Pi": 0.0005},
                            alignments=((0, 1),), seconds=(0.5,))
    lines = reports.recovery_table_lines([rec])
    assert lines[0] == "scenario,parameter,mse,replicates"
    assert "s1,M,0.01,1" in lines
    rows = [mh.simulate.TimingRow("s1", "sequential", 1, 2.0),
            mh.simulate.TimingRow("s1", "parallel", 4, 0.8)]
    tlines = reports.timing_table_lines(rows)
    assert tlines[0] == "scenario,mode,workers,seconds"
    assert tlines[1] == "s1,sequential,1,2.0"
    assert tlines[2] == "s1,parallel,4,0.8"
