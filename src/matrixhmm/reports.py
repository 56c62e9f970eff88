"""Plain-text serialization of fit reports, scenarios and result tables.

Fit reports and scenario files use a line-oriented key-value layout with
matrices written row-major at full decimal precision (`repr` round-trips
every float exactly).  Tables are comma-delimited with a header row.
"""

from __future__ import annotations

import numpy as np

from .ecm import FitReport, HmmParams, Posteriors
from .selection import SelectionReport
from .simulate import RecoveryReport, Scenario
from .structures import parse_structure, structure_name

FIT_REPORT_MAGIC = "matrixhmm fit report"
SCENARIO_MAGIC = "matrixhmm scenario"


def _matrix_lines(mat: np.ndarray) -> list[str]:
    return ["  " + " ".join(repr(float(x)) for x in row) for row in np.atleast_2d(mat)]


def _vector_line(vec) -> str:
    return " ".join(repr(float(x)) for x in np.asarray(vec).ravel())


class _LineReader:
    def __init__(self, text: str):
        self.lines = [ln for ln in text.splitlines() if ln.strip()]
        self.pos = 0

    def next(self) -> str:
        if self.pos >= len(self.lines):
            raise ValueError("unexpected end of report")
        line = self.lines[self.pos]
        self.pos += 1
        return line

    def expect(self, key: str) -> str:
        line = self.next()
        head, _, rest = line.partition(":")
        if head.strip() != key:
            raise ValueError(f"expected {key!r}, found {line.strip()!r}")
        return rest.strip()

    def matrix(self, rows: int) -> np.ndarray:
        data = [[float(x) for x in self.next().split()] for _ in range(rows)]
        return np.asarray(data)


def _write_state_blocks(lines: list[str], params: HmmParams) -> None:
    for k in range(params.K):
        lines.append(f"state: {k + 1}")
        lines.append("M:")
        lines.extend(_matrix_lines(params.means[k]))
        lines.append("Sigma:")
        lines.extend(_matrix_lines(params.sigmas[k]))
        lines.append("Psi:")
        lines.extend(_matrix_lines(params.psis[k]))


def _read_state_blocks(reader: _LineReader, K: int, P: int, R: int
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    means = np.empty((K, P, R))
    sigmas = np.empty((K, P, P))
    psis = np.empty((K, R, R))
    for k in range(K):
        if reader.expect("state") != str(k + 1):
            raise ValueError(f"state blocks out of order near state {k + 1}")
        reader.expect("M")
        means[k] = reader.matrix(P)
        reader.expect("Sigma")
        sigmas[k] = reader.matrix(P)
        reader.expect("Psi")
        psis[k] = reader.matrix(R)
    return means, sigmas, psis


def fit_report_text(report: FitReport) -> str:
    """Serialize a fit report (without posterior arrays) to text."""
    P, R, I, T = report.panel_dims
    lines = [
        FIT_REPORT_MAGIC,
        "version: 1",
        f"structure: {structure_name(report.structure)}",
        f"K: {report.K}",
        f"P: {P}",
        f"R: {R}",
        f"I: {I}",
        f"T: {T}",
        f"converged: {str(report.converged).lower()}",
        f"iterations: {report.iterations}",
        f"wall_time_s: {report.wall_time!r}",
        f"log_lik: {report.log_lik!r}",
        f"n_params: {report.n_params}",
        f"bic: {report.bic!r}",
        f"warnings: {'; '.join(report.warnings)}",
        f"pi: {_vector_line(report.params.pi)}",
        "Pi:",
        *_matrix_lines(report.params.Pi),
    ]
    _write_state_blocks(lines, report.params)
    lines.append(f"log_lik_trace: {_vector_line(report.log_lik_trace)}")
    lines.append("decoded:")
    for i in range(I):
        lines.append("  " + " ".join(str(int(s)) for s in report.decoded[i]))
    if report.unit_labels is not None:
        lines.append("unit_labels: " + ",".join(report.unit_labels))
    if report.time_labels is not None:
        lines.append("time_labels: " + ",".join(report.time_labels))
    return "\n".join(lines) + "\n"


def save_fit_report(report: FitReport, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(fit_report_text(report))


def load_fit_report(path) -> FitReport:
    """Parse a serialized fit report; posterior arrays are not stored."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    reader = _LineReader(text)
    if reader.next().strip() != FIT_REPORT_MAGIC:
        raise ValueError(f"{path}: not a fit report file")
    if reader.expect("version") != "1":
        raise ValueError(f"{path}: unsupported report version")
    pair = parse_structure(reader.expect("structure"))
    K = int(reader.expect("K"))
    P = int(reader.expect("P"))
    R = int(reader.expect("R"))
    I = int(reader.expect("I"))
    T = int(reader.expect("T"))
    converged = reader.expect("converged") == "true"
    iterations = int(reader.expect("iterations"))
    wall_time = float(reader.expect("wall_time_s"))
    log_lik = float(reader.expect("log_lik"))
    n_params = int(reader.expect("n_params"))
    bic_value = float(reader.expect("bic"))
    warn_raw = reader.expect("warnings")
    warnings = tuple(w.strip() for w in warn_raw.split(";") if w.strip())
    pi = np.array([float(x) for x in reader.expect("pi").split()])
    reader.expect("Pi")
    Pi = reader.matrix(K)
    means, sigmas, psis = _read_state_blocks(reader, K, P, R)
    trace = np.array([float(x) for x in reader.expect("log_lik_trace").split()])
    reader.expect("decoded")
    try:
        decoded = np.array([reader.next().split() for _ in range(I)], dtype=int)
    except ValueError:  # ragged rows or a label that is not an integer
        decoded = None
    if decoded is None or decoded.shape != (I, T) or np.any((decoded < 1) | (decoded > K)):
        raise ValueError(f"{path}: decoded must be {I} rows of {T} state labels in 1..{K}")
    labels = {"unit_labels": None, "time_labels": None}
    while reader.pos < len(reader.lines):
        line = reader.next()
        key, _, rest = (part.strip() for part in line.partition(":"))
        if key not in labels:
            raise ValueError(f"{path}: unexpected line {line.strip()!r}")
        labels[key] = tuple(rest.split(","))
        expected = I if key == "unit_labels" else T
        if len(labels[key]) != expected:
            raise ValueError(f"{path}: {key} has {len(labels[key])} entries, "
                             f"expected {expected}")
    params = HmmParams(pi, Pi, means, sigmas, psis)
    empty = Posteriors(np.zeros((0, 0, K)), np.zeros((0, 0, K, K)), log_lik)
    return FitReport(pair, params, empty, log_lik, trace, n_params, bic_value,
                     decoded, iterations, converged, wall_time, (P, R, I, T),
                     warnings, labels["unit_labels"], labels["time_labels"])


def scenario_text(scenario: Scenario) -> str:
    truth = scenario.truth
    lines = [
        SCENARIO_MAGIC,
        "version: 1",
        f"label: {scenario.label}",
        f"structure: {structure_name(scenario.structure)}",
        f"K: {truth.K}",
        f"P: {truth.P}",
        f"R: {truth.R}",
        f"I: {scenario.I}",
        f"T: {scenario.T}",
        f"replicates: {scenario.replicates}",
        f"overlap_shift: {'' if scenario.overlap_shift is None else repr(float(scenario.overlap_shift))}",
        f"pi: {_vector_line(truth.pi)}",
        "Pi:",
        *_matrix_lines(truth.Pi),
    ]
    _write_state_blocks(lines, truth)
    return "\n".join(lines) + "\n"


def save_scenario(scenario: Scenario, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(scenario_text(scenario))


def load_scenario(path) -> Scenario:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    reader = _LineReader(text)
    if reader.next().strip() != SCENARIO_MAGIC:
        raise ValueError(f"{path}: not a scenario file")
    if reader.expect("version") != "1":
        raise ValueError(f"{path}: unsupported scenario version")
    label = reader.expect("label")
    pair = parse_structure(reader.expect("structure"))
    K = int(reader.expect("K"))
    P = int(reader.expect("P"))
    R = int(reader.expect("R"))
    I = int(reader.expect("I"))
    T = int(reader.expect("T"))
    replicates = int(reader.expect("replicates"))
    shift_raw = reader.expect("overlap_shift")
    shift = float(shift_raw) if shift_raw else None
    pi = np.array([float(x) for x in reader.expect("pi").split()])
    reader.expect("Pi")
    Pi = reader.matrix(K)
    means, sigmas, psis = _read_state_blocks(reader, K, P, R)
    truth = HmmParams(pi, Pi, means, sigmas, psis)
    return Scenario(label, pair, truth, I, T, replicates, shift)


def selection_table_lines(report: SelectionReport, include_timing: bool = True
                          ) -> list[str]:
    """Comma-delimited selection table, one row per grid cell."""
    header = "structure,K,log_lik,n_params,bic,status"
    if include_timing:
        header += ",seconds"
    lines = [header]
    for cell in report.cells:
        row = [structure_name(cell.structure), str(cell.K),
               repr(float(cell.log_lik)), str(cell.n_params),
               repr(float(cell.bic)), cell.status]
        if include_timing:
            row.append(repr(float(cell.seconds)))
        lines.append(",".join(row))
    return lines


def save_selection_table(report: SelectionReport, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(selection_table_lines(report)) + "\n")


def recovery_table_lines(reports) -> list[str]:
    """One row per (scenario, parameter block) with the averaged MSE."""
    lines = ["scenario,parameter,mse,replicates"]
    for rec in reports:
        for name, value in rec.mse.items():
            lines.append(f"{rec.scenario},{name},{value!r},{rec.replicates}")
    return lines


def save_recovery_table(reports, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(recovery_table_lines(reports)) + "\n")


def fit_timing_table_lines(report: RecoveryReport) -> list[str]:
    lines = ["scenario,replicate,seconds"]
    for rep, sec in enumerate(report.seconds):
        lines.append(f"{report.scenario},{rep + 1},{sec!r}")
    return lines


def timing_table_lines(rows) -> list[str]:
    lines = ["scenario,mode,workers,seconds"]
    for row in rows:
        lines.append(f"{row.scenario},{row.mode},{row.workers},{row.seconds!r}")
    return lines


def save_timing_table(rows, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(timing_table_lines(rows)) + "\n")


def decode_tables(report: FitReport) -> tuple[list[str], list[str]]:
    """State-label table and per-time switch counts from a fit report.

    Returns (state_lines, switch_lines): the first is a long-format
    ``unit,time,state`` table, the second counts the units that changed
    state at each time from the second onward.
    """
    P, R, I, T = report.panel_dims
    units = report.unit_labels or tuple(str(i) for i in range(1, I + 1))
    times = report.time_labels or tuple(str(t) for t in range(1, T + 1))
    state_lines = ["unit,time,state"]
    for i in range(I):
        for t in range(T):
            state_lines.append(f"{units[i]},{times[t]},{int(report.decoded[i, t])}")
    switch_lines = ["time,switches"]
    for t in range(1, T):
        switches = int(np.sum(report.decoded[:, t] != report.decoded[:, t - 1]))
        switch_lines.append(f"{times[t]},{switches}")
    return state_lines, switch_lines
