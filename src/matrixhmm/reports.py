"""Plain-text serialization of fit reports, scenarios and result tables.

Fit reports and scenario files use a line-oriented key-value layout with
matrices written row-major at full decimal precision (`repr` round-trips
every float exactly).  Tables are comma-delimited with a header row.
"""

from __future__ import annotations

import numpy as np

from .ecm import FitReport, HmmParams, Posteriors
from .panel import _check_labels, _labels_or_numbers
from .selection import SelectionReport
from .simulate import RecoveryReport, Scenario
from .structures import parse_structure, structure_name

FIT_REPORT_MAGIC = "matrixhmm fit report"
SCENARIO_MAGIC = "matrixhmm scenario"


def _matrix_lines(mat: np.ndarray) -> list[str]:
    return ["  " + " ".join(repr(float(x)) for x in row) for row in np.atleast_2d(mat)]


def _vector_line(vec) -> str:
    return " ".join(repr(float(x)) for x in np.asarray(vec).ravel())


def _write(path, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _write_lines(path, lines) -> None:
    """Write a table's lines, each ended by a newline."""
    _write(path, "\n".join(lines) + "\n")


def _model_text(magic: str, head, pair, params: HmmParams, I: int, T: int,
                middle, tail) -> str:
    """The layout fit reports and scenario files share: magic and version,
    the caller's ``head`` lines, structure and dimensions, the caller's
    ``middle`` lines, ``pi``, ``Pi`` and one block per state, then ``tail``."""
    lines = [magic, "version: 1", *head, f"structure: {structure_name(pair)}",
             f"K: {params.K}", f"P: {params.P}", f"R: {params.R}", f"I: {I}",
             f"T: {T}", *middle, f"pi: {_vector_line(params.pi)}", "Pi:",
             *_matrix_lines(params.Pi)]
    for k in range(params.K):
        lines += [f"state: {k + 1}", "M:", *_matrix_lines(params.means[k]),
                  "Sigma:", *_matrix_lines(params.sigmas[k]),
                  "Psi:", *_matrix_lines(params.psis[k])]
    return "\n".join([*lines, *tail]) + "\n"


class _ModelReader:
    """Reads the layout :func:`_model_text` writes, skipping blank lines.
    Every ``ValueError`` it raises begins with the path, then the key."""

    def __init__(self, path, magic: str, what: str):
        self.path = path
        # a byte that is not UTF-8 reads as U+FFFD, which no magic line or number matches
        with open(path, encoding="utf-8", errors="replace") as fh:
            self.lines = [ln.strip() for ln in fh.read().splitlines() if ln.strip()]
        if not self.lines or self.lines[0] != magic:
            raise ValueError(f"{path}: not a {what} file")
        self.pos = 1
        if self.expect("version") != "1":
            raise self.error("version", f"is not 1: this {what} version is not supported")

    def error(self, key: str, problem: str) -> ValueError:
        return ValueError(f"{self.path}: {key} {problem}")

    def line(self, key: str, missing: str = "is missing") -> str:
        if self.pos >= len(self.lines):
            raise self.error(key, f"{missing}: unexpected end of file")
        self.pos += 1
        return self.lines[self.pos - 1]

    def expect(self, key: str) -> str:
        """The text after ``key:`` on the next line."""
        line = self.line(key)
        head, _, rest = line.partition(":")
        if head.strip() != key:
            raise self.error(key, f"is missing: found {line!r} in its place")
        return rest.strip()

    def value(self, key: str, parse):
        raw = self.expect(key)
        try:
            return parse(raw)
        except ValueError as exc:
            raise self.error(key, f"cannot be read from {raw!r}: {exc}") from None

    def row(self, key: str, raw: str, n: int, kind=float) -> list:
        """The ``n`` whitespace-separated entries of ``raw``."""
        try:
            entries = [kind(x) for x in raw.split()]
        except ValueError:
            raise self.error(key, f"has an entry that is not a valid {kind.__name__}: "
                                  f"{raw!r}") from None
        if len(entries) != n:
            raise self.error(key, f"has a row of {len(entries)} entries, expected {n}")
        return entries

    def matrix(self, key: str, rows: int, cols: int, kind=float) -> np.ndarray:
        self.expect(key)
        return np.array([self.row(key, self.line(key, "is missing rows"), cols, kind)
                         for _ in range(rows)])

    def dims(self) -> tuple:
        """The structure pair and the K, P, R, I, T dimensions."""
        pair = self.value("structure", parse_structure)
        sizes = [self.value(key, int) for key in "KPRIT"]
        for key, n in zip("KPRIT", sizes):
            if n < 1:
                raise self.error(key, f"is {n}, not >= 1")
        return (pair, *sizes)

    def params(self, K: int, P: int, R: int) -> HmmParams:
        """``pi``, ``Pi`` and the K state blocks, every row's length checked."""
        pi = self.row("pi", self.expect("pi"), K)
        Pi = self.matrix("Pi", K, K)
        blocks = []
        for k in range(1, K + 1):
            label = self.expect("state")
            if label != str(k):
                raise self.error("state", f"is {label!r}, expected {k}")
            blocks.append((self.matrix("M", P, R), self.matrix("Sigma", P, P),
                           self.matrix("Psi", R, R)))
        means, sigmas, psis = (np.array(stack) for stack in zip(*blocks))
        params = HmmParams(np.array(pi), Pi, means, sigmas, psis)
        try:
            params.validate()
        except ValueError as exc:  # pi or Pi is not stochastic
            raise ValueError(f"{self.path}: {exc}") from None
        return params


def _report_labels(source) -> list:
    """The ``(key, labels)`` pairs a fit report writes for ``source``, a panel
    or a report, each checked to load back from its comma-separated line."""
    pairs = [(key, getattr(source, key)) for key in ("unit_labels", "time_labels")
             if getattr(source, key) is not None]
    for key, labels in pairs:
        _check_labels(labels, ",", key)
    return pairs


def fit_report_text(report: FitReport) -> str:
    """Serialize a fit report (without posterior arrays) to text."""
    P, R, I, T = report.panel_dims
    middle = [
        f"converged: {str(report.converged).lower()}",
        f"iterations: {report.iterations}",
        f"wall_time_s: {report.wall_time!r}",
        f"log_lik: {report.log_lik!r}",
        f"n_params: {report.n_params}",
        f"bic: {report.bic!r}",
        f"warnings: {'; '.join(report.warnings)}",
    ]
    tail = [f"log_lik_trace: {_vector_line(report.log_lik_trace)}", "decoded:",
            *("  " + " ".join(str(int(s)) for s in row) for row in report.decoded)]
    tail += [f"{key}: " + ",".join(labels) for key, labels in _report_labels(report)]
    return _model_text(FIT_REPORT_MAGIC, [], report.structure, report.params, I, T,
                       middle, tail)


def save_fit_report(report: FitReport, path) -> None:
    _write(path, fit_report_text(report))


def load_fit_report(path) -> FitReport:
    """Parse a serialized fit report; posterior arrays are not stored."""
    reader = _ModelReader(path, FIT_REPORT_MAGIC, "fit report")
    pair, K, P, R, I, T = reader.dims()
    converged = reader.expect("converged")
    if converged not in ("true", "false"):
        raise reader.error("converged", f"is not true or false: {converged!r}")
    iterations = reader.value("iterations", int)
    wall_time = reader.value("wall_time_s", float)
    log_lik = reader.value("log_lik", float)
    n_params = reader.value("n_params", int)
    bic_value = reader.value("bic", float)
    warnings = tuple(w.strip() for w in reader.expect("warnings").split(";") if w.strip())
    params = reader.params(K, P, R)
    trace = np.array(reader.row("log_lik_trace", reader.expect("log_lik_trace"),
                                max(iterations, 0) + 1))
    decoded = reader.matrix("decoded", I, T, int)
    if np.any((decoded < 1) | (decoded > K)):
        raise reader.error("decoded", f"has a state label outside 1..{K}")
    labels = {"unit_labels": None, "time_labels": None}
    for line in reader.lines[reader.pos:]:
        key, _, rest = (part.strip() for part in line.partition(":"))
        if key not in labels:
            raise ValueError(f"{path}: unexpected line {line!r}")
        labels[key] = tuple(rest.split(","))
        expected = I if key == "unit_labels" else T
        if len(labels[key]) != expected:
            raise reader.error(key, f"has {len(labels[key])} entries, expected {expected}")
    empty = Posteriors(np.zeros((0, 0, K)), np.zeros((0, 0, K, K)), float(trace[-1]))
    report = FitReport(pair, params, empty, trace, decoded, converged == "true",
                       wall_time, (P, R, I, T), warnings, labels["unit_labels"],
                       labels["time_labels"])
    for key, stated in (("iterations", iterations), ("log_lik", log_lik),
                        ("n_params", n_params), ("bic", bic_value)):
        if stated != getattr(report, key):
            raise reader.error(key, f"is {stated!r}, but the report's other entries "
                                    f"give {getattr(report, key)!r}")
    return report


def scenario_text(scenario: Scenario) -> str:
    shift = scenario.overlap_shift
    head = [f"label: {scenario.label}"]
    middle = [f"replicates: {scenario.replicates}",
              f"overlap_shift: {'' if shift is None else repr(float(shift))}"]
    return _model_text(SCENARIO_MAGIC, head, scenario.structure, scenario.truth,
                       scenario.I, scenario.T, middle, [])


def save_scenario(scenario: Scenario, path) -> None:
    _write(path, scenario_text(scenario))


def load_scenario(path) -> Scenario:
    reader = _ModelReader(path, SCENARIO_MAGIC, "scenario")
    label = reader.expect("label")
    pair, K, P, R, I, T = reader.dims()
    replicates = reader.value("replicates", int)
    shift = reader.value("overlap_shift", lambda raw: float(raw) if raw else None)
    truth = reader.params(K, P, R)
    try:
        return Scenario(label, pair, truth, I, T, replicates, shift)
    except ValueError as exc:  # replicates below 1, or a label the tables cannot hold
        raise ValueError(f"{path}: {exc}") from None


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
    _write_lines(path, selection_table_lines(report))


def recovery_table_lines(reports) -> list[str]:
    """One row per (scenario, parameter block) with the averaged MSE."""
    lines = ["scenario,parameter,mse,replicates"]
    for rec in reports:
        for name, value in rec.mse.items():
            lines.append(f"{rec.scenario},{name},{value!r},{rec.replicates}")
    return lines


def save_recovery_table(reports, path) -> None:
    _write_lines(path, recovery_table_lines(reports))


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
    _write_lines(path, timing_table_lines(rows))


def decode_tables(report: FitReport) -> tuple[list[str], list[str]]:
    """State-label table and per-time switch counts from a fit report.

    Returns (state_lines, switch_lines): the first is a long-format
    ``unit,time,state`` table, the second counts the units that changed
    state at each time from the second onward.
    """
    P, R, I, T = report.panel_dims
    units = _labels_or_numbers(report.unit_labels, I)
    times = _labels_or_numbers(report.time_labels, T)
    state_lines = ["unit,time,state"]
    for i in range(I):
        for t in range(T):
            state_lines.append(f"{units[i]},{times[t]},{int(report.decoded[i, t])}")
    switch_lines = ["time,switches"]
    for t in range(1, T):
        switches = int(np.sum(report.decoded[:, t] != report.decoded[:, t - 1]))
        switch_lines.append(f"{times[t]},{switches}")
    return state_lines, switch_lines
