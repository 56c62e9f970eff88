"""Four-way data panels: container, long-format file I/O, logit transform.

A panel holds one P x R matrix per (unit, time) pair, indexed (p, r, i, t)
and stored as the (I, T, P, R) stack the fit reads.  On disk a panel is a
delimited long-format table with header ``unit,time,row_level,col_level,value``
and one cell per row; the cross-product of the four key columns must be complete.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

PANEL_COLUMNS = ("unit", "time", "row_level", "col_level", "value")


@dataclass(frozen=True)
class MatrixPanel:
    """Immutable 4-way array of matrix observations.

    Parameters
    ----------
    values : ndarray, shape (P, R, I, T)
        Entry (p, r, i, t) is cell (p, r) of the matrix observed on unit
        i at time t.  The panel keeps the observations as one read-only,
        C-contiguous (I, T, P, R) array, which it shares rather than copies
        when ``values`` is already a view of one; ``values`` becomes the
        (P, R, I, T) view of that array.
    unit_labels, time_labels : sequence of str, optional
        Labels preserved verbatim from the source file.
    """

    values: np.ndarray
    unit_labels: tuple | None = None
    time_labels: tuple | None = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 4:
            raise ValueError(f"panel values must be a 4-way array, got {values.ndim} axes")
        if min(values.shape) < 1:
            raise ValueError(f"all four panel dimensions must be >= 1, got {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("panel values must all be finite")
        stack = np.ascontiguousarray(np.transpose(values, (2, 3, 0, 1)))
        stack.flags.writeable = False
        object.__setattr__(self, "values", np.transpose(stack, (2, 3, 0, 1)))
        for name, labels, n in (
            ("unit_labels", self.unit_labels, values.shape[2]),
            ("time_labels", self.time_labels, values.shape[3]),
        ):
            if labels is not None:
                labels = tuple(str(lab) for lab in labels)
                if len(labels) != n:
                    raise ValueError(f"{name} has {len(labels)} entries, expected {n}")
                object.__setattr__(self, name, labels)

    @property
    def dims(self) -> tuple[int, int, int, int]:
        return self.values.shape

    @property
    def P(self) -> int:
        return self.values.shape[0]

    @property
    def R(self) -> int:
        return self.values.shape[1]

    @property
    def I(self) -> int:
        return self.values.shape[2]

    @property
    def T(self) -> int:
        return self.values.shape[3]

    def slice_unit_time(self, i: int, t: int) -> np.ndarray:
        """Return the P x R matrix of unit ``i`` at time ``t`` (1-based)."""
        if not 1 <= i <= self.I:
            raise IndexError(f"unit index {i} out of range 1..{self.I}")
        if not 1 <= t <= self.T:
            raise IndexError(f"time index {t} out of range 1..{self.T}")
        return self.values[:, :, i - 1, t - 1].copy()

    def unit_time_stack(self) -> np.ndarray:
        """Return the observations as a read-only (I, T, P, R) array, no copy."""
        return np.transpose(self.values, (2, 3, 0, 1))

    def __reduce__(self):
        # the constructor puts an unpickled (P, R, I, T) array back in stack order
        return MatrixPanel, (self.values, self.unit_labels, self.time_labels)


def _ordered_labels(raw) -> list[str]:
    """Distinct labels, sorted numerically when they all parse as numbers."""
    labels = set(raw)
    try:
        return sorted(labels, key=float)
    except ValueError:
        return sorted(labels)


def _labels_or_numbers(labels, n: int) -> tuple:
    """``labels``, or "1" to ``n`` for unlabelled units or times."""
    return labels or tuple(str(k) for k in range(1, n + 1))


def _check_labels(labels, separator: str, name: str) -> None:
    """Reject labels that a file split on ``separator`` cannot give back.

    Readers split the text with str.splitlines, then on the separator, and
    strip blanks, so a label may hold neither a separator nor a line break,
    may not differ from its ``strip()``, and may not repeat.
    """
    seen = set()
    for label in labels:
        if separator in label or len(f"{label}.".splitlines()) > 1:
            raise ValueError(f"{name}: label {label!r} contains the delimiter "
                             f"{separator!r} or a line break")
        if label != label.strip():
            raise ValueError(f"{name}: label {label!r} has leading or trailing blanks")
        if label in seen:
            raise ValueError(f"{name}: label {label!r} appears more than once")
        seen.add(label)


def load_panel(path, delimiter: str = ",") -> MatrixPanel:
    """Read a long-format delimited file into a :class:`MatrixPanel`.

    The file must carry the header ``unit,time,row_level,col_level,value``
    and exactly one row per cell of the complete cross-product.  Unit and
    time labels are ordered numerically when all of them parse as numbers,
    lexicographically otherwise.
    """
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()

    header = None
    cells: dict[tuple, float] = {}
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        fields = [f.strip() for f in line.split(delimiter)]
        if header is None:
            header = tuple(fields)
            if header != PANEL_COLUMNS:
                raise ValueError(
                    f"expected header {','.join(PANEL_COLUMNS)!r}, got {line.strip()!r}"
                )
            continue
        if len(fields) != 5:
            raise ValueError(f"line {lineno}: expected 5 fields, got {len(fields)}")
        unit, time, row, col, raw = fields
        try:
            value = float(raw)
        except ValueError:
            raise ValueError(f"line {lineno}: could not parse value {raw!r}") from None
        if not math.isfinite(value):
            raise ValueError(f"line {lineno}: value {raw!r} is not finite")
        key = (unit, time, row, col)
        if key in cells:
            raise ValueError(
                f"duplicate cell (unit={unit}, time={time}, row_level={row}, "
                f"col_level={col}) on line {lineno}"
            )
        cells[key] = value
    if header is None:
        raise ValueError("panel file is empty")
    if not cells:
        raise ValueError("panel file has no data rows")

    units = _ordered_labels(k[0] for k in cells)
    times = _ordered_labels(k[1] for k in cells)
    rows = _ordered_labels(k[2] for k in cells)
    cols = _ordered_labels(k[3] for k in cells)
    # keys are distinct and drawn from the four label sets, so the count
    # proves completeness; the walk only names the first missing cell
    if len(cells) != len(units) * len(times) * len(rows) * len(cols):
        for unit, time, row, col in product(units, times, rows, cols):
            if (unit, time, row, col) not in cells:
                raise ValueError(
                    f"incomplete panel: missing cell (unit={unit}, time={time}, "
                    f"row_level={row}, col_level={col})"
                )

    stack = np.empty((len(units), len(times), len(rows), len(cols)))
    row_idx = {lab: n for n, lab in enumerate(rows)}
    col_idx = {lab: n for n, lab in enumerate(cols)}
    unit_idx = {lab: n for n, lab in enumerate(units)}
    time_idx = {lab: n for n, lab in enumerate(times)}
    for (unit, time, row, col), value in cells.items():
        stack[unit_idx[unit], time_idx[time], row_idx[row], col_idx[col]] = value
    return MatrixPanel(np.transpose(stack, (2, 3, 0, 1)), tuple(units), tuple(times))


def save_panel(panel: MatrixPanel, path, delimiter: str = ",") -> None:
    """Write a panel as a long-format delimited file (inverse of load)."""
    P, R, I, T = panel.dims
    units = _labels_or_numbers(panel.unit_labels, I)
    times = _labels_or_numbers(panel.time_labels, T)
    _check_labels(units, delimiter, "unit_labels")
    _check_labels(times, delimiter, "time_labels")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(delimiter.join(PANEL_COLUMNS) + "\n")
        for i, t, p, r in product(range(I), range(T), range(P), range(R)):
            fh.write(
                delimiter.join(
                    (units[i], times[t], str(p + 1), str(r + 1),
                     repr(float(panel.values[p, r, i, t])))
                )
                + "\n"
            )


def logit_transform(panel: MatrixPanel) -> MatrixPanel:
    """Map every entry x in (0, 1) to log(x / (1 - x))."""
    v = panel.values
    bad = (v <= 0.0) | (v >= 1.0)
    if np.any(bad):
        p, r, i, t = (int(n) + 1 for n in np.argwhere(bad)[0])
        raise ValueError(
            f"logit domain error: value {v[p - 1, r - 1, i - 1, t - 1]!r} at "
            f"(p={p}, r={r}, unit={i}, time={t}) is not strictly inside (0, 1)"
        )
    return MatrixPanel(np.log(v / (1.0 - v)), panel.unit_labels, panel.time_labels)
