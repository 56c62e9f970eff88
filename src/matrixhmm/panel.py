"""Four-way data panels: container, long-format file I/O, logit transform.

A panel holds one P x R matrix per (unit, time) pair, indexed (p, r, i, t)
and stored as the (I, T, P, R) stack the fit reads.  On disk a panel is a
delimited long-format table with header ``unit,time,row_level,col_level,value``
and one cell per row; the cross-product of the four key columns must be complete.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from itertools import product
from pathlib import Path

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
    """Distinct labels, sorted as text, then stably by value when all are numbers."""
    labels = sorted(set(raw))
    try:
        return sorted(labels, key=float)
    except ValueError:
        return labels


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


# The reader splits and codes the text in chunks of at least this many
# characters.  On a Xeon, a 20,000-row file's traced peak was 3.7x its size at
# 2**12, 4.0x at 2**14 and 7.2x at 2**17; read times differed within the noise.
_CHUNK_CHARS = 1 << 12
_PROBLEMS = ("line {n}: expected 5 fields, got {c}", "line {n}: could not parse value {f[4]!r}",
             "line {n}: value {f[4]!r} is not finite", "duplicate cell (unit={f[0]}, "
             "time={f[1]}, row_level={f[2]}, col_level={f[3]}) on line {n}")  # in check order


def load_panel(path, delimiter: str = ",") -> MatrixPanel:
    """Read a long-format delimited file into a :class:`MatrixPanel`.

    The file must carry the header ``unit,time,row_level,col_level,value``
    and exactly one row per cell of the complete cross-product.  Unit and
    time labels are ordered numerically when all of them parse as numbers,
    lexicographically otherwise.  Every error message begins with the path.
    """
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        n = len((data[:exc.start].decode("utf-8") + ".").splitlines())
        raise ValueError(f"{path}: line {n}: byte {data[exc.start]:#04x} is not UTF-8") from None
    del data
    tables = ({}, {}, {}, {})  # label -> code, per key column
    codes, values = [array("i") for _ in tables], array("d")
    header, stop, start = None, None, 0
    while start < len(text) and stop is None:
        end = text.find("\n", start + _CHUNK_CHARS) + 1 or len(text)
        start, rows = end, list(filter(str.strip, text[start:end].splitlines()))
        if header is None and rows:
            header, rows = rows[0], rows[1:]
            if tuple(f.strip() for f in header.split(delimiter)) != PANEL_COLUMNS:
                raise ValueError(f"{path}: expected header {','.join(PANEL_COLUMNS)!r}, "
                                 f"got {header.strip()!r}")
        fields = [line.split(delimiter) for line in rows]
        k = next((n for n, f in enumerate(fields) if len(f) != 5), len(fields))
        cols, done = list(zip(*fields[:k])) or [()] * 5, len(values)
        try:
            values.extend(map(float, map(str.strip, cols[4])))
        except ValueError:  # the values parsed so far stay, so their count finds the line
            k = len(values) - done
        for table, col, out in zip(tables, cols, codes):
            col = list(map(str.strip, col[:k]))
            table.update((label, m) for m, label in enumerate(set(col) - table.keys(), len(table)))
            out.extend(map(table.__getitem__, col))
        if k < len(fields):
            stop = (done + k, int(len(fields[k]) == 5))
    if header is None:
        raise ValueError(f"{path}: panel file is empty")
    if not values and stop is None:
        raise ValueError(f"{path}: panel file has no data rows")

    labels = [_ordered_labels(table) for table in tables]
    sizes = tuple(map(len, labels))
    keys = [np.argsort([table[label] for label in labs])[np.frombuffer(c, np.int32)]
            for table, labs, c in zip(tables, labels, codes)]  # each cell's place in label order
    failures = [] if stop is None else [stop]
    failures += [(row, 2) for row in np.flatnonzero(~np.isfinite(values))[:1]]
    if complete := 0 < len(values) == math.prod(sizes):
        flat = np.ravel_multi_index(keys, sizes)
        complete = np.bincount(flat, minlength=len(values)).max() == 1
    if failures or not complete:  # the first line that repeats an earlier cell
        order = np.lexsort(keys)
        same = np.logical_and.reduce([key[order[1:]] == key[order[:-1]] for key in keys])
        failures += [(row, 3) for row in np.sort(order[1:][same])[:1]]
    if failures:
        row, kind = min(failures)
        n, line = [(n, ln) for n, ln in enumerate(text.splitlines(), 1) if ln.strip()][row + 1]
        f = [field.strip() for field in line.split(delimiter)]
        raise ValueError(f"{path}: " + _PROBLEMS[kind].format(n=n, c=len(f), f=f))
    if not complete:  # distinct cells, fewer than the cross-product
        present = set(zip(*(key.tolist() for key in keys)))
        cell = next(c for c in product(*map(range, sizes)) if c not in present)
        unit, time, row, col = (labs[c] for labs, c in zip(labels, cell))
        raise ValueError(f"{path}: incomplete panel: missing cell (unit={unit}, time={time}, "
                         f"row_level={row}, col_level={col})")
    stack = np.empty(sizes)
    stack.reshape(-1)[flat] = values
    return MatrixPanel(np.transpose(stack, (2, 3, 0, 1)), tuple(labels[0]), tuple(labels[1]))


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
