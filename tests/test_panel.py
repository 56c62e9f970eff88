import pickle
import time
import tracemalloc

import numpy as np
import pytest
from oracles import reference_load_panel
from scipy.special import expit

from matrixhmm import MatrixPanel, load_panel, logit_transform, save_panel
from matrixhmm import panel as panel_module


def write_panel_file(path, rows, header="unit,time,row_level,col_level,value"):
    path.write_text(header + "\n" + "\n".join(rows) + "\n", encoding="utf-8")


def full_rows(units=2, times=2, P=2, R=2, value=None):
    rows = []
    for u in range(1, units + 1):
        for t in range(1, times + 1):
            for p in range(1, P + 1):
                for r in range(1, R + 1):
                    v = value if value is not None else u * 1000 + t * 100 + p * 10 + r
                    rows.append(f"{u},{t},{p},{r},{v}")
    return rows


def test_load_complete_crossproduct(tmp_path):
    path = tmp_path / "panel.csv"
    write_panel_file(path, full_rows())
    panel = load_panel(path)
    assert panel.dims == (2, 2, 2, 2)
    assert panel.unit_labels == ("1", "2")
    assert panel.time_labels == ("1", "2")
    # spot values: (p, r, i, t)
    assert panel.values[0, 0, 0, 0] == 1111
    assert panel.values[1, 0, 1, 1] == 2221


def test_load_missing_cell_error(tmp_path):
    rows = [r for r in full_rows() if not r.startswith("1,2,1,1")]
    path = tmp_path / "panel.csv"
    write_panel_file(path, rows)
    with pytest.raises(ValueError, match="incomplete panel.*unit=1, time=2, row_level=1, col_level=1"):
        load_panel(path)


def test_load_duplicate_cell_error(tmp_path):
    rows = full_rows() + ["2,2,2,2,99.0"]
    path = tmp_path / "panel.csv"
    write_panel_file(path, rows)
    with pytest.raises(ValueError, match="duplicate cell"):
        load_panel(path)


def test_load_non_numeric_value_names_line(tmp_path):
    rows = full_rows()
    rows[4] = "1,2,1,1,oops"
    path = tmp_path / "panel.csv"
    write_panel_file(path, rows)
    with pytest.raises(ValueError, match="line 6.*'oops'"):
        load_panel(path)


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
def test_load_non_finite_value_names_line(tmp_path, raw):
    rows = full_rows()
    rows[4] = f"1,2,1,1,{raw}"
    path = tmp_path / "panel.csv"
    write_panel_file(path, rows)
    with pytest.raises(ValueError, match=f"line 6: value '{raw}' is not finite"):
        load_panel(path)


@pytest.mark.parametrize("delimiter, label", [(",", "a,b"), (";", "a;b"),
                                              (",", "a\nb"), (",", "a\r")])
def test_save_rejects_a_label_that_would_not_load_back(tmp_path, delimiter, label):
    panel = MatrixPanel(np.zeros((1, 1, 2, 1)), unit_labels=["u1", label])
    path = tmp_path / "out.csv"
    with pytest.raises(ValueError, match="label .* contains the delimiter"):
        save_panel(panel, path, delimiter=delimiter)
    assert not path.exists()


@pytest.mark.parametrize("labels, problem", [(["u1", " u2"], "has leading or trailing blanks"),
                                             (["u1", "u2 "], "has leading or trailing blanks"),
                                             (["u1", "u1"], "appears more than once")])
def test_save_rejects_labels_that_would_load_back_changed(tmp_path, labels, problem):
    panel = MatrixPanel(np.zeros((1, 1, 2, 1)), unit_labels=labels)
    path = tmp_path / "out.csv"
    with pytest.raises(ValueError, match=f"unit_labels: label .* {problem}"):
        save_panel(panel, path)
    assert not path.exists()


def test_load_bad_header(tmp_path):
    path = tmp_path / "panel.csv"
    write_panel_file(path, full_rows(), header="a,b,c,d,e")
    with pytest.raises(ValueError, match="expected header"):
        load_panel(path)


@pytest.mark.parametrize("text, message", [
    ("unit,time,row_level,col_level,value\n1,1,1,1\n", "line 2: expected 5 fields, got 4"),
    ("", "panel file is empty"),
    ("\n\n", "panel file is empty"),
    ("unit,time,row_level,col_level,value\n", "panel file has no data rows"),
])
def test_load_rejects_a_short_row_and_a_file_without_data(tmp_path, text, message):
    path = tmp_path / "panel.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError) as info:
        load_panel(path)
    assert str(info.value) == f"{path}: {message}"


def test_load_names_the_file_and_line_of_a_byte_that_is_not_utf8(tmp_path):
    path = tmp_path / "panel.csv"
    rows = full_rows()
    path.write_bytes(("unit,time,row_level,col_level,value\n" + "\n".join(rows[:3])
                      + "\n").encode() + "Forl\u00ec,1,1,1,0.5\n".encode("latin-1"))
    with pytest.raises(ValueError) as info:
        load_panel(path)
    assert str(info.value) == f"{path}: line 5: byte 0xec is not UTF-8"
    assert not isinstance(info.value, UnicodeError)


def _sweep_files():
    """(name, text, delimiter) for a small labelled panel under one corruption
    or two, with numeric, lexicographic, mixed and equal-valued labels."""
    header = "unit,time,row_level,col_level,value"
    label_sets = {"numeric": (("10", "9", "2"), ("2004", "1999")),
                  "lexicographic": (("b", "a", "c"), ("t2", "t1")),
                  "mixed": (("1", "x", "10"), ("2", "1b")),
                  "equal values": (("1.0", "01", "1"), ("2", "2e0"))}
    bad_values = ("nan", "inf", "-inf", "1e999", "oops", "")
    for kind, (units, times) in label_sets.items():
        rows = [[u, t, str(p), str(r), repr(0.5 + n / 7)]
                for n, (u, t, p, r) in enumerate((u, t, p, r) for u in units for t in times
                                                 for p in (1, 2) for r in (1, 2))]

        def text(rows, head=header, sep=",", end="\n"):
            return end.join([head, *(sep.join(row) for row in rows)]) + end

        def edit(j, change):
            row = list(rows[j])
            if change == "short":
                return row[:-1]
            if change == "long":
                return row + ["0"]
            return row[:4] + [change]

        yield kind, text(rows), ","
        yield f"{kind} header", text(rows, head="unit,time,row,col,value"), ","
        yield f"{kind} blank lines", text(rows, end="\n \t\n\n"), ","
        yield f"{kind} padded", text([[f" {f}\t\x1f" for f in row] for row in rows]), ","
        yield f"{kind} crlf", text(rows, end="\r\n"), ","
        yield f"{kind} semicolon", text(rows, head=header.replace(",", ";"), sep=";"), ";"
        yield f"{kind} semicolon read with commas", text(rows, sep=";"), ","
        for j in range(len(rows)):
            yield f"{kind} drop {j}", text(rows[:j] + rows[j + 1:]), ","
            yield f"{kind} repeat {j}", text(rows[:j + 1] + rows[j:]), ","
            yield f"{kind} repeat {j} last", text(rows + [rows[j]]), ","
            for change in ("short", "long", *bad_values):
                changed = rows[:j] + [edit(j, change)] + rows[j + 1:]
                yield f"{kind} {change!r} at {j}", text(changed), ","
            # two problems: the first one in file order is the one reported
            i = len(rows) - 1 - j
            for first, second in (("short", "nan"), ("oops", "long"), ("inf", "")):
                both = list(rows)
                both[j], both[i] = edit(j, first), edit(i, second)
                yield f"{kind} {first!r} at {j}, {second!r} at {i}", text(both), ","
            both = rows[:j] + [edit(j, "nan")] + rows[j + 1:] + [rows[i]]
            yield f"{kind} 'nan' at {j}, repeat {i} last", text(both), ","
            yield f"{kind} repeat {j} last as 'nan'", text(rows + [edit(j, "nan")]), ","
            yield f"{kind} repeat {j} and {i} last", text(rows + [rows[j], rows[i]]), ","


@pytest.mark.parametrize("chunk", [1, panel_module._CHUNK_CHARS], ids=["line", "default"])
def test_load_agrees_with_the_dict_reader_on_every_corruption(tmp_path, monkeypatch, chunk):
    # a chunk of one character splits the text after every line
    monkeypatch.setattr(panel_module, "_CHUNK_CHARS", chunk)
    began = time.perf_counter()
    count = 0
    for count, (name, text, delimiter) in enumerate(_sweep_files(), start=1):
        path = tmp_path / f"{count}.csv"
        path.write_bytes(text.encode("utf-8"))
        try:
            expected = reference_load_panel(path, delimiter)
        except ValueError as exc:
            with pytest.raises(ValueError) as info:
                load_panel(path, delimiter)
            assert str(info.value) == f"{path}: {exc}", name
            continue
        panel = load_panel(path, delimiter)
        values, units, times = expected
        assert np.array_equal(panel.values, values), name
        assert (panel.unit_labels, panel.time_labels) == (units, times), name
    assert count > 1600
    assert time.perf_counter() - began < 10.0


def test_load_peak_memory_stays_within_the_budget(tmp_path):
    # a 20,000-row file, 573 kB; a dict of one entry per cell peaked at 9.2 times that
    rng = np.random.default_rng(22)
    path = tmp_path / "panel.csv"
    save_panel(MatrixPanel(rng.normal(size=(4, 5, 100, 10))), path)
    load_panel(path)  # first-call set-up outside the count
    tracemalloc.start()
    try:
        load_panel(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * path.stat().st_size, peak


def test_load_skips_blank_lines(tmp_path):
    rows = full_rows()
    path = tmp_path / "panel.csv"
    write_panel_file(path, rows)
    plain = load_panel(path)
    write_panel_file(path, rows[:5] + ["", "   "] + rows[5:])
    spaced = load_panel(path)
    assert spaced.dims == plain.dims
    assert np.array_equal(spaced.values, plain.values)


def test_roundtrip_save_load(tmp_path):
    rng = np.random.default_rng(11)
    panel = MatrixPanel(rng.normal(size=(3, 2, 4, 5)))
    path = tmp_path / "out.csv"
    save_panel(panel, path)
    back = load_panel(path)
    assert back.dims == panel.dims
    assert np.array_equal(back.values, panel.values)
    # unlabelled units and times are written numbered from 1
    assert back.unit_labels == ("1", "2", "3", "4")
    assert back.time_labels == ("1", "2", "3", "4", "5")


def test_load_orders_numeric_labels(tmp_path):
    # shuffled rows with year-like times must land in numeric order
    lines = []
    for t in ("2010", "2004", "2009"):
        for p in (1, 2):
            for r in (1, 2):
                lines.append(f"u,{t},{p},{r},{t}.{p}{r}")
    path = tmp_path / "panel.csv"
    write_panel_file(path, lines)
    panel = load_panel(path)
    assert panel.time_labels == ("2004", "2009", "2010")
    assert panel.values[0, 0, 0, 0] == pytest.approx(2004.11)
    assert panel.values[0, 0, 0, 2] == pytest.approx(2010.11)


def test_load_orders_labels_of_equal_value_as_text(tmp_path):
    # "1", "01" and "1.0" are distinct labels of one value; they once came
    # back in the order the process's string hashes gave a set
    path = tmp_path / "panel.csv"
    write_panel_file(path, [f"{u},1,1,1,{n}" for n, u in enumerate(("1.0", "1", "01", "0.5"))])
    panel = load_panel(path)
    assert panel.unit_labels == ("0.5", "01", "1", "1.0")
    assert np.array_equal(panel.values.ravel(), [3.0, 2.0, 1.0, 0.0])


def test_logit_center_and_inverse():
    values = np.full((1, 1, 1, 1), 0.5)
    out = logit_transform(MatrixPanel(values))
    assert out.values[0, 0, 0, 0] == 0.0

    rng = np.random.default_rng(5)
    raw = rng.uniform(1e-4, 1 - 1e-4, size=(2, 3, 5, 4))
    transformed = logit_transform(MatrixPanel(raw))
    assert np.max(np.abs(expit(transformed.values) - raw)) < 1e-14


def test_logit_is_monotone_per_entry():
    rng = np.random.default_rng(6)
    a = np.sort(rng.uniform(0.01, 0.99, size=50))
    panel = MatrixPanel(a.reshape(1, 1, 1, 50))
    out = logit_transform(panel).values.ravel()
    assert np.all(np.diff(out) > 0)


def test_logit_domain_error_names_index():
    values = np.full((2, 2, 2, 3), 0.5)
    values[1, 0, 1, 2] = 1.0
    with pytest.raises(ValueError, match=r"\(p=2, r=1, unit=2, time=3\)"):
        logit_transform(MatrixPanel(values))
    values[1, 0, 1, 2] = 0.0
    with pytest.raises(ValueError, match="not strictly inside"):
        logit_transform(MatrixPanel(values))


def test_slice_unit_time():
    panel = MatrixPanel(np.full((2, 3, 4, 5), 2.5))
    assert np.array_equal(panel.slice_unit_time(1, 1), np.full((2, 3), 2.5))

    rng = np.random.default_rng(9)
    values = rng.normal(size=(2, 3, 4, 5))
    panel = MatrixPanel(values)
    assert np.array_equal(panel.slice_unit_time(3, 5), values[:, :, 2, 4])
    with pytest.raises(IndexError, match="unit index 5"):
        panel.slice_unit_time(5, 1)
    with pytest.raises(IndexError):
        panel.slice_unit_time(0, 1)
    with pytest.raises(IndexError, match="time index 6"):
        panel.slice_unit_time(1, 6)


def test_panel_validation():
    with pytest.raises(ValueError, match="4-way"):
        MatrixPanel(np.zeros((2, 2, 2)))
    with pytest.raises(ValueError, match="finite"):
        MatrixPanel(np.full((1, 1, 1, 1), np.nan))
    with pytest.raises(ValueError, match="unit_labels"):
        MatrixPanel(np.zeros((1, 1, 2, 1)), unit_labels=("a",))


def test_unit_time_stack_layout(tmp_path):
    rng = np.random.default_rng(3)
    values = rng.normal(size=(2, 3, 4, 5))
    built = MatrixPanel(values)
    save_panel(built, tmp_path / "panel.csv")
    # built in place, read from a file, and sent through pickle to a worker
    for panel in (built, load_panel(tmp_path / "panel.csv"),
                  pickle.loads(pickle.dumps(built))):
        assert panel.values.shape == (2, 3, 4, 5)
        assert np.array_equal(panel.values, values)
        stack = panel.unit_time_stack()
        assert stack.shape == (4, 5, 2, 3)
        assert np.array_equal(stack[1, 2], values[:, :, 1, 2])
        assert stack.flags.c_contiguous
        assert np.shares_memory(stack, panel.values)
        for arr in (stack, panel.values):
            with pytest.raises(ValueError, match="read-only"):
                arr[0, 0, 0, 0] = 0.0
