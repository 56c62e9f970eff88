import pickle

import numpy as np
import pytest
from scipy.special import expit

from matrixhmm import MatrixPanel, load_panel, logit_transform, save_panel


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


def test_roundtrip_save_load(tmp_path):
    rng = np.random.default_rng(11)
    panel = MatrixPanel(rng.normal(size=(3, 2, 4, 5)))
    path = tmp_path / "out.csv"
    save_panel(panel, path)
    back = load_panel(path)
    assert back.dims == panel.dims
    assert np.array_equal(back.values, panel.values)


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
