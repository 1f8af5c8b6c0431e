import csv
import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from fairaudit import dataset
from fairaudit.dataset import (
    Dataset,
    atomic_write_text,
    load_csv,
    save_csv,
    split_csv,
)

BASIC = """age,income,member,outcome
1.0,10.5,0,1
2.0,20.5,1,0
3.0,30.5,0,1
"""


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadCsv:
    def test_basic_parse(self, tmp_path):
        ds = load_csv(write(tmp_path, BASIC), label_column="outcome", protected_columns=("member",))
        assert ds.feature_names == ("age", "income")
        assert ds.features.shape == (3, 2)
        assert_array_equal(ds.labels, [1, 0, 1])
        assert_array_equal(ds.protected["member"], [0, 1, 0])

    def test_rows_with_missing_cells_dropped(self, tmp_path):
        text = "a,b,label\n1.0,2.0,1\n3.0,,0\n5.0,6.0,0\n"
        ds = load_csv(write(tmp_path, text), label_column="label")
        assert ds.n == 2
        assert_array_equal(ds.features[:, 0], [1.0, 5.0])

    @pytest.mark.parametrize("token", ["NA", "nan", "?", "NaN"])
    def test_missing_tokens(self, tmp_path, token):
        text = f"a,label\n1.0,1\n{token},0\n"
        ds = load_csv(write(tmp_path, text), label_column="label")
        assert ds.n == 1

    def test_standardize_continuous_columns(self, tmp_path):
        ds = load_csv(write(tmp_path, BASIC), label_column="outcome", protected_columns=("member",), standardize=True)
        for j, name in enumerate(ds.feature_names):
            col = ds.features[:, j]
            assert abs(col.mean()) < 1e-10
            assert abs(col.std() - 1.0) < 1e-10
            assert name in ds.standardization

    def test_standardize_skips_binary_columns(self, tmp_path):
        text = "flag,value,label\n0,10.0,1\n1,20.0,0\n0,30.0,1\n"
        ds = load_csv(write(tmp_path, text), label_column="label", standardize=True)
        flag = ds.features[:, ds.feature_names.index("flag")]
        assert set(flag) == {0.0, 1.0}
        assert "flag" not in ds.standardization
        assert "value" in ds.standardization

    def test_standardize_skips_constant_columns(self, tmp_path):
        text = "c,label\n7.5,1\n7.5,0\n"
        ds = load_csv(write(tmp_path, text), label_column="label", standardize=True)
        assert_array_equal(ds.features[:, 0], [7.5, 7.5])
        assert ds.standardization == {}

    def test_round_trip_identical(self, tmp_path):
        path = write(tmp_path, BASIC)
        ds = load_csv(path, label_column="outcome", protected_columns=("member",))
        out = tmp_path / "saved.csv"
        save_csv(ds, out)
        again = load_csv(out, label_column="outcome", protected_columns=("member",))
        assert again.feature_names == ds.feature_names
        assert_array_equal(again.features, ds.features)
        assert_array_equal(again.labels, ds.labels)
        assert_array_equal(again.protected["member"], ds.protected["member"])
        save_csv(again, tmp_path / "again.csv")
        assert (tmp_path / "again.csv").read_bytes() == out.read_bytes()

    def test_non_numeric_feature_cell(self, tmp_path):
        path = write(tmp_path, "a,label\noops,1\n1.0,0\n")
        with pytest.raises(ValueError, match="non-numeric feature"):
            load_csv(path, label_column="label")

    def test_non_binary_label(self, tmp_path):
        path = write(tmp_path, "a,label\n1.0,2\n2.0,0\n")
        with pytest.raises(ValueError, match="binary"):
            load_csv(path, label_column="label")

    def test_non_binary_protected(self, tmp_path):
        path = write(tmp_path, "a,p,label\n1.0,3,1\n2.0,0,0\n")
        with pytest.raises(ValueError, match="binary"):
            load_csv(path, label_column="label", protected_columns=("p",))

    def test_duplicate_header(self, tmp_path):
        path = write(tmp_path, "a,a,label\n1.0,2.0,1\n")
        with pytest.raises(ValueError, match="duplicate"):
            load_csv(path, label_column="label")

    def test_missing_column(self, tmp_path):
        path = write(tmp_path, BASIC)
        with pytest.raises(ValueError, match="not found"):
            load_csv(path, label_column="missing")

    def test_ragged_row(self, tmp_path):
        path = write(tmp_path, "a,b,label\n1.0,2.0,1\n3.0,1\n")
        with pytest.raises(ValueError, match="expected 3 cells"):
            load_csv(path, label_column="label")

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "")
        with pytest.raises(ValueError, match="empty"):
            load_csv(path, label_column="label")

    def test_all_rows_missing(self, tmp_path):
        path = write(tmp_path, "a,label\n,1\n")
        with pytest.raises(ValueError, match="no complete rows"):
            load_csv(path, label_column="label")


class TestDatasetInvariants:
    def test_protected_never_among_features(self):
        with pytest.raises(ValueError, match="must not appear"):
            Dataset(
                feature_names=("a", "p"),
                features=np.ones((2, 2)),
                labels=[0, 1],
                protected={"p": [0, 1]},
            )

    def test_length_checks(self):
        with pytest.raises(ValueError, match="length"):
            Dataset(feature_names=("a",), features=np.ones((3, 1)), labels=[0, 1], protected={})


class TestSplit:
    def make_csv(self, tmp_path, rows=10):
        lines = ["x,label"] + [f"{i}.0,{i % 2}" for i in range(rows)]
        return write(tmp_path, "\n".join(lines) + "\n", "full.csv")

    def test_disjoint_union(self, tmp_path):
        src = self.make_csv(tmp_path)
        a, b = tmp_path / "train.csv", tmp_path / "audit.csv"
        n_train, n_audit = split_csv(src, a, b, train_fraction=0.7, seed=3)
        assert n_train == 7 and n_audit == 3
        train_rows = a.read_text().splitlines()
        audit_rows = b.read_text().splitlines()
        assert train_rows[0] == audit_rows[0] == "x,label"
        all_rows = sorted(train_rows[1:] + audit_rows[1:])
        assert all_rows == sorted(src.read_text().splitlines()[1:])
        assert not set(train_rows[1:]) & set(audit_rows[1:])

    def test_deterministic_given_seed(self, tmp_path):
        src = self.make_csv(tmp_path)
        a1, b1 = tmp_path / "t1.csv", tmp_path / "a1.csv"
        a2, b2 = tmp_path / "t2.csv", tmp_path / "a2.csv"
        split_csv(src, a1, b1, 0.6, seed=9)
        split_csv(src, a2, b2, 0.6, seed=9)
        assert a1.read_bytes() == a2.read_bytes()
        assert b1.read_bytes() == b2.read_bytes()

    def test_fraction_bounds(self, tmp_path):
        src = self.make_csv(tmp_path)
        with pytest.raises(ValueError, match="train_fraction"):
            split_csv(src, tmp_path / "t.csv", tmp_path / "a.csv", 1.0, seed=0)


def test_atomic_write_replaces_content(tmp_path):
    target = tmp_path / "out.txt"
    target.write_text("old")
    atomic_write_text(target, "new contents\n")
    assert target.read_text() == "new contents\n"
    assert list(tmp_path.iterdir()) == [target]  # no stray temp files


@pytest.mark.parametrize(
    "text, line, column",
    [
        ("a,b,label\n1.0,2.0,1\n3.0,inf,0\n", 3, "b"),
        ("a,b,label\n-Infinity,2.0,1\n3.0,4.0,0\n", 2, "a"),
        ("a,b,label\n1.0,2.0,1\n3.0,1e999,0\n", 3, "b"),
    ],
    ids=["inf", "minus-infinity", "overflow"],
)
def test_non_finite_cell_names_file_line_and_column(tmp_path, text, line, column):
    path = write(tmp_path, text)
    with pytest.raises(ValueError, match="non-finite") as info:
        load_csv(path, label_column="label")
    assert f"{path}:{line}:" in str(info.value)
    assert repr(column) in str(info.value)


def test_atomic_write_streams_chunks(tmp_path):
    path = tmp_path / "out.txt"
    atomic_write_text(path, (f"line {i}\n" for i in range(3)))
    assert path.read_text() == "line 0\nline 1\nline 2\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def reference_load(path, text, label, protected):
    """The documented ingest rules, one cell at a time, then the 0/1 rule on the
    label and then each protected column: the features, labels and protected
    columns ``load_csv`` must return, or the text of its error."""
    rows = list(csv.reader(io.StringIO(text, newline="")))
    header = rows[0]
    kind = {h: "label" if h == label else "protected" if h in protected else "feature" for h in header}
    table = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            return f"{path}:{lineno}: expected {len(header)} cells, got {len(row)}"
        if any(cell.strip().lower() in ("", "na", "nan", "?") for cell in row):
            continue
        values = []
        for cell, name in zip(row, header):
            try:
                value = float(cell)
            except ValueError:
                return f"{path}:{lineno}: non-numeric {kind[name]} cell {cell!r} in column {name!r}"
            if not math.isfinite(value):
                return f"{path}:{lineno}: non-finite {kind[name]} cell {cell!r} in column {name!r}"
            values.append(value)
        table.append(values)
    if not table:
        return f"{path}: no complete rows after dropping missing entries"
    columns = {name: [values[j] for values in table] for j, name in enumerate(header)}
    for name in (label, *protected):
        bad = [value for value in columns[name] if value not in (0.0, 1.0)]
        if bad:
            return f"column {name!r} must be binary 0/1, found value {bad[0]!r}"
    features = [[values[j] for j, h in enumerate(header) if kind[h] == "feature"] for values in table]
    return features, columns[label], {name: columns[name] for name in protected}


def _spelled(draw, body):
    """A cell's text as it may appear in a file: padded, and maybe quoted."""
    cell = draw(st.sampled_from(["", " ", "  "])) + body + draw(st.sampled_from(["", " "]))
    return f'"{cell}"' if draw(st.booleans()) else cell


@st.composite
def numeric_cells(draw):
    sign = draw(st.sampled_from(["", "+", "-"]))
    digits = draw(st.sampled_from(["0", "7", "12.5", ".25", "3.", "1_000", "0.000123"]))
    exponent = draw(st.sampled_from(["", "e3", "E-2", "e+10", "e-300"]))
    return _spelled(draw, sign + digits + exponent)


@st.composite
def binary_cells(draw):
    return _spelled(draw, draw(st.sampled_from(["0", "1", "1.0", "-0", "+1", "0e5", "1E0"])))


@st.composite
def missing_cells(draw):
    return _spelled(draw, draw(st.sampled_from(["", "na", "NA", "nA", "nan", "NaN", "NAN", "?"])))


@st.composite
def bad_cells(draw):
    return _spelled(draw, draw(st.sampled_from(["oops", "1,5", "0x10", "inf", "-Infinity", "1e999", "+nan"])))


@st.composite
def csv_files(draw):
    """A headered CSV of features, one label and one protected column in a
    drawn order, with missing, non-numeric, non-finite and ragged rows mixed in."""
    n_features = draw(st.integers(0, 3))
    header = draw(st.permutations([f"f{j}" for j in range(n_features)] + ["label", "p"]))
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 6))):
        cells = []
        for name in header:
            good = binary_cells() if name in ("label", "p") else numeric_cells()
            choice = st.one_of(good, missing_cells(), bad_cells()) if draw(st.integers(0, 9)) == 0 else good
            cells.append(draw(choice))
        shape = draw(st.integers(0, 19))
        if shape == 0:
            cells.pop()
        elif shape == 1:
            cells.append(draw(numeric_cells()))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=csv_files())
@example(text="f0,label,f2,f1,p\n0,0,0,1,5\n")  # an unquoted "1,5" cell plus a dropped last cell
def test_load_csv_matches_reference_parser(tmp_path, text):
    path = tmp_path / "data.csv"
    path.write_bytes(text.encode("utf-8"))
    expected = reference_load(path, text, "label", ("p",))
    if isinstance(expected, str):
        with pytest.raises(ValueError) as info:
            load_csv(path, label_column="label", protected_columns=("p",))
        assert str(info.value) == expected
        return
    features, labels, protected = expected
    ds = load_csv(path, label_column="label", protected_columns=("p",))
    assert ds.features.tolist() == features
    assert_array_equal(ds.labels, labels)
    assert_array_equal(ds.protected["p"], protected["p"])


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("a,label\n1.0,oops\nbad,1\n", 2, "non-numeric label cell 'oops' in column 'label'"),
        ("p,a,label\nx,y,1\n", 2, "non-numeric protected cell 'x' in column 'p'"),
        ("a,label\n1.0,inf\n-inf,1\n", 2, "non-finite label cell 'inf' in column 'label'"),
        ("p,a,label\n1e999,nope,1\n", 2, "non-finite protected cell '1e999' in column 'p'"),
        ("a,label\noops,1\n1.0\n", 2, "non-numeric feature cell 'oops' in column 'a'"),
        ("a,label\n1.0\noops,1\n", 2, "expected 2 cells, got 1"),
        ("a,b,label\n1.0,2.0,1\nx,,1\n3.0,inf,1\n", 4, "non-finite feature cell 'inf' in column 'b'"),
    ],
    ids=[
        "non-numeric-row-before-column",
        "non-numeric-column-order",
        "non-finite-row-before-column",
        "non-finite-before-non-numeric",
        "bad-cell-before-ragged-row",
        "ragged-row-before-bad-cell",
        "missing-row-dropped-before-bad-cell",
    ],
)
def test_first_bad_cell_in_file_order(tmp_path, text, line, message):
    path = write(tmp_path, text)
    with pytest.raises(ValueError) as info:
        load_csv(path, label_column="label", protected_columns=("p",) if text.startswith("p,") else ())
    assert str(info.value) == f"{path}:{line}: {message}"


def test_features_c_contiguous_float64(tmp_path):
    path = write(tmp_path, "a,label,p,b,c\n1.0,1,0,2.0,3.0\n4.0,0,1,5.0,6.0\n")
    ds = load_csv(path, label_column="label", protected_columns=("p",))
    assert ds.features.flags.c_contiguous
    assert ds.features.dtype == np.float64
    assert_array_equal(ds.features, [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    assert ds.labels.dtype == ds.protected["p"].dtype == np.int64


def test_load_csv_peak_memory_stays_near_the_table(tmp_path):
    rows, dim = 5000, 40
    rng = np.random.default_rng(0)
    x = rng.standard_normal((rows, dim))
    bits = rng.integers(0, 2, size=(rows, 3))
    lines = [",".join([f"f{j}" for j in range(dim)] + ["label", "p", "q"])]
    lines += [",".join([f"{v:.6f}" for v in x[i]] + [str(b) for b in bits[i]]) for i in range(rows)]
    path = write(tmp_path, "\n".join(lines) + "\n")
    load_csv(path, label_column="label", protected_columns=("p", "q"))
    tracemalloc.start()
    try:
        load_csv(path, label_column="label", protected_columns=("p", "q"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * rows * (dim + 3) * 8


class TestDatasetEquality:
    @staticmethod
    def make(**changes):
        params = dict(
            feature_names=("a", "b"),
            features=[[1.0, 2.0], [3.0, 4.0]],
            labels=[0, 1],
            protected={"p": [0, 1], "q": [1, 1]},
        )
        params.update(changes)
        return Dataset(**params)

    def test_equal_when_every_field_is(self):
        assert self.make() == self.make()
        assert self.make() != self.make(features=[[1.0, 2.0], [3.0, 4.5]])
        assert self.make() != self.make(labels=[1, 1])
        assert self.make() != self.make(feature_names=("a", "c"))
        assert self.make() != self.make(label_name="y")
        assert self.make() != self.make(standardization={"a": (0.0, 1.0)})

    def test_shape_mismatch_is_unequal(self):
        wide = self.make(feature_names=("a", "b", "c"), features=[[1.0, 2.0, 0.0], [3.0, 4.0, 0.0]])
        assert self.make() != wide

    def test_protected_compared_key_by_key(self):
        assert self.make() == self.make(protected={"q": [1, 1], "p": [0, 1]})
        assert self.make() != self.make(protected={"p": [0, 1], "q": [1, 0]})
        assert self.make() != self.make(protected={"p": [0, 1]})
        assert self.make() != self.make(protected={"p": [0, 1], "r": [1, 1]})

    def test_loaded_round_trip_is_equal(self, tmp_path):
        ds = load_csv(write(tmp_path, BASIC), label_column="outcome", protected_columns=("member",))
        out = tmp_path / "saved.csv"
        save_csv(ds, out)
        assert load_csv(out, label_column="outcome", protected_columns=("member",)) == ds

    def test_other_types_are_not_implemented(self):
        assert self.make().__eq__("x,label\n1.0,0\n") is NotImplemented

    def test_hash_stays_unsupported(self):
        with pytest.raises(TypeError):
            hash(self.make())


def test_split_streams_lines_with_the_same_bytes(tmp_path, monkeypatch):
    src = write(tmp_path, "x,label\n1.0,0\n\n2.0,1\n3.0,0\n4.0,1", "full.csv")
    written = []

    def capture(path, chunks):
        written.append((len(chunks), list(chunks)))
        atomic_write_text(path, written[-1][1])

    monkeypatch.setattr(dataset, "atomic_write_text", capture)
    assert split_csv(src, tmp_path / "t.csv", tmp_path / "a.csv", 0.5, seed=4) == (2, 2)
    rows = []
    for (length, chunks), name in zip(written, ("t.csv", "a.csv")):
        assert length == len(chunks) == 3
        assert chunks[0] == "x,label\n"
        assert all(chunk.endswith("\n") and chunk.count("\n") == 1 for chunk in chunks)
        assert (tmp_path / name).read_text() == "".join(chunks)
        rows += chunks[1:]
    assert sorted(rows) == ["1.0,0\n", "2.0,1\n", "3.0,0\n", "4.0,1\n"]
