import numpy as np
import pytest
from numpy.testing import assert_array_equal

from fairaudit.dataset import Dataset, atomic_write_text, dataset_to_csv, load_csv, save_csv, split_csv

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
        assert dataset_to_csv(again) == dataset_to_csv(ds)

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
