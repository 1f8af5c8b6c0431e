"""Tabular dataset handling (CSV ingestion, standardization, splits) and the one owner of every artifact format.

Every file the package writes goes through ``atomic_write_text``: CSV through
``write_csv``, JSON through ``write_json`` (``json_text`` gives the same
text), and the CLI's JSONL trace, each as a ``_Stream`` of text chunks.

A dataset is a numeric feature matrix, binary labels, and named binary
protected columns.  Protected columns are carried alongside the features
and are never part of them, so models cannot see them while metric
learning still can.

CSV files must have a header row.  Rows containing a missing cell (empty
string, ``NA``, ``NaN``, ``nan`` or ``?``) are dropped during loading;
non-numeric cells and infinite cells such as ``inf`` are errors.
"""

from __future__ import annotations

import csv
import json
import math
import os
import tempfile
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .linalg import fields_equal

MISSING_TOKENS = {"", "na", "nan", "?"}


def atomic_write_text(path, text) -> None:
    """Write a file via temp-then-rename so partial output is never visible.

    ``text`` is a string or an iterable of string chunks, written in order
    as they are produced, so large outputs need not be held in memory.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            if isinstance(text, str):
                fh.write(text)
            else:
                fh.writelines(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv_cell(value) -> str:
    """One CSV cell, as every artifact spells it.

    A string is written as it is, a float (``np.float64`` included) as its
    ``repr``, and anything else (bools, numpy ints and bools) as an integer.
    """
    if isinstance(value, str):
        return value
    if isinstance(value, float):
        return repr(float(value))
    return str(int(value))


class _Stream:
    """``count`` items, produced by the iterator ``items`` while they are consumed, so no list of them is built.

    Every artifact reaches its file as a stream of text chunks (CSV lines, trace samples or
    JSON encoder chunks); ``len`` lets ``atomic_write_text`` measure it like a string.
    """

    def __init__(self, count: int, items):
        self.count, self.items = count, items

    def __len__(self) -> int:
        return self.count

    def __iter__(self):
        return iter(self.items)


def write_csv(path, header, rows) -> None:
    """Write the column names ``header`` and the sized iterable of tuples ``rows`` to ``path`` atomically."""
    lines = (",".join(map(_csv_cell, row)) + "\n" for row in rows)
    atomic_write_text(path, _Stream(1 + len(rows), chain([",".join(header) + "\n"], lines)))


# every JSON artifact: keys sorted, a two-space indent, and a final newline
_JSON = json.JSONEncoder(indent=2, sort_keys=True)


def json_text(doc) -> str:
    """``doc`` as the text ``write_json`` writes."""
    return "".join(_JSON.iterencode(doc)) + "\n"


def write_json(path, doc) -> None:
    """Write ``doc`` to ``path`` atomically, encoded while the file is written (a joined MLP model raised peak RSS)."""
    atomic_write_text(path, _Stream(1, chain(_JSON.iterencode(doc), "\n")))


def _read_json_object(path, kind: str) -> dict:
    """The JSON object in the file at ``path``; any other document raises, naming the file."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"{kind} file {path} must hold a JSON object, got {type(doc).__name__}")
    return doc


_KIND_NAMES = {bool: "true or false", int: "an integer", float: "a finite number", str: "a string"}


def _describe(kind) -> str:
    return f"a JSON array, each item {_describe(kind[0])}" if isinstance(kind, list) else _KIND_NAMES[kind]


def _convert(kind, value):
    """``value`` as ``kind``, or ValueError if it is not one.

    ``kind`` is ``bool``, ``int``, ``float`` or ``str``, or ``[kind]`` for a
    JSON array or a tuple of such values (converted to a tuple).  Numbers
    are never booleans or strings; an integral float such as 5.0 is
    accepted as an integer.
    """
    if isinstance(kind, list):
        if isinstance(value, (list, tuple)):
            return tuple(_convert(kind[0], v) for v in value)
    elif kind is bool or kind is str:
        if isinstance(value, kind):
            return value
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        if kind is int and float(value).is_integer():
            return int(value)
        if kind is float and math.isfinite(value):
            return float(value)
    raise ValueError(value)


def _expect(kind, value, what: str, nullable: bool = False):
    """``value`` converted by ``_convert`` (``None`` stays ``None`` if ``nullable``); else ValueError naming ``what``."""
    if value is None and nullable:
        return None
    try:
        return _convert(kind, value)
    except (ValueError, OverflowError):
        expected = _describe(kind) + (" or null" if nullable else "")
        raise ValueError(f"{what} must be {expected}, got {value!r}") from None


def _field(doc: dict, key: str, kind, owner: str):
    """``doc[key]`` converted by ``_expect``; a missing key raises, naming it and ``owner``."""
    if key not in doc:
        raise ValueError(f"{owner} has no key {key!r}")
    return _expect(kind, doc[key], f"{owner} key {key!r}")


def _check_binary_column(values: np.ndarray, name: str) -> np.ndarray:
    if not np.all((values == 0.0) | (values == 1.0)):
        bad = values[(values != 0.0) & (values != 1.0)][0]
        raise ValueError(f"column {name!r} must be binary 0/1, found value {float(bad)!r}")
    return values.astype(np.int64)


@dataclass(eq=False)
class Dataset:
    feature_names: tuple[str, ...]
    features: np.ndarray
    labels: np.ndarray
    protected: dict[str, np.ndarray]
    label_name: str = "label"
    standardization: dict[str, tuple[float, float]] = field(default_factory=dict)

    __eq__ = fields_equal

    def __post_init__(self):
        self.feature_names = tuple(self.feature_names)
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = _check_binary_column(np.asarray(self.labels, dtype=np.float64), self.label_name)
        n = self.features.shape[0]
        if self.features.ndim != 2 or len(self.feature_names) != self.features.shape[1]:
            raise ValueError("feature_names must match the feature matrix width")
        if self.labels.shape != (n,):
            raise ValueError("labels length must match the number of rows")
        clean = {}
        for name, col in self.protected.items():
            if name in self.feature_names:
                raise ValueError(f"protected column {name!r} must not appear among the features")
            arr = _check_binary_column(np.asarray(col, dtype=np.float64), name)
            if arr.shape != (n,):
                raise ValueError(f"protected column {name!r} length must match the number of rows")
            clean[name] = arr
        self.protected = clean

    @property
    def n(self) -> int:
        return self.features.shape[0]


def _cell_value(path, lineno: int, cell: str, name: str, kind: str) -> float:
    """One cell as a finite float, or the error that names its file, line and column."""
    try:
        value = float(cell)
    except ValueError:
        raise ValueError(f"{path}:{lineno}: non-numeric {kind} cell {cell!r} in column {name!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"{path}:{lineno}: non-finite {kind} cell {cell!r} in column {name!r}")
    return value


def load_csv(path, label_column: str, protected_columns=(), standardize: bool = False) -> Dataset:
    """Parse a headered CSV into a Dataset.

    Every column other than the label and protected ones is a feature and
    must be numeric.  With ``standardize`` set, feature columns that take
    values outside {0, 1} are z-scored (population standard deviation) and
    the applied (mean, sd) pairs are recorded on the returned dataset;
    binary and constant columns are left untouched.

    The file is read in one pass: each row is converted as it is read and
    appended to one float64 buffer, which becomes the table at the end.
    The first ragged row, non-numeric cell or non-finite cell in file
    order (row, then column) raises.
    """
    from array import array  # only commands that read a CSV need it

    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file, expected a header row") from None
        if len(set(header)) != len(header):
            dupes = sorted({h for h in header if header.count(h) > 1})
            raise ValueError(f"{path}: duplicate header names {dupes}")
        for required in (label_column, *protected_columns):
            if required not in header:
                raise ValueError(f"{path}: column {required!r} not found in header")
        kind_of = {
            h: "label" if h == label_column else "protected" if h in protected_columns else "feature" for h in header
        }
        width = len(header)
        table = array("d")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != width:
                raise ValueError(f"{path}:{lineno}: expected {width} cells, got {len(row)}")
            try:
                values = list(map(float, row))
            except ValueError:
                values = None
            # a sum is finite only if every term is, so most rows need no cell-by-cell look
            if values is None or not math.isfinite(sum(values)):
                if any(cell.strip().lower() in MISSING_TOKENS for cell in row):
                    continue
                values = [_cell_value(path, lineno, cell, h, kind_of[h]) for cell, h in zip(row, header)]
            table.extend(values)
    if not table:
        raise ValueError(f"{path}: no complete rows after dropping missing entries")

    rows = np.frombuffer(table, dtype=np.float64).reshape(-1, width)
    feature_names = tuple(h for h in header if kind_of[h] == "feature")
    col_of = {h: j for j, h in enumerate(header)}
    # take() copies into a C-ordered array, the layout the models' BLAS calls expect
    features = rows.take([col_of[h] for h in feature_names], axis=1)

    standardization: dict[str, tuple[float, float]] = {}
    if standardize:
        for j, name in enumerate(feature_names):
            col = features[:, j]
            if np.all((col == 0.0) | (col == 1.0)):
                continue
            mean = float(np.mean(col))
            sd = float(np.std(col))
            if sd == 0.0:
                continue
            features[:, j] = (col - mean) / sd
            standardization[name] = (mean, sd)

    # Dataset checks that the label and protected columns are binary and converts them
    return Dataset(
        feature_names=feature_names,
        features=features,
        labels=rows[:, col_of[label_column]],
        protected={name: rows[:, col_of[name]] for name in protected_columns},
        label_name=label_column,
        standardization=standardization,
    )


def save_csv(ds: Dataset, path) -> None:
    """Write a dataset as CSV: features, then the label, then the protected columns."""
    columns = [*ds.features.T.tolist(), ds.labels.tolist(), *(col.tolist() for col in ds.protected.values())]
    write_csv(path, [*ds.feature_names, ds.label_name, *ds.protected], _Stream(ds.n, zip(*columns)))


def split_csv(path, train_path, audit_path, train_fraction: float, seed: int) -> tuple[int, int]:
    """Shuffle a CSV's data rows with a seeded RNG into disjoint train/audit files.

    Rows are moved verbatim (no reparsing), so the split is byte-faithful.
    Keeping the audit file disjoint from training data is what makes the
    audit's independence assumption hold by construction.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must lie strictly between 0 and 1")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed!r}")
    with open(path, encoding="utf-8", newline="") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty file, expected a header row")
    header, body = lines[0], [ln for ln in lines[1:] if ln.strip()]
    if len(body) < 2:
        raise ValueError(f"{path}: need at least two data rows to split")
    order = np.random.default_rng(seed).permutation(len(body))
    n_train = int(round(train_fraction * len(body)))
    n_train = min(max(n_train, 1), len(body) - 1)
    write_csv(train_path, [header], [(body[i],) for i in order[:n_train]])
    write_csv(audit_path, [header], [(body[i],) for i in order[n_train:]])
    return n_train, len(body) - n_train
