"""Dataset ingestion and fold construction.

CSV files are parsed into a dense float matrix plus integer class labels.
Columns whose cells all parse as numbers stay numeric; anything else is
treated as categorical and integer-coded in order of first appearance, as
are the class labels themselves. ``?`` and empty cells are missing: rows
with one are dropped by default, with opt-in mean/mode imputation of the
features. Benchmarks ship as descriptors (source URL, schema, expected
shape) and are fetched on demand; nothing is bundled beyond the descriptor
file.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import math
import numbers
import types
import typing
import warnings
from collections import Counter
from dataclasses import MISSING, dataclass, field, fields
from importlib import resources
from pathlib import Path

import numpy as np

__all__ = [
    "DataError",
    "CsvSchema",
    "Dataset",
    "FoldPlan",
    "DatasetDescriptor",
    "load_csv",
    "write_csv",
    "dataset_from_arrays",
    "stratified_folds",
    "load_descriptors",
    "fetch_dataset",
    "load_named",
]

MISSING_MARKERS = ("?", "")


class DataError(ValueError):
    """A dataset file or descriptor does not satisfy its contract."""


@dataclass(frozen=True)
class CsvSchema:
    """How to read one CSV file.

    ``label_column`` is an index into the raw file (negative counts from the
    end) or a header name. ``delimiter=None`` splits on arbitrary
    whitespace. ``drop_columns`` are raw-file indices removed before
    anything else (identifier columns). A ``?`` or empty cell is missing.
    A row with a missing label is always dropped; with ``impute`` False, so
    is a row with any missing feature, and otherwise numeric gaps take the
    column mean and categorical gaps the column mode. Non-numeric columns
    are coded by first appearance. The export format (:func:`write_csv`) is
    a header row with the label last, under ``class``.
    """

    label_column: int | str = -1
    delimiter: str | None = ","
    header: bool = False
    drop_columns: tuple[int, ...] = ()
    impute: bool = False

    def __post_init__(self):
        if self.delimiter is not None and len(self.delimiter) != 1:
            raise DataError(
                f"delimiter must be one character or null, not {self.delimiter!r}"
            )


@dataclass(eq=False)
class Dataset:
    """A classification dataset in memory.

    ``instances`` is an (n_instances, n_features) matrix of finite float64s and
    ``labels`` holds dense class codes 0..n_classes-1; both are read-only.
    ``class_names`` maps each code back to the label text it was read from,
    in order of first appearance, which keeps write/read round trips stable.
    """

    name: str
    instances: np.ndarray
    labels: np.ndarray
    feature_names: tuple[str, ...]
    class_names: tuple[str, ...]
    n_dropped: int = 0
    n_imputed: int = 0

    def __post_init__(self):
        instances = np.ascontiguousarray(self.instances, dtype=np.float64)
        labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        if instances.ndim != 2:
            raise DataError("instances must be a 2-D matrix")
        if labels.shape != (instances.shape[0],):
            raise DataError("labels must align with instance rows")
        if instances.shape[0] == 0 or instances.shape[1] == 0:
            raise DataError("dataset must have at least one row and one feature")
        if not np.isfinite(instances).all():
            raise DataError("instances must be finite numbers")
        if len(self.feature_names) != instances.shape[1]:
            raise DataError("feature_names must align with columns")
        if len(self.class_names) < 2:
            raise DataError("a classification dataset needs at least two classes")
        if labels.min() < 0 or labels.max() >= len(self.class_names):
            raise DataError("labels must be dense codes into class_names")
        instances.flags.writeable = False
        labels.flags.writeable = False
        self.instances = instances
        self.labels = labels

    @property
    def n_instances(self) -> int:
        return int(self.instances.shape[0])

    @property
    def n_features(self) -> int:
        return int(self.instances.shape[1])

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    def class_counts(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.n_classes)


@dataclass(frozen=True)
class FoldPlan:
    """A fixed stratified assignment of instances to cross-validation folds."""

    k: int
    assignment: np.ndarray = field(compare=False)
    seed: int = 0

    def __post_init__(self):
        assignment = np.ascontiguousarray(self.assignment, dtype=np.int64)
        assignment.flags.writeable = False
        object.__setattr__(self, "assignment", assignment)

    def test_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignment == fold)

    def train_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignment != fold)


def _parse_float(cell: str) -> float | None:
    try:
        value = float(cell)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def load_csv(path, schema: CsvSchema = CsvSchema(), name: str | None = None) -> Dataset:
    """Read one CSV file into a :class:`Dataset` per the schema."""
    path = Path(path)
    with open(path, newline="") as handle:
        if schema.delimiter is None:
            rows = [line.split() for line in handle if line.strip()]
        else:
            rows = [
                row
                for row in csv.reader(handle, delimiter=schema.delimiter)
                if any(cell.strip() for cell in row)
            ]
    header_names: list[str] | None = None
    if schema.header:
        if not rows:
            raise DataError(f"{path}: empty file")
        header_names = [cell.strip() for cell in rows[0]]
        rows = rows[1:]
    if not rows:
        raise DataError(f"{path}: no data rows")
    width = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != width:
            raise DataError(f"{path}: row {i} has {len(row)} cells, expected {width}")
    rows = [[cell.strip() for cell in row] for row in rows]

    label_idx = _resolve_label_column(schema.label_column, width, header_names, path)
    dropped = set()
    for col in schema.drop_columns:
        idx = col if col >= 0 else width + col
        if not 0 <= idx < width:
            raise DataError(f"{path}: drop column {col} out of range")
        dropped.add(idx)
    if label_idx in dropped:
        raise DataError(f"{path}: label column cannot be dropped")
    feature_cols = [c for c in range(width) if c != label_idx and c not in dropped]
    if not feature_cols:
        raise DataError(f"{path}: no feature columns left")

    # A row is kept only if it has every cell it needs: under ``impute`` just
    # its label, otherwise its label and every feature.
    needed = [label_idx] if schema.impute else [label_idx, *feature_cols]
    table = [r for r in rows if not any(r[c] in MISSING_MARKERS for c in needed)]
    if not table:
        raise DataError(f"{path}: every row was dropped for missing values")

    columns = []
    n_imputed = 0
    for c in feature_cols:
        column, imputed = _encode_column([r[c] for r in table], path, c)
        columns.append(column)
        n_imputed += imputed
    labels, class_names = _coded([r[label_idx] for r in table])
    if len(class_names) < 2:
        raise DataError(f"{path}: only one class present")

    if header_names is not None:
        feature_names = tuple(header_names[c] for c in feature_cols)
    else:
        feature_names = tuple(f"f{c}" for c in feature_cols)
    return Dataset(
        name=name or path.stem,
        instances=np.column_stack(columns),
        labels=labels,
        feature_names=feature_names,
        class_names=class_names,
        n_dropped=len(rows) - len(table),
        n_imputed=n_imputed,
    )


def _resolve_label_column(
    label_column, width: int, header_names: list[str] | None, path
) -> int:
    if isinstance(label_column, str):
        if header_names is None:
            raise DataError(f"{path}: label column by name requires a header")
        if label_column not in header_names:
            raise DataError(f"{path}: no column named {label_column!r}")
        return header_names.index(label_column)
    idx = label_column if label_column >= 0 else width + label_column
    if not 0 <= idx < width:
        raise DataError(f"{path}: label column {label_column} out of range")
    return idx


def _encode_column(cells: list[str], path, col: int) -> tuple[np.ndarray, int]:
    """One feature column as float64; returns (values, imputed cell count)."""
    present = [cell for cell in cells if cell not in MISSING_MARKERS]
    if not present:
        raise DataError(f"{path}: column {col} is entirely missing")
    value = {cell: _parse_float(cell) for cell in present}
    if None in value.values():
        # Categorical: codes by first appearance; a gap takes the mode, the
        # first to appear among equally common cells.
        value = {cell: float(i) for i, cell in enumerate(value)}
        fill = value[Counter(present).most_common(1)[0][0]]
    else:
        fill = float(np.mean([value[cell] for cell in present]))
    column = [fill if cell in MISSING_MARKERS else value[cell] for cell in cells]
    return np.array(column, dtype=np.float64), len(cells) - len(present)


def _coded(values: list) -> tuple[np.ndarray, tuple]:
    """Dense codes for ``values`` by first appearance, and the values so coded."""
    code = {value: i for i, value in enumerate(dict.fromkeys(values))}
    return np.array([code[value] for value in values], dtype=np.int64), tuple(code)


# write_csv's format: a header row whose last cell, ``class``, heads the label.
_EXPORT_SCHEMA = CsvSchema(label_column=-1, header=True)


def write_csv(dataset: Dataset, path) -> None:
    """Write a dataset in the export format; loading it back reproduces the arrays."""
    path = Path(path)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([*dataset.feature_names, "class"])
        for row, label in zip(dataset.instances, dataset.labels):
            writer.writerow([repr(float(v)) for v in row] + [dataset.class_names[label]])


def sniff_schema(path) -> CsvSchema:
    """Export schema if the first row ends in ``class``, else the default schema."""
    with open(path, newline="") as handle:
        first = next(csv.reader(handle), None)
    if first and first[-1].strip() == "class":
        return _EXPORT_SCHEMA
    return CsvSchema()


def dataset_from_arrays(name: str, X, y, feature_names=None) -> Dataset:
    """Wrap in-memory arrays; labels are coded by first appearance."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if X.ndim != 2:
        raise DataError("X must be a 2-D matrix")
    labels, class_values = _coded(y.tolist())
    if feature_names is None:
        feature_names = tuple(f"f{i}" for i in range(X.shape[1]))
    return Dataset(
        name=name,
        instances=X,
        labels=labels,
        feature_names=tuple(feature_names),
        class_names=tuple(str(value) for value in class_values),
    )


def stratified_folds(dataset: Dataset, k: int, seed: int = 0) -> FoldPlan:
    """Assign every instance to one of ``k`` folds, stratified by class.

    Within each class the shuffled members are dealt round-robin, and the
    dealing position carries over between classes, so per-class and total
    fold sizes each differ by at most one. When the smallest class has fewer
    than ``k`` members the fold count drops to that size, with a warning.
    """
    if k < 2:
        raise DataError("cross-validation needs at least 2 folds")
    counts = dataset.class_counts()
    smallest = int(counts.min())
    if smallest < 2:
        raise DataError(
            f"class {int(counts.argmin())} has {smallest} member(s); "
            f"stratified folding needs at least 2 per class"
        )
    k_eff = min(k, smallest)
    if k_eff < k:
        warnings.warn(
            f"{dataset.name}: smallest class has {smallest} members; "
            f"using {k_eff} folds instead of {k}",
            stacklevel=2,
        )
    rng = np.random.default_rng(seed)
    assignment = np.empty(dataset.n_instances, dtype=np.int64)
    cursor = 0
    for c in range(dataset.n_classes):
        members = np.flatnonzero(dataset.labels == c)
        rng.shuffle(members)
        for offset, idx in enumerate(members.tolist()):
            assignment[idx] = (cursor + offset) % k_eff
        cursor = (cursor + members.size) % k_eff
    return FoldPlan(k=k_eff, assignment=assignment, seed=seed)


@dataclass(frozen=True)
class DatasetDescriptor:
    """Where a benchmark lives and what it must look like once parsed."""

    name: str
    title: str
    url: str
    filename: str
    schema: CsvSchema
    expected_features: int
    expected_instances: int
    sha256: str | None = None

    @classmethod
    def from_json(cls, name: str, raw: dict) -> "DatasetDescriptor":
        """Read one entry; its keys are CsvSchema's fields and this class's own.

        Each value must fit its field's type (:func:`_fits`), a list standing
        for a tuple; anything else, or a schema that CsvSchema refuses, is a
        DataError that names the entry and the key.
        """
        if not isinstance(raw, dict):
            raise DataError(f"descriptor {name}: expected a JSON object, not {raw!r}")
        schema_fields = {f.name: f for f in fields(CsvSchema)}
        own = {f.name: f for f in fields(cls) if f.name not in ("name", "schema")}
        unknown = set(raw) - set(schema_fields) - set(own)
        if unknown:
            raise DataError(f"descriptor {name}: unknown keys {sorted(unknown)}")
        hints = {**_field_types(CsvSchema), **_field_types(cls)}
        for key, value in raw.items():
            if problem := _type_error(key, value, hints[key]):
                raise DataError(f"descriptor {name}: {problem}")
        raw = {key: tuple(v) if isinstance(v, list) else v for key, v in raw.items()}
        values = {"title": name, "filename": f"{name}.csv"}
        values.update((key, raw[key]) for key in own if key in raw)
        missing = [k for k, f in own.items() if f.default is MISSING and k not in values]
        if missing:
            raise DataError(f"descriptor {name}: missing keys {missing}")
        try:
            schema = CsvSchema(**{key: raw[key] for key in schema_fields if key in raw})
        except DataError as err:
            raise DataError(f"descriptor {name}: {err}") from None
        return cls(name=name, schema=schema, **values)


@functools.cache
def _field_types(cls) -> dict:
    """The dataclass ``cls``'s field annotations, evaluated, by field name."""
    return typing.get_type_hints(cls)


def _fits(value, hint) -> bool:
    """Whether ``value`` fits a field of the evaluated annotation ``hint``.

    ``hint`` is a type, ``tuple[int, ...]`` (which a list fits too) or a
    union of them. An integer fits ``int`` and ``float``, any real number
    ``float``, NumPy's included; a bool (Python's or NumPy's) fits only
    ``bool``, although Python counts it as an int.
    """
    if isinstance(hint, types.UnionType):
        return any(_fits(value, option) for option in typing.get_args(hint))
    if typing.get_origin(hint) is tuple:
        item = typing.get_args(hint)[0]
        return isinstance(value, (list, tuple)) and all(_fits(v, item) for v in value)
    if isinstance(value, (bool, np.bool_)):
        return hint is bool
    return isinstance(value, {int: numbers.Integral, float: numbers.Real}.get(hint, hint))


def _type_error(name: str, value, hint) -> str | None:
    """The message for a field ``name: hint`` given ``value``, if it does not fit."""
    if not _fits(value, hint):
        expected = hint.__name__ if type(hint) is type else str(hint)
        return f"{name} must be {expected}, not {value!r}"


def load_descriptors(path=None) -> dict[str, DatasetDescriptor]:
    """Read the benchmark descriptor table (the bundled one by default)."""
    if path is None:
        raw = json.loads(
            resources.files("tribefs").joinpath("datasets.json").read_text()
        )
    else:
        raw = json.loads(Path(path).read_text())
        if not isinstance(raw, dict):
            raise DataError(f"{path}: expected a JSON object of named descriptors")
    return {
        name: DatasetDescriptor.from_json(name, entry) for name, entry in raw.items()
    }


def _descriptor(name: str, descriptors: dict | None) -> DatasetDescriptor:
    """``name``'s entry in ``descriptors`` (the bundled table by default)."""
    if descriptors is None:
        descriptors = load_descriptors()
    if name not in descriptors:
        known = ", ".join(sorted(descriptors))
        raise DataError(f"unknown dataset {name!r}; known: {known}")
    return descriptors[name]


def fetch_dataset(
    name: str,
    data_dir,
    descriptors: dict[str, DatasetDescriptor] | None = None,
    force: bool = False,
) -> Path:
    """Download one benchmark into ``data_dir`` and verify it parses as expected.

    The download lands in ``<filename>.part`` and replaces the destination
    only once its checksum and shape hold, so a failed fetch leaves nothing
    behind that a later fetch would mistake for the benchmark.
    """
    desc = _descriptor(name, descriptors)
    data_dir = Path(data_dir)
    data_dir.mkdir(parents=True, exist_ok=True)
    dest = data_dir / desc.filename
    if not force and dest.exists():
        _verify_against_descriptor(dest, desc)
        return dest
    # Imported here, not at module level: only a download needs the network
    # stack (http.client, ssl, email), and every engine process would pay
    # its memory otherwise.
    import urllib.request

    with urllib.request.urlopen(desc.url) as response:
        payload = response.read()
    if desc.sha256 is not None:
        digest = hashlib.sha256(payload).hexdigest()
        if digest != desc.sha256:
            raise DataError(
                f"{name}: checksum mismatch (got {digest}, expected {desc.sha256})"
            )
    part = dest.with_name(dest.name + ".part")
    try:
        part.write_bytes(payload)
        _verify_against_descriptor(part, desc)
        part.replace(dest)
    except BaseException:
        part.unlink(missing_ok=True)
        raise
    return dest


def load_named(
    name: str,
    data_dir,
    descriptors: dict[str, DatasetDescriptor] | None = None,
) -> Dataset:
    """Load a previously fetched benchmark by descriptor name."""
    desc = _descriptor(name, descriptors)
    path = Path(data_dir) / desc.filename
    if not path.exists():
        raise FileNotFoundError(
            f"{path} not found; run `tribefs fetch-data --name {name}` first"
        )
    return _verify_against_descriptor(path, desc)


def _verify_against_descriptor(path: Path, desc: DatasetDescriptor) -> Dataset:
    dataset = load_csv(path, desc.schema, name=desc.name)
    if dataset.n_features != desc.expected_features:
        raise DataError(
            f"{desc.name}: parsed {dataset.n_features} features, "
            f"descriptor expects {desc.expected_features}"
        )
    if dataset.n_instances != desc.expected_instances:
        raise DataError(
            f"{desc.name}: parsed {dataset.n_instances} instances, "
            f"descriptor expects {desc.expected_instances}"
        )
    return dataset
