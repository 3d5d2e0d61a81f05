"""Dataset ingestion and fold construction.

CSV files are parsed into a dense float matrix plus integer class labels.
Columns whose cells all parse as numbers stay numeric; anything else is
treated as categorical and integer-coded in order of first appearance, as
are the class labels themselves. Rows with missing cells are dropped by
default, with opt-in mean/mode imputation. Benchmarks ship as descriptors
(source URL, schema, expected shape) and are fetched on demand; nothing is
bundled beyond the descriptor file.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import types
import typing
import warnings
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
    anything else (identifier columns). With ``impute`` False, rows with
    missing cells are dropped; otherwise numeric gaps take the column mean
    and categorical gaps the column mode.
    """

    label_column: int | str = -1
    delimiter: str | None = ","
    header: bool = False
    drop_columns: tuple[int, ...] = ()
    missing_values: tuple[str, ...] = MISSING_MARKERS
    impute: bool = False


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


def _is_missing(cell: str, markers: tuple[str, ...]) -> bool:
    return cell in markers


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

    # Rows whose label is missing are useless under either missing policy.
    markers = schema.missing_values
    kept_rows = [r for r in rows if not _is_missing(r[label_idx], markers)]
    n_dropped = len(rows) - len(kept_rows)
    if schema.impute:
        table = kept_rows
    else:
        table = [
            r
            for r in kept_rows
            if not any(_is_missing(r[c], markers) for c in feature_cols)
        ]
        n_dropped += len(kept_rows) - len(table)
    if not table:
        raise DataError(f"{path}: every row was dropped for missing values")

    columns = []
    n_imputed = 0
    for c in feature_cols:
        cells = [r[c] for r in table]
        column, imputed = _encode_column(cells, markers, path, c)
        columns.append(column)
        n_imputed += imputed
    instances = np.column_stack(columns)

    label_cells = [r[label_idx] for r in table]
    class_names = list(dict.fromkeys(label_cells))
    code = {name_: i for i, name_ in enumerate(class_names)}
    labels = np.array([code[cell] for cell in label_cells], dtype=np.int64)
    if len(class_names) < 2:
        raise DataError(f"{path}: only one class present")

    if header_names is not None:
        feature_names = tuple(header_names[c] for c in feature_cols)
    else:
        feature_names = tuple(f"f{c}" for c in feature_cols)
    return Dataset(
        name=name or path.stem,
        instances=instances,
        labels=labels,
        feature_names=feature_names,
        class_names=tuple(class_names),
        n_dropped=n_dropped,
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


def _encode_column(
    cells: list[str], markers: tuple[str, ...], path, col: int
) -> tuple[np.ndarray, int]:
    """One feature column as float64; returns (values, imputed cell count)."""
    present = [cell for cell in cells if not _is_missing(cell, markers)]
    if not present:
        raise DataError(f"{path}: column {col} is entirely missing")
    numeric = [_parse_float(cell) for cell in present]
    if all(v is not None for v in numeric):
        fill = float(np.mean(numeric))
        out, imputed = [], 0
        for cell in cells:
            if _is_missing(cell, markers):
                out.append(fill)
                imputed += 1
            else:
                out.append(_parse_float(cell))
        return np.array(out, dtype=np.float64), imputed
    # Categorical: integer codes by first appearance; missing takes the mode.
    codes = {}
    for cell in present:
        codes.setdefault(cell, len(codes))
    counts = {cell: present.count(cell) for cell in codes}
    mode = max(codes, key=lambda cell: (counts[cell], -codes[cell]))
    out, imputed = [], 0
    for cell in cells:
        if _is_missing(cell, markers):
            out.append(codes[mode])
            imputed += 1
        else:
            out.append(codes[cell])
    return np.array(out, dtype=np.float64), imputed


# write_csv's format: a header row whose last cell names the label column.
_EXPORT_SCHEMA = CsvSchema(label_column="class", header=True)


def write_csv(dataset: Dataset, path) -> None:
    """Write a dataset in the export format; loading it back reproduces the arrays."""
    path = Path(path)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([*dataset.feature_names, _EXPORT_SCHEMA.label_column])
        for row, label in zip(dataset.instances, dataset.labels):
            writer.writerow([repr(float(v)) for v in row] + [dataset.class_names[label]])


def sniff_schema(path) -> CsvSchema:
    """Export schema if the first row ends in ``class``, else the default schema."""
    with open(path, newline="") as handle:
        first = next(csv.reader(handle), None)
    if first and first[-1].strip() == _EXPORT_SCHEMA.label_column:
        return _EXPORT_SCHEMA
    return CsvSchema()


def dataset_from_arrays(name: str, X, y, feature_names=None) -> Dataset:
    """Wrap in-memory arrays; labels are coded by first appearance."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if X.ndim != 2:
        raise DataError("X must be a 2-D matrix")
    class_values = list(dict.fromkeys(y.tolist()))
    code = {value: i for i, value in enumerate(class_values)}
    labels = np.array([code[value] for value in y.tolist()], dtype=np.int64)
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

        Each value must have its field's type, a list standing for a tuple;
        anything else is a DataError that names the entry and the key.
        """
        if not isinstance(raw, dict):
            raise DataError(f"descriptor {name}: expected a JSON object, not {raw!r}")
        schema_fields = {f.name: f for f in fields(CsvSchema)}
        own = {f.name: f for f in fields(cls) if f.name not in ("name", "schema")}
        unknown = set(raw) - set(schema_fields) - set(own)
        if unknown:
            raise DataError(f"descriptor {name}: unknown keys {sorted(unknown)}")
        hints = {**typing.get_type_hints(CsvSchema), **typing.get_type_hints(cls)}
        raw = {key: _json_value(name, key, hints[key], v) for key, v in raw.items()}
        values = {"title": name, "filename": f"{name}.csv"}
        values.update((key, raw[key]) for key in own if key in raw)
        missing = [k for k, f in own.items() if f.default is MISSING and k not in values]
        if missing:
            raise DataError(f"descriptor {name}: missing keys {missing}")
        schema = CsvSchema(**{key: raw[key] for key in schema_fields if key in raw})
        return cls(name=name, schema=schema, **values)


def _json_value(entry: str, key: str, hint, value):
    """``value`` read from JSON for the field ``key: hint``; a list becomes a tuple.

    Types match exactly, so ``true`` is no int and ``1.0`` no int either.
    """
    options = typing.get_args(hint) if isinstance(hint, types.UnionType) else (hint,)
    for option in options:
        if typing.get_origin(option) is tuple:
            item = typing.get_args(option)[0]
            if type(value) is list and all(type(v) is item for v in value):
                return tuple(value)
        elif type(value) is option:
            return value
    expected = hint.__name__ if isinstance(hint, type) else hint
    raise DataError(f"descriptor {entry}: {key} must be {expected}, not {value!r}")


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
