import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import tribefs as t
from tribefs.data import sniff_schema

from conftest import make_blobs


def write(tmp_path, text, name="toy.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


BASIC = """5.1,3.5,a,yes
4.9,3.0,b,yes
6.2,2.9,a,no
5.8,2.7,b,no
"""


MARKERS = ("?", "")


def reference_float(cell):
    try:
        value = float(cell)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def reference_read(rows, label_idx, impute, path):
    """Straight-line reader: missing-cell filter, imputation, label coding.

    ``rows`` hold stripped cells of one width, every column but ``label_idx``
    is a feature, and a ``?`` or empty cell is missing. Returns the arrays
    and counts that ``load_csv`` builds from them, or raises its DataError.
    """
    feature_cols = [c for c in range(len(rows[0])) if c != label_idx]
    kept_rows = [r for r in rows if r[label_idx] not in MARKERS]
    n_dropped = len(rows) - len(kept_rows)
    if impute:
        table = kept_rows
    else:
        table = [
            r for r in kept_rows if not any(r[c] in MARKERS for c in feature_cols)
        ]
        n_dropped += len(kept_rows) - len(table)
    if not table:
        raise t.DataError(f"{path}: every row was dropped for missing values")
    columns = []
    n_imputed = 0
    for c in feature_cols:
        cells = [r[c] for r in table]
        present = [cell for cell in cells if cell not in MARKERS]
        if not present:
            raise t.DataError(f"{path}: column {c} is entirely missing")
        numeric = [reference_float(cell) for cell in present]
        out = []
        if all(v is not None for v in numeric):
            fill = float(np.mean(numeric))
            for cell in cells:
                if cell in MARKERS:
                    out.append(fill)
                    n_imputed += 1
                else:
                    out.append(reference_float(cell))
        else:
            codes = {}
            for cell in present:
                codes.setdefault(cell, len(codes))
            counts = {cell: present.count(cell) for cell in codes}
            mode = max(codes, key=lambda cell: (counts[cell], -codes[cell]))
            for cell in cells:
                if cell in MARKERS:
                    out.append(codes[mode])
                    n_imputed += 1
                else:
                    out.append(codes[cell])
        columns.append(np.array(out, dtype=np.float64))
    label_cells = [r[label_idx] for r in table]
    class_names = list(dict.fromkeys(label_cells))
    code = {name: i for i, name in enumerate(class_names)}
    labels = np.array([code[cell] for cell in label_cells], dtype=np.int64)
    if len(class_names) < 2:
        raise t.DataError(f"{path}: only one class present")
    return np.column_stack(columns), labels, tuple(class_names), n_dropped, n_imputed


NUMERIC_CELLS = st.sampled_from(["0", "1", "-2.5", "3e1", "0.1", "?", ""])
CATEGORICAL_CELLS = st.sampled_from(["a", "b", "c", "1", "inf", "?", ""])
LABEL_CELLS = st.sampled_from(["x", "y", "z", "1", "?", ""])


@st.composite
def small_tables(draw):
    """(rows, label column index): numeric and categorical features."""
    width = draw(st.integers(2, 4))
    label = draw(st.integers(0, width - 1))
    features = st.sampled_from([NUMERIC_CELLS, CATEGORICAL_CELLS])
    kinds = [LABEL_CELLS if c == label else draw(features) for c in range(width)]
    rows = draw(st.lists(st.tuples(*kinds).map(list), min_size=1, max_size=8))
    # The reader skips a line of empty cells before any missing-cell rule.
    rows = [row for row in rows if any(row)]
    assume(rows)
    return rows, label


class TestReaderMatchesReference:
    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(table=small_tables(), impute=st.booleans(), from_end=st.booleans())
    def test_reads_as_the_reference_does(self, tmp_path, table, impute, from_end):
        rows, label = table
        path = write(tmp_path, "".join(",".join(row) + "\n" for row in rows))
        column = label - len(rows[0]) if from_end else label
        schema = t.CsvSchema(label_column=column, impute=impute)
        try:
            expected = reference_read(rows, label, impute, path)
        except t.DataError as err:
            with pytest.raises(t.DataError) as caught:
                t.load_csv(path, schema)
            assert str(caught.value) == str(err)
            return
        dataset = t.load_csv(path, schema)
        instances, labels, class_names, n_dropped, n_imputed = expected
        assert dataset.instances.tobytes() == instances.tobytes()
        assert dataset.labels.tolist() == labels.tolist()
        assert dataset.class_names == class_names
        assert (dataset.n_dropped, dataset.n_imputed) == (n_dropped, n_imputed)


class TestLoadCsv:
    def test_basic_shape_and_types(self, tmp_path):
        dataset = t.load_csv(write(tmp_path, BASIC))
        assert dataset.n_instances == 4
        assert dataset.n_features == 3
        assert dataset.instances.dtype == np.float64
        assert dataset.labels.dtype == np.int64
        assert dataset.name == "toy"
        assert dataset.feature_names == ("f0", "f1", "f2")

    def test_labels_coded_by_first_appearance(self, tmp_path):
        dataset = t.load_csv(write(tmp_path, BASIC))
        assert dataset.class_names == ("yes", "no")
        assert list(dataset.labels) == [0, 0, 1, 1]

    def test_categorical_feature_coded_by_first_appearance(self, tmp_path):
        dataset = t.load_csv(write(tmp_path, BASIC))
        assert list(dataset.instances[:, 2]) == [0.0, 1.0, 0.0, 1.0]

    def test_header_and_label_by_name(self, tmp_path):
        text = "width,height,target\n1,2,x\n3,4,y\n"
        path = write(tmp_path, text)
        dataset = t.load_csv(path, t.CsvSchema(label_column="target", header=True))
        assert dataset.feature_names == ("width", "height")
        assert dataset.class_names == ("x", "y")

    def test_label_by_name_without_header_fails(self, tmp_path):
        with pytest.raises(t.DataError, match="header"):
            t.load_csv(write(tmp_path, BASIC), t.CsvSchema(label_column="target"))

    def test_label_column_positions(self, tmp_path):
        text = "yes,1.0,2.0\nno,3.0,4.0\n"
        dataset = t.load_csv(write(tmp_path, text), t.CsvSchema(label_column=0))
        assert dataset.class_names == ("yes", "no")
        assert dataset.n_features == 2

    def test_drop_columns(self, tmp_path):
        text = "id1,5.0,yes\nid2,6.0,no\n"
        dataset = t.load_csv(write(tmp_path, text), t.CsvSchema(drop_columns=(0,)))
        assert dataset.n_features == 1
        assert list(dataset.instances[:, 0]) == [5.0, 6.0]

    def test_dropping_label_column_fails(self, tmp_path):
        with pytest.raises(t.DataError, match="label column"):
            t.load_csv(write(tmp_path, BASIC), t.CsvSchema(drop_columns=(-1,)))

    def test_whitespace_delimiter(self, tmp_path):
        text = "1.0   2.0  yes\n3.0 4.0   no\n"
        dataset = t.load_csv(write(tmp_path, text), t.CsvSchema(delimiter=None))
        assert dataset.n_instances == 2
        assert dataset.n_features == 2

    def test_ragged_rows_fail(self, tmp_path):
        with pytest.raises(t.DataError, match="row 1 has"):
            t.load_csv(write(tmp_path, "1,2,yes\n3,no\n"))

    def test_missing_rows_dropped_by_default(self, tmp_path):
        text = "1.0,2.0,yes\n?,3.0,no\n4.0,5.0,no\n6.0,,yes\n7.0,8.0,yes\n"
        dataset = t.load_csv(write(tmp_path, text))
        assert dataset.n_instances == 3
        assert dataset.n_dropped == 2
        assert dataset.n_imputed == 0

    def test_numeric_imputation_uses_column_mean(self, tmp_path):
        text = "1.0,1.0,yes\n?,1.0,no\n3.0,1.0,yes\n"
        dataset = t.load_csv(write(tmp_path, text), t.CsvSchema(impute=True))
        assert dataset.n_instances == 3
        assert dataset.n_imputed == 1
        assert dataset.instances[1, 0] == pytest.approx(2.0)

    def test_categorical_imputation_uses_mode(self, tmp_path):
        text = "a,1.0,yes\nb,1.0,no\na,1.0,yes\n?,1.0,no\n"
        dataset = t.load_csv(write(tmp_path, text), t.CsvSchema(impute=True))
        assert dataset.n_imputed == 1
        assert dataset.instances[3, 0] == 0.0  # the mode is "a", coded 0

    def test_rows_with_missing_label_always_dropped(self, tmp_path):
        text = "1.0,2.0,yes\n3.0,4.0,?\n5.0,6.0,no\n"
        dataset = t.load_csv(write(tmp_path, text), t.CsvSchema(impute=True))
        assert dataset.n_instances == 2
        assert dataset.n_dropped == 1

    def test_entirely_missing_column_fails(self, tmp_path):
        text = "?,1.0,yes\n?,2.0,no\n"
        with pytest.raises(t.DataError, match="entirely missing"):
            t.load_csv(write(tmp_path, text), t.CsvSchema(impute=True))

    def test_single_class_fails(self, tmp_path):
        with pytest.raises(t.DataError, match="one class"):
            t.load_csv(write(tmp_path, "1.0,yes\n2.0,yes\n"))

    def test_empty_file_fails(self, tmp_path):
        with pytest.raises(t.DataError, match="no data rows"):
            t.load_csv(write(tmp_path, "\n\n"))
        with pytest.raises(t.DataError, match="empty file"):
            t.load_csv(write(tmp_path, "\n"), t.CsvSchema(header=True))

    def test_unknown_label_name_fails(self, tmp_path):
        text = "a,b,label\n1.0,2.0,yes\n3.0,4.0,no\n"
        schema = t.CsvSchema(label_column="class", header=True)
        with pytest.raises(t.DataError, match="no column named 'class'"):
            t.load_csv(write(tmp_path, text), schema)

    def test_no_feature_column_left_fails(self, tmp_path):
        text = "7,1.0,yes\n8,2.0,no\n"
        with pytest.raises(t.DataError, match="no feature columns left"):
            t.load_csv(write(tmp_path, text), t.CsvSchema(drop_columns=(0, 1)))

    def test_every_row_dropped_fails(self, tmp_path):
        text = "?,1.0,yes\n2.0,?,no\n"
        with pytest.raises(t.DataError, match="every row was dropped"):
            t.load_csv(write(tmp_path, text))

    def test_out_of_range_columns_fail(self, tmp_path):
        with pytest.raises(t.DataError, match="out of range"):
            t.load_csv(write(tmp_path, BASIC), t.CsvSchema(label_column=9))
        with pytest.raises(t.DataError, match="out of range"):
            t.load_csv(write(tmp_path, BASIC), t.CsvSchema(drop_columns=(9,)))

    def test_non_finite_numbers_are_treated_as_categories(self, tmp_path):
        # "inf" fails the float gate, so the column falls back to categorical.
        text = "inf,1.0,yes\n2.0,1.0,no\ninf,2.0,yes\n"
        dataset = t.load_csv(write(tmp_path, text))
        assert set(dataset.instances[:, 0]) == {0.0, 1.0}


class TestRoundTrip:
    def test_write_then_load_reproduces_arrays(self, tmp_path, blob_dataset):
        path = tmp_path / "blobs.csv"
        t.write_csv(blob_dataset, path)
        loaded = t.load_csv(path, t.CsvSchema(label_column="class", header=True))
        assert np.array_equal(loaded.instances, blob_dataset.instances)
        assert np.array_equal(loaded.labels, blob_dataset.labels)
        assert loaded.feature_names == blob_dataset.feature_names
        assert loaded.class_names == blob_dataset.class_names

    def test_a_feature_named_class_stays_a_feature(self, tmp_path, monkeypatch):
        X = [[1.0, 5.0], [2.0, 6.0], [3.0, 7.0], [4.0, 8.0]]
        dataset = t.dataset_from_arrays("exp", X, ["a", "b", "a", "b"], ("class", "b"))
        t.write_csv(dataset, tmp_path / "exp.csv")
        monkeypatch.chdir(tmp_path)
        loaded = t.resolve_dataset(t.RunConfig(dataset="./exp.csv"))
        assert loaded.feature_names == ("class", "b")
        assert loaded.class_names == ("a", "b")
        assert np.array_equal(loaded.instances, dataset.instances)
        assert np.array_equal(loaded.labels, dataset.labels)


class TestSniffSchema:
    def test_export_format_reads_with_its_header(self, tmp_path, blob_dataset):
        path = tmp_path / "blobs.csv"
        t.write_csv(blob_dataset, path)
        assert sniff_schema(path) == t.CsvSchema(label_column=-1, header=True)

    def test_other_files_take_the_default_schema(self, tmp_path):
        assert sniff_schema(write(tmp_path, BASIC)) == t.CsvSchema()
        assert sniff_schema(write(tmp_path, "", name="empty.csv")) == t.CsvSchema()


class TestDatasetFromArrays:
    def test_wraps_and_codes_labels(self):
        X = [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]
        dataset = t.dataset_from_arrays("tiny", X, ["b", "a", "b"])
        assert dataset.class_names == ("b", "a")
        assert list(dataset.labels) == [0, 1, 0]
        assert dataset.instances.flags.writeable is False

    def test_rejects_bad_shapes(self):
        with pytest.raises(t.DataError):
            t.dataset_from_arrays("bad", np.zeros(3), [0, 1, 0])
        with pytest.raises(t.DataError):
            t.dataset_from_arrays("bad", np.zeros((3, 2)), [0, 1])
        with pytest.raises(t.DataError, match="at least one row and one feature"):
            t.dataset_from_arrays("bad", np.zeros((4, 0)), [0, 1, 0, 1])
        with pytest.raises(t.DataError, match="feature_names must align"):
            t.dataset_from_arrays("bad", np.zeros((2, 2)), [0, 1], ("a",))
        with pytest.raises(t.DataError, match="2-D matrix"):
            t.Dataset("bad", np.zeros(3), [0, 1, 0], ("f0",), ("a", "b"))

    def test_rejects_a_single_class(self):
        with pytest.raises(t.DataError, match="at least two classes"):
            t.dataset_from_arrays("bad", np.zeros((2, 2)), [0, 0])

    @pytest.mark.parametrize("labels", [[0, 2, 1], [0, -1, 1]])
    def test_rejects_labels_outside_the_class_codes(self, labels):
        with pytest.raises(t.DataError, match="dense codes"):
            t.Dataset("bad", np.zeros((3, 1)), labels, ("f0",), ("a", "b"))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_features(self, value):
        X = np.arange(8.0).reshape(4, 2)
        X[2, 1] = value
        with pytest.raises(t.DataError, match="finite"):
            t.dataset_from_arrays("bad", X, [0, 1, 0, 1])


class TestStratifiedFolds:
    def test_every_instance_assigned_once(self, blob_dataset):
        plan = t.stratified_folds(blob_dataset, 5, seed=1)
        assert plan.k == 5
        cover = np.concatenate([plan.test_indices(f) for f in range(5)])
        assert sorted(cover.tolist()) == list(range(blob_dataset.n_instances))
        for f in range(5):
            train = set(plan.train_indices(f).tolist())
            test = set(plan.test_indices(f).tolist())
            assert not train & test
            assert len(train | test) == blob_dataset.n_instances

    def test_class_balance_within_one(self, blob_dataset):
        plan = t.stratified_folds(blob_dataset, 7, seed=2)
        for c in range(blob_dataset.n_classes):
            members = blob_dataset.labels == c
            per_fold = [
                int(members[plan.test_indices(f)].sum()) for f in range(plan.k)
            ]
            assert max(per_fold) - min(per_fold) <= 1

    def test_fold_sizes_within_one(self, blob_dataset):
        plan = t.stratified_folds(blob_dataset, 6, seed=3)
        sizes = [plan.test_indices(f).size for f in range(plan.k)]
        assert max(sizes) - min(sizes) <= 1

    def test_deterministic_per_seed(self, blob_dataset):
        a = t.stratified_folds(blob_dataset, 5, seed=4)
        b = t.stratified_folds(blob_dataset, 5, seed=4)
        c = t.stratified_folds(blob_dataset, 5, seed=5)
        assert np.array_equal(a.assignment, b.assignment)
        assert not np.array_equal(a.assignment, c.assignment)

    def test_reduces_folds_to_smallest_class(self):
        dataset = make_blobs(n_per_class=3)
        with pytest.warns(UserWarning, match="3 folds instead of 10"):
            plan = t.stratified_folds(dataset, 10)
        assert plan.k == 3

    def test_rejects_degenerate_inputs(self, blob_dataset):
        with pytest.raises(t.DataError, match="at least 2 folds"):
            t.stratified_folds(blob_dataset, 1)
        lone = t.dataset_from_arrays(
            "lone", np.arange(6.0).reshape(3, 2), ["a", "a", "b"]
        )
        with pytest.raises(t.DataError, match="at least 2 per class"):
            t.stratified_folds(lone, 2)


class TestDescriptors:
    def test_bundled_descriptors_parse(self):
        descriptors = t.load_descriptors()
        assert "wbcd" in descriptors
        assert "wine" in descriptors
        for desc in descriptors.values():
            assert desc.expected_features >= 1
            assert desc.expected_instances >= 1
            assert desc.url

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "descriptors.json"
        path.write_text(json.dumps({"x": {"url": "file:///x", "expected_features": 1,
                                          "expected_instances": 1, "bogus": True}}))
        with pytest.raises(t.DataError, match="unknown keys"):
            t.load_descriptors(path)

    def test_missing_keys_rejected(self, tmp_path):
        path = tmp_path / "descriptors.json"
        path.write_text(json.dumps({"x": {"url": "file:///x", "expected_features": 1}}))
        with pytest.raises(t.DataError, match=r"missing keys \['expected_instances'\]"):
            t.load_descriptors(path)

    @pytest.mark.parametrize(
        "table, message",
        [
            ([], "expected a JSON object of named descriptors"),
            ({"x": 5}, "descriptor x: expected a JSON object, not 5"),
            ({"x": ["url"]}, "descriptor x: expected a JSON object"),
        ],
    )
    def test_a_table_that_is_not_an_object_of_objects_is_rejected(
        self, tmp_path, table, message
    ):
        path = tmp_path / "descriptors.json"
        path.write_text(json.dumps(table))
        with pytest.raises(t.DataError, match=message):
            t.load_descriptors(path)

    def test_an_empty_table_knows_no_dataset(self, tmp_path, no_download):
        # An empty table is a table, not a request for the bundled one.
        with pytest.raises(t.DataError, match="unknown dataset 'wbcd'"):
            t.fetch_dataset("wbcd", tmp_path, descriptors={})
        with pytest.raises(t.DataError, match="unknown dataset 'wbcd'"):
            t.load_named("wbcd", tmp_path, descriptors={})

    def test_keys_default_to_the_schema_defaults(self):
        desc = t.DatasetDescriptor.from_json(
            "x", {"url": "u", "expected_features": 1, "expected_instances": 2,
                  "drop_columns": [0], "header": True}
        )
        assert desc.title == "x"
        assert desc.filename == "x.csv"
        assert desc.schema == t.CsvSchema(drop_columns=(0,), header=True)

    def test_fetch_from_file_url(self, tmp_path):
        source = write(tmp_path, BASIC, name="source.csv")
        path = tmp_path / "descriptors.json"
        path.write_text(json.dumps({
            "toy": {
                "url": source.as_uri(),
                "filename": "toy.csv",
                "expected_features": 3,
                "expected_instances": 4,
            }
        }))
        descriptors = t.load_descriptors(path)
        data_dir = tmp_path / "data"
        dest = t.fetch_dataset("toy", data_dir, descriptors)
        assert dest == data_dir / "toy.csv"
        dataset = t.load_named("toy", data_dir, descriptors)
        assert dataset.n_instances == 4
        assert dataset.name == "toy"

    def test_fetch_detects_shape_mismatch(self, tmp_path):
        source = write(tmp_path, BASIC, name="source.csv")
        path = tmp_path / "descriptors.json"
        path.write_text(json.dumps({
            "toy": {
                "url": source.as_uri(),
                "expected_features": 99,
                "expected_instances": 4,
            }
        }))
        descriptors = t.load_descriptors(path)
        with pytest.raises(t.DataError, match="99"):
            t.fetch_dataset("toy", tmp_path / "data", descriptors)

    def test_load_named_detects_an_instance_count_mismatch(self, tmp_path):
        path = tmp_path / "descriptors.json"
        path.write_text(json.dumps({
            "toy": {"url": "file:///unused", "expected_features": 3,
                    "expected_instances": 5}
        }))
        write(tmp_path, BASIC)  # toy.csv: 3 features, 4 instances
        with pytest.raises(t.DataError, match="parsed 4 instances, descriptor expects 5"):
            t.load_named("toy", tmp_path, t.load_descriptors(path))

    def test_failed_fetch_leaves_no_file(self, tmp_path):
        source = write(tmp_path, BASIC, name="source.csv")
        path = tmp_path / "descriptors.json"
        entry = {"url": source.as_uri(), "filename": "toy.csv",
                 "expected_features": 99, "expected_instances": 4}
        path.write_text(json.dumps({"toy": entry}))
        data_dir = tmp_path / "data"
        with pytest.raises(t.DataError, match="99"):
            t.fetch_dataset("toy", data_dir, t.load_descriptors(path))
        assert list(data_dir.iterdir()) == []
        # So the next fetch downloads again instead of trusting a bad file.
        path.write_text(json.dumps({"toy": {**entry, "expected_features": 3}}))
        dest = t.fetch_dataset("toy", data_dir, t.load_descriptors(path))
        assert sorted(data_dir.iterdir()) == [dest]

    def test_fetch_verifies_checksum(self, tmp_path):
        source = write(tmp_path, BASIC, name="source.csv")
        path = tmp_path / "descriptors.json"
        path.write_text(json.dumps({
            "toy": {
                "url": source.as_uri(),
                "expected_features": 3,
                "expected_instances": 4,
                "sha256": "0" * 64,
            }
        }))
        descriptors = t.load_descriptors(path)
        with pytest.raises(t.DataError, match="checksum"):
            t.fetch_dataset("toy", tmp_path / "data", descriptors)

    def test_fetch_skips_existing_file(self, tmp_path):
        source = write(tmp_path, BASIC, name="source.csv")
        path = tmp_path / "descriptors.json"
        path.write_text(json.dumps({
            "toy": {
                "url": source.as_uri(),
                "filename": "toy.csv",
                "expected_features": 3,
                "expected_instances": 4,
            }
        }))
        descriptors = t.load_descriptors(path)
        data_dir = tmp_path / "data"
        t.fetch_dataset("toy", data_dir, descriptors)
        source.unlink()  # a second fetch must not need the source
        t.fetch_dataset("toy", data_dir, descriptors)

    def test_unknown_name_fails(self, tmp_path):
        with pytest.raises(t.DataError, match="unknown dataset"):
            t.fetch_dataset("nope", tmp_path)
        with pytest.raises(t.DataError, match="unknown dataset"):
            t.load_named("nope", tmp_path)

    def test_load_named_missing_file_hints_fetch(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="fetch-data --name wine"):
            t.load_named("wine", tmp_path)
