import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tribefs as t
from tribefs import cli
from tribefs.cli import _build_parser, _config_from_args, main

from conftest import make_blobs


@pytest.fixture(scope="module")
def blob_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "blobs.csv"
    t.write_csv(make_blobs(n_per_class=20, n_features=10, seed=1), path)
    return path


def run_flags(blob_csv, *extra):
    return [
        "run",
        "--dataset", str(blob_csv),
        "--tribe-size", "100",
        "--n-tribes", "3",
        "--classifier", "nearest-centroid",
        "--folds", "3",
        "--max-generations", "4",
        "--patience", "0",
        "--runs", "1",
        "--seed", "3",
        *extra,
    ]


class TestRunCommand:
    def test_run_writes_report_and_tables(self, blob_csv, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(run_flags(blob_csv, "--out", str(out)))
        assert code == 0
        stdout = capsys.readouterr().out
        assert "accuracy" in stdout
        payload = json.loads((out / "report.json").read_text())
        assert payload["config"]["dataset"] == str(blob_csv)
        assert "fingerprint" in payload
        for name in ("summary.csv", "trace.csv", "competitions.csv"):
            assert (out / name).exists()

    def test_config_file_with_flag_override(self, blob_csv, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "dataset": str(blob_csv),
            "tribe_size": 100,
            "n_tribes": 3,
            "classifier": "nearest-centroid",
            "folds": 3,
            "max_generations": 2,
            "patience": 0,
            "runs": 1,
        }))
        code = main(["run", "--config", str(config_path), "--seed", "5"])
        assert code == 0
        assert "run 0" in capsys.readouterr().out

    def test_unknown_config_key_exits_one(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"tribal_size": 600}))
        assert main(["run", "--config", str(config_path)]) == 1
        assert "unknown config keys" in capsys.readouterr().err

    def test_subsample_is_not_a_config_key(self, blob_csv, tmp_path, capsys):
        # Every fold trains on all its training rows; there is no knob for it.
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"subsample": 0.5}))
        args = ["run", "--config", str(config_path), "--dataset", str(blob_csv)]
        assert main(args) == 1
        assert "unknown config keys: ['subsample']" in capsys.readouterr().err

    def test_negative_seed_exits_one(self, blob_csv, capsys):
        assert main(run_flags(blob_csv, "--seed", "-1")) == 1
        assert "seed must be non-negative" in capsys.readouterr().err

    def test_missing_dataset_exits_one(self, capsys):
        assert main(run_flags("definitely-missing.csv")) == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_flag_value_exits_one(self, blob_csv, capsys):
        assert main(run_flags(blob_csv, "--crossover-rate", "1.5")) == 1
        assert "crossover_rate" in capsys.readouterr().err

    def test_bad_means_exits_one(self, blob_csv, capsys):
        assert main(run_flags(blob_csv, "--means", "2,a")) == 1
        assert "--means expects comma-separated integers" in capsys.readouterr().err

    def test_infeasible_layout_exits_one_before_running(self, blob_csv, tmp_path, capsys):
        # Three tribes of four cannot populate their edge bins at ten features.
        out = tmp_path / "out"
        flags = run_flags(blob_csv, "--tribe-size", "4", "--out", str(out))
        assert main(flags) == 1
        assert capsys.readouterr().err.startswith("error: infeasible tribe layout: ")
        assert not out.exists()
        assert main([*flags, "--allow-infeasible"]) == 0
        assert (out / "report.json").exists()

    def test_nan_sigma_exits_one(self, blob_csv, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(run_flags(blob_csv, "--sigma", "nan", "--out", str(out))) == 1
        assert "sigma must be positive and finite" in capsys.readouterr().err
        assert not out.exists()

    def test_infinite_sigma_exits_one_even_when_infeasible_is_allowed(
        self, blob_csv, tmp_path, capsys
    ):
        # A run would write "sigma": Infinity, which is not JSON, into the report.
        out = tmp_path / "out"
        flags = run_flags(blob_csv, "--sigma", "inf", "--allow-infeasible", "--out", str(out))
        assert main(flags) == 1
        assert "sigma must be positive and finite" in capsys.readouterr().err
        assert not out.exists()

    def test_malformed_config_json_exits_one(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text("{not json")
        assert main(["run", "--config", str(config_path)]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "raw", [{"dataset": "oracle.csv", "seed": 1.5}, {"dataset": 5}]
    )
    def test_wrong_typed_config_value_exits_one(self, tmp_path, capsys, raw):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(raw))
        assert main(["run", "--config", str(config_path)]) == 1
        assert "must be" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["[1, 2]", "5", "null", '"blobs.csv"'])
    def test_config_json_that_is_not_an_object_exits_one(self, tmp_path, capsys, text):
        config_path = tmp_path / "config.json"
        config_path.write_text(text)
        assert main(["run", "--config", str(config_path)]) == 1
        assert "expected a JSON object" in capsys.readouterr().err

    def test_removed_classifier_exits_one_with_the_options(
        self, blob_csv, tmp_path, capsys
    ):
        # 1-NN was dropped: a config that still names it runs nothing.
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "dataset": str(blob_csv), "classifier": "nearest-neighbor",
            "tribe_size": 100, "n_tribes": 3, "folds": 3, "max_generations": 1,
        }))
        assert main(["run", "--config", str(config_path)]) == 1
        assert (
            "unknown classifier 'nearest-neighbor'; "
            "options: ('linear-svm', 'nearest-centroid')"
        ) in capsys.readouterr().err

    def test_stake_moves_that_many_individuals(self, blob_csv, tmp_path):
        out = tmp_path / "out"
        assert main(run_flags(blob_csv, "--stake", "2", "--out", str(out))) == 0
        payload = json.loads((out / "report.json").read_text())
        assert payload["config"]["stake"] == 2
        first = payload["results"][0]["competitions"][0]
        assert sorted(first["sizes"]) == [98, 100, 102]


# One non-default value per RunConfig field; a field added without a flag
# (or without an entry here) fails the test below.
FLAG_VALUES = {
    "dataset": "blobs.csv",
    "data_dir": "elsewhere",
    "tribe_size": 50,
    "n_tribes": 3,
    "means": (2, 5, 8),
    "sigma": 1.25,
    "allow_infeasible": True,
    "classifier": "nearest-centroid",
    "folds": 4,
    "fold_seed": 3,
    "regularization": 0.5,
    "crossover_rate": 0.8,
    "mutation_rate": 0.2,
    "selection_pressure": 1.5,
    "competition_interval": 3,
    "stake": 2,
    "min_tribe_size": 3,
    "max_generations": 7,
    "patience": 4,
    "seed": 9,
    "runs": 2,
}


def flag_argv(values: dict) -> list[str]:
    argv = []
    for name, value in values.items():
        flag = "--" + name.replace("_", "-")
        if value is True:
            argv.append(flag)
        elif isinstance(value, tuple):
            argv += [flag, ",".join(map(str, value))]
        else:
            argv += [flag, str(value)]
    return argv


@pytest.mark.parametrize(
    "command",
    [["run"], ["sweep", "--param", "n_tribes", "--values", "2,3"]],
    ids=["run", "sweep"],
)
def test_every_run_config_field_has_a_run_flag(command):
    assert set(FLAG_VALUES) == {f.name for f in dataclasses.fields(t.RunConfig)}
    default = t.RunConfig()
    for name, value in FLAG_VALUES.items():
        assert value != getattr(default, name), name
    args = _build_parser().parse_args([*command, *flag_argv(FLAG_VALUES)])
    assert _config_from_args(args) == t.RunConfig(**FLAG_VALUES)


def test_generations_is_an_alias_of_max_generations():
    args = _build_parser().parse_args(["run", "--generations", "7"])
    assert _config_from_args(args).max_generations == 7


def test_oracle_has_a_flag_for_every_protocol_field():
    fields = dataclasses.fields(t.FitnessProtocol)
    protocol = {f.name: FLAG_VALUES[f.name] for f in fields}
    values = {"dataset": "blobs.csv", "data_dir": "elsewhere", **protocol}
    args = _build_parser().parse_args(["oracle", *flag_argv(values)])
    config = _config_from_args(args)
    assert config == t.RunConfig(**values)
    assert config.protocol() == t.FitnessProtocol(**protocol)


def test_import_loads_no_scipy():
    # SciPy costs about a second to import and only the stats commands use it.
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "import sys, tribefs, tribefs.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert done.stdout.strip() == "[]"


def test_import_loads_no_network_stack():
    # Only fetch_dataset downloads, and it imports urllib.request when called.
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "import sys, tribefs, tribefs.cli; "
        "print(sorted(m for m in ('urllib.request', 'http.client', 'ssl', 'email') "
        "if m in sys.modules))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert done.stdout.strip() == "[]"


class TestSweepCommand:
    def test_interval_sweep(self, blob_csv, tmp_path, capsys):
        out = tmp_path / "sweep"
        args = run_flags(blob_csv)
        args[0] = "sweep"
        code = main([
            *args, "--param", "competition_interval", "--values", "1,2",
            "--out", str(out),
        ])
        assert code == 0
        assert "competition_interval: 1=" in capsys.readouterr().out
        sweep_rows = (out / "sweep.csv").read_text().splitlines()
        assert sweep_rows[0].startswith("competition_interval,")
        assert len(sweep_rows) == 3
        for value in (1, 2):
            assert (out / f"competition_interval-{value}" / "report.json").exists()

    def test_infeasible_point_fails_before_any_run(
        self, blob_csv, tmp_path, capsys, monkeypatch
    ):
        runs = []
        run_experiment = t.harness.run_experiment
        monkeypatch.setattr(
            t.harness,
            "run_experiment",
            lambda *args: runs.append(args) or run_experiment(*args),
        )
        out = tmp_path / "sweep"
        args = run_flags(blob_csv)
        args[0] = "sweep"
        # 9 tribes cannot fit 10 features at tribe size 100; 3 can.
        code = main(
            [*args, "--param", "n_tribes", "--values", "3,9", "--out", str(out)]
        )
        assert code == 1
        assert "infeasible tribe layout" in capsys.readouterr().err
        assert runs == []
        assert not out.exists()

    def test_repeated_value_fails_before_any_run(
        self, blob_csv, tmp_path, capsys, monkeypatch
    ):
        runs = []
        monkeypatch.setattr(t.harness, "run_experiment", lambda *a: runs.append(a))
        out = tmp_path / "sweep"
        args = run_flags(blob_csv)
        args[0] = "sweep"
        code = main([
            *args, "--param", "competition_interval", "--values", "2,2",
            "--out", str(out),
        ])
        assert code == 1
        assert "must differ, not [2, 2]" in capsys.readouterr().err
        assert runs == []
        assert not out.exists()

    def test_rejects_empty_values(self, blob_csv, capsys):
        args = run_flags(blob_csv)
        args[0] = "sweep"
        assert main([*args, "--param", "competition_interval", "--values", ","]) == 1
        assert "--values" in capsys.readouterr().err


class TestOracleCommand:
    def test_oracle_on_tiny_csv(self, tmp_path, capsys):
        dataset = make_blobs(n_per_class=10, n_features=4, seed=2)
        path = tmp_path / "tiny.csv"
        t.write_csv(dataset, path)
        out = tmp_path / "oracle.json"
        code = main([
            "oracle",
            "--dataset", str(path),
            "--classifier", "nearest-centroid",
            "--folds", "3",
            "--out", str(out),
        ])
        assert code == 0
        assert "subsets" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert payload["evaluations"] == 15
        assert set(payload["best_mask"]) <= {"0", "1"}

    def test_bad_protocol_flag_exits_one(self, tmp_path, capsys):
        dataset = make_blobs(n_per_class=10, n_features=4, seed=2)
        path = tmp_path / "tiny.csv"
        t.write_csv(dataset, path)
        assert main(["oracle", "--dataset", str(path), "--regularization", "-1"]) == 1
        assert "regularization" in capsys.readouterr().err

    def test_config_and_flags_set_the_protocol(self, tmp_path, capsys):
        dataset = make_blobs(n_per_class=12, n_features=4, separation=1.0, seed=7)
        path = tmp_path / "tiny.csv"
        t.write_csv(dataset, path)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "dataset": str(path), "classifier": "nearest-centroid", "folds": 3,
            "fold_seed": 0,
        }))
        out = tmp_path / "oracle.json"
        code = main([
            "oracle", "--config", str(config_path), "--fold-seed", "1",
            "--out", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        in_file = t.FitnessProtocol(classifier="nearest-centroid", folds=3)
        overridden = dataclasses.replace(in_file, fold_seed=1)
        mask = t.mask_from_string(payload["best_mask"])
        assert payload["best_accuracy"] == t.kfold_accuracy(dataset, mask, overridden)
        assert payload["best_accuracy"] != t.kfold_accuracy(dataset, mask, in_file)

    def test_missing_dataset_exits_one(self, capsys):
        assert main(["oracle", "--folds", "3"]) == 1
        assert "config names no dataset" in capsys.readouterr().err

    def test_max_features_defaults_to_the_oracle_limit(self, capsys):
        with pytest.raises(SystemExit):
            main(["oracle", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert f"(default: {t.MAX_ORACLE_FEATURES})" in help_text
        assert t.MAX_ORACLE_FEATURES == 20

    def test_oracle_refusal_exits_one(self, tmp_path, capsys):
        dataset = make_blobs(n_per_class=3, n_features=22, seed=3)
        path = tmp_path / "wide.csv"
        t.write_csv(dataset, path)
        assert main(["oracle", "--dataset", str(path), "--folds", "2"]) == 1
        assert "max_features=22" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, out",
    [
        ("run", "report.txt"),
        ("run", "report.txt/run"),
        ("run", "held"),  # holds a directory where report.json goes
        ("sweep", "report.txt"),
        ("sweep", "sweep"),  # holds a file where a point's sub-report goes
        ("sweep", "swept"),  # holds a directory where sweep.csv goes
        ("sweep", "points"),  # a point's sub-report holds a directory for trace.csv
        ("oracle", "."),
        ("oracle", "missing/oracle.json"),
    ],
)
def test_unwritable_out_fails_before_any_search(
    blob_csv, tmp_path, capsys, monkeypatch, command, out
):
    searches = []
    for owner, name in [
        (cli, "run_experiment"),
        (t.harness, "run_experiment"),  # what sweep calls
        (cli, "exhaustive_best_subset"),
    ]:
        monkeypatch.setattr(owner, name, lambda *a, **k: searches.append(a))
    (tmp_path / "report.txt").write_text("an earlier report\n")
    (tmp_path / "sweep").mkdir()
    (tmp_path / "sweep" / "competition_interval-2").write_text("not a directory\n")
    (tmp_path / "held" / "report.json").mkdir(parents=True)
    (tmp_path / "swept" / "sweep.csv").mkdir(parents=True)
    (tmp_path / "points" / "competition_interval-1" / "trace.csv").mkdir(parents=True)
    before = sorted(tmp_path.rglob("*"))
    argv = {
        "run": run_flags(blob_csv),
        "sweep": [
            "sweep", *run_flags(blob_csv)[1:],
            "--param", "competition_interval", "--values", "1,2",
        ],
        "oracle": ["oracle", "--dataset", str(blob_csv), "--folds", "3"],
    }[command]
    out = str(tmp_path / out)
    assert main([*argv, "--out", out]) == 1
    assert f"error: --out {out}" in capsys.readouterr().err
    assert searches == []
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize(
    "flags, fault",
    [
        (["--seed", "abc"], "argument --seed: invalid int value: 'abc'"),
        (["--classifier", "nearest-neighbor"], "argument --classifier: invalid choice"),
    ],
    ids=["seed-abc", "classifier-nearest-neighbor"],
)
def test_a_flag_value_argparse_refuses_exits_one(capsys, flags, fault):
    assert main(["run", *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {fault}") and err.count("\n") == 1


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as stopped:
        main(["run", "--help"])
    assert stopped.value.code == 0
    assert "--seed" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--config", "{dir}"],
        ["stats", "friedman", "{dir}"],
        ["stats", "collect", "{dir}", "--method", "x", "--out", "{dir}/m.csv"],
    ],
    ids=["run-config", "stats-friedman", "stats-collect"],
)
def test_a_directory_in_place_of_a_file_exits_one(tmp_path, capsys, argv):
    assert main([arg.format(dir=tmp_path) for arg in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(tmp_path) in err
    assert list(tmp_path.iterdir()) == []


class TestStatsCommands:
    def write_matrix(self, tmp_path):
        path = tmp_path / "matrix.csv"
        path.write_text(
            "method,wine,zoo,sonar\n"
            "alpha,97.0,95.5,88.0\n"
            "beta,96.0,94.0,87.5\n"
        )
        return path

    @pytest.mark.usefixtures("scipy_stats")
    def test_friedman(self, tmp_path, capsys):
        assert main(["stats", "friedman", str(self.write_matrix(tmp_path))]) == 0
        stdout = capsys.readouterr().out
        assert "chi2 = 3.0000" in stdout
        assert "alpha: average rank 2.000" in stdout

    @pytest.mark.usefixtures("scipy_stats")
    def test_ttest(self, tmp_path, capsys):
        code = main([
            "stats", "ttest", str(self.write_matrix(tmp_path)),
            "--method-a", "alpha", "--method-b", "beta",
        ])
        assert code == 0
        assert "alpha vs beta" in capsys.readouterr().out

    def test_ttest_unknown_method_exits_one(self, tmp_path, capsys):
        code = main([
            "stats", "ttest", str(self.write_matrix(tmp_path)),
            "--method-a", "alpha", "--method-b", "gamma",
        ])
        assert code == 1
        assert "method not in matrix" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command",
        [["friedman"], ["ttest", "--method-a", "alpha", "--method-b", "beta"]],
        ids=["friedman", "ttest"],
    )
    def test_non_finite_cell_exits_one(self, tmp_path, capsys, command):
        path = tmp_path / "nan.csv"
        path.write_text("method,wine,zoo\nalpha,97.0,nan\nbeta,96.0,94.0\n")
        assert main(["stats", command[0], str(path), *command[1:]]) == 1
        assert "non-finite" in capsys.readouterr().err

    def test_malformed_matrix_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("method,wine\nalpha,ninety\n")
        assert main(["stats", "friedman", str(path)]) == 1
        assert "non-numeric" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("method,wine\n", "expected a header and at least one method row"),
            ("method,wine,zoo\nalpha,97.0\n", "ragged matrix"),
            ("method,a,b\nx,1,2\ny,1\n", "ragged matrix: line 3 has 2 cells, the header 3"),
            ("method,wine\nalpha,97.0\n\n", "ragged matrix: line 3 has 0 cells"),
        ],
    )
    def test_matrix_of_the_wrong_shape_exits_one(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        assert main(["stats", "friedman", str(path)]) == 1
        assert message in capsys.readouterr().err

    def test_without_scipy_names_the_extra(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setitem(sys.modules, "scipy", None)  # as if not installed
        assert main(["stats", "friedman", str(self.write_matrix(tmp_path))]) == 2
        assert "pip install 'tribefs[stats]'" in capsys.readouterr().err

    def test_one_method_exits_one_without_scipy(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setitem(sys.modules, "scipy", None)  # as if not installed
        path = tmp_path / "one.csv"
        path.write_text("method,a,b\nx,1,2\n")
        assert main(["stats", "friedman", str(path)]) == 1
        assert "need at least 2 methods" in capsys.readouterr().err

    def test_collect_builds_then_extends_matrix(self, blob_csv, tmp_path, capsys):
        out_dir = tmp_path / "report"
        assert main(run_flags(blob_csv, "--out", str(out_dir))) == 0
        matrix = tmp_path / "matrix.csv"
        report = str(out_dir / "report.json")
        assert main([
            "stats", "collect", report, "--method", "engine", "--out", str(matrix)
        ]) == 0
        assert main([
            "stats", "collect", report, "--method", "engine-2", "--out", str(matrix)
        ]) == 0
        rows = matrix.read_text().splitlines()
        assert rows[0] == "method,blobs"
        assert len(rows) == 3

    def test_collect_into_an_empty_file_starts_a_matrix(self, blob_csv, tmp_path):
        out_dir = tmp_path / "report"
        assert main(run_flags(blob_csv, "--out", str(out_dir))) == 0
        matrix = tmp_path / "matrix.csv"
        matrix.write_text("")
        assert main([
            "stats", "collect", str(out_dir / "report.json"),
            "--method", "engine", "--out", str(matrix),
        ]) == 0
        rows = matrix.read_text().splitlines()
        assert rows[0] == "method,blobs"
        assert rows[1].startswith("engine,")

    def test_collect_rejects_mismatched_datasets(self, blob_csv, tmp_path, capsys):
        out_dir = tmp_path / "report"
        assert main(run_flags(blob_csv, "--out", str(out_dir))) == 0
        matrix = tmp_path / "matrix.csv"
        matrix.write_text("method,wine\nalpha,97.0\n")
        code = main([
            "stats", "collect", str(out_dir / "report.json"),
            "--method", "engine", "--out", str(matrix),
        ])
        assert code == 1
        assert "existing matrix" in capsys.readouterr().err


    def test_collect_refuses_to_extend_a_corrupt_matrix(self, blob_csv, tmp_path, capsys):
        out_dir = tmp_path / "report"
        assert main(run_flags(blob_csv, "--out", str(out_dir))) == 0
        capsys.readouterr()
        matrix = tmp_path / "matrix.csv"
        matrix.write_text("method,blobs\nx,abc\ny,1,2\n")
        code = main([
            "stats", "collect", str(out_dir / "report.json"),
            "--method", "z", "--out", str(matrix),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {matrix}: ") and err.count("\n") == 1
        assert matrix.read_text() == "method,blobs\nx,abc\ny,1,2\n"

    @pytest.mark.parametrize(
        "text",
        [
            "{}",
            '{"dataset_name": "wine"}',
            "[1]",
            '{"dataset_name": "wine", "accuracy_mean": NaN}',
            '{"dataset_name": "wine", "accuracy_mean": Infinity}',
            '{"dataset_name": "wine", "accuracy_mean": true}',
            '{"dataset_name": "wine", "accuracy_mean": "90"}',
            '{"dataset_name": 5, "accuracy_mean": 90.0}',
        ],
    )
    def test_collect_rejects_a_file_that_is_no_report(self, tmp_path, capsys, text):
        report = tmp_path / "r.json"
        report.write_text(text)
        matrix = tmp_path / "m.csv"
        code = main([
            "stats", "collect", str(report), "--method", "x", "--out", str(matrix),
        ])
        assert code == 1
        assert f"{report}: not a report.json" in capsys.readouterr().err
        assert not matrix.exists()


class TestFetchCommand:
    def write_descriptors(self, tmp_path):
        source = tmp_path / "source.csv"
        source.write_text("1.0,2.0,yes\n3.0,4.0,no\n5.0,6.0,yes\n")
        desc = tmp_path / "descriptors.json"
        desc.write_text(json.dumps({
            "toy": {
                "url": source.as_uri(),
                "filename": "toy.csv",
                "expected_features": 2,
                "expected_instances": 3,
            }
        }))
        return desc

    def test_fetch_by_name(self, tmp_path, capsys):
        desc = self.write_descriptors(tmp_path)
        code = main([
            "fetch-data", "--name", "toy",
            "--data-dir", str(tmp_path / "data"),
            "--descriptors", str(desc),
        ])
        assert code == 0
        assert "toy: ready at" in capsys.readouterr().out
        assert (tmp_path / "data" / "toy.csv").exists()

    def test_fetch_all(self, tmp_path, capsys):
        desc = self.write_descriptors(tmp_path)
        code = main([
            "fetch-data", "--all",
            "--data-dir", str(tmp_path / "data"),
            "--descriptors", str(desc),
        ])
        assert code == 0

    def test_fetch_unknown_name_exits_one(self, tmp_path, capsys):
        desc = self.write_descriptors(tmp_path)
        code = main([
            "fetch-data", "--name", "nope",
            "--data-dir", str(tmp_path / "data"),
            "--descriptors", str(desc),
        ])
        assert code == 1
        assert "unknown dataset" in capsys.readouterr().err

    def test_empty_descriptor_table_exits_one(self, tmp_path, capsys, no_download):
        desc = tmp_path / "empty.json"
        desc.write_text("{}")
        code = main([
            "fetch-data", "--name", "wbcd",
            "--data-dir", str(tmp_path / "data"),
            "--descriptors", str(desc),
        ])
        assert code == 1
        assert "unknown dataset 'wbcd'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[]", "table.json: expected a JSON object of named descriptors"),
            ('{"x": 5}', "descriptor x: expected a JSON object"),
        ],
    )
    def test_descriptor_file_not_an_object_of_objects_exits_one(
        self, tmp_path, capsys, text, message
    ):
        desc = tmp_path / "table.json"
        desc.write_text(text)
        code = main([
            "fetch-data", "--all",
            "--data-dir", str(tmp_path / "data"),
            "--descriptors", str(desc),
        ])
        assert code == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("drop_columns", 5, "drop_columns must be tuple[int, ...], not 5"),
            ("drop_columns", ["0"], "drop_columns must be tuple[int, ...], not ['0']"),
            ("label_column", True, "label_column must be int | str, not True"),
            ("expected_features", 13.0, "expected_features must be int, not 13.0"),
            ("header", "yes", "header must be bool, not 'yes'"),
            ("sha256", 7, "sha256 must be str | None, not 7"),
            ("delimiter", ";;", "delimiter must be one character or null, not ';;'"),
        ],
    )
    def test_wrong_typed_descriptor_value_exits_one(
        self, tmp_path, capsys, key, value, message
    ):
        entry = {"url": "u", "expected_features": 1, "expected_instances": 1}
        desc = tmp_path / "table.json"
        desc.write_text(json.dumps({"x": {**entry, key: value}}))
        code = main([
            "fetch-data", "--all",
            "--data-dir", str(tmp_path / "data"),
            "--descriptors", str(desc),
        ])
        assert code == 1
        assert f"descriptor x: {message}" in capsys.readouterr().err
