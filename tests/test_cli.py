import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tribefs as t
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

    def test_missing_dataset_exits_one(self, capsys):
        assert main(run_flags("definitely-missing.csv")) == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_flag_value_exits_one(self, blob_csv, capsys):
        assert main(run_flags(blob_csv, "--crossover-rate", "1.5")) == 1
        assert "crossover_rate" in capsys.readouterr().err

    def test_malformed_config_json_exits_one(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text("{not json")
        assert main(["run", "--config", str(config_path)]) == 1
        assert "error:" in capsys.readouterr().err

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
    "subsample": 0.75,
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


def test_every_run_config_field_has_a_run_flag():
    assert set(FLAG_VALUES) == {f.name for f in dataclasses.fields(t.RunConfig)}
    default = t.RunConfig()
    argv = ["run"]
    for name, value in FLAG_VALUES.items():
        assert value != getattr(default, name), name
        flag = "--" + name.replace("_", "-")
        if value is True:
            argv.append(flag)
        elif isinstance(value, tuple):
            argv += [flag, ",".join(map(str, value))]
        else:
            argv += [flag, str(value)]
    config = _config_from_args(_build_parser().parse_args(argv))
    assert config == t.RunConfig(**FLAG_VALUES)


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

    def test_oracle_refusal_exits_one(self, tmp_path, capsys):
        dataset = make_blobs(n_per_class=3, n_features=22, seed=3)
        path = tmp_path / "wide.csv"
        t.write_csv(dataset, path)
        assert main(["oracle", "--dataset", str(path), "--folds", "2"]) == 1
        assert "max_features=22" in capsys.readouterr().err


class TestStatsCommands:
    def write_matrix(self, tmp_path):
        path = tmp_path / "matrix.csv"
        path.write_text(
            "method,wine,zoo,sonar\n"
            "alpha,97.0,95.5,88.0\n"
            "beta,96.0,94.0,87.5\n"
        )
        return path

    def test_friedman(self, tmp_path, capsys):
        assert main(["stats", "friedman", str(self.write_matrix(tmp_path))]) == 0
        stdout = capsys.readouterr().out
        assert "chi2 = 3.0000" in stdout
        assert "alpha: average rank 2.000" in stdout

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

    def test_malformed_matrix_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("method,wine\nalpha,ninety\n")
        assert main(["stats", "friedman", str(path)]) == 1
        assert "non-numeric" in capsys.readouterr().err

    def test_without_scipy_names_the_extra(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setitem(sys.modules, "scipy", None)  # as if not installed
        assert main(["stats", "friedman", str(self.write_matrix(tmp_path))]) == 2
        assert "pip install 'tribefs[stats]'" in capsys.readouterr().err

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
