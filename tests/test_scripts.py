"""The experiment scripts, called through their ``main``."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_wine_csv(data_dir):
    """A synthetic file with the shape of the wine descriptor, as wine.csv."""
    rng = np.random.default_rng(0)
    labels = np.repeat([1, 2, 3], [60, 60, 58])
    features = rng.normal(size=(178, 13)) + labels[:, None] * (np.arange(13) < 3)
    np.savetxt(data_dir / "wine.csv", np.column_stack([labels, features]), delimiter=",")


def test_oracle_parity_refuses_an_infeasible_layout(tmp_path, capsys):
    # Eight features derive a sigma below the degeneracy floor; the script
    # must say so in one line before it starts the exhaustive search.
    rng = np.random.default_rng(0)
    rows = np.column_stack([rng.normal(size=(40, 8)), np.repeat([0, 1], 20)])
    path = tmp_path / "eight.csv"
    np.savetxt(path, rows, delimiter=",")
    script = load_script("run_oracle_parity")
    assert script.main(["--dataset", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("infeasible tribe layout: sigma")


@pytest.mark.parametrize("path", sorted(SCRIPTS.glob("*.py")), ids=lambda p: p.stem)
def test_every_script_prints_its_help(path, capsys):
    # Catches a script that no longer imports or builds its parser.
    with pytest.raises(SystemExit) as exit_info:
        load_script(path.stem).main(["--help"])
    assert exit_info.value.code == 0
    assert "usage:" in capsys.readouterr().out


def test_campaign_rejects_an_unknown_dataset(capsys):
    with pytest.raises(SystemExit) as exit_info:
        load_script("run_campaign").main(["--only", "nosuch"])
    assert exit_info.value.code == 2
    assert "no layout for nosuch" in capsys.readouterr().err


def test_campaign_writes_a_report_directory(tmp_path, capsys):
    # The published layouts take minutes per dataset; a 20-member layout on
    # a synthetic wine-shaped file runs the same code path in well under a
    # second, so a renamed report method fails here, not days into a run.
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    write_wine_csv(data_dir)
    script = load_script("run_campaign")
    script.LAYOUTS = [("wine", 20, (3, 7, 11))]
    out = tmp_path / "campaign"
    argv = ["--data-dir", str(data_dir), "--out", str(out), "--runs", "1",
            "--max-generations", "2"]
    assert script.main(argv) == 0
    assert capsys.readouterr().out.startswith("wine ")
    report = json.loads((out / "wine" / "report.json").read_text())
    assert report["dataset_name"] == "wine"
    assert len(report["fingerprint"]) == 64
    for name in ("summary.csv", "trace.csv", "competitions.csv"):
        assert (out / "wine" / name).exists()


def test_campaign_checks_every_dataset_before_the_first_run(tmp_path, capsys):
    # wine is present; australian has no descriptor. Nothing may run or be
    # written until every selected dataset loads.
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    write_wine_csv(data_dir)
    script = load_script("run_campaign")
    script.LAYOUTS = [("wine", 20, (3, 7, 11)), ("australian", 20, (3, 7, 11))]
    out = tmp_path / "campaign"
    argv = ["--data-dir", str(data_dir), "--out", str(out), "--runs", "1",
            "--max-generations", "2"]
    assert script.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("australian: ")
    assert not (out / "wine").exists()
