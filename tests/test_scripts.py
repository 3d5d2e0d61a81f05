"""The experiment scripts, called through their ``main``."""

import importlib.util
from pathlib import Path

import numpy as np

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
