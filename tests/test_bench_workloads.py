"""The benchmark's reference instances run inside the test suite.

Instance 0 of every workload is built from seed 0 and its digest is pinned
in ``bench/workloads.py``; a change that moves a digest or trips one of the
workload's own checks fails here, not only in a benchmark run. The module
is imported from its file without writing anything beside it.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", BENCH / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve the module by name
    writes_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writes_bytecode
        del sys.modules[spec.name]
    return module


@pytest.mark.parametrize(
    "name", ["wine13-svm", "sonar60-svm", "engine279-surrogate"]
)
def test_reference_instance_matches_pinned_digest(workloads, name):
    workload = workloads.WORKLOADS[name]
    outcome = workload.run(workload.build(0))
    assert outcome.problems == []
    assert outcome.digest == workload.pinned
