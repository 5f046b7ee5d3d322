"""The benchmark workloads call package functions by name and pin their
answers; a refactor that breaks a name they call, or changes an answer,
must fail here, not only in a benchmark run."""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "benchmarks" / "workloads.py"
NAMES = ("jactest-plane", "jactest-space", "ideal-crosscheck", "apolar-roundtrip")


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.mark.parametrize("name", NAMES)
def test_one_pass_of_each_workload_gives_its_answers(workloads, tmp_path, name):
    ops = workloads.build(name, 7, str(tmp_path))
    assert ops
    wrong = [(op.group, answer, op.expected) for op in ops
             if (answer := op.run()) != op.expected]
    assert wrong == []
