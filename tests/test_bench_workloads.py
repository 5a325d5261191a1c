"""The benchmark's workloads (`bench/workloads.py`) build their codes from
`Matrix` list rows and drive the package end to end, so a change to the
package that breaks them is caught here, not first by a benchmark run."""

import importlib.util
import time
from pathlib import Path

import pytest

import codedpir

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def load_workloads():
    """bench/workloads.py as a module, loaded from its file (it is not a package)."""
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", sorted(load_workloads().WORKLOADS))
def test_every_workload_builds_and_runs_one_unit(name):
    """Each workload builds at seed 0 and one unit of it runs with every
    operation's check holding."""
    workload = load_workloads().WORKLOADS[name](codedpir, 0, time.perf_counter)
    records = workload.run_unit()
    assert records
    assert [kind for kind, _, _, ok in records if not ok] == []
