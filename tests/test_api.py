"""The public names that callers outside the package rely on still exist."""

import importlib.util
from pathlib import Path

import sdgr

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def test_all_names_resolve():
    for name in sdgr.__all__:
        assert hasattr(sdgr, name), name


def test_benchmark_layer_targets_exist():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    targets = workloads.layer_targets()
    assert targets
    for metric, owner, attr, _ in targets:
        assert callable(getattr(owner, attr, None)), metric
