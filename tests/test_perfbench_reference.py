"""The benchmark's pipeline_qae and converged_dense workloads, run in-process
at their default seeds, reproduce the outputs recorded in
``perfbench/reference``.  An output drift that the benchmark would refuse
as incorrect fails here first.  anneal_sweep, several seconds long, is
checked by the benchmark alone."""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))
import workloads  # noqa: E402


@pytest.mark.parametrize("name", ["pipeline_qae", "converged_dense"])
def test_workload_matches_its_reference(tmp_path, name):
    workload = workloads.WORKLOADS[name]()
    workload.setup(ROOT, None)
    reference = workloads.load_reference(name, workload.seed)
    assert reference is not None, f"no reference at seed {workload.seed}"
    workload.run(tmp_path)
    ops = workload.ops()
    workloads.check_reference(ops, reference)
    assert {op.id for op in ops} == set(reference["ops"])
    assert {op.id: op.error for op in ops if op.error is not None} == {}
