"""Job 5 of each benchmark workload still reproduces ``bench/reference.json``.

The digests pin what commits: final states, rejected blocks and snapshot
counts under both orders, and a scenario run's JSONL records.  The benchmark
checks them on every run; this checks a slice of them in tier-1, so a guard
that flips which calls a contract refuses fails here too.
"""

import json
import pathlib
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"
REFERENCE = json.loads((BENCH / "reference.json").read_text())["digests"]
JOB = 5
FUZZ_CONFIGS = 25  # of the job's 200 fuzz seeds


def _workloads():
    sys.path.insert(0, str(BENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    return workloads


@pytest.mark.parametrize("workload", ["fuzz_campaign", "long_trace", "scenario_exec"])
def test_job_matches_the_reference(workload, tmp_path):
    workloads = _workloads()
    job = workloads.build(workload, JOB, str(tmp_path))
    job.configs = job.configs[:FUZZ_CONFIGS]
    ops = workloads.run_pass(job)
    assert ops
    for op in ops:
        assert op.error == "" and op.violations == 0, (op.key, op.error, op.violations)
        assert op.digest == REFERENCE[workload][op.key], op.key
