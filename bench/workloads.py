"""The three benchmark workloads: their inputs, one timed pass, and the digest
of each operation's output.

Each workload maps the benchmark seed to a job index ``seed % POOL``; the
reference digests in ``reference.json`` cover every job index.  The program
is called only through module attributes (``harness.gen_trace``,
``cli.main``, ...) so that the traced run's wrappers see every call.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import time
from dataclasses import dataclass, field

from dexsim import checks, cli, harness
from dexsim.chain import ExecOrder

import scenario_gen

POOL = 32
FUZZ_SEEDS_PER_JOB = 200
FUZZ_BLOCKS = 10
LONG_BLOCKS = 400
USERS = 4


@dataclass
class Op:
    """One operation of a pass: a fuzz seed, a long trace or a scenario run."""

    key: int  # reference index and trace id
    latency: float  # seconds in the timed section
    actions: int  # executed actions, summed over the orders that ran
    digest: str
    violations: int = 0
    error: str = ""


@dataclass
class Job:
    workload: str
    index: int
    configs: list = field(default_factory=list)  # fuzz_campaign, long_trace
    scenario_path: str = ""  # scenario_exec
    trace_out: str = ""


def job_index(seed: int) -> int:
    return seed % POOL


def fuzz_config(seed: int, blocks: int) -> harness.ScenarioConfig:
    return harness.ScenarioConfig(seed=seed, blocks=blocks, users=USERS, order=ExecOrder.DEPTH_FIRST)


def build(workload: str, seed: int, out_dir: str) -> Job:
    """The inputs of ``workload`` for ``seed``, including the scenario file
    that scenario_exec generates."""
    j = job_index(seed)
    job = Job(workload, j)
    if workload == "fuzz_campaign":
        first = j * FUZZ_SEEDS_PER_JOB
        job.configs = [fuzz_config(s, FUZZ_BLOCKS) for s in range(first, first + FUZZ_SEEDS_PER_JOB)]
    elif workload == "long_trace":
        job.configs = [fuzz_config(j, LONG_BLOCKS)]
    elif workload == "scenario_exec":
        text = scenario_gen.generate(j)
        job.scenario_path = os.path.join(out_dir, f"scenario-{j}.json")
        job.trace_out = os.path.join(out_dir, f"scenario-{j}.trace.jsonl")
        with open(job.scenario_path, "w") as f:
            f.write(text)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return job


def _executed_actions(trace) -> int:
    return sum(1 for s in trace.snapshots if not s.committed)


def trace_digest(dfs, bfs, violations: int) -> str:
    """Final states under both orders, rejected blocks, snapshot and action
    counts, and the violation count."""
    h = hashlib.sha256()
    for t in (dfs, bfs):
        h.update(t.final_state.canonical_dump().encode())
        h.update(repr([(r.block, r.action_index) for r in t.rejected]).encode())
        h.update(f"snapshots={len(t.snapshots)} actions={_executed_actions(t)}".encode())
    h.update(f"violations={violations}".encode())
    return h.hexdigest()[:16]


def records_digest(path: str) -> tuple[str, int]:
    """Digest of a `dexsim run` JSONL output with the ``reason`` fields
    dropped, and the number of executed actions (one tx or deployed record
    each)."""
    h = hashlib.sha256()
    actions = 0
    with open(path) as f:
        for line in f:
            rec = json.loads(line)
            rec.pop("reason", None)
            actions += rec["event"] != "rejected"
            h.update(json.dumps(rec, sort_keys=True).encode() + b"\n")
    return h.hexdigest()[:16], actions


class Untimed:
    """Hooks called around each timed operation.  The traced run records
    spans only between ``start`` and ``stop``; ``stop`` returns seconds the
    hooks themselves spent inside the operation, which are not counted."""

    def start(self, key: int) -> None:
        pass

    def stop(self) -> float:
        return 0.0


def _check_trace(config, hooks) -> Op:
    hooks.start(config.seed)
    t0 = time.perf_counter()
    dfs = harness.gen_trace(config)
    reports = checks.run_all_checks(dfs)
    bfs, other = checks.check_order_robustness(dfs)
    latency = time.perf_counter() - t0 - hooks.stop()
    violations = sum(1 for r in reports + other if not r.passed)
    actions = _executed_actions(dfs) + _executed_actions(bfs)
    return Op(config.seed, latency, actions, trace_digest(dfs, bfs, violations), violations)


def _run_scenario(job: Job, hooks) -> Op:
    hooks.start(job.index)
    t0 = time.perf_counter()
    status = cli.main(["run", "--scenario", job.scenario_path, "--trace-out", job.trace_out])
    latency = time.perf_counter() - t0 - hooks.stop()
    digest, actions = records_digest(job.trace_out)
    return Op(job.index, latency, actions, digest, error="" if status == 0 else f"exit {status}")


def run_pass(job: Job, hooks=Untimed()) -> list[Op]:
    """Run the job once: one operation per fuzz seed, long trace or
    scenario run."""
    if job.workload == "scenario_exec":
        return [_guarded(job.index, hooks, lambda: _run_scenario(job, hooks))]
    return [_guarded(c.seed, hooks, lambda c=c: _check_trace(c, hooks)) for c in job.configs]


def _guarded(key: int, hooks, op) -> Op:
    try:
        return op()
    except Exception as e:  # a crashing operation is a failed one, not a crashed benchmark
        hooks.stop()
        return Op(key, 0.0, 0, "", error=f"{type(e).__name__}: {e}")


def scaling_probe(seed: int, blocks: int) -> tuple[float, int]:
    """Check time under dfs for the long_trace seed cut at ``blocks``, and
    the log entries its snapshots retain."""
    trace = harness.gen_trace(fuzz_config(job_index(seed), blocks))
    gc.collect()
    t0 = time.perf_counter()
    checks.run_checks_for(trace.wiring, trace.snapshots)
    elapsed = time.perf_counter() - t0
    return elapsed, sum(len(s.state.log) for s in trace.snapshots)
