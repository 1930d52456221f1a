"""Print one digest of every checker verdict over a fixed set of traces.

A change that must not alter behaviour (a perf change, a refactor) should
print the same line as its parent commit.  The traces are:

  * fuzz seeds 0-499 with 10 blocks each;
  * each mutant in ``cpmm.MUTATIONS`` and ``fa12.MUTATIONS`` on seeds 0-39;
  * long fuzz seeds 0-3 with 400 blocks each.

Each trace is generated and checked under dfs (``run_all_checks``), then
replayed and checked under bfs (``check_order_robustness``).  The digest
covers, per trace, every report's ``(name, passed, count)`` in order.

Run it from a checkout, pointing ``PYTHONPATH`` at the code to judge:

    PYTHONPATH=src python3 tools/verdict_digest.py

It uses the standard library only and takes about 20 s on one core.
"""

from __future__ import annotations

import hashlib
import json
import sys

import dexsim
from dexsim import cpmm, fa12
from dexsim.checks import check_order_robustness, run_all_checks
from dexsim.harness import ScenarioConfig, gen_trace


def cases():
    """(label, config) for every trace in the digest."""
    for seed in range(500):
        yield f"seed {seed}", ScenarioConfig(seed=seed, blocks=10)
    for m in cpmm.MUTATIONS:
        for seed in range(40):
            yield f"{m} seed {seed}", ScenarioConfig(seed=seed, blocks=10, cpmm_mutation=m)
    for m in fa12.MUTATIONS:
        for seed in range(40):
            yield f"{m} seed {seed}", ScenarioConfig(seed=seed, blocks=10, fa12_mutation=m)
    for seed in range(4):
        yield f"long seed {seed}", ScenarioConfig(seed=seed, blocks=400)


def main() -> int:
    print(f"dexsim from {dexsim.__file__}", file=sys.stderr)
    digest = hashlib.sha256()
    n_cases = failing = 0
    for label, config in cases():
        trace = gen_trace(config)
        _, other = check_order_robustness(trace)
        verdicts = [(r.name, r.passed, r.count) for r in run_all_checks(trace) + other]
        digest.update(json.dumps([label, verdicts]).encode() + b"\n")
        n_cases += 1
        failing += sum(1 for _, passed, _ in verdicts if not passed)
    print(f"{n_cases} cases, {failing} failing reports, sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
