"""Record the reference digests every benchmark run is checked against, and
confirm the scenario generator's promises.

    python3 bench/record_reference.py

Runs each workload's job for every job index once (about ten minutes on a
2-core machine), then writes ``bench/reference.json``.  Only re-record
when a change is meant to alter simulated results, and say so.

First it runs scenario seed 0 under both dispatch orders with every
checker (``check_scenario``), which must pass, and requires that a
``token_to_token`` call committed.  This takes a minute or two because the
checkers are quadratic.
"""

from __future__ import annotations

import json
import os
import sys

from run_bench import BENCH_DIR, WORKLOADS, git_sha, import_workloads


def record(workloads) -> dict:
    digests: dict[str, list] = {}
    out_dir = os.path.join(BENCH_DIR, "results")
    os.makedirs(out_dir, exist_ok=True)
    for workload in WORKLOADS:
        out = []
        for j in range(workloads.POOL):
            for op in workloads.run_pass(workloads.build(workload, j, out_dir)):
                if op.error or op.violations:
                    raise SystemExit(f"{workload} op {op.key}: {op.error or op.violations}")
                out.append(op.digest)
            print(f"{workload} job {j}: {len(out)} digests", flush=True)
        digests[workload] = out
    return digests


def validate_scenario(seed: int) -> None:
    import scenario_gen
    from dexsim.chain import ExecOrder
    from dexsim.checks import summarize
    from dexsim.payload import Tag
    from dexsim.scenario import check_scenario, load_scenario, run_scenario

    scenario = load_scenario(scenario_gen.generate(seed))
    for order in ExecOrder:
        result = run_scenario(scenario, order)
        summary = summarize(check_scenario(result, scenario))
        bad = [(r.name, r.violations) for r in summary.values() if not r.passed]
        if not summary or bad:
            raise SystemExit(f"scenario {seed} {order.value}: checks failed: {bad}")
        t2t = sum(
            1 for s in result.snapshots
            if s.action is not None and isinstance(getattr(s.action.body, "payload", None), Tag)
            and isinstance(s.action.body.payload.arg, Tag)
            and s.action.body.payload.arg.name == "token_to_token"
        )
        if not t2t:
            raise SystemExit(f"scenario {seed} {order.value}: no token_to_token committed")
        print(f"scenario {seed} {order.value}: {len(summary)} checkers pass,"
              f" {result.rejected_blocks} blocks rolled back, {t2t} token_to_token committed",
              flush=True)


def main() -> int:
    workloads = import_workloads()
    validate_scenario(0)
    doc = {"recorded_at": git_sha(), "pool": workloads.POOL, "digests": record(workloads)}
    with open(os.path.join(BENCH_DIR, "reference.json"), "w") as f:
        json.dump(doc, f, indent=0)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
