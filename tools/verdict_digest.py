"""Print a digest of every checker verdict, and one of every fuzzed action,
over a fixed set of traces.

A change that must not alter behaviour (a perf change, a refactor) should
print the same two lines as its parent commit.  The traces are:

  * fuzz seeds 0-499 with 10 blocks each;
  * each mutant in ``cpmm.MUTATIONS`` and ``fa12.MUTATIONS`` on seeds 0-39;
  * long fuzz seeds 0-3 with 400 blocks each.

Each trace is generated and checked under dfs (``run_all_checks``), then
replayed and checked under bfs (``check_order_robustness``).  The first
line's digest covers, per trace, every report's ``(name, passed, count)``
in order.  The second line's covers every fuzzed root action of the same
traces (``action_digest``), so it pins the generator itself: an amount
changed inside a rejected block moves no verdict, but moves this line.

Run it from a checkout, pointing ``PYTHONPATH`` at the code to judge:

    PYTHONPATH=src python3 tools/verdict_digest.py

It uses the standard library only and takes 6.4–6.8 s on one core (a 2-core
VM, CPython 3.11.7).
``digest`` takes any subset of ``cases()``, run in any order, and
``action_digest`` any subset; ``tests/test_verdict_digest.py`` pins a small
one of each in the tier-1 suite.
"""

from __future__ import annotations

import hashlib
import json
import sys

import dexsim
from dexsim import cpmm, fa12
from dexsim.checks import check_order_robustness, run_all_checks
from dexsim.harness import ScenarioConfig, gen_trace
from dexsim.payload import render


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


def verdicts(config) -> list:
    """Every report's ``(name, passed, count)`` for one trace, dfs then bfs."""
    trace = gen_trace(config)
    _, other = check_order_robustness(trace)
    return [(r.name, r.passed, r.count) for r in run_all_checks(trace) + other]


def digest(labelled_configs, run_order=None) -> str:
    """The digest line for ``(label, config)`` pairs, e.g. from ``cases()``.

    ``run_order`` lists the pairs' indices in the order their traces are to
    run (default: as given); the line hashes the pairs as given either way,
    so a run order may change it only if one trace's verdicts depend on
    another's."""
    cases = list(labelled_configs)
    if run_order is None:
        run_order = range(len(cases))
    found = {i: verdicts(cases[i][1]) for i in run_order}
    h = hashlib.sha256()
    failing = 0
    for i, (label, _) in enumerate(cases):
        h.update(json.dumps([label, found[i]]).encode() + b"\n")
        failing += sum(1 for _, passed, _ in found[i] if not passed)
    return f"{len(cases)} cases, {failing} failing reports, sha256 {h.hexdigest()}"


def rendered(action) -> list:
    """``[origin, sender, body type, target, amount, payload]`` of an action."""
    body = action.body
    payload = getattr(body, "payload", None)
    return [str(action.origin), str(action.sender), type(body).__name__,
            str(getattr(body, "to", "")), body.amount, None if payload is None else render(payload)]


def action_digest(labelled_configs) -> str:
    """The digest line of every fuzzed root action (the blocks after the six
    wiring blocks) of each trace, block by block."""
    cases = list(labelled_configs)
    h = hashlib.sha256()
    actions = 0
    for label, config in cases:
        blocks = [[rendered(a) for a in roots] for roots in gen_trace(config).root_blocks[6:]]
        h.update(json.dumps([label, blocks]).encode() + b"\n")
        actions += sum(map(len, blocks))
    return f"{len(cases)} cases, {actions} fuzzed actions, sha256 {h.hexdigest()}"


def main() -> int:
    print(f"dexsim from {dexsim.__file__}", file=sys.stderr)
    print(digest(cases()))
    print(action_digest(cases()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
