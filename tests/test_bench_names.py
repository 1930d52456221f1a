"""The names the benchmark's per-layer tracer patches still exist and are
still the ones the code calls.

``bench/tracing.py`` replaces module attributes by name.  A refactor that
drops one of them, or calls around it, breaks ``run_bench.py --trace 1``;
this test makes that a tier-1 failure instead.
"""

import json
import pathlib
import sys

from dexsim import harness, scenario
from dexsim.chain import ExecOrder
from dexsim.harness import ScenarioConfig

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"

SCENARIO_BLOCKS = [
    [{"type": "deploy", "from": "alice", "name": "tok", "contract": "fa2",
      "setup": "{ledger: {(@alice, 0): 100}}"}],
    [{"type": "call", "from": "alice", "to": "tok",
      "msg": "transfer({from: @alice, to: @bob, tokenId: 0, value: 5})"},
     {"type": "transfer", "from": "alice", "to": "bob", "amount": 7}],
]


def test_tracer_sees_every_block_through_the_patched_names():
    sys.path.insert(0, str(BENCH))
    try:
        import tracing
    finally:
        sys.path.remove(str(BENCH))

    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.start("names")
        trace = harness.gen_trace(ScenarioConfig(seed=0, blocks=2))
        sc = scenario.load_scenario(
            json.dumps({"users": {"alice": 1000, "bob": 0}, "blocks": SCENARIO_BLOCKS})
        )
        result = scenario.run_scenario(sc, ExecOrder.DEPTH_FIRST)
        tracer.stop()
    finally:
        tracer.uninstall()
    calls, _incl, _self_s, _sum = tracer.totals()
    assert len(trace.root_blocks) == 8 and not result.rejected_blocks
    assert calls["chain.add_block"] == len(trace.root_blocks) + len(SCENARIO_BLOCKS)
    assert calls["harness.gen_trace"] == calls["harness.wire_exchange"] == 1
    assert calls["scenario.run_scenario"] == 1
    assert tracer.counts["scenario.event_record.calls"] > 0
