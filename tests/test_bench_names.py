"""The names the benchmark's per-layer tracer patches still exist and are
still the ones the code calls.

``bench/tracing.py`` replaces module attributes by name.  A refactor that
drops one of them, or calls around it, breaks ``run_bench.py --trace 1``;
this test makes that a tier-1 failure instead.
"""

import gc
import json
import pathlib
import sys
import weakref

from dexsim import checks, harness, scenario
from dexsim.chain import ExecOrder
from dexsim.harness import ScenarioConfig

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"

SCENARIO_BLOCKS = [
    [{"type": "deploy", "from": "alice", "name": "tok", "contract": "fa2",
      "setup": "{ledger: {(@alice, 0): 100}}"}],
    [{"type": "call", "from": "alice", "to": "tok",
      "msg": "transfer({from: @alice, to: @bob, tokenId: 0, value: 5})"},
     {"type": "transfer", "from": "alice", "to": "bob", "amount": 7}],
    # Refused by the token: bob holds 5.
    [{"type": "call", "from": "bob", "to": "tok",
      "msg": "transfer({from: @bob, to: @alice, tokenId: 0, value: 6})"}],
]


def _tracing():
    sys.path.insert(0, str(BENCH))
    try:
        import tracing
    finally:
        sys.path.remove(str(BENCH))
    return tracing


def _tracer():
    return _tracing().Tracer()


def _decodes(calls) -> dict:
    """Calls of each contract's traced ``decode_state``, over all callers."""
    return {
        name: sum(calls[f"{name}.decode_state.{caller}"] for caller in ("contract", "checks", "other"))
        for name in ("cpmm", "fa12", "fa2")
    }


def test_tracer_sees_every_block_through_the_patched_names():
    tracer = _tracer()
    tracer.install()
    try:
        tracer.start("names")
        trace = harness.gen_trace(ScenarioConfig(seed=0, blocks=2))
        fa2_rejects = tracer.counts["fa2.receive.rejects"]
        sc = scenario.load_scenario(
            json.dumps({"users": {"alice": 1000, "bob": 0}, "blocks": SCENARIO_BLOCKS})
        )
        result = scenario.run_scenario(sc, ExecOrder.DEPTH_FIRST)
        tracer.stop()
    finally:
        tracer.uninstall()
    calls, _incl, _self_s, _sum = tracer.totals()
    assert len(trace.root_blocks) == 8 and result.rejected_blocks == 1
    assert calls["chain.add_block"] == len(trace.root_blocks) + len(SCENARIO_BLOCKS)
    assert calls["harness.gen_trace"] == calls["harness.wire_exchange"] == 1
    assert calls["scenario.run_scenario"] == 1
    assert tracer.counts["scenario.event_record.calls"] > 0
    # The contract shell's ``receive`` is what the tracer wraps, and a refusal
    # returns None.  No contract state is decoded at all, as the chain keeps
    # each one as the typed value its contract made, so the traced
    # ``decode_state`` runs only in each fa2 ``init``, which decodes its setup
    # with it: two fa2 instances (the wiring's and the scenario's).
    for name in ("cpmm", "fa12", "fa2"):
        assert calls[f"{name}.receive"] > 0, name
    assert _decodes(calls) == {"cpmm": 0, "fa12": 0, "fa2": 2}
    assert tracer.counts["fa2.receive.rejects"] == fa2_rejects + 1


def test_tracer_sees_the_order_robustness_replay_through_its_name():
    # ``check_order_robustness`` replays through ``harness.replay_trace``, which
    # the tracer wraps, and runs only the blocks past the order-free ones that
    # it does not take from the trace: here the last 2 of those 3 are
    # order-free and taken, so 1 runs.
    trace = harness.gen_trace(ScenarioConfig(seed=0, blocks=10))
    assert trace.order_free[trace.free.blocks:] == [False, True, True]
    tracer = _tracer()
    tracer.install()
    try:
        tracer.start("replay")
        checks.check_order_robustness(trace)
        tracer.stop()
    finally:
        tracer.uninstall()
    calls, _incl, _self_s, _sum = tracer.totals()
    assert calls["harness.replay_trace"] == 1
    assert calls["chain.add_block"] == len(trace.root_blocks) - trace.free.blocks - 2 == 1


def test_a_traced_pass_wires_its_own_contracts():
    # The same configuration, wired untraced first: the traced pass must not
    # go on from contracts whose ``receive`` the tracer never wrapped.
    config = ScenarioConfig(seed=0, blocks=2)
    harness.gen_trace(config)
    tracer = _tracer()
    tracer.install()
    try:
        tracer.start("memo")
        trace = harness.gen_trace(config)
        tracer.stop()
    finally:
        tracer.uninstall()
    calls, _incl, _self_s, _sum = tracer.totals()
    assert calls["chain.add_block"] == len(trace.root_blocks) == 8
    for name in ("cpmm", "fa12", "fa2"):
        assert calls[f"{name}.receive"] > 0, name
    assert _decodes(calls) == {"cpmm": 0, "fa12": 0, "fa2": 1}


def test_the_next_untraced_wiring_frees_a_traced_pass():
    # The wiring memo's key holds the traced ``make_contract`` functions, and
    # through them the tracer and its spans.  The checks memo keeps checkers
    # that decoded through the traced ``decode_state``; each rides on the
    # snapshot it was stepped up to, and goes with it.
    config = ScenarioConfig(seed=0, blocks=2)
    tracer = _tracer()
    tracer.install()
    try:
        tracer.start("freed")
        trace = harness.gen_trace(config)
        checks.run_all_checks(trace)
        checks.check_order_robustness(trace)
        tracer.stop()
    finally:
        tracer.uninstall()
    calls, _incl, _self_s, _sum = tracer.totals()
    assert calls["checks.run_checks_for"] > 0  # the span still sees the checking
    freed = weakref.ref(tracer)
    del tracer, trace
    harness.gen_trace(config)
    gc.collect()
    assert freed() is None


def test_every_traced_checker_is_called_through_its_name():
    # The tracer wraps ``checks.check_<name>``; a check called around that
    # name (say, from a table built at import) would read 0 calls.
    tracer = _tracer()
    tracer.install()
    try:
        tracer.start("checkers")
        trace = harness.gen_trace(ScenarioConfig(seed=0, blocks=2))
        checks.run_all_checks(trace)
        checks.check_order_robustness(trace)
        tracer.stop()
    finally:
        tracer.uninstall()
    calls, _incl, _self_s, _sum = tracer.totals()
    for name in _tracing().CHECKERS:
        assert calls[f"checks.{name}"] > 0, name
