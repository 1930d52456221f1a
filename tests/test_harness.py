"""Fuzzed-campaign behaviour: wiring, determinism, checker verdicts, and
mutation sensitivity.

Seeds and trace counts here are deliberately small; the acceptance suite
runs the large campaigns.
"""

import pytest

from dexsim import cpmm, fa2, fa12
from dexsim.address import contract
from dexsim.chain import BlockError, Deploy, DeployedEvent, ExecOrder, TxEvent
from dexsim.checks import (
    check_incoming_outgoing_all,
    check_order_robustness,
    run_all_checks,
    summarize,
)
from dexsim.harness import (
    DEFAULT_WEIGHTS,
    RejectedBlock,
    ScenarioConfig,
    gen_trace,
    replay_trace,
    wire_exchange,
)
from dexsim.scenario import Scenario, run_scenario

DFS = ExecOrder.DEPTH_FIRST
BFS = ExecOrder.BREADTH_FIRST


def small_config(**kw):
    base = dict(seed=0, blocks=8, users=3)
    base.update(kw)
    return ScenarioConfig(**base)


def test_config_rejects_bad_weights():
    with pytest.raises(ValueError):
        ScenarioConfig(weights={"xtz_to_token": -1})
    with pytest.raises(ValueError):
        ScenarioConfig(weights={k: 0 for k in DEFAULT_WEIGHTS})


def test_wire_exchange_pairs_the_contracts():
    config = small_config()
    run, w = wire_exchange(config, DFS)
    state, root_blocks = run.state, run.root_blocks
    assert (w.token, w.main, w.lqt, w.sink) == (
        contract(1),
        contract(2),
        contract(3),
        contract(4),
    )
    ms = cpmm.decode_state(state.states[w.main])
    ls = fa12.decode_state(state.states[w.lqt])
    ts = fa2.decode_state(state.states[w.token])
    assert ms.lqtAddress == w.lqt and ms.tokenAddress == w.token
    assert ls.admin == w.main
    assert ms.lqtTotal == ls.total_supply == config.initial_liquidity
    # The pools are funded and resynced.
    assert ms.xtzPool == config.initial_xtz_pool == state.balance(w.main)
    assert ms.tokenPool == config.initial_token_pool
    assert ms.tokenPool == fa2.ledger_balance(ts, w.main, 0)
    assert not ms.selfIsUpdatingTokenPool
    assert len(root_blocks) == 6


def test_wire_exchange_raises_on_a_rejected_wiring_block():
    # The owner holds fewer tokens than the pool is funded with.
    config = small_config(initial_user_tokens=10, initial_token_pool=11)
    with pytest.raises(BlockError, match="contract @c1 rejected the call") as e:
        wire_exchange(config, DFS)
    assert e.value.index == 1 and len(e.value.state.deployed_contracts()) == 4


def test_gen_trace_is_deterministic():
    a = gen_trace(small_config())
    b = gen_trace(small_config())
    assert a.final_state.canonical_dump() == b.final_state.canonical_dump()
    # Wiring blocks hold Deploy bodies whose contract closures never compare
    # equal, so compare the fuzzed tail only.
    assert a.root_blocks[6:] == b.root_blocks[6:]
    assert [s.block for s in a.snapshots] == [s.block for s in b.snapshots]


def test_different_seeds_diverge():
    a = gen_trace(small_config(seed=0))
    b = gen_trace(small_config(seed=1))
    assert a.root_blocks[6:] != b.root_blocks[6:]


def test_checks_pass_on_unmutated_traces():
    for seed in range(5):
        trace = gen_trace(small_config(seed=seed))
        summary = summarize(run_all_checks(trace))
        failing = [r.name for r in summary.values() if not r.passed]
        assert failing == [], f"seed {seed}: {failing}"


def test_checks_pass_under_breadth_first():
    trace = gen_trace(small_config(order=BFS))
    summary = summarize(run_all_checks(trace))
    assert all(r.passed for r in summary.values())


def test_order_robustness_replays_under_other_order():
    trace = gen_trace(small_config())
    replayed, reports = check_order_robustness(trace)
    assert replayed.order is BFS
    assert replayed.root_blocks == trace.root_blocks
    assert all(r.passed for r in summarize(reports).values())


def test_replay_reconstructs_wiring():
    trace = gen_trace(small_config())
    replayed = replay_trace(trace.config, trace.root_blocks, DFS)
    assert replayed.wiring == trace.wiring
    assert replayed.final_state.canonical_dump() == trace.final_state.canonical_dump()


def test_rejected_blocks_do_not_leak_snapshots():
    # Run enough seeds that some blocks get rejected, then confirm every
    # snapshot belongs to a committed block.
    found_rejection = False
    for seed in range(10):
        trace = gen_trace(small_config(seed=seed))
        rejected = {r.block for r in trace.rejected}
        found_rejection = found_rejection or bool(rejected)
        assert all(s.block not in rejected for s in trace.snapshots)
    assert found_rejection, "campaign never exercised rollback"


def test_snapshot_records_are_prefixes_of_the_final_records():
    # Seed 9 rolls back blocks 7 and 11 after some of their actions ran and
    # wrote records, so the next block appends where those entries were.
    trace = gen_trace(small_config(seed=9))
    replayed = replay_trace(trace.config, trace.root_blocks, BFS)
    for t in (trace, replayed):
        assert any(r.action_index > 0 for r in t.rejected)
        final = t.final_state
        assert len(final.log) == sum(not s.committed for s in t.snapshots)
        executed = 0
        for s in t.snapshots:
            log = list(s.state.log)
            assert log == list(final.log)[: len(log)]
            for to, calls in s.state.incoming.items():
                assert list(calls) == list(final.incoming[to])[: len(calls)]
            if s.committed:
                assert len(log) == executed
                continue
            executed += 1
            assert len(log) == executed
            # The last entry is the one this snapshot's action wrote.
            body = s.action.body
            if isinstance(body, Deploy):
                assert isinstance(log[-1], DeployedEvent) and log[-1].setup is body.setup
            else:
                payload = getattr(body, "payload", None)
                assert log[-1] == TxEvent(s.action.sender, body.to, body.amount, payload)


@pytest.mark.parametrize("order", [DFS, BFS], ids=["dfs", "bfs"])
def test_scenario_and_replay_record_the_same_run(order):
    # Seed 9 rolls back blocks mid-block, so both paths must also agree on
    # what a rejected block leaves behind.
    trace = gen_trace(small_config(seed=9))
    users = [(u, trace.config.initial_user_tez) for u in trace.wiring.users]
    result = run_scenario(Scenario({}, users, trace.root_blocks), order)
    replayed = replay_trace(trace.config, trace.root_blocks, order)

    def steps(snapshots):
        return [(s.block, s.step, s.committed, s.pre_sender_balance) for s in snapshots]

    assert steps(result.snapshots) == steps(replayed.snapshots)
    assert [s.action for s in result.snapshots] == [s.action for s in replayed.snapshots]
    dumps = [s.state.canonical_dump() for s in result.snapshots]
    assert dumps == [s.state.canonical_dump() for s in replayed.snapshots]
    rejected = [
        RejectedBlock(r["block"], r["index"], r["reason"])
        for r in result.records
        if r["event"] == "rejected"
    ]
    assert rejected == replayed.rejected and rejected
    assert result.rejected_blocks == len(rejected)
    assert result.final_state.canonical_dump() == replayed.final_state.canonical_dump()


def test_incoming_outgoing_on_final_states():
    for seed in range(3):
        trace = gen_trace(small_config(seed=seed))
        assert check_incoming_outgoing_all(trace.final_state).passed


def find_failing_seed(mutation_kw, expect_check, max_seeds=30):
    for seed in range(max_seeds):
        trace = gen_trace(small_config(seed=seed, blocks=10, **mutation_kw))
        summary = summarize(run_all_checks(trace))
        bad = {name for name, r in summary.items() if not r.passed}
        if bad:
            assert expect_check in bad, f"seed {seed} failed {bad}, expected {expect_check}"
            return seed
    pytest.fail(f"mutation {mutation_kw} never caught in {max_seeds} seeds")


def test_mutation_default_no_credit_is_caught():
    find_failing_seed({"cpmm_mutation": "default_no_credit"}, "tez_pool")


def test_mutation_drop_min_tokens_guard_is_caught():
    find_failing_seed({"cpmm_mutation": "drop_min_tokens_guard"}, "entrypoint_arith")


def test_mutation_floor_tokens_deposited_is_caught():
    find_failing_seed({"cpmm_mutation": "floor_tokens_deposited"}, "entrypoint_arith")


def test_mutation_keep_allowance_is_caught():
    find_failing_seed({"fa12_mutation": "keep_allowance"}, "allowance_ledger")


def test_mutation_open_mint_or_burn_is_caught():
    find_failing_seed({"fa12_mutation": "open_mint_or_burn"}, "lqt_condition")
