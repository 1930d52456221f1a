"""Fuzzed-campaign behaviour: wiring, determinism, checker verdicts, and
mutation sensitivity.

Seeds and trace counts here are deliberately small; the acceptance suite
runs the large campaigns.
"""

import dataclasses

import pytest

from dexsim import cpmm, fa2, fa12, harness
from dexsim.address import contract
from dexsim.chain import (
    Action, BlockError, Deploy, DeployedEvent, ExecOrder, Transfer, TxEvent, empty_chain,
)
from dexsim.checks import (
    History,
    check_incoming_outgoing_all,
    check_order_robustness,
    minted_and_burned,
    run_all_checks,
    run_checks_for,
    summarize,
)
from dexsim.harness import (
    DEFAULT_WEIGHTS,
    RejectedBlock,
    ScenarioConfig,
    dexter_call,
    gen_trace,
    replay_trace,
    wire_exchange,
)
from dexsim.payload import as_nat, rec_get, render, sort_key
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
    with pytest.raises(ValueError, match="xtz_to_tokn"):
        ScenarioConfig(weights={"xtz_to_tokn": 1})


def test_config_rejects_an_unknown_mutation():
    with pytest.raises(ValueError, match="unknown mutation 'keep_allowanc'; known: "):
        ScenarioConfig(mutation="keep_allowanc")
    for m in [*cpmm.MUTATIONS, *fa12.MUTATIONS]:
        assert ScenarioConfig(mutation=m).mutation == m


def test_config_rejects_bad_sizes():
    # Without a user there is no one to wire the exchange; negative blocks
    # would silently fuzz nothing.
    for sizes in ({"users": 0}, {"users": -1}, {"blocks": -3}):
        with pytest.raises(ValueError, match="need users >= 1, blocks >= 0"):
            ScenarioConfig(**sizes)
    assert ScenarioConfig(users=1, blocks=0).blocks == 0


def test_mutant_names_route_to_one_contract():
    # ``ScenarioConfig.mutation`` is handed to the contract whose table names it.
    assert not cpmm.MUTATIONS.keys() & fa12.MUTATIONS.keys()


def test_wire_exchange_pairs_the_contracts():
    run, w = wire_exchange(small_config(), DFS)
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
    assert ms.lqtTotal == ls.total_supply == harness.LIQUIDITY
    # The pools are funded and resynced.
    assert ms.xtzPool == harness.XTZ_POOL == state.balance(w.main)
    assert ms.tokenPool == harness.TOKEN_POOL
    assert ms.tokenPool == fa2.ledger_balance(ts, w.main, 0)
    assert not ms.selfIsUpdatingTokenPool
    assert len(root_blocks) == 6


def test_wire_exchange_raises_on_a_rejected_wiring_block(wiring_constants):
    # The owner holds fewer tokens than the pool is funded with.
    wiring_constants(TOKEN_POOL=harness.USER_TOKENS + 1)
    config = small_config()
    for _ in range(2):  # a rejected wiring is never kept, so it raises again
        with pytest.raises(BlockError, match="contract @c1 rejected the call") as e:
            wire_exchange(config, DFS)
        assert e.value.index == 1 and len(e.value.state.deployed_contracts()) == 4


def test_wire_exchange_hands_out_forks():
    config = small_config()
    run, w = wire_exchange(config, DFS)
    wired = run.state.canonical_dump()
    run.add([dexter_call(w.users[1], w.main, 5, "default")])
    again, _ = wire_exchange(config, DFS)
    assert len(run.root_blocks) == 7 and len(again.root_blocks) == 6
    assert again.state.canonical_dump() == wired
    assert again.root_blocks is not run.root_blocks and again.snapshots is not run.snapshots


# One change to each config field the wiring reads, and to each it does not.
WIRING_VARIANTS = [{"users": 2}, {"mutation": "default_no_credit"}, {"mutation": "keep_allowance"}]
UNREAD_VARIANTS = [{"seed": 5}, {"blocks": 3}, {"order": BFS}, {"weights": {"donate": 9}}]
# One change to each wiring constant.
CONSTANT_VARIANTS = [{"USER_TEZ": 10**8}, {"USER_TOKENS": 10**8}, {"LIQUIDITY": 999},
                     {"TOKEN_POOL": 10**5}, {"XTZ_POOL": 10**5}]


def test_wiring_key_is_what_the_wiring_reads():
    # Every config field is classified, so a new one must say whether the key holds it.
    read, unread = ({k for kw in variants for k in kw}
                    for variants in (WIRING_VARIANTS, UNREAD_VARIANTS))
    assert not read & unread
    assert read | unread == {f.name for f in dataclasses.fields(ScenarioConfig)}

    def first_block(**kw):
        return gen_trace(small_config(**{"blocks": 1, **kw})).root_blocks[0]

    shared = first_block()
    # Fields the wiring never reads share one wired run.
    for kw in UNREAD_VARIANTS:
        assert first_block(**kw) is shared, kw
    for kw in WIRING_VARIANTS:
        assert first_block(**kw) is not shared, kw


def test_one_wired_run_serves_both_orders(wiring_constants):
    # Every wiring block is order-free under each key, every mutant's included.
    mutants = [{"mutation": m} for m in cpmm.MUTATIONS]
    mutants += [{"mutation": m} for m in fa12.MUTATIONS]
    for kw in [{}] + WIRING_VARIANTS + mutants:
        run, _w = harness._wiring(harness._key(small_config(**kw)))
        assert run.free.blocks == 6 and len(run.snapshots) == 16, kw
    # So a bfs trace shares the wiring snapshots of a dfs trace of its key,
    # and checks from the checker the dfs trace memoised there.
    dfs = gen_trace(small_config(seed=1))
    run_all_checks(dfs)
    assert dfs.snapshots[15].checked is not None
    bfs = gen_trace(small_config(seed=1, order=BFS))
    assert all(a is b for a, b in zip(bfs.snapshots[:16], dfs.snapshots))
    assert bfs.snapshots[16] is not dfs.snapshots[16]
    assert run_all_checks(bfs) == run_checks_for(bfs.wiring, bfs.snapshots)
    # And so is it under other wiring amounts.
    defaults = {name: getattr(harness, name) for kw in CONSTANT_VARIANTS for name in kw}
    for kw in CONSTANT_VARIANTS:
        wiring_constants(**{**defaults, **kw})
        run, _w = harness._wiring(harness._key(small_config()))
        assert run.free.blocks == 6 and len(run.snapshots) == 16, kw


def test_alternating_seeds_match_each_seed_alone():
    def image(trace):
        return [(s.block, s.step, s.committed, s.state.canonical_dump()) for s in trace.snapshots]

    alone = []
    for seed in (3, 4):
        harness._wiring.cache_clear()
        trace = gen_trace(small_config(seed=seed))
        alone.append((trace.final_state.canonical_dump(), image(trace)))
    harness._wiring.cache_clear()
    for _ in range(2):
        for seed, expected in zip((3, 4), alone):
            trace = gen_trace(small_config(seed=seed))
            assert (trace.final_state.canonical_dump(), image(trace)) == expected
            replayed = replay_trace(trace, BFS)
            assert replayed.root_blocks == trace.root_blocks


def test_wired_run_keeps_only_the_wiring_records():
    config = small_config(seed=2, blocks=50)
    trace = gen_trace(config)
    replay_trace(trace, BFS)
    run, _wiring = harness._wiring(harness._key(config))
    wiring_end = [s for s in trace.snapshots if s.block == 5][-1].state
    assert len(trace.final_state.log) > len(wiring_end.log)
    # The storage behind each record, not only the view, ends with the wiring.
    assert len(run.state.log._items) == len(run.state.log) == len(wiring_end.log)
    for to, calls in run.state.incoming.items():
        assert len(calls._items) == len(calls) == len(wiring_end.incoming[to]), to


def test_replay_goes_on_from_the_order_free_prefix(monkeypatch):
    # Seed 3's first 12 blocks are order-free, rejected blocks 7 and 10 among them.
    trace = gen_trace(small_config(seed=3))
    free = trace.free
    assert (free.blocks, [r.block for r in trace.rejected]) == (12, [7, 10, 13])
    executed = []
    add_block = harness.add_block
    monkeypatch.setattr(harness, "add_block", lambda *a: executed.append(1) or add_block(*a))
    replayed = replay_trace(trace, BFS)
    assert len(executed) == len(trace.root_blocks) - free.blocks == 2
    assert all(a is b for a, b in zip(replayed.snapshots[: free.snapshots], trace.snapshots))
    assert replayed.snapshots[free.snapshots] is not trace.snapshots[free.snapshots]
    assert replayed.rejected[:2] == trace.rejected[:2] and replayed.rejected[0] is trace.rejected[0]
    assert replayed.root_blocks == trace.root_blocks and replayed.free is free


def from_scratch(trace, order):
    """The trace's root blocks run under ``order`` from an empty chain where
    each user holds ``USER_TEZ`` tez: a replay that shares nothing."""
    run = harness.Run(empty_chain([(u, harness.USER_TEZ) for u in trace.wiring.users]), order)
    for roots in trace.root_blocks:
        run.add(roots)
    return run.trace(dataclasses.replace(trace.config, order=order), trace.wiring)


def _step_image(s):
    return (s.block, s.step, s.committed, s.action, s.pre_sender_balance, s.state.queue,
            s.state.canonical_dump())


@pytest.mark.parametrize("order", [DFS, BFS], ids=["dfs", "bfs"])
def test_the_order_free_prefix_replays_as_an_unshared_replay(order):
    other = BFS if order is DFS else DFS
    shared = 0
    configs = [ScenarioConfig(seed=seed, blocks=10, order=order) for seed in range(100)]
    for config in configs + [ScenarioConfig(seed=0, blocks=400, order=order)]:
        trace = gen_trace(config)
        replayed = replay_trace(trace, other)
        unshared = from_scratch(trace, other)
        n = trace.free.snapshots
        assert all(a is b for a, b in zip(replayed.snapshots[:n], trace.snapshots))
        assert [_step_image(s) for s in replayed.snapshots[:n]] == [
            _step_image(s) for s in unshared.snapshots[:n]
        ]
        assert len(replayed.snapshots) == len(unshared.snapshots)
        assert replayed.final_state.canonical_dump() == unshared.final_state.canonical_dump()
        assert replayed.rejected == unshared.rejected
        shared += trace.free.blocks - 6
    assert shared > 300  # about 3.9 of the 10 fuzzed blocks are order-free


def test_a_root_that_emits_ahead_of_another_root_ends_the_prefix():
    config = small_config()
    runs = {order: wire_exchange(config, order)[0] for order in (DFS, BFS)}
    w = wire_exchange(config, DFS)[1]
    u, v = w.users[1], w.users[2]
    update = dexter_call(u, w.main, 0, "update_token_pool")
    # One root whose chain is update_token_pool -> balance_of -> callback:
    # each action emits onto an empty queue, so the block is order-free.
    chain = [update]
    # Two roots, and the first emits while the second still waits.
    both = [update, Action(u, u, Transfer(v, 5))]
    for run in runs.values():
        assert run.free.blocks == 6
        assert run.add(chain) and run.free.blocks == 7
        assert [s.action.body.to for s in run.snapshots[-4:-1]] == [w.main, w.token, w.main]
        assert run.add(both) and run.free.blocks == 7
        assert run.add(chain) and run.free.blocks == 7  # the prefix is leading blocks only
    # So the orders part: dfs runs the transfer last, bfs right after the update.
    dfs, bfs = ([s.action for s in r.snapshots if s.block == 7][:-1] for r in runs.values())
    assert dfs[0] == bfs[0] == update and dfs[3] == bfs[1] == both[1]


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
    assert replayed.config.order is BFS
    assert replayed.root_blocks == trace.root_blocks
    assert all(r.passed for r in summarize(reports).values())


def test_replay_reconstructs_wiring():
    trace = gen_trace(small_config())
    replayed = replay_trace(trace, DFS)
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


def test_a_committed_block_shares_the_run_state():
    # A committed block's last snapshot holds the run's state itself, not a
    # clone; later blocks, committed or rolled back, leave it as it was.
    trace = gen_trace(small_config(seed=9))
    users = [(u, harness.USER_TEZ) for u in trace.wiring.users]
    run = harness.Run(empty_chain(users), DFS)
    committed = []
    for roots in trace.root_blocks:
        if run.add(roots):
            last = run.snapshots[-1]
            assert last.committed and last.state is run.state
            committed.append((last.state, last.state.canonical_dump()))
    assert run.rejected
    assert all(state.canonical_dump() == dump for state, dump in committed)


def test_snapshot_records_are_prefixes_of_the_final_records():
    # Seed 9 rolls back blocks 7 and 11 after some of their actions ran and
    # wrote records, so the next block appends where those entries were.
    trace = gen_trace(small_config(seed=9))
    replayed = replay_trace(trace, BFS)
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
    users = [(u, harness.USER_TEZ) for u in trace.wiring.users]
    result = run_scenario(Scenario({}, users, trace.root_blocks), order)
    replayed = replay_trace(trace, order)

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


def assert_history_equals_scans(history, state, w, unmutated):
    """What ``History`` folded equals what the naive ``ChainState`` scans
    read from ``state`` alone."""
    for a, b in history.outgoing.keys() | history.incoming.keys():
        assert history.outgoing.get((a, b), []) == state.outgoing_txs(a, b)
        assert history.incoming.get((a, b), []) == state.incoming_calls(a, b)
    # ...and no route was left out.
    assert sum(map(len, history.outgoing.values())) == sum(isinstance(e, TxEvent) for e in state.log)
    assert sum(map(len, history.incoming.values())) == sum(map(len, state.incoming.values()))
    for folded, at, name in (
        (history.initial_main, w.main, "lqtTotal_"), (history.initial_lqt, w.lqt, "initial_pool")
    ):
        info = state.deployment_info(at)
        assert folded == (None if info is None else as_nat(rec_get(info[2], name)))
    minted = [sum(map(minted_and_burned, (tx.payload for tx in scan(w.main, w.lqt))))
              for scan in (state.outgoing_txs, state.incoming_calls)]
    assert [history.minted_out, history.minted_in] == minted
    if unmutated and w.lqt in state.states:
        refolded = {k: v for k, v in history.allowances.items() if v != 0}
        assert refolded == dict(fa12.decode_state(state.states[w.lqt]).allowances)


def test_incoming_outgoing_on_final_states():
    # ``History``'s fold, checked on every committed snapshot against the
    # scans, which reread each state whole.
    for mutation in (None, *cpmm.MUTATIONS, *fa12.MUTATIONS):
        for seed in range(5):
            dfs = gen_trace(small_config(seed=seed, mutation=mutation))
            for trace in (dfs, replay_trace(dfs, BFS)):
                w, history = trace.wiring, History(trace.wiring)
                for snap in trace.snapshots:
                    history.advance(snap.state)
                    if snap.committed:
                        assert_history_equals_scans(history, snap.state, w, mutation is None)
                state = trace.final_state
                assert check_incoming_outgoing_all(state, History(w).advance(state)).passed


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
    find_failing_seed({"mutation": "default_no_credit"}, "tez_pool")


def test_mutation_drop_min_tokens_guard_is_caught():
    find_failing_seed({"mutation": "drop_min_tokens_guard"}, "entrypoint_arith")


def test_mutation_floor_tokens_deposited_is_caught():
    find_failing_seed({"mutation": "floor_tokens_deposited"}, "entrypoint_arith")


def test_mutation_keep_allowance_is_caught():
    find_failing_seed({"mutation": "keep_allowance"}, "allowance_ledger")


def test_mutation_open_mint_or_burn_is_caught():
    find_failing_seed({"mutation": "open_mint_or_burn"}, "lqt_condition")


CODECS = {"cpmm": cpmm, "fa12": fa12, "fa2": fa2}
MUTANTS = [{"mutation": m} for m in cpmm.MUTATIONS] + [
    {"mutation": m} for m in fa12.MUTATIONS
]


def stamped_payloads(trace):
    """The state payloads of the trace's snapshots that hold their state
    (``MapKV.memo``), by ``id`` (snapshots share most of their payloads), with
    the contract module's name."""
    payloads = {}
    for snap in trace.snapshots:
        for a, p in snap.state.states.items():
            if getattr(p, "memo", None) is not None:
                payloads[id(p)] = (snap.state.contracts[a].name.split("[")[0], p)
    return payloads.values()


def test_checking_a_campaign_never_encodes_a_state():
    # ``receive`` returns a state payload that encodes its state only when its
    # entries are read; a campaign and its checkers read the state it holds.
    harness._wiring.cache_clear()  # another test may have read the wired run's payloads
    lazy = 0
    for seed in range(20):
        for order in (DFS, BFS):
            trace = gen_trace(ScenarioConfig(seed=seed, blocks=10, order=order))
            run_all_checks(trace)
            replayed, _ = check_order_robustness(trace)
            for t in (trace, replayed):
                for name, p in stamped_payloads(t):
                    if p.memo[2] is not None:  # made by ``receive``
                        assert "entries" not in vars(p), (seed, order, name)
                        lazy += 1
    assert lazy > 1000


def test_every_state_payload_carries_the_state_it_encodes():
    # A contract's ``receive`` returns a payload that holds the state it
    # encodes, and later reads take that value instead of decoding.  That is
    # sound only while ``decode_state(encode_state(s)) == s`` for every state a
    # handler returns, so a fresh decode of each payload must give it.  Reading
    # the entries encodes them, and the payload then reads as
    # ``encode_state(s)`` would.
    configs = [ScenarioConfig(seed=seed, blocks=10) for seed in range(20)]
    configs += [ScenarioConfig(seed=seed, blocks=10, **kw) for kw in MUTANTS for seed in range(4)]
    configs.append(ScenarioConfig(seed=0, blocks=400))
    lazy = 0
    for config in configs:
        for order in (DFS, BFS):
            trace = gen_trace(dataclasses.replace(config, order=order))
            for name, p in stamped_payloads(trace):
                codec = CODECS[name]
                decode, value, encode = p.memo
                assert decode is codec.decode_state, (config, order, name)
                assert codec.decode_state(p) == value, (config, order, name)
                if encode is None:  # built with its entries, as ``init`` builds it
                    continue
                assert encode is codec.encode_state, (config, order, name)
                eager = codec.encode_state(value)
                assert p == eager and hash(p) == hash(eager), (config, order, name)
                assert render(p) == render(eager) and sort_key(p) == sort_key(eager)
                lazy += 1
    assert lazy > 1000
