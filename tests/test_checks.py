"""`run_checks_for` in one pass: it never rescans a state's records, and its
reports equal those of folding every snapshot from scratch."""

from dataclasses import replace

import pytest

from dexsim import checks, cpmm, fa2, fa12
from dexsim.address import contract, user
from dexsim.chain import ChainState, ExecOrder, Records, TxEvent, decoded
from dexsim.checks import (
    check_incoming_outgoing_all,
    check_order_robustness,
    run_all_checks,
    run_checks_for,
    summarize,
)
from dexsim.harness import ScenarioConfig, Wiring, gen_trace, make_sink_contract, replay_trace

MUTATIONS = (
    [{}]
    + [{"mutation": m} for m in cpmm.MUTATIONS]
    + [{"mutation": m} for m in fa12.MUTATIONS]
)


@pytest.fixture(autouse=True)
def no_rescans(monkeypatch):
    """Fail any checker that rescans a state's log or incoming records."""

    def rescan(*_args):
        raise AssertionError("a checker rescanned the chain state's records")

    for name in ("outgoing_txs", "incoming_calls", "deployment_info"):
        monkeypatch.setattr(ChainState, name, rescan)


class FreshHistory(checks.History):
    """A History that forgets what it read before each advance."""

    def advance(self, state):
        checks.History.__init__(self, self.w)
        return super().advance(state)


def from_scratch(w, snapshots):
    """The reports of ``run_checks_for`` with every snapshot folded from
    scratch.  ``run_checks_for`` never reads ``run_all_checks``'s memo."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(checks, "History", FreshHistory)
        return checks.run_checks_for(w, snapshots)


@pytest.mark.parametrize(
    "mutation", MUTATIONS, ids=[next(iter(m.values()), "none") for m in MUTATIONS]
)
def test_streamed_reports_equal_fresh_folds(mutation):
    failed = False
    for seed in range(10):
        dfs = gen_trace(ScenarioConfig(seed=seed, blocks=10, **mutation))
        # Odd seeds check the replay first, as ``tools/verdict_digest.py`` does.
        if seed % 2:
            bfs, bfs_reports = check_order_robustness(dfs)
        dfs_reports = run_all_checks(dfs)
        if not seed % 2:
            bfs, bfs_reports = check_order_robustness(dfs)
        for trace, reports in ((dfs, dfs_reports), (bfs, bfs_reports)):
            fresh = run_checks_for(trace.wiring, trace.snapshots)
            assert reports == fresh == from_scratch(trace.wiring, trace.snapshots)
            failed = failed or not all(r.passed for r in reports)
    assert failed == bool(mutation)


def test_a_step_decodes_main_and_lqt_at_most_once_each(monkeypatch):
    # ``Checker.step`` reads the snapshot and hands the checks typed states;
    # no check decodes a payload again.
    calls = []

    def counted(p, decode):
        calls.append(decode)
        return decoded(p, decode)

    monkeypatch.setattr(checks, "decoded", counted)
    stepped = 0
    for seed in range(20):
        trace = gen_trace(ScenarioConfig(seed=seed, blocks=10))
        checker = checks.Checker(trace.wiring)
        for snap in trace.snapshots:
            calls.clear()
            checker.step(snap)
            assert len(calls) == len(set(calls)) <= 2, snap
            stepped += len(calls) == 2
    assert stepped > 0


def test_a_main_that_is_no_cpmm_contract_fails_loudly():
    # A wiring's main is always a cpmm contract, whose state always decodes.
    trace = gen_trace(ScenarioConfig(seed=0, blocks=2))
    with pytest.raises(AssertionError, match="holds no cpmm state"):
        run_checks_for(replace(trace.wiring, main=trace.wiring.token), trace.snapshots)


def test_a_forked_checker_checks_each_continuation_as_a_fresh_one():
    # The dfs trace and its bfs replay share their order-free blocks, then
    # part.  A checker stepped into one continuation refuses the other's next
    # snapshot, whose log does not extend what it read.
    parted = 0
    for seed in range(10):
        dfs = gen_trace(ScenarioConfig(seed=seed, blocks=10, mutation="default_no_credit"))
        bfs = replay_trace(dfs, ExecOrder.BREADTH_FIRST)
        w, n = dfs.wiring, dfs.free.snapshots
        checker = checks.Checker(w)
        head = run_checks_for(w, dfs.snapshots[:n], checker)
        for trace in (dfs, bfs):
            tail = run_checks_for(w, trace.snapshots[n:], checker.fork())
            assert head + tail == run_checks_for(w, trace.snapshots)
        if [s.action for s in dfs.snapshots[n:]] != [s.action for s in bfs.snapshots[n:]]:
            parted += 1
            past_cut = checker.fork()
            past_cut.step(dfs.snapshots[n])
            with pytest.raises(AssertionError, match="record log does not extend"):
                past_cut.step(bfs.snapshots[n + 1])
    assert parted >= 5


def test_a_forked_history_shares_no_container():
    # Every list or dict a History folds into, and every list in its route
    # maps, is the fork's own: a field ``fork`` does not copy fails here.
    trace = gen_trace(ScenarioConfig(seed=0, blocks=10))
    checker = checks.Checker(trace.wiring)
    run_checks_for(trace.wiring, trace.snapshots, checker)
    original, fork = vars(checker.history), vars(checker.fork().history)
    containers = set()
    for name, value in original.items():
        if isinstance(value, (list, dict)):
            containers.add(name)
            assert fork[name] is not value, name
        for key, inner in value.items() if isinstance(value, dict) else ():
            assert not isinstance(inner, list) or fork[name][key] is not inner, (name, key)
    # A container added to History, or one dropped from it, shows here.
    assert containers == {"outgoing", "incoming", "_matched", "allowances"}


def test_a_checker_memoised_for_another_wiring_is_never_used():
    trace = gen_trace(ScenarioConfig(seed=1, blocks=10))
    run_all_checks(trace)
    # The same snapshots read as if the liquidity token were the FA2 token.
    w = replace(trace.wiring, lqt=trace.wiring.token)
    fresh = run_checks_for(w, trace.snapshots)
    assert run_all_checks(replace(trace, wiring=w)) == fresh
    assert fresh != run_checks_for(trace.wiring, trace.snapshots)
    assert not summarize(fresh)["lqt_condition"].passed


def test_a_foreign_decoder_leaves_the_first_decoders_memo():
    # Checking a wiring whose lqt is the FA2 token reads each fa2 state through
    # fa12's decoder too; every fa2 state keeps the memo fa2's own read left.
    trace = gen_trace(ScenarioConfig(seed=0, blocks=10))
    token = trace.wiring.token
    run_checks_for(replace(trace.wiring, lqt=token), trace.snapshots)
    payloads = [s.state.states[token] for s in trace.snapshots if token in s.state.states]
    kept = [p for p in payloads if p.memo[0] is fa2.decode_state]
    assert len(kept) == len(payloads) == 43


def test_concatenated_traces_are_refused(wiring_constants):
    # A checker folds the consecutive states of one run; two runs, wired
    # with different liquidity, glued together are refused.
    a = gen_trace(ScenarioConfig(seed=1, blocks=10))
    wiring_constants(LIQUIDITY=2000)
    b = gen_trace(ScenarioConfig(seed=2, blocks=20))
    assert a.wiring == b.wiring
    # b starts again from a one-entry log: the records shrink.
    shrink = a.snapshots + b.snapshots
    # b resumes where each of its records is at least as long as a's: the
    # records grow, but their last entry read is another object.
    read = a.final_state
    resume = next(
        i
        for i, s in enumerate(b.snapshots)
        if len(s.state.log) >= len(read.log)
        and len(s.state.incoming) >= len(read.incoming)
    )
    grow = a.snapshots + b.snapshots[resume:]
    refusals = [("record log does not extend", shrink), ("record log does not extend", grow)]
    for refusal, snapshots in refusals:
        with pytest.raises(AssertionError, match=refusal):
            run_checks_for(a.wiring, snapshots)
        # The reference folds each state on its own, so it still reads them.
        assert len(from_scratch(a.wiring, snapshots)) > len(snapshots)


def test_reports_count_violations_past_the_kept_messages():
    # Twelve senders called a contract that recorded no incoming call.
    c = contract(1)
    state = ChainState(
        contracts={c: make_sink_contract()},
        log=Records([TxEvent(user(i), c, 0, None) for i in range(12)]),
    )
    w = Wiring(contract(2), contract(3), contract(4), contract(5), ())
    report = check_incoming_outgoing_all(state, checks.History(w).advance(state))
    assert (report.passed, report.count, len(report.violations)) == (False, 12, 10)
    merged = summarize([report, report])["incoming_outgoing"]
    assert (merged.count, merged.violations) == (24, report.violations)


def test_composed_check_holds_where_its_premises_fail():
    # The open mint lets users move the supply past the main counter: the
    # direct check and the liquidity condition fail, and the composed check
    # passes because its premises fail with them.
    trace = gen_trace(ScenarioConfig(seed=0, blocks=10, mutation="open_mint_or_burn"))
    summary = summarize(run_checks_for(trace.wiring, trace.snapshots))
    assert summary["lqt_supply_composed"].passed
    for name in ("lqt_condition", "lqt_supply_direct"):
        assert (summary[name].passed, summary[name].count) == (False, 3)


@pytest.mark.parametrize(
    "mutation", MUTATIONS, ids=[next(iter(m.values()), "none") for m in MUTATIONS]
)
def test_composed_check_is_the_direct_check_under_its_premises(mutation):
    # On each committed snapshot where a step checks supply equality both
    # ways, the composed check never fails where the direct one passes, and
    # where its premises hold the two agree.
    premises = ("main_counter", "lqt_condition", "incoming_outgoing")
    held_alone = 0
    for seed in range(5):
        dfs = gen_trace(ScenarioConfig(seed=seed, blocks=10, **mutation))
        bfs, _ = check_order_robustness(dfs)
        for trace in (dfs, bfs):
            checker = checks.Checker(trace.wiring)
            for snap in trace.snapshots:
                step = {r.name: r for r in checker.step(snap)}
                if "lqt_supply_direct" not in step:
                    continue
                direct = step["lqt_supply_direct"].passed
                composed = step["lqt_supply_composed"].passed
                assert composed or not direct
                if all(step[n].passed for n in premises):
                    assert composed == direct
                held_alone += composed and not direct
    # The open mint breaks the liquidity condition, a premise, with the direct check.
    if mutation == {"mutation": "open_mint_or_burn"}:
        assert held_alone > 0
