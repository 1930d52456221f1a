"""`run_checks_for` in one pass: it never rescans a state's records, and its
reports equal those of folding every snapshot from scratch."""

import os
import pathlib
import subprocess
import sys
from dataclasses import FrozenInstanceError, replace

import pytest

from dexsim import checks, cpmm, fa2, fa12
from dexsim.address import contract, user
from dexsim.chain import Action, ChainState, ExecOrder, Records, Transfer, TxEvent
from dexsim.checks import (
    KEPT_VIOLATIONS,
    check_incoming_outgoing_all,
    check_order_robustness,
    run_all_checks,
    run_checks_for,
    summarize,
)
from dexsim.harness import (
    CheckReport,
    ScenarioConfig,
    Snapshot,
    Wiring,
    gen_trace,
    make_sink_contract,
    replay_trace,
)

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


def test_a_checked_campaign_calls_no_decode_state(monkeypatch):
    # Contract states are typed values that the chain keeps as they are:
    # past the wiring (where fa2's ``init`` decodes its setup), neither a
    # contract, a draw nor a check decodes one.
    gen_trace(ScenarioConfig(seed=0, blocks=0))
    calls = []
    for module in (cpmm, fa12, fa2):
        decode = module.decode_state
        monkeypatch.setattr(module, "decode_state", lambda p, d=decode: calls.append(p) or d(p))
    for seed in range(20):
        dfs = gen_trace(ScenarioConfig(seed=seed, blocks=10))
        run_all_checks(dfs)
        check_order_robustness(dfs)
    assert calls == []


def test_a_main_that_is_no_cpmm_contract_fails_loudly():
    # A wiring's main is always a cpmm contract, which holds a ``CpmmState``.
    trace = gen_trace(ScenarioConfig(seed=0, blocks=2))
    with pytest.raises(AssertionError, match="holds no cpmm state"):
        run_checks_for(replace(trace.wiring, main=trace.wiring.token), trace.snapshots)


def test_the_cpmm_guard_holds_under_python_O():
    # ``python -O`` drops ``assert`` statements; the guard raises its error itself.
    code = (
        "from dataclasses import replace\n"
        "from dexsim.checks import run_checks_for\n"
        "from dexsim.harness import ScenarioConfig, gen_trace\n"
        "t = gen_trace(ScenarioConfig(seed=0, blocks=2))\n"
        "run_checks_for(replace(t.wiring, main=t.wiring.token), t.snapshots)\n"
    )
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), timeout=120)
    assert done.returncode == 1
    assert done.stderr.splitlines()[-1] == "AssertionError: main @c1 holds no cpmm state"


def composed_premises_first(snap, ms, ls, w, history, queued, main_counter, lqt_condition):
    """``check_lqt_supply_composed`` reading its premises before it compares
    the two counters."""
    name = "lqt_supply_composed"
    if ls is None:
        return checks._report(name, [f"{checks._where(snap)}: undecodable state"])
    if not checks._paired(history, ms, ls, w) or queued:
        return checks._report(name, [])
    premises = (
        main_counter.passed
        and (lqt_condition or checks.check_lqt_condition(ls, w, history)).passed
        and history.agrees(w.main, w.lqt)
    )
    bad = []
    if premises and ms.lqtTotal != ls.total_supply:
        bad.append(f"{checks._where(snap)}: premises hold but lqtTotal {ms.lqtTotal}"
                   f" != total_supply {ls.total_supply}")
    return checks._report(name, bad)


class EveryCheck(checks.Checker):
    """``Checker.step`` with no check skipped: each is called on every
    snapshot it applies to, whatever the step fixes in advance."""

    def step(self, snap):
        w, state, history = self.w, snap.state, self.history.advance(snap.state)
        reports = []
        main_up, lqt_up = w.main in state.states, w.lqt in state.states
        ms = state.states.get(w.main)
        ls = state.states.get(w.lqt)
        ls = ls if isinstance(ls, fa12.Fa12State) else None
        if main_up:
            queued = [a for a in state.queue if a.sender == w.main]
            reports.append(checks.check_tez_pool(snap, ms, w.main, queued))
        reports.append(checks.check_no_overdraft(snap, w.main))
        condition = None
        if snap.committed and lqt_up:
            condition = checks.check_lqt_condition(ls, w, history)
        if main_up and lqt_up:
            to_lqt = [a for a in queued if getattr(a.body, "to", None) == w.lqt]
            counter = checks.check_main_counter(snap, ms, w, history, to_lqt)
            reports.append(counter)
            reports.append(
                composed_premises_first(snap, ms, ls, w, history, to_lqt, counter, condition)
            )
            if self.pre_cpmm is not None and not snap.committed:
                msg = checks._dexter_msg(snap.action, w.main)
                for check in (checks.check_constant_product, checks.check_entrypoint_arith,
                              checks.check_share_value):
                    reports.append(check(self.pre_cpmm, ms, msg, snap))
        if snap.committed:
            reports.append(check_incoming_outgoing_all(state, history))
            if condition is not None:
                reports.append(condition)
                reports.append(checks.check_allowance_ledger(ls, history))
                if main_up:
                    reports.append(checks.check_lqt_supply(ms, ls, w, history, to_lqt))
            if state.queue:
                reports.append(
                    checks._report("queue_empty", [f"block {snap.block}: non-empty queue"])
                )
        self.pre_cpmm = ms
        return reports


@pytest.mark.parametrize(
    "mutation", MUTATIONS, ids=[next(iter(m.values()), "none") for m in MUTATIONS]
)
def test_the_checks_a_step_skips_change_no_report(mutation):
    # ``Checker.step`` skips the transition checks with no message to main,
    # ``no_overdraft`` with no action from main, and the composed check's
    # premises where the counters agree.  Its reports are the reference's,
    # each passing one the very object ``_report`` shares.
    skipped = failed = 0
    for seed in range(20):
        dfs = gen_trace(ScenarioConfig(seed=seed, blocks=10, **mutation))
        for trace in (dfs, replay_trace(dfs, ExecOrder.BREADTH_FIRST)):
            reference = EveryCheck(trace.wiring)
            expected = [r for snap in trace.snapshots for r in reference.step(snap)]
            reports = run_checks_for(trace.wiring, trace.snapshots)
            assert reports == expected
            assert all(r is e for r, e in zip(reports, expected) if e.passed)
            main = trace.wiring.main
            skipped += sum(not s.committed and checks._dexter_msg(s.action, main) is None
                           for s in trace.snapshots)
            failed += sum(not r.passed for r in reports)
    assert skipped > 0 and (failed > 0) == bool(mutation)


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


def test_a_checker_stepped_into_the_trace_refuses_the_replay_past_a_taken_block():
    # Seed 5's replay runs blocks 6 and 7, which are not order-free, and takes
    # block 8 from the trace: its states are the trace's own.  Its records
    # hold the trace's own entry objects, but on the replay's own nodes, so a
    # checker stepped over the trace through block 8 still refuses the
    # replay's next snapshot: the refusal is by node.
    dfs = gen_trace(ScenarioConfig(seed=5, blocks=8, users=3))
    bfs = replay_trace(dfs, ExecOrder.BREADTH_FIRST)
    assert dfs.free.blocks == 6 and dfs.order_free[6:9] == [False, False, True]
    end = 1 + max(i for i, s in enumerate(dfs.snapshots) if s.block == 8)
    taken, source = bfs.snapshots[end - 1].state, dfs.snapshots[end - 1].state
    assert taken.balances is source.balances and taken.states is source.states
    assert len(taken.log) == len(source.log) and len(taken.incoming) == len(source.incoming)
    checker = checks.Checker(dfs.wiring)
    run_checks_for(dfs.wiring, dfs.snapshots[:end], checker)
    assert bfs.snapshots[end].block == 9
    with pytest.raises(AssertionError, match="record log does not extend"):
        checker.step(bfs.snapshots[end])


def test_a_record_rebuilt_from_the_entries_read_is_refused():
    # Runs are told apart by node: the next state's log or incoming, rebuilt
    # from the very entry objects the checker read plus the one new entry,
    # does not extend the record it read.
    trace = gen_trace(ScenarioConfig(seed=0, blocks=10))
    snaps = trace.snapshots
    k = next(i for i in range(1, len(snaps))
             if len(snaps[i].state.incoming) > len(snaps[i - 1].state.incoming) > 0)
    snap, state = snaps[k], snaps[k].state
    assert len(state.log) == len(snaps[k - 1].state.log) + 1 and len(state.incoming) > 1
    checker = checks.Checker(trace.wiring)
    head = run_checks_for(trace.wiring, snaps[:k], checker)
    rebuilt = {"log": (Records(state.log), state.incoming),
               "incoming": (state.log, Records(state.incoming))}
    for name, (log, incoming) in rebuilt.items():
        other = Snapshot(snap.block, snap.step, state.with_records(log, incoming), snap.action,
                         snap.pre_sender_balance, snap.committed)
        with pytest.raises(AssertionError, match=f"record {name} does not extend"):
            checker.fork().step(other)
    # The run's own next state still steps on.
    assert head + run_checks_for(trace.wiring, snaps[k:], checker) == run_checks_for(trace.wiring, snaps)


def test_a_forked_history_shares_no_container():
    # Every list, dict or set a History folds into, and every list in its
    # route maps, is the fork's own: a field ``fork`` does not copy fails here.
    trace = gen_trace(ScenarioConfig(seed=0, blocks=10))
    checker = checks.Checker(trace.wiring)
    run_checks_for(trace.wiring, trace.snapshots, checker)
    original, fork = vars(checker.history), vars(checker.fork().history)
    containers = set()
    for name, value in original.items():
        if isinstance(value, (list, dict, set)):
            containers.add(name)
            assert fork[name] is not value, name
        for key, inner in value.items() if isinstance(value, dict) else ():
            assert not isinstance(inner, list) or fork[name][key] is not inner, (name, key)
    # A container added to History, or one dropped from it, shows here.
    assert containers == {
        "outgoing", "incoming", "_matched", "_touched", "_disagreeing", "allowances"
    }


def test_a_checker_memoised_for_another_wiring_is_never_used():
    trace = gen_trace(ScenarioConfig(seed=1, blocks=10))
    run_all_checks(trace)
    # The same snapshots read as if the liquidity token were the FA2 token.
    w = replace(trace.wiring, lqt=trace.wiring.token)
    fresh = run_checks_for(w, trace.snapshots)
    assert run_all_checks(replace(trace, wiring=w)) == fresh
    assert fresh != run_checks_for(trace.wiring, trace.snapshots)
    assert not summarize(fresh)["lqt_condition"].passed


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


# -- incoming = outgoing compares only the routes a step touched -------------

W = Wiring(contract(7), contract(8), contract(9), contract(10), ())  # none deployed


def full_scan(state, history):
    """``check_incoming_outgoing_all`` as it compared every route on every
    call: the reference for the touched-route fold."""
    bad = []
    routes = history.outgoing.keys() | history.incoming.keys()
    for b, a in sorted((b, a) for a, b in routes if b in state.contracts):
        if not history.agrees(a, b):
            inc, out = history.incoming.get((a, b), []), history.outgoing.get((a, b), [])
            bad.append(f"incoming({a}->{b}) != outgoing: {len(inc)} vs {len(out)} events")
    return CheckReport("incoming_outgoing", not bad, tuple(bad[:KEPT_VIOLATIONS]), len(bad))


def committed(state, block):
    return Snapshot(block, -1, state, None, 0, True)


def test_a_route_that_catches_up_agrees_again_in_a_fork_and_in_its_parent(monkeypatch):
    # u sent c one call (out [e]) that c has not recorded (in []); the next
    # state records it (in [e]).  A fork stepped to that state heals, and the
    # checker it was forked from still disagrees on the first state until it
    # is stepped there too.
    u, c = user(1), contract(1)
    e = TxEvent(u, c, 0, None)
    log = Records([e])
    first = ChainState(contracts={c: make_sink_contract()}, log=log)
    second = ChainState(contracts=first.contracts, log=log, incoming=Records([e]))
    checker = checks.Checker(W)
    (report,) = [r for r in checker.step(committed(first, 0)) if r.name == "incoming_outgoing"]
    assert report == CheckReport(
        "incoming_outgoing", False, (f"incoming({u}->{c}) != outgoing: 0 vs 1 events",), 1
    )
    fork = checker.fork()
    healed = [r for r in fork.step(committed(second, 1)) if r.name == "incoming_outgoing"]
    assert healed == [CheckReport("incoming_outgoing", True, (), 0)]
    assert check_incoming_outgoing_all(first, checker.history) == report
    assert [r for r in checker.step(committed(second, 1)) if r.name == "incoming_outgoing"] == healed
    assert fork.history.disagreeing() == checker.history.disagreeing() == set()
    # Checking again with no new entry compares no route.
    compared, agrees = [], checks.History.agrees
    monkeypatch.setattr(checks.History, "agrees",
                        lambda h, a, b: compared.append((a, b)) or agrees(h, a, b))
    assert check_incoming_outgoing_all(second, checker.history) == healed[0]
    assert compared == []


def test_the_touched_routes_report_what_a_full_scan_reports():
    # Routes to contracts that agree, lag, lead or differ in content, routes
    # to users (never recorded as incoming, so never reported) and a route to
    # an address with no contract, over two committed states of one run.
    u1, u2, u3 = user(1), user(2), user(3)
    c1, c2, c3, gone = contract(1), contract(2), contract(3), contract(4)
    sink = make_sink_contract()

    def tx(a, b, amount=0):
        return TxEvent(a, b, amount, None)

    sent = [tx(u1, c1), tx(u2, c1), tx(c1, u3, 5), tx(u3, c2), tx(c2, c1), tx(u1, c3, 1),
            tx(c3, u1, 1), tx(u2, gone), tx(u1, c2)]
    got = [tx(u1, c1), tx(u3, c2), tx(c2, c1), tx(c2, c1), tx(u1, c3, 2), tx(u2, c3)]
    log, incoming = Records(), Records()
    for ev in sent[:5]:
        log = log.appended(ev)
    for ev in got[:3]:
        incoming = incoming.appended(ev)
    contracts = {c: sink for c in (c1, c2, c3)}
    states = [ChainState(contracts=contracts, log=log, incoming=incoming)]
    for ev in sent[5:]:
        log = log.appended(ev)
    for ev in got[3:]:
        incoming = incoming.appended(ev)
    states.append(ChainState(contracts=contracts, log=log, incoming=incoming))
    checker, reference = checks.Checker(W), checks.History(W)
    for block, state in enumerate(states):
        (report,) = [r for r in checker.step(committed(state, block))
                     if r.name == "incoming_outgoing"]
        assert report == full_scan(state, reference.advance(state))
    assert not report.passed and report.count == 5
    assert report.violations == (
        f"incoming({c2}->{c1}) != outgoing: 2 vs 1 events",
        f"incoming({u2}->{c1}) != outgoing: 0 vs 1 events",
        f"incoming({u1}->{c2}) != outgoing: 0 vs 1 events",
        f"incoming({u1}->{c3}) != outgoing: 1 vs 1 events",
        f"incoming({u2}->{c3}) != outgoing: 1 vs 0 events",
    )


def test_no_route_disagrees_on_a_committed_state_of_an_unmutated_campaign():
    # ``incoming`` records no call to a user, so ``History`` marks only the
    # routes to contracts, and on an unmutated run every one of them agrees:
    # a route to a user never lingers among the disagreeing ones.
    paid_users = 0
    for seed in range(10):
        dfs = gen_trace(ScenarioConfig(seed=seed, blocks=10))
        for trace in (dfs, replay_trace(dfs, ExecOrder.BREADTH_FIRST)):
            history = checks.History(trace.wiring)
            for snap in trace.snapshots:
                history.advance(snap.state)
                if snap.committed:
                    assert history.disagreeing() == set(), (seed, trace.config.order, snap.block)
            paid_users += any(b.is_user for _, b in history.outgoing)
    assert paid_users == 20  # every trace logs a payment to a user


# -- one shared passing report per check --------------------------------------


def test_a_passing_report_is_one_shared_frozen_object():
    trace = gen_trace(ScenarioConfig(seed=0, blocks=10))
    _, other = check_order_robustness(trace)
    reports = run_all_checks(trace) + other
    shared = {}
    for r in reports:
        assert isinstance(r.violations, tuple)
        if r.passed:
            assert shared.setdefault(r.name, r) is r, r.name
    assert len(shared) >= 10
    report = shared["tez_pool"]
    for field, value in (("passed", False), ("count", 1), ("violations", ("x",))):
        with pytest.raises(FrozenInstanceError):
            setattr(report, field, value)
    assert report == CheckReport("tez_pool", True, (), 0)


def test_summarize_builds_new_reports_and_changes_none_it_merges():
    failing = gen_trace(ScenarioConfig(seed=0, blocks=10, mutation="default_no_credit"))
    reports = run_all_checks(failing) + run_all_checks(gen_trace(ScenarioConfig(seed=0, blocks=10)))
    before = [(r.name, r.passed, r.count, r.violations) for r in reports]
    summary = summarize(reports)
    assert [(r.name, r.passed, r.count, r.violations) for r in reports] == before
    tez = [r for r in reports if r.name == "tez_pool"]
    merged = summary["tez_pool"]
    assert (merged.passed, merged.count) == (False, sum(r.count for r in tez))
    assert merged.violations == tuple(v for r in tez for v in r.violations)[:KEPT_VIOLATIONS]
    assert all(merged is not r for r in reports)
    assert summary["share_value"] is next(r for r in reports if r.name == "share_value")


@pytest.mark.parametrize(
    "sender, sent, violations",
    [
        (contract(1), 8, ()),
        (contract(1), 9, ("block 3 step 2: main emitted 9 with balance 8",)),
        (user(0), 9, ()),  # only main's payments are checked
    ],
)
def test_no_overdraft_fails_when_main_sends_more_than_it_held(sender, sent, violations):
    step = Action(user(0), sender, Transfer(user(1), sent))
    report = checks.check_no_overdraft(Snapshot(3, 2, ChainState(), step, 8, False), contract(1))
    assert (report.passed, report.violations, report.count) == (
        not violations, violations, len(violations)
    )
