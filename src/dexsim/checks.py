"""Executable checkers for the exchange's safety properties.

``Checker.step`` reads each snapshot once: it decodes main's ``CpmmState``
and lqt's ``Fa12State``, unwraps the action's message to main, and hands
the checks those typed states with their premises: the ``History``, main's
queued actions (read once) and the premise reports already made on the
snapshot.  Each check is a pure predicate over them and reports violations
with enough context to replay them.  The arithmetic oracles deliberately
avoid the integer operators the contracts use: expected amounts are
recomputed with exact rationals and floored/ceiled independently, so a
checker and the code it checks never share a bug.

``run_checks_for`` steps a ``Checker`` over a trace, the consecutive states
of one run, which ``History.advance`` asserts.  ``advance`` reads each
``log`` and ``incoming`` entry once, when a snapshot adds it, so checking
costs time linear in the trace's length.  It folds the per-route lists and
the wiring's initial amounts, main->lqt mints and lqt's allowances.  The
outgoing side (from ``log``) and the incoming side (from ``incoming``) stay
two independently kept records, compared pair by pair.  ``run_all_checks``
forks a ``Checker`` where traces share a prefix (the wiring, or the
order-free blocks of a replay), memoised on the last ``Snapshot`` of that
prefix (``Snapshot.checked``).
"""

from __future__ import annotations

import copy
import math
from fractions import Fraction
from typing import Optional

from . import cpmm, fa12, harness
from .address import Address
from .chain import Action, Call, ChainState, DeployedEvent, ExecOrder, Transfer, TxEvent, decoded
from .harness import CheckReport, Snapshot, Trace, Wiring
from .payload import Payload, Tag, as_addr, as_int, as_nat, rec_get

Route = tuple[Address, Address]  # (sender, target)
Allowances = dict[tuple[Address, Address], int]  # (owner, spender) -> value
# How far a record was read: (entries read, last entry read, record read).
Read = tuple[int, object, object]
NOTHING_READ: Read = (0, None, None)

KEPT_VIOLATIONS = 10  # messages a report keeps; ``CheckReport.count`` counts all


def _fail(report: CheckReport, msg: str) -> None:
    report.passed = False
    report.count += 1
    if len(report.violations) < KEPT_VIOLATIONS:
        report.violations.append(msg)


def _where(s: Snapshot) -> str:
    return f"block {s.block} step {s.step}"


def minted_and_burned(payload: Optional[Payload]) -> int:
    """The signed quantity of a mint_or_burn call payload, 0 otherwise."""
    if not isinstance(payload, Tag) or payload.name != "mint_or_burn":
        return 0
    v = as_int(rec_get(payload.arg, "quantity"))
    return v if v is not None else 0


# -- the folded history ------------------------------------------------------


class History:
    """One wiring's run as the checkers read it, folded one entry at a time.

    ``advance`` reads each ``log`` and ``incoming`` entry once and folds the
    per-route lists, plus the wiring's initial amounts (from main's and
    lqt's ``DeployedEvent``), the mint_or_burn quantities main sent lqt and
    lqt's allowances.  The states it advances to must be consecutive states
    of one run: each record extends the one read before, or ``advance``
    raises ``AssertionError`` (under ``python -O`` too).  It skips a record
    that is the very ``Records`` object it read last.
    """

    def __init__(self, w: Wiring) -> None:
        self.w = w
        self._log_read = NOTHING_READ
        self._incoming_read: dict[Address, Read] = {}
        # Executed transactions per (sender, target), from the log, and
        # executed calls per (sender, target), from ``incoming``.
        self.outgoing: dict[Route, list[TxEvent]] = {}
        self.incoming: dict[Route, list[TxEvent]] = {}
        self._matched: dict[Route, int] = {}  # common prefix of the two, per pair
        self.initial_main: Optional[int] = None  # main's setup ``lqtTotal_``, once deployed
        self.initial_lqt: Optional[int] = None  # lqt's setup ``initial_pool``, once deployed
        # Running mint_or_burn quantities main sent lqt, on each side.
        self.minted_out = self.minted_in = 0
        self.allowances: Allowances = {}  # lqt's, with its zero entries

    def fork(self) -> "History":
        """A copy that folds on independently."""
        other = copy.copy(self)
        other._incoming_read, other._matched = dict(self._incoming_read), dict(self._matched)
        other.outgoing = {k: list(v) for k, v in self.outgoing.items()}
        other.incoming = {k: list(v) for k, v in self.incoming.items()}
        other.allowances = dict(self.allowances)
        return other

    def advance(self, state: ChainState) -> "History":
        if not self._incoming_read.keys() <= state.incoming.keys():
            raise AssertionError("an incoming record is gone: states not of one run")
        main, lqt = self.w.main, self.w.lqt
        if state.log is not self._log_read[2]:
            new, self._log_read = _unread(state.log, self._log_read, "log")
            for ev in new:
                if isinstance(ev, TxEvent):
                    self.outgoing.setdefault((ev.sender, ev.to), []).append(ev)
                    if ev.sender == main and ev.to == lqt:
                        self.minted_out += minted_and_burned(ev.payload)
                elif isinstance(ev, DeployedEvent):
                    if ev.at == main:
                        self.initial_main = as_nat(rec_get(ev.setup, "lqtTotal_"))
                    if ev.at == lqt:
                        self.initial_lqt = as_nat(rec_get(ev.setup, "initial_pool"))
        for to, calls in state.incoming.items():
            read = self._incoming_read.get(to, NOTHING_READ)
            if calls is not read[2]:
                new, self._incoming_read[to] = _unread(calls, read, to)
                for tx in new:
                    self.incoming.setdefault((tx.sender, tx.to), []).append(tx)
                    if to == lqt:
                        _fold_allowance(self.allowances, tx)
                        if tx.sender == main:
                            self.minted_in += minted_and_burned(tx.payload)
        return self

    def agrees(self, a: Address, b: Address) -> bool:
        """Whether the calls b received from a equal, as ordered lists, the
        transactions a sent to b.  Only entries past the prefix already
        matched are compared."""
        inc = self.incoming.get((a, b), [])
        out = self.outgoing.get((a, b), [])
        k = self._matched.get((a, b), 0)
        while k < len(inc) and k < len(out) and inc[k] == out[k]:
            k += 1
        self._matched[(a, b)] = k
        return k == len(inc) == len(out)


def _unread(records, read: Read, name: object) -> tuple[list, Read]:
    """The entries of ``records`` past ``read``, and the read that covers them.
    ``records`` (``name`` in the refusal) must extend what was read."""
    n, last, _ = read
    if len(records) < n or (n and records[n - 1] is not last):
        raise AssertionError(f"record {name} does not extend the one read: states not of one run")
    new = records[n:]
    return new, (n + len(new), new[-1] if new else last, records)


def _fold_allowance(expected: Allowances, tx: TxEvent) -> None:
    p = tx.payload
    if not isinstance(p, Tag):
        return
    if p.name == "approve":
        spender = as_addr(rec_get(p.arg, "spender"))
        value = as_nat(rec_get(p.arg, "value"))
        if spender is not None and value is not None:
            expected[(tx.sender, spender)] = value
    elif p.name == "transfer":
        from_ = as_addr(rec_get(p.arg, "from"))
        value = as_nat(rec_get(p.arg, "value"))
        if from_ is not None and value is not None and from_ != tx.sender:
            expected[(from_, tx.sender)] = expected.get((from_, tx.sender), 0) - value


def _paired(h: History, ms: cpmm.CpmmState, ls: fa12.Fa12State, w: Wiring) -> bool:
    """Whether main and lqt name each other and their initial amounts agree."""
    assert h.initial_main is not None and h.initial_lqt is not None, f"{w} lacks an initial amount"
    return ms.lqtAddress == w.lqt and ls.admin == w.main and h.initial_main == h.initial_lqt


# -- incoming equals outgoing ------------------------------------------------


def check_incoming_outgoing_all(state: ChainState, history: History) -> CheckReport:
    """Executed calls received by b from a equal the executed transactions a
    sent to b, as ordered lists, for every sender a and every contract b.
    Pairs with no entry on either side agree trivially and are skipped."""
    report = CheckReport("incoming_outgoing", True, [])
    routes = history.outgoing.keys() | history.incoming.keys()
    for b, a in sorted((b, a) for a, b in routes if b in state.contracts):
        if not history.agrees(a, b):
            inc, out = history.incoming.get((a, b), []), history.outgoing.get((a, b), [])
            _fail(report, f"incoming({a}->{b}) != outgoing: {len(inc)} vs {len(out)} events")
    return report


# -- tez pool correct --------------------------------------------------------


def check_tez_pool(snapshot: Snapshot, ms: cpmm.CpmmState, main: Address,
                   queued: list[Action]) -> CheckReport:
    """xtzPool is main's balance less what main's ``queued`` actions send."""
    report = CheckReport("tez_pool", True, [])
    state = snapshot.state
    pending = sum(a.amount for a in queued)
    balance = state.balance(main)
    if ms.xtzPool != balance - pending:
        _fail(
            report,
            f"{_where(snapshot)}: xtzPool {ms.xtzPool} != balance {balance} - pending {pending}",
        )
    if snapshot.committed and ms.xtzPool != balance:
        _fail(report, f"{_where(snapshot)}: committed xtzPool {ms.xtzPool} != balance {balance}")
    return report


# -- No overdraft ------------------------------------------------------------


def check_no_overdraft(snapshot: Snapshot, main: Address) -> CheckReport:
    report = CheckReport("no_overdraft", True, [])
    a = snapshot.action
    if a is not None and a.sender == main and a.amount > snapshot.pre_sender_balance:
        _fail(
            report,
            f"{_where(snapshot)}: main emitted {a.amount} with balance {snapshot.pre_sender_balance}",
        )
    return report


# -- liquidity token condition -----------------------------------------------


def check_lqt_condition(ls: Optional[fa12.Fa12State], w: Wiring, history: History) -> CheckReport:
    report = CheckReport("lqt_condition", True, [])
    if ls is None:
        _fail(report, "undecodable lqt state")
        return report
    assert history.initial_lqt is not None, f"lqt {w.lqt} was deployed with no initial_pool"
    folded = history.initial_lqt + history.minted_in
    if ls.total_supply != folded:
        _fail(report, f"total_supply {ls.total_supply} != folded history {folded}")
    ledger_sum = sum(v for _, v in ls.tokens)
    if ledger_sum != ls.total_supply:
        _fail(report, f"ledger sum {ledger_sum} != total_supply {ls.total_supply}")
    return report


# -- main contract liquidity counter -----------------------------------------


def check_main_counter(
    snapshot: Snapshot, ms: cpmm.CpmmState, w: Wiring, history: History, queued: list[Action]
) -> CheckReport:
    """lqtTotal is main's initial amount plus every mint_or_burn sent to lqt."""
    report = CheckReport("main_counter", True, [])
    assert history.initial_main is not None, f"main {w.main} was deployed with no lqtTotal_"
    pending = sum(minted_and_burned(getattr(a.body, "payload", None)) for a in queued)
    expected = history.initial_main + history.minted_out + pending
    if ms.lqtTotal != expected:
        _fail(report, f"{_where(snapshot)}: lqtTotal {ms.lqtTotal} != {expected}")
    return report


# -- liquidity supply correct ------------------------------------------------


def check_lqt_supply(
    ms: cpmm.CpmmState, ls: Optional[fa12.Fa12State], w: Wiring, history: History,
    queued: list[Action],
) -> CheckReport:
    """Direct form: with no pending main->lqt actions (``queued``) and
    correct pairing, the two counters agree."""
    report = CheckReport("lqt_supply_direct", True, [])
    if ls is None:
        _fail(report, "undecodable state")
    elif _paired(history, ms, ls, w) and not queued and ms.lqtTotal != ls.total_supply:
        _fail(report, f"lqtTotal {ms.lqtTotal} != total_supply {ls.total_supply}")
    return report


def check_lqt_supply_composed(
    snapshot: Snapshot, ms: cpmm.CpmmState, ls: Optional[fa12.Fa12State], w: Wiring,
    history: History, queued: list[Action],
    main_counter: CheckReport, lqt_condition: Optional[CheckReport] = None,
) -> CheckReport:
    """Counter-equality derived from its decomposition: the main-counter
    invariant, the liquidity token condition, and incoming = outgoing.
    Never fails where the direct check passes.  ``main_counter`` and
    ``lqt_condition`` are those checks' reports on this snapshot; the latter
    is None on an uncommitted one, and then checked here if needed."""
    report = CheckReport("lqt_supply_composed", True, [])
    if ls is None:
        _fail(report, f"{_where(snapshot)}: undecodable state")
        return report
    if not _paired(history, ms, ls, w) or queued:
        return report
    premises = (
        main_counter.passed
        and (lqt_condition or check_lqt_condition(ls, w, history)).passed
        and history.agrees(w.main, w.lqt)
    )
    if premises and ms.lqtTotal != ls.total_supply:
        _fail(
            report,
            f"{_where(snapshot)}: premises hold but lqtTotal {ms.lqtTotal}"
            f" != total_supply {ls.total_supply}",
        )
    return report


# -- Constant product --------------------------------------------------------

TRADE_TAGS = ("xtz_to_token", "token_to_xtz", "token_to_token")
DONATION = Tag("default")


def _dexter_msg(action: Optional[Action], main: Address) -> Optional[Tag]:
    """The unwrapped entrypoint message of an executed call to main; a plain
    transfer to main is ``default``."""
    body = action.body if action is not None else None
    if isinstance(body, Transfer) and body.to == main:
        return DONATION
    if isinstance(body, Call) and body.to == main:
        p = body.payload
        if isinstance(p, Tag) and p.name == "other_msg" and isinstance(p.arg, Tag):
            return p.arg
    return None


def check_constant_product(
    pre: cpmm.CpmmState, post: cpmm.CpmmState, msg: Optional[Tag], snapshot: Snapshot
) -> CheckReport:
    report = CheckReport("constant_product", True, [])
    traded = msg is not None and msg.name in TRADE_TAGS
    if traded and post.tokenPool * post.xtzPool < pre.tokenPool * pre.xtzPool:
        _fail(
            report,
            f"{_where(snapshot)}: k decreased on {msg.name}:"
            f" {pre.tokenPool}*{pre.xtzPool} -> {post.tokenPool}*{post.xtzPool}",
        )
    return report


# -- Entrypoint arithmetic oracle -------------------------------------------


def _oracle_trade(amount_in: int, pool_in: int, pool_out: int) -> Optional[int]:
    den = pool_in * 1000 + amount_in * 997
    if den == 0:
        return None
    return math.floor(Fraction(amount_in * 997 * pool_out, den))


def check_entrypoint_arith(
    pre: cpmm.CpmmState, post: cpmm.CpmmState, msg: Optional[Tag], snapshot: Snapshot
) -> CheckReport:
    """Recompute every trade and liquidity formula with exact rationals and
    compare with the state transition the contract actually performed,
    including the slippage guards."""
    report = CheckReport("entrypoint_arith", True, [])
    if msg is None:
        return report
    where, arg, amount = _where(snapshot), msg.arg, snapshot.action.amount
    if msg.name == "default":
        if post.xtzPool != pre.xtzPool + amount:
            _fail(report, f"{where}: donation of {amount} not credited to xtzPool")
    elif msg.name == "xtz_to_token":
        bought = _oracle_trade(amount, pre.xtzPool, pre.tokenPool)
        min_bought = as_nat(rec_get(arg, "minTokensBought"))
        if bought is None or min_bought is None:
            _fail(report, f"{where}: xtz_to_token committed on undefined input")
            return report
        if bought < min_bought:
            _fail(report, f"{where}: bought {bought} below minTokensBought {min_bought}")
        if (post.xtzPool, post.tokenPool) != (pre.xtzPool + amount, pre.tokenPool - bought):
            _fail(report, f"{where}: xtz_to_token pools moved off-oracle")
    elif msg.name in ("token_to_xtz", "token_to_token"):
        sold = as_nat(rec_get(arg, "tokensSold"))
        if sold is None:
            return report
        bought = _oracle_trade(sold, pre.tokenPool, pre.xtzPool)
        if bought is None:
            _fail(report, f"{where}: {msg.name} committed on undefined input")
            return report
        if msg.name == "token_to_xtz":
            min_bought = as_nat(rec_get(arg, "minXtzBought"))
            if min_bought is not None and bought < min_bought:
                _fail(report, f"{where}: bought {bought} below minXtzBought {min_bought}")
        if (post.tokenPool, post.xtzPool) != (pre.tokenPool + sold, pre.xtzPool - bought):
            _fail(report, f"{where}: {msg.name} pools moved off-oracle")
    elif msg.name == "add_liquidity":
        if pre.xtzPool == 0:
            _fail(report, f"{where}: add_liquidity committed with empty xtz pool")
            return report
        minted = math.floor(Fraction(amount * pre.lqtTotal, pre.xtzPool))
        deposited = math.ceil(Fraction(amount * pre.tokenPool, pre.xtzPool))
        expected = (pre.xtzPool + amount, pre.tokenPool + deposited, pre.lqtTotal + minted)
        actual = (post.xtzPool, post.tokenPool, post.lqtTotal)
        if actual != expected:
            _fail(report, f"{where}: add_liquidity moved to {actual}, oracle says {expected}")
        max_dep = as_nat(rec_get(arg, "maxTokensDeposited"))
        min_minted = as_nat(rec_get(arg, "minLqtMinted"))
        if max_dep is not None and deposited > max_dep:
            _fail(report, f"{where}: deposited {deposited} above max {max_dep}")
        if min_minted is not None and minted < min_minted:
            _fail(report, f"{where}: minted {minted} below min {min_minted}")
    elif msg.name == "remove_liquidity":
        burned = as_nat(rec_get(arg, "lqtBurned"))
        if burned is None or pre.lqtTotal == 0:
            _fail(report, f"{where}: remove_liquidity committed on undefined input")
            return report
        xtz_out = math.floor(Fraction(burned * pre.xtzPool, pre.lqtTotal))
        tokens_out = math.floor(Fraction(burned * pre.tokenPool, pre.lqtTotal))
        expected = (pre.xtzPool - xtz_out, pre.tokenPool - tokens_out, pre.lqtTotal - burned)
        actual = (post.xtzPool, post.tokenPool, post.lqtTotal)
        if actual != expected:
            _fail(report, f"{where}: remove_liquidity moved to {actual}, oracle says {expected}")
    return report


# -- Share value (pro-pool rounding) ----------------------------------------


def check_share_value(
    pre: cpmm.CpmmState, post: cpmm.CpmmState, msg: Optional[Tag], snapshot: Snapshot
) -> CheckReport:
    """The pool value per liquidity share never decreases on deposits and
    withdrawals: x'*t'*l^2 >= x*t*l'^2."""
    report = CheckReport("share_value", True, [])
    if msg is None or msg.name not in ("add_liquidity", "remove_liquidity"):
        return report
    lhs = post.xtzPool * post.tokenPool * pre.lqtTotal**2
    rhs = pre.xtzPool * pre.tokenPool * post.lqtTotal**2
    if lhs < rhs:
        _fail(report, f"{_where(snapshot)}: share value decreased on {msg.name}")
    return report


# -- FA1.2 allowance ledger --------------------------------------------------


def check_allowance_ledger(ls: Optional[fa12.Fa12State], history: History) -> CheckReport:
    """Compare lqt's allowance map, refolded from its incoming calls, with
    its actual state."""
    report = CheckReport("allowance_ledger", True, [])
    if ls is None:
        _fail(report, "undecodable lqt state")
        return report
    expected = {k: v for k, v in history.allowances.items() if v != 0}
    actual = dict(ls.allowances)
    if expected != actual:
        _fail(report, f"allowances {actual} != refolded history {expected}")
    return report


# -- whole-trace driver ------------------------------------------------------


class Checker:
    """A trace's checking state: its ``History`` and main's cpmm state before
    the next action (``pre_cpmm``, the last step's)."""

    def __init__(self, w: Wiring) -> None:
        self.w = w
        self.history = History(w)
        self.pre_cpmm: Optional[cpmm.CpmmState] = None  # None until main is deployed

    def fork(self) -> "Checker":
        other = copy.copy(self)
        other.history = self.history.fork()
        return other

    def step(self, snap: Snapshot) -> list[CheckReport]:
        """Every checker on ``snap``, the snapshot after the last one stepped.
        Main's and lqt's states are decoded here once each.  A wiring's main
        is a cpmm contract, so a deployed main always decodes; lqt may not."""
        w, state, history = self.w, snap.state, self.history.advance(snap.state)
        reports: list[CheckReport] = []
        main_up, lqt_up = w.main in state.states, w.lqt in state.states
        ms = decoded(state.states[w.main], cpmm.decode_state) if main_up else None
        assert ms is not None or not main_up, f"main {w.main} holds no cpmm state"
        ls = decoded(state.states[w.lqt], fa12.decode_state) if lqt_up else None
        if main_up:
            queued = state.outgoing_acts(w.main)
            reports.append(check_tez_pool(snap, ms, w.main, queued))
        reports.append(check_no_overdraft(snap, w.main))
        condition = check_lqt_condition(ls, w, history) if snap.committed and lqt_up else None
        if main_up and lqt_up:
            to_lqt = [a for a in queued if getattr(a.body, "to", None) == w.lqt]
            counter = check_main_counter(snap, ms, w, history, to_lqt)
            reports.append(counter)
            reports.append(
                check_lqt_supply_composed(snap, ms, ls, w, history, to_lqt, counter, condition)
            )
            if self.pre_cpmm is not None and not snap.committed:
                msg = _dexter_msg(snap.action, w.main)
                reports.append(check_constant_product(self.pre_cpmm, ms, msg, snap))
                reports.append(check_entrypoint_arith(self.pre_cpmm, ms, msg, snap))
                reports.append(check_share_value(self.pre_cpmm, ms, msg, snap))
        if snap.committed:
            reports.append(check_incoming_outgoing_all(state, history))
            if condition is not None:
                reports.append(condition)
                reports.append(check_allowance_ledger(ls, history))
                if main_up:
                    reports.append(check_lqt_supply(ms, ls, w, history, to_lqt))
            if state.queue:
                reports.append(
                    CheckReport("queue_empty", False, [f"block {snap.block}: non-empty queue"], 1)
                )
        self.pre_cpmm = ms
        return reports


def run_checks_for(w: Wiring, snapshots: list[Snapshot],
                   checker: Optional[Checker] = None) -> list[CheckReport]:
    """Every checker on every snapshot, stepping ``checker`` on from the
    snapshot before them, or a fresh one from the start."""
    checker = Checker(w) if checker is None else checker
    return [r for snap in snapshots for r in checker.step(snap)]


def run_all_checks(trace: Trace) -> list[CheckReport]:
    """``run_checks_for`` forked where the trace shares a prefix: the wiring
    (with every trace of its key) or its order-free blocks (with its replay).
    The last snapshot of each such prefix keeps, in ``checked``, the wiring, a
    checker stepped up to it and the reports so far; a trace of another wiring
    never uses them.  Sound as every checker is pure in (snapshot,
    ``History``); never change a report."""
    w, snaps = trace.wiring, trace.snapshots
    cuts = sorted({n for n in (*trace.shared, trace.free.snapshots) if 0 < n <= len(snaps)})
    checker, reports, done = Checker(w), [], 0
    for n in reversed(cuts):
        memo = snaps[n - 1].checked
        if memo is not None and memo[0] == w:
            checker, reports, done = memo[1].fork(), list(memo[2]), n
            break
    for n in (c for c in cuts if c > done):
        reports += run_checks_for(w, snaps[done:n], checker)
        snaps[n - 1].checked, done = (w, checker.fork(), list(reports)), n
    return reports + run_checks_for(w, snaps[done:], checker)


def summarize(reports: list[CheckReport]) -> dict[str, CheckReport]:
    out: dict[str, CheckReport] = {}
    for r in reports:
        m = out.setdefault(r.name, CheckReport(r.name, True, []))
        m.passed = m.passed and r.passed
        m.count += r.count
        m.violations.extend(r.violations[: KEPT_VIOLATIONS - len(m.violations)])
    return out


def check_order_robustness(trace: Trace) -> tuple[Trace, list[CheckReport]]:
    """Replay the trace's root actions under the opposite execution order,
    going on from its order-free blocks, and check all invariants there too."""
    dfs, bfs = ExecOrder.DEPTH_FIRST, ExecOrder.BREADTH_FIRST
    other = bfs if trace.config.order is dfs else dfs
    replayed = harness.replay_trace(trace, other)
    return replayed, run_all_checks(replayed)
