"""Executable checkers for the exchange's safety properties.

``Checker.step`` reads each snapshot once: it takes main's ``CpmmState``
and lqt's ``Fa12State`` as the chain holds them, unwraps the action's
message to main, and hands the checks those states with their premises: the
``History``, main's queued actions (read once) and the premise reports
already made on the snapshot.  Each check is a pure predicate over them and
reports violations with enough context to replay them; a check whose
verdict the step fixes in advance is not called, and its passing report is
appended instead.  The arithmetic oracles deliberately avoid the integer
operators the contracts use: expected amounts are recomputed with exact
rationals and floored/ceiled independently, so a checker and the code it
checks never share a bug.

``run_checks_for`` steps a ``Checker`` over a trace, the consecutive states
of one run, which ``History.advance`` asserts: it keeps the records it read
last, and each state's records must extend those node by node
(``Records.since``), so a record rebuilt apart from them, even of the same
entry objects, is refused.  ``advance`` reads each
``log`` and ``incoming`` entry once, when a snapshot adds it, so checking
costs time linear in the trace's length.  It folds the per-route lists and
the wiring's initial amounts, main->lqt mints and lqt's allowances.  The
outgoing side (from ``log``) and the incoming side (from ``incoming``) stay
two independently kept records, compared pair by pair; ``advance`` marks
the routes to contracts that gained an entry (``incoming`` records no call
to a user), and incoming = outgoing compares only those again
(``History.disagreeing``).  A check returns an immutable
``CheckReport`` built by ``_report`` from the messages it collected: when
there are none, the one passing report of its name, so a check that passes
allocates no report and a trace's reports hold one object per failure, not
per check run.  ``summarize`` merges reports into new ones.  ``run_all_checks``
forks a ``Checker`` where traces share a prefix (the wiring, or the
order-free blocks of a replay), memoised on the last ``Snapshot`` of that
prefix (``Snapshot.checked``).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

from . import cpmm, fa12, harness
from .address import Address
from .chain import Action, Call, ChainState, DeployedEvent, ExecOrder, Records, Transfer, TxEvent
from .harness import CheckReport, Snapshot, Trace, Wiring
from .payload import Payload, Tag, as_addr, as_int, as_nat, rec_get

Route = tuple[Address, Address]  # (sender, target)
Allowances = dict[tuple[Address, Address], int]  # (owner, spender) -> value

KEPT_VIOLATIONS = 10  # messages a report keeps; ``CheckReport.count`` counts all


# The one passing report per check name, made on first use; reports are immutable.
_PASSED: dict[str, CheckReport] = {}


def _report(name: str, messages: list[str]) -> CheckReport:
    """Check ``name``'s report on its violation ``messages``: when there are
    none, the one passing report of that name."""
    if not messages:
        return _PASSED.get(name) or _PASSED.setdefault(name, CheckReport(name, True, ()))
    return CheckReport(name, False, tuple(messages[:KEPT_VIOLATIONS]), len(messages))


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
    of one run: each record extends the one read before node by node, or
    ``advance`` raises ``AssertionError`` (under ``python -O`` too).
    """

    def __init__(self, w: Wiring) -> None:
        self.w = w
        self._log = self._incoming = Records()  # the records read last
        # Executed transactions per (sender, target), from the log, and
        # executed calls per (sender, target), from ``incoming``.
        self.outgoing: dict[Route, list[TxEvent]] = {}
        self.incoming: dict[Route, list[TxEvent]] = {}
        self._matched: dict[Route, int] = {}  # common prefix of the two, per pair
        self._touched: set[Route] = set()  # routes given an entry since ``disagreeing``
        self._disagreeing: set[Route] = set()  # routes that disagreed then
        self.initial_main: Optional[int] = None  # main's setup ``lqtTotal_``, once deployed
        self.initial_lqt: Optional[int] = None  # lqt's setup ``initial_pool``, once deployed
        # Running mint_or_burn quantities main sent lqt, on each side.
        self.minted_out = self.minted_in = 0
        self.allowances: Allowances = {}  # lqt's, with its zero entries

    def fork(self) -> "History":
        """A copy that folds on independently."""
        other = object.__new__(type(self))
        other.__dict__.update(self.__dict__)
        other._matched = dict(self._matched)
        other._touched, other._disagreeing = set(self._touched), set(self._disagreeing)
        other.outgoing = {k: list(v) for k, v in self.outgoing.items()}
        other.incoming = {k: list(v) for k, v in self.incoming.items()}
        other.allowances = dict(self.allowances)
        return other

    def advance(self, state: ChainState) -> "History":
        main, lqt, touched = self.w.main, self.w.lqt, self._touched
        new, self._log = _unread(state.log, self._log, "log"), state.log
        for ev in new:
            if isinstance(ev, TxEvent):
                route = (ev.sender, ev.to)
                self.outgoing.setdefault(route, []).append(ev)
                if ev.to.is_contract:  # ``incoming`` holds no call to a user: never agrees
                    touched.add(route)
                if ev.sender == main and ev.to == lqt:
                    self.minted_out += minted_and_burned(ev.payload)
            elif isinstance(ev, DeployedEvent):
                if ev.at == main:
                    self.initial_main = as_nat(rec_get(ev.setup, "lqtTotal_"))
                if ev.at == lqt:
                    self.initial_lqt = as_nat(rec_get(ev.setup, "initial_pool"))
        new, self._incoming = _unread(state.incoming, self._incoming, "incoming"), state.incoming
        for tx in new:
            route = (tx.sender, tx.to)
            self.incoming.setdefault(route, []).append(tx)
            touched.add(route)
            if tx.to == lqt:
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

    def disagreeing(self) -> set[Route]:
        """The routes (a, b) that do not agree (see ``agrees``).  Only routes
        given an entry since the last call are compared again: a route
        leaves the set when its shorter side catches up."""
        for route in self._touched:
            if self.agrees(*route):
                self._disagreeing.discard(route)
            else:
                self._disagreeing.add(route)
        self._touched.clear()
        return self._disagreeing


def _unread(records: Records, read: Records, name: str) -> list:
    """The entries of ``records`` past ``read``, the record read last, which
    ``records`` (``name`` in the refusal) must extend node by node."""
    new = records.since(read)
    if new is None:
        raise AssertionError(f"record {name} does not extend the one read: states not of one run")
    return new


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
    disagreeing, bad = history.disagreeing(), []
    if not disagreeing:
        return _report("incoming_outgoing", bad)
    for b, a in sorted((b, a) for a, b in disagreeing if b in state.contracts):
        inc, out = history.incoming.get((a, b), []), history.outgoing.get((a, b), [])
        bad.append(f"incoming({a}->{b}) != outgoing: {len(inc)} vs {len(out)} events")
    return _report("incoming_outgoing", bad)


# -- tez pool correct --------------------------------------------------------


def check_tez_pool(snapshot: Snapshot, ms: cpmm.CpmmState, main: Address,
                   queued: list[Action]) -> CheckReport:
    """xtzPool is main's balance less what main's ``queued`` actions send."""
    bad: list[str] = []
    state = snapshot.state
    pending = sum(a.amount for a in queued) if queued else 0
    balance = state.balance(main)
    if ms.xtzPool != balance - pending:
        bad.append(
            f"{_where(snapshot)}: xtzPool {ms.xtzPool} != balance {balance} - pending {pending}"
        )
    if snapshot.committed and ms.xtzPool != balance:
        bad.append(f"{_where(snapshot)}: committed xtzPool {ms.xtzPool} != balance {balance}")
    return _report("tez_pool", bad)


# -- No overdraft ------------------------------------------------------------


def check_no_overdraft(snapshot: Snapshot, main: Address) -> CheckReport:
    bad: list[str] = []
    a = snapshot.action
    if a is not None and a.sender == main and a.amount > snapshot.pre_sender_balance:
        bad.append(
            f"{_where(snapshot)}: main emitted {a.amount} with balance {snapshot.pre_sender_balance}"
        )
    return _report("no_overdraft", bad)


# -- liquidity token condition -----------------------------------------------


def check_lqt_condition(ls: Optional[fa12.Fa12State], w: Wiring, history: History) -> CheckReport:
    if ls is None:
        return _report("lqt_condition", ["undecodable lqt state"])
    bad: list[str] = []
    assert history.initial_lqt is not None, f"lqt {w.lqt} was deployed with no initial_pool"
    folded = history.initial_lqt + history.minted_in
    if ls.total_supply != folded:
        bad.append(f"total_supply {ls.total_supply} != folded history {folded}")
    ledger_sum = sum(v for _, v in ls.tokens)
    if ledger_sum != ls.total_supply:
        bad.append(f"ledger sum {ledger_sum} != total_supply {ls.total_supply}")
    return _report("lqt_condition", bad)


# -- main contract liquidity counter -----------------------------------------


def check_main_counter(
    snapshot: Snapshot, ms: cpmm.CpmmState, w: Wiring, history: History, queued: list[Action]
) -> CheckReport:
    """lqtTotal is main's initial amount plus every mint_or_burn sent to lqt."""
    bad: list[str] = []
    assert history.initial_main is not None, f"main {w.main} was deployed with no lqtTotal_"
    pending = sum(minted_and_burned(getattr(a.body, "payload", None))
                  for a in queued) if queued else 0
    expected = history.initial_main + history.minted_out + pending
    if ms.lqtTotal != expected:
        bad.append(f"{_where(snapshot)}: lqtTotal {ms.lqtTotal} != {expected}")
    return _report("main_counter", bad)


# -- liquidity supply correct ------------------------------------------------


def check_lqt_supply(
    ms: cpmm.CpmmState, ls: Optional[fa12.Fa12State], w: Wiring, history: History,
    queued: list[Action],
) -> CheckReport:
    """Direct form: with no pending main->lqt actions (``queued``) and
    correct pairing, the two counters agree."""
    bad: list[str] = []
    if ls is None:
        bad.append("undecodable state")
    elif _paired(history, ms, ls, w) and not queued and ms.lqtTotal != ls.total_supply:
        bad.append(f"lqtTotal {ms.lqtTotal} != total_supply {ls.total_supply}")
    return _report("lqt_supply_direct", bad)


def check_lqt_supply_composed(
    snapshot: Snapshot, ms: cpmm.CpmmState, ls: Optional[fa12.Fa12State], w: Wiring,
    history: History, queued: list[Action],
    main_counter: CheckReport, lqt_condition: Optional[CheckReport] = None,
) -> CheckReport:
    """Counter-equality derived from its decomposition: the main-counter
    invariant, the liquidity token condition, and incoming = outgoing.
    Never fails where the direct check passes.  ``main_counter`` and
    ``lqt_condition`` are those checks' reports on this snapshot; the latter
    is None on an uncommitted one, and then checked here if needed.  The
    premises are read only where the counters differ."""
    if ls is None:
        return _report("lqt_supply_composed", [f"{_where(snapshot)}: undecodable state"])
    bad: list[str] = []
    if (ms.lqtTotal != ls.total_supply and not queued and _paired(history, ms, ls, w)
            and main_counter.passed
            and (lqt_condition or check_lqt_condition(ls, w, history)).passed
            and history.agrees(w.main, w.lqt)):
        bad.append(f"{_where(snapshot)}: premises hold but lqtTotal {ms.lqtTotal}"
                   f" != total_supply {ls.total_supply}")
    return _report("lqt_supply_composed", bad)


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
    bad: list[str] = []
    traded = msg is not None and msg.name in TRADE_TAGS
    if traded and post.tokenPool * post.xtzPool < pre.tokenPool * pre.xtzPool:
        bad.append(
            f"{_where(snapshot)}: k decreased on {msg.name}:"
            f" {pre.tokenPool}*{pre.xtzPool} -> {post.tokenPool}*{post.xtzPool}"
        )
    return _report("constant_product", bad)


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
    bad: list[str] = []
    if msg is None:
        return _report("entrypoint_arith", bad)
    where, arg, amount = _where(snapshot), msg.arg, snapshot.action.amount
    if msg.name == "default":
        if post.xtzPool != pre.xtzPool + amount:
            bad.append(f"{where}: donation of {amount} not credited to xtzPool")
    elif msg.name == "xtz_to_token":
        bought = _oracle_trade(amount, pre.xtzPool, pre.tokenPool)
        min_bought = as_nat(rec_get(arg, "minTokensBought"))
        if bought is None or min_bought is None:
            bad.append(f"{where}: xtz_to_token committed on undefined input")
            return _report("entrypoint_arith", bad)
        if bought < min_bought:
            bad.append(f"{where}: bought {bought} below minTokensBought {min_bought}")
        if (post.xtzPool, post.tokenPool) != (pre.xtzPool + amount, pre.tokenPool - bought):
            bad.append(f"{where}: xtz_to_token pools moved off-oracle")
    elif msg.name in ("token_to_xtz", "token_to_token"):
        sold = as_nat(rec_get(arg, "tokensSold"))
        if sold is None:
            return _report("entrypoint_arith", bad)
        bought = _oracle_trade(sold, pre.tokenPool, pre.xtzPool)
        if bought is None:
            bad.append(f"{where}: {msg.name} committed on undefined input")
            return _report("entrypoint_arith", bad)
        if msg.name == "token_to_xtz":
            min_bought = as_nat(rec_get(arg, "minXtzBought"))
            if min_bought is not None and bought < min_bought:
                bad.append(f"{where}: bought {bought} below minXtzBought {min_bought}")
        if (post.tokenPool, post.xtzPool) != (pre.tokenPool + sold, pre.xtzPool - bought):
            bad.append(f"{where}: {msg.name} pools moved off-oracle")
    elif msg.name == "add_liquidity":
        if pre.xtzPool == 0:
            bad.append(f"{where}: add_liquidity committed with empty xtz pool")
            return _report("entrypoint_arith", bad)
        minted = math.floor(Fraction(amount * pre.lqtTotal, pre.xtzPool))
        deposited = math.ceil(Fraction(amount * pre.tokenPool, pre.xtzPool))
        expected = (pre.xtzPool + amount, pre.tokenPool + deposited, pre.lqtTotal + minted)
        actual = (post.xtzPool, post.tokenPool, post.lqtTotal)
        if actual != expected:
            bad.append(f"{where}: add_liquidity moved to {actual}, oracle says {expected}")
        max_dep = as_nat(rec_get(arg, "maxTokensDeposited"))
        min_minted = as_nat(rec_get(arg, "minLqtMinted"))
        if max_dep is not None and deposited > max_dep:
            bad.append(f"{where}: deposited {deposited} above max {max_dep}")
        if min_minted is not None and minted < min_minted:
            bad.append(f"{where}: minted {minted} below min {min_minted}")
    elif msg.name == "remove_liquidity":
        burned = as_nat(rec_get(arg, "lqtBurned"))
        if burned is None or pre.lqtTotal == 0:
            bad.append(f"{where}: remove_liquidity committed on undefined input")
            return _report("entrypoint_arith", bad)
        xtz_out = math.floor(Fraction(burned * pre.xtzPool, pre.lqtTotal))
        tokens_out = math.floor(Fraction(burned * pre.tokenPool, pre.lqtTotal))
        expected = (pre.xtzPool - xtz_out, pre.tokenPool - tokens_out, pre.lqtTotal - burned)
        actual = (post.xtzPool, post.tokenPool, post.lqtTotal)
        if actual != expected:
            bad.append(f"{where}: remove_liquidity moved to {actual}, oracle says {expected}")
    return _report("entrypoint_arith", bad)


# -- Share value (pro-pool rounding) ----------------------------------------


def check_share_value(
    pre: cpmm.CpmmState, post: cpmm.CpmmState, msg: Optional[Tag], snapshot: Snapshot
) -> CheckReport:
    """The pool value per liquidity share never decreases on deposits and
    withdrawals: x'*t'*l^2 >= x*t*l'^2."""
    bad: list[str] = []
    if msg is None or msg.name not in ("add_liquidity", "remove_liquidity"):
        return _report("share_value", bad)
    lhs = post.xtzPool * post.tokenPool * pre.lqtTotal**2
    rhs = pre.xtzPool * pre.tokenPool * post.lqtTotal**2
    if lhs < rhs:
        bad.append(f"{_where(snapshot)}: share value decreased on {msg.name}")
    return _report("share_value", bad)


# -- FA1.2 allowance ledger --------------------------------------------------


def check_allowance_ledger(ls: Optional[fa12.Fa12State], history: History) -> CheckReport:
    """Compare lqt's allowance map, refolded from its incoming calls, with
    its actual state."""
    if ls is None:
        return _report("allowance_ledger", ["undecodable lqt state"])
    bad: list[str] = []
    expected = {k: v for k, v in history.allowances.items() if v != 0}
    actual = dict(ls.allowances)
    if expected != actual:
        bad.append(f"allowances {actual} != refolded history {expected}")
    return _report("allowance_ledger", bad)


# -- whole-trace driver ------------------------------------------------------


class Checker:
    """A trace's checking state: its ``History`` and main's cpmm state before
    the next action (``pre_cpmm``, the last step's)."""

    def __init__(self, w: Wiring) -> None:
        self.w = w
        self.history = History(w)
        self.pre_cpmm: Optional[cpmm.CpmmState] = None  # None until main is deployed

    def fork(self) -> "Checker":
        other = object.__new__(Checker)
        other.w, other.history, other.pre_cpmm = self.w, self.history.fork(), self.pre_cpmm
        return other

    def step(self, snap: Snapshot) -> list[CheckReport]:
        """Every checker on ``snap``, the snapshot after the last one stepped.
        A wiring's main is a cpmm contract, so a deployed main holds a
        ``CpmmState``; lqt may hold another contract's state, which its checks
        report undecodable.  With no message to main the three transition
        checks pass, and with no action sent by main so does ``no_overdraft``:
        neither is called then."""
        w, state, history = self.w, snap.state, self.history.advance(snap.state)
        main, action, states = w.main, snap.action, state.states
        reports: list[CheckReport] = []
        main_up, lqt_up = main in states, w.lqt in states
        ms, ls = states.get(main), states.get(w.lqt)
        if main_up and not isinstance(ms, cpmm.CpmmState):
            raise AssertionError(f"main {main} holds no cpmm state")  # also under ``python -O``
        if not isinstance(ls, fa12.Fa12State):
            ls = None
        queued = to_lqt = ()  # main's queued actions, read only from a non-empty queue
        if main_up:
            if state.queue:
                queued = [a for a in state.queue if a.sender == main]
                to_lqt = [a for a in queued if getattr(a.body, "to", None) == w.lqt]
            reports.append(check_tez_pool(snap, ms, main, queued))
        reports.append(check_no_overdraft(snap, main)
                       if action is not None and action.sender == main else _NO_OVERDRAFT)
        condition = check_lqt_condition(ls, w, history) if snap.committed and lqt_up else None
        if main_up and lqt_up:
            counter = check_main_counter(snap, ms, w, history, to_lqt)
            reports.append(counter)
            reports.append(
                check_lqt_supply_composed(snap, ms, ls, w, history, to_lqt, counter, condition)
            )
            if self.pre_cpmm is not None and not snap.committed:
                msg = _dexter_msg(action, main)
                if msg is None:
                    reports += _NO_TRANSITION
                else:
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
                reports.append(_report("queue_empty", [f"block {snap.block}: non-empty queue"]))
        self.pre_cpmm = ms
        return reports


# The passing reports of the checks ``Checker.step`` skips.
_NO_OVERDRAFT = _report("no_overdraft", [])
_NO_TRANSITION = [_report(n, []) for n in ("constant_product", "entrypoint_arith", "share_value")]


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
    """One report per check name: passed where every one passed, the counts
    summed and the first ``KEPT_VIOLATIONS`` messages.  Builds new reports;
    a name's report is its shared passing one while nothing failed."""
    out: dict[str, CheckReport] = {}
    for r in reports:
        m = out.get(r.name) or _report(r.name, [])
        if not r.passed or r.count or r.violations:
            m = CheckReport(r.name, m.passed and r.passed,
                            (*m.violations, *r.violations)[:KEPT_VIOLATIONS], m.count + r.count)
        out[r.name] = m
    return out


def check_order_robustness(trace: Trace) -> tuple[Trace, list[CheckReport]]:
    """Replay the trace's root actions under the opposite execution order,
    going on from its order-free blocks, and check all invariants there too."""
    dfs, bfs = ExecOrder.DEPTH_FIRST, ExecOrder.BREADTH_FIRST
    other = bfs if trace.config.order is dfs else dfs
    replayed = harness.replay_trace(trace, other)
    return replayed, run_all_checks(replayed)
