"""Block execution (``Run``), the exchange wiring and the trace generator.

``Run`` executes every block of wiring, fuzzing, replay and scenarios, and
records the per-action snapshots and the rejected blocks.  ``wire_exchange``
deploys and pairs the FA2 token, the exchange, its liquidity token and a
callback sink.  The wiring is order-free (see ``Run``), so it runs once per
key (what the wiring reads, not the seed or the order), in a memo of one
run, and each trace of either order gets a fork of it.  ``gen_trace`` then
draws random blocks against that wiring from one table of action kinds,
``_KINDS``: each kind's default weight and its draw, a small function of the
rng, the state, the wiring and the acting user.
``replay_trace`` re-executes such blocks under another order.  It goes on
from the trace's leading order-free blocks (``_fork``, the way every run
goes on from shared work), and past them takes each order-free block whose
pre-state agrees with the trace's from the trace (``Run.take``) instead of
running it.  The checkers run over these traces live in ``checks``.

Failed candidate blocks are part of the campaign on purpose: they
exercise block-atomic rollback.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field, replace
from itertools import accumulate
from typing import Callable, Optional

from . import cpmm, fa2, fa12
from .address import Address, contract, user
from .chain import (
    Action,
    BlockError,
    Call,
    ChainState,
    ContractRef,
    Deploy,
    ExecOrder,
    Transfer,
    add_block,
    empty_chain,
)
from .payload import (
    Payload,
    Tag,
    UNIT,
    addr,
    nat,
    record,
    wrap_receiver,
)

# -- auxiliary sink contract -------------------------------------------------


def make_sink_contract() -> ContractRef:
    """Accepts any message and does nothing; the target for view callbacks."""

    def init(chain, ctx, setup):
        return UNIT

    def receive(chain, ctx, state, msg):
        return state, []

    return ContractRef(name="sink", init=init, receive=receive)


# -- configuration and results ----------------------------------------------

# What the wiring gives each user and the exchange; the most one fuzzed trade moves.
USER_TEZ = 10**9
USER_TOKENS = 10**9
LIQUIDITY = 1000
TOKEN_POOL = 10**6
XTZ_POOL = 10**6
MAX_TRADE_XTZ = 10**5
MAX_TRADE_TOKENS = 10**5


@dataclass(frozen=True, slots=True)
class ScenarioConfig:
    seed: int = 0
    blocks: int = 10
    users: int = 4
    order: ExecOrder = ExecOrder.DEPTH_FIRST
    weights: dict[str, float] = field(default_factory=dict)
    mutation: Optional[str] = None  # a name in ``cpmm.MUTATIONS`` or ``fa12.MUTATIONS``

    def __post_init__(self) -> None:
        if self.users < 1 or self.blocks < 0:
            raise ValueError(f"need users >= 1, blocks >= 0; got {self.users}, {self.blocks}")
        if not self.weights.keys() <= _KINDS.keys():
            raise ValueError(f"unknown action kinds: {sorted(self.weights.keys() - _KINDS.keys())}")
        if any(w < 0 for w in self.weights.values()):
            raise ValueError("weights must be non-negative")
        if self.weights and not any(w > 0 for w in self.weights.values()):
            raise ValueError("at least one weight must be positive")
        known = [*cpmm.MUTATIONS, *fa12.MUTATIONS]
        if self.mutation is not None and self.mutation not in known:
            raise ValueError(f"unknown mutation {self.mutation!r}; known: {', '.join(known)}")


@dataclass(frozen=True, slots=True)
class Wiring:
    main: Address
    lqt: Address
    token: Address
    sink: Address
    users: tuple[Address, ...]


@dataclass(slots=True)
class Snapshot:
    block: int
    step: int  # action index inside the block; -1 for the committed boundary
    state: ChainState
    action: Optional[Action]
    pre_sender_balance: int
    committed: bool
    # ``checks.run_all_checks``'s memo: (wiring, checker, reports) up to here.
    checked: Optional[tuple] = field(default=None, init=False, compare=False, repr=False)


@dataclass(frozen=True, slots=True)
class RejectedBlock:
    block: int
    action_index: int
    reason: str


@dataclass(frozen=True, slots=True)
class Prefix:
    """The first ``blocks`` blocks of a run: ``snapshots`` snapshots, then ``state``."""

    blocks: int
    snapshots: int
    state: ChainState


@dataclass
class Trace:
    config: ScenarioConfig
    wiring: Wiring
    root_blocks: list[list[Action]]
    snapshots: list[Snapshot]
    rejected: list[RejectedBlock]
    final_state: ChainState
    order_free: list[bool]  # per block (see ``Run``)
    free: Prefix  # the leading order-free blocks
    shared: tuple[int, ...] = ()  # snapshot counts where its run was forked


@dataclass(frozen=True, slots=True)
class CheckReport:
    """One check's verdict, immutable.  A passing report is one object per
    check name, shared by every snapshot it passed on (``checks._report``);
    ``checks.summarize`` merges reports into new ones."""

    name: str
    passed: bool
    violations: tuple[str, ...]  # the first few messages; see ``count``
    count: int = 0  # every violation found, kept in ``violations`` or not


@dataclass
class Run:
    """Runs every block of wiring, fuzzing, replay and scenarios.

    Blocks are numbered in order, rejected or not.  Without
    ``keep_snapshots`` nothing is cloned and ``snapshots`` stays empty.

    ``order_free`` holds one flag per block: whether no executed action
    emitted onto a non-empty remaining queue.  Both orders run the same
    actions on the same states in such a block (up to a rejected block's
    failing action), and the flag is the same under either order, since the
    two runs are the same until an action emits while another waits.  Only
    the snapshot observer computes it; without ``keep_snapshots`` every flag
    is False.  ``free`` is the leading run of order-free blocks.
    """

    state: ChainState
    order: ExecOrder
    keep_snapshots: bool = True
    root_blocks: list[list[Action]] = field(default_factory=list)
    snapshots: list[Snapshot] = field(default_factory=list)
    rejected: list[RejectedBlock] = field(default_factory=list)
    order_free: list[bool] = field(default_factory=list)
    free: Optional[Prefix] = None
    shared: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.free is None:
            self.free = Prefix(0, 0, self.state)

    def add(self, roots: list[Action]) -> bool:
        """Execute one block; False if it was rejected, leaving the state."""
        block_no = len(self.root_blocks)
        self.root_blocks.append(roots)
        collected: list[Snapshot] = []
        free, queued = self.keep_snapshots, len(roots)

        def observer(work: ChainState, action: Action, pre_balance: int) -> None:
            nonlocal free, queued
            # ``queued - 1`` actions remained; more than that now means some were emitted.
            free = free and (queued <= 1 or len(work.queue) < queued)
            queued = len(work.queue)
            collected.append(
                Snapshot(block_no, len(collected), work.clone(), action, pre_balance, False)
            )

        try:
            # A module global, so a wrapped ``harness.add_block`` sees every block.
            self.state = add_block(
                self.state, roots, self.order, observer if self.keep_snapshots else None
            )
        except BlockError as e:
            return self._ended(free, RejectedBlock(block_no, e.index, e.reason))
        if self.keep_snapshots:
            self.snapshots.extend(collected)
            # Shared, not cloned: nothing mutates a committed state.
            self.snapshots.append(Snapshot(block_no, -1, self.state, None, 0, True))
        return self._ended(free, None)

    def take(self, roots: list[Action], snapshots: list[Snapshot],
             rejected: Optional[RejectedBlock]) -> bool:
        """Record an order-free block that another run executed from a state
        agreeing with this run's (``_agrees``), as this run would execute it:
        ``snapshots`` are that run's snapshots of the block (none if it was
        ``rejected``).  Each new snapshot shares its source's state but for
        the records, which append each entry the block wrote, the source's
        own entry object, onto this run's own nodes: so neither run's records
        extend the other's (``History.advance`` tells runs apart by node)."""
        block_no = len(self.root_blocks)
        self.root_blocks.append(roots)
        if rejected is not None:
            return self._ended(True, rejected)
        log, incoming = self.state.log, self.state.incoming
        for s in snapshots:
            src = s.state
            if not s.committed:
                ev = src.log.last
                log = log.appended(ev)
                if src.incoming.last is ev:
                    incoming = incoming.appended(ev)
            state = src.with_records(log, incoming)
            self.snapshots.append(
                Snapshot(block_no, s.step, state, s.action, s.pre_sender_balance, s.committed)
            )
        self.state = state
        return self._ended(True, None)

    def _ended(self, free: bool, rejected: Optional[RejectedBlock]) -> bool:
        """Close the block just run or taken: its flag, its rejection if any,
        and the order-free prefix it may extend.  False if it was rejected."""
        self.order_free.append(free)
        if rejected is not None:
            self.rejected.append(rejected)
        if free and self.free.blocks == len(self.order_free) - 1:
            self.free = Prefix(len(self.order_free), len(self.snapshots), self.state)
        return rejected is None

    def trace(self, config: ScenarioConfig, wiring: Wiring) -> Trace:
        return Trace(config, wiring, self.root_blocks, self.snapshots, self.rejected,
                     self.state, self.order_free, self.free, self.shared)


def _fork(src, order: ExecOrder) -> Run:
    """A run under ``order`` going on from ``src`` (a ``Run`` or ``Trace``) after
    its order-free prefix, whose blocks, flags, snapshots, rejected entries and
    state it shares.  It has its own lists, and nothing writes into a run's
    state: the blocks it runs append new nodes to the prefix's records, which
    src never sees."""
    at = src.free
    return Run(at.state, order, True, src.root_blocks[: at.blocks], src.snapshots[: at.snapshots],
               [r for r in src.rejected if r.block < at.blocks], src.order_free[: at.blocks],
               at, src.shared + (at.snapshots,))


def _agrees(a: ChainState, b: ChainState) -> bool:
    """Whether a block executes alike from ``a`` and from ``b``: both queues are
    empty and all else execution reads is equal (it only appends to the
    records; contract states are typed values and compare by value)."""
    return (not a.queue and not b.queue and a.chain == b.chain and a.balances == b.balances
            and a.contracts == b.contracts and a.states == b.states)


# -- building blocks ---------------------------------------------------------


def dexter_call(
    sender: Address, main: Address, amount: int, name: str, arg: Payload = UNIT
) -> Action:
    """A user call to an exchange entrypoint, wrapped in the receiver envelope."""
    return Action(sender, sender, Call(main, amount, wrap_receiver(Tag(name, arg))))


def _key(c: ScenarioConfig) -> tuple:
    """The config fields the wiring reads, with the ``make_contract`` functions
    as they are bound now (a tracer wraps them); never the seed, blocks, order
    or weights.  The wiring's amounts are module constants, read when it runs."""
    return (c.users, c.mutation, fa2.make_contract, cpmm.make_contract, fa12.make_contract)


@functools.lru_cache(maxsize=1)
def _wiring(key: tuple) -> tuple[Run, Wiring]:
    """The wiring's run for ``key``, executed once under one order, and its
    addresses.  A rejected wiring block raises its ``BlockError``."""
    n_users, mutation, make_fa2, make_cpmm, make_fa12 = key
    cpmm_mut, fa12_mut = (mutation if mutation in m.MUTATIONS else None for m in (cpmm, fa12))
    users = tuple(user(i) for i in range(n_users))
    u0 = users[0]
    # Each wiring block deploys at most one contract and must commit.
    token, main, lqt, sink = (contract(i) for i in range(1, 5))
    setup = cpmm.CpmmSetup(lqtTotal_=LIQUIDITY, manager_=u0, tokenAddress_=token, tokenId_=0)
    deploys = [
        (make_fa2(), fa2.encode_setup({(u, 0): USER_TOKENS for u in users})),
        (make_cpmm(cpmm_mut), cpmm.encode_setup(setup)),
        (make_fa12(fa12_mut), fa12.encode_setup(main, u0, LIQUIDITY)),
        (make_sink_contract(), UNIT),
    ]
    roots = [[Action(u0, u0, Deploy(0, ref, payload))] for ref, payload in deploys]
    pay_tokens = Call(token, 0, cpmm.token_transfer_msg(u0, main, 0, TOKEN_POOL))
    roots += [
        [
            dexter_call(u0, main, 0, "set_lqt_address", record(addr=addr(lqt))),
            Action(u0, u0, pay_tokens),
            Action(u0, u0, Transfer(main, XTZ_POOL)),
        ],
        [dexter_call(u0, main, 0, "update_token_pool")],
    ]
    run = Run(empty_chain([(u, USER_TEZ) for u in users]), ExecOrder.DEPTH_FIRST)
    for block in roots:
        if not run.add(block):  # which leaves ``run.state`` as it was
            r = run.rejected[-1]
            raise BlockError(r.action_index, r.reason, run.state)
    # Every wiring block is order-free, so this one run serves both orders.
    assert run.free.blocks == len(roots)
    return run, Wiring(main, lqt, token, sink, users)


def wire_exchange(config: ScenarioConfig, order: ExecOrder) -> tuple[Run, Wiring]:
    """Deploy and pair the three contracts plus the callback sink.

    Pairing matches the inter-contract invariants' hypotheses: the lqt admin
    is the main contract, set_lqt_address points back at the lqt contract,
    and both start from ``LIQUIDITY``.  A rejected wiring block (a patched
    ``make_contract`` can give one) raises its ``BlockError``.

    The wiring runs once per key (``_key``), under one order, since every
    wiring block is order-free; the memo keeps the last key only, which
    frees a traced pass's tracer.  Each call gets a fork of that run under
    ``order``, whose wiring root blocks and snapshots are the memo's own,
    shared by every trace of either order: never mutate them.
    """
    run, wiring = _wiring(_key(config))
    return _fork(run, order), wiring


# -- generator ---------------------------------------------------------------


def _tez(rng: random.Random, state: ChainState, u: Address) -> int:
    """1..min(balance, cap) tez, or 1 when that range is empty."""
    return rng.randint(1, max(1, min(state.balance(u), MAX_TRADE_XTZ)))


def _fresh(state: ChainState) -> int:
    """A deadline the next block (at slot + 1) is still before."""
    return state.chain.current_slot + 2


def _trade(u: Address, w: Wiring, amount: int, min_bought: int, deadline: int) -> Action:
    return dexter_call(u, w.main, amount, "xtz_to_token",
                       cpmm.xtz_to_token_arg(u, min_bought, deadline))


def _lqt_call(sender: Address, w: Wiring, msg: Payload) -> Action:
    return Action(sender, sender, Call(w.lqt, 0, msg))


def _xtz_to_token(rng, state, w, u):
    return _trade(u, w, _tez(rng, state, u), 0, _fresh(state))


def _token_to_xtz(rng, state, w, u):
    held = fa2.ledger_balance(state.states[w.token], u, 0)
    sold = rng.randint(0, min(held, MAX_TRADE_TOKENS))
    arg = record(to=addr(u), tokensSold=nat(sold), minXtzBought=nat(0),
                 deadline=nat(_fresh(state)))
    return dexter_call(u, w.main, 0, "token_to_xtz", arg)


def _add_liquidity(rng, state, w, u):
    amount = _tez(rng, state, u)
    arg = record(owner=addr(u), minLqtMinted=nat(0), maxTokensDeposited=nat(10**30),
                 deadline=nat(_fresh(state)))
    return dexter_call(u, w.main, amount, "add_liquidity", arg)


def _remove_liquidity(rng, state, w, u):
    burned = rng.randint(0, fa12.balance_of(state.states[w.lqt], u))
    arg = record(to=addr(u), lqtBurned=nat(burned), minXtzWithdrawn=nat(0),
                 minTokensWithdrawn=nat(0), deadline=nat(_fresh(state)))
    return dexter_call(u, w.main, 0, "remove_liquidity", arg)


def _donate(rng, state, w, u):
    amount = rng.randint(0, min(state.balance(u), MAX_TRADE_XTZ))
    return Action(u, u, Transfer(w.main, amount))


def _update_token_pool(rng, state, w, u):
    return dexter_call(u, w.main, 0, "update_token_pool")


def _lqt_transfer(rng, state, w, u):
    value = rng.randint(0, fa12.balance_of(state.states[w.lqt], u))
    return _lqt_call(u, w, fa12.transfer_msg(u, rng.choice(w.users), value))


def _lqt_approve(rng, state, w, u):
    spender = rng.choice(w.users)
    current = fa12.allowance_of(state.states[w.lqt], u, spender)
    # Mostly respect the unsafe-change guard; sometimes violate it to exercise rollback.
    value = 0 if current != 0 and rng.random() < 0.8 else rng.randint(0, 200)
    return _lqt_call(u, w, Tag("approve", record(spender=addr(spender), value=nat(value))))


def _lqt_third_party_transfer(rng, state, w, u):
    # Spend an existing allowance (they are all positive) if any, else try without one.
    allowances = state.states[w.lqt].allowances
    if allowances and rng.random() < 0.9:
        (owner, spender), allowed = rng.choice(allowances)
        value = rng.randint(0, allowed)
    else:
        owner, spender, value = rng.choice(w.users), u, rng.randint(1, 50)
    return _lqt_call(spender, w, fa12.transfer_msg(owner, rng.choice(w.users), value))


def _view(rng, state, w, u):
    which, asked = rng.choice((("get_total_supply", ()), ("get_balance", ("owner",)),
                               ("get_allowance", ("owner", "spender"))))
    users = {name: addr(rng.choice(w.users)) for name in asked}
    return _lqt_call(u, w, Tag(which, record(callback=addr(w.sink), **users)))


def _non_admin_mint(rng, state, w, u):
    quantity = rng.randint(-50, 50)
    return _lqt_call(u, w, cpmm.mint_or_burn_msg(quantity, rng.choice(w.users)))


def _over_slippage_trade(rng, state, w, u):
    amount = _tez(rng, state, u)
    ms = state.states[w.main]
    expected = cpmm.trade_output(amount, ms.xtzPool, ms.tokenPool)
    return None if expected is None else _trade(u, w, amount, expected + 1, _fresh(state))


def _stale_deadline_trade(rng, state, w, u):
    return _trade(u, w, _tez(rng, state, u), 0, state.chain.current_slot + 1)


# Every action kind: its default weight and its draw, ``draw(rng, state, wiring,
# u)``, which gives an action by user ``u`` against ``state``, or None.
_KINDS: dict[str, tuple[float, Callable[..., Optional[Action]]]] = {
    "xtz_to_token": (4, _xtz_to_token),
    "token_to_xtz": (4, _token_to_xtz),
    "add_liquidity": (2, _add_liquidity),
    "remove_liquidity": (2, _remove_liquidity),
    "donate": (2, _donate),
    "update_token_pool": (1, _update_token_pool),
    "lqt_transfer": (2, _lqt_transfer),
    "lqt_approve": (2, _lqt_approve),
    "lqt_third_party_transfer": (2, _lqt_third_party_transfer),
    "view": (1, _view),
    "non_admin_mint": (1, _non_admin_mint),
    "over_slippage_trade": (1, _over_slippage_trade),
    "stale_deadline_trade": (1, _stale_deadline_trade),
}
DEFAULT_WEIGHTS: dict[str, float] = {kind: weight for kind, (weight, _) in _KINDS.items()}


def _gen_block(rng: random.Random, state: ChainState, w: Wiring, draws: list,
               cum_weights: list[float]) -> list[Action]:
    """One draw, or two one time in three: each picks a kind by weight, then
    its user, and may give no action."""
    roots: list[Action] = []
    for _ in range(rng.choice([1, 1, 2])):
        draw = rng.choices(draws, cum_weights=cum_weights)[0]
        act = draw(rng, state, w, rng.choice(w.users))
        if act is not None:
            roots.append(act)
    return roots


def gen_trace(config: ScenarioConfig) -> Trace:
    """Wire the exchange, then run the configured number of fuzzed blocks."""
    run, wiring = wire_exchange(config, config.order)
    rng = random.Random(config.seed)
    weights = {**DEFAULT_WEIGHTS, **config.weights}
    kinds = [k for k, wt in weights.items() if wt > 0]
    # Accumulated once, as ``choices`` does on every draw: the same draws.
    draws, cum_weights = [_KINDS[k][1] for k in kinds], list(accumulate(weights[k] for k in kinds))
    for _ in range(config.blocks):
        run.add(_gen_block(rng, run.state, wiring, draws, cum_weights))
    return run.trace(config, wiring)


def replay_trace(trace: Trace, order: ExecOrder) -> Trace:
    """Re-execute the trace's root blocks under ``order``, going on from its
    order-free prefix, whose snapshots the replay shares.  Past it, a block
    that was order-free in the trace, reached from a state that agrees with
    the trace's state before it (``_agrees``), is taken from the trace
    (``Run.take``): both orders would run the same actions on the same
    states.  Any other block runs, and the replay's state after it is
    compared with the trace's to learn whether the next may be taken."""
    run = _fork(trace, order)
    rejected = {r.block: r for r in trace.rejected}
    # ``snaps[i:j]`` are the trace's snapshots of block ``b``, and ``after`` its
    # state after that block.
    snaps, i, after = trace.snapshots, trace.free.snapshots, trace.free.state
    agrees = True  # the fork starts from the trace's own state
    for b in range(trace.free.blocks, len(trace.root_blocks)):
        j = i
        if b not in rejected:  # its snapshots end with the committed one
            while not snaps[j].committed:
                j += 1
            j += 1
            after = snaps[j - 1].state
        if agrees and trace.order_free[b]:
            run.take(trace.root_blocks[b], snaps[i:j], rejected.get(b))
        else:
            run.add(trace.root_blocks[b])
            agrees = _agrees(run.state, after)
        i = j
    return run.trace(replace(trace.config, order=order), trace.wiring)
