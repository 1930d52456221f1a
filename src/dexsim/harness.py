"""Block execution (``Run``), the exchange wiring and the trace generator.

``Run`` executes every block of wiring, fuzzing, replay and scenarios, and
records the per-action snapshots and the rejected blocks.  ``wire_exchange``
deploys and pairs the FA2 token, the exchange, its liquidity token and a
callback sink.  The wiring is order-free (see ``Run``), so it runs once per
key (what the wiring reads, not the seed or the order), in a memo of one
run, and each trace of either order gets a fork of it.  ``gen_trace`` then
draws random blocks of weighted action kinds against that wiring, and
``replay_trace`` re-executes them under another order, going on from the
order-free blocks of the trace or of the wired run.  Going on from a run's
order-free prefix (``_fork``) is the one way any run reuses work.  The
checkers run over these traces live in ``checks``.

Failed candidate blocks are part of the campaign on purpose: they
exercise block-atomic rollback.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field
from typing import Optional

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
    Records,
    Transfer,
    add_block,
    decoded,
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


@dataclass(frozen=True)
class ScenarioConfig:
    seed: int = 0
    blocks: int = 10
    users: int = 4
    order: ExecOrder = ExecOrder.DEPTH_FIRST
    weights: dict[str, float] = field(default_factory=dict)
    initial_user_tez: int = 10**9
    initial_user_tokens: int = 10**9
    initial_liquidity: int = 1000
    initial_token_pool: int = 10**6
    initial_xtz_pool: int = 10**6
    max_trade_xtz: int = 10**5
    max_trade_tokens: int = 10**5
    cpmm_mutation: Optional[str] = None
    fa12_mutation: Optional[str] = None

    def __post_init__(self) -> None:
        if any(w < 0 for w in self.weights.values()):
            raise ValueError("weights must be non-negative")
        if self.weights and not any(w > 0 for w in self.weights.values()):
            raise ValueError("at least one weight must be positive")


DEFAULT_WEIGHTS: dict[str, float] = {
    "xtz_to_token": 4,
    "token_to_xtz": 4,
    "add_liquidity": 2,
    "remove_liquidity": 2,
    "donate": 2,
    "update_token_pool": 1,
    "lqt_transfer": 2,
    "lqt_approve": 2,
    "lqt_third_party_transfer": 2,
    "view": 1,
    "non_admin_mint": 1,
    "over_slippage_trade": 1,
    "stale_deadline_trade": 1,
}


@dataclass(frozen=True)
class Wiring:
    main: Address
    lqt: Address
    token: Address
    sink: Address
    users: tuple[Address, ...]


@dataclass
class Snapshot:
    block: int
    step: int  # action index inside the block; -1 for the committed boundary
    state: ChainState
    action: Optional[Action]
    pre_sender_balance: int
    committed: bool
    # ``checks.run_all_checks``'s memo: (wiring, checker, reports) up to here.
    checked: Optional[tuple] = field(default=None, init=False, compare=False, repr=False)


@dataclass(frozen=True)
class RejectedBlock:
    block: int
    action_index: int
    reason: str


@dataclass(frozen=True)
class Prefix:
    """The first ``blocks`` blocks of a run: ``snapshots`` snapshots, then ``state``."""

    blocks: int
    snapshots: int
    state: ChainState


@dataclass
class Trace:
    config: ScenarioConfig
    order: ExecOrder
    wiring: Wiring
    root_blocks: list[list[Action]]
    snapshots: list[Snapshot]
    rejected: list[RejectedBlock]
    final_state: ChainState
    free: Prefix  # the leading order-free blocks (see ``Run``)
    shared: tuple[int, ...] = ()  # snapshot counts where its run was forked


@dataclass
class CheckReport:
    name: str
    passed: bool
    violations: list[str]  # the first few messages; see ``count``
    count: int = 0  # every violation found, kept in ``violations`` or not


@dataclass
class Run:
    """Runs every block of wiring, fuzzing, replay and scenarios.

    Blocks are numbered in order, rejected or not.  Without
    ``keep_snapshots`` nothing is cloned and ``snapshots`` stays empty.

    ``free`` is the leading order-free blocks, where no executed action emitted
    onto a non-empty remaining queue: both orders run the same actions on the
    same states there (up to a rejected block's failing action).  Only the
    snapshot observer tracks it.
    """

    state: ChainState
    order: ExecOrder
    keep_snapshots: bool = True
    root_blocks: list[list[Action]] = field(default_factory=list)
    snapshots: list[Snapshot] = field(default_factory=list)
    rejected: list[RejectedBlock] = field(default_factory=list)
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
        free = self.keep_snapshots and self.free.blocks == block_no
        queued = len(roots)

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
            self.rejected.append(RejectedBlock(block_no, e.index, e.reason))
            if free:
                self.free = Prefix(block_no + 1, self.free.snapshots, self.state)
            return False
        if self.keep_snapshots:
            self.snapshots.extend(collected)
            self.snapshots.append(Snapshot(block_no, -1, self.state.clone(), None, 0, True))
            if free:
                self.free = Prefix(block_no + 1, len(self.snapshots), self.state)
        return True

    def trace(self, config: ScenarioConfig, wiring: Wiring) -> Trace:
        return Trace(config, self.order, wiring, self.root_blocks, self.snapshots,
                     self.rejected, self.state, self.free, self.shared)


def _fork(src, order: ExecOrder) -> Run:
    """A run under ``order`` going on from ``src`` (a ``Run`` or ``Trace``) after
    its order-free prefix, whose blocks, snapshots and rejected entries it
    shares.  It has its own lists and record storage, so src keeps no entry it
    appends."""
    at = src.free
    state = at.state.clone()
    state.log = Records(state.log)
    state.incoming = {to: Records(calls) for to, calls in state.incoming.items()}
    rejected = [r for r in src.rejected if r.block < at.blocks]
    return Run(state, order, True, src.root_blocks[: at.blocks], src.snapshots[: at.snapshots],
               rejected, at, src.shared + (at.snapshots,))


# -- building blocks ---------------------------------------------------------


def dexter_call(
    sender: Address, main: Address, amount: int, name: str, arg: Payload = UNIT
) -> Action:
    """A user call to an exchange entrypoint, wrapped in the receiver envelope."""
    return Action(sender, sender, Call(main, amount, wrap_receiver(Tag(name, arg))))


def _key(c: ScenarioConfig) -> tuple:
    """Everything the wiring reads, with the ``make_contract`` functions as
    they are bound now (a tracer wraps them); never the seed, blocks,
    weights or trade caps."""
    return (c.users, c.initial_user_tez, c.initial_user_tokens, c.initial_liquidity,
            c.initial_token_pool, c.initial_xtz_pool, c.cpmm_mutation, c.fa12_mutation,
            fa2.make_contract, cpmm.make_contract, fa12.make_contract)


@functools.lru_cache(maxsize=1)
def _wiring(key: tuple) -> tuple[Run, Wiring]:
    """The wiring's run for ``key``, executed once under one order, and its
    addresses.  A rejected wiring block raises its ``BlockError``."""
    n_users, user_tez, tokens, lqt_total, token_pool, xtz_pool, cpmm_mut, fa12_mut, *makers = key
    make_fa2, make_cpmm, make_fa12 = makers
    users = tuple(user(i) for i in range(n_users))
    u0 = users[0]
    # Each wiring block deploys at most one contract and must commit.
    token, main, lqt, sink = (contract(i) for i in range(1, 5))
    setup = cpmm.CpmmSetup(lqtTotal_=lqt_total, manager_=u0, tokenAddress_=token, tokenId_=0)
    deploys = [
        (make_fa2(), fa2.encode_setup({(u, 0): tokens for u in users})),
        (make_cpmm(cpmm_mut), cpmm.encode_setup(setup)),
        (make_fa12(fa12_mut), fa12.encode_setup(main, u0, lqt_total)),
        (make_sink_contract(), UNIT),
    ]
    roots = [[Action(u0, u0, Deploy(0, ref, payload))] for ref, payload in deploys]
    pay_tokens = Call(token, 0, cpmm.token_transfer_msg(u0, main, 0, token_pool))
    roots += [
        [
            dexter_call(u0, main, 0, "set_lqt_address", record(addr=addr(lqt))),
            Action(u0, u0, pay_tokens),
            Action(u0, u0, Transfer(main, xtz_pool)),
        ],
        [dexter_call(u0, main, 0, "update_token_pool")],
    ]
    run = Run(empty_chain([(u, user_tez) for u in users]), ExecOrder.DEPTH_FIRST)
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
    and both start from the same initial liquidity amount.  A rejected
    wiring block raises its ``BlockError``.

    The wiring runs once per key (``_key``), under one order, since every
    wiring block is order-free; the memo keeps the last key only, which
    frees a traced pass's tracer.  Each call gets a fork of that run under
    ``order``, whose wiring root blocks and snapshots are the memo's own,
    shared by every trace of either order: never mutate them.
    """
    run, wiring = _wiring(_key(config))
    return _fork(run, order), wiring


# -- generator ---------------------------------------------------------------


def _decoded(module, state: ChainState, at: Address):
    """The state of ``module``'s contract at ``at``, which must decode."""
    s = decoded(state.states[at], module.decode_state)
    assert s is not None
    return s


def _gen_block(
    rng: random.Random, state: ChainState, w: Wiring, config: ScenarioConfig
) -> list[Action]:
    weights = dict(DEFAULT_WEIGHTS)
    weights.update(config.weights)
    kinds = [k for k, wt in weights.items() if wt > 0]
    wts = [weights[k] for k in kinds]
    n_actions = rng.choice([1, 1, 2])
    roots: list[Action] = []
    for _ in range(n_actions):
        kind = rng.choices(kinds, weights=wts)[0]
        act = _gen_action(rng, state, w, config, kind)
        if act is not None:
            roots.append(act)
    return roots


def _gen_action(
    rng: random.Random,
    state: ChainState,
    w: Wiring,
    config: ScenarioConfig,
    kind: str,
) -> Optional[Action]:
    u = rng.choice(w.users)
    slot = state.chain.current_slot
    fresh = slot + 2  # executes at slot+1, still before the deadline

    if kind == "xtz_to_token":
        amount = rng.randint(1, max(1, min(state.balance(u), config.max_trade_xtz)))
        return dexter_call(
            u,
            w.main,
            amount,
            "xtz_to_token",
            record(to=addr(u), minTokensBought=nat(0), deadline=nat(fresh)),
        )
    if kind == "token_to_xtz":
        held = fa2.ledger_balance(_decoded(fa2, state, w.token), u, 0)
        sold = rng.randint(0, min(held, config.max_trade_tokens))
        return dexter_call(
            u,
            w.main,
            0,
            "token_to_xtz",
            record(to=addr(u), tokensSold=nat(sold), minXtzBought=nat(0), deadline=nat(fresh)),
        )
    if kind == "add_liquidity":
        amount = rng.randint(1, max(1, min(state.balance(u), config.max_trade_xtz)))
        return dexter_call(
            u,
            w.main,
            amount,
            "add_liquidity",
            record(
                owner=addr(u),
                minLqtMinted=nat(0),
                maxTokensDeposited=nat(10**30),
                deadline=nat(fresh),
            ),
        )
    if kind == "remove_liquidity":
        held = fa12.balance_of(_decoded(fa12, state, w.lqt), u)
        burned = rng.randint(0, held)
        return dexter_call(
            u,
            w.main,
            0,
            "remove_liquidity",
            record(
                to=addr(u),
                lqtBurned=nat(burned),
                minXtzWithdrawn=nat(0),
                minTokensWithdrawn=nat(0),
                deadline=nat(fresh),
            ),
        )
    if kind == "donate":
        amount = rng.randint(0, min(state.balance(u), config.max_trade_xtz))
        return Action(u, u, Transfer(w.main, amount))
    if kind == "update_token_pool":
        return dexter_call(u, w.main, 0, "update_token_pool")
    if kind == "lqt_transfer":
        held = fa12.balance_of(_decoded(fa12, state, w.lqt), u)
        value = rng.randint(0, held)
        to = rng.choice(w.users)
        return Action(
            u,
            u,
            Call(
                w.lqt,
                0,
                Tag("transfer", record(**{"from": addr(u), "to": addr(to), "value": nat(value)})),
            ),
        )
    if kind == "lqt_approve":
        spender = rng.choice(w.users)
        current = fa12.allowance_of(_decoded(fa12, state, w.lqt), u, spender)
        # Mostly respect the unsafe-change guard; sometimes violate it to
        # exercise rollback.
        if current != 0 and rng.random() < 0.8:
            value = 0
        else:
            value = rng.randint(0, 200)
        return Action(
            u,
            u,
            Call(w.lqt, 0, Tag("approve", record(spender=addr(spender), value=nat(value)))),
        )
    if kind == "lqt_third_party_transfer":
        # Pick an existing allowance if any, else attempt without one.
        allowances = [(k, v) for k, v in _decoded(fa12, state, w.lqt).allowances if v > 0]
        if allowances and rng.random() < 0.9:
            (owner, spender), allowed = rng.choice(allowances)
            value = rng.randint(0, max(allowed, 1))
        else:
            owner, spender = rng.choice(w.users), u
            value = rng.randint(1, 50)
        to = rng.choice(w.users)
        return Action(
            spender,
            spender,
            Call(
                w.lqt,
                0,
                Tag("transfer", record(**{"from": addr(owner), "to": addr(to), "value": nat(value)})),
            ),
        )
    if kind == "view":
        which = rng.choice(["get_total_supply", "get_balance", "get_allowance"])
        if which == "get_total_supply":
            arg = record(callback=addr(w.sink))
        elif which == "get_balance":
            arg = record(owner=addr(rng.choice(w.users)), callback=addr(w.sink))
        else:
            arg = record(
                owner=addr(rng.choice(w.users)),
                spender=addr(rng.choice(w.users)),
                callback=addr(w.sink),
            )
        return Action(u, u, Call(w.lqt, 0, Tag(which, arg)))
    if kind == "non_admin_mint":
        quantity = rng.randint(-50, 50)
        return Action(
            u,
            u,
            Call(w.lqt, 0, cpmm.mint_or_burn_msg(quantity, rng.choice(w.users))),
        )
    if kind == "over_slippage_trade":
        amount = rng.randint(1, max(1, min(state.balance(u), config.max_trade_xtz)))
        ms = _decoded(cpmm, state, w.main)
        expected = cpmm.trade_output(amount, ms.xtzPool, ms.tokenPool)
        if expected is None:
            return None
        return dexter_call(
            u,
            w.main,
            amount,
            "xtz_to_token",
            record(to=addr(u), minTokensBought=nat(expected + 1), deadline=nat(fresh)),
        )
    if kind == "stale_deadline_trade":
        amount = rng.randint(1, max(1, min(state.balance(u), config.max_trade_xtz)))
        return dexter_call(
            u,
            w.main,
            amount,
            "xtz_to_token",
            record(to=addr(u), minTokensBought=nat(0), deadline=nat(slot + 1)),
        )
    raise ValueError(f"unknown action kind: {kind}")


def gen_trace(config: ScenarioConfig) -> Trace:
    """Wire the exchange, then run the configured number of fuzzed blocks."""
    run, wiring = wire_exchange(config, config.order)
    rng = random.Random(config.seed)
    for _ in range(config.blocks):
        run.add(_gen_block(rng, run.state, wiring, config))
    return run.trace(config, wiring)


def replay_trace(config: ScenarioConfig, root_blocks: list[list[Action]], order: ExecOrder,
                 source: Optional[Trace] = None) -> Trace:
    """Re-execute previously generated root actions under a (possibly
    different) execution order.

    Root blocks that begin with the order-free blocks (the same objects) of
    ``source``, a trace of the same key, go on from there, sharing its
    snapshots; else those that begin with the wired run's go on from that.
    The rest run from an empty chain, and the wiring is read back from the
    first four deployed contracts: token, main, lqt and sink, as gen_trace
    deploys them.  Unless it goes on from ``source``, a rejected wiring raises
    as in ``wire_exchange``."""
    key = _key(config)
    shared = source is not None and _key(source.config) == key and _begins(root_blocks, source)
    src, wiring = (source, source.wiring) if shared else _wiring(key)
    if _begins(root_blocks, src):
        run = _fork(src, order)
    else:
        users = tuple(user(i) for i in range(config.users))
        run, wiring = Run(empty_chain([(u, config.initial_user_tez) for u in users]), order), None
    for roots in root_blocks[len(run.root_blocks):]:
        run.add(roots)
    if wiring is None:
        contracts = run.state.deployed_contracts()
        assert len(contracts) >= 4, "replay requires at least the wiring blocks"
        token, main, lqt, sink = contracts[:4]
        wiring = Wiring(main, lqt, token, sink, users)
    return run.trace(config, wiring)


def _begins(blocks: list[list[Action]], src) -> bool:
    """Whether ``blocks`` begin with the order-free blocks of ``src`` (a ``Run``
    or ``Trace``), as the same objects."""
    prefix = src.root_blocks[: src.free.blocks]
    return len(blocks) >= len(prefix) and all(a is b for a, b in zip(prefix, blocks))
