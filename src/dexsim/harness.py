"""Random trace generation and executable invariant checkers.

The safety properties of the exchange are recast as checkers over
execution traces: every claim about "reachable states" becomes a predicate run on
every per-action snapshot of a fuzzed campaign.  The inter-contract
invariant (main counter = liquidity supply) is checked twice: directly,
and as the composition of its two per-contract halves glued by the
incoming-equals-outgoing property, so the decomposition argument itself
is exercised.

Failed candidate blocks are part of the campaign on purpose: they
exercise block-atomic rollback.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from . import cpmm, fa2, fa12
from .address import Address, user
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
    next_deploy_address,
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


@dataclass(frozen=True)
class RejectedBlock:
    block: int
    action_index: int
    reason: str


@dataclass
class Trace:
    config: ScenarioConfig
    order: ExecOrder
    wiring: Wiring
    root_blocks: list[list[Action]]
    snapshots: list[Snapshot]
    rejected: list[RejectedBlock]
    final_state: ChainState


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
    """

    state: ChainState
    order: ExecOrder
    keep_snapshots: bool = True
    root_blocks: list[list[Action]] = field(default_factory=list)
    snapshots: list[Snapshot] = field(default_factory=list)
    rejected: list[RejectedBlock] = field(default_factory=list)

    def add(self, roots: list[Action]) -> bool:
        """Execute one block; False if it was rejected, leaving the state."""
        block_no = len(self.root_blocks)
        self.root_blocks.append(roots)
        collected: list[Snapshot] = []

        def observer(work: ChainState, action: Action, pre_balance: int) -> None:
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
            return False
        if self.keep_snapshots:
            self.snapshots.extend(collected)
            self.snapshots.append(Snapshot(block_no, -1, self.state.clone(), None, 0, True))
        return True

    def trace(self, config: ScenarioConfig, wiring: Wiring) -> Trace:
        return Trace(
            config, self.order, wiring, self.root_blocks, self.snapshots, self.rejected, self.state
        )


# -- building blocks ---------------------------------------------------------


def dexter_call(
    sender: Address, main: Address, amount: int, name: str, arg: Payload = UNIT
) -> Action:
    """A user call to an exchange entrypoint, wrapped in the receiver envelope."""
    return Action(sender, sender, Call(main, amount, wrap_receiver(Tag(name, arg))))


def wire_exchange(config: ScenarioConfig, order: ExecOrder) -> tuple[Run, Wiring]:
    """Deploy and pair the three contracts plus the callback sink.

    Pairing matches the inter-contract invariants' hypotheses: the lqt admin
    is the main contract, set_lqt_address points back at the lqt contract,
    and both start from the same initial liquidity amount.  A rejected
    wiring block raises its ``BlockError``.
    """
    users = tuple(user(i) for i in range(config.users))
    run = Run(empty_chain([(u, config.initial_user_tez) for u in users]), order)
    u0 = users[0]

    def commit(roots: list[Action]) -> None:
        before = run.state
        if not run.add(roots):
            r = run.rejected[-1]
            raise BlockError(r.action_index, r.reason, before)

    def deploy(ref: ContractRef, setup: Payload) -> Address:
        at = next_deploy_address(run.state)
        commit([Action(u0, u0, Deploy(0, ref, setup))])
        return at

    token_addr = deploy(
        fa2.make_contract(),
        fa2.encode_setup({(u, 0): config.initial_user_tokens for u in users}),
    )
    main_setup = cpmm.CpmmSetup(
        lqtTotal_=config.initial_liquidity,
        manager_=u0,
        tokenAddress_=token_addr,
        tokenId_=0,
    )
    main_addr = deploy(cpmm.make_contract(config.cpmm_mutation), cpmm.encode_setup(main_setup))
    lqt_addr = deploy(
        fa12.make_contract(config.fa12_mutation),
        fa12.encode_setup(main_addr, u0, config.initial_liquidity),
    )
    sink_addr = deploy(make_sink_contract(), UNIT)

    commit(
        [
            dexter_call(u0, main_addr, 0, "set_lqt_address", record(addr=addr(lqt_addr))),
            Action(
                u0,
                u0,
                Call(
                    token_addr,
                    0,
                    cpmm.token_transfer_msg(u0, main_addr, 0, config.initial_token_pool),
                ),
            ),
            Action(u0, u0, Transfer(main_addr, config.initial_xtz_pool)),
        ],
    )
    commit([dexter_call(u0, main_addr, 0, "update_token_pool")])

    return run, Wiring(main_addr, lqt_addr, token_addr, sink_addr, users)


# -- generator ---------------------------------------------------------------


def _main_state(state: ChainState, w: Wiring) -> cpmm.CpmmState:
    s = cpmm.decode_state(state.states[w.main])
    assert s is not None
    return s


def _lqt_state(state: ChainState, w: Wiring) -> fa12.Fa12State:
    s = fa12.decode_state(state.states[w.lqt])
    assert s is not None
    return s


def _token_state(state: ChainState, w: Wiring) -> fa2.Fa2State:
    s = fa2.decode_state(state.states[w.token])
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
    ms = _main_state(state, w)
    ls = _lqt_state(state, w)
    ts = _token_state(state, w)

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
        held = fa2.ledger_balance(ts, u, 0)
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
        held = fa12.balance_of(ls, u)
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
        held = fa12.balance_of(ls, u)
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
        current = fa12.allowance_of(ls, u, spender)
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
        allowances = [(k, v) for k, v in ls.allowances if v > 0]
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


def replay_trace(config: ScenarioConfig, root_blocks: list[list[Action]], order: ExecOrder) -> Trace:
    """Re-execute previously generated root actions under a (possibly
    different) execution order.  The wiring is read back from the first four
    deployed contracts: token, main, lqt and sink, as gen_trace deploys them."""
    users = tuple(user(i) for i in range(config.users))
    run = Run(empty_chain([(u, config.initial_user_tez) for u in users]), order)
    for roots in root_blocks:
        run.add(roots)
    contracts = run.state.deployed_contracts()
    assert len(contracts) >= 4, "replay requires at least the wiring blocks"
    token, main, lqt, sink = contracts[:4]
    return run.trace(config, Wiring(main, lqt, token, sink, users))
