"""The liquidity token: an FA1.2 ledger with an admin-gated mint_or_burn.

Balances and allowances are canonical maps: absent entries mean zero and
entries are pruned when they reach zero (``payload.credit``), so
structurally equal states are exactly the semantically equal ones.  View
entrypoints return data by emitting a callback call carrying the matching
receiver-message tag.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .address import Address
from .arith import int_add_nat
from .chain import ActionBody, Call, Chain, ContractCallContext, ContractRef, build_contract
from .chain import mutant, non_payable, replace, require, some
from .payload import ADDR, INT, NAT, Payload, Tag, addr, check_nats, codec, credit, fields, ledger
from .payload import lookup, nat, pair_of, rec_decode, record

Result = tuple["Fa12State", list[ActionBody]]

# Test mutants, each a ``chain.mutant`` patch: (entrypoint, handler text, replacement).
MUTATIONS = {
    "keep_allowance": ("transfer", "allowances = some(credit(", "some(credit("),
    "open_mint_or_burn": ("mint_or_burn", "require(ctx.sender == state.admin)", "pass"),
}


@dataclass(frozen=True)
class Fa12State:
    tokens: tuple[tuple[Address, int], ...]  # sorted, zero-free
    allowances: tuple[tuple[tuple[Address, Address], int], ...]  # sorted, zero-free
    admin: Address
    total_supply: int

    def __post_init__(self) -> None:
        check_nats(
            self.total_supply, *(v for _, v in self.tokens), *(v for _, v in self.allowances)
        )


def balance_of(state: Fa12State, owner: Address) -> int:
    return lookup(state.tokens, owner)


def allowance_of(state: Fa12State, owner: Address, spender: Address) -> int:
    return lookup(state.allowances, (owner, spender))


def transfer_msg(from_: Address, to: Address, value: int) -> Payload:
    return Tag("transfer", record(**{"from": addr(from_), "to": addr(to), "value": nat(value)}))


encode_state, decode_state = codec(
    Fa12State,
    tokens=ledger(ADDR),
    allowances=ledger(pair_of(ADDR, ADDR)),
    admin=ADDR,
    total_supply=NAT,
)


def encode_setup(admin_: Address, lqt_provider: Address, initial_pool: int) -> Payload:
    return record(admin_=addr(admin_), lqt_provider=addr(lqt_provider), initial_pool=nat(initial_pool))


_SETUP = fields(admin_=ADDR, lqt_provider=ADDR, initial_pool=NAT)


def init(chain: Chain, ctx: ContractCallContext, setup_p: Payload) -> Fa12State:
    admin, provider, initial_pool = some(rec_decode(setup_p, *_SETUP))
    require(ctx.amount == 0)
    return Fa12State(credit((), provider, initial_pool), (), admin, initial_pool)


def transfer(
    chain: Chain, ctx: ContractCallContext, state: Fa12State, from_: Address, to: Address, value: int
) -> Result:
    allowances = state.allowances
    if ctx.sender != from_:
        allowances = some(credit(allowances, (from_, ctx.sender), -value))
    tokens = credit(some(credit(state.tokens, from_, -value)), to, value)
    return replace(state, tokens=tokens, allowances=allowances), []


def approve(
    chain: Chain, ctx: ContractCallContext, state: Fa12State, spender: Address, value: int
) -> Result:
    # Unsafe-allowance-change guard: a nonzero allowance may only be reset
    # through zero.
    key = (ctx.sender, spender)
    current = lookup(state.allowances, key)
    require(current == 0 or value == 0)
    return replace(state, allowances=credit(state.allowances, key, value - current)), []


def mint_or_burn(
    chain: Chain, ctx: ContractCallContext, state: Fa12State, quantity: int, target: Address
) -> Result:
    require(ctx.sender == state.admin)
    tokens = some(credit(state.tokens, target, quantity))
    new_supply = some(int_add_nat(state.total_supply, quantity))
    return replace(state, tokens=tokens, total_supply=new_supply), []


def _callback(to: Address, tag_name: str, value: int) -> Call:
    return Call(to=to, amount=0, payload=Tag(tag_name, nat(value)))


def get_total_supply(
    chain: Chain, ctx: ContractCallContext, state: Fa12State, callback: Address
) -> Result:
    return state, [_callback(callback, "receive_total_supply", state.total_supply)]


def get_balance(
    chain: Chain, ctx: ContractCallContext, state: Fa12State, owner: Address, callback: Address
) -> Result:
    return state, [_callback(callback, "receive_balance", balance_of(state, owner))]


def get_allowance(
    chain: Chain,
    ctx: ContractCallContext,
    state: Fa12State,
    owner: Address,
    spender: Address,
    callback: Address,
) -> Result:
    return state, [_callback(callback, "receive_allowance", allowance_of(state, owner, spender))]


# Entrypoint name -> ``chain.Entrypoint``.
_ENTRYPOINTS = {
    "transfer": (transfer, *fields(**{"from": ADDR}, to=ADDR, value=NAT)),
    "approve": (approve, *fields(spender=ADDR, value=NAT)),
    "mint_or_burn": (mint_or_burn, *fields(quantity=INT, target=ADDR)),
    "get_total_supply": (get_total_supply, *fields(callback=ADDR)),
    "get_balance": (get_balance, *fields(owner=ADDR, callback=ADDR)),
    "get_allowance": (get_allowance, *fields(owner=ADDR, spender=ADDR, callback=ADDR)),
}


def make_contract(mutation: Optional[str] = None) -> ContractRef:
    name, entrypoints = mutant("fa12", _ENTRYPOINTS, MUTATIONS, mutation)
    return build_contract(name, init, encode_state, entrypoints, non_payable)
