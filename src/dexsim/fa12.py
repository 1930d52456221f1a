"""The liquidity token: an FA1.2 ledger with an admin-gated mint_or_burn.

Balances and allowances are canonical maps: absent entries mean zero and
entries are pruned when they reach zero, so structurally equal states are
exactly the semantically equal ones.  View entrypoints return data by
emitting a callback call carrying the matching receiver-message tag.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import Optional

from .address import Address
from .arith import int_add_nat, sub_opt
from .chain import ActionBody, Call, Chain, ContractCallContext, ContractRef, build_contract
from .chain import canon, lookup, non_payable, nonzero, require, some
from .payload import (
    Pair,
    Payload,
    Tag,
    addr,
    as_addr,
    as_entries,
    as_int,
    as_nat,
    check_nats,
    nat,
    ordered_map,
    pair,
    rec_decode,
    record,
)

Result = tuple["Fa12State", list[ActionBody]]

MUTATIONS = ("keep_allowance", "open_mint_or_burn")


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


@functools.cache  # one payload per (owner, spender) key ever encoded
def _key(owner: Address, spender: Address) -> Pair:
    return pair(addr(owner), addr(spender))


def encode_state(s: Fa12State) -> Payload:
    return record(
        tokens=ordered_map((addr(a), nat(v)) for a, v in s.tokens),
        allowances=ordered_map((_key(o, sp), nat(v)) for (o, sp), v in s.allowances),
        admin=addr(s.admin),
        total_supply=nat(s.total_supply),
    )


def decode_state(p: Payload) -> Optional[Fa12State]:
    fields = rec_decode(
        p,
        ("tokens", "allowances", "admin", "total_supply"),
        (as_entries, as_entries, as_addr, as_nat),
    )
    if fields is None:
        return None
    token_entries, allowance_entries, admin, supply = fields
    tokens = []  # in ``MapKV`` order, which is the native order on these keys
    for k, v in token_entries:
        a, n = as_addr(k), as_nat(v)
        if a is None or n is None:
            return None
        tokens.append((a, n))
    allowances = []
    for k, v in allowance_entries:
        if not isinstance(k, Pair):
            return None
        o, sp, n = as_addr(k.first), as_addr(k.second), as_nat(v)
        if o is None or sp is None or n is None:
            return None
        allowances.append(((o, sp), n))
    return Fa12State(nonzero(tokens), nonzero(allowances), admin, supply)


def encode_setup(admin_: Address, lqt_provider: Address, initial_pool: int) -> Payload:
    return record(admin_=addr(admin_), lqt_provider=addr(lqt_provider), initial_pool=nat(initial_pool))


def init(chain: Chain, ctx: ContractCallContext, setup_p: Payload) -> Optional[Payload]:
    fields = rec_decode(
        setup_p, ("admin_", "lqt_provider", "initial_pool"), (as_addr, as_addr, as_nat)
    )
    if fields is None or ctx.amount != 0:
        return None
    admin, provider, initial_pool = fields
    tokens = {provider: initial_pool} if initial_pool else {}
    return encode_state(Fa12State(canon(tokens), (), admin, initial_pool))


def transfer(
    chain: Chain,
    ctx: ContractCallContext,
    state: Fa12State,
    from_: Address,
    to: Address,
    value: int,
    mutation: Optional[str] = None,
) -> Result:
    tokens = dict(state.tokens)
    allowances = dict(state.allowances)
    if ctx.sender != from_:
        remaining = some(sub_opt(allowances.get((from_, ctx.sender), 0), value))
        if mutation != "keep_allowance":
            allowances[(from_, ctx.sender)] = remaining
    tokens[from_] = some(sub_opt(tokens.get(from_, 0), value))
    tokens[to] = tokens.get(to, 0) + value
    return replace(state, tokens=canon(tokens), allowances=canon(allowances)), []


def approve(
    chain: Chain, ctx: ContractCallContext, state: Fa12State, spender: Address, value: int
) -> Result:
    # Unsafe-allowance-change guard: a nonzero allowance may only be reset
    # through zero.
    require(allowance_of(state, ctx.sender, spender) == 0 or value == 0)
    allowances = dict(state.allowances)
    allowances[(ctx.sender, spender)] = value
    return replace(state, allowances=canon(allowances)), []


def mint_or_burn(
    chain: Chain,
    ctx: ContractCallContext,
    state: Fa12State,
    quantity: int,
    target: Address,
    mutation: Optional[str] = None,
) -> Result:
    require(mutation == "open_mint_or_burn" or ctx.sender == state.admin)
    tokens = dict(state.tokens)
    tokens[target] = some(int_add_nat(tokens.get(target, 0), quantity))
    new_supply = some(int_add_nat(state.total_supply, quantity))
    return replace(state, tokens=canon(tokens), total_supply=new_supply), []


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
    "transfer": (transfer, True, ("from", "to", "value"), (as_addr, as_addr, as_nat)),
    "approve": (approve, False, ("spender", "value"), (as_addr, as_nat)),
    "mint_or_burn": (mint_or_burn, True, ("quantity", "target"), (as_int, as_addr)),
    "get_total_supply": (get_total_supply, False, ("callback",), (as_addr,)),
    "get_balance": (get_balance, False, ("owner", "callback"), (as_addr, as_addr)),
    "get_allowance": (
        get_allowance, False, ("owner", "spender", "callback"), (as_addr, as_addr, as_addr)
    ),
}



def make_contract(mutation: Optional[str] = None) -> ContractRef:
    return build_contract(
        "fa12", init, decode_state, encode_state, _ENTRYPOINTS, non_payable, mutation, MUTATIONS
    )
