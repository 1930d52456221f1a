"""The liquidity token: an FA1.2 ledger with an admin-gated mint_or_burn.

Balances and allowances are canonical maps: absent entries mean zero and
entries are pruned when they reach zero, so structurally equal states are
exactly the semantically equal ones.  View entrypoints return data by
emitting a callback call carrying the matching receiver-message tag.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from .address import Address
from .arith import int_add_nat, sub_opt
from .chain import ActionBody, Call, Chain, ContractCallContext, ContractRef
from .payload import (
    Pair,
    Payload,
    Tag,
    addr,
    as_addr,
    as_entries,
    as_int,
    as_nat,
    map_kv,
    nat,
    pair,
    rec_decode,
    record,
)

Result = Optional[tuple["Fa12State", list[ActionBody]]]

MUTATIONS = ("keep_allowance", "open_mint_or_burn")


@dataclass(frozen=True)
class Fa12State:
    tokens: tuple[tuple[Address, int], ...]  # sorted, zero-free
    allowances: tuple[tuple[tuple[Address, Address], int], ...]  # sorted, zero-free
    admin: Address
    total_supply: int


def _canon(d: dict) -> tuple:
    return tuple(sorted((k, v) for k, v in d.items() if v != 0))


def balance_of(state: Fa12State, owner: Address) -> int:
    return dict(state.tokens).get(owner, 0)


def allowance_of(state: Fa12State, owner: Address, spender: Address) -> int:
    return dict(state.allowances).get((owner, spender), 0)


def encode_state(s: Fa12State) -> Payload:
    return record(
        tokens=map_kv((addr(a), nat(v)) for a, v in s.tokens),
        allowances=map_kv((pair(addr(o), addr(sp)), nat(v)) for (o, sp), v in s.allowances),
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
    tokens: dict[Address, int] = {}
    for k, v in token_entries:
        a, n = as_addr(k), as_nat(v)
        if a is None or n is None:
            return None
        tokens[a] = n
    allowances: dict[tuple[Address, Address], int] = {}
    for k, v in allowance_entries:
        if not isinstance(k, Pair):
            return None
        o, sp, n = as_addr(k.first), as_addr(k.second), as_nat(v)
        if o is None or sp is None or n is None:
            return None
        allowances[(o, sp)] = n
    return Fa12State(_canon(tokens), _canon(allowances), admin, supply)


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
    return encode_state(Fa12State(_canon(tokens), (), admin, initial_pool))


def transfer(
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
        remaining = sub_opt(allowances.get((from_, ctx.sender), 0), value)
        if remaining is None:
            return None
        if mutation != "keep_allowance":
            allowances[(from_, ctx.sender)] = remaining
    new_from = sub_opt(tokens.get(from_, 0), value)
    if new_from is None:
        return None
    tokens[from_] = new_from
    tokens[to] = tokens.get(to, 0) + value
    return replace(state, tokens=_canon(tokens), allowances=_canon(allowances)), []


def approve(
    ctx: ContractCallContext, state: Fa12State, spender: Address, value: int
) -> Result:
    # Unsafe-allowance-change guard: a nonzero allowance may only be reset
    # through zero.
    current = allowance_of(state, ctx.sender, spender)
    if current != 0 and value != 0:
        return None
    allowances = dict(state.allowances)
    allowances[(ctx.sender, spender)] = value
    return replace(state, allowances=_canon(allowances)), []


def mint_or_burn(
    ctx: ContractCallContext,
    state: Fa12State,
    quantity: int,
    target: Address,
    mutation: Optional[str] = None,
) -> Result:
    if mutation != "open_mint_or_burn" and ctx.sender != state.admin:
        return None
    tokens = dict(state.tokens)
    new_balance = int_add_nat(tokens.get(target, 0), quantity)
    new_supply = int_add_nat(state.total_supply, quantity)
    if new_balance is None or new_supply is None:
        return None
    tokens[target] = new_balance
    return replace(state, tokens=_canon(tokens), total_supply=new_supply), []


def _callback(to: Address, tag_name: str, value: int) -> Call:
    return Call(to=to, amount=0, payload=Tag(tag_name, nat(value)))


def get_total_supply(ctx: ContractCallContext, state: Fa12State, callback: Address) -> Result:
    return state, [_callback(callback, "receive_total_supply", state.total_supply)]


def get_balance(
    ctx: ContractCallContext, state: Fa12State, owner: Address, callback: Address
) -> Result:
    return state, [_callback(callback, "receive_balance", balance_of(state, owner))]


def get_allowance(
    ctx: ContractCallContext, state: Fa12State, owner: Address, spender: Address, callback: Address
) -> Result:
    return state, [_callback(callback, "receive_allowance", allowance_of(state, owner, spender))]


# Entrypoint name -> (handler, whether it takes the mutation, the fields of
# its record argument and their readers).
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


def _dispatch(
    chain: Chain,
    ctx: ContractCallContext,
    state: Fa12State,
    msg: Optional[Payload],
    mutation: Optional[str],
) -> Result:
    if ctx.amount != 0:  # every entrypoint is non-payable, views included
        return None
    entry = _ENTRYPOINTS.get(msg.name) if isinstance(msg, Tag) else None
    if entry is None:
        return None
    handler, takes_mutation, names, readers = entry
    args = rec_decode(msg.arg, names, readers)
    if args is None:
        return None
    if takes_mutation:
        return handler(ctx, state, *args, mutation)
    return handler(ctx, state, *args)


def make_contract(mutation: Optional[str] = None) -> ContractRef:
    if mutation is not None and mutation not in MUTATIONS:
        raise ValueError(f"unknown fa12 mutation: {mutation}")

    def receive(chain: Chain, ctx: ContractCallContext, state_p: Payload, msg):
        state = decode_state(state_p)
        if state is None:
            return None
        result = _dispatch(chain, ctx, state, msg, mutation)
        if result is None:
            return None
        new_state, ops = result
        return encode_state(new_state), ops

    name = "fa12" if mutation is None else f"fa12[{mutation}]"
    return ContractRef(name=name, init=init, receive=receive)
