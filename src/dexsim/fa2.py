"""Minimal FA2 reference token.

Just enough of the standard for the exchange to be runnable: single-entry
transfers and the batched balance_of query with its callback.  Operator
and permission machinery is deliberately omitted; any holder may move
their own tokens and contracts may pull tokens they were implicitly
approved for.  This contract is exercised, not verified.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .address import Address
from .arith import sub_opt
from .chain import ActionBody, Call, Chain, ContractCallContext, ContractRef
from .payload import (
    Pair,
    Payload,
    PList,
    Tag,
    addr,
    as_addr,
    as_entries,
    as_nat,
    as_payload,
    map_kv,
    nat,
    pair,
    plist,
    rec_decode,
    record,
)

Result = Optional[tuple["Fa2State", list[ActionBody]]]


@dataclass(frozen=True)
class Fa2State:
    ledger: tuple[tuple[tuple[Address, int], int], ...]  # ((owner, tokenId), value), sorted, zero-free


def _canon(d: dict) -> tuple:
    return tuple(sorted((k, v) for k, v in d.items() if v != 0))


def ledger_balance(state: Fa2State, owner: Address, token_id: int) -> int:
    return dict(state.ledger).get((owner, token_id), 0)


def encode_state(s: Fa2State) -> Payload:
    return record(
        ledger=map_kv((pair(addr(o), nat(t)), nat(v)) for (o, t), v in s.ledger)
    )


def decode_state(p: Payload) -> Optional[Fa2State]:
    fields = rec_decode(p, ("ledger",), (as_entries,))
    if fields is None:
        return None
    ledger: dict[tuple[Address, int], int] = {}
    for k, v in fields[0]:
        if not isinstance(k, Pair):
            return None
        owner, token_id, value = as_addr(k.first), as_nat(k.second), as_nat(v)
        if owner is None or token_id is None or value is None:
            return None
        ledger[(owner, token_id)] = value
    return Fa2State(_canon(ledger))


def encode_setup(balances: dict[tuple[Address, int], int]) -> Payload:
    return record(ledger=map_kv((pair(addr(o), nat(t)), nat(v)) for (o, t), v in balances.items()))


def init(chain: Chain, ctx: ContractCallContext, setup_p: Payload) -> Optional[Payload]:
    if ctx.amount != 0:
        return None
    state = decode_state(setup_p)
    if state is None:
        return None
    return encode_state(state)


def transfer(
    ctx: ContractCallContext,
    state: Fa2State,
    from_: Address,
    to: Address,
    token_id: int,
    value: int,
) -> Result:
    # Operator checks omitted: own tokens, or a contract pulling tokens.
    if ctx.sender != from_ and not ctx.sender.is_contract:
        return None
    ledger = dict(state.ledger)
    new_from = sub_opt(ledger.get((from_, token_id), 0), value)
    if new_from is None:
        return None
    ledger[(from_, token_id)] = new_from
    ledger[(to, token_id)] = ledger.get((to, token_id), 0) + value
    return Fa2State(_canon(ledger)), []


def balance_of(
    ctx: ContractCallContext, state: Fa2State, requests: Payload, callback: Address
) -> Result:
    if not isinstance(requests, PList):
        return None
    responses = []
    for req in requests.items:
        if not isinstance(req, Pair):
            return None
        owner, token_id = as_addr(req.first), as_nat(req.second)
        if owner is None or token_id is None:
            return None
        responses.append(pair(req, nat(ledger_balance(state, owner, token_id))))
    op = Call(to=callback, amount=0, payload=Tag("receive_balance_of", plist(responses)))
    return state, [op]


# Entrypoint name -> (handler, the fields of its record argument and their
# readers).  ``balance_of`` checks the shape of its requests list itself.
_ENTRYPOINTS = {
    "transfer": (transfer, ("from", "to", "tokenId", "value"), (as_addr, as_addr, as_nat, as_nat)),
    "balance_of": (balance_of, ("requests", "callback"), (as_payload, as_addr)),
}


def _dispatch(
    chain: Chain, ctx: ContractCallContext, state: Fa2State, msg: Optional[Payload]
) -> Result:
    if ctx.amount != 0:
        return None
    entry = _ENTRYPOINTS.get(msg.name) if isinstance(msg, Tag) else None
    if entry is None:
        return None
    handler, names, readers = entry
    args = rec_decode(msg.arg, names, readers)
    return None if args is None else handler(ctx, state, *args)


def make_contract() -> ContractRef:
    def receive(chain: Chain, ctx: ContractCallContext, state_p: Payload, msg):
        state = decode_state(state_p)
        if state is None:
            return None
        result = _dispatch(chain, ctx, state, msg)
        if result is None:
            return None
        new_state, ops = result
        return encode_state(new_state), ops

    return ContractRef(name="fa2", init=init, receive=receive)
