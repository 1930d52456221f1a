"""Minimal FA2 reference token.

Just enough of the standard for the exchange to be runnable: single-entry
transfers and the batched balance_of query with its callback.  Operator
and permission machinery is deliberately omitted; any holder may move
their own tokens and contracts may pull tokens they were implicitly
approved for.  This contract is exercised, not verified.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

from .address import Address
from .arith import sub_opt
from .chain import ActionBody, Call, Chain, ContractCallContext, ContractRef, build_contract
from .chain import canon, lookup, non_payable, nonzero, require, some
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
    check_nats,
    map_kv,
    nat,
    ordered_map,
    pair,
    plist,
    rec_decode,
    record,
)

Result = tuple["Fa2State", list[ActionBody]]


@dataclass(frozen=True)
class Fa2State:
    ledger: tuple[tuple[tuple[Address, int], int], ...]  # ((owner, tokenId), value), sorted, zero-free

    def __post_init__(self) -> None:
        check_nats(*(v for _, v in self.ledger), *(t for (_, t), _ in self.ledger))


def ledger_balance(state: Fa2State, owner: Address, token_id: int) -> int:
    return lookup(state.ledger, (owner, token_id))


@functools.cache  # one payload per (owner, token id) key ever encoded
def _key(owner: Address, token_id: int) -> Pair:
    return pair(addr(owner), nat(token_id))


def encode_state(s: Fa2State) -> Payload:
    return record(ledger=ordered_map((_key(o, t), nat(v)) for (o, t), v in s.ledger))


def decode_state(p: Payload) -> Optional[Fa2State]:
    fields = rec_decode(p, ("ledger",), (as_entries,))
    if fields is None:
        return None
    ledger = []  # in ``MapKV`` order, which is the native order on these keys
    for k, v in fields[0]:
        if not isinstance(k, Pair):
            return None
        owner, token_id, value = as_addr(k.first), as_nat(k.second), as_nat(v)
        if owner is None or token_id is None or value is None:
            return None
        ledger.append(((owner, token_id), value))
    return Fa2State(nonzero(ledger))


def encode_setup(balances: dict[tuple[Address, int], int]) -> Payload:
    return record(ledger=map_kv((pair(addr(o), nat(t)), nat(v)) for (o, t), v in balances.items()))


def init(chain: Chain, ctx: ContractCallContext, setup_p: Payload) -> Optional[Payload]:
    state = decode_state(setup_p)
    if state is None or ctx.amount != 0:
        return None
    return encode_state(state)


def transfer(
    chain: Chain,
    ctx: ContractCallContext,
    state: Fa2State,
    from_: Address,
    to: Address,
    token_id: int,
    value: int,
) -> Result:
    # Operator checks omitted: own tokens, or a contract pulling tokens.
    require(ctx.sender == from_ or ctx.sender.is_contract)
    ledger = dict(state.ledger)
    ledger[(from_, token_id)] = some(sub_opt(ledger.get((from_, token_id), 0), value))
    ledger[(to, token_id)] = ledger.get((to, token_id), 0) + value
    return Fa2State(canon(ledger)), []


def balance_of(
    chain: Chain, ctx: ContractCallContext, state: Fa2State, requests: Payload, callback: Address
) -> Result:
    require(isinstance(requests, PList))
    responses = []
    for req in requests.items:
        require(isinstance(req, Pair))
        owner, token_id = some(as_addr(req.first)), some(as_nat(req.second))
        responses.append(pair(req, nat(ledger_balance(state, owner, token_id))))
    op = Call(to=callback, amount=0, payload=Tag("receive_balance_of", plist(responses)))
    return state, [op]


# Entrypoint name -> ``chain.Entrypoint``.  ``balance_of`` checks the shape
# of its requests list itself.
_ENTRYPOINTS = {
    "transfer": (
        transfer, False, ("from", "to", "tokenId", "value"), (as_addr, as_addr, as_nat, as_nat)
    ),
    "balance_of": (balance_of, False, ("requests", "callback"), (as_payload, as_addr)),
}


def make_contract() -> ContractRef:
    return build_contract("fa2", init, decode_state, encode_state, _ENTRYPOINTS, non_payable)
