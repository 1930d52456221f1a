"""Minimal FA2 reference token.

Just enough of the standard for the exchange to be runnable: single-entry
transfers and the batched balance_of query with its callback.  Operator
and permission machinery is deliberately omitted; any holder may move
their own tokens and contracts may pull tokens they were implicitly
approved for.  This contract is exercised, not verified.
"""

from __future__ import annotations

from dataclasses import dataclass

from .address import Address
from .chain import ActionBody, Call, Chain, ContractCallContext, ContractRef, build_contract
from .chain import non_payable, require, some
from .payload import ADDR, ANY, NAT, Payload, PList, Tag, addr, check_nats, codec, credit, fields
from .payload import ledger, lookup, map_kv, nat, pair, pair_of, plist, record

Result = tuple["Fa2State", list[ActionBody]]


@dataclass(frozen=True)
class Fa2State:
    ledger: tuple[tuple[tuple[Address, int], int], ...]  # ((owner, tokenId), value), sorted, zero-free

    def __post_init__(self) -> None:
        check_nats(*(v for _, v in self.ledger), *(t for (_, t), _ in self.ledger))


def ledger_balance(state: Fa2State, owner: Address, token_id: int) -> int:
    return lookup(state.ledger, (owner, token_id))


_KEY = pair_of(ADDR, NAT)  # (owner, tokenId)
_, _read_key = _KEY
encode_state, decode_state = codec(Fa2State, ledger=ledger(_KEY))


def encode_setup(balances: dict[tuple[Address, int], int]) -> Payload:
    return record(ledger=map_kv((pair(addr(o), nat(t)), nat(v)) for (o, t), v in balances.items()))


def init(chain: Chain, ctx: ContractCallContext, setup_p: Payload) -> Fa2State:
    require(ctx.amount == 0)
    return some(decode_state(setup_p))


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
    debited = some(credit(state.ledger, (from_, token_id), -value))
    return Fa2State(credit(debited, (to, token_id), value)), []


def balance_of(
    chain: Chain, ctx: ContractCallContext, state: Fa2State, requests: Payload, callback: Address
) -> Result:
    require(isinstance(requests, PList))
    responses = []
    for req in requests.items:
        owner, token_id = some(_read_key(req))
        responses.append(pair(req, nat(ledger_balance(state, owner, token_id))))
    op = Call(to=callback, amount=0, payload=Tag("receive_balance_of", plist(responses)))
    return state, [op]


# Entrypoint name -> ``chain.Entrypoint``.  ``balance_of`` checks the shape
# of its requests list itself.
_ENTRYPOINTS = {
    "transfer": (transfer, *fields(**{"from": ADDR}, to=ADDR, tokenId=NAT, value=NAT)),
    "balance_of": (balance_of, *fields(requests=ANY, callback=ADDR)),
}


def make_contract() -> ContractRef:
    return build_contract("fa2", init, encode_state, _ENTRYPOINTS, non_payable)
