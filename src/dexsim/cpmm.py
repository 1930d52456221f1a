"""The constant-product market maker contract.

Eleven entrypoints: trades between tez and tokens at a 0.3% fee
(997/1000), liquidity deposit/withdrawal, the manual token-pool
resynchronisation pair (request + balance callback), three admin setters,
and a donation default.  The contract speaks FA2 to its token contract
and mint_or_burn to its liquidity token.

Because it receives FA2 balance callbacks, its message type is the
receiver envelope: own entrypoints arrive wrapped in ``other_msg`` and
the callback arrives as a bare ``receive_balance_of`` tag.

Every entrypoint returns ``None`` on failure; the execution layer then
rejects the whole block.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Optional

from .address import NULL_ADDRESS, Address
from .arith import amount_to_nat, ceildiv_opt, div_opt, sub_opt
from .chain import ActionBody, Call, Chain, ContractCallContext, ContractRef, Transfer
from .payload import (
    Pair,
    Payload,
    PList,
    Tag,
    addr,
    as_addr,
    as_bool,
    as_nat,
    boolean,
    integer,
    nat,
    pair,
    plist,
    rec_decode,
    record,
)

FEE_NUM = 997
FEE_DEN = 1000

Result = Optional[tuple[Payload, list[ActionBody]]]

MUTATIONS = (
    "default_no_credit",
    "drop_min_tokens_guard",
    "floor_tokens_deposited",
)


@dataclass(frozen=True)
class CpmmState:
    tokenPool: int
    xtzPool: int
    lqtTotal: int
    selfIsUpdatingTokenPool: bool
    freezeBaker: bool
    manager: Address
    tokenAddress: Address
    tokenId: int
    lqtAddress: Address  # NULL_ADDRESS until set_lqt_address


@dataclass(frozen=True)
class CpmmSetup:
    lqtTotal_: int
    manager_: Address
    tokenAddress_: Address
    tokenId_: int


def encode_state(s: CpmmState) -> Payload:
    return record(
        tokenPool=nat(s.tokenPool),
        xtzPool=nat(s.xtzPool),
        lqtTotal=nat(s.lqtTotal),
        selfIsUpdatingTokenPool=boolean(s.selfIsUpdatingTokenPool),
        freezeBaker=boolean(s.freezeBaker),
        manager=addr(s.manager),
        tokenAddress=addr(s.tokenAddress),
        tokenId=nat(s.tokenId),
        lqtAddress=addr(s.lqtAddress),
    )


# Records are keyed by the dataclass field names, in the dataclass order.
_STATE_FIELDS = tuple(f.name for f in fields(CpmmState))
_STATE_READERS = (as_nat, as_nat, as_nat, as_bool, as_bool, as_addr, as_addr, as_nat, as_addr)
_SETUP_FIELDS = tuple(f.name for f in fields(CpmmSetup))
_SETUP_READERS = (as_nat, as_addr, as_addr, as_nat)


def decode_state(p: Payload) -> Optional[CpmmState]:
    vals = rec_decode(p, _STATE_FIELDS, _STATE_READERS)
    return None if vals is None else CpmmState(*vals)


def encode_setup(s: CpmmSetup) -> Payload:
    return record(
        lqtTotal_=nat(s.lqtTotal_),
        manager_=addr(s.manager_),
        tokenAddress_=addr(s.tokenAddress_),
        tokenId_=nat(s.tokenId_),
    )


def decode_setup(p: Payload) -> Optional[CpmmSetup]:
    vals = rec_decode(p, _SETUP_FIELDS, _SETUP_READERS)
    return None if vals is None else CpmmSetup(*vals)


# -- emitted messages --------------------------------------------------------


def token_transfer_msg(sender: Address, to: Address, token_id: int, value: int) -> Payload:
    return Tag(
        "transfer",
        record(**{"from": addr(sender), "to": addr(to), "tokenId": nat(token_id), "value": nat(value)}),
    )


def mint_or_burn_msg(quantity: int, target: Address) -> Payload:
    return Tag("mint_or_burn", record(quantity=integer(quantity), target=addr(target)))


def balance_of_msg(owner: Address, token_id: int, callback: Address) -> Payload:
    return Tag(
        "balance_of",
        record(requests=plist([pair(addr(owner), nat(token_id))]), callback=addr(callback)),
    )


# -- entrypoints -------------------------------------------------------------


def init(chain: Chain, ctx: ContractCallContext, setup_p: Payload) -> Optional[Payload]:
    setup = decode_setup(setup_p)
    if setup is None:
        return None
    if ctx.amount != 0:
        return None
    state = CpmmState(
        tokenPool=0,
        xtzPool=0,
        lqtTotal=setup.lqtTotal_,
        selfIsUpdatingTokenPool=False,
        freezeBaker=False,
        manager=setup.manager_,
        tokenAddress=setup.tokenAddress_,
        tokenId=setup.tokenId_,
        lqtAddress=NULL_ADDRESS,
    )
    return encode_state(state)


def _live(s: CpmmState) -> bool:
    return not s.selfIsUpdatingTokenPool


def _fresh(chain: Chain, deadline: int) -> bool:
    return chain.current_slot < deadline


def trade_output(amount_in: int, pool_in: int, pool_out: int) -> Optional[int]:
    """What a trade of ``amount_in`` into ``pool_in`` buys from ``pool_out``
    after the fee; None when both sides of the quote are empty."""
    return div_opt(amount_in * FEE_NUM * pool_out, pool_in * FEE_DEN + amount_in * FEE_NUM)


def xtz_to_token(
    chain: Chain,
    ctx: ContractCallContext,
    state: CpmmState,
    to: Address,
    min_tokens_bought: int,
    deadline: int,
    mutation: Optional[str] = None,
) -> Optional[tuple[CpmmState, list[ActionBody]]]:
    if not _live(state) or not _fresh(chain, deadline):
        return None
    amount = amount_to_nat(ctx.amount)
    tokens_bought = trade_output(amount, state.xtzPool, state.tokenPool)
    if tokens_bought is None:
        return None
    if mutation != "drop_min_tokens_guard" and tokens_bought < min_tokens_bought:
        return None
    new_token_pool = sub_opt(state.tokenPool, tokens_bought)
    if new_token_pool is None:
        return None
    new_state = replace(state, xtzPool=state.xtzPool + amount, tokenPool=new_token_pool)
    op = Call(
        to=state.tokenAddress,
        amount=0,
        payload=token_transfer_msg(ctx.contract_address, to, state.tokenId, tokens_bought),
    )
    return new_state, [op]


def _token_sale(state: CpmmState, tokens_sold: int) -> Optional[tuple[CpmmState, int]]:
    """Shared input leg of token_to_xtz / token_to_token: price the sale
    and move the pools."""
    xtz_bought = trade_output(tokens_sold, state.tokenPool, state.xtzPool)
    if xtz_bought is None:
        return None
    new_xtz_pool = sub_opt(state.xtzPool, xtz_bought)
    if new_xtz_pool is None:
        return None
    new_state = replace(state, tokenPool=state.tokenPool + tokens_sold, xtzPool=new_xtz_pool)
    return new_state, xtz_bought


def token_to_xtz(
    chain: Chain,
    ctx: ContractCallContext,
    state: CpmmState,
    to: Address,
    tokens_sold: int,
    min_xtz_bought: int,
    deadline: int,
) -> Optional[tuple[CpmmState, list[ActionBody]]]:
    if not _live(state) or not _fresh(chain, deadline) or ctx.amount != 0:
        return None
    sale = _token_sale(state, tokens_sold)
    if sale is None:
        return None
    new_state, xtz_bought = sale
    if xtz_bought < min_xtz_bought:
        return None
    pull = Call(
        to=state.tokenAddress,
        amount=0,
        payload=token_transfer_msg(ctx.sender, ctx.contract_address, state.tokenId, tokens_sold),
    )
    payout = Transfer(to=to, amount=xtz_bought)
    return new_state, [pull, payout]


def token_to_token(
    chain: Chain,
    ctx: ContractCallContext,
    state: CpmmState,
    output_dexter: Address,
    to: Address,
    tokens_sold: int,
    min_tokens_bought: int,
    deadline: int,
) -> Optional[tuple[CpmmState, list[ActionBody]]]:
    if not _live(state) or not _fresh(chain, deadline) or ctx.amount != 0:
        return None
    sale = _token_sale(state, tokens_sold)
    if sale is None:
        return None
    # The min-tokens check is deferred to the output exchange.
    new_state, xtz_bought = sale
    pull = Call(
        to=state.tokenAddress,
        amount=0,
        payload=token_transfer_msg(ctx.sender, ctx.contract_address, state.tokenId, tokens_sold),
    )
    forward = Call(
        to=output_dexter,
        amount=xtz_bought,
        payload=Tag(
            "other_msg",
            Tag(
                "xtz_to_token",
                record(to=addr(to), minTokensBought=nat(min_tokens_bought), deadline=nat(deadline)),
            ),
        ),
    )
    return new_state, [pull, forward]


def add_liquidity(
    chain: Chain,
    ctx: ContractCallContext,
    state: CpmmState,
    owner: Address,
    min_lqt_minted: int,
    max_tokens_deposited: int,
    deadline: int,
    mutation: Optional[str] = None,
) -> Optional[tuple[CpmmState, list[ActionBody]]]:
    if not _live(state) or not _fresh(chain, deadline):
        return None
    if state.lqtAddress == NULL_ADDRESS:
        return None
    amount = amount_to_nat(ctx.amount)
    lqt_minted = div_opt(amount * state.lqtTotal, state.xtzPool)
    if mutation == "floor_tokens_deposited":
        tokens_deposited = div_opt(amount * state.tokenPool, state.xtzPool)
    else:
        # Ceiling keeps rounding in the pool's favour.
        tokens_deposited = ceildiv_opt(amount * state.tokenPool, state.xtzPool)
    if lqt_minted is None or tokens_deposited is None:
        return None
    if tokens_deposited > max_tokens_deposited or lqt_minted < min_lqt_minted:
        return None
    new_state = replace(
        state,
        xtzPool=state.xtzPool + amount,
        tokenPool=state.tokenPool + tokens_deposited,
        lqtTotal=state.lqtTotal + lqt_minted,
    )
    pull = Call(
        to=state.tokenAddress,
        amount=0,
        payload=token_transfer_msg(ctx.sender, ctx.contract_address, state.tokenId, tokens_deposited),
    )
    mint = Call(to=state.lqtAddress, amount=0, payload=mint_or_burn_msg(lqt_minted, owner))
    return new_state, [pull, mint]


def remove_liquidity(
    chain: Chain,
    ctx: ContractCallContext,
    state: CpmmState,
    to: Address,
    lqt_burned: int,
    min_xtz_withdrawn: int,
    min_tokens_withdrawn: int,
    deadline: int,
) -> Optional[tuple[CpmmState, list[ActionBody]]]:
    if not _live(state) or not _fresh(chain, deadline) or ctx.amount != 0:
        return None
    if state.lqtAddress == NULL_ADDRESS:
        return None
    xtz_withdrawn = div_opt(lqt_burned * state.xtzPool, state.lqtTotal)
    tokens_withdrawn = div_opt(lqt_burned * state.tokenPool, state.lqtTotal)
    if xtz_withdrawn is None or tokens_withdrawn is None:
        return None
    if xtz_withdrawn < min_xtz_withdrawn or tokens_withdrawn < min_tokens_withdrawn:
        return None
    new_lqt = sub_opt(state.lqtTotal, lqt_burned)
    new_xtz = sub_opt(state.xtzPool, xtz_withdrawn)
    new_tokens = sub_opt(state.tokenPool, tokens_withdrawn)
    if new_lqt is None or new_xtz is None or new_tokens is None:
        return None
    new_state = replace(state, lqtTotal=new_lqt, xtzPool=new_xtz, tokenPool=new_tokens)
    burn = Call(to=state.lqtAddress, amount=0, payload=mint_or_burn_msg(-lqt_burned, ctx.sender))
    push = Call(
        to=state.tokenAddress,
        amount=0,
        payload=token_transfer_msg(ctx.contract_address, to, state.tokenId, tokens_withdrawn),
    )
    payout = Transfer(to=to, amount=xtz_withdrawn)
    return new_state, [burn, push, payout]


def update_token_pool(
    chain: Chain, ctx: ContractCallContext, state: CpmmState
) -> Optional[tuple[CpmmState, list[ActionBody]]]:
    # Only user-initiated (sender = origin) so a contract cannot race the
    # callback; re-entry is blocked by the flag itself.
    if ctx.amount != 0 or ctx.sender != ctx.origin:
        return None
    if state.selfIsUpdatingTokenPool:
        return None
    new_state = replace(state, selfIsUpdatingTokenPool=True)
    req = Call(
        to=state.tokenAddress,
        amount=0,
        payload=balance_of_msg(ctx.contract_address, state.tokenId, ctx.contract_address),
    )
    return new_state, [req]


def update_token_pool_internal(
    chain: Chain,
    ctx: ContractCallContext,
    state: CpmmState,
    responses: Payload,
) -> Optional[tuple[CpmmState, list[ActionBody]]]:
    if ctx.amount != 0 or not state.selfIsUpdatingTokenPool:
        return None
    if ctx.sender != state.tokenAddress:
        return None
    if not isinstance(responses, PList) or not responses.items:
        return None
    balance = None
    for item in responses.items:
        # Each response pairs (owner, tokenId) with the reported balance.
        if not isinstance(item, Pair) or not isinstance(item.first, Pair):
            return None
        owner = as_addr(item.first.first)
        token_id = as_nat(item.first.second)
        value = as_nat(item.second)
        if owner is None or token_id is None or value is None:
            return None
        if owner == ctx.contract_address and token_id == state.tokenId:
            balance = value
    if balance is None:
        return None
    new_state = replace(state, tokenPool=balance, selfIsUpdatingTokenPool=False)
    return new_state, []


def set_baker(
    chain: Chain, ctx: ContractCallContext, state: CpmmState, freeze_baker: bool
) -> Optional[tuple[CpmmState, list[ActionBody]]]:
    if ctx.amount != 0 or ctx.sender != state.manager or state.freezeBaker:
        return None
    # No delegation action: the action vocabulary has no baker delegation.
    return replace(state, freezeBaker=freeze_baker), []


def set_manager(
    chain: Chain, ctx: ContractCallContext, state: CpmmState, new_manager: Address
) -> Optional[tuple[CpmmState, list[ActionBody]]]:
    if ctx.amount != 0 or ctx.sender != state.manager:
        return None
    return replace(state, manager=new_manager), []


def set_lqt_address(
    chain: Chain, ctx: ContractCallContext, state: CpmmState, lqt_address: Address
) -> Optional[tuple[CpmmState, list[ActionBody]]]:
    if ctx.amount != 0 or ctx.sender != state.manager:
        return None
    if state.lqtAddress != NULL_ADDRESS:
        return None
    return replace(state, lqtAddress=lqt_address), []


def default(
    chain: Chain,
    ctx: ContractCallContext,
    state: CpmmState,
    mutation: Optional[str] = None,
) -> Optional[tuple[CpmmState, list[ActionBody]]]:
    # Donations are blocked while a token-pool update is in flight.
    if not _live(state):
        return None
    if mutation == "default_no_credit":
        return state, []
    return replace(state, xtzPool=state.xtzPool + amount_to_nat(ctx.amount)), []


# -- dispatcher --------------------------------------------------------------


# Entrypoint name -> (handler, whether it takes the mutation, the fields of
# its record argument and their readers).  ``default`` and
# ``update_token_pool`` take no argument and are dispatched before this table.
_ENTRYPOINTS = {
    "xtz_to_token": (
        xtz_to_token, True, ("to", "minTokensBought", "deadline"), (as_addr, as_nat, as_nat)
    ),
    "token_to_xtz": (
        token_to_xtz,
        False,
        ("to", "tokensSold", "minXtzBought", "deadline"),
        (as_addr, as_nat, as_nat, as_nat),
    ),
    "token_to_token": (
        token_to_token,
        False,
        ("outputDexter", "to", "tokensSold", "minTokensBought", "deadline"),
        (as_addr, as_addr, as_nat, as_nat, as_nat),
    ),
    "add_liquidity": (
        add_liquidity,
        True,
        ("owner", "minLqtMinted", "maxTokensDeposited", "deadline"),
        (as_addr, as_nat, as_nat, as_nat),
    ),
    "remove_liquidity": (
        remove_liquidity,
        False,
        ("to", "lqtBurned", "minXtzWithdrawn", "minTokensWithdrawn", "deadline"),
        (as_addr, as_nat, as_nat, as_nat, as_nat),
    ),
    "set_baker": (set_baker, False, ("freezeBaker",), (as_bool,)),
    "set_manager": (set_manager, False, ("newManager",), (as_addr,)),
    "set_lqt_address": (set_lqt_address, False, ("addr",), (as_addr,)),
}


def _dispatch(
    chain: Chain,
    ctx: ContractCallContext,
    state: CpmmState,
    msg: Optional[Payload],
    mutation: Optional[str],
) -> Optional[tuple[CpmmState, list[ActionBody]]]:
    if msg is None:
        return default(chain, ctx, state, mutation)
    if not isinstance(msg, Tag):
        return None
    if msg.name == "receive_balance_of":
        return update_token_pool_internal(chain, ctx, state, msg.arg)
    inner = msg.arg
    if msg.name != "other_msg" or not isinstance(inner, Tag):
        return None
    if inner.name == "default":
        return default(chain, ctx, state, mutation)
    if inner.name == "update_token_pool":
        return update_token_pool(chain, ctx, state)
    entry = _ENTRYPOINTS.get(inner.name)
    if entry is None:
        return None
    handler, takes_mutation, names, readers = entry
    args = rec_decode(inner.arg, names, readers)
    if args is None:
        return None
    if takes_mutation:
        return handler(chain, ctx, state, *args, mutation)
    return handler(chain, ctx, state, *args)


def make_contract(mutation: Optional[str] = None) -> ContractRef:
    if mutation is not None and mutation not in MUTATIONS:
        raise ValueError(f"unknown cpmm mutation: {mutation}")

    def receive(chain: Chain, ctx: ContractCallContext, state_p: Payload, msg):
        state = decode_state(state_p)
        if state is None:
            return None
        result = _dispatch(chain, ctx, state, msg, mutation)
        if result is None:
            return None
        new_state, ops = result
        return encode_state(new_state), ops

    name = "cpmm" if mutation is None else f"cpmm[{mutation}]"
    return ContractRef(name=name, init=init, receive=receive)
