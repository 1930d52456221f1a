"""The constant-product market maker contract.

Eleven entrypoints: trades between tez and tokens at a 0.3% fee
(997/1000), liquidity deposit/withdrawal, the manual token-pool
resynchronisation pair (request + balance callback), three admin setters,
and a donation default.  The contract speaks FA2 to its token contract
and mint_or_burn to its liquidity token.

Because it receives FA2 balance callbacks, its message type is the
receiver envelope: own entrypoints arrive wrapped in ``other_msg`` and
the callback arrives as a bare ``receive_balance_of`` tag.

``init`` and every entrypoint refuse a deploy or a call through
``chain.require``/``chain.some``; the shell returns ``None`` for it, and the
execution layer then rejects the whole block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .address import NULL_ADDRESS, Address
from .arith import amount_to_nat, ceildiv_opt, div_opt, sub_opt
from .chain import ActionBody, Call, Chain, ContractCallContext, ContractRef, Transfer
from .chain import build_contract, mutant, replace, require, some
from .payload import (
    ADDR,
    ANY,
    BOOL,
    NAT,
    Payload,
    PList,
    Tag,
    UNIT,
    addr,
    check_nats,
    codec,
    fields,
    integer,
    nat,
    pair,
    pair_of,
    plist,
    record,
    wrap_receiver,
)

FEE_NUM = 997
FEE_DEN = 1000

Result = tuple["CpmmState", list[ActionBody]]

# Test mutants, each a ``chain.mutant`` patch: (entrypoint, handler text, replacement).
MUTATIONS = {
    "default_no_credit":
        ("default", "replace(state, xtzPool=state.xtzPool + amount_to_nat(ctx.amount))", "state"),
    "drop_min_tokens_guard":
        ("xtz_to_token", "require(tokens_bought >= min_tokens_bought)", "pass"),
    "floor_tokens_deposited": ("add_liquidity", "ceildiv_opt(", "div_opt("),
}


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

    def __post_init__(self) -> None:
        check_nats(self.tokenPool, self.xtzPool, self.lqtTotal, self.tokenId)


@dataclass(frozen=True, slots=True)
class CpmmSetup:
    lqtTotal_: int
    manager_: Address
    tokenAddress_: Address
    tokenId_: int


encode_state, decode_state = codec(
    CpmmState,
    tokenPool=NAT,
    xtzPool=NAT,
    lqtTotal=NAT,
    selfIsUpdatingTokenPool=BOOL,
    freezeBaker=BOOL,
    manager=ADDR,
    tokenAddress=ADDR,
    tokenId=NAT,
    lqtAddress=ADDR,
)
encode_setup, decode_setup = codec(
    CpmmSetup, lqtTotal_=NAT, manager_=ADDR, tokenAddress_=ADDR, tokenId_=NAT
)


# -- emitted messages --------------------------------------------------------


def token_transfer_msg(sender: Address, to: Address, token_id: int, value: int) -> Payload:
    return Tag(
        "transfer",
        record(**{"from": addr(sender), "to": addr(to), "tokenId": nat(token_id), "value": nat(value)}),
    )


def token_transfer(state: CpmmState, from_: Address, to: Address, value: int) -> Call:
    """The FA2 call moving ``value`` of the exchange's token (Dexter2's ``token_transfer``)."""
    return Call(state.tokenAddress, 0, token_transfer_msg(from_, to, state.tokenId, value))


def xtz_to_token_arg(to: Address, min_tokens_bought: int, deadline: int) -> Payload:
    return record(to=addr(to), minTokensBought=nat(min_tokens_bought), deadline=nat(deadline))


def mint_or_burn_msg(quantity: int, target: Address) -> Payload:
    return Tag("mint_or_burn", record(quantity=integer(quantity), target=addr(target)))


def balance_of_msg(owner: Address, token_id: int, callback: Address) -> Payload:
    return Tag(
        "balance_of",
        record(requests=plist([pair(addr(owner), nat(token_id))]), callback=addr(callback)),
    )


# -- entrypoints -------------------------------------------------------------


def init(chain: Chain, ctx: ContractCallContext, setup_p: Payload) -> CpmmState:
    setup = some(decode_setup(setup_p))
    require(ctx.amount == 0)
    return CpmmState(
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
) -> Result:
    require(_live(state) and _fresh(chain, deadline))
    amount = amount_to_nat(ctx.amount)
    tokens_bought = some(trade_output(amount, state.xtzPool, state.tokenPool))
    require(tokens_bought >= min_tokens_bought)
    new_token_pool = some(sub_opt(state.tokenPool, tokens_bought))
    new_state = replace(state, xtzPool=state.xtzPool + amount, tokenPool=new_token_pool)
    return new_state, [token_transfer(state, ctx.contract_address, to, tokens_bought)]


def _token_sale(state: CpmmState, tokens_sold: int) -> tuple[CpmmState, int]:
    """Shared input leg of token_to_xtz / token_to_token: price the sale
    and move the pools."""
    xtz_bought = some(trade_output(tokens_sold, state.tokenPool, state.xtzPool))
    new_xtz_pool = some(sub_opt(state.xtzPool, xtz_bought))
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
) -> Result:
    require(_live(state) and _fresh(chain, deadline) and ctx.amount == 0)
    new_state, xtz_bought = _token_sale(state, tokens_sold)
    require(xtz_bought >= min_xtz_bought)
    pull = token_transfer(state, ctx.sender, ctx.contract_address, tokens_sold)
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
) -> Result:
    require(_live(state) and _fresh(chain, deadline) and ctx.amount == 0)
    # The min-tokens check is deferred to the output exchange.
    new_state, xtz_bought = _token_sale(state, tokens_sold)
    pull = token_transfer(state, ctx.sender, ctx.contract_address, tokens_sold)
    arg = xtz_to_token_arg(to, min_tokens_bought, deadline)
    forward = Call(output_dexter, xtz_bought, wrap_receiver(Tag("xtz_to_token", arg)))
    return new_state, [pull, forward]


def add_liquidity(
    chain: Chain,
    ctx: ContractCallContext,
    state: CpmmState,
    owner: Address,
    min_lqt_minted: int,
    max_tokens_deposited: int,
    deadline: int,
) -> Result:
    require(_live(state) and _fresh(chain, deadline) and state.lqtAddress != NULL_ADDRESS)
    amount = amount_to_nat(ctx.amount)
    lqt_minted = some(div_opt(amount * state.lqtTotal, state.xtzPool))
    # Ceiling keeps rounding in the pool's favour.
    tokens_deposited = some(ceildiv_opt(amount * state.tokenPool, state.xtzPool))
    require(tokens_deposited <= max_tokens_deposited and lqt_minted >= min_lqt_minted)
    new_state = replace(
        state,
        xtzPool=state.xtzPool + amount,
        tokenPool=state.tokenPool + tokens_deposited,
        lqtTotal=state.lqtTotal + lqt_minted,
    )
    pull = token_transfer(state, ctx.sender, ctx.contract_address, tokens_deposited)
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
) -> Result:
    require(_live(state) and _fresh(chain, deadline) and ctx.amount == 0)
    require(state.lqtAddress != NULL_ADDRESS)
    xtz_withdrawn = some(div_opt(lqt_burned * state.xtzPool, state.lqtTotal))
    tokens_withdrawn = some(div_opt(lqt_burned * state.tokenPool, state.lqtTotal))
    require(xtz_withdrawn >= min_xtz_withdrawn and tokens_withdrawn >= min_tokens_withdrawn)
    new_state = replace(
        state,
        lqtTotal=some(sub_opt(state.lqtTotal, lqt_burned)),
        xtzPool=some(sub_opt(state.xtzPool, xtz_withdrawn)),
        tokenPool=some(sub_opt(state.tokenPool, tokens_withdrawn)),
    )
    burn = Call(to=state.lqtAddress, amount=0, payload=mint_or_burn_msg(-lqt_burned, ctx.sender))
    push = token_transfer(state, ctx.contract_address, to, tokens_withdrawn)
    payout = Transfer(to=to, amount=xtz_withdrawn)
    return new_state, [burn, push, payout]


def update_token_pool(chain: Chain, ctx: ContractCallContext, state: CpmmState) -> Result:
    # Only user-initiated (sender = origin) so a contract cannot race the
    # callback; re-entry is blocked by the flag itself.
    require(ctx.amount == 0 and ctx.sender == ctx.origin and not state.selfIsUpdatingTokenPool)
    new_state = replace(state, selfIsUpdatingTokenPool=True)
    msg = balance_of_msg(ctx.contract_address, state.tokenId, ctx.contract_address)
    return new_state, [Call(state.tokenAddress, 0, msg)]


# Each balance response pairs (owner, tokenId) with the reported balance.
_, _read_response = pair_of(pair_of(ADDR, NAT), NAT)


def update_token_pool_internal(
    chain: Chain,
    ctx: ContractCallContext,
    state: CpmmState,
    responses: Payload,
) -> Result:
    require(ctx.amount == 0 and state.selfIsUpdatingTokenPool and ctx.sender == state.tokenAddress)
    require(isinstance(responses, PList) and len(responses.items) > 0)
    balance = None
    for item in responses.items:
        (owner, token_id), value = some(_read_response(item))
        if owner == ctx.contract_address and token_id == state.tokenId:
            balance = value
    new_state = replace(state, tokenPool=some(balance), selfIsUpdatingTokenPool=False)
    return new_state, []


def set_baker(
    chain: Chain, ctx: ContractCallContext, state: CpmmState, freeze_baker: bool
) -> Result:
    require(ctx.amount == 0 and ctx.sender == state.manager and not state.freezeBaker)
    # No delegation action: the action vocabulary has no baker delegation.
    return replace(state, freezeBaker=freeze_baker), []


def set_manager(
    chain: Chain, ctx: ContractCallContext, state: CpmmState, new_manager: Address
) -> Result:
    require(ctx.amount == 0 and ctx.sender == state.manager)
    return replace(state, manager=new_manager), []


def set_lqt_address(
    chain: Chain, ctx: ContractCallContext, state: CpmmState, lqt_address: Address
) -> Result:
    require(ctx.amount == 0 and ctx.sender == state.manager and state.lqtAddress == NULL_ADDRESS)
    return replace(state, lqtAddress=lqt_address), []


def default(chain: Chain, ctx: ContractCallContext, state: CpmmState) -> Result:
    # Donations are blocked while a token-pool update is in flight.
    require(_live(state))
    return replace(state, xtzPool=state.xtzPool + amount_to_nat(ctx.amount)), []


# -- dispatcher --------------------------------------------------------------


# Entrypoint name -> ``chain.Entrypoint``.  ``default`` and
# ``update_token_pool`` take no argument, so they accept any.
_ENTRYPOINTS = {
    "xtz_to_token": (xtz_to_token, *fields(to=ADDR, minTokensBought=NAT, deadline=NAT)),
    "token_to_xtz": (
        token_to_xtz, *fields(to=ADDR, tokensSold=NAT, minXtzBought=NAT, deadline=NAT)
    ),
    "token_to_token": (
        token_to_token,
        *fields(outputDexter=ADDR, to=ADDR, tokensSold=NAT, minTokensBought=NAT, deadline=NAT),
    ),
    "add_liquidity": (
        add_liquidity,
        *fields(owner=ADDR, minLqtMinted=NAT, maxTokensDeposited=NAT, deadline=NAT),
    ),
    "remove_liquidity": (
        remove_liquidity,
        *fields(
            to=ADDR, lqtBurned=NAT, minXtzWithdrawn=NAT, minTokensWithdrawn=NAT, deadline=NAT
        ),
    ),
    "set_baker": (set_baker, *fields(freezeBaker=BOOL)),
    "set_manager": (set_manager, *fields(newManager=ADDR)),
    "set_lqt_address": (set_lqt_address, *fields(addr=ADDR)),
    "default": (default, *fields()),
    "update_token_pool": (update_token_pool, *fields()),
    "receive_balance_of": (update_token_pool_internal, *fields(responses=ANY)),
}


def _envelope(ctx: ContractCallContext, msg: Optional[Payload]) -> Optional[tuple]:
    """The receiver envelope; a plain transfer is ``default``.  The callback's
    list argument is read as the field ``responses``."""
    if msg is None:
        return "default", UNIT
    if not isinstance(msg, Tag):
        return None
    if msg.name == "receive_balance_of":
        return msg.name, record(responses=msg.arg)
    inner = msg.arg
    if msg.name != "other_msg" or not isinstance(inner, Tag) or inner.name == "receive_balance_of":
        return None
    return inner.name, inner.arg


def make_contract(mutation: Optional[str] = None) -> ContractRef:
    name, entrypoints = mutant("cpmm", _ENTRYPOINTS, MUTATIONS, mutation)
    return build_contract(name, init, encode_state, entrypoints, _envelope)
