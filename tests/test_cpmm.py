"""Exchange entrypoint behaviour, pinned against hand-computed values.

The numeric expectations were computed independently with exact rational
arithmetic and frozen here: pools 1000/1000 with a 100 mutez input buy 90
tokens (floor of 99,700,000 / 1,099,700), the token-to-token output leg
on a fresh second exchange yields 82 (floor of 89,730,000 / 1,089,730),
and the liquidity examples use pools x=1000, t=500, l=10.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dexsim import cpmm
from dexsim.address import CONTRACT, NULL_ADDRESS, USER, Address, contract, user
from dexsim.chain import Call, Chain, ContractCallContext, Refused, Transfer
from dexsim.payload import (
    Tag,
    addr,
    nat,
    pair,
    plist,
    rec_get,
    record,
)

MAIN = contract(2)
TOKEN = contract(1)
LQT = contract(3)
MANAGER = user(0)
TRADER = user(1)


def mk_state(token_pool=1000, xtz_pool=1000, lqt_total=10, **kw):
    base = dict(
        tokenPool=token_pool,
        xtzPool=xtz_pool,
        lqtTotal=lqt_total,
        selfIsUpdatingTokenPool=False,
        freezeBaker=False,
        manager=MANAGER,
        tokenAddress=TOKEN,
        tokenId=0,
        lqtAddress=LQT,
    )
    base.update(kw)
    return cpmm.CpmmState(**base)


def mk_ctx(sender=TRADER, amount=0, origin=None, balance=10**6):
    return ContractCallContext(
        origin=origin or sender,
        sender=sender,
        contract_address=MAIN,
        contract_balance=balance,
        amount=amount,
    )


CHAIN = Chain(chain_height=5, current_slot=5, finalized_height=4)
FRESH = 10
STALE = 5  # freshness is strict: slot 5 < deadline must hold


def test_state_codec_round_trip():
    s = mk_state()
    assert cpmm.decode_state(cpmm.encode_state(s)) == s


addresses = st.builds(Address, st.sampled_from([USER, CONTRACT]), st.integers(0, 5))
nats = st.integers(0, 10**30)


@given(st.builds(cpmm.CpmmState, nats, nats, nats, st.booleans(), st.booleans(),
                 addresses, addresses, nats, addresses))
def test_state_codec_round_trips_every_state(s):
    # A contract's ``receive`` stamps the payload it encodes with the state
    # itself, which is sound only while this holds for every state.
    assert cpmm.decode_state(cpmm.encode_state(s)) == s


def test_setup_codec_round_trip():
    su = cpmm.CpmmSetup(1000, MANAGER, TOKEN, 0)
    assert cpmm.decode_setup(cpmm.encode_setup(su)) == su


def test_init_zeroes_pools_and_nulls_lqt():
    setup = cpmm.encode_setup(cpmm.CpmmSetup(1000, MANAGER, TOKEN, 0))
    out = cpmm.init(CHAIN, mk_ctx(amount=0), setup)
    assert out is not None
    s = cpmm.decode_state(out)
    assert s == mk_state(token_pool=0, xtz_pool=0, lqt_total=1000, lqtAddress=NULL_ADDRESS)


def test_init_rejects_nonzero_endowment():
    setup = cpmm.encode_setup(cpmm.CpmmSetup(1000, MANAGER, TOKEN, 0))
    assert cpmm.init(CHAIN, mk_ctx(amount=1), setup) is None


# -- xtz_to_token -------------------------------------------------------------


def test_xtz_to_token_frozen_example():
    out = cpmm.xtz_to_token(CHAIN, mk_ctx(amount=100), mk_state(), TRADER, 90, FRESH)
    assert out is not None
    new_state, ops = out
    assert new_state.tokenPool == 910
    assert new_state.xtzPool == 1100
    assert ops == [
        Call(TOKEN, 0, cpmm.token_transfer_msg(MAIN, TRADER, 0, 90))
    ]


def test_xtz_to_token_min_tokens_guard():
    with pytest.raises(Refused):
        cpmm.xtz_to_token(CHAIN, mk_ctx(amount=100), mk_state(), TRADER, 91, FRESH)


def test_xtz_to_token_stale_deadline():
    with pytest.raises(Refused):
        cpmm.xtz_to_token(CHAIN, mk_ctx(amount=100), mk_state(), TRADER, 0, STALE)


def test_xtz_to_token_blocked_while_updating():
    s = mk_state(selfIsUpdatingTokenPool=True)
    with pytest.raises(Refused):
        cpmm.xtz_to_token(CHAIN, mk_ctx(amount=100), s, TRADER, 0, FRESH)


def test_xtz_to_token_keeps_product_non_decreasing():
    s = mk_state()
    out = cpmm.xtz_to_token(CHAIN, mk_ctx(amount=100), s, TRADER, 0, FRESH)
    assert out is not None
    new_state, _ = out
    assert new_state.xtzPool * new_state.tokenPool >= s.xtzPool * s.tokenPool


def test_xtz_to_token_empty_pool_edge_cases():
    s = mk_state(token_pool=0, xtz_pool=0)
    # With a nonzero input the denominator is nonzero: zero tokens bought.
    out = cpmm.xtz_to_token(CHAIN, mk_ctx(amount=100), s, TRADER, 0, FRESH)
    assert out is not None and out[0].tokenPool == 0
    # A zero input against an empty pool divides by zero and fails.
    with pytest.raises(Refused):
        cpmm.xtz_to_token(CHAIN, mk_ctx(amount=0), s, TRADER, 0, FRESH)


def test_drop_min_tokens_guard_mutation_lets_slippage_through():
    out = cpmm.xtz_to_token(
        CHAIN, mk_ctx(amount=100), mk_state(), TRADER, 91, FRESH,
        mutation="drop_min_tokens_guard",
    )
    assert out is not None
    assert out[0].tokenPool == 910


# -- token_to_xtz -------------------------------------------------------------


def test_token_to_xtz_frozen_example():
    out = cpmm.token_to_xtz(CHAIN, mk_ctx(), mk_state(), TRADER, 100, 90, FRESH)
    assert out is not None
    new_state, ops = out
    assert new_state.tokenPool == 1100
    assert new_state.xtzPool == 910
    # Pull the sold tokens from the seller first, then pay out the tez.
    assert ops == [
        Call(TOKEN, 0, cpmm.token_transfer_msg(TRADER, MAIN, 0, 100)),
        Transfer(TRADER, 90),
    ]


def test_token_to_xtz_min_guard_and_payability():
    with pytest.raises(Refused):
        cpmm.token_to_xtz(CHAIN, mk_ctx(), mk_state(), TRADER, 100, 91, FRESH)
    with pytest.raises(Refused):
        cpmm.token_to_xtz(CHAIN, mk_ctx(amount=1), mk_state(), TRADER, 100, 0, FRESH)


# -- token_to_token -----------------------------------------------------------


def test_token_to_token_forwards_bought_xtz():
    out_dexter = contract(5)
    out = cpmm.token_to_token(
        CHAIN, mk_ctx(), mk_state(), out_dexter, TRADER, 100, 80, FRESH
    )
    assert out is not None
    new_state, ops = out
    assert new_state.tokenPool == 1100 and new_state.xtzPool == 910
    pull, forward = ops
    assert pull == Call(TOKEN, 0, cpmm.token_transfer_msg(TRADER, MAIN, 0, 100))
    assert isinstance(forward, Call)
    assert forward.to == out_dexter
    assert forward.amount == 90
    inner = forward.payload
    assert inner == Tag(
        "other_msg",
        Tag("xtz_to_token", record(to=addr(TRADER), minTokensBought=nat(80), deadline=nat(FRESH))),
    )


def test_token_to_token_defers_min_check_to_output_leg():
    # An unreachable minimum does not fail the input leg.
    out = cpmm.token_to_token(
        CHAIN, mk_ctx(), mk_state(), contract(5), TRADER, 100, 10**9, FRESH
    )
    assert out is not None
    # But the forwarded xtz_to_token would fail it on the second exchange.
    forward = out[1][1]
    second = mk_state()
    ctx2 = mk_ctx(sender=MAIN, amount=forward.amount)
    inner = forward.payload.arg.arg
    with pytest.raises(Refused):
        cpmm.xtz_to_token(CHAIN, ctx2, second, TRADER, 10**9, FRESH)
    assert rec_get(inner, "minTokensBought") == nat(10**9)


def test_token_to_token_output_leg_frozen_value():
    # Second exchange with fresh 1000/1000 pools receiving the 90 mutez leg.
    second = mk_state()
    out = cpmm.xtz_to_token(CHAIN, mk_ctx(sender=MAIN, amount=90), second, TRADER, 0, FRESH)
    assert out is not None
    new_state, ops = out
    bought = 1000 - new_state.tokenPool
    assert bought == 82
    assert ops[0].payload == cpmm.token_transfer_msg(MAIN, TRADER, 0, 82)


# -- liquidity ----------------------------------------------------------------


def test_add_liquidity_frozen_example():
    s = mk_state(token_pool=500, xtz_pool=1000, lqt_total=10)
    out = cpmm.add_liquidity(CHAIN, mk_ctx(amount=100), s, TRADER, 0, 50, FRESH)
    assert out is not None
    new_state, ops = out
    # minted = floor(100*10/1000) = 1; deposited = ceil(100*500/1000) = 50
    assert new_state.lqtTotal == 11
    assert new_state.tokenPool == 550
    assert new_state.xtzPool == 1100
    assert ops == [
        Call(TOKEN, 0, cpmm.token_transfer_msg(TRADER, MAIN, 0, 50)),
        Call(LQT, 0, cpmm.mint_or_burn_msg(1, TRADER)),
    ]


def test_add_liquidity_rounds_deposit_up():
    s = mk_state(token_pool=500, xtz_pool=1000, lqt_total=10)
    # 99 mutez: ceil(99*500/1000) = 50 but floor would give 49.
    out = cpmm.add_liquidity(CHAIN, mk_ctx(amount=99), s, TRADER, 0, 100, FRESH)
    assert out is not None
    assert out[0].tokenPool == 550
    floored = cpmm.add_liquidity(
        CHAIN, mk_ctx(amount=99), s, TRADER, 0, 100, FRESH,
        mutation="floor_tokens_deposited",
    )
    assert floored is not None
    assert floored[0].tokenPool == 549


def test_add_liquidity_max_tokens_guard():
    s = mk_state(token_pool=500, xtz_pool=1000, lqt_total=10)
    with pytest.raises(Refused):
        cpmm.add_liquidity(CHAIN, mk_ctx(amount=100), s, TRADER, 0, 49, FRESH)


def test_add_liquidity_needs_lqt_address():
    s = mk_state(token_pool=500, xtz_pool=1000, lqtAddress=NULL_ADDRESS)
    with pytest.raises(Refused):
        cpmm.add_liquidity(CHAIN, mk_ctx(amount=100), s, TRADER, 0, 10**9, FRESH)


def test_remove_liquidity_frozen_example():
    s = mk_state(token_pool=500, xtz_pool=1000, lqt_total=10)
    out = cpmm.remove_liquidity(CHAIN, mk_ctx(), s, TRADER, 2, 200, 100, FRESH)
    assert out is not None
    new_state, ops = out
    assert new_state.lqtTotal == 8
    assert new_state.xtzPool == 800
    assert new_state.tokenPool == 400
    # Burn first, then token push, then the tez payout.
    assert ops == [
        Call(LQT, 0, cpmm.mint_or_burn_msg(-2, TRADER)),
        Call(TOKEN, 0, cpmm.token_transfer_msg(MAIN, TRADER, 0, 100)),
        Transfer(TRADER, 200),
    ]


def test_remove_liquidity_guards():
    s = mk_state(token_pool=500, xtz_pool=1000, lqt_total=10)
    with pytest.raises(Refused):
        cpmm.remove_liquidity(CHAIN, mk_ctx(), s, TRADER, 2, 201, 100, FRESH)
    with pytest.raises(Refused):
        cpmm.remove_liquidity(CHAIN, mk_ctx(), s, TRADER, 2, 200, 101, FRESH)
    with pytest.raises(Refused):
        cpmm.remove_liquidity(CHAIN, mk_ctx(), s, TRADER, 11, 0, 0, FRESH)
    with pytest.raises(Refused):
        cpmm.remove_liquidity(CHAIN, mk_ctx(amount=1), s, TRADER, 2, 0, 0, FRESH)


# -- token pool resync --------------------------------------------------------


def test_update_token_pool_sets_flag_and_requests_balance():
    out = cpmm.update_token_pool(CHAIN, mk_ctx(), mk_state())
    assert out is not None
    new_state, ops = out
    assert new_state.selfIsUpdatingTokenPool
    assert ops == [Call(TOKEN, 0, cpmm.balance_of_msg(MAIN, 0, MAIN))]


def test_update_token_pool_rejects_contract_sender():
    ctx = mk_ctx(sender=contract(7), origin=TRADER)
    with pytest.raises(Refused):
        cpmm.update_token_pool(CHAIN, ctx, mk_state())


def test_update_token_pool_rejects_reentry():
    s = mk_state(selfIsUpdatingTokenPool=True)
    with pytest.raises(Refused):
        cpmm.update_token_pool(CHAIN, mk_ctx(), s)


def test_update_token_pool_internal_applies_matching_response():
    s = mk_state(selfIsUpdatingTokenPool=True)
    responses = plist([pair(pair(addr(MAIN), nat(0)), nat(777))])
    ctx = mk_ctx(sender=TOKEN)
    out = cpmm.update_token_pool_internal(CHAIN, ctx, s, responses)
    assert out is not None
    new_state, ops = out
    assert new_state.tokenPool == 777
    assert not new_state.selfIsUpdatingTokenPool
    assert ops == []


def test_update_token_pool_internal_guards():
    s = mk_state(selfIsUpdatingTokenPool=True)
    good = plist([pair(pair(addr(MAIN), nat(0)), nat(777))])
    # Wrong sender.
    with pytest.raises(Refused):
        cpmm.update_token_pool_internal(CHAIN, mk_ctx(sender=TRADER), s, good)
    # Flag not set.
    with pytest.raises(Refused):
        cpmm.update_token_pool_internal(CHAIN, mk_ctx(sender=TOKEN), mk_state(), good)
    # Empty response list.
    with pytest.raises(Refused):
        cpmm.update_token_pool_internal(CHAIN, mk_ctx(sender=TOKEN), s, plist([]))
    # No response addressed to this contract and token id.
    other = plist([pair(pair(addr(TRADER), nat(0)), nat(5))])
    with pytest.raises(Refused):
        cpmm.update_token_pool_internal(CHAIN, mk_ctx(sender=TOKEN), s, other)


# -- admin --------------------------------------------------------------------


def test_set_baker_manager_gated_and_freezable():
    s = mk_state()
    with pytest.raises(Refused):
        cpmm.set_baker(CHAIN, mk_ctx(sender=TRADER), s, True)
    out = cpmm.set_baker(CHAIN, mk_ctx(sender=MANAGER), s, True)
    assert out is not None
    frozen = out[0]
    assert frozen.freezeBaker
    with pytest.raises(Refused):
        cpmm.set_baker(CHAIN, mk_ctx(sender=MANAGER), frozen, False)


def test_set_manager():
    out = cpmm.set_manager(CHAIN, mk_ctx(sender=MANAGER), mk_state(), TRADER)
    assert out is not None and out[0].manager == TRADER
    with pytest.raises(Refused):
        cpmm.set_manager(CHAIN, mk_ctx(sender=TRADER), mk_state(), TRADER)


def test_set_lqt_address_is_set_once():
    s = mk_state(lqtAddress=NULL_ADDRESS)
    out = cpmm.set_lqt_address(CHAIN, mk_ctx(sender=MANAGER), s, LQT)
    assert out is not None and out[0].lqtAddress == LQT
    with pytest.raises(Refused):
        cpmm.set_lqt_address(CHAIN, mk_ctx(sender=MANAGER), out[0], LQT)
    with pytest.raises(Refused):
        cpmm.set_lqt_address(CHAIN, mk_ctx(sender=TRADER), s, LQT)


# -- default ------------------------------------------------------------------


def test_default_credits_donations():
    out = cpmm.default(CHAIN, mk_ctx(amount=250), mk_state())
    assert out is not None
    assert out[0].xtzPool == 1250
    assert out[1] == []


def test_default_blocked_while_updating():
    s = mk_state(selfIsUpdatingTokenPool=True)
    with pytest.raises(Refused):
        cpmm.default(CHAIN, mk_ctx(amount=1), s)


def test_default_no_credit_mutation_desyncs_pool():
    out = cpmm.default(CHAIN, mk_ctx(amount=250), mk_state(), mutation="default_no_credit")
    assert out is not None
    assert out[0].xtzPool == 1000


# -- dispatcher and frame conditions ------------------------------------------


def test_dispatch_rejects_unwrapped_entrypoints():
    ref = cpmm.make_contract()
    state_p = cpmm.encode_state(mk_state())
    bare = Tag("xtz_to_token", record(to=addr(TRADER), minTokensBought=nat(0), deadline=nat(FRESH)))
    assert ref.receive(CHAIN, mk_ctx(amount=100), state_p, bare) is None
    wrapped = Tag("other_msg", bare)
    assert ref.receive(CHAIN, mk_ctx(amount=100), state_p, wrapped) is not None


def test_dispatch_plain_transfer_is_default():
    ref = cpmm.make_contract()
    state_p = cpmm.encode_state(mk_state())
    out = ref.receive(CHAIN, mk_ctx(amount=40), state_p, None)
    assert out is not None
    s = cpmm.decode_state(out[0])
    assert s is not None and s.xtzPool == 1040


def test_dispatch_unknown_tag_fails():
    ref = cpmm.make_contract()
    state_p = cpmm.encode_state(mk_state())
    assert ref.receive(CHAIN, mk_ctx(), state_p, Tag("other_msg", Tag("bogus"))) is None


def test_make_contract_rejects_unknown_mutation():
    with pytest.raises(ValueError):
        cpmm.make_contract("not_a_mutation")


def test_trade_preserves_config_fields():
    s = mk_state()
    out = cpmm.xtz_to_token(CHAIN, mk_ctx(amount=100), s, TRADER, 0, FRESH)
    assert out is not None
    n = out[0]
    assert (n.manager, n.tokenAddress, n.tokenId, n.lqtAddress, n.freezeBaker) == (
        s.manager,
        s.tokenAddress,
        s.tokenId,
        s.lqtAddress,
        s.freezeBaker,
    )
    assert n.lqtTotal == s.lqtTotal
