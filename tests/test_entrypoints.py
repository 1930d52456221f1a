"""Every field of every entrypoint that takes a record is read and typed.

Each case is a well-formed call that the given state accepts.  Dropping any
one field, or giving it a payload of another kind, must make ``receive``
reject the call.  The messages are written out here rather than derived from
the contracts' own entrypoint tables, so a table that forgets or mistypes a
field fails.
"""

import pytest

from dexsim import cpmm, fa2, fa12
from dexsim.address import NULL_ADDRESS, contract, user
from dexsim.chain import Chain, ContractCallContext
from dexsim.payload import (
    Bool,
    Int,
    MapKV,
    Nat,
    Tag,
    addr,
    boolean,
    integer,
    nat,
    pair,
    plist,
    record,
)

ALICE, BOB, CAROL = user(0), user(1), user(2)
TOKEN, MAIN, LQT = contract(1), contract(2), contract(3)
OTHER_MAIN = contract(5)
CHAIN = Chain(chain_height=5, current_slot=5, finalized_height=4)
FRESH = 10


def cpmm_state(**kw):
    base = dict(
        tokenPool=1000,
        xtzPool=1000,
        lqtTotal=10,
        selfIsUpdatingTokenPool=False,
        freezeBaker=False,
        manager=ALICE,
        tokenAddress=TOKEN,
        tokenId=0,
        lqtAddress=LQT,
    )
    base.update(kw)
    return cpmm.encode_state(cpmm.CpmmState(**base))


FA12_STATE = fa12.encode_state(
    fa12.Fa12State(((ALICE, 100),), (((ALICE, BOB), 50),), MAIN, 100)
)
FA2_STATE = fa2.encode_state(fa2.Fa2State((((ALICE, 0), 100),)))


def other_msg(name):
    return lambda arg: Tag("other_msg", Tag(name, arg))


def bare(name):
    return lambda arg: Tag(name, arg)


# (id, contract, state, sender, amount, wrap, fields of the record argument)
CASES = [
    ("cpmm.xtz_to_token", cpmm, cpmm_state(), BOB, 100, other_msg("xtz_to_token"),
     dict(to=addr(BOB), minTokensBought=nat(1), deadline=nat(FRESH))),
    ("cpmm.token_to_xtz", cpmm, cpmm_state(), BOB, 0, other_msg("token_to_xtz"),
     dict(to=addr(BOB), tokensSold=nat(100), minXtzBought=nat(1), deadline=nat(FRESH))),
    ("cpmm.token_to_token", cpmm, cpmm_state(), BOB, 0, other_msg("token_to_token"),
     dict(outputDexter=addr(OTHER_MAIN), to=addr(BOB), tokensSold=nat(100),
          minTokensBought=nat(1), deadline=nat(FRESH))),
    ("cpmm.add_liquidity", cpmm, cpmm_state(), BOB, 100, other_msg("add_liquidity"),
     dict(owner=addr(BOB), minLqtMinted=nat(1), maxTokensDeposited=nat(10**6),
          deadline=nat(FRESH))),
    ("cpmm.remove_liquidity", cpmm, cpmm_state(), BOB, 0, other_msg("remove_liquidity"),
     dict(to=addr(BOB), lqtBurned=nat(1), minXtzWithdrawn=nat(1), minTokensWithdrawn=nat(1),
          deadline=nat(FRESH))),
    ("cpmm.set_baker", cpmm, cpmm_state(), ALICE, 0, other_msg("set_baker"),
     dict(freezeBaker=boolean(True))),
    ("cpmm.set_manager", cpmm, cpmm_state(), ALICE, 0, other_msg("set_manager"),
     dict(newManager=addr(BOB))),
    ("cpmm.set_lqt_address", cpmm, cpmm_state(lqtAddress=NULL_ADDRESS), ALICE, 0,
     other_msg("set_lqt_address"), dict(addr=addr(LQT))),
    ("fa12.transfer", fa12, FA12_STATE, ALICE, 0, bare("transfer"),
     {"from": addr(ALICE), "to": addr(BOB), "value": nat(10)}),
    ("fa12.transfer_third_party", fa12, FA12_STATE, BOB, 0, bare("transfer"),
     {"from": addr(ALICE), "to": addr(CAROL), "value": nat(10)}),
    ("fa12.approve", fa12, FA12_STATE, ALICE, 0, bare("approve"),
     dict(spender=addr(CAROL), value=nat(5))),
    ("fa12.mint_or_burn", fa12, FA12_STATE, MAIN, 0, bare("mint_or_burn"),
     dict(quantity=integer(-5), target=addr(ALICE))),
    ("fa12.get_total_supply", fa12, FA12_STATE, BOB, 0, bare("get_total_supply"),
     dict(callback=addr(CAROL))),
    ("fa12.get_balance", fa12, FA12_STATE, BOB, 0, bare("get_balance"),
     dict(owner=addr(ALICE), callback=addr(CAROL))),
    ("fa12.get_allowance", fa12, FA12_STATE, BOB, 0, bare("get_allowance"),
     dict(owner=addr(ALICE), spender=addr(BOB), callback=addr(CAROL))),
    ("fa2.transfer", fa2, FA2_STATE, ALICE, 0, bare("transfer"),
     {"from": addr(ALICE), "to": addr(BOB), "tokenId": nat(0), "value": nat(10)}),
    ("fa2.balance_of", fa2, FA2_STATE, BOB, 0, bare("balance_of"),
     dict(requests=plist([pair(addr(ALICE), nat(0))]), callback=addr(CAROL))),
]


def wrong_kind(p):
    """A payload of another kind that a lax reader might still accept."""
    if isinstance(p, Nat):
        return integer(p.value)
    if isinstance(p, Int):
        return nat(abs(p.value))
    if isinstance(p, Bool):
        return nat(int(p.value))
    return nat(0)


def receive(case, arg):
    _, module, state, sender, amount, wrap, _ = case
    ctx = ContractCallContext(sender, sender, MAIN if module is cpmm else TOKEN, 10**6, amount)
    return module.make_contract().receive(CHAIN, ctx, state, wrap(arg))


def field_variants(case):
    fields = case[-1]
    for name in fields:
        dropped = {k: v for k, v in fields.items() if k != name}
        yield f"without {name}", dropped
        yield f"{name} of another kind", dict(fields, **{name: wrong_kind(fields[name])})


@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_every_field_is_required_and_typed(case):
    assert receive(case, record(**case[-1])) is not None, "the well-formed call must succeed"
    for label, fields in field_variants(case):
        assert receive(case, record(**fields)) is None, label


def test_extra_fields_are_ignored():
    case = CASES[0]
    assert receive(case, record(**case[-1], memo=nat(7))) is not None


@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_a_non_record_argument_is_rejected(case):
    for arg in (nat(1), MapKV(()), Tag("x")):
        assert receive(case, arg) is None
