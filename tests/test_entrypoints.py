"""Every field of every entrypoint that takes a record is read and typed.

Each case is a well-formed call that the given state accepts.  Dropping any
one field, or giving it a payload of another kind, must make ``receive``
reject the call.  The messages are written out here rather than derived from
the contracts' own entrypoint tables, so a table that forgets or mistypes a
field fails.
"""

import copy
from dataclasses import replace

import pytest

from dexsim import cpmm, fa2, fa12
from dexsim.address import NULL_ADDRESS, contract, user
from dexsim.chain import (
    Action,
    BlockError,
    Call,
    Chain,
    ContractCallContext,
    Deploy,
    ExecOrder,
    add_block,
    build_contract,
    empty_chain,
    non_payable,
    require,
)
from dexsim.payload import (
    Bool,
    Int,
    MapKV,
    Nat,
    Tag,
    UNIT,
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


# -- routing: cpmm's receiver envelope and the non-payable tokens --------------


def call(module, state, msg, sender=BOB, amount=0):
    ctx = ContractCallContext(BOB, sender, MAIN if module is cpmm else TOKEN, 10**6, amount)
    return module.make_contract().receive(CHAIN, ctx, state, msg)


UPDATING = cpmm_state(selfIsUpdatingTokenPool=True)
RESPONSES = plist([pair(pair(addr(MAIN), nat(0)), nat(500))])


def test_a_bare_balance_callback_from_the_token_is_accepted():
    out = call(cpmm, UPDATING, Tag("receive_balance_of", RESPONSES), sender=TOKEN)
    assert out is not None
    s = cpmm.decode_state(out[0])
    assert s.tokenPool == 500 and not s.selfIsUpdatingTokenPool


def test_a_wrapped_balance_callback_is_rejected():
    for arg in (RESPONSES, record(responses=RESPONSES)):
        assert call(cpmm, UPDATING, other_msg("receive_balance_of")(arg), sender=TOKEN) is None


@pytest.mark.parametrize("name, amount", [("default", 40), ("update_token_pool", 0)])
def test_argumentless_entrypoints_ignore_their_argument(name, amount):
    with_unit = call(cpmm, cpmm_state(), Tag("other_msg", Tag(name)), amount=amount)
    assert with_unit is not None
    for arg in (nat(7), record(x=nat(1)), Tag("x")):
        assert call(cpmm, cpmm_state(), other_msg(name)(arg), amount=amount) == with_unit


def test_a_bare_cpmm_entrypoint_is_rejected():
    for name, _, state, sender, amount, _, fields in (c for c in CASES if c[1] is cpmm):
        assert call(cpmm, state, Tag(name[len("cpmm."):], record(**fields)), sender, amount) is None
    for name, amount in (("default", 40), ("update_token_pool", 0)):
        assert call(cpmm, cpmm_state(), Tag(name), amount=amount) is None


def test_a_payable_fa2_transfer_is_rejected():
    msg = Tag("transfer", record(**{"from": addr(ALICE), "to": addr(BOB), "tokenId": nat(0),
                                    "value": nat(10)}))
    assert call(fa2, FA2_STATE, msg, sender=ALICE) is not None
    assert call(fa2, FA2_STATE, msg, sender=ALICE, amount=1) is None


# -- the shell: it catches a refusal and nothing else --------------------------


def test_receive_encodes_the_new_state_when_it_is_first_read():
    p, _ = call(cpmm, cpmm_state(), Tag("other_msg", Tag("default")), amount=40)
    assert "entries" not in vars(p)
    # A copy is built without entries too, and reads them the same way.
    for twin in (copy.copy(p), copy.deepcopy(p)):
        assert twin == cpmm_state(xtzPool=1040)
    assert "entries" not in vars(p)
    assert p == cpmm_state(xtzPool=1040) and "entries" in vars(p)


def toy_chain(handler, state=UNIT, decode=lambda p: p, encode=lambda s: s):
    """A chain with one toy contract at @c1, deployed holding ``state``, whose
    entrypoint ``go`` is ``handler``."""
    toy = build_contract(
        "toy", lambda chain, ctx, setup: state, decode, encode,
        {"go": (handler, False, (), ())}, non_payable,
    )
    deploy = Action(ALICE, ALICE, Deploy(0, toy, UNIT))
    return add_block(empty_chain([(ALICE, 100)]), [deploy], ExecOrder.DEPTH_FIRST)


GO = Action(ALICE, ALICE, Call(contract(1), 0, Tag("go")))


def test_a_refusal_rejects_the_call():
    state = toy_chain(lambda chain, ctx, s: require(False))
    ctx = ContractCallContext(ALICE, ALICE, contract(1), 0, 0)
    assert state.contracts[contract(1)].receive(CHAIN, ctx, UNIT, Tag("go")) is None
    with pytest.raises(BlockError) as e:
        add_block(state, [GO], ExecOrder.DEPTH_FIRST)
    assert e.value.reason == "contract @c1 rejected the call"


def test_a_fault_in_a_handler_is_not_a_refusal():
    state = toy_chain(lambda chain, ctx, s: 1 // 0)
    with pytest.raises(ZeroDivisionError):
        add_block(state, [GO], ExecOrder.DEPTH_FIRST)


def test_a_state_that_cannot_be_encoded_fails_at_the_call():
    # ``receive`` leaves the new state unencoded until it is read, so it is
    # ``CpmmState``'s own nat check that makes this call fail inside
    # ``add_block``, as encoding it there once did.
    state = toy_chain(
        lambda chain, ctx, s: (replace(s, xtzPool=-1), []),
        cpmm_state(), cpmm.decode_state, cpmm.encode_state,
    )
    with pytest.raises(ValueError, match="Nat payload must be non-negative"):
        add_block(state, [GO], ExecOrder.DEPTH_FIRST)


CPMM = cpmm.decode_state(cpmm_state())
NEGATIVE_NAT_STATES = {
    **{f"cpmm.{f}": (lambda f=f: replace(CPMM, **{f: -1}))
       for f in ("tokenPool", "xtzPool", "lqtTotal", "tokenId")},
    "fa12.tokens": lambda: fa12.Fa12State(((ALICE, -1),), (), MAIN, 0),
    "fa12.allowances": lambda: fa12.Fa12State((), (((ALICE, BOB), -1),), MAIN, 0),
    "fa12.total_supply": lambda: fa12.Fa12State((), (), MAIN, -1),
    "fa2.ledger value": lambda: fa2.Fa2State((((ALICE, 0), -1),)),
    "fa2.token id": lambda: fa2.Fa2State((((ALICE, -1), 1),)),
}


@pytest.mark.parametrize("build", NEGATIVE_NAT_STATES.values(), ids=NEGATIVE_NAT_STATES)
def test_a_state_type_refuses_a_negative_nat_field(build):
    with pytest.raises(ValueError, match="Nat payload must be non-negative"):
        build()
