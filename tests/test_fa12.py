import pytest
from hypothesis import given
from hypothesis import strategies as st

from dexsim import fa12
from dexsim.address import CONTRACT, USER, Address, contract, user
from dexsim.chain import Call, Chain, ContractCallContext, Refused, canon
from dexsim.payload import Tag, addr, map_kv, nat, pair, record, render

ADMIN = contract(2)
ALICE = user(0)
BOB = user(1)
CAROL = user(2)

CHAIN = Chain(1, 1, 0)


def mk_state(tokens=None, allowances=None, admin=ADMIN, supply=None):
    tokens = dict(tokens or {})
    if supply is None:
        supply = sum(tokens.values())
    return fa12.Fa12State(
        canon(tokens), canon(dict(allowances or {})), admin, supply
    )


def mk_ctx(sender, amount=0):
    return ContractCallContext(sender, sender, contract(3), 0, amount)


def test_state_codec_round_trip():
    s = mk_state({ALICE: 100, BOB: 5}, {(ALICE, BOB): 7})
    assert fa12.decode_state(fa12.encode_state(s)) == s


def test_canonical_state_prunes_zero_entries():
    a = mk_state({ALICE: 100, BOB: 0}, supply=100)
    b = mk_state({ALICE: 100}, supply=100)
    assert a == b
    assert fa12.encode_state(a) == fa12.encode_state(b)


def test_init_funds_provider():
    setup = fa12.encode_setup(ADMIN, ALICE, 1000)
    out = fa12.init(CHAIN, mk_ctx(ALICE), setup)
    assert out is not None
    s = fa12.decode_state(out)
    assert s == mk_state({ALICE: 1000})
    assert s.total_supply == 1000
    assert fa12.init(CHAIN, mk_ctx(ALICE, amount=1), setup) is None


def test_transfer_own_tokens():
    s = mk_state({ALICE: 100})
    out = fa12.transfer(CHAIN, mk_ctx(ALICE), s, ALICE, BOB, 30)
    assert out is not None
    new = out[0]
    assert fa12.balance_of(new, ALICE) == 70
    assert fa12.balance_of(new, BOB) == 30
    assert new.total_supply == 100


def test_transfer_insufficient_balance():
    s = mk_state({ALICE: 10})
    with pytest.raises(Refused):
        fa12.transfer(CHAIN, mk_ctx(ALICE), s, ALICE, BOB, 11)


def test_self_transfer_is_noop():
    s = mk_state({ALICE: 10})
    out = fa12.transfer(CHAIN, mk_ctx(ALICE), s, ALICE, ALICE, 10)
    assert out is not None
    assert out[0] == s


def test_third_party_transfer_consumes_allowance():
    s = mk_state({ALICE: 100}, {(ALICE, BOB): 40})
    out = fa12.transfer(CHAIN, mk_ctx(BOB), s, ALICE, CAROL, 30)
    assert out is not None
    new = out[0]
    assert fa12.balance_of(new, CAROL) == 30
    assert fa12.allowance_of(new, ALICE, BOB) == 10


def test_third_party_transfer_without_allowance_fails():
    s = mk_state({ALICE: 100}, {(ALICE, BOB): 40})
    with pytest.raises(Refused):
        fa12.transfer(CHAIN, mk_ctx(BOB), s, ALICE, CAROL, 41)
    with pytest.raises(Refused):
        fa12.transfer(CHAIN, mk_ctx(CAROL), s, ALICE, BOB, 1)


def test_keep_allowance_mutation_skips_decrement():
    s = mk_state({ALICE: 100}, {(ALICE, BOB): 40})
    out = fa12.transfer(CHAIN, mk_ctx(BOB), s, ALICE, CAROL, 30, mutation="keep_allowance")
    assert out is not None
    assert fa12.allowance_of(out[0], ALICE, BOB) == 40


def test_approve_and_unsafe_change_guard():
    s = mk_state({ALICE: 100})
    out = fa12.approve(CHAIN, mk_ctx(ALICE), s, BOB, 50)
    assert out is not None
    s2 = out[0]
    assert fa12.allowance_of(s2, ALICE, BOB) == 50
    # nonzero -> nonzero is forbidden; must reset through zero.
    with pytest.raises(Refused):
        fa12.approve(CHAIN, mk_ctx(ALICE), s2, BOB, 60)
    s3 = fa12.approve(CHAIN, mk_ctx(ALICE), s2, BOB, 0)[0]
    assert fa12.allowance_of(s3, ALICE, BOB) == 0
    assert fa12.approve(CHAIN, mk_ctx(ALICE), s3, BOB, 60) is not None


def test_mint_or_burn_admin_gated():
    s = mk_state({ALICE: 100})
    with pytest.raises(Refused):
        fa12.mint_or_burn(CHAIN, mk_ctx(ALICE), s, 10, ALICE)
    out = fa12.mint_or_burn(CHAIN, mk_ctx(ADMIN), s, 10, ALICE)
    assert out is not None
    assert fa12.balance_of(out[0], ALICE) == 110
    assert out[0].total_supply == 110


def test_burn_cannot_exceed_balance():
    s = mk_state({ALICE: 100})
    out = fa12.mint_or_burn(CHAIN, mk_ctx(ADMIN), s, -100, ALICE)
    assert out is not None
    assert fa12.balance_of(out[0], ALICE) == 0
    assert out[0].total_supply == 0
    with pytest.raises(Refused):
        fa12.mint_or_burn(CHAIN, mk_ctx(ADMIN), s, -101, ALICE)


def test_open_mint_or_burn_mutation_drops_gate():
    s = mk_state({ALICE: 100})
    out = fa12.mint_or_burn(CHAIN, mk_ctx(ALICE), s, 10, ALICE, mutation="open_mint_or_burn")
    assert out is not None
    assert out[0].total_supply == 110


def test_views_emit_callbacks():
    ref = fa12.make_contract()
    s = mk_state({ALICE: 100}, {(ALICE, BOB): 7})
    state_p = fa12.encode_state(s)
    sink = contract(4)

    out = ref.receive(CHAIN, mk_ctx(ALICE), state_p, Tag("get_total_supply", record(callback=addr(sink))))
    assert out == (state_p, [Call(sink, 0, Tag("receive_total_supply", nat(100)))])

    out = ref.receive(
        CHAIN, mk_ctx(ALICE), state_p,
        Tag("get_balance", record(owner=addr(ALICE), callback=addr(sink))),
    )
    assert out == (state_p, [Call(sink, 0, Tag("receive_balance", nat(100)))])

    out = ref.receive(
        CHAIN, mk_ctx(ALICE), state_p,
        Tag("get_allowance", record(owner=addr(ALICE), spender=addr(BOB), callback=addr(sink))),
    )
    assert out == (state_p, [Call(sink, 0, Tag("receive_allowance", nat(7)))])


def test_entrypoints_are_non_payable():
    ref = fa12.make_contract()
    state_p = fa12.encode_state(mk_state({ALICE: 100}))
    msg = Tag("transfer", record(**{"from": addr(ALICE), "to": addr(BOB), "value": nat(1)}))
    assert ref.receive(CHAIN, mk_ctx(ALICE, amount=1), state_p, msg) is None
    assert ref.receive(CHAIN, mk_ctx(ALICE), state_p, msg) is not None


def test_plain_transfer_rejected():
    ref = fa12.make_contract()
    state_p = fa12.encode_state(mk_state({ALICE: 100}))
    assert ref.receive(CHAIN, mk_ctx(ALICE), state_p, None) is None


def test_make_contract_rejects_unknown_mutation():
    with pytest.raises(ValueError):
        fa12.make_contract("bogus")


amounts = st.integers(min_value=0, max_value=1000)


@given(amounts, amounts, amounts)
def test_transfer_conserves_supply_and_sum(a_bal, b_bal, value):
    s = mk_state({ALICE: a_bal, BOB: b_bal})
    if value > a_bal:
        with pytest.raises(Refused):
            fa12.transfer(CHAIN, mk_ctx(ALICE), s, ALICE, BOB, value)
        return
    new = fa12.transfer(CHAIN, mk_ctx(ALICE), s, ALICE, BOB, value)[0]
    assert new.total_supply == s.total_supply
    assert sum(v for _, v in new.tokens) == new.total_supply


@given(amounts, st.integers(min_value=-1000, max_value=1000))
def test_mint_or_burn_keeps_ledger_sum_equal_to_supply(bal, q):
    s = mk_state({ALICE: bal})
    if bal + q < 0:
        with pytest.raises(Refused):
            fa12.mint_or_burn(CHAIN, mk_ctx(ADMIN), s, q, ALICE)
        return
    new = fa12.mint_or_burn(CHAIN, mk_ctx(ADMIN), s, q, ALICE)[0]
    assert new.total_supply == bal + q
    assert sum(v for _, v in new.tokens) == new.total_supply


# -- the token-map codec -------------------------------------------------------

holders = st.builds(Address, st.sampled_from([USER, CONTRACT]), st.integers(0, 5))
positive = st.integers(1, 10**6)


@given(
    st.dictionaries(holders, positive, max_size=6),
    st.dictionaries(st.tuples(holders, holders), positive, max_size=6),
    holders,
)
def test_encode_state_equals_the_validated_maps(tokens, allowances, admin):
    s = mk_state(tokens, allowances, admin)
    validated = record(
        tokens=map_kv((addr(a), nat(v)) for a, v in tokens.items()),
        allowances=map_kv((pair(addr(o), addr(sp)), nat(v)) for (o, sp), v in allowances.items()),
        admin=addr(admin),
        total_supply=nat(s.total_supply),
    )
    encoded = fa12.encode_state(s)
    assert encoded.entries == validated.entries
    assert render(encoded) == render(validated)
    assert fa12.decode_state(encoded) == s


@given(
    st.dictionaries(holders, positive, max_size=6),
    st.dictionaries(st.tuples(holders, holders), positive, max_size=6),
    holders,
    holders,
)
def test_lookups_read_the_one_entry(tokens, allowances, owner, spender):
    s = mk_state(tokens, allowances, ADMIN)
    for state in (s, fa12.decode_state(fa12.encode_state(s))):
        assert fa12.balance_of(state, owner) == tokens.get(owner, 0)
        assert fa12.allowance_of(state, owner, spender) == allowances.get((owner, spender), 0)


def test_decode_drops_zero_entries():
    def stored(tokens, allowances):
        return record(
            tokens=map_kv((addr(a), nat(v)) for a, v in tokens.items()),
            allowances=map_kv((pair(addr(o), addr(s)), nat(v)) for (o, s), v in allowances.items()),
            admin=addr(ADMIN),
            total_supply=nat(100),
        )

    with_zeros = stored({BOB: 0, ALICE: 100, CAROL: 0}, {(ALICE, BOB): 0, (BOB, ALICE): 3})
    without = stored({ALICE: 100}, {(BOB, ALICE): 3})
    assert fa12.decode_state(with_zeros) == fa12.decode_state(without)
    assert fa12.decode_state(with_zeros) == mk_state({ALICE: 100}, {(BOB, ALICE): 3})
