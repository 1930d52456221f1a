import pytest
from hypothesis import given
from hypothesis import strategies as st

from dexsim import fa2
from dexsim.address import CONTRACT, USER, Address, contract, user
from dexsim.chain import Call, Chain, ContractCallContext, Refused, canon
from dexsim.payload import Tag, addr, map_kv, nat, pair, plist, record, render

ALICE = user(0)
BOB = user(1)
MAIN = contract(2)

CHAIN = Chain(1, 1, 0)


def mk_state(balances):
    return fa2.Fa2State(canon(dict(balances)))


def mk_ctx(sender, amount=0):
    return ContractCallContext(sender, sender, contract(1), 0, amount)


def test_state_codec_round_trip():
    s = mk_state({(ALICE, 0): 10, (BOB, 1): 3})
    assert fa2.decode_state(fa2.encode_state(s)) == s


def test_init_from_setup():
    setup = fa2.encode_setup({(ALICE, 0): 10})
    out = fa2.init(CHAIN, mk_ctx(ALICE), setup)
    assert out is not None
    assert fa2.decode_state(out) == mk_state({(ALICE, 0): 10})
    assert fa2.init(CHAIN, mk_ctx(ALICE, amount=1), setup) is None


def test_transfer_own_tokens_per_token_id():
    s = mk_state({(ALICE, 0): 10, (ALICE, 1): 5})
    out = fa2.transfer(CHAIN, mk_ctx(ALICE), s, ALICE, BOB, 0, 4)
    assert out is not None
    new = out[0]
    assert fa2.ledger_balance(new, ALICE, 0) == 6
    assert fa2.ledger_balance(new, BOB, 0) == 4
    assert fa2.ledger_balance(new, ALICE, 1) == 5


def test_transfer_overdraw_fails():
    s = mk_state({(ALICE, 0): 10})
    with pytest.raises(Refused):
        fa2.transfer(CHAIN, mk_ctx(ALICE), s, ALICE, BOB, 0, 11)
    # Wrong token id means a zero balance.
    with pytest.raises(Refused):
        fa2.transfer(CHAIN, mk_ctx(ALICE), s, ALICE, BOB, 1, 1)


def test_user_cannot_move_other_users_tokens():
    s = mk_state({(ALICE, 0): 10})
    with pytest.raises(Refused):
        fa2.transfer(CHAIN, mk_ctx(BOB), s, ALICE, BOB, 0, 1)


def test_contract_sender_may_pull():
    s = mk_state({(ALICE, 0): 10})
    out = fa2.transfer(CHAIN, mk_ctx(MAIN), s, ALICE, MAIN, 0, 7)
    assert out is not None
    assert fa2.ledger_balance(out[0], MAIN, 0) == 7


def test_balance_of_pairs_requests_with_values():
    s = mk_state({(ALICE, 0): 10})
    requests = plist([pair(addr(ALICE), nat(0)), pair(addr(BOB), nat(0))])
    out = fa2.balance_of(CHAIN, mk_ctx(ALICE), s, requests, MAIN)
    assert out is not None
    state, ops = out
    assert state == s
    expected = plist(
        [
            pair(pair(addr(ALICE), nat(0)), nat(10)),
            pair(pair(addr(BOB), nat(0)), nat(0)),
        ]
    )
    assert ops == [Call(MAIN, 0, Tag("receive_balance_of", expected))]


def test_dispatch_non_payable_and_unknown():
    ref = fa2.make_contract()
    state_p = fa2.encode_state(mk_state({(ALICE, 0): 10}))
    msg = Tag(
        "transfer",
        record(**{"from": addr(ALICE), "to": addr(BOB), "tokenId": nat(0), "value": nat(1)}),
    )
    assert ref.receive(CHAIN, mk_ctx(ALICE, amount=1), state_p, msg) is None
    assert ref.receive(CHAIN, mk_ctx(ALICE), state_p, msg) is not None
    assert ref.receive(CHAIN, mk_ctx(ALICE), state_p, Tag("bogus")) is None
    assert ref.receive(CHAIN, mk_ctx(ALICE), state_p, None) is None


def test_transfer_conserves_per_token_totals():
    s = mk_state({(ALICE, 0): 10, (BOB, 0): 5})
    out = fa2.transfer(CHAIN, mk_ctx(ALICE), s, ALICE, BOB, 0, 3)
    assert out is not None
    total = sum(v for (_, t), v in out[0].ledger if t == 0)
    assert total == 15


# -- the token-map codec -------------------------------------------------------

ledgers = st.dictionaries(
    st.tuples(
        st.builds(Address, st.sampled_from([USER, CONTRACT]), st.integers(0, 5)),
        st.integers(0, 3),
    ),
    st.integers(1, 10**6),
    max_size=8,
)


@given(ledgers)
def test_encode_state_equals_the_validated_map(balances):
    s = mk_state(balances)
    validated = record(
        ledger=map_kv((pair(addr(o), nat(t)), nat(v)) for (o, t), v in balances.items())
    )
    encoded = fa2.encode_state(s)
    assert encoded.entries == validated.entries
    assert render(encoded) == render(validated)
    assert fa2.decode_state(encoded) == s


@given(ledgers, st.builds(Address, st.sampled_from([USER, CONTRACT]), st.integers(0, 5)),
       st.integers(0, 3))
def test_ledger_balance_reads_the_one_entry(balances, owner, token_id):
    s = mk_state(balances)
    for state in (s, fa2.decode_state(fa2.encode_state(s))):
        assert fa2.ledger_balance(state, owner, token_id) == balances.get((owner, token_id), 0)


def test_init_drops_zero_balances():
    with_zero = fa2.encode_setup({(BOB, 0): 0, (ALICE, 0): 10, (ALICE, 1): 0})
    without = fa2.encode_setup({(ALICE, 0): 10})
    out = fa2.init(CHAIN, mk_ctx(ALICE), with_zero)
    assert out == fa2.init(CHAIN, mk_ctx(ALICE), without)
    assert render(out) == "{ledger: {(@u0, 0): 10}}"
    assert fa2.decode_state(with_zero) == mk_state({(ALICE, 0): 10})
