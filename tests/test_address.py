"""``Address`` is the validated, immutable tuple ``(kind, index)``."""

import copy
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dexsim.address import CONTRACT, USER, Address, contract, user

addresses = st.builds(
    Address, st.sampled_from([USER, CONTRACT]), st.integers(min_value=0, max_value=50)
)


def test_repr_and_str():
    assert repr(user(3)) == "Address(kind='user', index=3)"
    assert repr(contract(0)) == "Address(kind='contract', index=0)"
    assert (str(user(3)), str(contract(12))) == ("@u3", "@c12")
    assert user(3).is_user and not user(3).is_contract
    assert contract(0).is_contract and not contract(0).is_user


@given(st.lists(addresses))
def test_hash_and_order_are_those_of_the_tuple(addrs):
    for a in addrs:
        assert (a.kind, a.index) == tuple(a)
        assert hash(a) == hash((a.kind, a.index))
    assert [(a.kind, a.index) for a in sorted(addrs)] == sorted((a.kind, a.index) for a in addrs)


def test_sort_order_is_kind_then_index():
    addrs = [user(10), contract(2), user(2), contract(0), user(0)]
    assert sorted(addrs) == [contract(0), contract(2), user(0), user(2), user(10)]


@pytest.mark.parametrize("kind, index", [("admin", 1), ("", 0), (USER, -1), (CONTRACT, -5)])
def test_bad_kind_or_negative_index_rejected(kind, index):
    with pytest.raises(ValueError):
        Address(kind, index)


def test_addresses_are_immutable():
    a = user(1)
    for name, value in (("kind", CONTRACT), ("index", 2), ("other", 0)):
        with pytest.raises(AttributeError):
            setattr(a, name, value)
    assert a == user(1)


@pytest.mark.parametrize("a", [user(0), contract(7)])
def test_copy_and_pickle_keep_the_address(a):
    ledger = {(a, 0): 5}
    for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(b) is Address and b == a and repr(b) == repr(a)
    assert pickle.loads(pickle.dumps(ledger)) == copy.deepcopy(ledger) == ledger
