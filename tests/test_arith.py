from hypothesis import given
from hypothesis import strategies as st

from dexsim.arith import (
    amount_to_nat,
    ceildiv_opt,
    div_opt,
    int_add_nat,
    sub_opt,
)

nats = st.integers(min_value=0, max_value=10**18)
pos = st.integers(min_value=1, max_value=10**18)


def test_sub_opt_examples():
    assert sub_opt(5, 3) == 2
    assert sub_opt(3, 5) is None
    assert sub_opt(0, 0) == 0


def test_div_opt_examples():
    assert div_opt(7, 2) == 3
    assert div_opt(10, 0) is None
    assert div_opt(0, 5) == 0


def test_ceildiv_opt_examples():
    assert ceildiv_opt(100, 10) == 10
    assert ceildiv_opt(101, 10) == 11
    assert ceildiv_opt(1, 0) is None


def test_int_add_nat_examples():
    assert int_add_nat(50, -30) == 20
    assert int_add_nat(50, -60) is None
    assert int_add_nat(0, 5) == 5


def test_amount_to_nat_is_identity():
    assert amount_to_nat(0) == 0
    assert amount_to_nat(100) == 100


@given(nats, pos)
def test_euclidean_identity(n, m):
    q = div_opt(n, m)
    assert q is not None
    assert 0 <= n - m * q < m


@given(nats, nats)
def test_sub_opt_defined_iff_ge(n, m):
    res = sub_opt(n, m)
    assert (res is not None) == (n >= m)
    if res is not None:
        assert res + m == n


@given(nats, pos)
def test_ceildiv_matches_floor_identity(n, m):
    assert ceildiv_opt(n, m) == div_opt(n + m - 1, m)


@given(nats, pos)
def test_ceildiv_equals_div_iff_divides(n, m):
    assert (ceildiv_opt(n, m) == div_opt(n, m)) == (n % m == 0)
