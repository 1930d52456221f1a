import pytest
from hypothesis import given
from hypothesis import strategies as st

from dexsim.address import Address, contract, user
from dexsim.payload import (
    Bool,
    Int,
    MapKV,
    Nat,
    Pair,
    PayloadSyntaxError,
    PList,
    Tag,
    UNIT,
    addr,
    as_payload,
    map_kv,
    parse,
    rec_decode,
    rec_get,
    record,
    render,
    sort_key,
    wrap_receiver,
)

addresses = st.builds(
    Address,
    st.sampled_from(["user", "contract"]),
    st.integers(min_value=0, max_value=50),
)

payloads = st.recursive(
    st.one_of(
        st.just(UNIT),
        st.builds(Nat, st.integers(min_value=0, max_value=10**12)),
        st.builds(Int, st.integers(min_value=-(10**12), max_value=10**12)),
        st.builds(Bool, st.booleans()),
        st.builds(addr, addresses),
        st.builds(Tag, st.sampled_from(["transfer", "other_msg", "x", "deadline_z"])),
    ),
    lambda inner: st.one_of(
        st.builds(Pair, inner, inner),
        st.builds(lambda xs: PList(tuple(xs)), st.lists(inner, max_size=3)),
        st.builds(
            lambda kvs: MapKV(tuple({render(k): (k, v) for k, v in kvs}.values())),
            st.lists(st.tuples(inner, inner), max_size=3),
        ),
        st.builds(Tag, st.sampled_from(["a", "b_c"]), inner),
    ),
    max_leaves=12,
)


@given(payloads)
def test_render_parse_round_trip(p):
    assert parse(render(p)) == p


def test_simple_renderings():
    assert render(UNIT) == "unit"
    assert render(Nat(0)) == "0"
    assert render(Int(-3)) == "int(-3)"
    assert render(addr(user(3))) == "@u3"
    assert render(addr(contract(1))) == "@c1"
    assert render(Tag("default")) == "default"
    assert render(Tag("f", Nat(1))) == "f(1)"


def test_nat_rejects_negative():
    with pytest.raises(ValueError):
        Nat(-1)


def test_map_entries_are_sorted_and_duplicate_free():
    m = map_kv([(Nat(2), Nat(20)), (Nat(1), Nat(10))])
    assert [k.value for k, _ in m.entries] == [1, 2]
    with pytest.raises(ValueError):
        map_kv([(Nat(1), Nat(10)), (Nat(1), Nat(20))])


def test_record_lookup():
    r = record(a=Nat(1), b=Bool(True))
    assert rec_get(r, "a") == Nat(1)
    assert rec_get(r, "missing") is None


def test_reserved_words_cannot_be_tags():
    for w in ("unit", "int", "true", "false"):
        with pytest.raises(ValueError):
            Tag(w)


def test_parse_errors():
    for bad in ("", "(1, 2", "{1: }", "@zz", "1 2", "int(x)", "{1: 2 3: 4}", "{1 2}", "{1: 2,}"):
        with pytest.raises(PayloadSyntaxError):
            parse(bad)
    with pytest.raises(PayloadSyntaxError, match="duplicate map key at offset 12"):
        parse("{a: 1, a: 2}")


def test_parse_aliases():
    aliases = {"alice": user(7)}
    assert parse("@alice", aliases) == addr(user(7))
    with pytest.raises(PayloadSyntaxError):
        parse("@bob", aliases)


def test_wrap_receiver():
    inner = Tag("default")
    wrapped = wrap_receiver(inner)
    assert wrapped == Tag("other_msg", inner)
    # Callback tags are not wrapped; they are already envelope constructors.
    cb = Tag("receive_total_supply", Nat(100))
    assert cb.name != "other_msg"
    # Unwrapping is the identity on the inner message.
    assert wrapped.arg == inner


# -- the one-pass codec against reference implementations --------------------

# Uppercase, underscore and lowercase sort in that order.
field_names = st.sampled_from(["from", "Z_a", "a_Z", "_x", "to", "value", "A", "a", "b_c"])


@given(st.lists(st.tuples(payloads, payloads), max_size=6))
def test_map_kv_canonicalises_like_the_set_and_sort_reference(kvs):
    keys = [k for k, _ in kvs]
    if len(set(keys)) != len(keys):
        with pytest.raises(ValueError):
            MapKV(tuple(kvs))
    else:
        assert MapKV(tuple(kvs)).entries == tuple(sorted(kvs, key=lambda kv: sort_key(kv[0])))


@given(st.dictionaries(field_names, payloads, max_size=6))
def test_record_equals_the_generic_map(fields):
    generic = map_kv((Tag(k), v) for k, v in fields.items())
    built = record(**fields)
    assert built == generic
    assert render(built) == render(generic)
    assert parse(render(built)) == built


def test_record_rejects_reserved_field_names():
    with pytest.raises(ValueError):
        record(unit=UNIT)


records_or_not = st.one_of(
    payloads,
    st.dictionaries(field_names, payloads, max_size=5).map(lambda f: record(**f)),
    # Non-bare tag keys share names with fields but are not fields.
    st.lists(
        st.tuples(st.builds(Tag, field_names, st.one_of(st.just(UNIT), payloads)), payloads),
        max_size=5,
    ).map(lambda kvs: MapKV(tuple({k: (k, v) for k, v in kvs}.values()))),
)


def field_by_equality(p, name):
    """``rec_get`` as a scan that compares the tag argument with ``==``."""
    if isinstance(p, MapKV):
        for k, v in p.entries:
            if isinstance(k, Tag) and k.name == name and k.arg == UNIT:
                return v
    return None


@given(records_or_not, st.lists(field_names, max_size=4))
def test_rec_decode_agrees_with_rec_get(p, names):
    one_by_one = [rec_get(p, n) for n in names]
    assert one_by_one == [field_by_equality(p, n) for n in names]
    expected = None if any(v is None for v in one_by_one) else one_by_one
    assert rec_decode(p, names, [as_payload] * len(names)) == expected


@given(addresses)
def test_address_hash_is_computed_once_with_the_tuple_value(a):
    b = Address(a.kind, a.index)
    assert a == b and a is not b
    assert hash(a) == hash(b) == hash((a.kind, a.index))
