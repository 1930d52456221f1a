import pickle
from dataclasses import dataclass

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dexsim.address import Address, contract, user
from dexsim.payload import (
    ADDR,
    ANY,
    BOOL,
    INT,
    NAT,
    Addr,
    Bool,
    Int,
    MapKV,
    Nat,
    Pair,
    Payload,
    PayloadSyntaxError,
    PList,
    Tag,
    UNIT,
    Unit,
    addr,
    as_payload,
    codec,
    ledger,
    map_kv,
    pair,
    pair_of,
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


def test_a_bare_tag_shares_the_unit_payload():
    t = Tag("x")
    assert t.arg is UNIT
    assert t == Tag("x", Unit()) and hash(t) == hash(Tag("x", Unit()))
    assert pickle.loads(pickle.dumps(t)) == t and render(t) == "x"


def test_reserved_words_cannot_be_tags():
    for w in ("unit", "int", "true", "false"):
        with pytest.raises(ValueError):
            Tag(w)


# Each message in full, offset included: the text a scenario error prints.
PARSE_ERRORS = {
    "": "unexpected input at offset 0 in ''",
    "  ": "unexpected input at offset 0 in '  '",
    "(1, 2": "unexpected input at offset 5 in '(1, 2'",
    "f(1": "unexpected input at offset 3 in 'f(1'",
    "[1, 2": "unexpected input at offset 5 in '[1, 2'",
    "int(3": "unexpected input at offset 5 in 'int(3'",
    "  (  ": "unexpected input at offset 3 in '  (  '",
    "$": "unexpected input at offset 0 in '$'",
    "@1": "unexpected input at offset 0 in '@1'",
    "[1, \u00e9]": "unexpected input at offset 3 in '[1, \u00e9]'",
    "{1: }": "unexpected '}' at offset 5 in '{1: }'",
    "-": "unexpected '-' at offset 1 in '-'",
    "@zz": "unknown address '@zz' at offset 3 in '@zz'",
    "\t@zz": "unknown address '@zz' at offset 4 in '\\t@zz'",
    "1 2": "trailing input at offset 1 in '1 2'",
    "1 $": "trailing input at offset 1 in '1 $'",
    "unit(3)": "trailing input at offset 4 in 'unit(3)'",
    "{1 2}": "expected ':' at offset 4 in '{1 2}'",
    "(1 2)": "expected ',' at offset 4 in '(1 2)'",
    "f(1 2)": "expected ')' at offset 5 in 'f(1 2)'",
    "int 3": "expected '(' at offset 5 in 'int 3'",
    "{1: 2,}": "unexpected '}' at offset 7 in '{1: 2,}'",
    "[1,,2]": "unexpected ',' at offset 4 in '[1,,2]'",
    "{1: 2 3: 4}": "expected ',' or '}' at offset 7 in '{1: 2 3: 4}'",
    "[1 2]": "expected ',' or ']' at offset 4 in '[1 2]'",
    "int(x)": "expected integer literal at offset 5 in 'int(x)'",
    "int(-)": "expected integer literal at offset 6 in 'int(-)'",
    "int(3 4)": "expected ')' at offset 7 in 'int(3 4)'",
    "{a: 1, a: 2}": "duplicate map key at offset 12 in '{a: 1, a: 2}'",
}


def test_parse_errors():
    for text, message in PARSE_ERRORS.items():
        with pytest.raises(PayloadSyntaxError) as e:
            parse(text)
        assert str(e.value) == message, text


@pytest.mark.parametrize("nest", [lambda t: f"[{t}]", lambda t: f"{{{t}: 1}}", lambda t: f"{{1: {t}}}",
                                  lambda t: f"({t}, 1)", lambda t: f"f({t})"],
                         ids=["list", "map key", "map value", "pair", "tag"])
def test_the_deepest_text_that_parses_renders(nest):
    def nested(depth):
        text = "1"
        for _ in range(depth):
            text = nest(text)
        return text

    parses, fails = 0, 2000  # no text this deep parses under the default recursion limit
    while fails - parses > 1:
        mid = (parses + fails) // 2
        try:
            parse(nested(mid))
            parses = mid
        except PayloadSyntaxError:
            fails = mid
    assert render(parse(nested(parses))) == nested(parses)


# One sample of each concrete payload type.
SAMPLES = {
    Unit: UNIT,
    Nat: Nat(4),
    Int: Int(-2),
    Bool: Bool(False),
    Addr: addr(contract(3)),
    Pair: Pair(Nat(1), UNIT),
    PList: PList((Nat(1), Tag("x"))),
    MapKV: record(a=Nat(1)),
    Tag: Tag("f", Nat(2)),
}


def test_every_payload_type_renders_and_parses_back():
    assert set(Payload.__subclasses__()) == set(SAMPLES)
    for p in SAMPLES.values():
        assert parse(render(p)) == p


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


# -- field kinds ----------------------------------------------------------------

# Each kind with a native value; no two of them write payloads of one kind.
KIND_SAMPLES = {
    "NAT": (NAT, 7),
    "INT": (INT, -3),
    "BOOL": (BOOL, True),
    "ADDR": (ADDR, user(2)),
    "pair_of(ADDR, NAT)": (pair_of(ADDR, NAT), (user(1), 4)),
    "pair_of(ADDR, ADDR)": (pair_of(ADDR, ADDR), (user(1), contract(2))),
    "ledger(ADDR)": (ledger(ADDR), ((contract(1), 5), (user(0), 1))),
    "ledger(pair_of(ADDR, NAT))":
        (ledger(pair_of(ADDR, NAT)), (((user(0), 0), 2), ((user(0), 3), 1))),
}


@pytest.mark.parametrize("kind, value", [*KIND_SAMPLES.values(), (ANY, Tag("x"))],
                         ids=[*KIND_SAMPLES, "ANY"])
def test_a_kind_reads_what_it_writes(kind, value):
    write, read = kind
    assert read(write(value)) == value
    assert read(None) is None


@pytest.mark.parametrize("name", KIND_SAMPLES)
def test_a_kind_reads_no_payload_of_another_kind(name):
    (_, read), _ = KIND_SAMPLES[name]
    for other, ((write, _), value) in KIND_SAMPLES.items():
        if other != name:
            assert read(write(value)) is None, other


def test_a_ledger_is_written_in_map_order_and_read_without_zeros():
    write, read = ledger(pair_of(ADDR, ADDR))
    entries = (((contract(1), user(0)), 3), ((user(0), contract(1)), 2), ((user(0), user(1)), 1))
    assert write(entries) == map_kv((pair(addr(a), addr(b)), Nat(v)) for (a, b), v in entries)
    assert read(map_kv([(pair(addr(user(0)), addr(user(1))), Nat(0))])) == ()


@dataclass(frozen=True)
class Point:
    x: int
    y: Address


def test_codec_round_trips_its_dataclass_as_a_record():
    encode, decode = codec(Point, x=NAT, y=ADDR)
    assert encode(Point(3, user(1))) == record(x=Nat(3), y=addr(user(1)))
    assert decode(encode(Point(3, user(1)))) == Point(3, user(1))
    assert decode(record(x=Nat(3))) is None


@pytest.mark.parametrize("kinds", [{"x": NAT}, {"y": ADDR, "x": NAT}, {"x": NAT, "y": ADDR, "z": NAT}])
def test_codec_refuses_names_that_are_not_the_fields_in_order(kinds):
    with pytest.raises(ValueError, match=r"Point has the fields \('x', 'y'\), not"):
        codec(Point, **kinds)
