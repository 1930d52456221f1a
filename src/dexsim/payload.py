"""The serialization envelope shared by every contract.

Heterogeneous typed contracts live in one environment by exchanging values
of a single canonical tagged tree, ``Payload``.  Each contract module
declares its records once, one field kind per name: a kind is a ``(write,
read)`` pair (``NAT``, ``INT``, ``BOOL``, ``ADDR``, ``ANY``, ``pair_of``,
``ledger``), ``codec`` derives a dataclass's encode/decode pair from its
kinds, and ``fields`` gives an entrypoint's field names and readers for
``rec_decode``.  A decode failure (None) is how a contract rejects a
structurally foreign message.

A stable textual rendering of payloads is part of the public surface: it
is what appears in trace dumps and scenario files.  Grammar:

    unit                      Unit
    42                        Nat
    int(-3)                   Int
    true / false              Bool
    @u3 / @c1                 Addr (user / contract index)
    (a, b)                    Pair
    [a, b, c]                 List
    {k: v, k2: v2}            MapKV (keys sorted, duplicate-free)
    name / name(arg)          Tag (bare name means Unit argument)

``unit``, ``int``, ``true`` and ``false`` are reserved and cannot be tag
names.  ``parse`` and ``render`` are mutual inverses on canonical values.
``parse`` tokenizes a text in one ``findall`` and descends the token list by
index; a bare name reads as its interned field tag, and the reserved words
as shared constants.  ``render`` dispatches on a payload's type through one
table.

A contract's state is a typed value of its own (``chain.ChainState.states``);
its payload, ``encode_state(s)``, is built only where a state is rendered.
Encoders build little: ``addr`` and ``boolean`` return interned payloads,
``Tag`` checks a name once, ``MapKV`` canonicalises in one sort on
``sort_key`` (computed once per key, duplicates found as equal neighbours),
``record`` builds its entries already canonical from interned field tags in
an order sorted once per keyword tuple, and ``rec_decode`` reads a record's
entries once.  A ``ledger`` writes its sorted, zero-free entries through
``ordered_map``, which trusts their order, as ``sort_key`` orders its keys as
their native values sort; ``credit``, the one change a contract makes to a
ledger, keeps that order and drops a zero.  Every payload type is a slotted
dataclass.
"""

from __future__ import annotations

import dataclasses
import re
from bisect import bisect_left
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from operator import itemgetter

from .address import CONTRACT, USER, Address


class Payload:
    """Base of the canonical tagged tree."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Unit(Payload):
    pass


UNIT = Unit()


@dataclass(frozen=True, slots=True)
class Nat(Payload):
    value: int

    def __post_init__(self) -> None:
        if self.value < 0:
            raise ValueError("Nat payload must be non-negative")


def check_nats(*values: int) -> None:
    """``Nat``'s error for a negative value.  A contract state type checks its
    nat fields when built, so a state that cannot be encoded fails where it
    is made, not where it is rendered."""
    if min(values, default=0) < 0:
        raise ValueError("Nat payload must be non-negative")


@dataclass(frozen=True, slots=True)
class Int(Payload):
    value: int


@dataclass(frozen=True, slots=True)
class Bool(Payload):
    value: bool


@dataclass(frozen=True, slots=True)
class Addr(Payload):
    address: Address


@dataclass(frozen=True, slots=True)
class Pair(Payload):
    first: Payload
    second: Payload


@dataclass(frozen=True, slots=True)
class PList(Payload):
    items: tuple[Payload, ...]


@dataclass(frozen=True, slots=True)
class MapKV(Payload):
    entries: tuple[tuple[Payload, Payload], ...]

    def __post_init__(self) -> None:
        keyed = sorted(zip(map(sort_key, [k for k, _ in self.entries]), self.entries), key=_first)
        # ``sort_key`` is injective on payloads (equal keys iff equal
        # payloads), so after sorting any duplicate key sits next to its twin.
        for (a, _), (b, _) in zip(keyed, keyed[1:]):
            if a == b:
                raise ValueError("duplicate MapKV key")
        object.__setattr__(self, "entries", tuple(kv for _, kv in keyed))


@dataclass(frozen=True, slots=True)
class Tag(Payload):
    name: str
    arg: Payload = UNIT

    def __post_init__(self) -> None:
        if self.name not in _TAG_NAMES:
            if not _TAG_NAME.fullmatch(self.name) or self.name in _KEYWORDS:
                raise ValueError(f"bad tag name: {self.name!r}")
            _TAG_NAMES.add(self.name)


_TRUE, _FALSE = Bool(True), Bool(False)
_ADDRS: dict[Address, Addr] = {}  # one payload per address ever encoded
_first = itemgetter(0)
_TAG_NAME = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*")
_KEYWORDS = frozenset({"unit", "int", "true", "false"})
_TAG_NAMES: set[str] = set()  # the names a ``Tag`` has been built with


def sort_key(p: Payload) -> tuple:
    """``p``'s place in the structural total order that canonicalises MapKV."""
    return _SORT_KEY[type(p)](p)


# One key per payload type, led by the type's rank.  A nested payload's key
# is taken through the module's ``sort_key``, so a wrapper installed there
# (``bench/tracing.py`` counts its calls) sees every level.
_SORT_KEY: dict[type, Callable[..., tuple]] = {
    Unit: lambda p: (0,),
    Nat: lambda p: (1, p.value),
    Int: lambda p: (2, p.value),
    Bool: lambda p: (3, p.value),
    Addr: lambda p: (4, *p.address),  # an ``Address`` is the tuple (kind, index)
    Pair: lambda p: (5, sort_key(p.first), sort_key(p.second)),
    PList: lambda p: (6, tuple(map(sort_key, p.items))),
    MapKV: lambda p: (7, tuple([(sort_key(k), sort_key(v)) for k, v in p.entries])),
    Tag: lambda p: (8, p.name, sort_key(p.arg)),
}


# -- construction helpers ----------------------------------------------------


def nat(n: int) -> Nat:
    return Nat(n)


def integer(i: int) -> Int:
    return Int(i)


def boolean(b: bool) -> Bool:
    return _TRUE if b else _FALSE


def addr(a: Address) -> Addr:
    return _ADDRS.get(a) or _ADDRS.setdefault(a, Addr(a))


def pair(a: Payload, b: Payload) -> Pair:
    return Pair(a, b)


def plist(items) -> PList:
    return PList(tuple(items))


def map_kv(entries) -> MapKV:
    return MapKV(tuple(entries))


# One bare tag per field name, validated by ``Tag`` the first time the name
# is used.  Field names come from the contract and harness code and from the
# bare names ``parse`` reads, so this grows with the names a process parses.
_FIELD_TAGS: dict[str, Tag] = {}
_RECORD_ORDER: dict[tuple[str, ...], list[tuple[str, Tag]]] = {}  # keywords -> sorted (name, tag)


def _field_tag(name: str) -> Tag:
    t = _FIELD_TAGS.get(name)
    if t is None:
        t = _FIELD_TAGS[name] = Tag(name)
    return t


def ordered_map(entries) -> MapKV:
    """A map of entries with distinct keys already in ``sort_key`` order, unchecked."""
    m = object.__new__(MapKV)
    object.__setattr__(m, "entries", tuple(entries))
    return m


def record(**fields: Payload) -> MapKV:
    """A message/state record: a map keyed by bare field-name tags.

    Built canonical: bare tags sort by name alone and keyword names are
    distinct, so sorting the names gives ``MapKV``'s order with no
    duplicate to find.
    """
    order = _RECORD_ORDER.get(tuple(fields))
    if order is None:
        order = _RECORD_ORDER[tuple(fields)] = [(k, _field_tag(k)) for k in sorted(fields)]
    return ordered_map([(t, fields[k]) for k, t in order])


def rec_get(p: Payload, name: str) -> Payload | None:
    if not isinstance(p, MapKV):
        return None
    for k, v in p.entries:
        if isinstance(k, Tag) and k.name == name and type(k.arg) is Unit:
            return v
    return None


def rec_decode(p: Payload, names: Sequence[str], readers: Sequence[Callable]) -> list | None:
    """The named fields of a record, each converted by its reader, or None
    if any reader returns None.  A missing field reaches its reader as None,
    which every kind's reader maps to None."""
    entries = p.entries if isinstance(p, MapKV) else ()
    fields = {k.name: v for k, v in entries if isinstance(k, Tag) and type(k.arg) is Unit}
    values = []
    for name, read in zip(names, readers):
        v = read(fields.get(name))
        if v is None:
            return None
        values.append(v)
    return values


def wrap_receiver(inner: Payload) -> Tag:
    """Wrap a contract's own message in the callback-receiver envelope."""
    return Tag("other_msg", inner)


def as_nat(p: Payload) -> int | None:
    return p.value if isinstance(p, Nat) else None


def as_int(p: Payload) -> int | None:
    return p.value if isinstance(p, Int) else None


def as_bool(p: Payload) -> bool | None:
    return p.value if isinstance(p, Bool) else None


def as_addr(p: Payload) -> Address | None:
    return p.address if isinstance(p, Addr) else None


def as_payload(p: Payload | None) -> Payload | None:
    """The field as it is, for a handler that checks its shape itself."""
    return p


# -- field kinds ---------------------------------------------------------------

# A kind is a ``(write, read)`` pair between a native value and its payload.
# ``read`` returns None on a payload of any other kind and on None, which is
# how ``rec_decode`` passes a missing field.
Kind = tuple[Callable, Callable]

NAT: Kind = (nat, as_nat)
INT: Kind = (integer, as_int)
BOOL: Kind = (boolean, as_bool)
ADDR: Kind = (addr, as_addr)
ANY: Kind = (as_payload, as_payload)


def pair_of(first: Kind, second: Kind) -> Kind:
    """A native ``(a, b)`` as a ``Pair``."""
    (write1, read1), (write2, read2) = first, second

    def write(v: tuple) -> Pair:
        return Pair(write1(v[0]), write2(v[1]))

    def read(p: Payload | None) -> tuple | None:
        if not isinstance(p, Pair):
            return None
        a, b = read1(p.first), read2(p.second)
        return None if a is None or b is None else (a, b)

    return write, read


def ledger(key: Kind) -> Kind:
    """A ledger: sorted, zero-free ``(key, nat)`` entries as a map.  The key
    kind's native values must sort as ``sort_key`` sorts their payloads (every
    kind here but ``ANY`` does), so the writer's entries are already in
    ``MapKV`` order and the reader's in native order; the reader drops zeros."""
    write_key, read_key = key

    def write(entries: tuple) -> MapKV:
        return ordered_map((write_key(k), nat(v)) for k, v in entries)

    def read(p: Payload | None) -> tuple | None:
        if not isinstance(p, MapKV):
            return None
        entries = []
        for k, v in p.entries:
            native, value = read_key(k), as_nat(v)
            if native is None or value is None:
                return None
            if value:
                entries.append((native, value))
        return tuple(entries)

    return write, read


def lookup(entries: tuple, key) -> int:
    """The value at ``key`` in a ledger's ordered entries, 0 if absent."""
    i = bisect_left(entries, (key,))
    return entries[i][1] if i < len(entries) and entries[i][0] == key else 0


def credit(entries: tuple, key, amount: int) -> tuple | None:
    """A ledger's sorted, zero-free entries with ``amount`` added at ``key``, in
    the same order and without a zero; None if the value would go below zero."""
    i = bisect_left(entries, (key,))
    j = i + (i < len(entries) and entries[i][0] == key)
    value = (entries[i][1] if j > i else 0) + amount
    if value < 0:
        return None
    return entries[:i] + ((key, value),) + entries[j:] if value else entries[:i] + entries[j:]


def fields(**kinds: Kind) -> tuple[tuple[str, ...], tuple[Callable, ...]]:
    """The names and readers of a record's fields, for ``rec_decode``."""
    return tuple(kinds), tuple(read for _, read in kinds.values())


def codec(cls: type, **kinds: Kind) -> tuple[Callable, Callable]:
    """``(encode, decode)`` between the dataclass ``cls`` and its record, one
    kind per field, named in the field order.  ``decode`` returns None on a
    malformed record."""
    names, readers = fields(**kinds)
    declared = tuple(f.name for f in dataclasses.fields(cls))
    if names != declared:
        raise ValueError(f"{cls.__name__} has the fields {declared}, not {names}")

    def encode(s) -> MapKV:
        return record(**{name: write(getattr(s, name)) for name, (write, _) in kinds.items()})

    def decode(p: Payload):
        values = rec_decode(p, names, readers)
        return None if values is None else cls(*values)

    return encode, decode


# -- rendering ---------------------------------------------------------------


def render(p: Payload) -> str:
    return _RENDER[type(p)](p)


# One renderer per payload type.  A nested payload is rendered through the
# table, not through ``render``, so a level of nesting costs a renderer no
# more stack than it costs ``parse`` (see ``_seq``).
_RENDER: dict[type, Callable[..., str]] = {
    Unit: lambda p: "unit",
    Nat: lambda p: str(p.value),
    Int: lambda p: f"int({p.value})",
    Bool: lambda p: "true" if p.value else "false",
    Addr: lambda p: str(p.address),
    Pair: lambda p: f"({_RENDER[type(p.first)](p.first)}, {_RENDER[type(p.second)](p.second)})",
    PList: lambda p: "[" + ", ".join([_RENDER[type(x)](x) for x in p.items]) + "]",
    MapKV: lambda p: "{" + ", ".join([f"{_RENDER[type(k)](k)}: {_RENDER[type(v)](v)}"
                                      for k, v in p.entries]) + "}",
    Tag: lambda p: p.name if type(p.arg) is Unit else f"{p.name}({_RENDER[type(p.arg)](p.arg)})",
}


# -- parsing -----------------------------------------------------------------

# A token is a number, an address, a name or a punctuation mark.  ``_TOKEN``
# also reads any other character as a token of its own, so ``findall`` skips
# nothing; ``_WORD`` tells the two apart.
_WORD = re.compile(r"\d+|@?[a-zA-Z_][a-zA-Z0-9_]*|[()\[\]{},:\-]")
_TOKEN = re.compile(rf"\s*({_WORD.pattern}|\S)")
_NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_CONSTANTS = {"unit": UNIT, "true": _TRUE, "false": _FALSE}
RAW_ADDRESS = re.compile(r"([uc])(\d+)")  # @u3, @c1; ``scenario`` refuses such names


class PayloadSyntaxError(ValueError):
    pass


class _Fail(Exception):
    """``(message, n)``: a syntax error found after the first ``n`` tokens."""


def _unexpected(toks: list[str], i: int, msg: str) -> _Fail:
    """The error for token ``i`` when it is not the one wanted: ``msg`` once it
    is read, or ``unexpected input`` if it is no token at all."""
    return _Fail(msg, i + 1) if _WORD.fullmatch(toks[i]) else _Fail("unexpected input", i)


def _expect(toks: list[str], i: int, want: str) -> int:
    """The index after token ``i``, which must be ``want``."""
    if toks[i] != want:
        raise _unexpected(toks, i, f"expected {want!r}")
    return i + 1


def _value(toks: list[str], i: int, aliases: dict[str, Address]) -> tuple[Payload, int]:
    """The payload that starts at token ``i``, and the index of the token after it."""
    tok = toks[i]
    i += 1
    c = tok[:1]
    if c in _NAME_START:
        if tok in _CONSTANTS:
            return _CONSTANTS[tok], i
        if tok == "int":
            i = _expect(toks, i, "(")
            neg = toks[i] == "-"
            if neg:
                i += 1
            digits = toks[i]
            if not digits[:1].isdecimal():
                raise _unexpected(toks, i, "expected integer literal")
            i = _expect(toks, i + 1, ")")
            return Int(-int(digits) if neg else int(digits)), i
        if toks[i] != "(":
            return _field_tag(tok), i
        arg, i = _value(toks, i + 1, aliases)
        return Tag(tok, arg), _expect(toks, i, ")")
    if c.isdecimal():
        return Nat(int(tok)), i
    if c == "{":
        entries, i = _seq(toks, i, aliases, "}", _entry)
        try:
            return MapKV(tuple(entries)), i
        except ValueError:
            raise _Fail("duplicate map key", i) from None
    if c == "@" and tok != "@":
        name = tok[1:]
        if name in aliases:
            return addr(aliases[name]), i
        m = RAW_ADDRESS.fullmatch(name)
        if m is None:
            raise _Fail(f"unknown address {tok!r}", i)
        return addr(Address(USER if m.group(1) == "u" else CONTRACT, int(m.group(2)))), i
    if c == "[":
        items, i = _seq(toks, i, aliases, "]", _value)
        return PList(tuple(items)), i
    if c == "(":
        first, i = _value(toks, i, aliases)
        second, i = _value(toks, _expect(toks, i, ","), aliases)
        return Pair(first, second), _expect(toks, i, ")")
    raise _unexpected(toks, i - 1, f"unexpected {tok!r}")


def _seq(toks: list[str], i: int, aliases: dict[str, Address], closer: str, item) -> tuple[list, int]:
    """The comma-separated items, each read by ``item``, from token ``i`` to
    ``closer``, and the index of the token after it.  A list or map nests
    through this call, so parsing one costs at least the stack that
    rendering it does, and a payload too deep to render fails to parse."""
    items = []
    while toks[i] != closer or items:  # one more item, unless there are none
        x, i = item(toks, i, aliases)
        items.append(x)
        if toks[i] != ",":
            break
        i += 1
    if toks[i] != closer:
        raise _unexpected(toks, i, f"expected ',' or {closer!r}")
    return items, i + 1


def _entry(toks: list[str], i: int, aliases: dict[str, Address]) -> tuple[tuple[Payload, Payload], int]:
    k, i = _value(toks, i, aliases)
    v, i = _value(toks, _expect(toks, i, ":"), aliases)
    return (k, v), i


def parse(text: str, aliases: dict[str, Address] | None = None) -> Payload:
    """Parse the canonical textual rendering back into a payload.

    ``aliases`` optionally maps bare names usable as ``@name`` to addresses
    (scenario files rely on this).  Text nested too deep, or a number too long
    to convert, is a ``PayloadSyntaxError`` too.
    """
    toks = _TOKEN.findall(text)
    toks.append("")  # the end, which is no ``_WORD``
    try:
        p, i = _value(toks, 0, aliases or {})
        if toks[i]:
            raise _Fail("trailing input", i)
        return p
    except _Fail as e:
        msg, n = e.args
        # The offset is where the first ``n`` tokens end, found again only now.
        ends = [0, *(m.end() for m in _TOKEN.finditer(text))]
        raise PayloadSyntaxError(f"{msg} at offset {ends[n]} in {text!r}") from None
    except (ValueError, RecursionError) as e:
        raise PayloadSyntaxError(f"unparsable payload ({e})") from None
