"""The serialization envelope shared by every contract.

Heterogeneous typed contracts live in one environment by exchanging values
of a single canonical tagged tree, ``Payload``.  Each contract module owns
an encode/decode pair between its native dataclasses and this tree; a
decode failure (None) is how a contract rejects a structurally foreign
message.

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

Every contract call decodes its state from this tree and encodes the new
state back, so the codec is kept to one pass: ``MapKV`` canonicalises in
one sort on ``sort_key`` (computed once per key, duplicates found as equal
neighbours), ``record`` builds its entries already canonical from interned
field tags, and ``rec_decode`` (which replaces ``rec_fields``) reads a
record's entries once.  Every contract reads its state, setup and
entrypoint arguments through ``rec_decode``, from tables of field names and
``as_*`` readers.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from operator import itemgetter

from .address import CONTRACT, USER, Address


class Payload:
    """Base of the canonical tagged tree."""

    __slots__ = ()


@dataclass(frozen=True)
class Unit(Payload):
    pass


@dataclass(frozen=True)
class Nat(Payload):
    value: int

    def __post_init__(self) -> None:
        if self.value < 0:
            raise ValueError("Nat payload must be non-negative")


@dataclass(frozen=True)
class Int(Payload):
    value: int


@dataclass(frozen=True)
class Bool(Payload):
    value: bool


@dataclass(frozen=True)
class Addr(Payload):
    address: Address


@dataclass(frozen=True)
class Pair(Payload):
    first: Payload
    second: Payload


@dataclass(frozen=True)
class PList(Payload):
    items: tuple[Payload, ...]


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class Tag(Payload):
    name: str
    arg: Payload = field(default_factory=Unit)

    def __post_init__(self) -> None:
        if not _TAG_NAME.fullmatch(self.name) or self.name in _KEYWORDS:
            raise ValueError(f"bad tag name: {self.name!r}")


UNIT = Unit()
_first = itemgetter(0)
_TAG_NAME = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*")
_KEYWORDS = frozenset({"unit", "int", "true", "false"})

# Structural total order, used to canonicalise MapKV.
_RANK = {Unit: 0, Nat: 1, Int: 2, Bool: 3, Addr: 4, Pair: 5, PList: 6, MapKV: 7, Tag: 8}


def sort_key(p: Payload) -> tuple:
    r = _RANK[type(p)]
    if isinstance(p, Unit):
        return (r,)
    if isinstance(p, (Nat, Int)):
        return (r, p.value)
    if isinstance(p, Bool):
        return (r, p.value)
    if isinstance(p, Addr):
        return (r, p.address.kind, p.address.index)
    if isinstance(p, Pair):
        return (r, sort_key(p.first), sort_key(p.second))
    if isinstance(p, PList):
        return (r, tuple(sort_key(x) for x in p.items))
    if isinstance(p, MapKV):
        return (r, tuple((sort_key(k), sort_key(v)) for k, v in p.entries))
    assert isinstance(p, Tag)
    return (r, p.name, sort_key(p.arg))


# -- construction helpers ----------------------------------------------------


def nat(n: int) -> Nat:
    return Nat(n)


def integer(i: int) -> Int:
    return Int(i)


def boolean(b: bool) -> Bool:
    return Bool(b)


def addr(a: Address) -> Addr:
    return Addr(a)


def pair(a: Payload, b: Payload) -> Pair:
    return Pair(a, b)


def plist(items) -> PList:
    return PList(tuple(items))


def map_kv(entries) -> MapKV:
    return MapKV(tuple(entries))


def tag(name: str, arg: Payload = UNIT) -> Tag:
    return Tag(name, arg)


# One bare tag per field name, validated by ``Tag`` the first time the name
# is used.  Field names come from the contract and harness code, so this
# stays as small as their vocabulary.
_FIELD_TAGS: dict[str, Tag] = {}


def _field_tag(name: str) -> Tag:
    t = _FIELD_TAGS.get(name)
    if t is None:
        t = _FIELD_TAGS[name] = Tag(name)
    return t


def record(**fields: Payload) -> MapKV:
    """A message/state record: a map keyed by bare field-name tags.

    Built canonical: bare tags sort by name alone and keyword names are
    distinct, so sorting the names gives ``MapKV``'s order with no
    duplicate to find.
    """
    m = object.__new__(MapKV)
    object.__setattr__(m, "entries", tuple((_field_tag(k), fields[k]) for k in sorted(fields)))
    return m


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
    which every ``as_*`` reader maps to None."""
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


def as_entries(p: Payload) -> tuple[tuple[Payload, Payload], ...] | None:
    return p.entries if isinstance(p, MapKV) else None


def as_payload(p: Payload | None) -> Payload | None:
    """The field as it is, for a handler that checks its shape itself."""
    return p


# -- rendering ---------------------------------------------------------------


def render(p: Payload) -> str:
    if isinstance(p, Unit):
        return "unit"
    if isinstance(p, Nat):
        return str(p.value)
    if isinstance(p, Int):
        return f"int({p.value})"
    if isinstance(p, Bool):
        return "true" if p.value else "false"
    if isinstance(p, Addr):
        return str(p.address)
    if isinstance(p, Pair):
        return f"({render(p.first)}, {render(p.second)})"
    if isinstance(p, PList):
        return "[" + ", ".join(render(x) for x in p.items) + "]"
    if isinstance(p, MapKV):
        return "{" + ", ".join(f"{render(k)}: {render(v)}" for k, v in p.entries) + "}"
    assert isinstance(p, Tag)
    if p.arg == UNIT:
        return p.name
    return f"{p.name}({render(p.arg)})"


# -- parsing -----------------------------------------------------------------

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<addr>@[a-zA-Z_][a-zA-Z0-9_]*)"
    r"|(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)|(?P<punct>[()\[\]{},:\-]))"
)


class PayloadSyntaxError(ValueError):
    pass


class _Parser:
    def __init__(self, text: str, aliases: dict[str, Address] | None):
        self.text = text
        self.pos = 0
        self.aliases = aliases or {}

    def error(self, msg: str) -> PayloadSyntaxError:
        return PayloadSyntaxError(f"{msg} at offset {self.pos} in {self.text!r}")

    def peek(self) -> tuple[str, str] | None:
        m = _TOKEN.match(self.text, self.pos)
        if m is None:
            return None
        kind = m.lastgroup
        assert kind is not None
        return kind, m.group(kind)

    def next(self) -> tuple[str, str]:
        m = _TOKEN.match(self.text, self.pos)
        if m is None:
            raise self.error("unexpected input")
        self.pos = m.end()
        kind = m.lastgroup
        assert kind is not None
        return kind, m.group(kind)

    def expect(self, punct: str) -> None:
        tok = self.next()
        if tok != ("punct", punct):
            raise self.error(f"expected {punct!r}")

    def parse(self) -> Payload:
        p = self.value()
        if self.text[self.pos :].strip():
            raise self.error("trailing input")
        return p

    def resolve_addr(self, text: str) -> Address:
        name = text[1:]
        if name in self.aliases:
            return self.aliases[name]
        m = re.fullmatch(r"([uc])(\d+)", name)
        if m is None:
            raise self.error(f"unknown address {text!r}")
        kind = USER if m.group(1) == "u" else CONTRACT
        return Address(kind, int(m.group(2)))

    def value(self) -> Payload:
        kind, text = self.next()
        if kind == "num":
            return Nat(int(text))
        if kind == "addr":
            return Addr(self.resolve_addr(text))
        if kind == "punct":
            if text == "(":
                first = self.value()
                self.expect(",")
                second = self.value()
                self.expect(")")
                return Pair(first, second)
            if text == "[":
                return PList(tuple(self.seq("]")))
            if text == "{":
                entries = []
                nxt = self.peek()
                if nxt == ("punct", "}"):
                    self.next()
                else:
                    while True:
                        k = self.value()
                        self.expect(":")
                        v = self.value()
                        entries.append((k, v))
                        tok = self.next()
                        if tok == ("punct", "}"):
                            break
                        if tok != ("punct", ","):
                            raise self.error("expected ',' or '}'")
                return MapKV(tuple(entries))
            raise self.error(f"unexpected {text!r}")
        assert kind == "name"
        if text == "unit":
            return UNIT
        if text == "true":
            return Bool(True)
        if text == "false":
            return Bool(False)
        if text == "int":
            self.expect("(")
            tok = self.next()
            neg = False
            if tok == ("punct", "-"):
                neg = True
                tok = self.next()
            if tok[0] != "num":
                raise self.error("expected integer literal")
            self.expect(")")
            v = int(tok[1])
            return Int(-v if neg else v)
        if self.peek() == ("punct", "("):
            self.next()
            arg = self.value()
            self.expect(")")
            return Tag(text, arg)
        return Tag(text)

    def seq(self, closer: str):
        if self.peek() == ("punct", closer):
            self.next()
            return
        while True:
            yield self.value()
            tok = self.next()
            if tok == ("punct", closer):
                return
            if tok != ("punct", ","):
                raise self.error(f"expected ',' or {closer!r}")


def parse(text: str, aliases: dict[str, Address] | None = None) -> Payload:
    """Parse the canonical textual rendering back into a payload.

    ``aliases`` optionally maps bare names usable as ``@name`` to addresses
    (scenario files rely on this).
    """
    return _Parser(text, aliases).parse()
