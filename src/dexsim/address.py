"""Addresses of the simulated chain.

Two kinds exist: user accounts (which never host code) and contract
accounts (only ever minted by deployment).  Equality and ordering are
total.  The null address (contract kind, index 0) is reserved: nothing
can be deployed there, and it doubles as the "unset" sentinel for
contract-address fields.

An ``Address`` is the immutable tuple ``(kind, index)``, so hashing,
equality and ordering run in C with the plain tuple's values, and an address
equals the tuple ``(kind, index)`` (no code compares one with a tuple).
"""

from __future__ import annotations

from operator import itemgetter

USER = "user"
CONTRACT = "contract"


class Address(tuple):
    __slots__ = ()

    def __new__(cls, kind: str, index: int) -> "Address":
        if kind not in (USER, CONTRACT):
            raise ValueError(f"bad address kind: {kind!r}")
        if index < 0:
            raise ValueError("address index must be a natural")
        return tuple.__new__(cls, (kind, index))

    def __getnewargs__(self) -> tuple[str, int]:  # for copy and pickle
        return tuple(self)

    kind = property(itemgetter(0))
    index = property(itemgetter(1))
    is_user = property(lambda self: self[0] == USER)
    is_contract = property(lambda self: self[0] == CONTRACT)

    def __repr__(self) -> str:
        return f"Address(kind={self[0]!r}, index={self[1]!r})"

    def __str__(self) -> str:
        return f"@{'u' if self[0] == USER else 'c'}{self[1]}"


def user(index: int) -> Address:
    return Address(USER, index)


def contract(index: int) -> Address:
    return Address(CONTRACT, index)


NULL_ADDRESS = contract(0)
