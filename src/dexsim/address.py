"""Addresses of the simulated chain.

Two kinds exist: user accounts (which never host code) and contract
accounts (only ever minted by deployment).  Equality and ordering are
total.  The null address (contract kind, index 0) is reserved: nothing
can be deployed there, and it doubles as the "unset" sentinel for
contract-address fields.
"""

from __future__ import annotations

from dataclasses import dataclass

USER = "user"
CONTRACT = "contract"


@dataclass(frozen=True, order=True)
class Address:
    kind: str
    index: int

    def __post_init__(self) -> None:
        if self.kind not in (USER, CONTRACT):
            raise ValueError(f"bad address kind: {self.kind!r}")
        if self.index < 0:
            raise ValueError("address index must be a natural")
        # Addresses key most of the chain's dicts; hash once, with the value
        # the generated ``__hash__`` would give, so iteration orders stay put.
        object.__setattr__(self, "_hash", hash((self.kind, self.index)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def is_user(self) -> bool:
        return self.kind == USER

    @property
    def is_contract(self) -> bool:
        return self.kind == CONTRACT

    def __str__(self) -> str:
        return f"@{'u' if self.is_user else 'c'}{self.index}"


def user(index: int) -> Address:
    return Address(USER, index)


def contract(index: int) -> Address:
    return Address(CONTRACT, index)


NULL_ADDRESS = contract(0)
