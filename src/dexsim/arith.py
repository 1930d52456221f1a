"""Natural/integer arithmetic with explicit partiality.

Contract code uses the partial (``*_opt``) operations and passes each
result through ``chain.some``, which turns an absent one into a refusal of
the call.

All values are Python ints, so everything is arbitrary precision.
"""

from __future__ import annotations


def sub_opt(n: int, m: int) -> int | None:
    """n - m on naturals, absent when the result would be negative."""
    if n < m:
        return None
    return n - m


def div_opt(n: int, m: int) -> int | None:
    """Floor division, absent on zero divisor."""
    if m == 0:
        return None
    return n // m


def ceildiv_opt(n: int, m: int) -> int | None:
    """Ceiling division, absent on zero divisor."""
    if m == 0:
        return None
    return -(-n // m)


def int_add_nat(n: int, q: int) -> int | None:
    """Apply a signed quantity to a natural; absent when it would go negative."""
    r = n + q
    if r < 0:
        return None
    return r


def amount_to_nat(a: int) -> int:
    """Mutez are naturals in this model; the embedding is the identity."""
    return a
