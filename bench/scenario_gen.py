"""Seeded generator of `dexsim run` scenario files for the scenario_exec workload.

Two exchanges (A and B) share four users.  After three wiring blocks come
``BLOCKS`` blocks of ``ACTIONS_PER_BLOCK`` root actions: trades on either
exchange, cross-exchange ``token_to_token`` in both directions, liquidity
deposits and withdrawals, liquidity-token transfers and views whose
callbacks go to a ``sink`` contract, and plain tez donations.  Amounts are
small against the pools and the users' holdings, so every such block
commits.  ``STALE_BLOCKS`` extra one-action blocks hold a trade whose
deadline has passed, and roll back.

Every scenario has the same number of actions of each kind (``KINDS``
gives the count per ``GROUP_BLOCKS`` blocks); the seed picks their order,
users, exchanges, amounts and where the stale blocks go.  So every seed
executes the same number of actions, and run times differ across seeds by
content, not by size: the interpreter's full collections, which take half
of a run, are triggered by heap growth, and a few percent more actions
can add one more.

The generator is pure: the same seed gives the same JSON text.
"""

from __future__ import annotations

import json
import random

USERS = ("alice", "bob", "carol", "dave")
BLOCKS = 400
ACTIONS_PER_BLOCK = 4
GROUP_BLOCKS = 4
STALE_BLOCKS = 8

USER_TEZ = 10**12
USER_TOKENS = 10**9
POOL = 10**7  # initial tez pool, token pool and liquidity supply
FAR = 10**9  # a deadline no run reaches
STALE = 1  # a deadline every block has passed: blocks execute at slot >= 1

# exchange -> (main, token, lqt, liquidity provider)
EXCHANGES = {"A": ("mainA", "tokA", "lqtA", "alice"), "B": ("mainB", "tokB", "lqtB", "bob")}

KINDS = {  # actions of each kind per GROUP_BLOCKS blocks
    "xtz_to_token": 3,
    "token_to_xtz": 3,
    "token_to_token": 3,
    "add_liquidity": 2,
    "remove_liquidity": 2,
    "lqt_transfer": 1,
    "lqt_view": 1,
    "donate": 1,
}
if sum(KINDS.values()) != GROUP_BLOCKS * ACTIONS_PER_BLOCK:
    raise ValueError("KINDS must fill GROUP_BLOCKS blocks exactly")


def _call(sender: str, to: str, msg: str, amount: int = 0) -> dict:
    return {"type": "call", "from": sender, "to": to, "amount": amount, "msg": msg}


def _dexter(sender: str, main: str, inner: str, amount: int = 0) -> dict:
    return _call(sender, main, f"other_msg({inner})", amount)


def _xtz_to_token(sender: str, main: str, amount: int, deadline: int) -> dict:
    return _dexter(
        sender, main,
        f"xtz_to_token({{to: @{sender}, minTokensBought: 0, deadline: {deadline}}})",
        amount,
    )


def _wiring_blocks() -> list[list[dict]]:
    ledger = ", ".join(f"(@{u}, 0): {USER_TOKENS}" for u in USERS)
    deploys, funding, updates = [], [], []
    for main, tok, lqt, provider in EXCHANGES.values():
        deploys += [
            {"type": "deploy", "from": provider, "name": tok, "contract": "fa2",
             "setup": f"{{ledger: {{{ledger}}}}}"},
            {"type": "deploy", "from": provider, "name": main, "contract": "cpmm",
             "setup": f"{{lqtTotal_: {POOL}, manager_: @{provider}, tokenAddress_: @{tok},"
                      " tokenId_: 0}"},
            {"type": "deploy", "from": provider, "name": lqt, "contract": "fa12",
             "setup": f"{{admin_: @{main}, lqt_provider: @{provider}, initial_pool: {POOL}}}"},
        ]
        funding += [
            _dexter(provider, main, f"set_lqt_address({{addr: @{lqt}}})"),
            _call(provider, tok, f"transfer({{from: @{provider}, to: @{main}, tokenId: 0,"
                                 f" value: {POOL}}})"),
            {"type": "transfer", "from": provider, "to": main, "amount": POOL},
        ]
        updates.append(_dexter(provider, main, "update_token_pool"))
    deploys.append({"type": "deploy", "from": "alice", "name": "sink", "contract": "sink"})
    return [deploys, funding, updates]


def _action(rng: random.Random, kind: str) -> dict:
    ex = rng.choice(sorted(EXCHANGES))
    main, _tok, lqt, provider = EXCHANGES[ex]
    u = rng.choice(USERS)
    if kind == "xtz_to_token":
        return _xtz_to_token(u, main, rng.randint(1, 10**4), FAR)
    if kind == "token_to_xtz":
        return _dexter(
            u, main,
            f"token_to_xtz({{to: @{u}, tokensSold: {rng.randint(1, 10**4)},"
            f" minXtzBought: 0, deadline: {FAR}}})",
        )
    if kind == "token_to_token":
        other = EXCHANGES["B" if ex == "A" else "A"][0]
        to = rng.choice(USERS)
        return _dexter(
            u, main,
            f"token_to_token({{outputDexter: @{other}, to: @{to},"
            f" tokensSold: {rng.randint(1, 10**4)}, minTokensBought: 0, deadline: {FAR}}})",
        )
    if kind == "add_liquidity":
        return _dexter(
            u, main,
            f"add_liquidity({{owner: @{u}, minLqtMinted: 0,"
            f" maxTokensDeposited: {USER_TOKENS}, deadline: {FAR}}})",
            rng.randint(1, 10**4),
        )
    if kind == "remove_liquidity":
        # Only the provider is sure to hold liquidity tokens.
        return _dexter(
            provider, main,
            f"remove_liquidity({{to: @{provider}, lqtBurned: {rng.randint(1, 100)},"
            f" minXtzWithdrawn: 0, minTokensWithdrawn: 0, deadline: {FAR}}})",
        )
    if kind == "lqt_transfer":
        return _call(
            provider, lqt,
            f"transfer({{from: @{provider}, to: @{u}, value: {rng.randint(1, 100)}}})",
        )
    if kind == "lqt_view":
        view = rng.choice(["get_total_supply", "get_balance", "get_allowance"])
        if view == "get_total_supply":
            arg = "{callback: @sink}"
        elif view == "get_balance":
            arg = f"{{owner: @{u}, callback: @sink}}"
        else:
            arg = f"{{owner: @{provider}, spender: @{u}, callback: @sink}}"
        return _call(u, lqt, f"{view}({arg})")
    if kind == "donate":
        return {"type": "transfer", "from": u, "to": main, "amount": rng.randint(1, 10**3)}
    raise ValueError(f"unknown action kind {kind!r}")


def generate(seed: int) -> str:
    """The scenario file text for ``seed``."""
    rng = random.Random(seed)
    kinds = [k for k in sorted(KINDS) for _ in range(KINDS[k] * BLOCKS // GROUP_BLOCKS)]
    rng.shuffle(kinds)
    actions = [_action(rng, k) for k in kinds]
    body = [actions[i:i + ACTIONS_PER_BLOCK] for i in range(0, len(actions), ACTIONS_PER_BLOCK)]
    for at in sorted(rng.sample(range(BLOCKS), STALE_BLOCKS), reverse=True):
        main = EXCHANGES[rng.choice(sorted(EXCHANGES))][0]
        body.insert(at, [_xtz_to_token(rng.choice(USERS), main, 100, STALE)])
    doc = {"users": {u: USER_TEZ for u in USERS}, "blocks": _wiring_blocks() + body}
    return json.dumps(doc, indent=0)
