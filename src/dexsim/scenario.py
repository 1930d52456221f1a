"""Scenario files: explicit, replayable block scripts.

A scenario is a JSON document:

    {
      "users":  {"alice": 1000000, "bob": 500},
      "blocks": [
        [
          {"type": "deploy", "from": "alice", "name": "token",
           "contract": "fa2", "amount": 0,
           "setup": "{ledger: {(@alice, 0): 1000}}"},
          {"type": "call", "from": "alice", "to": "token", "amount": 0,
           "msg": "transfer({from: @alice, to: @bob, tokenId: 0, value: 5})"},
          {"type": "transfer", "from": "alice", "to": "bob", "amount": 100}
        ]
      ]
    }

Users are assigned addresses @u0.. in declaration order, and every "from"
names a user; each deploy's "name" is bound to the deterministic address
it will be minted at, so later actions (and payload texts, via @name) can
refer to it.  The k-th deploy is bound to @ck as if every deploy commits;
one that commits elsewhere (an earlier deploy was rejected) raises
``ScenarioError``.  Message and setup payloads use the canonical payload
grammar; each distinct payload text is parsed once per file, and the
actions that repeat a text share one payload.

Executing a scenario produces one line-delimited JSON record per chain
event (see docs/trace-format.md), plus a record per rejected block.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from . import cpmm, fa2, fa12
from .address import NULL_ADDRESS, Address, contract, user
from .chain import (
    Action,
    Call,
    ChainState,
    Deploy,
    DeployedEvent,
    Event,
    ExecOrder,
    Transfer,
    TxEvent,
    decoded,
    empty_chain,
)

# Unused here (blocks run through ``harness.Run``), but bench/tracing.py
# wraps ``add_block`` in every module that imported it.
from .chain import add_block  # noqa: F401
from .harness import Run, Snapshot, Wiring, make_sink_contract
from .payload import RAW_ADDRESS, Payload, PayloadSyntaxError, parse, render


class ScenarioError(ValueError):
    pass


CONTRACT_REGISTRY = {
    "cpmm": cpmm.make_contract,
    "fa12": fa12.make_contract,
    "fa2": fa2.make_contract,
    "sink": make_sink_contract,
}

ACTION_KEYS = {  # the keys each action type reads; any other is an error
    "deploy": {"type", "from", "amount", "contract", "name", "setup"},
    "transfer": {"type", "from", "to", "amount"},
    "call": {"type", "from", "to", "amount", "msg"},
}


@dataclass
class Scenario:
    aliases: dict[str, Address]
    users: list[tuple[Address, int]]
    blocks: list[list[Action]]
    deploys: dict[int, list[str]] = field(default_factory=dict)  # per block, in order


def load_scenario(text: str) -> Scenario:
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as e:  # too deep, or an int too long to convert
        raise ScenarioError(f"invalid JSON: {e}") from None
    if not (isinstance(doc, dict) and isinstance(doc.get("blocks"), list)
            and isinstance(doc.get("users", {}), dict)):
        raise ScenarioError("scenario must be an object with a 'blocks' list and a 'users' object")

    aliases: dict[str, Address] = {}
    users: list[tuple[Address, int]] = []
    for i, (name, balance) in enumerate(doc.get("users", {}).items()):
        if type(balance) is not int or balance < 0:
            raise ScenarioError(f"user {name}: balance must be a non-negative integer")
        users.append((_bind(aliases, name, user(i), f"user {name}"), balance))

    blocks: list[list[Action]] = []
    deploys: dict[int, list[str]] = {}
    # Each distinct text parsed once.  Sound as an alias never changes once
    # bound and the first failure ends the load, so no text that failed is kept.
    parsed: dict[str, Payload] = {}
    next_contract = 1
    for bi, raw_block in enumerate(doc["blocks"]):
        if not isinstance(raw_block, list):
            raise ScenarioError(f"block {bi} must be a list of actions")
        actions: list[Action] = []
        for ai, raw in enumerate(raw_block):
            where = f"block {bi} action {ai}"
            if not isinstance(raw, dict) or "type" not in raw:
                raise ScenarioError(f"{where}: action must be an object with 'type'")
            kind = raw["type"]
            if not isinstance(kind, str) or kind not in ACTION_KEYS:
                raise ScenarioError(f"{where}: unknown action type {kind!r}")
            if unknown := sorted(raw.keys() - ACTION_KEYS[kind]):
                raise ScenarioError(f"{where}: unknown key(s) {', '.join(unknown)} in a {kind}")
            sender = _resolve(aliases, raw.get("from"), where)
            if not sender.is_user:
                raise ScenarioError(f"{where}: {raw['from']!r} is not a user")
            amount = raw.get("amount", 0)
            if type(amount) is not int or amount < 0:
                raise ScenarioError(f"{where}: bad amount")
            if kind == "deploy":
                ref_name = raw.get("contract")
                factory = CONTRACT_REGISTRY.get(ref_name)
                if factory is None:
                    raise ScenarioError(f"{where}: unknown contract {ref_name!r}")
                name = raw.get("name")
                if not isinstance(name, str) or not name:
                    raise ScenarioError(f"{where}: deploy requires a 'name'")
                setup = _payload(aliases, parsed, raw.get("setup", "unit"), where)
                _bind(aliases, name, contract(next_contract), where)
                deploys.setdefault(bi, []).append(name)
                next_contract += 1
                actions.append(Action(sender, sender, Deploy(amount, factory(), setup)))
            elif kind == "transfer":
                to = _resolve(aliases, raw.get("to"), where)
                actions.append(Action(sender, sender, Transfer(to, amount)))
            else:  # a call
                to = _resolve(aliases, raw.get("to"), where)
                msg = _payload(aliases, parsed, raw.get("msg", "unit"), where)
                actions.append(Action(sender, sender, Call(to, amount, msg)))
        blocks.append(actions)
    return Scenario(aliases, users, blocks, deploys)


def _bind(aliases: dict[str, Address], name: str, a: Address, where: str) -> Address:
    """Name ``a``, unless the name is taken or reads as a raw address (``@u3``)."""
    if name in aliases:
        raise ScenarioError(f"{where}: duplicate name {name!r}")
    if RAW_ADDRESS.fullmatch(name):
        raise ScenarioError(f"{where}: name {name!r} reads as a raw address")
    aliases[name] = a
    return a


def _resolve(aliases: dict[str, Address], name, where: str) -> Address:
    if not isinstance(name, str) or name not in aliases:
        raise ScenarioError(f"{where}: unknown address alias {name!r}")
    return aliases[name]


def _payload(aliases: dict[str, Address], parsed: dict[str, Payload], text, where: str) -> Payload:
    """``text`` parsed, or the payload it parsed to before (``parsed``)."""
    if not isinstance(text, str):
        raise ScenarioError(f"{where}: payload must be a string")
    if text not in parsed:
        try:
            parsed[text] = parse(text, aliases)
        except PayloadSyntaxError as e:
            raise ScenarioError(f"{where}: {e}") from None
    return parsed[text]


# -- execution ---------------------------------------------------------------


@dataclass
class ScenarioResult:
    final_state: ChainState
    records: list[dict]
    snapshots: list[Snapshot]
    rejected_blocks: int = 0


def event_record(block: int, ev: Event) -> dict:
    if isinstance(ev, DeployedEvent):
        return {
            "block": block,
            "event": "deployed",
            "at": str(ev.at),
            "by": str(ev.by),
            "amount": ev.amount,
            "setup": render(ev.setup),
        }
    assert isinstance(ev, TxEvent)
    return {
        "block": block,
        "event": "tx",
        "from": str(ev.sender),
        "to": str(ev.to),
        "amount": ev.amount,
        "payload": None if ev.payload is None else render(ev.payload),
    }


def run_scenario(
    scenario: Scenario, order: ExecOrder, keep_snapshots: bool = True
) -> ScenarioResult:
    """Execute every block.  Without ``keep_snapshots`` no per-action or
    per-block state is cloned and ``snapshots`` stays empty; the checkers
    need them, the records do not."""
    run = Run(empty_chain(scenario.users), order, keep_snapshots)
    records: list[dict] = []
    for bi, roots in enumerate(scenario.blocks):
        log_before = len(run.state.log)
        if run.add(roots):
            new = run.state.log[log_before:]
            minted = [ev.at for ev in new if isinstance(ev, DeployedEvent) and ev.by.is_user]
            for name, at in zip(scenario.deploys.get(bi, ()), minted):
                if at != scenario.aliases[name]:
                    raise ScenarioError(f"block {bi}: deploy {name!r} committed at {at}, not at its"
                                        f" alias {scenario.aliases[name]} (a deploy was rejected)")
            records.extend(event_record(bi, ev) for ev in new)
        else:
            r = run.rejected[-1]
            records.append(
                {"block": bi, "event": "rejected", "index": r.action_index, "reason": r.reason}
            )
    return ScenarioResult(run.state, records, run.snapshots, len(run.rejected))


def exchange_wirings(result: ScenarioResult, scenario: Scenario) -> list[Wiring]:
    """One wiring per deployed exchange instance, with its paired token and
    liquidity contracts read from its own state."""
    state = result.final_state
    users = tuple(a for a, _ in scenario.users)
    wirings = []
    for a in state.deployed_contracts():
        if not state.contracts[a].name.startswith("cpmm"):
            continue
        ms = decoded(state.states[a], cpmm.decode_state)
        wirings.append(Wiring(a, ms.lqtAddress, ms.tokenAddress, NULL_ADDRESS, users))
    return wirings


def check_scenario(result: ScenarioResult, scenario: Scenario) -> list:
    from .checks import run_checks_for

    reports = []
    for w in exchange_wirings(result, scenario):
        reports.extend(run_checks_for(w, result.snapshots))
    return reports
