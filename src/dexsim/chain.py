"""The blockchain execution environment.

A ``ChainState`` is a value: committing a block builds a fresh state and
never mutates its input, so a failed block leaves the caller's state
untouched (block-atomic execution).  Actions emitted by contracts are
dispatched either depth-first (they run before the rest of the queue, as
on Tezos) or breadth-first (appended behind it); both orders are
supported so invariants can be checked to be order-independent.

Contracts are pure ``init``/``receive`` functions over payload messages and
their own typed states; all sequencing, balance accounting and event logging
lives here.  The exchange's contracts are a typed ``init`` and entrypoint
table served by one shell, ``build_contract``; their state codecs, record
fields and ledgers are declared through ``payload``'s field kinds.
Every root action of a block is sent by the user it originates from, and a
deployment lands at ``@c<n+1>`` on a chain of ``n`` contracts (only
``_deploy`` adds one; a rejected block drops it).

The event records (``log`` and ``incoming``) are append-only ``Records``,
chains of nodes.  A ``Records`` value never changes: appending builds one
node on it, and only ``add_block``'s working state appends.  A clone shares
the records, and the ``contracts`` map too, which ``_deploy`` replaces
rather than writes into; so cloning costs time in the number of accounts
and queued actions, not in the length of the history, and a clone never
sees entries appended or contracts deployed after it was taken.  Runs that
branch from one state (a rejected block's working state, a fork, a replay)
share the nodes before it and tell their records apart by node.
The value records built per action are slotted dataclasses.
"""

from __future__ import annotations

import enum
import inspect
from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple, Optional

from .address import Address
from .address import contract as contract_address
from .payload import Payload, Tag, rec_decode, render


@dataclass(frozen=True, slots=True)
class Chain:
    chain_height: int = 0
    current_slot: int = 0
    finalized_height: int = 0


class ContractCallContext(NamedTuple):
    """What a contract is called in: a plain tuple, as contracts only read it."""

    origin: Address
    sender: Address
    contract_address: Address
    contract_balance: int  # read after the transferred amount is credited
    amount: int


@dataclass(frozen=True, slots=True)
class ContractRef:
    """A deployable contract: pure init and receive functions over its typed
    state, which ``states`` keeps as it is, and ``encode_state``, the payload
    ``canonical_dump`` renders of it (by default the state itself, as the
    sink's ``UNIT``)."""

    name: str
    init: Callable[[Chain, ContractCallContext, Payload], Any]
    receive: Callable[[Chain, ContractCallContext, Any, Optional[Payload]], Optional[tuple]]
    encode_state: Callable[[Any], Payload] = lambda state: state


class Refused(Exception):
    """A contract refuses the call it is serving."""


def require(cond: bool) -> None:
    """Refuse the call unless ``cond`` holds."""
    if not cond:
        raise Refused


def some(x):
    """``x``, or a refusal when it is absent (ConCert's ``result_of_option``)."""
    if x is None:
        raise Refused
    return x


def replace(state, **changes):
    """``dataclasses.replace`` at a third of its cost, still checked by ``__post_init__``."""
    values = {**state.__dict__, **changes}
    if len(values) != len(state.__dict__):
        raise TypeError(f"no such field: {sorted(changes.keys() - state.__dict__.keys())}")
    new = object.__new__(type(state))
    new.__dict__.update(values)
    new.__post_init__()
    return new


# (handler, record field names, their readers): ``payload.fields`` gives the last two
Entrypoint = tuple[Callable, tuple[str, ...], tuple[Callable, ...]]


def build_contract(
    name: str, init: Callable, encode_state: Callable,
    entrypoints: dict[str, Entrypoint], route: Callable,
) -> ContractRef:
    """A contract whose ``init`` returns ``init(chain, ctx, setup)`` and whose
    ``receive`` lets ``route(ctx, msg)`` name the entrypoint and its record
    argument, reads the fields and returns ``handler(chain, ctx, state,
    *fields)``: the typed state the handler makes, as it is.  A failing step
    or ``Refused`` makes either return None; any other error leaves it, as a
    state type's own field check does."""

    def deploy(chain: Chain, ctx: ContractCallContext, setup: Payload):
        try:
            return init(chain, ctx, setup)
        except Refused:
            return None

    def receive(chain: Chain, ctx: ContractCallContext, state, msg):
        try:
            entrypoint, arg = some(route(ctx, msg))
            handler, names, readers = some(entrypoints.get(entrypoint))
            return handler(chain, ctx, state, *some(rec_decode(arg, names, readers)))
        except Refused:
            return None

    return ContractRef(name, deploy, receive, encode_state)


def mutant(name: str, entrypoints: dict, mutations: dict, mutation: Optional[str]) -> tuple:
    """``name`` and ``entrypoints`` with ``mutations[mutation]``, an (entrypoint,
    text, replacement) patch, applied: ``name[mutation]``, and that handler
    recompiled from its source, where the text must occur once, in a copy of
    its module's globals.  Both unchanged when ``mutation`` is None."""
    if mutation is None:
        return name, entrypoints
    if mutation not in mutations:
        raise ValueError(f"unknown {name} mutation: {mutation}")
    entrypoint, text, replacement = mutations[mutation]
    handler, *fields = entrypoints[entrypoint]
    source = inspect.getsource(handler)
    if source.count(text) != 1:
        raise ValueError(f"{mutation}: {text!r} occurs {source.count(text)} times in {entrypoint}")
    scope = dict(handler.__globals__)
    exec(compile(source.replace(text, replacement), f"<{name}[{mutation}]>", "exec"), scope)
    return f"{name}[{mutation}]", {**entrypoints, entrypoint: (scope[handler.__name__], *fields)}


def non_payable(ctx: ContractCallContext, msg: Optional[Payload]) -> Optional[tuple]:
    """The tokens' route: entrypoints are bare tags, and no call carries tez."""
    if ctx.amount != 0 or not isinstance(msg, Tag):
        return None
    return msg.name, msg.arg


class ActionBody:
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Transfer(ActionBody):
    to: Address
    amount: int


@dataclass(frozen=True, slots=True)
class Call(ActionBody):
    to: Address
    amount: int
    payload: Payload


@dataclass(frozen=True, slots=True)
class Deploy(ActionBody):
    amount: int
    code: ContractRef
    setup: Payload


@dataclass(frozen=True, slots=True)
class Action:
    origin: Address  # always a user; threaded unchanged through sub-calls
    sender: Address  # the emitter: rewritten to the contract for sub-calls
    body: ActionBody

    @property
    def amount(self) -> int:
        return self.body.amount  # type: ignore[attr-defined]


class Event:
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class DeployedEvent(Event):
    at: Address
    by: Address
    amount: int
    setup: Payload


@dataclass(frozen=True, slots=True)
class TxEvent(Event):
    sender: Address
    to: Address
    amount: int
    payload: Optional[Payload]


class ExecOrder(enum.Enum):
    DEPTH_FIRST = "dfs"
    BREADTH_FIRST = "bfs"


class SimulationError(Exception):
    pass


class ActionError(SimulationError):
    """Internal: a single action failed while executing a block."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class BlockError(SimulationError):
    """The whole block was rejected; ``state`` is the untouched input."""

    def __init__(self, index: int, reason: str, state: "ChainState"):
        super().__init__(f"action {index} failed: {reason}")
        self.index = index
        self.reason = reason
        self.state = state


class Records:
    """An append-only sequence as a chain of nodes, the way ConCert's
    ``ChainedList`` keeps a trace: a record of ``n`` entries is a node holding
    its ``last`` entry and the record of the first ``n - 1``.  It never
    changes; ``appended`` builds one node and copies nothing, so records that
    branch share their common prefix and are told apart by node (``since``).
    A copy or a pickle is rebuilt from the entries, one level deep."""

    __slots__ = ("last", "_prev", "_len")

    def __init__(self, entries=()) -> None:
        self.last, self._prev, self._len = None, None, 0
        for entry in entries:
            node = Records.__new__(Records)
            node.last, node._prev, node._len = self.last, self._prev, self._len
            self.last, self._prev, self._len = entry, node, node._len + 1

    def appended(self, entry) -> "Records":
        node = Records.__new__(Records)
        node.last, node._prev, node._len = entry, self, self._len + 1
        return node

    def since(self, read: "Records") -> Optional[list]:
        """The entries past ``read``, oldest first, or None unless this record
        extends ``read`` node by node.  Every record extends an empty one."""
        entries, node = [], self
        while node._len > read._len:
            entries.append(node.last)
            node = node._prev
        if node is not read and read._len:
            return None
        entries.reverse()
        return entries

    def __len__(self) -> int:
        return self._len

    def __iter__(self):
        return iter(self.since(Records()))

    def __eq__(self, other) -> bool:
        return list(self) == (list(other) if isinstance(other, Records) else other)

    def __reduce__(self):
        return Records, (list(self),)

    def __repr__(self) -> str:
        return f"Records({list(self)!r})"


# Called after every executed action with the live working state, the action
# just executed, and the emitter's balance just before execution.  Observers
# must not mutate the state.
Observer = Callable[["ChainState", Action, int], None]


@dataclass(slots=True)
class ChainState:
    chain: Chain = field(default_factory=Chain)
    balances: dict[Address, int] = field(default_factory=dict)
    contracts: dict[Address, ContractRef] = field(default_factory=dict)
    states: dict[Address, Any] = field(default_factory=dict)  # each contract's typed state
    queue: list[Action] = field(default_factory=list)
    log: Records = field(default_factory=Records)
    # The calls delivered to contracts, in delivery order.  Kept apart from
    # the log so "incoming = outgoing" is a real check between two
    # independently maintained records, not a tautology.
    incoming: Records = field(default_factory=Records)

    # -- queries -------------------------------------------------------------

    def balance(self, a: Address) -> int:
        return self.balances.get(a, 0)

    def deployment_info(self, a: Address) -> Optional[tuple[Address, int, Payload]]:
        for ev in self.log:
            if isinstance(ev, DeployedEvent) and ev.at == a:
                return (ev.by, ev.amount, ev.setup)
        return None

    def incoming_calls(self, sender: Address, to: Address) -> list[TxEvent]:
        return [tx for tx in self.incoming if tx.to == to and tx.sender == sender]

    def outgoing_txs(self, sender: Address, to: Address) -> list[TxEvent]:
        return [
            ev
            for ev in self.log
            if isinstance(ev, TxEvent) and ev.sender == sender and ev.to == to
        ]

    # -- plumbing ------------------------------------------------------------

    def clone(self) -> "ChainState":
        new = object.__new__(ChainState)
        new.chain, new.log, new.incoming = self.chain, self.log, self.incoming
        new.contracts = self.contracts  # shared: ``_deploy`` replaces it, never writes into it
        new.balances, new.states, new.queue = dict(self.balances), dict(self.states), list(self.queue)
        return new

    def with_records(self, log: Records, incoming: Records) -> "ChainState":
        """A state sharing every field of this one but its records, which are
        ``log`` and ``incoming``.  Sound as nothing writes into a state that a
        snapshot or a committed run holds."""
        new = object.__new__(ChainState)
        new.chain, new.log, new.incoming, new.contracts = self.chain, log, incoming, self.contracts
        new.balances, new.states, new.queue = self.balances, self.states, self.queue
        return new

    def canonical_dump(self) -> str:
        """Deterministic textual image of the whole state, for byte-level
        identity checks."""
        lines = [
            f"chain height={self.chain.chain_height} slot={self.chain.current_slot}"
            f" finalized={self.chain.finalized_height}",
        ]
        for a in sorted(self.balances):
            lines.append(f"balance {a} {self.balances[a]}")
        for a in sorted(self.contracts):
            ref = self.contracts[a]
            lines.append(f"contract {a} {ref.name}")
            lines.append(f"state {a} {render(ref.encode_state(self.states[a]))}")
        for ev in self.log:
            lines.append(render_event(ev))
        return "\n".join(lines) + "\n"


def render_event(ev: Event) -> str:
    if isinstance(ev, DeployedEvent):
        return f"deployed {ev.at} by={ev.by} amount={ev.amount} setup={render(ev.setup)}"
    assert isinstance(ev, TxEvent)
    payload = "-" if ev.payload is None else render(ev.payload)
    return f"tx {ev.sender} -> {ev.to} amount={ev.amount} payload={payload}"


def empty_chain(initial_users: list[tuple[Address, int]]) -> ChainState:
    """A fresh chain holding only funded user accounts."""
    state = ChainState()
    seen: set[Address] = set()
    for a, amount in initial_users:
        if not a.is_user:
            raise ValueError(f"initial account {a} is not a user address")
        if a in seen:
            raise ValueError(f"duplicate initial address {a}")
        if amount < 0:
            raise ValueError("initial balance must be non-negative")
        seen.add(a)
        state.balances[a] = amount
    return state


def add_block(
    state: ChainState,
    root_actions: list[Action],
    order: ExecOrder,
    observer: Optional[Observer] = None,
) -> ChainState:
    """Execute one block to completion.

    All root actions and everything they transitively emit run in the given
    order.  If any action fails the whole block is rejected: a ``BlockError``
    carrying the untouched input state is raised.
    """
    for i, act in enumerate(root_actions):
        if not act.origin.is_user or act.sender != act.origin:
            raise BlockError(i, "root action must originate from a user", state)

    work = state.clone()
    h = state.chain.chain_height
    work.chain = Chain(h + 1, state.chain.current_slot + 1, h)
    work.queue = list(root_actions)

    index = 0
    while work.queue:
        action = work.queue.pop(0)
        pre_balance = work.balances.get(action.sender, 0)
        try:
            emitted = _execute(work, action)
        except ActionError as e:
            raise BlockError(index, e.reason, state) from None
        if order is ExecOrder.DEPTH_FIRST:
            work.queue[:0] = emitted
        else:
            work.queue.extend(emitted)
        if observer is not None:
            observer(work, action, pre_balance)
        index += 1
    return work


def _move(work: ChainState, action: Action, to: Address, amount: int) -> ContractCallContext:
    """Pay ``amount`` from the action's sender to ``to``: the one payment step of
    every call and deployment.  Returns the context ``to`` is called in, its
    balance read after the credit."""
    if amount < 0:
        raise ActionError("negative amount")
    funds = work.balances.get(action.sender, 0)
    if funds < amount:
        raise ActionError("insufficient balance")
    work.balances[action.sender] = funds - amount
    balance = work.balances[to] = work.balances.get(to, 0) + amount
    return ContractCallContext(action.origin, action.sender, to, balance, amount)


def _execute(work: ChainState, action: Action) -> list[Action]:
    body = action.body
    if isinstance(body, Deploy):
        return _deploy(work, action, body)
    if isinstance(body, Transfer):
        return _deliver(work, action, body.to, body.amount, None)
    if isinstance(body, Call):
        return _deliver(work, action, body.to, body.amount, body.payload)
    raise ActionError("unknown action body")


def _deliver(
    work: ChainState,
    action: Action,
    to: Address,
    amount: int,
    msg: Optional[Payload],
) -> list[Action]:
    ctx = _move(work, action, to, amount)
    ref = work.contracts.get(to)
    emitted: list[Action] = []
    if ref is None:
        if to.is_contract:
            raise ActionError("no contract at target address")
        if msg is not None:
            raise ActionError("cannot call a user address with a payload")
    else:
        result = ref.receive(work.chain, ctx, work.states[to], msg)
        if result is None:
            raise ActionError(f"contract {to} rejected the call")
        new_state, bodies = result
        work.states[to] = new_state
        emitted = [Action(action.origin, to, b) for b in bodies]

    ev = TxEvent(action.sender, to, amount, msg)
    work.log = work.log.appended(ev)
    if ref is not None:
        work.incoming = work.incoming.appended(ev)
    return emitted


def _deploy(work: ChainState, action: Action, body: Deploy) -> list[Action]:
    at = contract_address(len(work.contracts) + 1)  # @c0 is the null address
    st = body.code.init(work.chain, _move(work, action, at, body.amount), body.setup)
    if st is None:
        raise ActionError("contract init rejected the deployment")
    work.contracts = {**work.contracts, at: body.code}  # clones share the old map
    work.states[at] = st
    ev = DeployedEvent(at=at, by=action.sender, amount=body.amount, setup=body.setup)
    work.log = work.log.appended(ev)
    return []


__all__ = [
    "Action",
    "ActionBody",
    "BlockError",
    "Call",
    "Chain",
    "ChainState",
    "ContractCallContext",
    "ContractRef",
    "Deploy",
    "DeployedEvent",
    "Event",
    "ExecOrder",
    "Observer",
    "Records",
    "Refused",
    "SimulationError",
    "Transfer",
    "TxEvent",
    "add_block",
    "empty_chain",
    "render_event",
    "replace",
    "require",
    "some",
]
