"""The blockchain execution environment.

A ``ChainState`` is a value: committing a block builds a fresh state and
never mutates its input, so a failed block leaves the caller's state
untouched (block-atomic execution).  Actions emitted by contracts are
dispatched either depth-first (they run before the rest of the queue, as
on Tezos) or breadth-first (appended behind it); both orders are
supported so invariants can be checked to be order-independent.

Contracts are pure ``init``/``receive`` functions over payloads; all
sequencing, balance accounting and event logging lives here.  The
exchange's contracts are typed entrypoint tables served by one shell,
``build_contract``.

The event records (``log`` and each ``incoming`` list) are append-only
``Records``.  A ``Records`` value never changes: appending gives a longer
one that shares the storage, and only ``add_block``'s working state
appends.  A clone shares the records, so cloning costs time in the number
of accounts, contracts and queued actions, not in the length of the
history, and a clone never sees entries appended after it was taken.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Callable, Optional

from .address import NULL_ADDRESS, Address
from .address import contract as contract_address
from .payload import MapKV, Payload, Tag, rec_decode, render


@dataclass(frozen=True)
class Chain:
    chain_height: int = 0
    current_slot: int = 0
    finalized_height: int = 0


@dataclass(frozen=True)
class ContractCallContext:
    origin: Address
    sender: Address
    contract_address: Address
    contract_balance: int  # read after the transferred amount is credited
    amount: int


@dataclass(frozen=True)
class ContractRef:
    """A deployable contract: pure init and receive functions."""

    name: str
    init: Callable[[Chain, ContractCallContext, Payload], Optional[Payload]]
    receive: Callable[
        [Chain, ContractCallContext, Payload, Optional[Payload]],
        Optional[tuple[Payload, list["ActionBody"]]],
    ]


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


# (handler, whether it takes the mutation, record field names, their readers)
Entrypoint = tuple[Callable, bool, tuple[str, ...], tuple[Callable, ...]]


def decoded(p: Payload, decode: Callable):
    """``decode(p)``, kept on a ``MapKV`` ``p`` and read from there while ``decode``
    is the same object.  Sound as ``decode(encode_state(s)) == s`` for every state."""
    memo = getattr(p, "memo", None)
    if memo is None or memo[0] is not decode:
        memo = (decode, decode(p), None)  # ``decode`` read the entries, so none to encode
        if type(p) is MapKV:
            object.__setattr__(p, "memo", memo)
    return memo[1]


def build_contract(
    name: str,
    init: Callable,
    decode_state: Callable,
    encode_state: Callable,
    entrypoints: dict[str, Entrypoint],
    route: Callable,
    mutation: Optional[str] = None,
    mutations: tuple[str, ...] = (),
) -> ContractRef:
    """A contract whose ``receive`` reads the state (``decoded``), lets
    ``route(ctx, msg)`` name the entrypoint and its record argument, reads the
    fields, calls ``handler(chain, ctx, state, *fields[, mutation])`` and
    returns the new state as a ``MapKV`` that holds it and encodes it with
    ``encode_state`` when its entries are first read.  A failing step or
    ``Refused`` makes ``receive`` return None; any other error leaves it, as a
    state type's own field check does.  ``mutation`` is one of ``mutations``."""
    if mutation is not None and mutation not in mutations:
        raise ValueError(f"unknown {name} mutation: {mutation}")

    def receive(chain: Chain, ctx: ContractCallContext, state_p: Payload, msg):
        try:
            state = some(decoded(state_p, decode_state))
            entrypoint, arg = some(route(ctx, msg))
            handler, takes_mutation, names, readers = some(entrypoints.get(entrypoint))
            args = some(rec_decode(arg, names, readers))
            if takes_mutation:
                args.append(mutation)
            new_state, ops = handler(chain, ctx, state, *args)
        except Refused:
            return None
        new_p = object.__new__(MapKV)
        object.__setattr__(new_p, "memo", (decode_state, new_state, encode_state))
        return new_p, ops

    return ContractRef(name if mutation is None else f"{name}[{mutation}]", init, receive)


def non_payable(ctx: ContractCallContext, msg: Optional[Payload]) -> Optional[tuple]:
    """The tokens' route: entrypoints are bare tags, and no call carries tez."""
    if ctx.amount != 0 or not isinstance(msg, Tag):
        return None
    return msg.name, msg.arg


def canon(d: dict) -> tuple:
    """A ledger's sorted entries without zeros: equal ledgers, equal values."""
    return tuple(sorted((k, v) for k, v in d.items() if v != 0))


def nonzero(entries: list) -> tuple:
    """Ledger entries already in order, without zeros: ``canon`` without the sort."""
    return tuple(e for e in entries if e[1] != 0)


def lookup(entries: tuple, key) -> int:
    """The value at ``key`` in a ledger's ordered entries, 0 if absent."""
    i = bisect_left(entries, (key,))
    return entries[i][1] if i < len(entries) and entries[i][0] == key else 0


class ActionBody:
    __slots__ = ()


@dataclass(frozen=True)
class Transfer(ActionBody):
    to: Address
    amount: int


@dataclass(frozen=True)
class Call(ActionBody):
    to: Address
    amount: int
    payload: Payload


@dataclass(frozen=True)
class Deploy(ActionBody):
    amount: int
    code: ContractRef
    setup: Payload


@dataclass(frozen=True)
class Action:
    origin: Address  # always a user; threaded unchanged through sub-calls
    sender: Address  # the emitter: rewritten to the contract for sub-calls
    body: ActionBody

    @property
    def amount(self) -> int:
        return self.body.amount  # type: ignore[attr-defined]


class Event:
    __slots__ = ()


@dataclass(frozen=True)
class DeployedEvent(Event):
    at: Address
    by: Address
    amount: int
    setup: Payload


@dataclass(frozen=True)
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
    """An append-only sequence: a view of the first ``len(view)`` entries of
    a storage list that views share.

    A view never changes.  ``appended`` returns a longer view; it extends
    the storage in place when the view is at its end, and otherwise (another
    view has already appended past it, such as the working state of a
    rejected block) copies the view's own prefix first, so no view ever sees
    another's entries.
    """

    __slots__ = ("_items", "_len")

    def __init__(self, items=()) -> None:
        self._items = list(items)
        self._len = len(self._items)

    def appended(self, record) -> "Records":
        items = self._items if len(self._items) == self._len else self._items[: self._len]
        items.append(record)
        view = Records.__new__(Records)
        view._items, view._len = items, self._len + 1
        return view

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, i):
        if isinstance(i, slice):
            start, stop, step = i.indices(self._len)
            return self._items[start:stop] if step == 1 else self._items[: self._len][i]
        if not -self._len <= i < self._len:
            raise IndexError("Records index out of range")
        return self._items[i % self._len]

    def __iter__(self):
        return iter(self._items[: self._len])

    def __eq__(self, other) -> bool:
        return self[:] == (other[:] if isinstance(other, Records) else other)

    def __repr__(self) -> str:
        return f"Records({self[:]!r})"


# Called after every executed action with the live working state, the action
# just executed, and the emitter's balance just before execution.  Observers
# must not mutate the state.
Observer = Callable[["ChainState", Action, int], None]


@dataclass
class ChainState:
    chain: Chain = field(default_factory=Chain)
    balances: dict[Address, int] = field(default_factory=dict)
    contracts: dict[Address, ContractRef] = field(default_factory=dict)
    states: dict[Address, Payload] = field(default_factory=dict)
    queue: list[Action] = field(default_factory=list)
    log: Records = field(default_factory=Records)
    # Incoming executed calls per contract, recorded at delivery time.
    # Kept separately from the log so "incoming = outgoing" is a real check
    # between two independently maintained records, not a tautology.
    incoming: dict[Address, Records] = field(default_factory=dict)
    next_contract_index: int = 1  # index 0 is the null address

    # -- queries -------------------------------------------------------------

    def balance(self, a: Address) -> int:
        return self.balances.get(a, 0)

    def deployment_info(self, a: Address) -> Optional[tuple[Address, int, Payload]]:
        for ev in self.log:
            if isinstance(ev, DeployedEvent) and ev.at == a:
                return (ev.by, ev.amount, ev.setup)
        return None

    def incoming_calls(self, sender: Address, to: Address) -> list[TxEvent]:
        return [tx for tx in self.incoming.get(to, []) if tx.sender == sender]

    def outgoing_txs(self, sender: Address, to: Address) -> list[TxEvent]:
        return [
            ev
            for ev in self.log
            if isinstance(ev, TxEvent) and ev.sender == sender and ev.to == to
        ]

    def outgoing_acts(self, sender: Address) -> list[Action]:
        return [a for a in self.queue if a.sender == sender]

    def deployed_contracts(self) -> list[Address]:
        return sorted(self.contracts)

    # -- plumbing ------------------------------------------------------------

    def clone(self) -> "ChainState":
        return ChainState(
            chain=self.chain,
            balances=dict(self.balances),
            contracts=dict(self.contracts),
            states=dict(self.states),
            queue=list(self.queue),
            log=self.log,
            incoming=dict(self.incoming),
            next_contract_index=self.next_contract_index,
        )

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
            lines.append(f"contract {a} {self.contracts[a].name}")
            lines.append(f"state {a} {render(self.states[a])}")
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
    for act in root_actions:
        if not act.origin.is_user or act.sender != act.origin:
            raise BlockError(0, "root action must originate from a user", state)

    work = state.clone()
    h = state.chain.chain_height
    work.chain = Chain(h + 1, state.chain.current_slot + 1, h)
    work.queue = list(root_actions)

    index = 0
    while work.queue:
        action = work.queue.pop(0)
        pre_balance = work.balance(action.sender)
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


def _debit(work: ChainState, a: Address, amount: int) -> None:
    if amount < 0:
        raise ActionError("negative amount")
    if work.balance(a) < amount:
        raise ActionError("insufficient balance")
    work.balances[a] = work.balance(a) - amount


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
    _debit(work, action.sender, amount)
    work.balances[to] = work.balance(to) + amount

    ref = work.contracts.get(to)
    emitted: list[Action] = []
    if ref is None:
        if to.is_contract:
            raise ActionError("no contract at target address")
        if msg is not None:
            raise ActionError("cannot call a user address with a payload")
    else:
        ctx = ContractCallContext(
            origin=action.origin,
            sender=action.sender,
            contract_address=to,
            contract_balance=work.balance(to),
            amount=amount,
        )
        result = ref.receive(work.chain, ctx, work.states[to], msg)
        if result is None:
            raise ActionError(f"contract {to} rejected the call")
        new_state, bodies = result
        work.states[to] = new_state
        emitted = [Action(origin=action.origin, sender=to, body=b) for b in bodies]

    ev = TxEvent(sender=action.sender, to=to, amount=amount, payload=msg)
    work.log = work.log.appended(ev)
    if ref is not None:
        calls = work.incoming.get(to)
        work.incoming[to] = (Records() if calls is None else calls).appended(ev)
    return emitted


def _deploy(work: ChainState, action: Action, body: Deploy) -> list[Action]:
    _debit(work, action.sender, body.amount)
    at = contract_address(work.next_contract_index)
    assert at != NULL_ADDRESS
    work.next_contract_index += 1
    work.balances[at] = work.balance(at) + body.amount

    ctx = ContractCallContext(
        origin=action.origin,
        sender=action.sender,
        contract_address=at,
        contract_balance=work.balance(at),
        amount=body.amount,
    )
    st = body.code.init(work.chain, ctx, body.setup)
    if st is None:
        raise ActionError("contract init rejected the deployment")
    work.contracts[at] = body.code
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
    "require",
    "some",
]
