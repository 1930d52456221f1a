import copy
import dataclasses
import gc
import pickle

import pytest
from hypothesis import example, given
from hypothesis import strategies as hs

from dexsim.address import Address, contract, user
from dexsim.chain import (
    Action,
    BlockError,
    Call,
    Chain,
    ChainState,
    ContractRef,
    Deploy,
    DeployedEvent,
    ExecOrder,
    Records,
    Transfer,
    TxEvent,
    add_block,
    empty_chain,
    replace,
)
from dexsim.cpmm import CpmmSetup, CpmmState
from dexsim.fa2 import Fa2State
from dexsim.fa12 import Fa12State
from dexsim.harness import CheckReport, Prefix, RejectedBlock, ScenarioConfig, Snapshot, Wiring
from dexsim.payload import Addr, Bool, Int, MapKV, Nat, Pair, PList, Tag, UNIT, record

ALICE = user(0)
BOB = user(1)

DFS = ExecOrder.DEPTH_FIRST
BFS = ExecOrder.BREADTH_FIRST


def make_recorder():
    """A contract that records received tag names in its state list length
    and emits the actions encoded in the message."""

    def init(chain, ctx, setup):
        return Nat(0)

    def receive(chain, ctx, state, msg):
        assert isinstance(state, Nat)
        if msg is None:
            return Nat(state.value + 1), []
        if isinstance(msg, Tag) and msg.name == "reject":
            return None
        return Nat(state.value + 1), []

    return ContractRef("recorder", init, receive)


def root(sender, body):
    return Action(sender, sender, body)


def test_empty_chain_cases():
    assert empty_chain([]).balances == {}
    st = empty_chain([(ALICE, 1000)])
    assert st.balance(ALICE) == 1000
    with pytest.raises(ValueError):
        empty_chain([(ALICE, 1), (ALICE, 2)])
    with pytest.raises(ValueError):
        empty_chain([(contract(1), 5)])


def test_empty_block_only_bumps_heights():
    st = empty_chain([(ALICE, 10)])
    st2 = add_block(st, [], DFS)
    assert st2.chain.chain_height == 1
    assert st2.chain.current_slot == 1
    assert st2.balances == st.balances
    assert st2.log == []


def test_single_transfer():
    st = empty_chain([(ALICE, 1000)])
    st2 = add_block(st, [root(ALICE, Transfer(BOB, 10))], DFS)
    assert st2.balance(ALICE) == 990
    assert st2.balance(BOB) == 10
    assert st2.log == [TxEvent(ALICE, BOB, 10, None)]


def test_insufficient_balance_rejects_block_and_preserves_state():
    st = empty_chain([(ALICE, 5)])
    before = st.canonical_dump()
    with pytest.raises(BlockError) as e:
        add_block(st, [root(ALICE, Transfer(BOB, 10))], DFS)
    assert e.value.state is st
    assert st.canonical_dump() == before


def test_rollback_is_block_atomic():
    # First action succeeds, second fails: nothing of the first survives.
    st = empty_chain([(ALICE, 100)])
    before = st.canonical_dump()
    with pytest.raises(BlockError) as e:
        add_block(
            st,
            [root(ALICE, Transfer(BOB, 10)), root(ALICE, Transfer(BOB, 1000))],
            DFS,
        )
    assert e.value.index == 1
    assert st.canonical_dump() == before


def test_deploy_moves_endowment_and_logs():
    st = empty_chain([(ALICE, 100)])
    st2 = add_block(st, [root(ALICE, Deploy(7, make_recorder(), UNIT))], DFS)
    at = contract(1)
    assert st2.balance(at) == 7
    assert st2.balance(ALICE) == 93
    assert st2.log == [DeployedEvent(at, ALICE, 7, UNIT)]
    assert st2.states[at] == Nat(0)
    assert st2.deployment_info(at) == (ALICE, 7, UNIT)
    # Conservation: total tez unchanged by the deploy.
    assert sum(st2.balances.values()) == 100


def make_balance_seer():
    """A contract whose state is the ``contract_balance`` its init or its last call saw."""

    def init(chain, ctx, setup):
        return Nat(ctx.contract_balance)

    def receive(chain, ctx, state, msg):
        return Nat(ctx.contract_balance), []

    return ContractRef("seer", init, receive)


SEER = contract(1)

# Each paying body by kind, for an amount, and the address it pays.
PAYMENTS = {
    "transfer": (lambda amount: Transfer(BOB, amount), BOB),
    "call": (lambda amount: Call(SEER, amount, Tag("x")), SEER),
    "deploy": (lambda amount: Deploy(amount, make_balance_seer(), UNIT), contract(2)),
}


def payment_chain():
    """Alice holds 100, Bob 5, and a seer Alice endowed with 4 sits at c1."""
    st = empty_chain([(ALICE, 104), (BOB, 5)])
    return add_block(st, [root(ALICE, Deploy(4, make_balance_seer(), UNIT))], DFS)


@pytest.mark.parametrize("kind", PAYMENTS)
@pytest.mark.parametrize("amount, reason", [(-1, "negative amount"), (100, "insufficient balance")])
def test_a_payment_refuses_a_negative_amount_and_an_overdraft(kind, amount, reason):
    st = payment_chain()
    body, _ = PAYMENTS[kind]
    # The first action leaves Alice 99, so paying 100 overdraws her.
    with pytest.raises(BlockError) as e:
        add_block(st, [root(ALICE, Transfer(BOB, 1)), root(ALICE, body(amount))], DFS)
    assert (e.value.index, e.value.reason) == (1, reason)
    assert e.value.state is st


@pytest.mark.parametrize("kind", PAYMENTS)
@pytest.mark.parametrize("amount", [10, 100])
def test_a_payment_moves_the_amount_before_the_callee_runs(kind, amount):
    st = payment_chain()
    body, to = PAYMENTS[kind]
    after = add_block(st, [root(ALICE, body(amount))], DFS)
    assert after.balance(ALICE) == st.balance(ALICE) - amount
    assert after.balance(to) == st.balance(to) + amount
    if to.is_contract:  # the callee's context already counts the amount
        assert after.states[to] == Nat(st.balance(to) + amount)


def test_deployment_info_absent_and_per_address():
    st = empty_chain([(ALICE, 100)])
    assert st.deployment_info(contract(1)) is None
    st = add_block(st, [root(ALICE, Deploy(0, make_recorder(), Nat(1)))], DFS)
    st = add_block(st, [root(ALICE, Deploy(0, make_recorder(), Nat(2)))], DFS)
    assert st.deployment_info(contract(1)) == (ALICE, 0, Nat(1))
    assert st.deployment_info(contract(2)) == (ALICE, 0, Nat(2))


def test_plain_transfer_to_contract_delivers_empty_message():
    st = empty_chain([(ALICE, 100)])
    st = add_block(st, [root(ALICE, Deploy(0, make_recorder(), UNIT))], DFS)
    st = add_block(st, [root(ALICE, Transfer(contract(1), 3))], DFS)
    assert st.states[contract(1)] == Nat(1)
    assert st.balance(contract(1)) == 3


def test_contract_rejection_fails_block():
    st = empty_chain([(ALICE, 100)])
    st = add_block(st, [root(ALICE, Deploy(0, make_recorder(), UNIT))], DFS)
    with pytest.raises(BlockError) as e:
        add_block(st, [root(ALICE, Call(contract(1), 0, Tag("reject")))], DFS)
    assert e.value.reason == f"contract {contract(1)} rejected the call"


def test_call_to_user_with_payload_fails():
    st = empty_chain([(ALICE, 100), (BOB, 0)])
    with pytest.raises(BlockError):
        add_block(st, [root(ALICE, Call(BOB, 1, Tag("x")))], DFS)


def test_root_action_must_be_user_originated():
    st = empty_chain([(ALICE, 100)])
    bad = Action(contract(1), contract(1), Transfer(BOB, 1))
    with pytest.raises(BlockError):
        add_block(st, [bad], DFS)


@pytest.mark.parametrize("origin, sender", [(contract(1), contract(1)), (ALICE, contract(1))])
def test_root_origin_guard_names_the_bad_action(origin, sender):
    # A root action must be sent by the user it originates from.
    st = empty_chain([(ALICE, 100)])
    good = root(ALICE, Transfer(BOB, 1))
    with pytest.raises(BlockError) as e:
        add_block(st, [good, Action(origin, sender, Transfer(BOB, 1))], DFS)
    assert (e.value.index, e.value.reason) == (1, "root action must originate from a user")
    assert e.value.state is st


def make_emitter(script):
    """On each call, emits the listed bodies keyed by the incoming tag."""

    def init(chain, ctx, setup):
        return UNIT

    def receive(chain, ctx, state, msg):
        name = msg.name if isinstance(msg, Tag) else "none"
        return state, list(script.get(name, []))

    return ContractRef("emitter", init, receive)


def exec_order_events(order):
    # Contract at c1 on "start" emits calls a1, a2 (to itself); a1 emits b1.
    c1 = contract(1)
    script = {
        "start": [Call(c1, 0, Tag("a1")), Call(c1, 0, Tag("a2"))],
        "a1": [Call(c1, 0, Tag("b1"))],
    }
    st = empty_chain([(ALICE, 100)])
    st = add_block(st, [root(ALICE, Deploy(0, make_emitter(script), UNIT))], order)
    st = add_block(st, [root(ALICE, Call(c1, 0, Tag("start")))], order)
    return [
        ev.payload.name
        for ev in st.log
        if isinstance(ev, TxEvent) and isinstance(ev.payload, Tag)
    ]


def test_depth_first_runs_emitted_actions_first():
    assert exec_order_events(DFS) == ["start", "a1", "b1", "a2"]


def test_breadth_first_appends_emitted_actions():
    assert exec_order_events(BFS) == ["start", "a1", "a2", "b1"]


def test_origin_threaded_sender_rewritten():
    c1, c2 = contract(1), contract(2)
    inner = make_recorder()
    outer = make_emitter({"go": [Call(c2, 0, Tag("ping"))]})
    st = empty_chain([(ALICE, 100)])
    st = add_block(st, [root(ALICE, Deploy(0, outer, UNIT))], DFS)
    st = add_block(st, [root(ALICE, Deploy(0, inner, UNIT))], DFS)
    st = add_block(st, [root(ALICE, Call(c1, 0, Tag("go")))], DFS)
    forwarded = st.incoming_calls(c1, c2)
    assert len(forwarded) == 1
    assert forwarded[0].sender == c1


def test_incoming_equals_outgoing_queries():
    c1, c2 = contract(1), contract(2)
    outer = make_emitter({"go": [Call(c2, 0, Tag("ping"))]})
    st = empty_chain([(ALICE, 100)])
    assert st.incoming_calls(ALICE, c1) == []
    assert st.outgoing_txs(ALICE, c1) == []
    st = add_block(st, [root(ALICE, Deploy(0, outer, UNIT))], DFS)
    st = add_block(st, [root(ALICE, Deploy(0, make_recorder(), UNIT))], DFS)
    st = add_block(st, [root(ALICE, Call(c1, 0, Tag("go")))], DFS)
    assert st.incoming_calls(c1, c2) == st.outgoing_txs(c1, c2)
    assert len(st.incoming_calls(ALICE, c1)) == 1


def test_queue_empty_and_conservation_after_commit():
    st = empty_chain([(ALICE, 50), (BOB, 50)])
    st = add_block(st, [root(ALICE, Transfer(BOB, 30))], BFS)
    assert st.queue == []
    assert sum(st.balances.values()) == 100


def test_determinism_bit_identical_replay():
    def run():
        st = empty_chain([(ALICE, 100)])
        st = add_block(st, [root(ALICE, Deploy(0, make_recorder(), UNIT))], DFS)
        st = add_block(st, [root(ALICE, Transfer(contract(1), 3))], DFS)
        return st.canonical_dump()

    assert run() == run()


# -- shared records: branches share nodes but never each other's entries -------


def ping(name):
    return root(ALICE, Call(contract(1), 0, Tag(name)))


def pinged(name):
    return TxEvent(ALICE, contract(1), 0, Tag(name))


def recorder_parent():
    """A state whose log and incoming records already hold entries."""
    st = empty_chain([(ALICE, 100)])
    st = add_block(st, [root(ALICE, Deploy(0, make_recorder(), UNIT))], DFS)
    return add_block(st, [ping("a")], DFS)


def records_of(st):
    return list(st.log), list(st.incoming)


def test_rejected_block_then_committed_block_on_the_same_parent():
    st = recorder_parent()
    log, incoming = records_of(st)
    with pytest.raises(BlockError):
        add_block(st, [ping("lost"), ping("reject")], DFS)
    assert records_of(st) == (log, incoming)
    after = add_block(st, [ping("b")], DFS)
    assert after.log == log + [pinged("b")]
    assert after.incoming == incoming + [pinged("b")]
    assert records_of(st) == (log, incoming)


def test_sibling_blocks_keep_independent_records():
    st = recorder_parent()
    log, incoming = records_of(st)
    left = add_block(st, [ping("l")], DFS)
    right = add_block(st, [ping("r")], DFS)
    left = add_block(left, [ping("l2")], DFS)
    assert left.log == log + [pinged("l"), pinged("l2")]
    assert right.log == log + [pinged("r")]
    assert left.incoming == incoming + [pinged("l"), pinged("l2")]
    assert right.incoming == incoming + [pinged("r")]
    assert records_of(st) == (log, incoming)


def test_clone_taken_mid_block_keeps_its_records():
    st = recorder_parent()
    log, incoming = records_of(st)
    seen, shared = [], []

    def observer(work, action, pre_balance):
        clone = work.clone()
        seen.append((clone, records_of(work)))
        shared.append((clone.log is work.log, clone.incoming is work.incoming))

    end = add_block(st, [ping("x"), ping("y"), ping("z")], DFS, observer)
    # A clone shares both records with the state it was taken from.
    assert shared == [(True, True)] * 3
    assert [len(clone.log) for clone, _ in seen] == [len(log) + 1, len(log) + 2, len(log) + 3]
    for clone, records in seen:
        assert records_of(clone) == records
    assert seen[0][0].log == log + [pinged("x")]
    assert end.log == log + [pinged("x"), pinged("y"), pinged("z")]


# -- shared contracts: a clone shares the map, which only a deploy replaces ----


def test_a_clone_shares_only_what_a_block_never_writes_into():
    st = recorder_parent()
    clone = st.clone()
    assert clone == st
    for name in ("contracts", "log", "incoming"):
        assert getattr(clone, name) is getattr(st, name), name
    for name in ("balances", "states", "queue"):
        assert getattr(clone, name) is not getattr(st, name), name


def test_a_snapshot_before_a_deploy_lists_no_new_contract():
    st = recorder_parent()
    snaps = []
    end = add_block(st, [ping("x"), root(ALICE, Deploy(0, make_recorder(), UNIT))], DFS,
                    lambda work, action, pre_balance: snaps.append(work.clone()))
    assert [list(s.contracts) for s in snaps] == [[contract(1)], [contract(1), contract(2)]]
    assert snaps[0].contracts is st.contracts and list(st.contracts) == [contract(1)]
    assert list(end.contracts) == [contract(1), contract(2)]


def test_a_rejected_block_that_deploys_leaves_the_contracts_as_they_were():
    st = recorder_parent()
    contracts, keys = st.contracts, list(st.contracts)
    with pytest.raises(BlockError) as e:
        add_block(st, [root(ALICE, Deploy(0, make_recorder(), UNIT)), ping("reject")], DFS)
    assert e.value.index == 1  # the deploy ran before the block was rejected
    assert st.contracts is contracts and list(st.contracts) == keys


def test_two_deploys_in_one_block_land_at_the_next_two_addresses():
    first, second = make_recorder(), make_recorder()
    st = add_block(empty_chain([(ALICE, 100)]),
                   [root(ALICE, Deploy(0, first, Nat(1))), root(ALICE, Deploy(0, second, Nat(2)))], DFS)
    assert st.contracts == {contract(1): first, contract(2): second}
    assert [(ev.at, ev.setup) for ev in st.log] == [(contract(1), Nat(1)), (contract(2), Nat(2))]


def test_records_since_reads_past_the_record_it_names():
    a, b, c = TxEvent(ALICE, BOB, 1, None), TxEvent(ALICE, BOB, 2, None), TxEvent(BOB, ALICE, 3, None)
    one = Records([a])
    short = one.appended(b)
    r = short.appended(c)
    assert r.since(short) == [c] and r.since(one) == [b, c] and r.since(r) == []
    assert r.since(Records()) == [a, b, c]  # every record extends an empty one
    assert r.since(Records([a, b])) is None  # an equal record built separately
    assert r.since(short.appended(c)) is None  # and so is one built on the same node
    assert r.since(r.appended(a)) is None  # a longer record
    assert r.since(Records([a])) is None  # a shorter one not on this chain
    assert short.since(r) is None and one.since(short) is None  # nor its own continuation


def test_a_million_entry_record_is_read_and_freed_without_recursion():
    # Reading walks the chain in a loop, and freeing it never recurses through
    # its nodes.  One shared entry object keeps the test's memory small.
    entry = TxEvent(ALICE, BOB, 1, None)
    half = Records()
    for _ in range(500_000):
        half = half.appended(entry)
    r = half
    for _ in range(500_000):
        r = r.appended(entry)
    assert len(r) == 10**6 and len(r.since(half)) == 500_000 and half.since(r) is None
    assert sum(1 for ev in r if ev is entry) == 10**6
    del r, half
    gc.collect()


def test_records_survive_copy_and_pickle():
    # Each copy is an equal record built apart, one level deep however long
    # it is, and the empty record stays empty.
    for r in (Records(), Records([1, 2]), Records(range(5000))):
        for twin in (copy.copy(r), copy.deepcopy(r), pickle.loads(pickle.dumps(r))):
            assert twin is not r and twin == r and len(twin) == len(r)
            assert twin.appended(3) == [*r, 3] and r.since(twin) == ([] if not r else None)
    assert len(Records()) == 0 and list(Records()) == []


# -- ``replace``: ``dataclasses.replace`` for the contracts' state types ---------

addresses = hs.builds(Address, hs.sampled_from(["user", "contract"]), hs.integers(0, 5))
nats = hs.integers(0, 10**6)
maybe_negative = hs.integers(-3, 10**6)


def ledgers(keys):
    return hs.lists(hs.tuples(keys, maybe_negative), max_size=3).map(tuple)


CPMM_FIELDS = {
    "tokenPool": maybe_negative, "xtzPool": maybe_negative, "lqtTotal": maybe_negative,
    "selfIsUpdatingTokenPool": hs.booleans(), "freezeBaker": hs.booleans(), "manager": addresses,
    "tokenAddress": addresses, "tokenId": maybe_negative, "lqtAddress": addresses,
}
FA12_FIELDS = {
    "tokens": ledgers(addresses), "allowances": ledgers(hs.tuples(addresses, addresses)),
    "admin": addresses, "total_supply": maybe_negative,
}
cases = hs.one_of(
    hs.tuples(
        hs.builds(CpmmState, nats, nats, nats, hs.booleans(), hs.booleans(), addresses, addresses,
                  nats, addresses),
        hs.fixed_dictionaries({}, optional=CPMM_FIELDS),
    ),
    hs.tuples(
        hs.builds(Fa12State, hs.just(((ALICE, 3),)), hs.just(()), addresses, nats),
        hs.fixed_dictionaries({}, optional=FA12_FIELDS),
    ),
)
BASE = CpmmState(1, 2, 3, False, False, ALICE, contract(1), 0, contract(2))


@given(cases)
@example((BASE, {"xtzPool": -1}))
@example((BASE, {"tokenPool": 7, "freezeBaker": True}))
@example((Fa12State(((ALICE, 3),), (), BOB, 3), {"tokens": ((ALICE, -3),)}))
def test_replace_agrees_with_dataclasses_replace(case):
    state, changes = case
    before = dict(vars(state))
    try:
        expected = dataclasses.replace(state, **changes)
    except ValueError as e:
        with pytest.raises(ValueError) as got:
            replace(state, **changes)
        assert str(got.value) == str(e) == "Nat payload must be non-negative"
        return
    new = replace(state, **changes)
    assert type(new) is type(expected) and new == expected and hash(new) == hash(expected)
    assert vars(new) == vars(expected) and vars(state) == before  # the original is untouched
    name = dataclasses.fields(new)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(new, name, getattr(new, name))
    for bad in ({"nope": 1}, {**changes, "tokens_": ()}):
        with pytest.raises(TypeError):
            dataclasses.replace(state, **bad)
        with pytest.raises(TypeError):
            replace(state, **bad)


# -- slotted value records ----------------------------------------------------

REF = ContractRef("recorder", None, None)
SLOTTED = [
    Chain(), REF, Transfer(BOB, 1), Call(BOB, 0, UNIT), Deploy(0, REF, UNIT),
    Action(ALICE, ALICE, Transfer(BOB, 1)), DeployedEvent(contract(1), ALICE, 0, UNIT),
    TxEvent(ALICE, BOB, 1, None), ChainState(),
    UNIT, Nat(1), Int(-1), Bool(True), Addr(ALICE), Pair(UNIT, UNIT), PList(()), Tag("x"),
    ScenarioConfig(), Wiring(contract(2), contract(3), contract(1), contract(4), (ALICE,)),
    Snapshot(0, -1, ChainState(), None, 0, True), CheckReport("x", True, ()),
    RejectedBlock(0, 0, "no"), Prefix(0, 0, ChainState()), CpmmSetup(1, ALICE, contract(1), 0),
]


@pytest.mark.parametrize("value", SLOTTED, ids=lambda v: type(v).__name__)
def test_value_records_built_per_action_or_step_are_slotted(value):
    assert not hasattr(value, "__dict__")


@pytest.mark.parametrize("value", [BASE, Fa12State((), (), BOB, 0), Fa2State(()), record(a=Nat(1))],
                         ids=lambda v: type(v).__name__)
def test_contract_states_and_maps_keep_their_dict(value):
    # ``replace`` copies a contract state's ``__dict__``; a ``MapKV`` is a
    # payload, slotted like every other.
    assert hasattr(value, "__dict__") is not isinstance(value, MapKV)
