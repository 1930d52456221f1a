import pytest

from dexsim.address import contract, user
from dexsim.chain import (
    Action,
    BlockError,
    Call,
    ContractRef,
    Deploy,
    DeployedEvent,
    ExecOrder,
    Transfer,
    TxEvent,
    add_block,
    empty_chain,
)
from dexsim.payload import Nat, Tag, UNIT

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


def test_outgoing_acts_filters_queue_mid_block():
    c1, c2 = contract(1), contract(2)
    outer = make_emitter({"go": [Call(c2, 0, Tag("p")), Call(c2, 0, Tag("q"))]})
    st = empty_chain([(ALICE, 100)])
    st = add_block(st, [root(ALICE, Deploy(0, outer, UNIT))], DFS)
    st = add_block(st, [root(ALICE, Deploy(0, make_recorder(), UNIT))], DFS)
    seen = []

    def observer(work, action, pre_balance):
        seen.append([a.sender for a in work.outgoing_acts(c1)])

    st = add_block(st, [root(ALICE, Call(c1, 0, Tag("go")))], DFS, observer)
    # After the root call both emitted actions are pending from c1.
    assert seen[0] == [c1, c1]
    assert st.outgoing_acts(c1) == []  # committed states have empty queues


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


# -- shared records: clones share storage but never each other's entries -----


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
    return list(st.log), {to: list(calls) for to, calls in st.incoming.items()}


def test_rejected_block_then_committed_block_on_the_same_parent():
    st = recorder_parent()
    log, incoming = records_of(st)
    with pytest.raises(BlockError):
        add_block(st, [ping("lost"), ping("reject")], DFS)
    assert records_of(st) == (log, incoming)
    after = add_block(st, [ping("b")], DFS)
    assert after.log == log + [pinged("b")]
    assert after.incoming == {contract(1): incoming[contract(1)] + [pinged("b")]}
    assert records_of(st) == (log, incoming)


def test_sibling_blocks_keep_independent_records():
    st = recorder_parent()
    log, incoming = records_of(st)
    left = add_block(st, [ping("l")], DFS)
    right = add_block(st, [ping("r")], DFS)
    left = add_block(left, [ping("l2")], DFS)
    assert left.log == log + [pinged("l"), pinged("l2")]
    assert right.log == log + [pinged("r")]
    assert left.incoming[contract(1)] == incoming[contract(1)] + [pinged("l"), pinged("l2")]
    assert right.incoming[contract(1)] == incoming[contract(1)] + [pinged("r")]
    assert records_of(st) == (log, incoming)


def test_clone_taken_mid_block_keeps_its_records():
    st = recorder_parent()
    log, incoming = records_of(st)
    seen = []

    def observer(work, action, pre_balance):
        seen.append((work.clone(), records_of(work)))

    end = add_block(st, [ping("x"), ping("y"), ping("z")], DFS, observer)
    assert [len(clone.log) for clone, _ in seen] == [len(log) + 1, len(log) + 2, len(log) + 3]
    for clone, records in seen:
        assert records_of(clone) == records
    assert seen[0][0].log == log + [pinged("x")]
    assert end.log == log + [pinged("x"), pinged("y"), pinged("z")]
