"""Acceptance suite: the end-to-end claims this package makes, each with a
single printed pass/fail verdict.

The campaign fixture runs one shared fuzzing campaign (500 seeds, 10 fuzzed
blocks each, checked under both execution orders) and aggregates every
checker verdict; the per-claim tests then read their slice of the
aggregate.  All comparisons are exact integer comparisons.
"""

import json
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from dexsim import cpmm, fa2
from dexsim.address import contract, user
from dexsim.chain import BlockError, Chain, ContractCallContext, ExecOrder, add_block
from dexsim.checks import (
    Checker,
    check_order_robustness,
    run_all_checks,
    summarize,
)
from dexsim.harness import ScenarioConfig, dexter_call, gen_trace, wire_exchange
from dexsim.payload import addr, nat, record
from dexsim.scenario import check_scenario, load_scenario, run_scenario

CAMPAIGN_TRACES = 500
CAMPAIGN_BLOCKS = 10


@contextmanager
def verdict(label):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {label}: FAIL", flush=True)
        raise
    print(f"[acceptance] {label}: PASS", flush=True)


@pytest.fixture(scope="module")
def campaign():
    """500 fuzzed traces x 10 blocks, each checked under both orders."""
    start = time.monotonic()
    passed: dict[str, bool] = {}
    violations: dict[str, list[str]] = {}
    disagreements = 0

    for seed in range(CAMPAIGN_TRACES):
        trace = gen_trace(ScenarioConfig(seed=seed, blocks=CAMPAIGN_BLOCKS))
        reports = run_all_checks(trace)
        _, other = check_order_robustness(trace)
        for r in summarize(reports + other).values():
            passed[r.name] = passed.get(r.name, True) and r.passed
            if not r.passed:
                violations.setdefault(r.name, []).extend(r.violations[:3])
        if seed < 20:
            # Direct vs composed supply-equality verdicts on committed states.
            checker = Checker(trace.wiring)
            for snap in trace.snapshots:
                step = {r.name: r for r in checker.step(snap)}
                if "lqt_supply_direct" in step:
                    direct, composed = step["lqt_supply_direct"], step["lqt_supply_composed"]
                    disagreements += direct.passed != composed.passed

    return {
        "elapsed": time.monotonic() - start,
        "passed": passed,
        "violations": violations,
        "disagreements": disagreements,
    }


def test_1_trade_formula_oracle():
    with verdict("1 trade formula oracle (1000 triples, exact)"):
        chain = Chain(0, 0, 0)
        rng = random.Random(1729)
        start = time.monotonic()
        for _ in range(1000):
            xp = rng.randint(1, 10**12)
            tp = rng.randint(1, 10**12)
            a = rng.randint(0, 10**12)
            state = cpmm.CpmmState(
                tokenPool=tp, xtzPool=xp, lqtTotal=1,
                selfIsUpdatingTokenPool=False, freezeBaker=False,
                manager=user(0), tokenAddress=contract(1), tokenId=0,
                lqtAddress=contract(3),
            )
            ctx = ContractCallContext(user(1), user(1), contract(2), xp + a, a)
            out = cpmm.xtz_to_token(chain, ctx, state, user(1), 0, 1)
            expected = math.floor(Fraction(a * 997 * tp, xp * 1000 + a * 997))
            assert out is not None
            assert tp - out[0].tokenPool == expected
        assert time.monotonic() - start < 5


def test_2_incoming_equals_outgoing(campaign):
    with verdict("2 incoming = outgoing over 500x10 traces, both orders"):
        assert campaign["elapsed"] < 300
        assert campaign["passed"].get("incoming_outgoing", False), campaign[
            "violations"
        ].get("incoming_outgoing")


def test_3_tez_pool_correct(campaign):
    with verdict("3 xtzPool = balance - pending on every snapshot"):
        assert campaign["passed"].get("tez_pool", False), campaign["violations"].get(
            "tez_pool"
        )


def test_4_liquidity_supply_suite(campaign):
    with verdict("4 liquidity supply: folded history, direct = composed"):
        for name in ("lqt_condition", "main_counter", "lqt_supply_direct", "lqt_supply_composed"):
            assert campaign["passed"].get(name, False), (name, campaign["violations"].get(name))
        assert campaign["disagreements"] == 0


def test_5_constant_product(campaign):
    with verdict("5 constant product never decreases on trades"):
        assert campaign["passed"].get("constant_product", False), campaign[
            "violations"
        ].get("constant_product")


def test_6_no_overdraft(campaign):
    with verdict("6 main contract never overdraws its balance"):
        assert campaign["passed"].get("no_overdraft", False), campaign[
            "violations"
        ].get("no_overdraft")


MUTATION_BUDGET = 200

MUTATIONS = [
    ("cpmm_mutation", "default_no_credit"),
    ("cpmm_mutation", "drop_min_tokens_guard"),
    ("cpmm_mutation", "floor_tokens_deposited"),
    ("fa12_mutation", "keep_allowance"),
    ("fa12_mutation", "open_mint_or_burn"),
]


def test_7_mutation_sensitivity():
    with verdict("7 all 5 mutations caught within 200 traces each"):
        for key, mutation in MUTATIONS:
            for seed in range(MUTATION_BUDGET):
                config = ScenarioConfig(seed=seed, blocks=10, **{key: mutation})
                summary = summarize(run_all_checks(gen_trace(config)))
                if any(not r.passed for r in summary.values()):
                    break
            else:
                pytest.fail(f"{mutation} survived {MUTATION_BUDGET} traces")


def test_8_determinism_and_atomicity():
    with verdict("8 fixed seeds bit-identical; failed blocks leave state intact"):
        for seed in range(5):
            a = gen_trace(ScenarioConfig(seed=seed, blocks=10))
            b = gen_trace(ScenarioConfig(seed=seed, blocks=10))
            assert a.final_state.canonical_dump() == b.final_state.canonical_dump()

        # Inject failing actions into a live exchange: an over-slippage trade
        # alone, and one preceded by a successful donation.
        config = ScenarioConfig(seed=0)
        run, w = wire_exchange(config, ExecOrder.DEPTH_FIRST)
        state = run.state
        doomed = dexter_call(
            w.users[1], w.main, 100, "xtz_to_token",
            record(to=addr(w.users[1]), minTokensBought=nat(10**18),
                   deadline=nat(state.chain.current_slot + 2)),
        )
        fine = dexter_call(
            w.users[0], w.main, 50, "xtz_to_token",
            record(to=addr(w.users[0]), minTokensBought=nat(0),
                   deadline=nat(state.chain.current_slot + 2)),
        )
        before = state.canonical_dump()
        for roots in ([doomed], [fine, doomed]):
            for order in ExecOrder:
                with pytest.raises(BlockError):
                    add_block(state, roots, order)
                assert state.canonical_dump() == before


SIX_CONTRACT_SCENARIO = {
    "users": {"alice": 10**9, "bob": 10**9},
    "blocks": [
        [
            {"type": "deploy", "from": "alice", "name": "tokA", "contract": "fa2",
             "setup": "{ledger: {(@alice, 0): 1000000, (@bob, 0): 1000000}}"},
            {"type": "deploy", "from": "alice", "name": "mainA", "contract": "cpmm",
             "setup": "{lqtTotal_: 1000, manager_: @alice, tokenAddress_: @tokA, tokenId_: 0}"},
            {"type": "deploy", "from": "alice", "name": "lqtA", "contract": "fa12",
             "setup": "{admin_: @mainA, lqt_provider: @alice, initial_pool: 1000}"},
            {"type": "deploy", "from": "alice", "name": "tokB", "contract": "fa2",
             "setup": "{ledger: {(@alice, 0): 1000000}}"},
            {"type": "deploy", "from": "alice", "name": "mainB", "contract": "cpmm",
             "setup": "{lqtTotal_: 1000, manager_: @alice, tokenAddress_: @tokB, tokenId_: 0}"},
            {"type": "deploy", "from": "alice", "name": "lqtB", "contract": "fa12",
             "setup": "{admin_: @mainB, lqt_provider: @alice, initial_pool: 1000}"},
        ],
        [
            {"type": "call", "from": "alice", "to": "mainA",
             "msg": "other_msg(set_lqt_address({addr: @lqtA}))"},
            {"type": "call", "from": "alice", "to": "tokA",
             "msg": "transfer({from: @alice, to: @mainA, tokenId: 0, value: 1000})"},
            {"type": "transfer", "from": "alice", "to": "mainA", "amount": 1000},
            {"type": "call", "from": "alice", "to": "mainB",
             "msg": "other_msg(set_lqt_address({addr: @lqtB}))"},
            {"type": "call", "from": "alice", "to": "tokB",
             "msg": "transfer({from: @alice, to: @mainB, tokenId: 0, value: 1000})"},
            {"type": "transfer", "from": "alice", "to": "mainB", "amount": 1000},
        ],
        [
            {"type": "call", "from": "alice", "to": "mainA",
             "msg": "other_msg(update_token_pool)"},
            {"type": "call", "from": "alice", "to": "mainB",
             "msg": "other_msg(update_token_pool)"},
        ],
        [
            {"type": "call", "from": "bob", "to": "mainA",
             "msg": "other_msg(token_to_token({outputDexter: @mainB, to: @bob,"
                    " tokensSold: 100, minTokensBought: 80, deadline: 10}))"},
        ],
    ],
}


def test_9_six_contract_token_to_token():
    with verdict("9 six-contract token_to_token: 82 tokens out, both orders"):
        scenario = load_scenario(json.dumps(SIX_CONTRACT_SCENARIO))
        main_b = scenario.aliases["mainB"]
        tok_b = scenario.aliases["tokB"]
        bob = scenario.aliases["bob"]
        for order in ExecOrder:
            result = run_scenario(scenario, order)
            assert result.rejected_blocks == 0
            summary = summarize(check_scenario(result, scenario))
            assert summary and all(r.passed for r in summary.values()), [
                (r.name, r.violations) for r in summary.values() if not r.passed
            ]
            ts = fa2.decode_state(result.final_state.states[tok_b])
            assert fa2.ledger_balance(ts, bob, 0) == 82
            ms = cpmm.decode_state(result.final_state.states[main_b])
            assert ms.tokenPool == 1000 - 82
            assert ms.xtzPool == 1000 + 90
