"""Two full exchanges, six contracts, one token-to-token trade.

Bob sells 100 of token A on exchange A; the bought tez is forwarded to
exchange B, which pays bob in token B.  With both pools at 1000/1000 the
first leg yields 90 mutez and the second leg 82 tokens.  The script runs
the same block list under depth-first and breadth-first dispatch and
shows that the invariants hold either way.

Run with: python3 demos/six_contract_trade.py
"""

import json

from dexsim import fa2
from dexsim.chain import ExecOrder
from dexsim.checks import summarize
from dexsim.scenario import check_scenario, load_scenario, run_scenario

SCENARIO = {
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


def main():
    scenario = load_scenario(json.dumps(SCENARIO))
    bob = scenario.aliases["bob"]
    tok_b = scenario.aliases["tokB"]
    for order in (ExecOrder.DEPTH_FIRST, ExecOrder.BREADTH_FIRST):
        result = run_scenario(scenario, order)
        print(f"== {order.value}: the trade block, step by step ==")
        for r in map(json.loads, result.records):
            if r["block"] == 3:
                print(f"  {r['from']} -> {r['to']}  amount={r['amount']}  {r['payload']}")
        ts = result.final_state.states[tok_b]
        print(f"bob received {fa2.ledger_balance(ts, bob, 0)} of token B")
        summary = summarize(check_scenario(result, scenario))
        bad = [r.name for r in summary.values() if not r.passed]
        print("invariants:", "all pass" if not bad else f"FAIL {bad}")
        print()


if __name__ == "__main__":
    main()
