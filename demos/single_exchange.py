"""Walk through one exchange: deploy, trade, add and remove liquidity.

Run with: python3 demos/single_exchange.py
"""

from dexsim import fa2, fa12
from dexsim.chain import ExecOrder
from dexsim.checks import run_all_checks, summarize
from dexsim.harness import USER_TOKENS, ScenarioConfig, dexter_call, wire_exchange
from dexsim.payload import addr, nat, record


def show(label, state, w):
    ms, ls = state.states[w.main], state.states[w.lqt]
    print(f"{label}:")
    print(f"  xtzPool={ms.xtzPool}  tokenPool={ms.tokenPool}  lqtTotal={ms.lqtTotal}")
    print(f"  main balance={state.balance(w.main)}  lqt supply={ls.total_supply}")


def execute(run, action):
    """Run one action as its own block and return the new state."""
    if not run.add([action]):
        raise SystemExit(f"block rejected: {run.rejected[-1].reason}")
    return run.state


def main():
    config = ScenarioConfig(seed=0, users=2)
    run, w = wire_exchange(config, ExecOrder.DEPTH_FIRST)
    state = run.state
    show("after wiring", state, w)
    alice, bob = w.users
    deadline = state.chain.current_slot + 2

    # Bob buys tokens with 500 mutez.
    trade = dexter_call(
        bob, w.main, 500, "xtz_to_token",
        record(to=addr(bob), minTokensBought=nat(1), deadline=nat(deadline)),
    )
    state = execute(run, trade)
    show("after bob's 500 mutez trade", state, w)
    ts = state.states[w.token]
    print(f"  bob now holds {fa2.ledger_balance(ts, bob, 0) - USER_TOKENS:+d} tokens")

    # Alice deposits liquidity.
    deadline = state.chain.current_slot + 2
    deposit = dexter_call(
        alice, w.main, 2_000, "add_liquidity",
        record(owner=addr(alice), minLqtMinted=nat(1),
               maxTokensDeposited=nat(10**9), deadline=nat(deadline)),
    )
    state = execute(run, deposit)
    show("after alice adds 2000 mutez of liquidity", state, w)

    # And withdraws half of her new shares.
    held = fa12.balance_of(state.states[w.lqt], alice)
    deadline = state.chain.current_slot + 2
    withdraw = dexter_call(
        alice, w.main, 0, "remove_liquidity",
        record(to=addr(alice), lqtBurned=nat(held // 2), minXtzWithdrawn=nat(0),
               minTokensWithdrawn=nat(0), deadline=nat(deadline)),
    )
    state = execute(run, withdraw)
    show(f"after alice burns {held // 2} shares", state, w)

    # Every safety checker still holds on every snapshot of the run, the
    # three operations above included.
    trace = run.trace(config, w)
    blocks = len({s.block for s in trace.snapshots})
    print(f"checked {len(trace.snapshots)} snapshots over {blocks} blocks")
    summary = summarize(run_all_checks(trace))
    print("checkers:", ", ".join(f"{n}={'ok' if r.passed else 'FAIL'}" for n, r in sorted(summary.items())))


if __name__ == "__main__":
    main()
