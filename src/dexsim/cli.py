"""Command-line front end.

    dexsim run    --scenario FILE [--order dfs|bfs] [--trace-out FILE]
                  [--check] [--strict-blocks]
    dexsim fuzz   [--seed N] [--runs K] [--blocks B] [--users U]
                  [--order both|dfs|bfs] [--mutate NAME]
    dexsim replay [--seed N] --prefix P [--blocks B] [--users U]
                  [--order both|dfs|bfs] [--mutate NAME]

With ``--order both`` a trace is generated under dfs and checked there,
then replayed and checked under bfs.  Exit codes: 0 success, 1 parse/IO
error, 2 invariant or check failure.  The default seed is 0.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from typing import Optional

from .chain import ExecOrder
from .checks import check_order_robustness, run_all_checks, summarize
from .harness import USER_TEZ, CheckReport, ScenarioConfig, Trace, gen_trace
from .scenario import (
    ScenarioError,
    check_scenario,
    load_scenario,
    run_scenario,
)

ORDERS = {"dfs": ExecOrder.DEPTH_FIRST, "bfs": ExecOrder.BREADTH_FIRST}


def _orders(order: str) -> list[ExecOrder]:
    """The orders an ``--order`` value checks; the trace is generated under the first."""
    return [ORDERS[order]] if order in ORDERS else list(ORDERS.values())


def _check(trace: Trace, orders: list[ExecOrder]) -> dict[str, CheckReport]:
    reports = run_all_checks(trace)
    if len(orders) > 1:
        _, other_reports = check_order_robustness(trace)
        reports.extend(other_reports)
    return summarize(reports)


def _print_violations(r: CheckReport, limit: Optional[int] = None, file=None) -> None:
    """``r``'s kept messages, or the first ``limit``, then how many more it found."""
    shown = r.violations[:limit]
    for v in shown:
        print(f"  {v}", file=file)
    if r.count > len(shown):
        print(f"  … {r.count - len(shown)} more", file=file)


def _config(args: argparse.Namespace) -> Optional[ScenarioConfig]:
    """The ``fuzz``/``replay`` config at ``--seed``, or None after printing why
    there is none (an unknown ``--mutate``)."""
    try:
        return ScenarioConfig(seed=args.seed, blocks=args.blocks, users=args.users,
                              order=_orders(args.order)[0], mutation=args.mutate)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return None


def cmd_run(args: argparse.Namespace) -> int:
    try:
        with open(args.scenario) as f:
            scenario = load_scenario(f.read())
        result = run_scenario(scenario, ORDERS[args.order], keep_snapshots=args.check)
    except (OSError, UnicodeDecodeError, ScenarioError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    encode = json.JSONEncoder(sort_keys=True).encode  # ``json.dumps`` builds one per call
    lines = [encode(r) for r in result.records]
    if args.trace_out:
        try:
            with open(args.trace_out, "w") as f:
                f.write("\n".join(lines) + ("\n" if lines else ""))
        except OSError as e:
            print(f"error: {e}", file=sys.stderr)
            return 1
    else:
        for line in lines:
            print(line)

    status = 0
    if args.strict_blocks and result.rejected_blocks:
        print(f"{result.rejected_blocks} block(s) rejected", file=sys.stderr)
        status = 2
    if args.check:
        reports = summarize(check_scenario(result, scenario))
        for name in sorted(reports):
            r = reports[name]
            print(f"check {name}: {'pass' if r.passed else 'FAIL'}", file=sys.stderr)
            _print_violations(r, file=sys.stderr)
        if not all(r.passed for r in reports.values()):
            status = 2
    return status


def cmd_fuzz(args: argparse.Namespace) -> int:
    if (config := _config(args)) is None:
        return 1
    orders = _orders(args.order)
    mutate = f" --mutate {args.mutate}" if args.mutate else ""
    failures = 0
    totals: dict[str, CheckReport] = {}
    for i in range(args.runs):
        seed = args.seed + i
        summary = _check(gen_trace(replace(config, seed=seed)), orders)
        bad = [r for r in summary.values() if not r.passed]
        totals = summarize([*totals.values(), *summary.values()])
        if bad:
            failures += 1
            print(f"seed {seed}: FAIL ({', '.join(r.name for r in bad)})")
            for r in bad:
                _print_violations(r, 3)
            print(
                f"  replay: dexsim replay --seed {seed} --blocks {args.blocks}"
                f" --users {args.users} --order {args.order}{mutate} --prefix 0"
            )
    for name in sorted(totals):
        print(f"check {name}: {'pass' if totals[name].passed else 'FAIL'}")
    print(f"{args.runs} run(s), {failures} failing")
    return 0 if failures == 0 else 2


def cmd_replay(args: argparse.Namespace) -> int:
    if (config := _config(args)) is None:
        return 1
    orders = _orders(args.order)
    trace = gen_trace(config)
    steps = [s for s in trace.snapshots if not s.committed]
    if not 0 <= args.prefix <= len(steps):
        print(f"error: prefix {args.prefix} is not in 0..{len(steps)}", file=sys.stderr)
        return 1
    shown = steps if args.prefix == 0 else steps[: args.prefix]
    prev_balances: dict = {u: USER_TEZ for u in trace.wiring.users}
    for s in shown:
        assert s.action is not None
        body = s.action.body
        print(
            f"block {s.block} step {s.step}: {type(body).__name__.lower()}"
            f" from={s.action.sender} amount={s.action.amount}"
        )
        diffs = []
        for a in sorted(set(prev_balances) | set(s.state.balances)):
            before = prev_balances.get(a, 0)
            after = s.state.balances.get(a, 0)
            if before != after:
                diffs.append(f"{a}: {before} -> {after}")
        if diffs:
            print("  balances: " + "; ".join(diffs))
        prev_balances = dict(s.state.balances)
    reports = _check(trace, orders)
    failed = [r for r in reports.values() if not r.passed]
    for r in failed:
        print(f"check {r.name}: FAIL")
        _print_violations(r)
    return 2 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    raw = argparse.RawDescriptionHelpFormatter  # keeps the synopsis above as written
    parser = argparse.ArgumentParser(prog="dexsim", description=__doc__, formatter_class=raw)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario file")
    p_run.add_argument("--scenario", required=True)
    p_run.add_argument("--order", choices=["dfs", "bfs"], default="dfs")
    p_run.add_argument("--trace-out")
    p_run.add_argument("--check", action="store_true")
    p_run.add_argument("--strict-blocks", action="store_true")
    p_run.set_defaults(func=cmd_run)

    p_fuzz = sub.add_parser("fuzz", help="run randomized invariant campaigns")
    p_fuzz.add_argument("--seed", type=int, default=0)
    p_fuzz.add_argument("--runs", type=int, default=10)
    p_fuzz.add_argument("--blocks", type=int, default=10)
    p_fuzz.add_argument("--users", type=int, default=4)
    p_fuzz.add_argument("--order", choices=["both", "dfs", "bfs"], default="both")
    p_fuzz.add_argument("--mutate", help="build a deliberately broken contract variant")
    p_fuzz.set_defaults(func=cmd_fuzz)

    p_replay = sub.add_parser("replay", help="re-execute a seed and show per-action diffs")
    p_replay.add_argument("--seed", type=int, default=0)
    p_replay.add_argument("--prefix", type=int, required=True, help="0 = whole trace")
    p_replay.add_argument("--blocks", type=int, default=10)
    p_replay.add_argument("--users", type=int, default=4)
    p_replay.add_argument("--order", choices=["both", "dfs", "bfs"], default="dfs")
    p_replay.add_argument("--mutate")
    p_replay.set_defaults(func=cmd_replay)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    for name, least in (("users", 1), ("runs", 0), ("blocks", 0)):
        if getattr(args, name, least) < least:
            print(f"error: --{name} {getattr(args, name)} is below {least}", file=sys.stderr)
            return 1
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
