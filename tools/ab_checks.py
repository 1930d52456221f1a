"""Compare the checking and execution cost of two checkouts in one interpreter.

    python3 tools/ab_checks.py A B

``A`` and ``B`` are checkouts of this repository (any two commits, made
with ``git archive`` or ``git clone``).  Each one's ``src/dexsim`` is copied
into a temporary directory as its own package (``dexsim_a``, ``dexsim_b``),
which works because ``src/dexsim`` imports itself only relatively.  Both
build the same traces: those of fuzz_campaign's and long_trace's job 5 (the
job of ``bench/run_bench.py --seed 5``), with the sizes read from this
repository's ``bench/workloads.py``: fuzz seeds 1000-1199 with 10 blocks
each and seed 5 with 400 blocks.  Then, in 12 alternating rounds, the side
that goes first swapping every round, each side times
``checks.run_checks_for`` on its traces, and then its execution of them:
``harness.gen_trace`` of each trace and ``harness.replay_trace`` of it under
bfs, as a fuzz_campaign pass runs them.  Per workload, one line for checking
and one ``exec`` line print the minimum and median per side, B's over A's
and the median of the rounds' B/A ratios.  The checking line also says
whether the two sides' reports agree whole, as ``(name, passed, count,
violations)``: a change that keeps every verdict but words one message
otherwise prints ``DIFFER``.  A last ``scenario exec`` line times, in
alternating rounds too, each side's ``cli.main(["run", ...])`` on
scenario_exec's job 5, the scenario file of ``bench/scenario_gen.py``'s
``generate(5)``, and says whether the two sides' exit status and JSONL
output agree.  After the timed rounds, one untimed pass per side under
``tracemalloc`` generates the ``long`` traces, checks them and replays them
under bfs; a ``long mem`` line prints each side's peak and B's over A's,
as a change can also shrink what a long trace keeps alive.  A ``calls``
line counts, in one more untimed pass per side under ``sys.setprofile``,
the Python and C function calls of generating the ``short`` traces,
checking them, replaying them under bfs and checking the replays, and a
last ``scenario calls`` line those of one more ``dexsim run`` of the
scenario: counts that no drift of the host moves.

Timing both sides in one process resolves a change of a few percent that
separate benchmark runs on a shared 2-core host do not: the host's drift
reaches both sides of each round alike.  Nothing is written in either
checkout.  Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import gc
import importlib
import shutil
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

SIDES = ("a", "b")
ROUNDS = 12  # timed rounds per side
JOB = 5  # the job index of ``bench/run_bench.py --seed 5``
ROOT = Path(__file__).resolve().parent.parent
SIZES = ("FUZZ_SEEDS_PER_JOB", "FUZZ_BLOCKS", "LONG_BLOCKS", "USERS")  # in bench/workloads.py


def bench_configs() -> dict[str, list[dict]]:
    """The ``ScenarioConfig`` fields of the traces of fuzz_campaign's
    (``short``) and long_trace's (``long``) job ``JOB``, from the constants
    of ``bench/workloads.py`` as its ``build`` uses them."""
    tree = ast.parse((ROOT / "bench" / "workloads.py").read_text())
    c = {
        t.id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        for t in node.targets
        if isinstance(t, ast.Name) and t.id in SIZES
    }
    first, users = JOB * c["FUZZ_SEEDS_PER_JOB"], c["USERS"]
    return {
        "short": [
            dict(seed=s, blocks=c["FUZZ_BLOCKS"], users=users)
            for s in range(first, first + c["FUZZ_SEEDS_PER_JOB"])
        ],
        "long": [dict(seed=JOB, blocks=c["LONG_BLOCKS"], users=users)],
    }


def bench_scenario() -> str:
    """The scenario file of scenario_exec's job ``JOB``: ``generate(JOB)`` of
    ``bench/scenario_gen.py``, run from its source so nothing is written there."""
    path = ROOT / "bench" / "scenario_gen.py"
    namespace: dict = {"__name__": "scenario_gen"}
    exec(compile(path.read_text(), str(path), "exec"), namespace)
    return namespace["generate"](JOB)


def _load(root: Path, tmp: Path, side: str):
    """``root``'s ``src/dexsim`` as package ``dexsim_<side>``: its ``checks``,
    ``harness`` and ``cli`` modules."""
    name = f"dexsim_{side}"
    skip = shutil.ignore_patterns("__pycache__")
    shutil.copytree(root / "src" / "dexsim", tmp / name, ignore=skip)
    return tuple(importlib.import_module(f"{name}.{m}") for m in ("checks", "harness", "cli"))


def _traces(harness, configs: dict[str, list[dict]]) -> dict[str, list]:
    return {
        w: [harness.gen_trace(harness.ScenarioConfig(**c)) for c in cs] for w, cs in configs.items()
    }


def _check(checks, traces) -> list:
    return [checks.run_checks_for(t.wiring, t.snapshots) for t in traces]


def _execute(harness, configs: list[dict]) -> None:
    """Each trace generated afresh and replayed under bfs."""
    bfs = harness.ExecOrder.BREADTH_FIRST
    for c in configs:
        harness.replay_trace(harness.gen_trace(harness.ScenarioConfig(**c)), bfs)


def _run_scenario(cli, scenario: Path, out: Path) -> int:
    """``dexsim run`` of ``scenario`` with its JSONL to ``out``, as scenario_exec runs it."""
    return cli.main(["run", "--scenario", str(scenario), "--trace-out", str(out)])


def _peak(checks, harness, configs: list[dict]) -> int:
    """The most bytes ``tracemalloc`` sees allocated at once while the traces
    of ``configs`` are generated, checked and replayed under bfs."""
    gc.collect()
    tracemalloc.start()
    try:
        traces = [harness.gen_trace(harness.ScenarioConfig(**c)) for c in configs]
        _check(checks, traces)
        for t in traces:
            harness.replay_trace(t, harness.ExecOrder.BREADTH_FIRST)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _check_both_orders(checks, harness, configs: list[dict]) -> None:
    """The traces of ``configs`` generated, checked, replayed under bfs and checked again."""
    for c in configs:
        trace = harness.gen_trace(harness.ScenarioConfig(**c))
        checks.run_checks_for(trace.wiring, trace.snapshots)
        replayed = harness.replay_trace(trace, harness.ExecOrder.BREADTH_FIRST)
        checks.run_checks_for(replayed.wiring, replayed.snapshots)


def _calls(run, *args) -> tuple[int, int]:
    """The Python and the C function calls made by ``run(*args)``."""
    counts = {"call": 0, "c_call": 0}

    def count(_frame, event, _arg) -> None:
        if event in counts:
            counts[event] += 1

    gc.collect()
    sys.setprofile(count)
    try:
        run(*args)
    finally:
        sys.setprofile(None)
    return counts["call"], counts["c_call"]


def _timed(run, *args) -> float:
    gc.collect()
    start = time.perf_counter()
    run(*args)
    return time.perf_counter() - start


def compare(a: Path, b: Path, rounds: int = ROUNDS, configs=None, scenario=None) -> dict:
    """Per workload (``short``, ``long``) and side, the seconds of each round
    of ``run_checks_for`` over its traces (``seconds``) and of generating and
    replaying them (``exec_seconds``), and whether the sides' reports agree;
    per side, the seconds of each round of ``dexsim run`` on ``scenario``
    (``scenario_seconds``), and whether the sides' runs agree
    (``agree["scenario"]``); per side, the peak bytes of one untimed pass
    over the ``long`` traces (``long_peak``, see ``_peak``), the Python
    and C calls of one over the ``short`` traces (``calls``, see
    ``_check_both_orders``) and those of one more run of ``scenario``
    (``scenario_calls``).
    ``configs`` (``bench_configs()`` by default)
    gives each workload's ``ScenarioConfig`` fields, and ``scenario``
    (``bench_scenario()`` by default) the scenario file's text."""
    configs = bench_configs() if configs is None else configs
    scenario = bench_scenario() if scenario is None else scenario
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        try:
            loaded = {s: _load(root, Path(tmp), s) for s, root in zip(SIDES, (a, b))}
            traces = {s: _traces(h, configs) for s, (_, h, _) in loaded.items()}
            result: dict = {"agree": {}, "seconds": {}, "exec_seconds": {}}
            for w in configs:
                verdicts = [
                    # Older checkouts keep a report's messages in a list.
                    [[(r.name, r.passed, r.count, tuple(r.violations)) for r in rs]
                     for rs in _check(c, traces[s][w])]
                    for s, (c, _, _) in loaded.items()
                ]
                result["agree"][w] = verdicts[0] == verdicts[1]
                times: dict[str, list[float]] = {s: [] for s in SIDES}
                exec_times: dict[str, list[float]] = {s: [] for s in SIDES}
                for i in range(rounds):
                    for s in SIDES if i % 2 == 0 else SIDES[::-1]:
                        checks, harness, _ = loaded[s]
                        times[s].append(_timed(_check, checks, traces[s][w]))
                        exec_times[s].append(_timed(_execute, harness, configs[w]))
                result["seconds"][w] = times
                result["exec_seconds"][w] = exec_times
            path = Path(tmp) / "scenario.json"
            path.write_text(scenario)
            outs = {s: Path(tmp) / f"scenario-{s}.jsonl" for s in SIDES}
            runs = [(_run_scenario(loaded[s][2], path, outs[s]), outs[s].read_bytes()) for s in SIDES]
            result["agree"]["scenario"] = runs[0] == runs[1]
            run_times: dict[str, list[float]] = {s: [] for s in SIDES}
            for i in range(rounds):
                for s in SIDES if i % 2 == 0 else SIDES[::-1]:
                    run_times[s].append(_timed(_run_scenario, loaded[s][2], path, outs[s]))
            result["scenario_seconds"] = run_times
            result["long_peak"] = {s: _peak(c, h, configs["long"]) for s, (c, h, _) in loaded.items()}
            result["calls"] = {
                s: _calls(_check_both_orders, c, h, configs["short"]) for s, (c, h, _) in loaded.items()
            }
            result["scenario_calls"] = {
                s: _calls(_run_scenario, loaded[s][2], path, outs[s]) for s in SIDES
            }
            return result
        finally:
            sys.path.remove(tmp)
            packages = {f"dexsim_{s}" for s in SIDES}
            for name in [m for m in sys.modules if m.split(".")[0] in packages]:
                del sys.modules[name]


def _summary(times: dict[str, list[float]]) -> str:
    """Each side's minimum and median, B's over A's and the median of the
    rounds' B/A ratios."""
    lo = {s: min(t) for s, t in times.items()}
    mid = {s: statistics.median(t) for s, t in times.items()}
    paired = statistics.median(b / a for a, b in zip(times["a"], times["b"]))
    return (
        f"A min {lo['a'] * 1e3:.1f} ms median {mid['a'] * 1e3:.1f} ms;"
        f" B min {lo['b'] * 1e3:.1f} ms median {mid['b'] * 1e3:.1f} ms;"
        f" B/A min {lo['b'] / lo['a']:.3f} median {mid['b'] / mid['a']:.3f}"
        f" per-round median {paired:.3f}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("a", type=Path, help="the base checkout")
    parser.add_argument("b", type=Path, help="the changed checkout")
    args = parser.parse_args(argv)
    for root in (args.a, args.b):
        if not (root / "src" / "dexsim" / "checks.py").is_file():
            parser.error(f"{root} has no src/dexsim/checks.py")
    result = compare(args.a, args.b)
    for w, times in result["seconds"].items():
        agree = "agree" if result["agree"][w] else "DIFFER"
        print(f"{w}: {_summary(times)}; reports {agree} ({len(times['a'])} rounds)")
        exec_times = result["exec_seconds"][w]
        print(f"{w} exec: {_summary(exec_times)} ({len(exec_times['a'])} rounds)")
    run_times = result["scenario_seconds"]
    agree = "agree" if result["agree"]["scenario"] else "DIFFER"
    print(f"scenario exec: {_summary(run_times)}; output {agree} ({len(run_times['a'])} rounds)")
    peak = {s: b / 2**20 for s, b in result["long_peak"].items()}
    print(f"long mem: A peak {peak['a']:.2f} MiB; B peak {peak['b']:.2f} MiB;"
          f" B/A {peak['b'] / peak['a']:.3f} (1 untimed pass)")
    for name, key in (("calls", "calls"), ("scenario calls", "scenario_calls")):
        (a_py, a_c), (b_py, b_c) = result[key]["a"], result[key]["b"]
        print(f"{name}: A {a_py} Python {a_c} C; B {b_py} Python {b_c} C;"
              f" B/A {b_py / a_py:.3f} Python {b_c / a_c:.3f} C (1 untimed pass)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
