"""Compare the checking cost of two checkouts in one interpreter.

    python3 tools/ab_checks.py A B

``A`` and ``B`` are checkouts of this repository (any two commits, made
with ``git archive`` or ``git clone``).  Each one's ``src/dexsim`` is copied
into a temporary directory as its own package (``dexsim_a``, ``dexsim_b``),
which works because ``src/dexsim`` imports itself only relatively.  Both
build the same traces: those of fuzz_campaign's and long_trace's job 5 (the
job of ``bench/run_bench.py --seed 5``), with the sizes read from this
repository's ``bench/workloads.py``: fuzz seeds 1000-1199 with 10 blocks
each and seed 5 with 400 blocks.  Then ``checks.run_checks_for`` is timed
on each side's traces in 12 alternating rounds, the side that goes first
swapping every round, and the minimum and median per side are printed, with
B's over A's and the median of the rounds' B/A ratios.  It also says
whether the two sides' reports agree whole, as ``(name, passed, count,
violations)``: a change that keeps every verdict but words one message
otherwise prints ``DIFFER``.

Timing both sides in one process resolves a change of a few percent in
checking that separate benchmark runs on a shared 2-core host do not: the
host's drift reaches both sides of each round alike.  Nothing is written in
either checkout.  Standard library only.
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


def _load(root: Path, tmp: Path, side: str):
    """``root``'s ``src/dexsim`` as package ``dexsim_<side>``: its ``checks``
    and ``harness`` modules."""
    name = f"dexsim_{side}"
    skip = shutil.ignore_patterns("__pycache__")
    shutil.copytree(root / "src" / "dexsim", tmp / name, ignore=skip)
    return importlib.import_module(f"{name}.checks"), importlib.import_module(f"{name}.harness")


def _traces(harness, configs: dict[str, list[dict]]) -> dict[str, list]:
    return {
        w: [harness.gen_trace(harness.ScenarioConfig(**c)) for c in cs] for w, cs in configs.items()
    }


def _check(checks, traces) -> list:
    return [checks.run_checks_for(t.wiring, t.snapshots) for t in traces]


def _timed(checks, traces) -> float:
    gc.collect()
    start = time.perf_counter()
    _check(checks, traces)
    return time.perf_counter() - start


def compare(a: Path, b: Path, rounds: int = ROUNDS, configs=None) -> dict:
    """Per workload (``short``, ``long``) and side, the seconds of each round
    of ``run_checks_for`` over its traces, and whether the sides' reports
    agree.  ``configs`` (``bench_configs()`` by default) gives each
    workload's ``ScenarioConfig`` fields."""
    configs = bench_configs() if configs is None else configs
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        try:
            loaded = {s: _load(root, Path(tmp), s) for s, root in zip(SIDES, (a, b))}
            traces = {s: _traces(h, configs) for s, (_, h) in loaded.items()}
            result: dict = {"agree": {}, "seconds": {}}
            for w in configs:
                verdicts = [
                    # Older checkouts keep a report's messages in a list.
                    [[(r.name, r.passed, r.count, tuple(r.violations)) for r in rs]
                     for rs in _check(c, traces[s][w])]
                    for s, (c, _) in loaded.items()
                ]
                result["agree"][w] = verdicts[0] == verdicts[1]
                times: dict[str, list[float]] = {s: [] for s in SIDES}
                for i in range(rounds):
                    for s in SIDES if i % 2 == 0 else SIDES[::-1]:
                        times[s].append(_timed(loaded[s][0], traces[s][w]))
                result["seconds"][w] = times
            return result
        finally:
            sys.path.remove(tmp)
            packages = {f"dexsim_{s}" for s in SIDES}
            for name in [m for m in sys.modules if m.split(".")[0] in packages]:
                del sys.modules[name]


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
        lo = {s: min(t) for s, t in times.items()}
        mid = {s: statistics.median(t) for s, t in times.items()}
        paired = statistics.median(b / a for a, b in zip(times["a"], times["b"]))
        print(
            f"{w}: A min {lo['a'] * 1e3:.1f} ms median {mid['a'] * 1e3:.1f} ms;"
            f" B min {lo['b'] * 1e3:.1f} ms median {mid['b'] * 1e3:.1f} ms;"
            f" B/A min {lo['b'] / lo['a']:.3f} median {mid['b'] / mid['a']:.3f}"
            f" per-round median {paired:.3f};"
            f" reports {'agree' if result['agree'][w] else 'DIFFER'} ({len(times['a'])} rounds)"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
