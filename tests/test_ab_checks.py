"""``tools/ab_checks.py`` at tiny sizes: the repository against itself."""

import pathlib
import sys

from dexsim.harness import ScenarioConfig

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _import(directory: str, name: str):
    sys.path.insert(0, str(ROOT / directory))
    try:
        return __import__(name)
    finally:
        sys.path.remove(str(ROOT / directory))


def test_ab_checks_compares_the_repo_with_itself():
    ab_checks = _import("tools", "ab_checks")
    configs = {"short": [dict(seed=0, blocks=2), dict(seed=1, blocks=2)], "long": [dict(seed=5, blocks=6)]}
    result = ab_checks.compare(ROOT, ROOT, rounds=3, configs=configs)
    assert result["agree"] == {"short": True, "long": True}
    for times in result["seconds"].values():
        assert {s: len(t) for s, t in times.items()} == {"a": 3, "b": 3}
        assert all(t > 0 for side in times.values() for t in side)
    # Neither copy stays imported.
    assert not [m for m in sys.modules if m.startswith("dexsim_")]


def test_ab_checks_times_the_benchmark_traces(tmp_path):
    ab_checks, workloads = _import("tools", "ab_checks"), _import("bench", "workloads")
    configs = ab_checks.bench_configs()
    for tool, bench in (("short", "fuzz_campaign"), ("long", "long_trace")):
        job = workloads.build(bench, ab_checks.JOB, str(tmp_path))
        assert [ScenarioConfig(**c) for c in configs[tool]] == job.configs
