"""``tools/ab_checks.py`` at tiny sizes: the repository against itself."""

import pathlib
import shutil
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
    for key in ("seconds", "exec_seconds"):
        assert list(result[key]) == ["short", "long"]
        for times in result[key].values():
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


def test_ab_checks_tells_reports_that_differ_only_in_a_message(tmp_path, monkeypatch, capsys):
    # B words one tez_pool message differently: every verdict and count agrees.
    ab_checks = _import("tools", "ab_checks")
    b = tmp_path / "b"
    shutil.copytree(ROOT / "src" / "dexsim", b / "src" / "dexsim",
                    ignore=shutil.ignore_patterns("__pycache__"))
    checks_py = b / "src" / "dexsim" / "checks.py"
    text = checks_py.read_text()
    assert text.count("committed xtzPool") == 1
    checks_py.write_text(text.replace("committed xtzPool", "committed xtz pool"))
    config = dict(seed=0, blocks=10, mutation="default_no_credit")
    compare = ab_checks.compare
    monkeypatch.setattr(ab_checks, "compare", lambda a, b: compare(
        a, b, rounds=2, configs={"short": [config], "long": [dict(seed=5, blocks=2)]}))
    assert ab_checks.main([str(ROOT), str(b)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == ["short", "short exec", "long", "long exec"]
    assert lines[0].endswith("reports DIFFER (2 rounds)")
    assert lines[2].endswith("reports agree (2 rounds)")
    for line in lines[1::2]:
        assert "B/A min" in line and "per-round median" in line and "reports" not in line
        assert line.endswith(" (2 rounds)")
