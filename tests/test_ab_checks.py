"""``tools/ab_checks.py`` at tiny sizes: the repository against itself."""

import pathlib
import re
import shutil
import sys

from dexsim.harness import ScenarioConfig

ROOT = pathlib.Path(__file__).resolve().parent.parent
WIRING = (ROOT / "docs" / "examples" / "wiring.json").read_text()  # a small scenario


def _import(directory: str, name: str):
    sys.path.insert(0, str(ROOT / directory))
    try:
        return __import__(name)
    finally:
        sys.path.remove(str(ROOT / directory))


def test_ab_checks_compares_the_repo_with_itself():
    ab_checks = _import("tools", "ab_checks")
    configs = {"short": [dict(seed=0, blocks=2), dict(seed=1, blocks=2)], "long": [dict(seed=5, blocks=6)]}
    result = ab_checks.compare(ROOT, ROOT, rounds=3, configs=configs, scenario=WIRING)
    assert result["agree"] == {"short": True, "long": True, "scenario": True}
    assert set(result["long_peak"]) == {"a", "b"} and all(b > 0 for b in result["long_peak"].values())
    # Call counts do not drift: equal checkouts make equal calls.
    for calls in (result["calls"], result["scenario_calls"]):
        assert calls["a"] == calls["b"] and all(n > 0 for n in calls["a"])
    for key in ("seconds", "exec_seconds"):
        assert list(result[key]) == ["short", "long"]
    for times in [*result["seconds"].values(), *result["exec_seconds"].values(),
                  result["scenario_seconds"]]:
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
    job = workloads.build("scenario_exec", ab_checks.JOB, str(tmp_path))
    assert ab_checks.bench_scenario() == pathlib.Path(job.scenario_path).read_text()


def _edited_copy(b, module, text, replacement):
    """A copy of ``src/dexsim`` at ``b`` with ``text``, which occurs once in ``module``, replaced."""
    shutil.copytree(ROOT / "src" / "dexsim", b / "src" / "dexsim",
                    ignore=shutil.ignore_patterns("__pycache__"))
    path = b / "src" / "dexsim" / module
    source = path.read_text()
    assert source.count(text) == 1
    path.write_text(source.replace(text, replacement))


def _main_lines(ab_checks, b, monkeypatch, capsys) -> list[str]:
    config = dict(seed=0, blocks=10, mutation="default_no_credit")
    compare = ab_checks.compare
    monkeypatch.setattr(ab_checks, "compare", lambda a, b: compare(
        a, b, rounds=2, configs={"short": [config], "long": [dict(seed=5, blocks=2)]},
        scenario=WIRING))
    assert ab_checks.main([str(ROOT), str(b)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "short", "short exec", "long", "long exec", "scenario exec", "long mem", "calls",
        "scenario calls"]
    for line in lines[1:4:2]:
        assert "B/A min" in line and "per-round median" in line and "reports" not in line
        assert line.endswith(" (2 rounds)")
    assert re.fullmatch(r"long mem: A peak [\d.]+ MiB; B peak [\d.]+ MiB; B/A [\d.]+"
                        r" \(1 untimed pass\)", lines[5])
    for line, name in zip(lines[6:], ("calls", "scenario calls")):
        assert re.fullmatch(name + r": A \d+ Python \d+ C; B \d+ Python \d+ C;"
                            r" B/A [\d.]+ Python [\d.]+ C \(1 untimed pass\)", line)
    return lines


def test_ab_checks_tells_reports_that_differ_only_in_a_message(tmp_path, monkeypatch, capsys):
    # B words one tez_pool message differently: every verdict and count agrees.
    ab_checks = _import("tools", "ab_checks")
    _edited_copy(tmp_path / "b", "checks.py", "committed xtzPool", "committed xtz pool")
    lines = _main_lines(ab_checks, tmp_path / "b", monkeypatch, capsys)
    assert lines[0].endswith("reports DIFFER (2 rounds)")
    assert lines[2].endswith("reports agree (2 rounds)")
    assert lines[4].endswith("output agree (2 rounds)")


def test_ab_checks_tells_scenario_output_that_differs(tmp_path, monkeypatch, capsys):
    # B writes each tx record with its last two keys swapped: the same run, other bytes.
    ab_checks = _import("tools", "ab_checks")
    _edited_copy(tmp_path / "b", "scenario.py", '"payload": {payload}, "to": {quote(str(ev.to))}',
                 '"to": {quote(str(ev.to))}, "payload": {payload}')
    lines = _main_lines(ab_checks, tmp_path / "b", monkeypatch, capsys)
    assert lines[0].endswith("reports agree (2 rounds)")
    assert lines[4].endswith("output DIFFER (2 rounds)")
